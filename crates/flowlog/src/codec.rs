//! Wire codecs for connection-summary streams.
//!
//! Two formats, both lossless for the Table 2 schema:
//!
//! * **Text** — one comma-separated line per record, in the spirit of the
//!   NSG/VPC flow-log export formats, convenient for eyeballing.
//! * **Binary** — a fixed-width framed format (magic + version + count +
//!   records) used where the text overhead matters, e.g. replaying
//!   multi-million-record streams into benchmarks.
//!
//! Both codecs are exercised by round-trip property tests; the binary decoder
//! checks a frame's length once, then reads each record at fixed offsets of one copy.

use crate::error::{Error, Result};
use crate::record::{ConnSummary, FlowKey, Protocol};
use std::net::Ipv4Addr;

/// Encode one record as a text line (no trailing newline).
pub fn encode_line(s: &ConnSummary) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{}",
        s.ts,
        s.key.proto.number(),
        s.key.local_ip,
        s.key.local_port,
        s.key.remote_ip,
        s.key.remote_port,
        s.pkts_sent,
        s.pkts_rcvd,
        s.bytes_sent,
        s.bytes_rcvd
    )
}

/// Decode one text line into a record.
pub fn decode_line(line: &str) -> Result<ConnSummary> {
    let fields: Vec<&str> = line.trim_end().split(',').collect();
    if fields.len() != 10 {
        return Err(Error::MalformedLine {
            reason: format!("expected 10 fields, found {}", fields.len()),
        });
    }
    fn num<T: std::str::FromStr>(field: &'static str, v: &str) -> Result<T> {
        v.parse().map_err(|_| Error::BadField { field, value: v.to_string() })
    }
    fn ip(field: &'static str, v: &str) -> Result<Ipv4Addr> {
        v.parse().map_err(|_| Error::BadField { field, value: v.to_string() })
    }
    Ok(ConnSummary {
        ts: num("ts", fields[0])?,
        key: FlowKey {
            proto: Protocol::from_number(num("proto", fields[1])?),
            local_ip: ip("local_ip", fields[2])?,
            local_port: num("local_port", fields[3])?,
            remote_ip: ip("remote_ip", fields[4])?,
            remote_port: num("remote_port", fields[5])?,
        },
        pkts_sent: num("pkts_sent", fields[6])?,
        pkts_rcvd: num("pkts_rcvd", fields[7])?,
        bytes_sent: num("bytes_sent", fields[8])?,
        bytes_rcvd: num("bytes_rcvd", fields[9])?,
    })
}

/// Magic bytes opening every binary frame.
pub(crate) const BINARY_MAGIC: &[u8; 4] = b"CGF\x01";

/// Fixed on-wire size of one binary record.
pub const BINARY_RECORD_SIZE: usize = 8 + 4 + 2 + 4 + 2 + 1 + 8 * 4;

/// Encode a batch into the framed binary format.
pub fn encode_binary(records: &[ConnSummary]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(BINARY_MAGIC.len() + 4 + records.len() * BINARY_RECORD_SIZE);
    buf.extend_from_slice(BINARY_MAGIC);
    buf.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        buf.extend_from_slice(&r.ts.to_be_bytes());
        buf.extend_from_slice(&r.key.local_ip.octets());
        buf.extend_from_slice(&r.key.local_port.to_be_bytes());
        buf.extend_from_slice(&r.key.remote_ip.octets());
        buf.extend_from_slice(&r.key.remote_port.to_be_bytes());
        buf.push(r.key.proto.number());
        for n in [r.pkts_sent, r.pkts_rcvd, r.bytes_sent, r.bytes_rcvd] {
            buf.extend_from_slice(&n.to_be_bytes());
        }
    }
    buf
}

/// `N` bytes of a record or header at a constant offset (inlined, no bounds
/// check runs).
fn field<const N: usize, const M: usize>(rec: &[u8; M], at: usize) -> [u8; N] {
    std::array::from_fn(|i| rec[at + i])
}

/// Decode a framed binary batch.
pub fn decode_binary(buf: &[u8]) -> Result<Vec<ConnSummary>> {
    let Some((header, body)) = buf.split_first_chunk::<8>() else {
        return Err(Error::BadBinary("buffer shorter than frame header".into()));
    };
    let magic: [u8; 4] = field(header, 0);
    if &magic != BINARY_MAGIC {
        return Err(Error::BadBinary(format!("bad magic {magic:02x?}")));
    }
    let count = u32::from_be_bytes(field(header, 4)) as usize;
    // Checked: a 32-bit `usize` would wrap, and the sender chose `count`.
    let Some(body) = count.checked_mul(BINARY_RECORD_SIZE).and_then(|need| body.get(..need)) else {
        return Err(Error::BadBinary(format!(
            "frame claims {count} records but only {} bytes remain",
            body.len()
        )));
    };
    let mut out = Vec::with_capacity(count);
    let mut rec = [0u8; BINARY_RECORD_SIZE];
    for chunk in body.chunks_exact(BINARY_RECORD_SIZE) {
        rec.copy_from_slice(chunk);
        out.push(ConnSummary {
            ts: u64::from_be_bytes(field(&rec, 0)),
            key: FlowKey {
                local_ip: Ipv4Addr::from(u32::from_be_bytes(field(&rec, 8))),
                local_port: u16::from_be_bytes(field(&rec, 12)),
                remote_ip: Ipv4Addr::from(u32::from_be_bytes(field(&rec, 14))),
                remote_port: u16::from_be_bytes(field(&rec, 18)),
                proto: Protocol::from_number(rec[20]),
            },
            pkts_sent: u64::from_be_bytes(field(&rec, 21)),
            pkts_rcvd: u64::from_be_bytes(field(&rec, 29)),
            bytes_sent: u64::from_be_bytes(field(&rec, 37)),
            bytes_rcvd: u64::from_be_bytes(field(&rec, 45)),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32) -> ConnSummary {
        ConnSummary {
            ts: 60 * i as u64,
            key: FlowKey::tcp(
                Ipv4Addr::from(0x0a00_0001 + i),
                (1000 + i) as u16,
                Ipv4Addr::from(0x0a00_1000 + i),
                443,
            ),
            pkts_sent: 10 + i as u64,
            pkts_rcvd: 5,
            bytes_sent: 1_000 * i as u64,
            bytes_rcvd: 999,
        }
    }

    #[test]
    fn text_line_round_trip() {
        for i in 0..20 {
            let r = rec(i);
            assert_eq!(decode_line(&encode_line(&r)).unwrap(), r);
        }
    }

    #[test]
    fn text_batch_round_trip() {
        let recs: Vec<_> = (0..50).map(rec).collect();
        let text: String = recs.iter().map(|r| encode_line(r) + "\n").collect();
        let back: Vec<_> = text.lines().map(|l| decode_line(l).unwrap()).collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn text_rejects_wrong_field_count() {
        let err = decode_line("1,2,3").unwrap_err();
        assert!(matches!(err, Error::MalformedLine { .. }));
    }

    #[test]
    fn text_rejects_bad_ip_with_field_name() {
        let line = "0,6,999.0.0.1,80,10.0.0.2,443,1,1,1,1";
        match decode_line(line).unwrap_err() {
            Error::BadField { field, .. } => assert_eq!(field, "local_ip"),
            other => panic!("expected BadField, got {other:?}"),
        }
    }

    #[test]
    fn binary_round_trip() {
        let recs: Vec<_> = (0..100).map(rec).collect();
        let buf = encode_binary(&recs);
        assert_eq!(buf.len(), 8 + recs.len() * BINARY_RECORD_SIZE);
        assert_eq!(decode_binary(&buf).unwrap(), recs);
    }

    #[test]
    fn binary_empty_batch() {
        let buf = encode_binary(&[]);
        assert_eq!(decode_binary(&buf).unwrap(), Vec::new());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = encode_binary(&[rec(0)]);
        buf[0] ^= 0xff;
        assert!(matches!(decode_binary(&buf).unwrap_err(), Error::BadBinary(_)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let full = encode_binary(&[rec(0), rec(1)]);
        let truncated = &full[..full.len() - 5];
        assert!(matches!(decode_binary(truncated).unwrap_err(), Error::BadBinary(_)));
    }

    #[test]
    fn binary_rejects_every_strict_prefix() {
        // All or nothing: a cut frame is an error, never the records that
        // happened to arrive whole.
        let full = encode_binary(&[rec(0), rec(1), rec(2)]);
        for len in 0..full.len() {
            let cut = decode_binary(&full[..len]);
            assert!(matches!(cut, Err(Error::BadBinary(_))), "prefix of {len} bytes: {cut:?}");
        }
        assert_eq!(decode_binary(&full).unwrap().len(), 3);
    }

    #[test]
    fn binary_refuses_a_count_its_body_cannot_hold() {
        // The header claims u32::MAX records over a 100-byte body: refused
        // by the length check, before the count sizes any allocation (which
        // at 72 bytes a record would not survive).
        let mut frame = BINARY_MAGIC.to_vec();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&[0u8; 100]);
        assert!(matches!(decode_binary(&frame), Err(Error::BadBinary(_))));
    }

    #[test]
    fn binary_is_denser_than_text() {
        let recs: Vec<_> = (0..1000).map(rec).collect();
        let b = encode_binary(&recs).len();
        let t: usize = recs.iter().map(|r| encode_line(r).len() + 1).sum();
        assert!(b < t, "binary ({b}) should beat text ({t})");
    }
}
