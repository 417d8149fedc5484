//! Azure-NSG-flow-log-style flow tuples.
//!
//! Real NSG flow logs carry each flow as a comma-separated "flow tuple".
//! This module speaks the version-2 tuple, which carries byte and packet
//! counters:
//!
//! ```text
//! <ts>,<srcIp>,<dstIp>,<srcPort>,<dstPort>,<proto>,<dir>,<state>,<pktsS>,<bytesS>,<pktsR>,<bytesR>
//! ```
//!
//! Tuples are emitted from the reporting VM's vantage: `I` (inbound) means
//! the remote initiated, `O` means the local VM initiated; either way the
//! `src*` fields name the initiator, as in the real format.

use crate::error::{Error, Result};
use crate::record::{ConnSummary, FlowKey, Protocol};
use std::net::Ipv4Addr;

/// Render one summary as a v2 flow tuple, from the reporting VM's vantage.
///
/// The initiator is inferred from the ports (ephemeral side initiates); the
/// tuple's src fields always name the initiator per the NSG convention.
pub fn to_flow_tuple(s: &ConnSummary) -> String {
    let local_initiates = s.key.local_port >= 32_768 && s.key.remote_port < 32_768;
    let proto = match s.key.proto {
        Protocol::Tcp => "T",
        Protocol::Udp => "U",
        Protocol::Other(_) => "T",
    };
    if local_initiates {
        format!(
            "{},{},{},{},{},{proto},O,E,{},{},{},{}",
            s.ts,
            s.key.local_ip,
            s.key.remote_ip,
            s.key.local_port,
            s.key.remote_port,
            s.pkts_sent,
            s.bytes_sent,
            s.pkts_rcvd,
            s.bytes_rcvd
        )
    } else {
        format!(
            "{},{},{},{},{},{proto},I,E,{},{},{},{}",
            s.ts,
            s.key.remote_ip,
            s.key.local_ip,
            s.key.remote_port,
            s.key.local_port,
            s.pkts_rcvd,
            s.bytes_rcvd,
            s.pkts_sent,
            s.bytes_sent
        )
    }
}

/// Parse one v2 flow tuple back into a summary (reporting-VM vantage).
pub fn from_flow_tuple(tuple: &str) -> Result<ConnSummary> {
    let f: Vec<&str> = tuple.split(',').collect();
    if f.len() != 12 {
        return Err(Error::MalformedLine {
            reason: format!("v2 flow tuple needs 12 fields, got {}", f.len()),
        });
    }
    fn num<T: std::str::FromStr>(field: &'static str, v: &str) -> Result<T> {
        v.parse().map_err(|_| Error::BadField { field, value: v.to_string() })
    }
    fn ip(field: &'static str, v: &str) -> Result<Ipv4Addr> {
        v.parse().map_err(|_| Error::BadField { field, value: v.to_string() })
    }
    let ts: u64 = num("ts", f[0])?;
    let src_ip = ip("src_ip", f[1])?;
    let dst_ip = ip("dst_ip", f[2])?;
    let src_port: u16 = num("src_port", f[3])?;
    let dst_port: u16 = num("dst_port", f[4])?;
    let proto = match f[5] {
        "T" => Protocol::Tcp,
        "U" => Protocol::Udp,
        other => return Err(Error::BadField { field: "proto", value: other.to_string() }),
    };
    let (pkts_fwd, bytes_fwd, pkts_rev, bytes_rev) = (
        num::<u64>("pkts_src_to_dst", f[8])?,
        num::<u64>("bytes_src_to_dst", f[9])?,
        num::<u64>("pkts_dst_to_src", f[10])?,
        num::<u64>("bytes_dst_to_src", f[11])?,
    );
    // Direction flag decides which side is the reporting VM.
    match f[6] {
        // Outbound: the local VM is the tuple's src.
        "O" => Ok(ConnSummary {
            ts,
            key: FlowKey {
                local_ip: src_ip,
                local_port: src_port,
                remote_ip: dst_ip,
                remote_port: dst_port,
                proto,
            },
            pkts_sent: pkts_fwd,
            bytes_sent: bytes_fwd,
            pkts_rcvd: pkts_rev,
            bytes_rcvd: bytes_rev,
        }),
        // Inbound: the local VM is the tuple's dst.
        "I" => Ok(ConnSummary {
            ts,
            key: FlowKey {
                local_ip: dst_ip,
                local_port: dst_port,
                remote_ip: src_ip,
                remote_port: src_port,
                proto,
            },
            pkts_sent: pkts_rev,
            bytes_sent: bytes_rev,
            pkts_rcvd: pkts_fwd,
            bytes_rcvd: bytes_fwd,
        }),
        other => Err(Error::BadField { field: "direction", value: other.to_string() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_side(ts: u64, i: u8) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, i),
                40_000 + i as u16,
                Ipv4Addr::new(10, 0, 1, 1),
                443,
            ),
            pkts_sent: 10,
            pkts_rcvd: 8,
            bytes_sent: 1200,
            bytes_rcvd: 9000,
        }
    }

    #[test]
    fn outbound_tuple_round_trips() {
        let s = client_side(60, 1);
        let t = to_flow_tuple(&s);
        assert!(t.contains(",O,E,"), "client side reports outbound: {t}");
        assert_eq!(from_flow_tuple(&t).unwrap(), s);
    }

    #[test]
    fn inbound_tuple_round_trips() {
        // Server-side vantage: local port is the service port.
        let s = client_side(60, 2).mirrored();
        let t = to_flow_tuple(&s);
        assert!(t.contains(",I,E,"), "server side reports inbound: {t}");
        let back = from_flow_tuple(&t).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn tuple_src_is_always_the_initiator() {
        let client = client_side(0, 3);
        let server = client.mirrored();
        let tc = to_flow_tuple(&client);
        let ts_ = to_flow_tuple(&server);
        // Both vantages name the client (10.0.0.3) as tuple src.
        assert!(tc.starts_with("0,10.0.0.3,"));
        assert!(ts_.starts_with("0,10.0.0.3,"));
    }

    #[test]
    fn malformed_tuples_are_rejected_with_context() {
        assert!(matches!(from_flow_tuple("1,2,3"), Err(Error::MalformedLine { .. })));
        let bad_ip = "0,999.0.0.1,10.0.0.1,40000,443,T,O,E,1,1,1,1";
        assert!(matches!(from_flow_tuple(bad_ip), Err(Error::BadField { field: "src_ip", .. })));
        let bad_dir = "0,10.0.0.1,10.0.0.2,40000,443,T,X,E,1,1,1,1";
        assert!(matches!(
            from_flow_tuple(bad_dir),
            Err(Error::BadField { field: "direction", .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        // A version-1 tuple stops at the decision flag: no counters.
        let v1 = "0,10.0.0.1,10.0.0.2,40000,443,T,O,A";
        assert!(matches!(from_flow_tuple(v1), Err(Error::MalformedLine { .. })));
    }
}
