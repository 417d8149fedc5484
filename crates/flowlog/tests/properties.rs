//! Property-based tests for the telemetry substrate.

use flowlog::codec;
use flowlog::nic::{Direction, HostAgent};
use flowlog::record::{service_port, ConnSummary, FlowKey, Protocol, ANY_PORT};
use flowlog::sampling::{Sampler, SamplingConfig};
use flowlog::time;
use proptest::prelude::*;
use std::net::Ipv4Addr;

prop_compose! {
    fn arb_key()(
        lip in any::<u32>(),
        lport in any::<u16>(),
        rip in any::<u32>(),
        rport in any::<u16>(),
        proto in any::<u8>(),
    ) -> FlowKey {
        FlowKey {
            local_ip: Ipv4Addr::from(lip),
            local_port: lport,
            remote_ip: Ipv4Addr::from(rip),
            remote_port: rport,
            proto: Protocol::from_number(proto),
        }
    }
}

prop_compose! {
    fn arb_summary()(
        key in arb_key(),
        ts in 0u64..(1 << 40),
        ps in 0u64..(1 << 30),
        pr in 0u64..(1 << 30),
        bs in 0u64..(1 << 40),
        br in 0u64..(1 << 40),
    ) -> ConnSummary {
        ConnSummary { ts, key, pkts_sent: ps, pkts_rcvd: pr, bytes_sent: bs, bytes_rcvd: br }
    }
}

/// The service-port `match` as `segment::policy` wrote it, restated.
fn moved_from(local: u16, remote: u16) -> u16 {
    match (local < 32_768, remote < 32_768) {
        (true, false) => local,
        (false, true) => remote,
        (true, true) => local.min(remote),
        (false, false) => 0,
    }
}

/// Every pair of the ports on either side of the ephemeral boundary.
#[test]
fn service_port_matches_the_rule_it_moved_from_at_the_boundaries() {
    const EDGES: [u16; 4] = [0, 32_767, 32_768, 65_535];
    let ip = Ipv4Addr::new(10, 0, 0, 1);
    for l in EDGES {
        for r in EDGES {
            assert_eq!(service_port(&FlowKey::tcp(ip, l, ip, r)), moved_from(l, r), "{l} ↔ {r}");
        }
    }
    assert_eq!(service_port(&FlowKey::tcp(ip, 40_000, ip, 50_000)), ANY_PORT);
}

proptest! {
    /// Text codec round-trips every representable record.
    #[test]
    fn text_codec_round_trip(s in arb_summary()) {
        let line = codec::encode_line(&s);
        prop_assert_eq!(codec::decode_line(&line).unwrap(), s);
    }

    /// Binary codec round-trips batches.
    #[test]
    fn binary_codec_round_trip(recs in prop::collection::vec(arb_summary(), 0..64)) {
        let buf = codec::encode_binary(&recs);
        prop_assert_eq!(codec::decode_binary(&buf).unwrap(), recs);
    }

    /// Canonicalization is idempotent and direction-independent.
    #[test]
    fn canonical_key_properties(k in arb_key()) {
        let c = k.canonical();
        prop_assert_eq!(c, c.canonical());
        prop_assert_eq!(c, k.reversed().canonical());
        prop_assert!(c.is_canonical());
    }

    /// `service_port` is the rule policy learning used before it moved down
    /// to the record schema, on random pairs, and a mirror names the same port.
    #[test]
    fn service_port_matches_the_rule_it_moved_from(k in arb_key()) {
        prop_assert_eq!(service_port(&k), moved_from(k.local_port, k.remote_port));
        prop_assert_eq!(service_port(&k.reversed()), service_port(&k));
    }

    /// Mirroring twice is the identity and preserves totals.
    #[test]
    fn mirror_involution(s in arb_summary()) {
        prop_assert_eq!(s.mirrored().mirrored(), s);
        prop_assert_eq!(s.mirrored().bytes_total(), s.bytes_total());
    }

    /// Bucketing: the bucket start is <= ts, within one interval, and stable.
    #[test]
    fn bucket_start_properties(ts in any::<u64>(), interval in 1u64..100_000) {
        let b = time::bucket_start(ts, interval);
        prop_assert!(b <= ts);
        prop_assert!(ts - b < interval);
        prop_assert_eq!(time::bucket_start(b, interval), b);
    }

    /// Flow-table mass conservation: every observed byte and packet appears
    /// in exactly one emitted summary, across evictions, polls, and flush.
    #[test]
    fn nic_conserves_mass(
        capacity in 1usize..32,
        events in prop::collection::vec(
            (0u64..1800, 0u32..64, any::<bool>(), 1u64..100, 1u64..100_000),
            1..200,
        ),
    ) {
        let mut agent = HostAgent::new(capacity, 60, 600);
        let mut events = events;
        events.sort_by_key(|e| e.0);
        let (mut obs_pkts, mut obs_bytes) = (0u64, 0u64);
        let mut emitted: Vec<ConnSummary> = Vec::new();
        for (ts, flow, is_tx, pkts, bytes) in events {
            let key = FlowKey::tcp(
                Ipv4Addr::from(0x0a00_0000 + flow),
                40000,
                Ipv4Addr::from(0x0a01_0000),
                443,
            );
            let dir = if is_tx { Direction::Tx } else { Direction::Rx };
            agent.observe(ts, key, dir, pkts, bytes);
            obs_pkts += pkts;
            obs_bytes += bytes;
            emitted.extend(agent.poll(ts));
        }
        emitted.extend(agent.flush(3600));
        let got_pkts: u64 = emitted.iter().map(|s| s.pkts_total()).sum();
        let got_bytes: u64 = emitted.iter().map(|s| s.bytes_total()).sum();
        prop_assert_eq!(got_pkts, obs_pkts);
        prop_assert_eq!(got_bytes, obs_bytes);
        for s in &emitted {
            prop_assert!(s.is_well_formed(), "emitted record must be well formed: {:?}", s);
        }
    }

    /// Sampling never invents traffic and keeps records well-formed.
    #[test]
    fn sampling_is_contractive(
        s in arb_summary(),
        flow_rate in 0.01f64..=1.0,
        packet_rate in 0.01f64..=1.0,
        seed in any::<u64>(),
    ) {
        // Constrain to well-formed inputs.
        prop_assume!(s.is_well_formed());
        let sampler = Sampler::new(SamplingConfig::new(flow_rate, packet_rate).unwrap(), 7).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(out) = sampler.sample(&s, &mut rng) {
            prop_assert!(out.pkts_sent <= s.pkts_sent);
            prop_assert!(out.pkts_rcvd <= s.pkts_rcvd);
            prop_assert!(out.bytes_sent <= s.bytes_sent);
            prop_assert!(out.bytes_rcvd <= s.bytes_rcvd);
            prop_assert!(out.is_well_formed());
            prop_assert!(out.pkts_total() > 0);
        }
    }
}

proptest! {
    /// Decoders never panic on arbitrary input — they return errors.
    #[test]
    fn text_decoder_never_panics(line in ".{0,200}") {
        let _ = codec::decode_line(&line);
    }

    #[test]
    fn binary_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode_binary(&bytes);
    }

    #[test]
    fn nsg_tuple_decoder_never_panics(tuple in ".{0,200}") {
        let _ = flowlog::nsg::from_flow_tuple(&tuple);
    }

    /// NSG round trip holds for every well-formed record with a clear
    /// initiator side (one ephemeral, one service port).
    #[test]
    fn nsg_round_trip(s in arb_summary()) {
        prop_assume!(s.is_well_formed());
        let tuple = flowlog::nsg::to_flow_tuple(&s);
        let back = flowlog::nsg::from_flow_tuple(&tuple).expect("own output parses");
        // The tuple format does not carry exotic protocol numbers; compare
        // everything else exactly.
        prop_assert_eq!(back.ts, s.ts);
        prop_assert_eq!(back.key.local_ip, s.key.local_ip);
        prop_assert_eq!(back.key.remote_ip, s.key.remote_ip);
        prop_assert_eq!(back.key.local_port, s.key.local_port);
        prop_assert_eq!(back.key.remote_port, s.key.remote_port);
        prop_assert_eq!(back.bytes_sent, s.bytes_sent);
        prop_assert_eq!(back.bytes_rcvd, s.bytes_rcvd);
        prop_assert_eq!(back.pkts_sent, s.pkts_sent);
        prop_assert_eq!(back.pkts_rcvd, s.pkts_rcvd);
    }
}
