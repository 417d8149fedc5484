//! Integration tests for the observability crate: golden exposition output,
//! correctness under thread contention, and histogram quantile accuracy
//! against an exact sorted baseline.

use obs::export::{json_snapshot, prometheus_text};
use obs::names::{self, Family};
use obs::{Level, Obs, Registry};
use std::sync::Arc;

#[test]
fn prometheus_text_golden() {
    let r = Registry::new();
    let h =
        r.histogram(&Family::new("demo_latency_seconds", "Request latency.", ["stage"]), ["build"]);
    h.record(1.0); // falls in [1.0, 1.2)
    h.record(3.0); // falls in [3.0, 3.2)
    r.gauge(&Family::new("demo_queue_depth", "Queue depth.", []), []).set(3.0);
    r.counter(&Family::new("demo_requests_total", "Requests served.", ["route"]), ["a"]).add(7);
    r.counter(&Family::new("demo_requests_total", "Requests served.", ["route"]), ["b"]);

    let expected = "\
# HELP demo_latency_seconds Request latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{stage=\"build\",le=\"1.2\"} 1
demo_latency_seconds_bucket{stage=\"build\",le=\"3.2\"} 2
demo_latency_seconds_bucket{stage=\"build\",le=\"+Inf\"} 2
demo_latency_seconds_sum{stage=\"build\"} 4
demo_latency_seconds_count{stage=\"build\"} 2
# HELP demo_queue_depth Queue depth.
# TYPE demo_queue_depth gauge
demo_queue_depth 3
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{route=\"a\"} 7
demo_requests_total{route=\"b\"} 0
";
    assert_eq!(prometheus_text(&r), expected);
}

#[test]
fn json_snapshot_is_parseable_and_complete() {
    let r = Registry::new();
    r.counter(&Family::new("a_total", "Help with \"quotes\".", ["k"]), ["v"]).add(5);
    r.histogram(&Family::new("b_seconds", "h", []), []).record(0.5);
    let o = Obs::new(Arc::new(Registry::new())); // separate: events on r directly
    drop(o);
    r.push_event(obs::Event {
        level: Level::Warn,
        target: "test".into(),
        message: "line\nbreak".into(),
        fields: vec![("x".into(), "1".into())],
    });

    let json = json_snapshot(&r);
    // Parse with the workspace's serde_json shim to prove well-formedness.
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let metrics = v.get("metrics").and_then(|m| m.as_array()).expect("metrics array");
    assert_eq!(metrics.len(), 2);
    assert_eq!(metrics[0].get("name").unwrap().as_str().unwrap(), "a_total");
    assert_eq!(metrics[0].get("value").unwrap().as_u64().unwrap(), 5);
    assert_eq!(metrics[1].get("kind").unwrap().as_str().unwrap(), "histogram");
    assert_eq!(metrics[1].get("count").unwrap().as_u64().unwrap(), 1);
    let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].get("level").unwrap().as_str().unwrap(), "warn");
}

#[test]
fn counters_are_exact_under_contention() {
    let r = Arc::new(Registry::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let r = r.clone();
            s.spawn(move || {
                // Every thread resolves its own handle — same underlying cell.
                let c = r.counter(&Family::new("contended_total", "h", []), []);
                let g = r.gauge(&Family::new("contended_gauge", "h", []), []);
                let h = r.histogram(&Family::new("contended_seconds", "h", []), []);
                for i in 0..PER_THREAD {
                    c.inc();
                    g.add(1.0);
                    // Integer-valued samples keep the f64 CAS sum exact.
                    h.record((1 + (t as u64 + i) % 4) as f64);
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(r.counter(&Family::new("contended_total", "h", []), []).get(), total);
    assert_eq!(r.gauge(&Family::new("contended_gauge", "h", []), []).get(), total as f64);
    let h = r.histogram(&Family::new("contended_seconds", "h", []), []);
    assert_eq!(h.count(), total);
    // Values cycle 1,2,3,4 uniformly per thread, so the exact sum is known.
    assert_eq!(h.sum(), (THREADS as u64 * PER_THREAD / 4 * (1 + 2 + 3 + 4)) as f64);
    assert_eq!(h.max(), 4.0);
}

/// Deterministic LCG in (0, 1).
fn lcg() -> impl FnMut() -> f64 {
    let mut state = 0x0123_4567_89AB_CDEF_u64;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

#[test]
fn histogram_quantiles_track_exact_sorted_baseline() {
    let r = Registry::new();
    let h = r.histogram(&Family::new("q_seconds", "h", []), []);
    let mut next = lcg();
    // Exponential-ish latencies spanning several decades.
    let values: Vec<f64> = (0..20_000).map(|_| -next().ln() * 0.05).collect();
    for &v in &values {
        h.record(v);
    }
    let mut sorted = values.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (q, name) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let exact = sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
        let est = h.quantile(q);
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < 0.25,
            "{name}: estimate {est} vs exact {exact} (rel err {rel:.3}) exceeds bucket tolerance"
        );
    }
    assert_eq!(h.quantile(1.0), h.max());
    assert_eq!(h.count(), 20_000);
}

/// Property: across any condition sequence, the alert state machine never
/// skips the pending state on the way to firing, only resolves out of
/// firing, and re-fires a resolved alert through pending again. Driven by a
/// deterministic pseudo-random signal against rules at several hold times.
#[test]
fn alert_state_machine_transitions_are_well_formed_under_random_signals() {
    use obs::AlertState::{Firing, Inactive, Pending, Resolved};

    let store = obs::Tsdb::new(obs::TsdbConfig::default());
    let engine = obs::AlertEngine::new(Obs::noop());
    for hold in [0u64, 1, 2, 4] {
        engine.add_rule(
            obs::AlertRule::query(&format!("prop_hold_{hold}"), "prop_signal > 0.5")
                .unwrap()
                .with_for_ticks(hold),
        );
    }
    let key = obs::SeriesKey::value("prop_signal", &[]);
    let mut next = lcg();
    let mut all = Vec::new();
    for tick in 1..=600u64 {
        store.append(key.clone(), tick, next());
        all.extend(engine.evaluate(tick, &store));
    }
    assert!(all.len() > 50, "random signal exercises the machine: {}", all.len());

    let mut last = std::collections::HashMap::new();
    let mut prev_tick = 0u64;
    for t in &all {
        assert!(t.tick >= prev_tick, "transitions are tick-ordered");
        prev_tick = t.tick;
        let from = last.get(&t.rule).copied().unwrap_or(Inactive);
        assert_eq!(t.from, from, "{}: transitions chain without gaps", t.rule);
        match t.to {
            Pending => assert!(matches!(t.from, Inactive | Resolved), "{t:?}"),
            Firing => assert_eq!(t.from, Pending, "firing only enters from pending: {t:?}"),
            Resolved => assert_eq!(t.from, Firing, "resolved only exits firing: {t:?}"),
            Inactive => assert!(matches!(t.from, Pending | Resolved), "{t:?}"),
        }
        last.insert(t.rule.clone(), t.to);
    }
    // Replaying the full transition log lands exactly on the live statuses.
    for s in engine.statuses() {
        assert_eq!(s.state, last.get(&s.rule).copied().unwrap_or(Inactive), "{}", s.rule);
    }
}

/// Property: under any label stream, the cardinality cap admits at most
/// `cap` distinct values, routes everything else to the shared overflow
/// bucket, and never loses a count — per-label tallies plus the overflow
/// bucket always sum to the number of events.
#[test]
fn label_cap_conserves_counts_under_random_label_streams() {
    let r = Arc::new(Registry::new());
    let o = Obs::new(r.clone());
    let cap = obs::LabelCap::new(&o, "prop", 8);
    let mut next = lcg();
    let mut sim_admitted = std::collections::HashSet::new();
    let mut expected = std::collections::HashMap::<String, u64>::new();
    const EVENTS: u64 = 5_000;
    for _ in 0..EVENTS {
        let label = format!("tenant-{}", (next() * 40.0) as usize);
        let routed = cap.resolve(&label);
        r.counter(&Family::new("prop_events_total", "h", ["tenant"]), [&routed]).inc();
        if sim_admitted.contains(&label) || sim_admitted.len() < 8 {
            sim_admitted.insert(label.clone());
            assert_eq!(routed, label, "admitted labels pass through unchanged");
        } else {
            assert_eq!(routed, obs::cardinality::OVERFLOW, "late labels route to overflow");
        }
        *expected.entry(routed).or_default() += 1;
    }
    assert_eq!(cap.admitted(), 8, "pool of 40 labels saturates a cap of 8");
    let mut total = 0u64;
    for m in r.snapshot() {
        if m.name != "prop_events_total" {
            continue;
        }
        let obs::SnapshotValue::Counter(v) = m.value else { panic!("counter family") };
        let label = &m.labels[0].1;
        assert_eq!(Some(&v), expected.get(label.as_str()), "tally for {label}");
        total += v;
    }
    assert_eq!(total, EVENTS, "no event lost or double-counted across the cap");
    let routed_overflow = r.counter(&names::OBS_LABEL_OVERFLOW_TOTAL, ["prop"]).get();
    assert_eq!(routed_overflow, expected.get(obs::cardinality::OVERFLOW).copied().unwrap_or(0));
}

#[test]
fn spans_feed_stage_histograms_through_the_handle() {
    let r = Arc::new(Registry::new());
    let o = Obs::new(r.clone());
    for stage in obs::STAGES {
        o.stage_span(stage).stop();
    }
    for stage in obs::STAGES {
        let h = r.histogram(&names::STAGE_SECONDS, [stage]);
        assert_eq!(h.count(), 1, "stage {stage} recorded");
    }
    // The exposition carries every stage label.
    let text = prometheus_text(&r);
    for stage in obs::STAGES {
        assert!(text.contains(&format!("stage=\"{stage}\"")), "{stage} exported");
    }
}

/// Property: `sum by (sub) (...)` conserves totals. For random counter
/// histories over random label sets, grouping by the label and summing the
/// groups equals the ungrouped `sum(...)` at every tick — aggregation moves
/// samples between buckets, never creates or destroys value.
#[test]
fn sum_by_conserves_totals_over_random_histories() {
    use obs::tsdb::{SeriesKey, Tsdb, TsdbConfig};

    let mut rnd = lcg();
    for case in 0..20 {
        let store = Tsdb::new(TsdbConfig::default());
        let subs = 1 + (rnd() * 5.0) as usize;
        let ticks = 2 + (rnd() * 20.0) as u64;
        for s in 0..subs {
            let sub = format!("s{s}");
            let mut total = 0.0f64;
            for tick in 1..=ticks {
                total += (rnd() * 50.0).floor();
                // Random gaps: skip ~1 in 4 ticks after the first.
                if tick == 1 || rnd() > 0.25 {
                    store.append(SeriesKey::value("req_total", &[("sub", &sub)]), tick, total);
                }
            }
        }
        let grouped = obs::query::parse("sum by (sub) (req_total)").expect("parses");
        let flat = obs::query::parse("sum(req_total)").expect("parses");
        for tick in 1..=ticks {
            let by = match obs::query::eval(&store, &grouped, tick).expect("evaluates") {
                obs::Value::Vector(v) => v.iter().map(|s| s.value).sum::<f64>(),
                obs::Value::Scalar(_) => unreachable!("aggregation yields a vector"),
            };
            let all = match obs::query::eval(&store, &flat, tick).expect("evaluates") {
                obs::Value::Vector(v) => v.iter().map(|s| s.value).sum::<f64>(),
                obs::Value::Scalar(_) => unreachable!("aggregation yields a vector"),
            };
            assert!(
                (by - all).abs() < 1e-9 * all.abs().max(1.0),
                "case {case} tick {tick}: sum by (sub) = {by}, sum = {all}"
            );
        }
    }
}

/// Property: `rate` and `increase` of a monotone counter are non-negative
/// at every tick for every window size — the window arithmetic can never
/// manufacture a decrease from a counter that only goes up.
#[test]
fn rate_of_monotone_counter_is_non_negative() {
    use obs::tsdb::{SeriesKey, Tsdb, TsdbConfig};

    let mut rnd = lcg();
    for case in 0..20 {
        let store = Tsdb::new(TsdbConfig::default());
        let ticks = 3 + (rnd() * 25.0) as u64;
        let mut total = 0.0f64;
        for tick in 1..=ticks {
            total += (rnd() * 100.0).floor();
            if tick == 1 || rnd() > 0.3 {
                store.append(SeriesKey::value("mono_total", &[]), tick, total);
            }
        }
        for window in [1u64, 2, 3, 7, 50] {
            for (func, src) in [
                ("rate", format!("rate(mono_total[{window}])")),
                ("increase", format!("increase(mono_total[{window}])")),
            ] {
                let expr = obs::query::parse(&src).expect("parses");
                for tick in 1..=ticks + 2 {
                    if let obs::Value::Vector(v) =
                        obs::query::eval(&store, &expr, tick).expect("evaluates")
                    {
                        for s in &v {
                            assert!(
                                s.value >= 0.0,
                                "case {case}: {func}[{window}] at tick {tick} went \
                                 negative: {}",
                                s.value
                            );
                        }
                    }
                }
            }
        }
    }
}
