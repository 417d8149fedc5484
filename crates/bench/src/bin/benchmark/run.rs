//! The measurement protocol: set up, warm up, time passes, summarise.
//!
//! Closed loop, one generator thread. Set-up (generate inputs, compute the
//! reference, two untimed warm-up passes) is repeated and reported as a
//! median; then passes repeat for the run length and every pass time is
//! reported as [`steady`] over the passes. An end-to-end run keeps the span
//! recorder off; a traced run alternates five untraced and five traced
//! passes, then replays every layer on the captured inputs.

use crate::layers;
use crate::spec;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{layer_of, Recorder};
use crate::workloads::{build, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How one workload is to be run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Generator seed.
    pub seed: u64,
    /// Seconds of timed passes (end-to-end runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Line {
    /// Metric name.
    pub name: &'static str,
    /// Its declared unit.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Metrics, in `spec` order.
    pub lines: Vec<Line>,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Wall time of every timed pass, in order (kept in the artifact so a
    /// noisy run can be told from a slow one).
    pub pass_ms: Vec<f64>,
    /// Median result time of every timed pass, in order.
    pub pass_result_ms: Vec<f64>,
    /// p90 result time of every timed pass, in order.
    pub pass_result_p90_ms: Vec<f64>,
    /// Seconds every set-up took, in order.
    pub setup_s: Vec<f64>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Chrome trace of a traced run.
    pub chrome_trace: Option<String>,
}

impl RunResult {
    /// No operation failed and every number is usable.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.lines.iter().all(|l| l.value.is_finite())
    }
}

/// The statistic every pass timing is reported as: the lower decile over
/// the passes. The benchmark host is a shared two-core VM whose neighbours
/// slow it for seconds to minutes at a time; interference only ever adds
/// time, so the fast end of the passes repeats from run to run where the
/// median moves with the neighbours, while a decile (unlike the minimum)
/// still shrugs off one freak pass (measured: README, "Repeatability").
fn steady(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// A pass that turns a panic inside the product into one failed operation.
fn guarded(w: &mut dyn Workload, rec: &mut Recorder) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| w.pass(rec))).unwrap_or_else(|_| Outcome {
        attempted: 1,
        failed: 1,
        ..Outcome::default()
    })
}

fn line(name: &'static str, value: f64, n: usize) -> Line {
    Line { name, unit: spec::unit_of(name).unwrap_or(""), value, n }
}

/// Run workload `name` under `cfg`.
pub fn run(name: &str, cfg: RunCfg) -> Result<RunResult, String> {
    let smoke = cfg.size == Size::Smoke;
    let mut off = Recorder::new(false);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |o: &Outcome| {
        attempted += o.attempted;
        failed += o.failed;
    };

    // Set-up, repeated so its time can be a median. The previous instance
    // is dropped first: peak memory stays one workload's.
    let mut setup_s = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..if smoke { 1 } else { SETUPS } {
        drop(built.take());
        let t = Instant::now();
        let mut w = build(name, cfg.seed, cfg.size).ok_or(format!("unknown workload {name}"))?;
        for _ in 0..2 {
            tally(&guarded(&mut *w, &mut off));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.ok_or("set-up did not run")?;
    let (a, f) = w.warm_up_checks();
    tally(&Outcome { attempted: a, failed: f, ..Outcome::default() });

    let mut result = RunResult {
        workload: name.to_string(),
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        pass_ms: Vec::new(),
        pass_result_ms: Vec::new(),
        pass_result_p90_ms: Vec::new(),
        setup_s: Vec::new(),
        input_digest: w.input_digest(),
        chrome_trace: None,
    };
    if cfg.trace {
        traced(&mut *w, name, &mut result, &mut tally);
    } else {
        let min_passes = if smoke { 2 } else { 5 };
        let (mut walls, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut records, mut samples) = (0u64, 0usize);
        let t_run = Instant::now();
        while walls.len() < min_passes || t_run.elapsed().as_secs_f64() < cfg.seconds {
            let o = guarded(&mut *w, &mut off);
            tally(&o);
            walls.push(o.wall.as_secs_f64());
            // Quantiles per pass, then `steady` over passes: a stall of the
            // host lands in one pass's tail, not in the reported p90.
            p50s.push(median(&o.result_ms));
            p90s.push(quantile(&o.result_ms, 0.9));
            samples += o.result_ms.len();
            records = o.records;
        }
        let per_s = records as f64 / steady(&walls).max(f64::MIN_POSITIVE);
        result.lines = vec![
            line("records_per_s", per_s, walls.len()),
            line("result_ms_p50", steady(&p50s), samples),
            line("result_ms_p90", steady(&p90s), samples),
            line("peak_rss_mb", peak_rss_mb(), 1),
            line("setup_s", median(&setup_s), setup_s.len()),
        ];
        result.pass_ms = walls.iter().map(|w| w * 1e3).collect();
        result.pass_result_ms = p50s;
        result.pass_result_p90_ms = p90s;
    }
    result.setup_s = setup_s;
    result.attempted = attempted;
    result.failed = failed;
    Ok(result)
}

/// Set-ups in a run: several, with `setup_s` their median, because the
/// benchmark contract asks for that (one set-up would be one sample per
/// run). Fixed, not timed out: the allocation history — and so
/// `peak_rss_mb` — is the same on every run.
const SETUPS: usize = 3;

/// Traced passes in a traced run, each paired with an untraced one.
const TRACED_PASSES: u32 = 5;

/// Alternating untraced/traced passes, the layer replays, and the
/// self-time arithmetic.
fn traced(
    w: &mut dyn Workload,
    name: &str,
    result: &mut RunResult,
    tally: &mut impl FnMut(&Outcome),
) {
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    for pass in 1..=TRACED_PASSES {
        let o = guarded(w, &mut off);
        tally(&o);
        plain.push(o.wall.as_secs_f64() * 1e3);
        rec.set_pass(pass);
        let o = guarded(w, &mut rec);
        tally(&o);
        with_spans.push(o.wall.as_secs_f64() * 1e3);
    }
    result.pass_ms = with_spans.clone();
    let pass_ms = steady(&with_spans);

    let mut replays = rec.fork();
    let capture = w.capture();
    let carve_share = {
        let n = capture.windows.len().max(1);
        (n - w.carve_from_window().min(n)) as f64 / n as f64
    };
    let replayed = layers::replay(&capture, &mut replays);
    drop(capture);
    tally(&Outcome {
        attempted: replayed.attempted,
        failed: replayed.failed,
        ..Outcome::default()
    });

    // Self time per layer: what its front-door spans took in a pass (median
    // over traced passes), minus the replayed lower-layer work they caused,
    // which is credited to the lower layer instead.
    let mut front_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for span_name in rec.spans.iter().map(|s| s.name).collect::<std::collections::BTreeSet<_>>() {
        let per_pass: Vec<f64> = (1..=TRACED_PASSES)
            .map(|p| {
                let ns: u64 = rec
                    .spans
                    .iter()
                    .filter(|s| s.pass == p && s.name == span_name)
                    .map(|s| s.dur_ns)
                    .sum();
                ns as f64 / 1e6
            })
            .collect();
        front_ms.insert(span_name, steady(&per_pass));
    }
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (span_name, busy) in &front_ms {
        *self_ms.entry(layer_of(span_name)).or_default() += busy;
    }
    for &(front, stage) in w.carves() {
        let left = front_ms.get_mut(front);
        let moved =
            (replays.busy_ms(stage) * carve_share).min(left.as_deref().copied().unwrap_or(0.0));
        if let Some(left) = left {
            *left -= moved;
        }
        *self_ms.entry(layer_of(front)).or_default() -= moved;
        *self_ms.entry(layer_of(stage)).or_default() += moved;
        // Name the front-door span a replay decomposes as its parent.
        let parent = rec.spans.iter().rposition(|s| s.name == front).map(|i| i as u32);
        for s in replays.spans.iter_mut().filter(|s| s.name == stage) {
            s.parent = parent;
        }
    }
    rec.absorb(replays);

    let by_name: BTreeMap<&str, (f64, usize)> =
        replayed.values.iter().map(|v| (v.name, (v.value, v.n))).collect();
    for &(metric, _, _) in spec::PER_LAYER {
        let (value, n) = if let Some(layer) = metric.strip_suffix(".self_share") {
            (
                self_ms.get(layer).copied().unwrap_or(0.0).max(0.0)
                    / pass_ms.max(f64::MIN_POSITIVE),
                TRACED_PASSES as usize,
            )
        } else if metric == "trace_overhead_frac" {
            // Paired: neighbouring passes share the host's mood.
            let ratios: Vec<f64> = with_spans.iter().zip(&plain).map(|(t, p)| t / p).collect();
            (median(&ratios) - 1.0, ratios.len())
        } else {
            by_name.get(metric).copied().unwrap_or((f64::NAN, 0))
        };
        result.lines.push(line(metric, value, n));
    }
    result.chrome_trace = Some(rec.chrome_trace(name, 100_000));
}
