//! Declarative alerting over the [`crate::tsdb`] store.
//!
//! A rule's condition is one [`crate::query`] expression, evaluated once
//! per tick against the time-series store: true when the result is a
//! non-empty vector or a non-zero scalar. A threshold is a comparison
//! (`…roll_lag_seconds{field="max"} > 600`), absence is
//! `absent_over_time(sel[w])`, and an SRE-style **dual-window burn-rate**
//! rule over an error-budget SLO is two windowed comparisons joined with
//! `and` — see [`default_pack`] for one of each.
//!
//! Every rule runs a four-state machine:
//!
//! ```text
//! inactive ──cond──▶ pending ──held `for_ticks`──▶ firing
//!    ▲                  │cond clears                  │cond clears
//!    └──hold elapses── resolved ◀─────────────────────┘
//! ```
//!
//! Two invariants the property tests pin: **no path reaches `firing`
//! without passing `pending`** (even `for_ticks == 0` emits the
//! `pending` transition on the same tick), and a `resolved` alert
//! **re-fires through `pending` again**, never directly.
//!
//! Transitions mirror to the structured event log (`alert` target) and to
//! `commgraph_alert_transitions_total{rule,state}`; the current firing
//! count is `commgraph_alert_firing_entries`; evaluation cost is
//! `commgraph_alert_eval_seconds`. An expression that fails to evaluate
//! reads as false and logs one warning per error streak.
//!
//! Determinism: evaluation consumes only store contents and the logical
//! tick. Rules over deterministic series (record counts, watermarks, roll
//! lag) therefore produce bit-identical transition sequences across runs —
//! the contract `tests/alerting.rs` asserts over real HTTP.

use crate::query::{Expr, ParseError};
use crate::sync::lock;
use crate::tsdb::Tsdb;
use crate::{names, Counter, Gauge, Histogram, Level, Obs};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Transitions retained for `/alerts` history, oldest dropped first.
const HISTORY_CAP: usize = 1024;

/// Lifecycle state of one alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false, nothing pending.
    Inactive,
    /// Condition true, but not yet held for the rule's `for_ticks`.
    Pending,
    /// Condition held long enough; the alert is active.
    Firing,
    /// Condition cleared after firing; decays to inactive after a hold.
    Resolved,
}

impl AlertState {
    /// Stable lowercase name (JSON output and metric label values).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Unique rule name (label value on transition metrics).
    pub name: String,
    /// The source of the condition expression (kept for display).
    pub src: String,
    /// The parsed condition, evaluated each tick: true when the result is
    /// a non-empty vector or a non-zero scalar.
    pub(crate) expr: Expr,
    /// Consecutive-tick hold in `pending` before firing. `0` fires on the
    /// same tick the condition turns true — still via `pending`.
    pub(crate) for_ticks: u64,
    /// Severity tag carried into events and JSON (`page`, `ticket`, ...).
    pub(crate) severity: String,
}

impl AlertRule {
    /// A rule on a query-engine expression, with no pending hold and
    /// severity `page`.
    pub fn query(name: &str, src: &str) -> Result<Self, ParseError> {
        Ok(AlertRule {
            name: name.to_string(),
            src: src.to_string(),
            expr: crate::query::parse(src)?,
            for_ticks: 0,
            severity: "page".to_string(),
        })
    }

    /// Override the pending hold (builder style).
    pub fn with_for_ticks(mut self, for_ticks: u64) -> Self {
        self.for_ticks = for_ticks;
        self
    }

    /// Override the severity tag (builder style).
    pub(crate) fn with_severity(mut self, severity: &str) -> Self {
        self.severity = severity.to_string();
        self
    }
}

/// One state-machine transition, as mirrored to the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Tick the transition happened on.
    pub tick: u64,
    /// Rule name.
    pub rule: String,
    /// State left.
    pub from: AlertState,
    /// State entered.
    pub to: AlertState,
    /// The first sample of the expression's result at this tick (`None`
    /// when the result is an empty vector).
    pub(crate) value: Option<f64>,
}

/// Point-in-time status of one rule (what `/alerts` serves).
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Severity tag.
    pub severity: String,
    /// Current state.
    pub state: AlertState,
    /// Tick the current state was entered (0 before any transition).
    pub since_tick: u64,
}

#[derive(Debug)]
struct RuleState {
    state: AlertState,
    since_tick: u64,
    pending_since: u64,
    value: Option<f64>,
    /// The last evaluation failed; the warning for this streak is out.
    erroring: bool,
}

#[derive(Debug)]
struct EngineInner {
    // bound: one rule and one state per installed rule; packs are
    // installed at start-up.
    rules: Vec<Arc<AlertRule>>,
    states: Vec<RuleState>,
    // bound: at most `HISTORY_CAP` transitions, oldest dropped first.
    history: VecDeque<Transition>,
    last_tick: u64,
}

/// Evaluates a rule set against a [`Tsdb`] once per tick. Interior-mutable:
/// share it as `Arc<AlertEngine>` between the tick driver and the
/// introspection server.
#[derive(Debug)]
pub struct AlertEngine {
    inner: Mutex<EngineInner>,
    obs: Obs,
    firing_gauge: Gauge,
    eval_seconds: Histogram,
    /// Ticks a resolved alert lingers before decaying to inactive.
    resolved_hold: u64,
}

impl AlertEngine {
    /// An empty engine reporting through `obs` (transition counters, firing
    /// gauge, eval histogram, event log).
    pub fn new(obs: Obs) -> AlertEngine {
        let firing_gauge = obs.gauge(&names::ALERT_FIRING_ENTRIES, []);
        let eval_seconds = obs.histogram(&names::ALERT_EVAL_SECONDS, []);
        AlertEngine {
            inner: Mutex::new(EngineInner {
                rules: Vec::new(),
                states: Vec::new(),
                history: VecDeque::new(),
                last_tick: 0,
            }),
            obs,
            firing_gauge,
            eval_seconds,
            resolved_hold: 1,
        }
    }

    /// Install one rule. Its transition counters are registered eagerly (at
    /// zero) so one scrape shows the family even before any transition.
    pub fn add_rule(&self, rule: AlertRule) {
        for state in
            [AlertState::Inactive, AlertState::Pending, AlertState::Firing, AlertState::Resolved]
        {
            self.transition_counter(&rule.name, state);
        }
        let mut inner = lock(&self.inner);
        inner.rules.push(Arc::new(rule));
        inner.states.push(RuleState {
            state: AlertState::Inactive,
            since_tick: 0,
            pending_since: 0,
            value: None,
            erroring: false,
        });
    }

    /// Install a whole rule pack.
    pub fn add_rules(&self, rules: impl IntoIterator<Item = AlertRule>) {
        for rule in rules {
            self.add_rule(rule);
        }
    }

    fn transition_counter(&self, rule: &str, state: AlertState) -> Counter {
        self.obs.counter(&names::ALERT_TRANSITIONS_TOTAL, [rule, state.as_str()])
    }

    /// Evaluate every rule at `tick` against `store`, returning the
    /// transitions this pass produced (in rule-installation order). Each
    /// transition is mirrored to the event log and counted on
    /// `commgraph_alert_transitions_total`. A rule whose expression fails
    /// to evaluate reads as false; the first tick of each error streak logs
    /// one `Warn` event naming the rule and the error.
    ///
    /// The conditions are evaluated against `store` with the engine
    /// unlocked, over the rules installed when the pass began; a rule
    /// added during the pass is evaluated from the next tick.
    pub fn evaluate(&self, tick: u64, store: &Tsdb) -> Vec<Transition> {
        #[expect(
            clippy::disallowed_methods,
            reason = "self-timing of the evaluate pass; rule state depends only on the injected tick"
        )]
        let t0 = std::time::Instant::now();
        let rules = lock(&self.inner).rules.clone();
        let results: Vec<_> =
            rules.iter().map(|rule| crate::query::eval(store, &rule.expr, tick)).collect();
        let mut transitions = Vec::new();
        let mut failures = Vec::new();
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        inner.last_tick = tick;
        for ((rule, result), rs) in rules.iter().zip(results).zip(inner.states.iter_mut()) {
            let (cond, value) = match result {
                Ok(v) => {
                    rs.erroring = false;
                    (v.is_truthy(), v.first_value())
                }
                Err(e) => {
                    if !rs.erroring {
                        failures.push((rule.name.clone(), e.to_string()));
                    }
                    rs.erroring = true;
                    (false, None)
                }
            };
            rs.value = value;
            let mut go = |rs: &mut RuleState, to: AlertState| {
                let from = rs.state;
                rs.state = to;
                rs.since_tick = tick;
                transitions.push(Transition { tick, rule: rule.name.clone(), from, to, value });
            };
            if cond {
                match rs.state {
                    AlertState::Inactive | AlertState::Resolved => {
                        go(rs, AlertState::Pending);
                        rs.pending_since = tick;
                        if rule.for_ticks == 0 {
                            go(rs, AlertState::Firing);
                        }
                    }
                    AlertState::Pending => {
                        if tick.saturating_sub(rs.pending_since) >= rule.for_ticks {
                            go(rs, AlertState::Firing);
                        }
                    }
                    AlertState::Firing => {}
                }
            } else {
                match rs.state {
                    AlertState::Pending => go(rs, AlertState::Inactive),
                    AlertState::Firing => go(rs, AlertState::Resolved),
                    AlertState::Resolved => {
                        if tick.saturating_sub(rs.since_tick) >= self.resolved_hold {
                            go(rs, AlertState::Inactive);
                        }
                    }
                    AlertState::Inactive => {}
                }
            }
        }
        let firing = inner.states.iter().filter(|s| s.state == AlertState::Firing).count();
        for t in &transitions {
            if inner.history.len() >= HISTORY_CAP {
                inner.history.pop_front();
            }
            inner.history.push_back(t.clone());
        }
        drop(guard);
        for (rule, error) in &failures {
            self.obs.event(
                Level::Warn,
                "alert",
                &format!("alert {rule} failed to evaluate: {error}"),
                &[("tick", tick.to_string())],
            );
        }
        for t in &transitions {
            self.transition_counter(&t.rule, t.to).inc();
            let level = if t.to == AlertState::Firing { Level::Warn } else { Level::Info };
            self.obs.event(
                level,
                "alert",
                &format!("alert {} {} -> {}", t.rule, t.from.as_str(), t.to.as_str()),
                &[
                    ("tick", t.tick.to_string()),
                    ("value", t.value.map_or_else(|| "none".to_string(), |v| v.to_string())),
                ],
            );
        }
        self.firing_gauge.set(firing as f64);
        self.eval_seconds.record(t0.elapsed().as_secs_f64());
        transitions
    }

    /// Current status of every rule, in installation order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        let inner = lock(&self.inner);
        inner
            .rules
            .iter()
            .zip(inner.states.iter())
            .map(|(rule, rs)| AlertStatus {
                rule: rule.name.clone(),
                severity: rule.severity.clone(),
                state: rs.state,
                since_tick: rs.since_tick,
            })
            .collect()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> Vec<AlertStatus> {
        self.statuses().into_iter().filter(|s| s.state == AlertState::Firing).collect()
    }

    /// The retained transition history, oldest first.
    pub fn history(&self) -> Vec<Transition> {
        lock(&self.inner).history.iter().cloned().collect()
    }

    /// The `/alerts` document: current statuses plus the transition
    /// history, keyed entirely by logical ticks (no wall-clock timestamps),
    /// so deterministic runs serve bit-identical bytes.
    pub(crate) fn alerts_json(&self) -> String {
        let inner = lock(&self.inner);
        let mut out = String::from("{\"tick\":");
        out.push_str(&inner.last_tick.to_string());
        out.push_str(",\"alerts\":[");
        for (i, (rule, rs)) in inner.rules.iter().zip(inner.states.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            out.push_str(&crate::export::json_str(&rule.name));
            out.push_str(",\"severity\":");
            out.push_str(&crate::export::json_str(&rule.severity));
            out.push_str(",\"state\":\"");
            out.push_str(rs.state.as_str());
            out.push_str("\",\"since_tick\":");
            out.push_str(&rs.since_tick.to_string());
            out.push_str(",\"value\":");
            out.push_str(&rs.value.map_or_else(|| "null".to_string(), crate::export::json_f64));
            out.push('}');
        }
        out.push_str("],\"transitions\":[");
        for (i, t) in inner.history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tick\":");
            out.push_str(&t.tick.to_string());
            out.push_str(",\"rule\":");
            out.push_str(&crate::export::json_str(&t.rule));
            out.push_str(",\"from\":\"");
            out.push_str(t.from.as_str());
            out.push_str("\",\"to\":\"");
            out.push_str(t.to.as_str());
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// The default streaming-health alert pack, sized by the expected record
/// rate per tick (one tick = one rolled window under the deterministic-tick
/// contract):
///
/// * `window_roll_lag_high` — pipeline roll lag max above 600 s for 2 ticks.
/// * `late_records_burn` — dual-window burn over a 99 % freshness SLO
///   (late records vs `expected_records_per_tick`).
/// * `dedup_drops_burn` — dual-window burn over the engine's dedup-drop
///   budget (drops vs offered records; objective 0.2 tolerates the routine
///   multi-vantage duplication).
/// * `incremental_savings_stalled` — no warm-window savings sample for 4
///   ticks while the pipeline runs incrementally.
/// * `tsdb_scrape_stalled` — the scraper itself stopped appending.
pub fn default_pack(expected_records_per_tick: f64) -> Vec<AlertRule> {
    let rate = expected_records_per_tick.max(1.0);
    #[expect(
        clippy::expect_used,
        reason = "the templates are constants of this file and parse for every f64 rate; \
                  the unit tests parse each one"
    )]
    let rule =
        |name: &str, src: &str| AlertRule::query(name, src).expect("default-pack template parses");
    vec![
        rule(
            "window_roll_lag_high",
            &format!(
                "{}{{source=\"pipeline\",field=\"max\"}} > 600",
                names::WINDOW_ROLL_LAG_SECONDS.name
            ),
        )
        .with_for_ticks(2),
        rule(
            "late_records_burn",
            &burn_per_tick_expr(
                names::PIPELINE_LATE_RECORDS_TOTAL.name,
                rate,
                1.0 - 0.99,
                1.0,
                2,
                8,
            ),
        ),
        rule(
            "dedup_drops_burn",
            &burn_series_expr(
                names::ENGINE_DROPPED_RECORDS_TOTAL.name,
                names::ENGINE_RECORDS_IN_TOTAL.name,
                1.0 - 0.2,
                1.0,
                2,
                8,
            ),
        ),
        rule(
            "incremental_savings_stalled",
            &format!(
                "absent_over_time({}{{field=\"count\"}}[4])",
                names::INCREMENTAL_SAVINGS_SECONDS.name
            ),
        )
        .with_severity("ticket"),
        rule(
            "tsdb_scrape_stalled",
            &format!("absent_over_time({}[2])", names::TSDB_SAMPLES_TOTAL.name),
        )
        .with_severity("ticket"),
    ]
}

/// A dual-window burn expression over a fixed-per-tick denominator: burn is
/// the budget fraction consumed per unit of budget, `(max(Δbad, 0) / (rate ·
/// min(w, max(tick, 1)))) / budget`, and the rule holds when it exceeds
/// `factor` over **both** the fast window (detection speed) and the slow
/// window (rejects blips). The budget is embedded pre-computed (`1 -
/// objective` in f64, so `1.0 - 0.99`, not `0.01`): the division then sees
/// the same bits a direct f64 computation of the burn would.
fn burn_per_tick_expr(bad: &str, rate: f64, budget: f64, factor: f64, f: u64, s: u64) -> String {
    let win = |w: u64| {
        format!(
            "(clamp_min(increase({bad}[{w}]), 0) / ({rate} * min({w}, max(tick(), 1))) \
             / {budget} > {factor})"
        )
    };
    format!("{} and {}", win(f), win(s))
}

/// The same dual-window burn over a series denominator (classic bad/total
/// ratio SLO). The extra `increase(total) > 0` conjunct makes "no traffic"
/// read as zero burn, which a bare division would turn into ±∞ or NaN.
fn burn_series_expr(bad: &str, total: &str, budget: f64, factor: f64, f: u64, s: u64) -> String {
    let win = |w: u64| {
        format!(
            "(clamp_min(increase({bad}[{w}]), 0) / increase({total}[{w}]) / {budget} > {factor} \
             and increase({total}[{w}]) > 0)"
        )
    };
    format!("{} and {}", win(f), win(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::SeriesKey;
    use crate::Registry;
    use std::sync::Arc;

    fn store_with(points: &[(u64, f64)]) -> Tsdb {
        let db = Tsdb::default();
        for (t, v) in points {
            db.append(SeriesKey::value("sig_total", &[]), *t, *v);
        }
        db
    }

    /// `sig_total > 5`, held for `for_ticks`.
    fn hot(name: &str, for_ticks: u64) -> AlertRule {
        AlertRule::query(name, "sig_total > 5").unwrap().with_for_ticks(for_ticks)
    }

    fn seq(engine: &AlertEngine, db: &Tsdb, ticks: std::ops::RangeInclusive<u64>) -> Vec<String> {
        let mut out = Vec::new();
        for tick in ticks {
            for t in engine.evaluate(tick, db) {
                out.push(format!("{}:{}->{}", t.tick, t.from.as_str(), t.to.as_str()));
            }
        }
        out
    }

    #[test]
    fn threshold_lifecycle_passes_through_every_state() {
        let db = store_with(&[(1, 0.0), (2, 9.0), (3, 9.0), (4, 9.0), (5, 0.0), (6, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(hot("hot", 1));
        let trace = seq(&engine, &db, 1..=7);
        assert_eq!(
            trace,
            vec![
                "2:inactive->pending",
                "3:pending->firing",
                "5:firing->resolved",
                "6:resolved->inactive",
            ],
        );
    }

    #[test]
    fn zero_hold_still_passes_through_pending_on_the_same_tick() {
        let db = store_with(&[(1, 9.0), (2, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(hot("instant", 0));
        let trace = seq(&engine, &db, 1..=1);
        assert_eq!(trace, vec!["1:inactive->pending", "1:pending->firing"]);
    }

    #[test]
    fn resolved_alerts_refire_through_pending() {
        let db = store_with(&[(1, 9.0), (2, 0.0), (3, 9.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(hot("flappy", 0));
        let trace = seq(&engine, &db, 1..=3);
        assert_eq!(
            trace,
            vec![
                "1:inactive->pending",
                "1:pending->firing",
                "2:firing->resolved",
                "3:resolved->pending",
                "3:pending->firing",
            ],
        );
    }

    #[test]
    fn pending_clears_without_firing_on_a_blip() {
        let db = store_with(&[(1, 9.0), (2, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(hot("blip", 3));
        let trace = seq(&engine, &db, 1..=2);
        assert_eq!(trace, vec!["1:inactive->pending", "2:pending->inactive"]);
    }

    #[test]
    fn absence_fires_on_missing_and_stale_series() {
        let db = Tsdb::default();
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(AlertRule::query("gone", "absent_over_time(sig_total[2])").unwrap());
        let t = engine.evaluate(1, &db);
        assert_eq!(t.last().map(|t| t.to), Some(AlertState::Firing), "missing series is absent");

        db.append(SeriesKey::value("sig_total", &[]), 2, 1.0);
        let t = engine.evaluate(2, &db);
        assert_eq!(t.last().map(|t| t.to), Some(AlertState::Resolved), "fresh sample resolves");
        // Ticks 3..=4 are within tolerance; tick 5 is 3 ticks stale.
        assert!(engine.evaluate(4, &db).iter().all(|t| t.to != AlertState::Pending));
        let t = engine.evaluate(5, &db);
        assert!(t.iter().any(|t| t.to == AlertState::Firing), "stale series re-fires: {t:?}");
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        // Bad counter burns 30 of a 100-per-tick budget in ticks 4..6 —
        // hot on the 2-tick window but still cold on the 5-tick window.
        let db = Tsdb::default();
        for (t, v) in [(1u64, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 30.0), (6, 60.0)] {
            db.append(SeriesKey::value("bad_total", &[]), t, v);
        }
        // fast window 2: delta v(6)-v(4) = 60 over 200 expected → ratio
        // 0.3 / budget 0.1 → burn 3.0. slow window 5: delta v(6)-v(1) = 60
        // over 500 → 0.12 / 0.1 → burn 1.2.
        let burn = |factor: f64| {
            AlertRule::query(
                "burn",
                &burn_per_tick_expr("bad_total", 100.0, 1.0 - 0.9, factor, 2, 5),
            )
            .unwrap()
        };
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(burn(1.3));
        assert!(engine.evaluate(6, &db).is_empty(), "slow window 1.2 < factor 1.3 rejects");

        let engine2 = AlertEngine::new(Obs::noop());
        engine2.add_rule(burn(1.1));
        let t = engine2.evaluate(6, &db);
        assert!(t.iter().any(|t| t.to == AlertState::Firing), "both windows above 1.1: {t:?}");
        let fast =
            lock(&engine2.inner).states[0].value.expect("a firing burn rule shows its fast burn");
        assert!((fast - 3.0).abs() < 1e-12, "{fast}");
    }

    #[test]
    fn series_burn_reads_no_traffic_as_zero_burn() {
        let db = Tsdb::default();
        for t in 1..=8u64 {
            db.append(SeriesKey::value("bad_total", &[]), t, 0.0);
            db.append(SeriesKey::value("all_total", &[]), t, 0.0);
        }
        let engine = AlertEngine::new(Obs::noop());
        let src = burn_series_expr("bad_total", "all_total", 1.0 - 0.2, 1.0, 2, 8);
        engine.add_rule(AlertRule::query("burn", &src).unwrap());
        assert!(seq(&engine, &db, 1..=8).is_empty(), "0/0 must not page");
        // 9 of 10 offered records dropped in ticks 9..10: both windows hot.
        for t in 9..=10u64 {
            db.append(SeriesKey::value("bad_total", &[]), t, 9.0 * (t - 8) as f64);
            db.append(SeriesKey::value("all_total", &[]), t, 10.0 * (t - 8) as f64);
        }
        assert_eq!(seq(&engine, &db, 9..=9), vec!["9:inactive->pending", "9:pending->firing"]);
    }

    #[test]
    fn transitions_mirror_to_metrics_and_events() {
        let registry = Arc::new(Registry::new());
        let o = Obs::new(registry.clone());
        let db = store_with(&[(1, 9.0)]);
        let engine = AlertEngine::new(o);
        engine.add_rule(hot("hot", 0));
        engine.evaluate(1, &db);
        let pending = registry.counter(&names::ALERT_TRANSITIONS_TOTAL, ["hot", "pending"]).get();
        let firing = registry.counter(&names::ALERT_TRANSITIONS_TOTAL, ["hot", "firing"]).get();
        assert_eq!((pending, firing), (1, 1));
        assert_eq!(registry.gauge(&names::ALERT_FIRING_ENTRIES, []).get(), 1.0);
        assert!(registry.histogram(&names::ALERT_EVAL_SECONDS, []).count() >= 1);
        let events = registry.events();
        assert!(
            events.iter().any(|e| e.target == "alert"
                && e.level == Level::Warn
                && e.message.contains("pending -> firing")),
            "{events:?}"
        );
    }

    #[test]
    fn a_failing_expression_warns_once_per_error_streak_and_reads_false() {
        // Two series whose labels differ only in registration order share
        // one sorted label set, so dividing the family by itself fails with
        // "duplicate label set" — an error only the data can cause.
        let bad = Tsdb::default();
        bad.append(SeriesKey::value("dup_total", &[("a", "1"), ("b", "2")]), 1, 4.0);
        bad.append(SeriesKey::value("dup_total", &[("b", "2"), ("a", "1")]), 1, 2.0);
        let good = Tsdb::default();
        good.append(SeriesKey::value("dup_total", &[("a", "1"), ("b", "2")]), 1, 4.0);

        let registry = Arc::new(Registry::new());
        let engine = AlertEngine::new(Obs::new(registry.clone()));
        engine.add_rule(AlertRule::query("ratio", "dup_total / dup_total > 0").unwrap());
        let warnings = || -> Vec<String> {
            registry
                .events()
                .iter()
                .filter(|e| e.target == "alert" && e.level == Level::Warn)
                .map(|e| e.message.clone())
                .collect()
        };

        assert!(engine.evaluate(1, &bad).is_empty(), "an erroring condition is false");
        assert!(engine.evaluate(2, &bad).is_empty());
        let first = warnings();
        assert_eq!(first.len(), 1, "one warning for the whole streak: {first:?}");
        assert!(
            first[0].contains("ratio") && first[0].contains("duplicate label set"),
            "{first:?}"
        );

        assert_eq!(engine.evaluate(3, &good).len(), 2, "evaluates again: pending, firing");
        let resolved = engine.evaluate(4, &bad);
        assert_eq!(resolved.last().map(|t| t.to), Some(AlertState::Resolved));
        assert_eq!(
            warnings().iter().filter(|m| m.contains("failed to evaluate")).count(),
            2,
            "a new streak warns again"
        );
    }

    #[test]
    fn alerts_json_is_tick_keyed() {
        let db = store_with(&[(1, 9.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(hot("hot", 0));
        engine.evaluate(1, &db);
        let json = engine.alerts_json();
        assert!(json.starts_with("{\"tick\":1,\"alerts\":["), "{json}");
        assert!(
            json.contains("\"rule\":\"hot\",\"severity\":\"page\",\"state\":\"firing\""),
            "{json}"
        );
        assert!(
            json.contains("{\"tick\":1,\"rule\":\"hot\",\"from\":\"inactive\",\"to\":\"pending\"}"),
            "{json}"
        );
    }

    #[test]
    fn default_pack_shape_and_walk_on_an_empty_store_are_pinned() {
        // Every template must parse whatever rate the caller computed.
        for rate in [1000.0, 0.0, -3.5, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(default_pack(rate).len(), 5, "rate {rate}");
        }
        let shape: Vec<(String, u64, String)> =
            default_pack(1000.0).into_iter().map(|r| (r.name, r.for_ticks, r.severity)).collect();
        let want = [
            ("window_roll_lag_high", 2, "page"),
            ("late_records_burn", 0, "page"),
            ("dedup_drops_burn", 0, "page"),
            ("incremental_savings_stalled", 0, "ticket"),
            ("tsdb_scrape_stalled", 0, "ticket"),
        ];
        assert_eq!(shape, want.map(|(n, f, s)| (n.to_string(), f, s.to_string())));

        // On a silent store only the two absence rules move, at tick 1 —
        // the walk the deleted hard-coded pack produced over ticks 1..=6.
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rules(default_pack(1000.0));
        let db = Tsdb::default();
        let mut walk = Vec::new();
        for tick in 1..=6 {
            for t in engine.evaluate(tick, &db) {
                walk.push((t.tick, t.rule, t.from, t.to));
            }
        }
        use AlertState::{Firing, Inactive, Pending};
        assert_eq!(
            walk,
            vec![
                (1, "incremental_savings_stalled".to_string(), Inactive, Pending),
                (1, "incremental_savings_stalled".to_string(), Pending, Firing),
                (1, "tsdb_scrape_stalled".to_string(), Inactive, Pending),
                (1, "tsdb_scrape_stalled".to_string(), Pending, Firing),
            ]
        );
    }
}
