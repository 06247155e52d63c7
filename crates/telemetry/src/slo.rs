//! Declarative service-level objectives with error-budget accounting.
//!
//! An [`SloSpec`] states an objective over one tracked series — "p99
//! plan-lookup latency ≤ 50 µs", "extrinsic bloat ≤ 35% of total
//! energy", "recovery ≤ 3 iterations" — plus the error budget: the
//! fraction of evaluation ticks allowed to violate it. The [`SloEngine`]
//! evaluates every spec against the values the observability pipeline
//! feeds it each iteration, tracks violations over a sliding window and
//! over the whole run, and reports per-objective [`SloStatus`] with
//! budget-burn numbers. That report is surfaced through `JobStatus` and
//! the `/slo` endpoint.
//!
//! Evaluation is deterministic: ticks are iteration-indexed, budgets are
//! exact integer counts, and the engine never reads a clock.

use std::collections::VecDeque;
use std::fmt::Write as _;

use parking_lot::Mutex;

/// Comparison direction of an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Healthy while `value <= target` (latencies, shares, durations).
    Lte,
    /// Healthy while `value >= target` (throughputs, hit rates).
    Gte,
}

impl SloOp {
    fn holds(self, value: f64, target: f64) -> bool {
        match self {
            SloOp::Lte => value <= target,
            SloOp::Gte => value >= target,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            SloOp::Lte => "<=",
            SloOp::Gte => ">=",
        }
    }
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short identifier, e.g. `lookup_latency_p99`.
    pub name: String,
    /// Series the objective reads (a pipeline series name).
    pub metric: String,
    /// Comparison direction.
    pub op: SloOp,
    /// The objective's threshold, in the metric's units.
    pub target: f64,
    /// Error budget: fraction of ticks allowed to violate (0.0–1.0).
    pub budget: f64,
    /// Sliding window (ticks) for the short-term burn rate.
    pub window: usize,
}

impl SloSpec {
    /// A spec with the default 1%-of-ticks budget over a 256-tick window.
    pub fn new(
        name: impl Into<String>,
        metric: impl Into<String>,
        op: SloOp,
        target: f64,
    ) -> SloSpec {
        SloSpec {
            name: name.into(),
            metric: metric.into(),
            op,
            target,
            budget: 0.01,
            window: 256,
        }
    }

    /// Overrides the error budget fraction.
    pub fn with_budget(mut self, budget: f64) -> SloSpec {
        self.budget = budget.clamp(0.0, 1.0);
        self
    }

    /// Overrides the sliding window width.
    pub fn with_window(mut self, window: usize) -> SloSpec {
        self.window = window.max(1);
        self
    }

    /// The HA serving staleness objective: after a profile-drift
    /// re-characterization triggers, lookups must be served from the
    /// re-characterized frontier within `max_iters` iterations. Fed by
    /// the `drift_staleness_iters` series
    /// ([`crate::pipeline::series::DRIFT_STALENESS_ITERS`]) via
    /// [`crate::ObsPipeline::observe_metric`] — one point per drift
    /// re-plan, so the zero budget means *every* re-plan must land in
    /// time. Deliberately not part of [`SloSpec::perseus_defaults`]
    /// (which golden fixtures pin); HA harnesses add it explicitly.
    pub fn drift_staleness(max_iters: f64) -> SloSpec {
        SloSpec::new(
            "drift_staleness",
            "drift_staleness_iters",
            SloOp::Lte,
            max_iters,
        )
        .with_budget(0.0)
        .with_window(64)
    }

    /// The three objectives the paper's deployment story cares about:
    /// planner lookups must stay fast, energy bloat must stay mostly
    /// intrinsic, and straggler recovery must be prompt.
    pub fn perseus_defaults() -> Vec<SloSpec> {
        vec![
            SloSpec::new(
                "lookup_latency_p99",
                "lookup_latency_p99_s",
                SloOp::Lte,
                50e-6,
            )
            .with_budget(0.01),
            SloSpec::new("extrinsic_bloat_share", "extrinsic_share", SloOp::Lte, 0.35)
                .with_budget(0.05),
            SloSpec::new("recovery_iters", "recovery_iters", SloOp::Lte, 3.0).with_budget(0.02),
        ]
    }
}

/// Rolling evaluation state for one spec.
#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    ticks: u64,
    violations: u64,
    last_value: Option<f64>,
    last_violation_iter: Option<u64>,
    /// Violation flags for the newest `spec.window` ticks.
    window: VecDeque<bool>,
    window_violations: u64,
}

/// Point-in-time health of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Spec identity.
    pub name: String,
    /// Series the objective reads.
    pub metric: String,
    /// Comparison direction.
    pub op: SloOp,
    /// Objective threshold.
    pub target: f64,
    /// Most recent observed value (`None` until the series produced one).
    pub last_value: Option<f64>,
    /// Ticks evaluated so far.
    pub ticks: u64,
    /// Ticks that violated the objective, lifetime.
    pub violations: u64,
    /// Violations within the sliding window.
    pub window_violations: u64,
    /// Sliding window width.
    pub window: usize,
    /// Error budget fraction from the spec.
    pub budget: f64,
    /// Budget consumed, lifetime: `violations / (budget · ticks)`;
    /// `0.0` before any ticks, `inf` when a zero budget is violated.
    pub budget_consumed: f64,
    /// Short-term burn rate: window violation fraction over the budget
    /// fraction (1.0 = burning exactly at budget).
    pub burn_rate: f64,
    /// Iteration of the most recent violation, if any.
    pub last_violation_iter: Option<u64>,
    /// Whether the lifetime budget still has headroom.
    pub healthy: bool,
}

impl SloStatus {
    /// Stable single-line rendering (tests, logs).
    pub fn render(&self) -> String {
        format!(
            "slo={} metric={} objective={}{} last={} ticks={} violations={} budget_consumed={:.4} burn_rate={:.4} healthy={}",
            self.name,
            self.metric,
            self.op.symbol(),
            self.target,
            self.last_value
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "none".to_string()),
            self.ticks,
            self.violations,
            self.budget_consumed,
            self.burn_rate,
            self.healthy,
        )
    }
}

/// Evaluates a set of [`SloSpec`]s against streaming values.
#[derive(Debug)]
pub struct SloEngine {
    states: Mutex<Vec<SloState>>,
}

impl SloEngine {
    /// An engine over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            states: Mutex::new(
                specs
                    .into_iter()
                    .map(|spec| {
                        let cap = spec.window;
                        SloState {
                            spec,
                            ticks: 0,
                            violations: 0,
                            last_value: None,
                            last_violation_iter: None,
                            window: VecDeque::with_capacity(cap),
                            window_violations: 0,
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// The engine with [`SloSpec::perseus_defaults`].
    pub fn perseus_defaults() -> SloEngine {
        SloEngine::new(SloSpec::perseus_defaults())
    }

    /// Evaluates one tick: for each spec whose metric appears in
    /// `values`, records whether the objective held. Metrics absent this
    /// tick are skipped (no tick consumed, no budget burned) — a series
    /// that has not produced a sample yet cannot violate anything.
    pub fn evaluate(&self, iteration: u64, values: &[(&str, f64)]) {
        let mut states = self.states.lock();
        for state in states.iter_mut() {
            let Some((_, value)) = values.iter().find(|(m, _)| *m == state.spec.metric) else {
                continue;
            };
            let violated = !state.spec.op.holds(*value, state.spec.target);
            state.ticks += 1;
            state.last_value = Some(*value);
            if violated {
                state.violations += 1;
                state.last_violation_iter = Some(iteration);
            }
            if state.window.len() == state.spec.window && state.window.pop_front() == Some(true) {
                state.window_violations -= 1;
            }
            state.window.push_back(violated);
            if violated {
                state.window_violations += 1;
            }
        }
    }

    /// Point-in-time status of every objective, in spec order.
    pub fn status(&self) -> Vec<SloStatus> {
        let states = self.states.lock();
        states
            .iter()
            .map(|s| {
                let allowed = s.spec.budget * s.ticks as f64;
                let budget_consumed = if s.ticks == 0 {
                    0.0
                } else if allowed > 0.0 {
                    s.violations as f64 / allowed
                } else if s.violations == 0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                let window_len = s.window.len().max(1);
                let window_fraction = s.window_violations as f64 / window_len as f64;
                let burn_rate = if s.spec.budget > 0.0 {
                    window_fraction / s.spec.budget
                } else if s.window_violations == 0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                SloStatus {
                    name: s.spec.name.clone(),
                    metric: s.spec.metric.clone(),
                    op: s.spec.op,
                    target: s.spec.target,
                    last_value: s.last_value,
                    ticks: s.ticks,
                    violations: s.violations,
                    window_violations: s.window_violations,
                    window: s.spec.window,
                    budget: s.spec.budget,
                    budget_consumed,
                    burn_rate,
                    last_violation_iter: s.last_violation_iter,
                    healthy: budget_consumed <= 1.0,
                }
            })
            .collect()
    }

    /// Whether every objective's lifetime budget has headroom.
    pub fn all_healthy(&self) -> bool {
        self.status().iter().all(|s| s.healthy)
    }
}

/// Renders SLO statuses as a JSON array (the `/slo` endpoint body).
/// Hand-rolled — names and metrics are identifier-shaped, so the only
/// escaping needed is the standard string escape applied anyway.
pub fn render_slo_json(statuses: &[SloStatus]) -> String {
    let mut out = String::from("[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{name},\"metric\":{metric},\"op\":\"{op}\",\"target\":{target},\"last_value\":{last},\"ticks\":{ticks},\"violations\":{violations},\"window_violations\":{wv},\"window\":{window},\"budget\":{budget},\"budget_consumed\":{consumed},\"burn_rate\":{burn},\"healthy\":{healthy}}}",
            name = json_string(&s.name),
            metric = json_string(&s.metric),
            op = s.op.symbol(),
            target = json_number(s.target),
            last = s
                .last_value
                .map(json_number)
                .unwrap_or_else(|| "null".to_string()),
            ticks = s.ticks,
            violations = s.violations,
            wv = s.window_violations,
            window = s.window,
            budget = json_number(s.budget),
            consumed = json_number(s.budget_consumed),
            burn = json_number(s.burn_rate),
            healthy = s.healthy,
        );
    }
    out.push(']');
    out
}

/// JSON string escape (quotes, backslashes, control characters).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe number formatting. JSON has no infinities or NaN, so
/// infinities clamp to `±1e308` and NaN renders as `0`; every finite
/// value uses the metrics renderer's shortest-roundtrip display.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v == f64::INFINITY {
        "1e308".to_string()
    } else if v == f64::NEG_INFINITY {
        "-1e308".to_string()
    } else {
        crate::snapshot::format_value(v)
    }
}
