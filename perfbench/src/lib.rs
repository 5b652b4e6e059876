//! The benchmark of the TelaMalloc reproduction: four workloads, an
//! untraced run that reports end-to-end metrics, and a traced run that
//! reports per-layer metrics. See `README.md` in this directory for why
//! each workload exists and how to read the traced run.
//!
//! The benchmark reaches the allocator only through its public API.
//! Every solve is bounded by steps, never by the clock, and runs on one
//! thread, so every outcome is a function of the seed alone.

pub mod inputs;
mod layers;
mod run;
mod service;
mod stats;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's compile loop: the model mix through the ladder.
    Compile,
    /// Certified-solvable tight instances through the ladder.
    Tight,
    /// The search front door on giant instances of doubling size.
    Scale,
    /// `tela-server` on loopback, driven closed-loop by one client;
    /// part of the traffic repeats earlier requests.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Tight,
        Workload::Scale,
        Workload::Service,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Tight => "tight",
            Workload::Scale => "scale",
            Workload::Service => "service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests sent.
    pub attempted: u64,
    /// Requests not answered with a validated solution.
    pub failed: u64,
    /// Wrong answers and broken invariants; any entry fails the run.
    pub errors: Vec<String>,
    /// Digest over every timed request's `(index, status, steps)`.
    pub digest: String,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// True when every answer checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics
        )
    }
}

/// Runs `f` inside a `bench.<name>` span on `tracer` (free when the
/// tracer is disabled).
pub(crate) fn span<T>(tracer: &tela_trace::Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tracer.begin("bench", name, vec![]);
    let out = f();
    tracer.end(id, "bench", name, vec![]);
    out
}

/// Runs `workload` under `plan` with inputs drawn from `seed`.
pub fn run(plan: &inputs::Plan, seed: u64, traced: bool) -> Report {
    if plan.workload == Workload::Service {
        service::run(plan, seed, traced)
    } else {
        run::run_in_process(plan, seed, traced)
    }
}
