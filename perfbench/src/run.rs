//! Untraced passes, answer checking, and the end-to-end metrics.

use std::time::Instant;

use tela_model::{Budget, Problem, Solution, SolveOutcome};
use tela_trace::Tracer;
use telamalloc::{EscalationLadder, TelaConfig};

use crate::inputs::{generate, Inputs, Job, Plan};
use crate::stats::{
    median, peak_rss_mb, quantile, release_freed_memory, scale_exponent, size_decile, Digest,
};
use crate::{layers, Metric, Report, Workload};

/// The solver configuration of every solve: the paper's defaults on
/// one thread, so the portfolio races its variants sequentially and
/// every outcome is deterministic.
pub fn solver_config() -> TelaConfig {
    TelaConfig {
        threads: 1,
        ..TelaConfig::default()
    }
}

/// What the benchmark learned from one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A solution that passed `Solution::validate`.
    Solved,
    /// Any other legitimate answer (best effort, unproven give-up, or a
    /// proven infeasibility on an input with no known solution).
    Unsolved,
}

/// Checks one answer against the client's own copy of the problem.
///
/// # Errors
///
/// A placement that fails validation, a `Solved` answer without one,
/// or `infeasible` on an input that provably has a solution.
pub fn check(job: &Job, status: &str, solution: Option<&Solution>) -> Result<Verdict, String> {
    match status {
        "solved" => {
            let solution = solution.ok_or("solved answer without a placement")?;
            solution
                .validate(&job.problem)
                .map_err(|e| format!("invalid placement: {e:?}"))?;
            Ok(Verdict::Solved)
        }
        "infeasible" if job.certified => Err("a certified instance answered infeasible".into()),
        _ => Ok(Verdict::Unsolved),
    }
}

/// Per-request records of the timed passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests answered with a validated solution.
    pub solved: u64,
    /// Wrong answers.
    pub errors: Vec<String>,
    /// Outcome digest.
    pub digest: Digest,
    /// Per-request latency in seconds, at its fastest pass.
    pub latencies: Vec<f64>,
    /// Per-request buffer count.
    pub sizes: Vec<usize>,
    /// Per-request: answered with a validated solution.
    pub solved_each: Vec<bool>,
}

impl Tally {
    /// Records request `index`'s answer and latency.
    pub fn record(
        &mut self,
        index: usize,
        job: &Job,
        status: &str,
        steps: u64,
        solution: Option<&Solution>,
        latency: f64,
    ) {
        self.attempted += 1;
        self.digest.record(index, status, steps);
        self.latencies.push(latency);
        self.sizes.push(job.problem.len());
        let verdict = check(job, status, solution);
        self.solved_each.push(verdict == Ok(Verdict::Solved));
        match verdict {
            Ok(Verdict::Solved) => self.solved += 1,
            Ok(Verdict::Unsolved) => {}
            Err(e) => {
                if self.errors.len() < 8 {
                    self.errors.push(format!("request {index}: {e}"));
                }
            }
        }
    }

    /// Folds repeat pass `pass` into the tally: each request keeps its
    /// fastest time, and the pass must reach the first pass's outcomes.
    pub fn repeat(&mut self, pass: usize, latencies: &[f64], digest: &Digest) {
        for (best, &latency) in self.latencies.iter_mut().zip(latencies) {
            *best = best.min(latency);
        }
        if digest.hex() != self.digest.hex() || latencies.len() != self.latencies.len() {
            self.errors
                .push(format!("pass {pass} reached other outcomes than the first"));
        }
    }

    /// Folds the tally into a report's counters.
    pub fn into_report(self, metrics: Vec<Metric>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.attempted - self.solved,
            errors: self.errors,
            digest: self.digest.hex(),
            metrics,
        }
    }
}

/// An in-process solve's answer: `(status, steps, solution)`.
pub type Answer = (&'static str, u64, Option<Solution>);

/// Solves `job` the way `workload` does: the escalation ladder for the
/// compile loop and tight instances, the search front door for scale.
pub fn solve(workload: Workload, problem: &Problem, max_steps: u64, config: &TelaConfig) -> Answer {
    let budget = Budget::steps(max_steps);
    let (outcome, steps) = if workload == Workload::Scale {
        let result = telamalloc::solve(problem, &budget, config);
        (result.outcome, result.stats.steps)
    } else {
        let result = EscalationLadder::new(config.clone()).solve(problem, &budget);
        (result.outcome, result.stats.steps)
    };
    let label = outcome.label();
    let solution = match outcome {
        SolveOutcome::Solved(solution) => Some(solution),
        _ => None,
    };
    (label, steps, solution)
}

/// One set-up: generation, problem construction, and an untimed
/// warm-up pass. Returns the inputs and the set-up's duration.
fn set_up(plan: &Plan, seed: u64, tracer: &Tracer) -> (Inputs, f64) {
    let config = solver_config();
    release_freed_memory();
    let start = Instant::now();
    let inputs = generate(plan, seed, tracer);
    for job in inputs.warmup.iter().flatten() {
        solve(plan.workload, &job.problem, job.max_steps, &config);
    }
    (inputs, start.elapsed().as_secs_f64())
}

/// Runs compile, tight, or scale in this process. Each timed pass
/// follows its own set-ups, so set-ups and timed passes alike sample
/// the host across the whole run; every set-up draws the same inputs.
pub fn run_in_process(plan: &Plan, seed: u64, traced: bool) -> Report {
    if traced {
        let tracer = Tracer::wall();
        let (inputs, _) = set_up(plan, seed, &tracer);
        return layers::run_traced(plan, seed, &inputs, &tracer, None);
    }
    let config = solver_config();
    let mut setup_times = Vec::new();
    let mut tally = Tally::default();
    for pass in 0..plan.passes.max(1) {
        let mut inputs = None;
        for _ in 0..plan.setups.max(1) {
            let (fresh, setup) = set_up(plan, seed, &Tracer::disabled());
            setup_times.push(setup);
            inputs = Some(fresh);
        }
        let inputs = inputs.expect("at least one set-up");
        let jobs = &inputs.timed[0];
        let mut latencies = Vec::with_capacity(jobs.len());
        let mut digest = Digest::default();
        for (index, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let (status, steps, solution) =
                solve(plan.workload, &job.problem, job.max_steps, &config);
            let latency = t.elapsed().as_secs_f64();
            if pass == 0 {
                tally.record(index, job, status, steps, solution.as_ref(), latency);
            } else {
                latencies.push(latency);
                digest.record(index, status, steps);
            }
        }
        if pass > 0 {
            tally.repeat(pass, &latencies, &digest);
        }
    }
    let metrics = end_to_end(&tally, &setup_times);
    tally.into_report(metrics)
}

/// The end-to-end metrics of the timed passes. Rates are over the
/// summed request times, each request at its fastest pass.
pub fn end_to_end(tally: &Tally, setup_times: &[f64]) -> Vec<Metric> {
    let wall: f64 = tally.latencies.iter().sum();
    let ms: Vec<f64> = tally.latencies.iter().map(|s| s * 1e3).collect();
    // The largest solves: successful solves only, as a give-up runs its
    // whole step budget.
    let solved: Vec<usize> = (0..tally.sizes.len())
        .filter(|&i| tally.solved_each[i])
        .collect();
    let sizes: Vec<usize> = solved.iter().map(|&i| tally.sizes[i]).collect();
    let largest: Vec<f64> = size_decile(&sizes, true)
        .into_iter()
        .map(|k| tally.latencies[solved[k]])
        .collect();
    let samples: Vec<(usize, f64)> = tally
        .sizes
        .iter()
        .copied()
        .zip(tally.latencies.iter().copied())
        .collect();
    let buffers: usize = tally.sizes.iter().sum();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(setup_times), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m(
            "solved_ratio",
            tally.solved as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        m("latency_ms_p50", quantile(&ms, 0.5), "ms"),
        m("latency_ms_p90", quantile(&ms, 0.9), "ms"),
        m("latency_ms_p99", quantile(&ms, 0.99), "ms"),
        m("throughput_per_s", tally.attempted as f64 / wall, "1/s"),
        m("largest_solve_s", median(&largest), "s"),
        m("scale_exponent", scale_exponent(&samples), "ratio"),
        m("buffers_per_s", buffers as f64 / wall, "1/s"),
    ]
}
