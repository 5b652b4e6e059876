//! The traced run: replays the timed jobs in process, layer by layer,
//! with a span around every call into a layer, and turns the spans into
//! per-layer metrics.
//!
//! Each job goes through the service's path (render and parse the wire
//! request, `parse_problem`, `CanonicalForm::of`, the solution cache,
//! the workload's solve, `Solution::validate`, render and parse the
//! response) plus three probes that are not on that path:
//! `tela_audit::preflight`, the greedy heuristic on its own, and
//! `solve_portfolio` with the ladder's first-attempt budget slice,
//! whose per-variant reports count the steps the losing variants spent.
//!
//! Every job is replayed twice, once with tracing off and once on;
//! `trace.overhead_ratio` is the traced wall time over the untraced. Spans are kept in memory, written as JSONL at the end (the
//! file `cargo prof report` reads), and rolled up with `tela_prof`.

use std::collections::HashMap;
use std::time::Instant;

use tela_model::{parse_problem, Budget, CanonicalForm, ResilienceStage, Solution, SolveOutcome};
use tela_server::protocol::{parse_request, parse_response, render_request, render_response};
use tela_server::{Response, SolutionCache, Status};
use tela_trace::{write_jsonl, Phase, Trace, Tracer};
use telamalloc::{default_variants, solve_portfolio, EscalationLadder, TelaConfig};

use crate::inputs::{Inputs, Job, Plan};
use crate::run::{solve, solver_config, Tally};
use crate::service::{request_for, Observed};
use crate::stats::{median, quantile, size_decile};
use crate::{span, Metric, Report, Workload};

/// Spans on the service's path; their per-request sum is what a
/// loopback round trip spends outside transport, queueing and hand-off.
const SERVER_PATH: [&str; 6] = [
    "server.protocol",
    "model.parse_problem",
    "model.fingerprint",
    "server.cache",
    "core.ladder",
    "model.validate",
];

/// What one replayed job did, beyond its spans.
#[derive(Debug, Default, Clone)]
struct Record {
    cache_hit: bool,
    greedy_solved: Option<bool>,
    /// Final ladder stage and outcome (absent on cache hits).
    ladder: Option<(ResilienceStage, &'static str)>,
    /// Wall time of every portfolio stage the ladder ran, in ms.
    stage_ms: Vec<f64>,
    /// Portfolio probe: (steps of every variant, winner's steps,
    /// variants run).
    portfolio: Option<(u64, u64, usize)>,
}

/// The ladder's first-attempt step slice of a `max_steps` budget.
fn first_attempt(config: &TelaConfig, max_steps: u64) -> u64 {
    let ladder = &config.ladder;
    if ladder.max_spill_rounds == 0 {
        max_steps
    } else {
        (max_steps * u64::from(ladder.first_attempt_percent.min(100)) / 100).max(1)
    }
}

/// Replays one job layer by layer; returns its answer and record.
fn replay_one(
    workload: Workload,
    id: u64,
    job: &Job,
    tracer: &Tracer,
    cache: &SolutionCache,
) -> (&'static str, u64, Option<Solution>, Record) {
    let config = solver_config();
    let mut record = Record::default();
    let root = tracer.begin("bench", "request", vec![]);
    let request = span(tracer, "server.protocol", || {
        parse_request(&render_request(&request_for(id, job))).expect("a rendered request parses")
    });
    let problem = span(tracer, "model.parse_problem", || {
        parse_problem(&request.problem).expect("a rendered problem parses")
    });
    let form = span(tracer, "model.fingerprint", || CanonicalForm::of(&problem));
    let hit = span(tracer, "server.cache", || cache.lookup(&form));
    let (status, steps, solution) = match hit {
        Some(solution) => {
            record.cache_hit = true;
            ("solved", 0, Some(solution))
        }
        None => {
            span(tracer, "audit.preflight", || {
                tela_audit::preflight(&problem)
            });
            let greedy = span(tracer, "heuristics.greedy", || {
                tela_heuristics::greedy::solve(&problem)
            });
            record.greedy_solved = Some(
                greedy
                    .solution
                    .is_some_and(|s| s.validate(&problem).is_ok()),
            );
            // The workload's own call records into the tracer, so the
            // search and CP counters are attributed to this request. The
            // default portfolio builds its other variants with tracing
            // off, so every variant gets the tracer explicitly.
            let mut traced = TelaConfig {
                tracer: tracer.clone(),
                ..config.clone()
            };
            traced.variants = default_variants(&traced)
                .into_iter()
                .map(|mut variant| {
                    variant.config.tracer = tracer.clone();
                    variant
                })
                .collect();
            let budget = Budget::steps(job.max_steps);
            let scale = workload == Workload::Scale;
            let search = scale.then(|| {
                span(tracer, "core.search", || {
                    solve(workload, &problem, job.max_steps, &traced)
                })
            });
            // On scale the ladder is a probe; elsewhere it is the
            // workload's own call.
            let ladder_config = if scale { config.clone() } else { traced };
            let ladder = span(tracer, "core.ladder", || {
                EscalationLadder::new(ladder_config).solve(&problem, &budget)
            });
            record.ladder = Some((ladder.stage, ladder.outcome.label()));
            record.stage_ms = ladder
                .stages
                .iter()
                .filter(|s| s.stage != ResilienceStage::Heuristic)
                .map(|s| s.stats.elapsed.as_secs_f64() * 1e3)
                .collect();
            if ladder.stage != ResilienceStage::Heuristic {
                let slice = Budget::steps(first_attempt(&config, job.max_steps));
                let race = span(tracer, "core.portfolio", || {
                    solve_portfolio(&problem, &slice, &config)
                });
                let ran: Vec<_> = race.reports.iter().flatten().collect();
                let total = ran.iter().map(|r| r.stats.steps).sum();
                let useful = race
                    .winner
                    .and_then(|w| race.reports.get(w).and_then(Option::as_ref))
                    .map_or(0, |r| r.stats.steps);
                if !ran.is_empty() {
                    record.portfolio = Some((total, useful, ran.len()));
                }
            }
            let answer = search.unwrap_or_else(|| {
                let label = ladder.outcome.label();
                let solution = match ladder.outcome {
                    SolveOutcome::Solved(solution) => Some(solution),
                    _ => None,
                };
                (label, ladder.stats.steps, solution)
            });
            if let Some(solution) = &answer.2 {
                span(tracer, "server.cache", || cache.insert(&form, solution));
            }
            answer
        }
    };
    span(tracer, "model.validate", || {
        solution.as_ref().map(|s| s.validate(&job.problem))
    });
    span(tracer, "server.protocol", || {
        let response = Response {
            addresses: solution.as_ref().map(|s| s.addresses().to_vec()),
            cache_hit: record.cache_hit,
            steps,
            ..Response::terminal(id, Status::Solved, "")
        };
        parse_response(&render_response(&response)).expect("a rendered response parses")
    });
    tracer.end(root, "bench", "request", vec![]);
    (status, steps, solution, record)
}

/// Replays every timed job twice, once untraced and once into
/// `tracer`, alternating which goes first so neither inherits warmer
/// caches; returns the traced pass's tally and records and both passes'
/// summed wall times. Each pass has its own solution cache, which for
/// the service first takes the warm-up jobs, as the server's did.
fn replay(plan: &Plan, inputs: &Inputs, tracer: &Tracer) -> (Tally, Vec<Record>, f64, f64) {
    let quiet = Tracer::disabled();
    let capacity = inputs
        .timed
        .iter()
        .chain(&inputs.warmup)
        .map(Vec::len)
        .sum::<usize>()
        + 16;
    let caches = [SolutionCache::new(capacity), SolutionCache::new(capacity)];
    if plan.workload == Workload::Service {
        for cache in &caches {
            for (id, job) in inputs.warmup.iter().flatten().enumerate() {
                replay_one(plan.workload, id as u64, job, &quiet, cache);
            }
        }
    }
    let timed = |id: usize, job: &Job, tracer: &Tracer, cache: &SolutionCache| {
        let start = Instant::now();
        let out = replay_one(plan.workload, id as u64, job, tracer, cache);
        (out, start.elapsed().as_secs_f64())
    };
    let (mut untraced, mut traced) = (0.0, 0.0);
    let mut tally = Tally::default();
    let mut records = Vec::new();
    for (index, job) in inputs.timed.iter().flatten().enumerate() {
        let request_tracer = tracer.with_field("request", index as u64);
        let ((status, steps, solution, record), traced_s) = if index % 2 == 0 {
            untraced += timed(index, job, &quiet, &caches[0]).1;
            timed(index, job, &request_tracer, &caches[1])
        } else {
            let out = timed(index, job, &request_tracer, &caches[1]);
            untraced += timed(index, job, &quiet, &caches[0]).1;
            out
        };
        traced += traced_s;
        tally.record(index, job, status, steps, solution.as_ref(), traced_s);
        records.push(record);
    }
    (tally, records, untraced, traced)
}

/// Per-request durations of `bench.*` spans and the search spans.
#[derive(Debug, Default)]
struct Spans {
    /// `bench.<name>` → per-request summed duration in ns.
    bench: HashMap<String, HashMap<u64, f64>>,
    /// Per request: summed `search.solve` duration (ns) and steps.
    search: HashMap<u64, (f64, u64)>,
}

impl Spans {
    fn of(trace: &Trace) -> Spans {
        let mut spans = Spans::default();
        for e in trace.events.iter().filter(|e| e.phase == Phase::End) {
            let (Some(request), Some(dur)) = (
                e.field("request").and_then(|v| v.as_u64()),
                e.field("dur").and_then(|v| v.as_u64()),
            ) else {
                continue;
            };
            if e.layer == "bench" {
                *spans
                    .bench
                    .entry(e.name.to_string())
                    .or_default()
                    .entry(request)
                    .or_default() += dur as f64;
            } else if e.layer == "search" && e.name == "solve" {
                let steps = e.field("steps").and_then(|v| v.as_u64()).unwrap_or(0);
                let entry = spans.search.entry(request).or_default();
                entry.0 += dur as f64;
                entry.1 += steps;
            }
        }
        spans
    }

    /// Per-request durations of `bench.<name>` in ns.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.bench
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    fn request(&self, name: &str, request: u64) -> f64 {
        self.bench
            .get(name)
            .and_then(|m| m.get(&request))
            .copied()
            .unwrap_or(0.0)
    }

    /// Search µs per step over `requests`.
    fn us_per_step(&self, requests: &[usize]) -> f64 {
        let (ns, steps) = requests
            .iter()
            .filter_map(|&r| self.search.get(&(r as u64)))
            .fold((0.0, 0u64), |(ns, st), &(d, s)| (ns + d, st + s));
        if steps == 0 {
            0.0
        } else {
            ns / 1e3 / steps as f64
        }
    }
}

/// Where the traced run writes its JSONL, inside the benchmark's own
/// directory.
fn trace_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

/// The traced run over already set-up `inputs`; `tracer` already holds
/// the set-up spans. `observed` carries the service's TCP pass.
pub(crate) fn run_traced(
    plan: &Plan,
    seed: u64,
    inputs: &Inputs,
    tracer: &Tracer,
    observed: Option<&Observed>,
) -> Report {
    let (tally, records, untraced, traced) = replay(plan, inputs, tracer);

    let trace = tracer
        .snapshot()
        .expect("the traced run's tracer is enabled");
    let jsonl = write_jsonl(&trace);
    let path = trace_path(plan.workload, seed);
    let mut errors = Vec::new();
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("a parent directory"))
        .and_then(|()| std::fs::write(&path, &jsonl))
    {
        errors.push(format!("cannot write {}: {e}", path.display()));
    }
    let profile = match tela_prof::profile_jsonl(&jsonl) {
        Ok(profile) => profile,
        Err(e) => {
            errors.push(format!("the trace does not read back: {e}"));
            return Report {
                errors,
                ..tally.into_report(Vec::new())
            };
        }
    };
    println!("trace: {} ({} events)", path.display(), trace.events.len());
    let total_s = |key: &str| profile.entry(key).map_or(0.0, |e| e.total as f64 / 1e9);
    let counter = |name: &str| tracer.counter_value(name).unwrap_or(0) as f64;

    let spans = Spans::of(&trace);
    let us_p50 = |name: &str| median(&spans.durations(name)) / 1e3;
    let n = records.len().max(1) as f64;
    let share = |f: &dyn Fn(&Record) -> bool| records.iter().filter(|r| f(r)).count() as f64 / n;
    let greedy: Vec<bool> = records.iter().filter_map(|r| r.greedy_solved).collect();
    let stage_ms: Vec<f64> = records.iter().flat_map(|r| r.stage_ms.clone()).collect();
    let races: Vec<f64> = spans
        .durations("core.portfolio")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let probes: Vec<(u64, u64, usize)> = records.iter().filter_map(|r| r.portfolio).collect();
    let race_steps: u64 = probes.iter().map(|p| p.0).sum();
    let useful_steps: u64 = probes.iter().map(|p| p.1).sum();
    let search_steps = counter("search.steps");
    let search_ns: f64 = spans.search.values().map(|v| v.0).sum();
    let propagations = counter("cp.propagations");
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sizes: Vec<usize> = inputs
        .timed
        .iter()
        .flatten()
        .map(|j| j.problem.len())
        .collect();

    if let Some(observed) = observed {
        let replayed: Vec<bool> = records.iter().map(|r| r.cache_hit).collect();
        if replayed != observed.cache_hit {
            errors.push("the in-process replay's cache hits differ from the server's".into());
        }
    }
    let (hit_ms, miss_ms, unattributed_ms, solve_calls, rejected) = match observed {
        Some(o) => {
            let pick = |hit: bool| -> Vec<f64> {
                (0..o.rtt.len())
                    .filter(|&i| o.cache_hit[i] == hit)
                    .map(|i| o.rtt[i] * 1e3)
                    .collect()
            };
            let unattributed: Vec<f64> = (0..o.rtt.len())
                .map(|i| {
                    let layers: f64 = SERVER_PATH
                        .iter()
                        .map(|name| spans.request(name, i as u64))
                        .sum();
                    o.rtt[i] * 1e3 - layers / 1e6
                })
                .collect();
            (
                median(&pick(true)),
                quantile(&pick(false), 0.99),
                median(&unattributed),
                o.solve_calls as f64,
                o.rejected as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let cache_hit_ratio = match observed {
        Some(o) => {
            o.cache_hit.iter().filter(|&&h| h).count() as f64 / o.cache_hit.len().max(1) as f64
        }
        None => share(&|r| r.cache_hit),
    };

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "workloads.generate_s",
            total_s("bench.workloads.generate"),
            "s",
        ),
        m(
            "model.problem_build_s",
            total_s("bench.model.problem_build"),
            "s",
        ),
        m("model.validate_us_p50", us_p50("model.validate"), "us"),
        m(
            "model.parse_problem_us_p50",
            us_p50("model.parse_problem"),
            "us",
        ),
        m(
            "model.fingerprint_us_p50",
            us_p50("model.fingerprint"),
            "us",
        ),
        m("audit.preflight_us_p50", us_p50("audit.preflight"), "us"),
        m(
            "audit.preflight_ms_max",
            quantile(&spans.durations("audit.preflight"), 1.0) / 1e6,
            "ms",
        ),
        m(
            "heuristics.greedy_us_p50",
            us_p50("heuristics.greedy"),
            "us",
        ),
        m(
            "heuristics.greedy_solved_ratio",
            per(
                greedy.iter().filter(|&&g| g).count() as f64,
                greedy.len() as f64,
            ),
            "ratio",
        ),
        m(
            "ladder.heuristic_share",
            share(&|r| matches!(r.ladder, Some((ResilienceStage::Heuristic, _)))),
            "ratio",
        ),
        m(
            "ladder.portfolio_share",
            share(&|r| matches!(r.ladder, Some((ResilienceStage::Portfolio, "solved")))),
            "ratio",
        ),
        m(
            "ladder.best_effort_count",
            records
                .iter()
                .filter(|r| matches!(r.ladder, Some((_, "best_effort"))))
                .count() as f64,
            "count",
        ),
        m("ladder.stage_ms_p50", median(&stage_ms), "ms"),
        m("portfolio.race_ms_p50", quantile(&races, 0.5), "ms"),
        m("portfolio.race_ms_p90", quantile(&races, 0.9), "ms"),
        m("portfolio.steps_total", race_steps as f64, "count"),
        m(
            "portfolio.useful_step_ratio",
            per(useful_steps as f64, race_steps as f64),
            "ratio",
        ),
        m(
            "portfolio.variants_run_mean",
            per(
                probes.iter().map(|p| p.2).sum::<usize>() as f64,
                probes.len() as f64,
            ),
            "count",
        ),
        m("search.steps", search_steps, "count"),
        m(
            "search.backtracks",
            counter("search.backtracks.major") + counter("search.backtracks.minor"),
            "count",
        ),
        m("search.ns_per_step", per(search_ns, search_steps), "ns"),
        m(
            "search.us_per_step.smallest",
            spans.us_per_step(&size_decile(&sizes, false)),
            "us",
        ),
        m(
            "search.us_per_step.largest",
            spans.us_per_step(&size_decile(&sizes, true)),
            "us",
        ),
        m("cp.propagations", propagations, "count"),
        m("cp.min_pos_queries", counter("cp.min_pos.queries"), "count"),
        m(
            "cp.propagations_per_step",
            per(propagations, search_steps),
            "ratio",
        ),
        m("cp.ns_per_propagation", per(search_ns, propagations), "ns"),
        m("server.protocol_us_p50", us_p50("server.protocol"), "us"),
        m("server.cache_hit_ratio", cache_hit_ratio, "ratio"),
        m("server.hit_latency_ms_p50", hit_ms, "ms"),
        m("server.miss_latency_ms_p99", miss_ms, "ms"),
        m("server.unattributed_ms_p50", unattributed_ms, "ms"),
        m("server.solve_calls", solve_calls, "count"),
        m("server.rejected", rejected, "count"),
        m("trace.overhead_ratio", per(traced, untraced), "ratio"),
    ];
    let mut report = tally.into_report(metrics);
    report.errors.extend(errors);
    report
}
