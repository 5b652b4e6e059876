//! The service workload: `tela-server` on loopback, driven closed-loop
//! by one blocking client.
//!
//! Nothing in this run may depend on timing. Admission limits sit far
//! above the offered load, queue capacity and the degrade watermark sit
//! above the client count, every request carries an explicit step
//! budget and a deadline far above the slowest solve, and fresh
//! problems never share a canonical form (see `inputs`), so every cache
//! hit or miss is fixed by the seed.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tela_model::{problem_to_text, Solution};
use tela_server::json::Value;
use tela_server::{Client, Request, Response, Server, ServerConfig, TenantConfig};
use tela_trace::Tracer;

use crate::inputs::{generate, Inputs, Job, Plan, TENANTS};
use crate::run::{end_to_end, solver_config, Tally};
use crate::stats::{release_freed_memory, Digest};
use crate::{layers, Report};

/// Deadline of every request: far above the slowest step-bounded solve.
const DEADLINE_MS: u64 = 120_000;
/// Solver threads of the server, and closed-loop clients driving it.
/// One of each leaves the second core of the 2-core host the benchmark
/// is sized for to the connection thread and the kernel's loopback, so
/// a request's latency is its own path, not a wait for a core.
const WORKERS: usize = 1;
pub(crate) const CLIENTS: usize = 1;

/// What the TCP pass observed, per timed request in client order.
#[derive(Debug, Default)]
pub(crate) struct Observed {
    /// Round-trip time in seconds.
    pub rtt: Vec<f64>,
    /// Whether the answer came from the solution cache.
    pub cache_hit: Vec<bool>,
    /// `server.solve_calls` from the closing `stats` command.
    pub solve_calls: u64,
    /// `rejected` responses from the closing `stats` command.
    pub rejected: u64,
}

fn server_config(inputs: &Inputs) -> ServerConfig {
    let requests: usize = inputs
        .timed
        .iter()
        .chain(&inputs.warmup)
        .map(Vec::len)
        .sum();
    ServerConfig {
        workers: WORKERS,
        max_connections: 16,
        queue_capacity: 64,
        degrade_watermark: 32,
        cache_capacity: requests + 16,
        admission: TenantConfig {
            refill_per_sec: 1_000_000,
            burst: 1_000_000,
            step_quota: u64::MAX,
            deadline_cap: Duration::from_millis(DEADLINE_MS),
        },
        tela: solver_config(),
    }
}

/// The wire request for `job`.
pub(crate) fn request_for(id: u64, job: &Job) -> Request {
    Request {
        id,
        tenant: format!("tenant-{}", job.tenant % TENANTS),
        problem: problem_to_text(&job.problem),
        max_steps: Some(job.max_steps),
        deadline_ms: Some(DEADLINE_MS),
        trace: false,
    }
}

/// Sends each client's jobs in order over its own connection, all
/// clients concurrently; returns every response with its round-trip
/// time, per client.
fn drive(
    clients: &mut [Client],
    streams: &[Vec<Job>],
) -> Result<Vec<Vec<(Response, f64)>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, jobs)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(jobs.len());
                    for (id, job) in jobs.iter().enumerate() {
                        let request = request_for(id as u64, job);
                        let start = Instant::now();
                        let response = client
                            .request(&request)
                            .map_err(|e| format!("request {id}: no terminal response: {e}"))?;
                        if response.id != id as u64 {
                            return Err(format!("request {id} answered as {}", response.id));
                        }
                        out.push((response, start.elapsed().as_secs_f64()));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

fn counter(stats: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX)
}

/// Checks the server's own accounting after the run: every request got
/// exactly one terminal response, and nothing was refused, shed,
/// degraded, or timed out.
fn check_stats(stats: &Value, requests: u64, errors: &mut Vec<String>) {
    let stats = stats.get("stats").unwrap_or(stats);
    let responses = counter(stats, &["responses", "total"]);
    let terminal: u64 = [
        "solved",
        "infeasible",
        "best_effort",
        "rejected",
        "timed_out",
    ]
    .iter()
    .map(|k| counter(stats, &["responses", k]))
    .fold(0u64, u64::saturating_add);
    if responses != requests || terminal != requests {
        errors.push(format!(
            "server accounted {responses} responses and {terminal} terminal answers for {requests} requests"
        ));
    }
    for key in ["rejected", "timed_out"] {
        let n = counter(stats, &["responses", key]);
        if n != 0 {
            errors.push(format!("server reports {n} {key} responses"));
        }
    }
    for key in ["shed", "degraded"] {
        let n = counter(stats, &[key]);
        if n != 0 {
            errors.push(format!("server reports {n} {key} requests"));
        }
    }
}

/// Runs the service workload. Each timed pass runs against a fresh
/// server, so every pass sees the same cache. A set-up is generation,
/// server start, client connects, and the warm-up pass; the last
/// set-up before a pass keeps its server for the pass.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Report {
    let failure = |e: String| Report {
        attempted: 1,
        failed: 1,
        errors: vec![e],
        ..Report::default()
    };
    let tracer = if traced {
        Tracer::wall()
    } else {
        Tracer::disabled()
    };
    let quiet = Tracer::disabled();
    let passes = plan.passes.max(1);
    let setups = plan.setups.max(1);
    let mut setup_times = Vec::new();
    let mut tally = Tally::default();
    let mut observed = Observed::default();
    let mut last = None;
    for pass in 0..passes {
        let mut timed = None;
        for rep in 0..setups {
            release_freed_memory();
            let start = Instant::now();
            let last_rep = rep + 1 == setups;
            let traced_rep = last_rep && pass + 1 == passes;
            let inputs = generate(plan, seed, if traced_rep { &tracer } else { &quiet });
            let outcome = serve_and(&inputs, |clients| {
                drive(clients, &inputs.warmup)?;
                setup_times.push(start.elapsed().as_secs_f64());
                if !last_rep {
                    return Ok(None);
                }
                let answers = drive(clients, &inputs.timed)?;
                let stats = clients[0]
                    .stats()
                    .map_err(|e| format!("stats command failed: {e}"))?;
                Ok(Some((answers, stats)))
            });
            match outcome {
                Ok(None) => {}
                Ok(Some(done)) => timed = Some((inputs, done)),
                Err(e) => return failure(e),
            }
        }
        let (inputs, (answers, stats)) = timed.expect("the last set-up runs the pass");
        let warmup: usize = inputs.warmup.iter().map(Vec::len).sum();
        let mut latencies = Vec::new();
        let mut digest = Digest::default();
        let mut index = 0;
        for (jobs, responses) in inputs.timed.iter().zip(&answers) {
            for (job, (response, rtt)) in jobs.iter().zip(responses) {
                let status = response.status.tag();
                if pass == 0 {
                    let solution = response.addresses.clone().map(Solution::new);
                    tally.record(index, job, status, response.steps, solution.as_ref(), *rtt);
                    observed.rtt.push(*rtt);
                    observed.cache_hit.push(response.cache_hit);
                } else {
                    latencies.push(*rtt);
                    digest.record(index, status, response.steps);
                }
                index += 1;
            }
        }
        check_stats(&stats, (index + warmup) as u64, &mut tally.errors);
        if pass == 0 {
            let stats = stats.get("stats").unwrap_or(&stats);
            observed.solve_calls = counter(stats, &["solve_calls"]);
            observed.rejected = counter(stats, &["responses", "rejected"]);
        } else {
            tally.repeat(pass, &latencies, &digest);
        }
        last = Some(inputs);
    }
    let inputs = last.expect("at least one pass");
    if traced {
        let mut report = layers::run_traced(plan, seed, &inputs, &tracer, Some(&observed));
        if report.digest != tally.digest.hex() {
            report
                .errors
                .push("the in-process replay's outcomes differ from the server's".into());
        }
        report.errors.extend(tally.errors);
        return report;
    }
    let metrics = end_to_end(&tally, &setup_times);
    tally.into_report(metrics)
}

/// Boots a server for `inputs`, connects one client per stream, runs
/// `body`, and shuts the server down again (also when `body` fails or
/// panics), waiting for every server thread to end.
fn serve_and<T>(
    inputs: &Inputs,
    body: impl FnOnce(&mut [Client]) -> Result<T, String>,
) -> Result<T, String> {
    let server = Server::new(server_config(inputs));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr: SocketAddr = listener.local_addr().map_err(|e| e.to_string())?;
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener, &shutdown));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut clients = (0..inputs.timed.len())
                .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            body(&mut clients)
        }));
        shutdown.store(true, Ordering::Release);
        let _ = serving.join();
        result.unwrap_or_else(|_| Err("service run panicked".into()))
    })
}
