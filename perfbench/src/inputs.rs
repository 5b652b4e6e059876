//! Input generation: every workload is a seeded, fixed list of jobs.
//!
//! The run seed is split into independent sub-seed streams, one for
//! the timed jobs and one for the warm-up jobs (per client, for the
//! service), so the warm-up never touches an input the timed stream
//! will send. Generation goes only through the public `tela_workloads`
//! generators; the spans recorded here feed `workloads.generate_s` and
//! `model.problem_build_s`.

use std::collections::HashSet;

use tela_model::{Buffer, CanonicalForm, Problem};
use tela_trace::Tracer;
use tela_workloads::sweep::{certified_solvable, giant};
use tela_workloads::{problem_with_slack, ModelKind};

use crate::stats::{mix, sub_seed};
use crate::{span, Workload};

/// The compile mix: the eleven Pixel 6 stand-ins plus SRGAN.
const MODELS: [ModelKind; 12] = [
    ModelKind::Fpn,
    ModelKind::ConvNet2d,
    ModelKind::InceptionResnet,
    ModelKind::FaceDetection,
    ModelKind::OpenPose,
    ModelKind::StereoNet,
    ModelKind::Segmentation,
    ModelKind::ResNet152,
    ModelKind::Saliency,
    ModelKind::ImageModel1,
    ModelKind::ImageModel2,
    ModelKind::Srgan,
];

/// Memory slack over maximum contention for the compile mix: the
/// paper's 110% and three tighter sizes.
const COMPILE_SLACKS: [u32; 4] = [2, 3, 5, 10];
/// Slack over the known packing's peak for certified instances.
const CERTIFIED_SLACKS: [u64; 2] = [1, 3];
/// Slack over the known packing's peak for giant instances.
const GIANT_SLACK: u32 = 5;

/// Step budget of one compile-mix solve.
const COMPILE_STEPS: u64 = 10_000;
/// Step budget of one certified (tight) solve.
const TIGHT_STEPS: u64 = 10_000;
/// Step budget of every service request. Twice the in-process budgets,
/// so a certified give-up runs well past the server's 20 ms liveness
/// probe on any host (see README.md).
const SERVICE_STEPS: u64 = 20_000;
/// Step budget of one giant solve, per buffer: the search places each
/// buffer once and never backtracks on these instances.
const GIANT_STEPS_PER_BUFFER: u64 = 4;

/// Service traffic: tenants, and the share of repeats and certified
/// problems among a client's requests. These are assumptions, not
/// measurements: `service`'s cache numbers depend on the repeat share
/// (see README.md).
pub(crate) const TENANTS: u64 = 4;
const REPEAT_PERCENT: u64 = 20;
const CERTIFIED_PERCENT: u64 = 10;

/// One request: a problem plus what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Job {
    /// The problem, in the order the client holds it.
    pub problem: Problem,
    /// Step budget the solve runs under.
    pub max_steps: u64,
    /// A solution provably exists: an `Infeasible` answer is wrong.
    pub certified: bool,
    /// Tenant index (service only).
    pub tenant: u64,
}

/// Everything one run solves: the timed jobs and the warm-up jobs,
/// split per client for the service (one client for the in-process
/// workloads).
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Timed jobs, per client.
    pub timed: Vec<Vec<Job>>,
    /// Warm-up jobs, per client.
    pub warmup: Vec<Vec<Job>>,
}

/// How much one run does. Sizes are fixed by the run length, never by
/// the clock, so a slower host does the same work more slowly.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Timed jobs per client (compile, tight, service) or size series
    /// (scale).
    pub jobs: usize,
    /// Warm-up jobs per client, or warm-up series (scale).
    pub warmup: usize,
    /// Buffer counts of one scale series. An odd number of sizes puts
    /// the median request inside the middle size, not on the step
    /// between two sizes.
    pub scale_sizes: Vec<usize>,
    /// Timed passes over the same jobs; each request's latency is its
    /// fastest pass.
    pub passes: usize,
    /// Set-ups before each timed pass; `setup_s` is the median of all
    /// of them.
    pub setups: usize,
}

/// Set-ups of an untraced run, spread evenly over its passes.
const SETUPS: usize = 6;

impl Plan {
    /// The plan for a run of `seconds` on a 2-core host.
    ///
    /// An untraced run solves each job in several passes. The host's
    /// slow spells last from milliseconds to tens of seconds, so passes
    /// seconds apart rarely all catch one request in a slow spell; but
    /// each pass costs distinct inputs. `tight` and `scale` take three:
    /// their requests run long, and `scale`'s inputs barely vary between
    /// seeds. `compile` and `service` take two: rare give-ups of about
    /// 100 ms, and the mix of request kinds, move their numbers unless a
    /// run holds many inputs.
    ///
    /// A traced run makes one pass. It replays each job twice (untraced
    /// and traced) and adds probes, so it takes a fraction of the
    /// seconds' worth of jobs: a smaller one where the probes cost most
    /// next to the job (compile: the portfolio probe; scale: the wire
    /// round trip of a giant problem; service: the TCP pass before the
    /// replay). Warm-ups are a fixed size, so set-up does not grow with
    /// the run.
    pub fn for_seconds(workload: Workload, seconds: u64, traced: bool) -> Plan {
        let passes = match (traced, workload) {
            (true, _) => 1,
            (false, Workload::Compile | Workload::Service) => 2,
            (false, Workload::Tight | Workload::Scale) => 3,
        };
        let share = match (traced, workload) {
            (false, _) => 1.0 / passes as f64,
            (true, Workload::Compile) => 0.12,
            (true, Workload::Scale) => 0.12,
            (true, Workload::Tight) => 0.2,
            (true, Workload::Service) => 0.25,
        };
        let seconds = seconds.max(1) as f64 * share;
        let count = |per_second: f64, min: usize| ((seconds * per_second) as usize).max(min);
        let (jobs, warmup) = match workload {
            Workload::Compile => (count(900.0, 96), 96),
            Workload::Tight => (count(120.0, 16), 8),
            Workload::Scale => (count(2.0, 1), 1),
            Workload::Service => (count(220.0, 48), 48),
        };
        Plan {
            workload,
            jobs,
            warmup,
            scale_sizes: vec![625, 1_250, 2_500, 5_000, 10_000],
            passes,
            setups: if traced { 1 } else { SETUPS / passes },
        }
    }
}

/// Sub-seed stream ids.
const TIMED_STREAM: u64 = 1;
const WARMUP_STREAM: u64 = 2;

/// Generates a run's inputs from `seed`. Generator calls are wrapped in
/// `bench.workloads.generate` spans and problem construction in
/// `bench.model.problem_build` spans on `tracer`.
pub fn generate(plan: &Plan, seed: u64, tracer: &Tracer) -> Inputs {
    let mut gen = Generator {
        tracer,
        seed,
        forms: HashSet::new(),
    };
    let mut timed = Vec::new();
    let mut warmup = Vec::new();
    let clients = if plan.workload == Workload::Service {
        crate::service::CLIENTS
    } else {
        1
    };
    for client in 0..clients as u64 {
        // Warm-up first, so its canonical forms are reserved before the
        // timed stream is drawn: no timed request can hit the cache on
        // a warm-up answer.
        warmup.push(gen.stream(plan, WARMUP_STREAM + 16 * client, plan.warmup, true));
        timed.push(gen.stream(plan, TIMED_STREAM + 16 * client, plan.jobs, false));
    }
    Inputs { timed, warmup }
}

struct Generator<'a> {
    tracer: &'a Tracer,
    seed: u64,
    /// Canonical fingerprints of every fresh service problem so far.
    forms: HashSet<u128>,
}

impl Generator<'_> {
    fn stream(&mut self, plan: &Plan, stream: u64, count: usize, warmup: bool) -> Vec<Job> {
        match plan.workload {
            Workload::Compile => (0..count).map(|i| self.compile(stream, i as u64)).collect(),
            Workload::Tight => (0..count)
                .map(|i| self.certified(stream, i as u64))
                .collect(),
            Workload::Scale => {
                let sizes: &[usize] = if warmup {
                    &plan.scale_sizes[..plan.scale_sizes.len().min(2)]
                } else {
                    &plan.scale_sizes
                };
                (0..count as u64)
                    .flat_map(|rep| sizes.iter().map(move |&n| (rep, n)))
                    .map(|(rep, n)| self.giant(stream, rep, n))
                    .collect()
            }
            Workload::Service => self.service(stream, count),
        }
    }

    fn generate<T>(&self, f: impl FnOnce() -> T) -> T {
        span(self.tracer, "workloads.generate", f)
    }

    fn build<T>(&self, f: impl FnOnce() -> T) -> T {
        span(self.tracer, "model.problem_build", f)
    }

    /// Compile job `i`: the stream cycles through every model at every
    /// slack, with a fresh model seed for every job.
    fn compile(&self, stream: u64, i: u64) -> Job {
        let kind = MODELS[(i % 12) as usize];
        let slack = COMPILE_SLACKS[((i / 12) % 4) as usize];
        self.compile_job(kind, slack, sub_seed(self.seed, stream, i))
    }

    fn compile_job(&self, kind: ModelKind, slack: u32, model_seed: u64) -> Job {
        let buffers = self.generate(|| kind.generate(model_seed));
        Job {
            problem: self.build(|| problem_with_slack(buffers, slack)),
            max_steps: COMPILE_STEPS,
            certified: false,
            tenant: 0,
        }
    }

    /// Certified job `i`: a fresh packing, at the two certified slacks
    /// in turn.
    fn certified(&self, stream: u64, i: u64) -> Job {
        let base = self.generate(|| certified_solvable(sub_seed(self.seed, stream, i)));
        let slack = CERTIFIED_SLACKS[(i % 2) as usize];
        self.certified_job(&base, slack)
    }

    fn certified_job(&self, base: &Problem, slack: u64) -> Job {
        let capacity = base.capacity() * (100 + slack) / 100;
        Job {
            problem: self.build(|| base.with_capacity(capacity).expect("raising capacity")),
            max_steps: TIGHT_STEPS,
            certified: true,
            tenant: 0,
        }
    }

    /// A giant instance generated at its packing's peak, then given
    /// [`GIANT_SLACK`] headroom (the same problem as generating it at
    /// that slack directly).
    fn giant(&self, stream: u64, rep: u64, n: usize) -> Job {
        let packed = self.generate(|| giant(sub_seed(self.seed, stream, rep), n, 0));
        let capacity = packed.capacity() * u64::from(100 + GIANT_SLACK) / 100;
        Job {
            problem: self.build(|| packed.with_capacity(capacity).expect("raising capacity")),
            max_steps: GIANT_STEPS_PER_BUFFER * n as u64,
            certified: true,
            tenant: 0,
        }
    }

    /// One client's service traffic: mostly compile-mix problems with
    /// zipf model popularity, some certified problems, and, in
    /// [`REPEAT_PERCENT`] of the draws, renamed/shifted repeats of the
    /// client's own earlier requests.
    /// Fresh problems never share a canonical form with any other fresh
    /// problem of the run, so whether a request hits the cache depends
    /// only on its own client's history.
    fn service(&mut self, stream: u64, count: usize) -> Vec<Job> {
        let mut state = sub_seed(self.seed, stream, 0);
        let mut next = move || {
            state = mix(state);
            state
        };
        let mut jobs: Vec<Job> = Vec::with_capacity(count);
        while jobs.len() < count {
            let tenant = next() % TENANTS;
            let roll = next() % 100;
            if roll < REPEAT_PERCENT && !jobs.is_empty() {
                let of = (next() % jobs.len() as u64) as usize;
                let problem = self.build(|| renamed(&jobs[of].problem, next()));
                jobs.push(Job {
                    problem,
                    tenant,
                    ..jobs[of].clone()
                });
                continue;
            }
            let mut job = if roll < REPEAT_PERCENT + CERTIFIED_PERCENT {
                let base = self.generate(|| certified_solvable(next()));
                self.certified_job(&base, CERTIFIED_SLACKS[(next() % 2) as usize])
            } else {
                let kind = MODELS[zipf_rank(next()) as usize];
                let slack = COMPILE_SLACKS[(next() % 4) as usize];
                self.compile_job(kind, slack, next())
            };
            if self
                .forms
                .insert(CanonicalForm::of(&job.problem).fingerprint().as_u128())
            {
                job.tenant = tenant;
                job.max_steps = SERVICE_STEPS;
                jobs.push(job);
            }
        }
        jobs
    }
}

/// A zipf(1.1) rank in `0..12` from a uniform 64-bit draw.
fn zipf_rank(draw: u64) -> u64 {
    let weights: Vec<f64> = (1..=12).map(|k| 1.0 / f64::powf(k as f64, 1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut target = (draw >> 11) as f64 / (1u64 << 53) as f64 * total;
    for (rank, w) in weights.iter().enumerate() {
        if target < *w {
            return rank as u64;
        }
        target -= w;
    }
    11
}

/// The same problem with its buffers reordered and its schedule
/// shifted: a different request text with the same canonical form.
fn renamed(problem: &Problem, draw: u64) -> Problem {
    let shift = 1 + (draw % 64) as u32;
    let mut buffers: Vec<Buffer> = problem
        .buffers()
        .iter()
        .map(|b| Buffer::new(b.start() + shift, b.end() + shift, b.size()).with_align(b.align()))
        .collect();
    buffers.reverse();
    let len = buffers.len();
    buffers.rotate_left((draw >> 8) as usize % len.max(1));
    Problem::new(buffers, problem.capacity()).expect("a renamed problem is valid")
}
