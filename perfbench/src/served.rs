//! `served-mix`: an in-process `dagfact_serve::Service` (one worker,
//! two threads per job) serves two closed-loop clients a seeded stream
//! of inline jobs over a small working set of patterns.

use crate::check::{certify, forward_error, FERR_BAR};
use crate::inputs::{random_vector, rescaled, rhs, Family, Matrix, Problem};
use crate::layers::{gemm_ref_gflops, per_layer_metrics, update_shape};
use crate::op::{ms_since, MAX_REFINE, THREADS};
use crate::report::{end_to_end, json_num, OpLog, Samples, ENGINES};
use crate::rng::Rng;
use crate::workload::{
    input_entry, inventory, repeated_setup, traced_pair, Config, RunResult, Tally,
};
use dagfact_core::{Analysis, SolverOptions};
use dagfact_rt::RuntimeKind;
use dagfact_serve::{
    JobSpec, MatrixSource, ReusePolicy, RhsSource, ServeConfig, Service, ServiceStats,
};
use dagfact_sparse::CscMatrix;
use std::time::{Duration, Instant};

/// Why the workload was chosen.
pub const WHY: &str = "the only workload through the job queue, both caches and same-factor coalescing; solve and tiny-task scheduling dominate";

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Refinement tolerance of refined service jobs.
const SERVE_TOL: f64 = 1e-13;

const STREAM_WS: u64 = 20;
const STREAM_DECK: u64 = 21;
const STREAM_JOB: u64 = 22;
const STREAM_PROBE: u64 = 23;

/// Job class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Cached factors' values, new RHS (`reuse=factors`, no refinement,
    /// so queued twins can coalesce).
    FactorHit,
    /// Cached pattern, new values (`reuse=pattern`).
    PatternHit,
    /// Nothing reused (`reuse=none`).
    Cold,
}

/// Shares of the classes: 60% factor hits, 30% pattern hits, 10% cold.
const CLASSES: [Class; 10] = [
    Class::FactorHit,
    Class::FactorHit,
    Class::FactorHit,
    Class::FactorHit,
    Class::FactorHit,
    Class::FactorHit,
    Class::PatternHit,
    Class::PatternHit,
    Class::PatternHit,
    Class::Cold,
];

/// Working set: patterns on both sides of the parallel-solve break-even.
pub fn working_set(small: bool) -> Vec<Family> {
    if small {
        vec![
            Family::Grid2d { nx: 10, ny: 10 },
            Family::Grid3d { n: 4 },
            Family::Grid2d { nx: 14, ny: 14 },
            Family::Shell { nx: 6, ny: 6 },
        ]
    } else {
        vec![
            Family::Grid2d { nx: 50, ny: 50 },
            Family::Grid3d { n: 13 },
            Family::Grid2d { nx: 125, ny: 125 },
            Family::Shell { nx: 72, ny: 72 },
        ]
    }
}

/// One working-set pattern with its base values.
pub struct Entry {
    /// Generator.
    pub family: Family,
    /// Matrix with the seed's base values.
    pub a: CscMatrix<f64>,
}

/// The working set of a seed: every family with seeded base values
/// (a value rescaling; the patterns are fixed, so the cost of each job
/// class does not depend on the seed).
pub fn build_working_set(seed: u64, small: bool) -> Vec<Entry> {
    working_set(small)
        .into_iter()
        .enumerate()
        .map(|(i, family)| {
            let mut rng = Rng::derive(seed, STREAM_WS, i as u64);
            let Matrix::Real(a) = family.generate(&mut rng) else {
                unreachable!("working-set families are real");
            };
            let a = rescaled(&a, family.facto(), &mut rng);
            Entry { family, a }
        })
        .collect()
}

/// Job `j` of client `client`: its class, pattern, engine and the seeds
/// of its values and solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPlan {
    /// Class.
    pub class: Class,
    /// Working-set index.
    pub pattern: usize,
    /// Engine (round-robin per client).
    pub engine: RuntimeKind,
    /// Seed of the value scaling (unused by factor hits).
    pub values: u64,
    /// Seed of `x_true`.
    pub x: u64,
}

/// The plan of job `j` of `client` under `seed`. Each client's stream is
/// a sequence of decks, each a seeded shuffle of every (class, pattern)
/// pairing, so the class shares and the pattern mix are exact per deck.
pub fn job_plan(seed: u64, client: usize, j: usize, npatterns: usize) -> JobPlan {
    let deck_len = CLASSES.len() * npatterns;
    let mut deck: Vec<(Class, usize)> = (0..deck_len)
        .map(|i| (CLASSES[i % CLASSES.len()], i / CLASSES.len()))
        .collect();
    Rng::derive(
        seed,
        STREAM_DECK + 100 * client as u64,
        (j / deck_len) as u64,
    )
    .shuffle(&mut deck);
    let (class, pattern) = deck[j % deck_len];
    let mut rng = Rng::derive(seed, STREAM_JOB + 100 * client as u64, j as u64);
    JobPlan {
        class,
        pattern,
        engine: ENGINES[j % ENGINES.len()],
        values: rng.next_u64(),
        x: rng.next_u64(),
    }
}

/// A built job: the spec handed to the service and what the answer is
/// checked against.
pub struct Job {
    /// The request.
    pub spec: JobSpec,
    /// Matrix of the request.
    pub a: CscMatrix<f64>,
    /// Known solution.
    pub x_true: Vec<f64>,
    /// `A·x_true`.
    pub b: Vec<f64>,
}

/// Build the job of `plan`.
pub fn build_job(ws: &[Entry], plan: &JobPlan) -> Job {
    let e = &ws[plan.pattern];
    let facto = e.family.facto();
    let a = match plan.class {
        Class::FactorHit => e.a.clone(),
        _ => rescaled(&e.a, facto, &mut Rng::new(plan.values)),
    };
    let x_true: Vec<f64> = random_vector(a.nrows(), &mut Rng::new(plan.x));
    let b = rhs(&a, &x_true);
    let spec = JobSpec {
        matrix: MatrixSource::Inline {
            n: a.nrows(),
            triplets: triplets(&a),
        },
        rhs: RhsSource::Inline(b.clone()),
        facto,
        engine: plan.engine,
        threads: THREADS,
        refine: if plan.class == Class::FactorHit {
            0
        } else {
            MAX_REFINE
        },
        tol: SERVE_TOL,
        nrhs: 1,
        deadline_ms: None,
        reuse: match plan.class {
            Class::FactorHit => ReusePolicy::Factors,
            Class::PatternHit => ReusePolicy::Pattern,
            Class::Cold => ReusePolicy::None,
        },
        tag: None,
    };
    Job { spec, a, x_true, b }
}

fn triplets(a: &CscMatrix<f64>) -> Vec<(usize, usize, f64)> {
    let mut t = Vec::with_capacity(a.nnz());
    for j in 0..a.ncols() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            t.push((i, j, v));
        }
    }
    t
}

/// One client-observed job.
#[derive(Debug, Clone, Copy)]
struct JobLog {
    plan: JobPlan,
    /// Submit → checked answer, ms.
    latency_ms: f64,
    /// `JobResponse.elapsed_us` in ms (0 on error).
    service_ms: f64,
    certified: bool,
    pattern_hit: bool,
    factor_hit: bool,
}

/// Submit `job`, wait, and check the answer against both bars.
fn submit_checked(svc: &Service, job: Job) -> (f64, Option<dagfact_serve::JobResponse>, bool) {
    let t0 = Instant::now();
    let resp = svc.solve_blocking(job.spec).ok();
    let certified = resp.as_ref().is_some_and(|r| {
        certify(&job.a, &r.x, &job.b) && forward_error(&r.x, &job.x_true) <= FERR_BAR
    });
    (ms_since(t0), resp, certified)
}

/// Closed loop of one client: submit, wait, check, repeat until `stop`
/// (at least one job).
fn client_loop(
    svc: &Service,
    ws: &[Entry],
    seed: u64,
    client: usize,
    stop: Instant,
) -> Vec<JobLog> {
    let mut logs = Vec::new();
    for j in 0.. {
        let plan = job_plan(seed, client, j, ws.len());
        let (latency_ms, resp, certified) = submit_checked(svc, build_job(ws, &plan));
        logs.push(JobLog {
            plan,
            latency_ms,
            service_ms: resp.as_ref().map_or(0.0, |r| r.elapsed_us as f64 / 1e3),
            certified,
            pattern_hit: resp.as_ref().is_some_and(|r| r.pattern_hit),
            factor_hit: resp.as_ref().is_some_and(|r| r.factor_hit),
        });
        if Instant::now() >= stop {
            break;
        }
    }
    logs
}

/// Hit ratio of a cache between two snapshots.
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn record_serve(s: &mut Samples, logs: &[JobLog], before: &ServiceStats, after: &ServiceStats) {
    for l in logs {
        s.push(
            "serve.queue_wait_ms.p50",
            (l.latency_ms - l.service_ms).max(0.0),
        );
        s.push("serve.service_ms.p50", l.service_ms);
        let class = if l.factor_hit {
            "serve.factor_hit_ms"
        } else if l.pattern_hit {
            "serve.pattern_hit_ms"
        } else {
            "serve.cold_ms"
        };
        s.push(class, l.latency_ms);
    }
    let (pc, pb) = (&after.pattern_cache, &before.pattern_cache);
    let (fc, fb) = (&after.factor_cache, &before.factor_cache);
    s.push(
        "serve.pattern_hit_ratio",
        hit_ratio(pc.hits - pb.hits, pc.misses - pb.misses),
    );
    s.push(
        "serve.factor_hit_ratio",
        hit_ratio(fc.hits - fb.hits, fc.misses - fb.misses),
    );
    let completed = after.completed - before.completed;
    s.push(
        "serve.batched_frac",
        if completed > 0 {
            (after.batched - before.batched) as f64 / completed as f64
        } else {
            0.0
        },
    );
    s.push(
        "serve.evictions",
        ((pc.evictions - pb.evictions) + (fc.evictions - fb.evictions)) as f64,
    );
    s.push("serve.rejected", (after.rejected - before.rejected) as f64);
}

/// Measured class shares, by plan and by the response flags.
fn class_shares(logs: &[JobLog]) -> String {
    let total = logs.len().max(1) as f64;
    let planned = |c: Class| logs.iter().filter(|l| l.plan.class == c).count() as f64 / total;
    let fh = logs.iter().filter(|l| l.factor_hit).count() as f64 / total;
    let ph = logs
        .iter()
        .filter(|l| l.pattern_hit && !l.factor_hit)
        .count() as f64
        / total;
    let cold = logs
        .iter()
        .filter(|l| !l.pattern_hit && !l.factor_hit)
        .count() as f64
        / total;
    format!(
        ", \"jobs\": {}, \"class_share_planned\": {{\"factor_hit\": {}, \"pattern_hit\": {}, \"cold\": {}}}, \"class_share_served\": {{\"factor_hit\": {}, \"pattern_hit\": {}, \"cold\": {}}}",
        logs.len(),
        json_num(planned(Class::FactorHit)),
        json_num(planned(Class::PatternHit)),
        json_num(planned(Class::Cold)),
        json_num(fh),
        json_num(ph),
        json_num(cold),
    )
}

/// Run the workload.
pub fn run(cfg: &Config) -> RunResult {
    let mut tally = Tally::default();
    // Set-up: generate the working set, start the service and fill both
    // caches with one factor job per pattern.
    let ((ws, svc), setup_s) = repeated_setup(|| {
        let ws = build_working_set(cfg.seed, cfg.small);
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_cap: 64,
            watchdog: Some(Duration::from_secs(60)),
            ..ServeConfig::default()
        });
        for i in 0..ws.len() {
            let plan = JobPlan {
                class: Class::FactorHit,
                pattern: i,
                engine: ENGINES[i % ENGINES.len()],
                values: 0,
                x: Rng::derive(cfg.seed, STREAM_WS, 1000 + i as u64).next_u64(),
            };
            let (_, _, certified) = submit_checked(&svc, build_job(&ws, &plan));
            tally.count(certified);
        }
        (ws, svc)
    });
    let before = svc.stats();
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<JobLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, ws) = (&svc, &ws);
                scope.spawn(move || client_loop(svc, ws, cfg.seed, c, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = t0.elapsed().as_secs_f64();
    let after = svc.stats();
    drop(svc);
    for l in &logs {
        tally.count(l.certified);
    }
    let opts = SolverOptions::default();
    let mut entries = Vec::new();
    let metrics = if cfg.trace {
        let mut s = Samples::default();
        record_serve(&mut s, &logs, &before, &after);
        // Out-of-band probes on the working set: the analysis stage by
        // stage (with the oracle) and a traced factorization per engine.
        for (i, e) in ws.iter().enumerate() {
            for (k, &engine) in ENGINES.iter().enumerate() {
                let mut rng = Rng::derive(cfg.seed, STREAM_PROBE, (i * ENGINES.len() + k) as u64);
                let p = Problem::new(Matrix::Real(e.a.clone()), &mut rng);
                let an = traced_pair(
                    &mut s,
                    &mut tally,
                    &p,
                    e.family.facto(),
                    None,
                    engine,
                    k % 2 == 1,
                );
                if let (0, Some(an)) = (k, an) {
                    entries.push(input_entry(e.family, &an));
                    if i + 1 == ws.len() {
                        s.push(
                            "kernels.gemm_ref.gflops",
                            gemm_ref_gflops(update_shape(&an), 0.3),
                        );
                    }
                }
            }
        }
        per_layer_metrics(&s)
    } else {
        let ops: Vec<OpLog> = logs
            .iter()
            .map(|l| OpLog {
                engine: l.plan.engine,
                group: l.plan.pattern * CLASSES.len() + l.plan.class as usize,
                latency_ms: l.latency_ms,
                certified: l.certified,
            })
            .collect();
        let metrics = end_to_end(&ops, timed_s, setup_s);
        for e in &ws {
            let an = Analysis::new(e.a.pattern(), e.family.facto(), &opts);
            entries.push(input_entry(e.family, &an));
        }
        metrics
    };
    RunResult {
        tally,
        metrics,
        inventory: inventory("served-mix", cfg, WHY, &entries, &class_shares(&logs)),
    }
}
