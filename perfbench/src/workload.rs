//! What every workload shares: the run configuration and result, the
//! repeated set-up, the closed loop, the traced op pair and the input
//! inventory.

use crate::inputs::{Family, Problem};
use crate::layers::{record_staged, record_traced, same_analysis, staged_analysis, Staged};
use crate::op::{guarded, ms_since, Outcome};
use crate::report::{json_num, json_str, Metric, OpLog, Samples};
use dagfact_core::{Analysis, SolverOptions};
use dagfact_rt::{RuntimeKind, TraceRecorder};
use dagfact_symbolic::FactoKind;
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed closed loop, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Test-sized inputs.
    pub small: bool,
}

/// Ops attempted and failed, and the stage oracle's verdict.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Answers checked.
    pub attempted: usize,
    /// Typed errors, panics and answers over the bar.
    pub failed: usize,
    /// Every staged analysis matched `Analysis::new`.
    pub oracle_ok: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            oracle_ok: true,
        }
    }
}

impl Tally {
    /// Count one op outcome.
    pub fn count(&mut self, certified: bool) {
        self.attempted += 1;
        if !certified {
            self.failed += 1;
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops and oracle verdict.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Input inventory, one JSON object.
    pub inventory: String,
}

impl RunResult {
    /// Every answer certified, the oracle held and every value is finite.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.oracle_ok
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Set the workload up [`SETUP_REPS`] times; keep the last state and
/// return the median set-up time, s.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first, outside the timed region, so two
        // set-ups are never resident at once.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUP_REPS > 0");
    (state, crate::report::median(&times))
}

/// Closed loop over whole cycles of `cycle` ops: call `op(k)` for
/// `k = 0, 1, …` and stop at the first cycle boundary after `seconds`,
/// so every family/engine pairing runs equally often.
pub fn closed_loop(seconds: f64, cycle: usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut k = 0;
    loop {
        op(k);
        k += 1;
        if k % cycle == 0 && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Time one untraced op of input group `group`, input handed in →
/// checked answer, and log it.
pub fn timed_op(
    ops: &mut Vec<OpLog>,
    tally: &mut Tally,
    group: usize,
    engine: RuntimeKind,
    op: impl FnOnce() -> Result<Outcome, String>,
) {
    let t0 = Instant::now();
    let certified = guarded(op).is_ok_and(|o| o.certified);
    ops.push(OpLog {
        engine,
        group,
        latency_ms: ms_since(t0),
        certified,
    });
    tally.count(certified);
}

/// One traced measurement: the same problem solved untraced and traced,
/// in an order that alternates with `flip`.
///
/// With `shared`, both sides reuse that analysis (refactorization).
/// Without, the untraced side runs `Analysis::new` and the traced side
/// rebuilds it from the stage functions; the stage oracle compares the
/// two. Returns the analysis the traced side used when it built one.
pub fn traced_pair(
    s: &mut Samples,
    tally: &mut Tally,
    p: &Problem,
    facto: FactoKind,
    shared: Option<&Analysis>,
    engine: RuntimeKind,
    flip: bool,
) -> Option<Analysis> {
    let opts = SolverOptions::default();
    let untraced = || -> Result<(Option<(Analysis, f64)>, Outcome), String> {
        guarded(|| match shared {
            Some(an) => Ok((None, p.solve(an, engine, None, false)?)),
            None => {
                let t0 = Instant::now();
                let an = Analysis::new(p.pattern(), facto, &opts);
                let an_ms = ms_since(t0);
                let out = p.solve(&an, engine, None, false)?;
                Ok((Some((an, an_ms)), out))
            }
        })
    };
    let traced = || -> Result<(Option<Staged>, Outcome), String> {
        guarded(|| {
            let rec = TraceRecorder::shared();
            match shared {
                Some(an) => Ok((None, p.solve(an, engine, Some(&rec), true)?)),
                None => {
                    let st = staged_analysis(p.pattern(), facto, &opts);
                    let out = p.solve(&st.analysis, engine, Some(&rec), true)?;
                    Ok((Some(st), out))
                }
            }
        })
    };
    let (u, t) = if flip {
        let t = traced();
        (untraced(), t)
    } else {
        let u = untraced();
        (u, traced())
    };
    tally.count(u.as_ref().is_ok_and(|u| u.1.certified));
    tally.count(t.as_ref().is_ok_and(|t| t.1.certified));
    let (Ok((reference, u_out)), Ok((staged, t_out))) = (u, t) else {
        return None;
    };
    let mut untraced_ms = u_out.solver_ms;
    if let Some((_, an_ms)) = &reference {
        s.push("core.analysis_ms", *an_ms);
        untraced_ms += an_ms;
    }
    let mut staged_ms = 0.0;
    if let Some(st) = &staged {
        staged_ms = st.ms.iter().sum();
        record_staged(s, st, p.is_complex());
        if let Some((an, _)) = &reference {
            tally.oracle_ok &= same_analysis(an, &st.analysis);
        }
    }
    let an = staged.as_ref().map(|st| &st.analysis).or(shared)?;
    let flops = an.costs(p.is_complex()).total;
    record_traced(s, engine, &t_out, p.n(), staged_ms, flops);
    s.push(
        "trace.overhead_frac",
        (staged_ms + t_out.solver_ms) / untraced_ms - 1.0,
    );
    staged.map(|st| st.analysis)
}

/// One inventory entry: the family, its generator and the sizes that
/// drive its cost (`nnz_a` of the symmetrized pattern).
pub fn input_entry(family: Family, an: &Analysis) -> String {
    let st = an.stats();
    let complex = family.is_complex();
    let flops = if complex {
        st.flops_complex
    } else {
        st.flops_real
    };
    format!(
        "{{\"family\": {}, \"generator\": {}, \"facto\": {}, \"arith\": {}, \"n\": {}, \"nnz_a\": {}, \"nnz_l\": {}, \"gflop\": {}}}",
        json_str(family.label()),
        json_str(&family.generator()),
        json_str(family.facto().label()),
        json_str(if complex { "complex" } else { "real" }),
        st.n,
        st.nnz_a,
        st.nnz_l,
        json_num(flops / 1e9)
    )
}

/// The inventory object of a run.
pub fn inventory(
    workload: &str,
    cfg: &Config,
    why: &str,
    entries: &[String],
    extra: &str,
) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"why\": {}, \"inputs\": [{}]{}}}",
        json_str(workload),
        cfg.seed,
        json_str(why),
        entries.join(", "),
        extra
    )
}
