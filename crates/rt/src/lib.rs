//! # dagfact-rt
//!
//! Three task-based runtime engines, the Rust stand-ins for the paper's
//! three schedulers (§IV):
//!
//! * [`native`] — the PaStiX-style engine: tasks carry an analyze-time
//!   *static* worker assignment from the cost-model list schedule, each
//!   worker drains its own priority queue, and idle workers steal — the
//!   "dynamic scheduler based on a work-stealing strategy [that reduces]
//!   idle times while preserving a good locality" of \[1\].
//! * [`dataflow`] — the StarPU-like engine: tasks are *submitted
//!   sequentially* with data access modes (R/W/RW); the engine infers
//!   dependencies from data hazards (RAW/WAR/WAW) at submission and
//!   schedules ready tasks from one **centralized** priority queue.
//!   Centralization mirrors StarPU's single scheduling domain and is the
//!   modeled reason for its small multicore overhead ("lack of cache reuse
//!   policy", §V-A).
//! * [`ptg`] — the PaRSEC-like engine: the task graph is given
//!   *algebraically* as a [`ptg::PtgProgram`] (successor/predecessor-count
//!   functions, the analogue of PaRSEC's parameterized task graph). Tasks
//!   are never materialized before they are ready; each completion
//!   *locally* releases its successors onto the finishing worker's LIFO
//!   deque (data reuse), with Chase-Lev stealing for balance.
//!
//! The engines run real OS threads and synchronize with atomics + the
//! internal [`sync`]/[`deque`] primitives; they are exercised by the
//! solver's factorization (correctness) while the *performance* study of
//! the paper is reproduced on the deterministic simulator in
//! `dagfact-gpusim` (see DESIGN.md §2).
//!
//! All three engines share the fault-tolerant execution layer of
//! [`fault`]: a `*_checked` entry point per engine catches task panics,
//! retries transient failures with bounded backoff, detects stalled
//! schedulers with a watchdog, and reports per-task attempt counts —
//! with deterministic fault *injection* ([`fault::FaultPlan`]) for
//! testing all of it.
//!
//! The hazard contract the engines enforce (and [`shared::SharedSlice`]
//! relies on) is machine-checked by [`verify`]: static happens-before
//! race/deadlock analysis over any engine's submitted graph, a dynamic
//! vector-clock race checker, and a cross-engine equivalence signature.
//! The *runtime primitives* that uphold that contract at execution time
//! are themselves model-checked: [`sync`] is a dual-backend shim that,
//! under `--cfg loom`, swaps std synchronization for the in-repo
//! loom-style checker in [`model`], and the `loom_models` test suite
//! exhaustively explores the load-bearing protocols (fan-in release,
//! deque, watchdog shutdown, budget ledger, trace lanes).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod budget;
pub mod dataflow;
pub mod deque;
pub mod fault;
pub mod model;
pub mod native;
pub mod ptg;
pub mod shared;
pub mod sync;
pub mod trace;
pub mod verify;

pub use budget::{BudgetError, MemoryBudget, MemoryStats, PhaseStats, PressureLevel};
pub use fault::{
    CancelToken, EngineError, FaultPlan, RetryPolicy, RunConfig, RunReport, TransientFault,
};
pub use shared::{release_pending, ReleaseUnderflow, SharedSlice};
pub use trace::{Span, SpanKind, Trace, TraceRecorder};

/// Identifier of a task within one engine run.
pub type TaskId = usize;

/// Identifier of a datum (panel, block, …) used for hazard tracking.
pub type DataId = usize;

/// How a task touches a datum (StarPU-style access modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only.
    Read,
    /// Write-only (no previous value observed).
    Write,
    /// Read-modify-write.
    ReadWrite,
}

impl AccessMode {
    /// Does the access observe previous writes?
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Does the access produce a new value?
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// Which runtime engine executes the factorization — the axis of the
/// paper's comparison (PaStiX vs. StarPU vs. PaRSEC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Native static-schedule + work-stealing engine.
    Native,
    /// StarPU-like sequential-submission dataflow engine.
    Dataflow,
    /// PaRSEC-like parameterized-task-graph engine.
    Ptg,
}

impl RuntimeKind {
    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Native => "PaStiX-native",
            RuntimeKind::Dataflow => "StarPU-like",
            RuntimeKind::Ptg => "PaRSEC-like",
        }
    }

    /// All engines, in paper order.
    pub const ALL: [RuntimeKind; 3] =
        [RuntimeKind::Native, RuntimeKind::Dataflow, RuntimeKind::Ptg];
}
