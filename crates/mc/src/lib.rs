//! # nice-mc
//!
//! The NICE model checker: explicit-state search over the whole system —
//! the controller program, the simplified OpenFlow switches, and the end
//! hosts — combined with symbolic execution of the controller's event
//! handlers (the `discover_packets` / `discover_stats` transitions of
//! Figure 5) and the OpenFlow-specific search strategies of Section 4.
//!
//! The crate is organised as:
//!
//! * [`scenario`] — what to check: topology, controller application, host
//!   models, how clients choose packets (scripted or symbolically
//!   discovered), and the checker configuration (strategy, bounds,
//!   switch-model options).
//! * [`faults`] — the [`faults::FaultPlan`]: which faults (channel drops /
//!   duplicates / reorders / link failures, switch crashes) the checker may
//!   inject, under a bounded budget.
//! * [`state`] — the [`state::SystemState`]: every component plus the FIFO
//!   channels between them, with a canonical 64-bit fingerprint.
//! * [`transition`] — the system transitions and their semantics.
//! * [`strategy`] — what each [`StrategyKind`] (NICE-MC full search,
//!   NO-DELAY, FLOW-IR, UNUSUAL) selects, and the sleep-set partial-order
//!   reduction [`ReductionKind::Por`] stacks under it.
//! * [`por`] — transition footprints and the static independence relation
//!   the reduction is built on.
//! * [`properties`] — the correctness-property library of Section 5.2 plus
//!   the trait for application-specific properties.
//! * [`checker`] — the depth-first search loop of Figure 5, violation
//!   traces, search statistics, and a random-walk simulation mode.
//! * [`explored`] — explored-set storage: one exact store of packed
//!   in-memory tables.
//! * [`session`] — observable, cancellable check sessions: streamed
//!   [`CheckEvent`]s, [`CancelToken`]/deadline interruption, and the
//!   [`Outcome`] recorded on every report.
//! * [`trace`] — typed, replayable violation traces and the stable
//!   `nice-trace-v1` JSON schema.
//! * [`replay`] — deterministic step-by-step re-execution of a recorded
//!   trace ([`ModelChecker::replay`]).
//! * [`minimize`] — the counterexample debugging toolkit: ddmin trace
//!   minimization ([`ModelChecker::minimize`]) and first-unavoidable-step
//!   bisection ([`ModelChecker::bisect`]).
//! * [`timeline`] — an ASCII lane-per-component renderer for traces.
//! * [`json`] — the workspace's one JSON module: the [`Json`] value, a
//!   strict, linear, depth-bounded parser and a writer that is well-formed
//!   by construction, shared by the traces, the CLI and the `nice-dist-v6`
//!   wire protocol.
//! * [`shard`] — fingerprint-space sharding: [`shard::ShardedSearch`]
//!   explores only the states a shard owns and exports the rest as
//!   replayable frontier nodes; a harness for the benchmark's shard probe,
//!   not a way [`ModelChecker`] searches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod explored;
pub mod faults;
pub mod json;
pub mod minimize;
pub mod por;
pub mod properties;
pub mod replay;
pub mod scenario;
pub mod session;
pub mod shard;
pub mod state;
pub mod strategy;
pub mod testutil;
pub mod timeline;
pub mod trace;
pub mod transition;

pub use checker::{CheckReport, FaultStats, ModelChecker, Path, SearchStats, Verdict, Violation};
pub use faults::FaultPlan;
pub use json::Json;
pub use minimize::{BisectReport, MinimizeReport};
pub use por::{independent, Footprint};
pub use properties::{
    DirectPaths, Event, FlowAffinity, NoAbandonedPackets, NoBlackHoles, NoForgottenPackets,
    NoForwardingLoops, Property, StrictDirectPaths,
};
pub use replay::{ReplayOutcome, ReplayReport, ReplayViolation};
pub use scenario::{
    CheckerConfig, ReductionKind, Scenario, ScenarioBuilder, SendPolicy, StrategyKind,
};
pub use session::{
    CancelToken, CheckEvent, CheckObserver, CheckSession, InterruptReason, NoopObserver, Outcome,
};
pub use shard::{shard_of, FrontierExport, ShardSpec, ShardedSearch, StepOutcome};
pub use state::SystemState;
pub use strategy::Sleeper;
pub use timeline::{render_timeline, Timeline};
pub use trace::{Trace, TraceEngine, TRACE_SCHEMA};
pub use transition::Transition;
