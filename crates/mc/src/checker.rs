//! The state-space search loop (Figure 5), violation traces and search
//! statistics, plus a random-walk simulation mode.
//!
//! # One search loop
//!
//! Every search runs the same `Worker::expand` — one definition of
//! "expand a frontier node" — over the same in-place `Stepper::advance`,
//! inside the same loop (`drive`). [`ModelChecker::run`] builds one
//! explored store, one discovery cache and [`CheckerConfig::workers`]
//! workers, hands the first one the root and runs the loop once per
//! worker:
//!
//! * `workers == 1` (default) — the loop runs on the calling thread. A
//!   lone worker never donates, so it pops its own stack depth-first: the
//!   canonical sequential search. Fully deterministic: a fixed scenario and
//!   configuration always yield the same transition count, unique-state
//!   count and violation traces, in the order they were found.
//! * `workers > 1` — the first worker on the calling thread and each
//!   sibling on a scoped thread of its own, each expanding depth-first
//!   from a private stack and handing nodes to a shared mutex-protected
//!   queue only when a sibling is starving. The workers
//!   deduplicate states through the one explored store, so each unique
//!   state is expanded exactly once across all of them. With no truncating
//!   budget the search visits the same state space as one worker does
//!   (identical `unique_states` and `transitions`, same set of violated
//!   properties), but the *order* of exploration — and therefore which
//!   trace first reaches a violating state, and where a `max_transitions`
//!   budget cuts off — is scheduling dependent, so the violations are
//!   sorted ([`CheckReport::sort_violations`]).
//!
//! # Frontier storage
//!
//! Every frontier node keeps its transition trace (it doubles as the
//! violation trace) as a `Path`: its own step plus a shared pointer to its
//! parent's, so a new node costs one small allocation at any depth and the
//! trace is copied out only for a violation.
//!
//! A node also owns its state and property observers: `Worker::expand`
//! moves each successor's into its node and `Worker::materialize` moves
//! them out again. Since [`SystemState`] is copy-on-write, what a node owns
//! shares everything its transition did not write with its parent and
//! siblings. Two kinds of node carry no state, because none exists where
//! they are created: the root, and the states a peer shard exports (a wire
//! carries traces, not states). Those are rebuilt by re-executing their
//! whole trace from the initial state — the state restoration of the
//! paper's Section 6 (`Worker::replay_from_root`).
//!
//! Expanding a node copies its state and property observers for every
//! successor but the last, which takes them over: a node with one successor
//! (most nodes of a deep search) copies nothing. Each successor's
//! fingerprint is read off the accumulator its state carries (see
//! [`crate::state`]), not recomputed.
//!
//! The explored set stores only 64-bit state fingerprints (Section 6 of the
//! paper) in the one exact in-memory store of [`crate::explored`]. Under
//! partial-order reduction
//! ([`CheckerConfig::reduction`](crate::scenario::CheckerConfig)) each
//! fingerprint additionally remembers the sleep set it was explored with —
//! see `crate::explored::FingerprintMap` for why that keeps sleep sets
//! sound under state matching.

use crate::explored::{visit_explored, ExactStore, FingerprintMap, Visit};
use crate::json::Json;
use crate::properties::{Event, Property};
use crate::scenario::{CheckerConfig, ReductionKind, Scenario};
use crate::session::{InterruptReason, Outcome, SessionCtrl};
use crate::shard::{FrontierExport, ShardSpec};
use crate::state::SystemState;
use crate::strategy::{PorReduction, Sleeper};
use crate::trace::{Trace, TraceEngine};
use crate::transition::{
    drain_control_plane, enabled_transitions_into, execute, DiscoveryMemo, Transition,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A property violation together with the trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
    /// The typed, replayable transitions from the initial state that
    /// reproduce the violation, in order, plus the scenario name and engine
    /// configuration they were recorded under. Serialize with
    /// [`Trace::to_json`], re-execute with
    /// [`ModelChecker::replay`](crate::replay), render labels with
    /// [`Trace::labels`].
    pub trace: Trace,
    /// How many transitions had been explored when the violation was found.
    pub transitions_explored: u64,
    /// How many unique states had been seen when the violation was found.
    pub unique_states: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation of {}: {}", self.property, self.message)?;
        writeln!(
            f,
            "  found after {} transitions / {} unique states; trace ({} steps):",
            self.transitions_explored,
            self.unique_states,
            self.trace.len()
        )?;
        // `Trace`'s Display renders exactly the numbered-label lines the
        // stringified representation printed, keeping this byte-identical.
        write!(f, "{}", self.trace)
    }
}

/// Per-kind counters of injected fault transitions, indexed by
/// [`Transition::fault_counter_index`]. All zero unless the scenario has an
/// enabled [`FaultPlan`](crate::faults::FaultPlan) *and* the checker ran with
/// fault injection switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped from an ingress channel head.
    pub drops: u64,
    /// Packets duplicated at an ingress channel head.
    pub duplicates: u64,
    /// Adjacent-packet reorderings on an ingress channel.
    pub reorders: u64,
    /// Ingress link failures.
    pub link_failures: u64,
    /// Switch crashes.
    pub crashes: u64,
    /// Switch reconnects (recovery; does not consume budget).
    pub reconnects: u64,
}

impl FaultStats {
    /// Number of distinct fault kinds tracked.
    pub const KINDS: usize = 6;

    /// Builds the counters from an array indexed by
    /// [`Transition::fault_counter_index`].
    pub fn from_counts(counts: [u64; Self::KINDS]) -> Self {
        FaultStats {
            drops: counts[0],
            duplicates: counts[1],
            reorders: counts[2],
            link_failures: counts[3],
            crashes: counts[4],
            reconnects: counts[5],
        }
    }

    /// The counters labelled with their stable (JSON-schema) names, in
    /// [`Transition::fault_counter_index`] order.
    pub fn labeled(&self) -> [(&'static str, u64); Self::KINDS] {
        [
            ("drops", self.drops),
            ("duplicates", self.duplicates),
            ("reorders", self.reorders),
            ("link_failures", self.link_failures),
            ("crashes", self.crashes),
            ("reconnects", self.reconnects),
        ]
    }

    /// The counters as a JSON object keyed by their stable names: the
    /// `"faults"` of a wire stats object, the `"injected_faults"` of
    /// `nice run --json`.
    pub fn to_json(&self) -> Json<'_> {
        Json::object(self.labeled().map(|(name, count)| (name, count.into())))
    }

    /// Reads what [`to_json`](Self::to_json) writes, and nothing more.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        value.within(&FaultStats::default().to_json())?;
        let mut counts = [0; Self::KINDS];
        for (count, (name, _)) in counts.iter_mut().zip(FaultStats::default().labeled()) {
            *count = value.u64(name)?;
        }
        Ok(FaultStats::from_counts(counts))
    }

    /// Counts one executed transition if it is a fault injection.
    pub fn record(&mut self, transition: &Transition) {
        if let Some(index) = transition.fault_counter_index() {
            self.bump(index);
        }
    }

    /// Increments the counter at `index` (a
    /// [`Transition::fault_counter_index`] value).
    pub fn bump(&mut self, index: usize) {
        match index {
            0 => self.drops += 1,
            1 => self.duplicates += 1,
            2 => self.reorders += 1,
            3 => self.link_failures += 1,
            4 => self.crashes += 1,
            5 => self.reconnects += 1,
            _ => panic!("fault counter index {index} out of range"),
        }
    }

    /// Adds another set of counters to these, kind by kind.
    pub fn merge(&mut self, other: &FaultStats) {
        let (ours, theirs) = (self.labeled(), other.labeled());
        *self = FaultStats::from_counts(std::array::from_fn(|i| ours[i].1 + theirs[i].1));
    }

    /// Total fault transitions executed, across all kinds.
    pub fn total(&self) -> u64 {
        self.labeled().iter().map(|(_, n)| n).sum()
    }

    /// True if any fault transition was executed.
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, count) in self.labeled() {
            if count > 0 {
                if !first {
                    write!(f, " | ")?;
                }
                write!(f, "{label}: {count}")?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Aggregate statistics of one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Transitions executed.
    pub transitions: u64,
    /// Unique states encountered (by fingerprint).
    pub unique_states: u64,
    /// Terminal states reached (states with no enabled transitions).
    pub terminal_states: u64,
    /// Concolic explorations executed (cache misses of the discovery memo).
    pub symbolic_executions: u64,
    /// Enabled transitions the search strategy filtered out before
    /// execution (NO-DELAY/FLOW-IR/UNUSUAL restrictions).
    pub pruned_by_strategy: u64,
    /// Strategy-selected transitions the partial-order reduction pruned
    /// before execution (sleep-set hits plus persistent-set exclusions).
    pub pruned_by_por: u64,
    /// Executed transitions whose successor state had already been explored
    /// (fingerprint dedup after execution).
    pub dedup_hits: u64,
    /// Injected-fault counters, by kind (all zero without fault injection).
    pub faults: FaultStats,
    /// Deepest path explored.
    pub max_depth: usize,
    /// True if a budget (transition or depth limit) cut the search short.
    pub truncated: bool,
    /// True if the depth bound cut at least one path short (`truncated` is
    /// then set too).
    pub depth_bounded: bool,
    /// Frontier nodes busy workers handed to the parallel search's shared
    /// queue for a starving sibling to pick up (zero on a single worker).
    pub work_steals: u64,
    /// High-water mark of the explored set's in-memory footprint, in bytes.
    pub peak_explored_bytes: u64,
    /// Wall-clock duration of the search.
    pub duration: Duration,
}

impl SearchStats {
    /// Folds the counters of another worker or shard of the same search
    /// into these: counts add up (the explored-set peak too — shards own
    /// disjoint stores), `max_depth` takes the deeper, the flags OR.
    /// `duration` is left alone: the merged search's wall clock is the
    /// caller's to measure.
    pub fn merge(&mut self, other: &SearchStats) {
        self.transitions += other.transitions;
        self.unique_states += other.unique_states;
        self.terminal_states += other.terminal_states;
        self.symbolic_executions += other.symbolic_executions;
        self.pruned_by_strategy += other.pruned_by_strategy;
        self.pruned_by_por += other.pruned_by_por;
        self.dedup_hits += other.dedup_hits;
        self.faults.merge(&other.faults);
        self.max_depth = self.max_depth.max(other.max_depth);
        self.truncated |= other.truncated;
        self.depth_bounded |= other.depth_bounded;
        self.work_steals += other.work_steals;
        self.peak_explored_bytes += other.peak_explored_bytes;
    }

    /// The stats object of the `nice-dist` `job_done` frame.
    pub fn to_json(&self) -> Json<'_> {
        Json::object([
            ("transitions", self.transitions.into()),
            ("unique_states", self.unique_states.into()),
            ("terminal_states", self.terminal_states.into()),
            ("symbolic_executions", self.symbolic_executions.into()),
            ("pruned_by_strategy", self.pruned_by_strategy.into()),
            ("pruned_by_por", self.pruned_by_por.into()),
            ("dedup_hits", self.dedup_hits.into()),
            ("work_steals", self.work_steals.into()),
            ("peak_explored_bytes", self.peak_explored_bytes.into()),
            ("max_depth", self.max_depth.into()),
            ("truncated", self.truncated.into()),
            ("depth_bounded", self.depth_bounded.into()),
            ("duration_ms", (self.duration.as_millis() as u64).into()),
            ("faults", self.faults.to_json()),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes, and nothing more.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        value.within(&SearchStats::default().to_json())?;
        Ok(SearchStats {
            transitions: value.u64("transitions")?,
            unique_states: value.u64("unique_states")?,
            terminal_states: value.u64("terminal_states")?,
            symbolic_executions: value.u64("symbolic_executions")?,
            pruned_by_strategy: value.u64("pruned_by_strategy")?,
            pruned_by_por: value.u64("pruned_by_por")?,
            dedup_hits: value.u64("dedup_hits")?,
            work_steals: value.u64("work_steals")?,
            peak_explored_bytes: value.u64("peak_explored_bytes")?,
            faults: FaultStats::from_json(value.get("faults")?)?,
            max_depth: value.u64("max_depth")? as usize,
            truncated: value.bool("truncated")?,
            depth_bounded: value.bool("depth_bounded")?,
            duration: Duration::from_millis(value.u64("duration_ms")?),
        })
    }
}

/// What a check concludes about its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The search exhausted the state space and found no violation.
    Pass,
    /// A property was violated.
    Fail,
    /// No violation was found, but the search stopped at a bound (the
    /// transition budget, the depth bound, a deadline or a cancel) before
    /// exhausting the state space.
    Inconclusive,
}

impl Verdict {
    /// The stable (JSON-schema) name: `pass`, `fail` or `inconclusive`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// The outcome of a model-checking run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every violation found (just the first one when
    /// `stop_at_first_violation` is set).
    pub violations: Vec<Violation>,
    /// Search statistics.
    pub stats: SearchStats,
    /// How the search ended: ran to its natural end (possibly
    /// budget-truncated — see [`SearchStats::truncated`]) or stopped early
    /// by a session's cancel token or deadline.
    pub outcome: Outcome,
}

impl CheckReport {
    /// The verdict: [`Verdict::Fail`] if any property was violated, else
    /// [`Verdict::Inconclusive`] if the search stopped at a bound, else
    /// [`Verdict::Pass`].
    pub fn verdict(&self) -> Verdict {
        if !self.violations.is_empty() {
            Verdict::Fail
        } else if self.stats.truncated || self.outcome.interrupted() {
            Verdict::Inconclusive
        } else {
            Verdict::Pass
        }
    }

    /// True if the verdict is [`Verdict::Pass`]: no violation in an
    /// exhausted state space.
    pub fn passed(&self) -> bool {
        self.verdict() == Verdict::Pass
    }

    /// The bound an inconclusive search stopped at, in words.
    fn bound(&self) -> &'static str {
        match self.outcome {
            Outcome::Interrupted(InterruptReason::DeadlineExceeded) => "deadline",
            Outcome::Interrupted(InterruptReason::Cancelled) => "cancelled",
            Outcome::Completed if self.stats.depth_bounded => "depth bound",
            Outcome::Completed => "transition budget",
        }
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Imposes the stable violation order racing engines (the parallel
    /// search's worker threads, multi-shard harnesses) need:
    /// shortest trace first, then lexicographic by property, rendered
    /// labels and message. [`CheckReport::first_violation`] then means "a
    /// shortest witness".
    pub fn sort_violations(&mut self) {
        self.violations.sort_by(|a, b| {
            (a.trace.len(), &a.property, a.trace.labels(), &a.message).cmp(&(
                b.trace.len(),
                &b.property,
                b.trace.labels(),
                &b.message,
            ))
        });
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.verdict() {
            Verdict::Pass => write!(f, "PASS")?,
            Verdict::Fail => write!(f, "FAIL")?,
            Verdict::Inconclusive => write!(f, "NO VIOLATION FOUND (truncated: {})", self.bound())?,
        }
        writeln!(
            f,
            " | outcome: {} | transitions: {} | unique states: {} | terminal states: {} | time: {:.2?}",
            self.outcome.label(self.stats.truncated),
            self.stats.transitions,
            self.stats.unique_states,
            self.stats.terminal_states,
            self.stats.duration,
        )?;
        writeln!(
            f,
            "  pruned by strategy: {} | pruned by POR: {} | dedup hits: {}",
            self.stats.pruned_by_strategy, self.stats.pruned_by_por, self.stats.dedup_hits
        )?;
        writeln!(
            f,
            "  explored set: {} bytes peak | work steals: {}",
            self.stats.peak_explored_bytes, self.stats.work_steals
        )?;
        if self.stats.faults.any() {
            writeln!(f, "  injected faults: {}", self.stats.faults)?;
        }
        for v in &self.violations {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The step
// ---------------------------------------------------------------------------

/// What one thread of execution needs to run transitions: the system under
/// test, the semantics-relevant configuration (the strategy among it), the
/// symbolic discovery memo and a reusable event buffer. The search, the random
/// walker and the [`Replayer`](crate::replay) all step through this, so
/// there is one definition of what executing a transition means.
pub(crate) struct Stepper<'a> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) config: CheckerConfig,
    pub(crate) memo: DiscoveryMemo,
    /// The events emitted by the most recent [`Stepper::advance`].
    pub(crate) events: Vec<Event>,
}

impl<'a> Stepper<'a> {
    pub(crate) fn new(scenario: &'a Scenario, config: CheckerConfig, memo: DiscoveryMemo) -> Self {
        Stepper {
            scenario,
            config,
            memo,
            events: Vec::new(),
        }
    }

    /// Replaces `out` with the transitions the strategy wants explored from
    /// `state`; returns how many enabled ones it filtered out.
    pub(crate) fn select_into(&self, state: &SystemState, out: &mut Vec<Transition>) -> u64 {
        enabled_transitions_into(state, self.scenario, &self.config, out);
        let enabled = out.len();
        self.config.strategy.select(state, out);
        (enabled - out.len()) as u64
    }

    /// Executes `transition` on `state` in place — the transition itself,
    /// then the lock-step control-plane drain if the strategy asks for it —
    /// and feeds every emitted event to the property observers.
    pub(crate) fn advance(
        &mut self,
        state: &mut SystemState,
        properties: &mut [Box<dyn Property>],
        transition: &Transition,
    ) {
        self.events.clear();
        execute(
            state,
            transition,
            self.scenario,
            &self.config,
            &mut self.memo,
            &mut self.events,
        );
        if self.config.strategy.lock_step_control_plane() {
            drain_control_plane(
                state,
                self.scenario,
                &self.config,
                &mut self.memo,
                &mut self.events,
            );
        }
        for event in &self.events {
            for property in properties.iter_mut() {
                property.on_event(event, state);
            }
        }
    }

    /// Builds the violation record (with its typed witness trace) for a
    /// violation found after `trace`.
    fn violation(
        &self,
        property: &str,
        message: String,
        trace: Vec<Transition>,
        transitions_explored: u64,
        unique_states: u64,
    ) -> Violation {
        let mut witness = Trace::from_transitions(
            &self.scenario.name,
            TraceEngine::from_config(&self.config),
            trace,
        );
        witness.property = Some(property.to_string());
        witness.message = Some(message.clone());
        Violation {
            property: property.to_string(),
            message,
            trace: witness,
            transitions_explored,
            unique_states,
        }
    }
}

/// The `(property name, message)` of every property violated in `state`.
pub(crate) fn violated(
    properties: &[Box<dyn Property>],
    state: &SystemState,
) -> Vec<(String, String)> {
    properties
        .iter()
        .filter_map(|p| p.check(state).map(|m| (p.name().to_string(), m)))
        .collect()
}

/// [`violated`] for a terminal `state`: the end-of-execution checks.
pub(crate) fn violated_at_end(
    properties: &[Box<dyn Property>],
    state: &SystemState,
) -> Vec<(String, String)> {
    properties
        .iter()
        .filter_map(|p| p.check_final(state).map(|m| (p.name().to_string(), m)))
        .collect()
}

// ---------------------------------------------------------------------------
// Frontier nodes
// ---------------------------------------------------------------------------

/// The system and property state at some depth of a trace.
#[derive(Clone)]
pub(crate) struct Snapshot {
    pub(crate) state: SystemState,
    pub(crate) properties: Vec<Box<dyn Property>>,
}

impl Snapshot {
    /// Where every execution of `scenario` starts: its initial state,
    /// observed by fresh copies of its properties.
    pub(crate) fn initial(scenario: &Scenario) -> Snapshot {
        Snapshot {
            state: SystemState::initial(scenario),
            properties: scenario.properties.clone(),
        }
    }
}

/// The transitions from the initial state to a frontier node, stored as
/// what the node added to its parent's path: a link holding the node's own
/// step and an `Arc` to the parent's newest link, so siblings and
/// descendants share their common prefix and a child costs one small
/// allocation whatever its depth. A path is laid out in order
/// ([`Path::suffix`]) only where it is read: a violation's witness, the
/// wire, a replay.
#[derive(Clone, Default)]
pub struct Path {
    newest: Option<Arc<Link>>,
    len: usize,
}

struct Link {
    step: Transition,
    parent: Option<Arc<Link>>,
}

impl Drop for Link {
    /// Frees the ancestors this link was the last owner of in a loop: left
    /// to the compiler, dropping the newest link of a long path would
    /// recurse once per link and overflow the stack.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut link| link.parent.take());
        }
    }
}

impl From<Vec<Transition>> for Path {
    /// The path that takes `steps`, in order, sharing nothing yet.
    fn from(steps: Vec<Transition>) -> Path {
        (steps.into_iter()).fold(Path::default(), |path, step| path.push(step))
    }
}

impl PartialEq for Path {
    /// Paths are equal when they take the same transitions, whatever links
    /// they share.
    fn eq(&self, other: &Path) -> bool {
        self.len == other.len
            && (self.links().zip(other.links())).all(|(ours, theirs)| ours.step == theirs.step)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.suffix(0)).finish()
    }
}

impl Path {
    /// Number of transitions on the path.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the path of the initial state.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The links from the newest (depth `len`) down to depth 1.
    fn links(&self) -> impl Iterator<Item = &Arc<Link>> {
        std::iter::successors(self.newest.as_ref(), |link| link.parent.as_ref())
    }

    /// This path plus one more transition.
    pub(crate) fn push(&self, step: Transition) -> Path {
        Path {
            len: self.len + 1,
            newest: Some(Arc::new(Link {
                step,
                parent: self.newest.clone(),
            })),
        }
    }

    /// The transitions from depth `from` on, in execution order;
    /// `suffix(0)` is the whole path. Walks only the links it returns
    /// steps of.
    pub fn suffix(&self, from: usize) -> Vec<&Transition> {
        let mut steps: Vec<&Transition> = (self.links().take(self.len - from))
            .map(|link| &link.step)
            .collect();
        steps.reverse();
        steps
    }

    /// An owned copy of the whole path with `last` appended: a violation's
    /// witness, which leaves the search.
    fn followed_by(&self, last: Option<&Transition>) -> Vec<Transition> {
        self.suffix(0).into_iter().chain(last).cloned().collect()
    }
}

// Frontier nodes move between the parallel search's threads, and states on
// different threads share the components neither has written.
const _: fn() = || {
    fn crosses_threads<T: Send + Sync>() {}
    crosses_threads::<SystemState>();
    crosses_threads::<Node>();
};

/// One frontier entry of the search.
///
/// The node's state is `trace` executed from the initial state; the whole
/// of `trace` is kept (as a [`Path`], shared with the node's relatives)
/// because it is also the violation trace. A node `Worker::expand` made
/// owns that state; the root and the states a peer shard injected carry
/// none and are rebuilt by replay (`Worker::replay_from_root`).
///
/// The sleep set travels with the node (not with the state), so it survives
/// a rebuild unchanged: replaying the trace rebuilds the state, while the
/// pruning obligations were fixed when the node was generated.
pub(crate) struct Node {
    pub(crate) owned: Option<Snapshot>,
    pub(crate) trace: Path,
    /// Transitions whose exploration from this node is redundant (already
    /// covered by a commuting sibling branch). Always empty without POR.
    pub(crate) sleep: Vec<Sleeper>,
    /// True if this node re-expands an already-visited state with a
    /// narrowed sleep set (`Visit::Widen`). Re-expansions exist only to
    /// cover successors the first visit pruned; the state itself was
    /// already accounted for, so terminal counting and end-of-trace
    /// property checks must not run again.
    pub(crate) revisit: bool,
}

// ---------------------------------------------------------------------------
// The expansion
// ---------------------------------------------------------------------------

/// The most transitions a worker runs between publications to [`Shared`].
const BLOCK: u64 = 1024;

/// What is genuinely global to one search: the stop flag every worker
/// polls, and the running totals the transition budget, the progress
/// heartbeat and the violation stamps read. Everything else a worker counts
/// is worker-local and summed at the end ([`SearchStats::merge`]).
///
/// A cache line two cores write per transition is passed back and forth,
/// so a worker publishes its counts and runs the heartbeat once per block
/// of at most [`BLOCK`] transitions and the progress cadence, and when it
/// finishes (`Worker::publish`). A budgeted block is reserved when claimed,
/// and is one transition when several workers share the budget. A lone
/// worker's totals plus its unpublished counts are exact.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    transitions: AtomicU64,
    unique_states: AtomicU64,
}

impl Shared {
    /// Claims, and under a budget (`0` = none) reserves, up to `block`
    /// transitions; returns how many it got: none once the budget is spent.
    fn claim(&self, block: u64, max_transitions: u64) -> u64 {
        if max_transitions == 0 {
            return block;
        }
        self.transitions
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max_transitions).then(|| n + block.min(max_transitions - n))
            })
            .map_or(0, |n| block.min(max_transitions - n))
    }
}

/// One worker of a search: its local frontier stack, its share of the
/// results, and handles on what the search shares (the explored store, the
/// totals and stop flag, the discovery cache). A search runs one per
/// [`CheckerConfig::workers`], all over one explored store; a
/// [`ShardedSearch`](crate::shard::ShardedSearch) shard is a worker that
/// owns only part of the fingerprint space and exports the rest.
pub(crate) struct Worker<'a> {
    pub(crate) stepper: Stepper<'a>,
    /// The sleep-set reduction, under [`ReductionKind::Por`].
    reduction: Option<PorReduction>,
    /// The sleep sets of the successors of the node being expanded, as the
    /// reduction left them; kept for its capacity.
    child_sleeps: Vec<Vec<Sleeper>>,
    /// The sorted digests of the sleep set being visited; kept for its
    /// capacity.
    sleep_digests: Vec<u64>,
    /// The transitions of the node being expanded; kept for its capacity.
    explore: Vec<Transition>,
    pub(crate) shard: ShardSpec,
    store: Arc<ExactStore>,
    root: Arc<Snapshot>,
    pub(crate) shared: Arc<Shared>,
    /// Transitions left in this worker's block.
    allowance: u64,
    /// Transitions run since the last publication, less (mod 2^64) what a
    /// budgeted block reserved, and new states: what they add to [`Shared`].
    unpublished_transitions: u64,
    unpublished_states: u64,
    pub(crate) stats: SearchStats,
    pub(crate) violations: Vec<Violation>,
    /// Frontier nodes waiting locally, expanded depth-first.
    pub(crate) stack: Vec<Node>,
    /// Successors owned by other shards, awaiting export.
    pub(crate) forwards: Vec<FrontierExport>,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(
        checker: &'a ModelChecker,
        shard: ShardSpec,
        store: Arc<ExactStore>,
        root: Arc<Snapshot>,
        shared: Arc<Shared>,
        memo: DiscoveryMemo,
    ) -> Self {
        Worker {
            stepper: Stepper::new(&checker.scenario, checker.config.clone(), memo),
            reduction: (checker.config.reduction == ReductionKind::Por)
                .then(|| PorReduction::new(&checker.scenario)),
            child_sleeps: Vec::new(),
            sleep_digests: Vec::new(),
            explore: Vec::new(),
            shard,
            store,
            root,
            shared,
            allowance: 0,
            unpublished_transitions: 0,
            unpublished_states: 0,
            stats: SearchStats::default(),
            violations: Vec::new(),
            stack: Vec::new(),
            forwards: Vec::new(),
        }
    }

    /// Visits `fingerprint` in the explored set under `sleep` and, if the
    /// state is new (or must be re-expanded with a narrowed sleep set),
    /// queues it as a node to rebuild by replaying `trace`. This is how the
    /// initial state and the states a peer shard exports enter the search.
    pub(crate) fn enqueue(
        &mut self,
        fingerprint: u64,
        trace: Path,
        sleep: Vec<Transition>,
    ) -> bool {
        // The shard boundary: a sleep set crosses the wire as transitions.
        let sleep = sleep.into_iter().map(Sleeper::new).collect();
        let Some((sleep, revisit)) = self.visit(fingerprint, sleep) else {
            return false;
        };
        self.stack.push(Node {
            owned: None,
            trace,
            sleep,
            revisit,
        });
        true
    }

    /// Takes the node apart: its state and property observers — moved out
    /// of a node that owns them, rebuilt by replay for one that does not —
    /// its trace and its sleep set. The state comes back settled: it is
    /// about to be cloned once per successor, and a settled state's clones
    /// fold nothing and fingerprint for what each successor writes. (A
    /// state a node owns was settled where `expand` fingerprinted it.)
    fn materialize(&mut self, node: Node) -> (Snapshot, Path, Vec<Sleeper>) {
        let snapshot = match node.owned {
            Some(owned) => owned,
            None => {
                let mut replayed = self.replay_from_root(&node.trace);
                replayed.state.settle();
                replayed
            }
        };
        (snapshot, node.trace, node.sleep)
    }

    /// The state and property state `trace` leads to, by re-executing it
    /// from the initial state — the memory-saving state restoration of
    /// Section 6, here for the nodes that arrive without a state. Replays do
    /// not count as explored transitions, and settle nothing on the way:
    /// that would digest components the next replayed step is about to
    /// write again.
    fn replay_from_root(&mut self, trace: &Path) -> Snapshot {
        let mut snapshot = Snapshot::clone(&self.root);
        for transition in trace.suffix(0) {
            self.stepper
                .advance(&mut snapshot.state, &mut snapshot.properties, transition);
        }
        snapshot
    }

    /// Deduplicates one reached state. Returns the sleep set and revisit
    /// flag it must be expanded with, or `None` if it is already covered.
    fn visit(&mut self, fingerprint: u64, mut sleep: Vec<Sleeper>) -> Option<(Vec<Sleeper>, bool)> {
        self.sleep_digests.clear();
        self.sleep_digests.extend(sleep.iter().map(Sleeper::digest));
        self.sleep_digests.sort_unstable();
        self.sleep_digests.dedup();
        match self.store.visit(fingerprint, &self.sleep_digests) {
            Visit::New => {
                self.stats.unique_states += 1;
                self.unpublished_states += 1;
                Some((sleep, false))
            }
            Visit::Known => {
                self.stats.dedup_hits += 1;
                None
            }
            // The state was explored before, but with stronger pruning than
            // this path justifies: re-expand it with the narrowed sleep set
            // so nothing reachable only through the previously pruned
            // transitions is missed.
            Visit::Widen(narrowed) => {
                sleep.retain(|s| narrowed.binary_search(&s.digest()).is_ok());
                Some((sleep, true))
            }
        }
    }

    fn record_violation(
        &mut self,
        ctrl: Option<&SessionCtrl>,
        property: &str,
        message: String,
        trace: &Path,
        last: Option<&Transition>,
    ) {
        let violation = self.stepper.violation(
            property,
            message,
            trace.followed_by(last),
            (self.shared.transitions.load(Ordering::Relaxed))
                .wrapping_add(self.unpublished_transitions),
            self.shared.unique_states.load(Ordering::Relaxed) + self.unpublished_states,
        );
        if let Some(ctrl) = ctrl {
            ctrl.notify_violation(&violation);
        }
        self.violations.push(violation);
    }

    /// Takes one transition from this worker's block, first publishing and
    /// claiming the next block if it is spent; false once the budget is.
    fn take_transition(&mut self, ctrl: Option<&SessionCtrl>, depth: usize) -> bool {
        if self.allowance == 0 {
            self.publish();
            if let Some(ctrl) = ctrl {
                let transitions = self.shared.transitions.load(Ordering::Relaxed);
                let states = self.shared.unique_states.load(Ordering::Relaxed);
                ctrl.maybe_progress(transitions, states, depth, self.store.bytes());
            }
            let config = &self.stepper.config;
            let block = match ctrl.map_or(0, |c| c.progress_every) {
                _ if config.max_transitions > 0 && config.workers > 1 => 1,
                0 => BLOCK,
                cadence => cadence.min(BLOCK),
            };
            self.allowance = self.shared.claim(block, config.max_transitions);
            if self.allowance == 0 {
                return false;
            } else if config.max_transitions > 0 {
                self.unpublished_transitions = self.allowance.wrapping_neg();
            }
        }
        self.allowance -= 1;
        self.unpublished_transitions = self.unpublished_transitions.wrapping_add(1);
        true
    }

    /// Adds the unpublished counts to [`Shared`]'s totals and ends the
    /// block, handing back what a budgeted one did not run.
    fn publish(&mut self) {
        self.allowance = 0;
        if (self.unpublished_transitions, self.unpublished_states) != (0, 0) {
            count_publish();
            let transitions = std::mem::take(&mut self.unpublished_transitions);
            let states = std::mem::take(&mut self.unpublished_states);
            (self.shared.transitions).fetch_add(transitions, Ordering::Relaxed);
            (self.shared.unique_states).fetch_add(states, Ordering::Relaxed);
        }
    }

    /// Raises the search-wide stop flag; `expand`'s "wind down" return.
    fn stop(&self) -> bool {
        self.shared.stop.store(true, Ordering::Relaxed);
        false
    }

    /// Expands one frontier node — the single definition of the search
    /// loop's body (Figure 5), which every worker of a search and every
    /// `ShardedSearch` shard run: rebuild the node's state,
    /// let the strategy and the reduction pick the transitions to explore,
    /// execute each one, check the properties, and deduplicate the
    /// successors. Unexplored successors this worker owns land on its
    /// stack; the rest are exported through [`Worker::forwards`].
    ///
    /// Returns `false` once a stop condition fired (interrupt, exhausted
    /// transition budget, first violation under `stop_at_first_violation`,
    /// or a sibling's stop flag): the search is winding down and whatever
    /// this node still had to contribute is deliberately dropped.
    pub(crate) fn expand(&mut self, node: Node, ctrl: Option<&SessionCtrl>) -> bool {
        if ctrl.is_some_and(|c| c.check_interrupt().is_some()) {
            return self.stop();
        }
        let CheckerConfig {
            max_depth,
            stop_at_first_violation,
            ..
        } = self.stepper.config;
        self.stats.max_depth = self.stats.max_depth.max(node.trace.len());

        let revisit = node.revisit;
        let (Snapshot { state, properties }, trace, sleep) = self.materialize(node);

        self.stats.pruned_by_strategy += self.stepper.select_into(&state, &mut self.explore);

        if self.explore.is_empty() {
            // A widened revisit of a terminal state was already counted
            // (and final-checked) on its first visit.
            if !revisit {
                self.stats.terminal_states += 1;
                for (property, message) in violated_at_end(&properties, &state) {
                    self.record_violation(ctrl, &property, message, &trace, None);
                    if stop_at_first_violation {
                        return self.stop();
                    }
                }
            }
            return true;
        }

        if trace.len() >= max_depth {
            self.stats.truncated = true;
            self.stats.depth_bounded = true;
            return true;
        }

        let mut explore = std::mem::take(&mut self.explore);
        let mut child_sleeps = std::mem::take(&mut self.child_sleeps);
        if let Some(por) = &mut self.reduction {
            let scenario = self.stepper.scenario;
            self.stats.pruned_by_por +=
                por.reduce(&state, scenario, &sleep, &mut explore, &mut child_sleeps);
        }

        // The node's last successor takes the node's state and property
        // observers over instead of copying them.
        let last = explore.len().saturating_sub(1);
        let mut parent = Some((state, properties));
        for (index, transition) in explore.drain(..).enumerate() {
            if self.shared.stop.load(Ordering::Relaxed) {
                return false;
            }
            if !self.take_transition(ctrl, trace.len() + 1) {
                self.stats.truncated = true;
                return self.stop();
            }
            self.stats.transitions += 1;
            self.stats.faults.record(&transition);

            let (mut next_state, mut next_properties) = if index == last {
                parent.take()
            } else {
                parent.clone()
            }
            .expect("only the last successor takes the parent");
            self.stepper
                .advance(&mut next_state, &mut next_properties, &transition);

            let violations = violated(&next_properties, &next_state);
            if !violations.is_empty() {
                for (property, message) in violations {
                    self.record_violation(ctrl, &property, message, &trace, Some(&transition));
                }
                if stop_at_first_violation {
                    return self.stop();
                }
                // Do not explore past a violating state: the trace is the
                // shortest continuation through this branch and deeper
                // states would just repeat the same violation.
                continue;
            }

            let child_sleep = (child_sleeps.get_mut(index)).map_or_else(Vec::new, std::mem::take);
            // Settled first: the fingerprint is the fold settling does,
            // and the node that will own this state is not folded again.
            next_state.settle();
            let fingerprint = next_state.fingerprint();
            if !self.shard.owns(fingerprint) {
                // Another shard owns this state: export it instead of
                // exploring (or deduplicating) it here. The owner performs
                // the visit, so the global unique/dedup accounting matches
                // a solo search's exactly.
                let sleep = child_sleep.into_iter().map(Sleeper::into_transition);
                self.forwards.push(FrontierExport {
                    fingerprint,
                    trace: trace.push(transition),
                    sleep: sleep.collect(),
                });
                continue;
            }
            if let Some((sleep, revisit)) = self.visit(fingerprint, child_sleep) {
                self.stack.push(Node {
                    owned: Some(Snapshot {
                        state: next_state,
                        properties: next_properties,
                    }),
                    trace: trace.push(transition),
                    sleep,
                    revisit,
                });
            }
        }
        // Handed back empty, for the next node (a search that is winding
        // down has no use for them).
        child_sleeps.clear();
        self.child_sleeps = child_sleeps;
        self.explore = explore;
        true
    }

    /// Folds this worker's results into the search's report.
    pub(crate) fn finish_into(self, report: &mut CheckReport) {
        report.stats.merge(&self.stats);
        report.stats.symbolic_executions += self.stepper.memo.symbolic_executions;
        report.stats.peak_explored_bytes = self.store.bytes();
        report.violations.extend(self.violations);
    }
}

// ---------------------------------------------------------------------------
// The checker and its drivers
// ---------------------------------------------------------------------------

/// The NICE model checker.
pub struct ModelChecker {
    scenario: Scenario,
    config: CheckerConfig,
}

impl ModelChecker {
    /// Creates a checker for a scenario with the given configuration.
    pub fn new(scenario: Scenario, config: CheckerConfig) -> Self {
        ModelChecker { scenario, config }
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The search configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// Runs the search and returns the report (see the module docs for
    /// what one worker and several workers guarantee).
    ///
    /// A thin wrapper over [`ModelChecker::session`] with a no-op observer,
    /// no cancel token and no deadline — bit-identical to a session-driven
    /// run (pinned by the `session_api` integration tests).
    pub fn run(&self) -> CheckReport {
        self.session().run()
    }

    /// The search under a session's control handles: one explored store,
    /// one discovery cache and [`CheckerConfig::workers`] [`Worker`]s, each
    /// running [`drive`] — the first on the calling thread, each sibling on
    /// a scoped thread of its own.
    pub(crate) fn run_with_ctrl(&self, ctrl: &SessionCtrl) -> CheckReport {
        let start = Instant::now();
        let (root, root_fingerprint) = self.root();
        let store = Arc::new(ExactStore::new());
        let shared = Arc::new(Shared::default());
        let discoveries = DiscoveryMemo::default();
        let count = self.config.workers.max(1);
        let mut workers = (0..count).map(|_| {
            Worker::new(
                self,
                ShardSpec::solo(),
                Arc::clone(&store),
                Arc::clone(&root),
                Arc::clone(&shared),
                discoveries.sharing(),
            )
        });
        // The first worker starts from the root; its siblings start idle
        // and are fed through the queue as soon as the frontier widens.
        let mut first = workers.next().expect("a search has a worker");
        first.enqueue(root_fingerprint, Path::default(), Vec::new());
        let queue = &DonationQueue::new(count);
        let workers: Vec<Worker> = std::thread::scope(|scope| {
            let siblings: Vec<_> =
                (workers.map(|w| scope.spawn(move || drive(w, queue, ctrl)))).collect();
            let first = drive(first, queue, ctrl);
            let siblings = (siblings.into_iter())
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            std::iter::once(first).chain(siblings).collect()
        });

        let mut report = CheckReport::default();
        for worker in workers {
            worker.finish_into(&mut report);
        }
        // Workers race, so impose a stable order; `first_violation` then
        // means "a shortest witness". A lone worker's order is already
        // deterministic, and it is the order its witnesses are pinned in.
        if count > 1 {
            report.sort_violations();
        }
        report.stats.duration = start.elapsed();
        report
    }

    /// The search's root: the initial state (with the scenario's fresh
    /// property observers) and its fingerprint.
    pub(crate) fn root(&self) -> (Arc<Snapshot>, u64) {
        let root = Snapshot::initial(&self.scenario);
        let fingerprint = root.state.fingerprint();
        (Arc::new(root), fingerprint)
    }

    /// Performs `walks` random walks of at most `max_steps` transitions each
    /// (the "random walks on system states" simulation mode of Section 1.3)
    /// and returns a report covering all walks.
    pub fn run_random_walk(&self, seed: u64, walks: u32, max_steps: usize) -> CheckReport {
        let start = Instant::now();
        let mut stepper = Stepper::new(
            &self.scenario,
            self.config.clone(),
            DiscoveryMemo::default(),
        );
        let mut rng = WalkRng::new(seed);
        let mut report = CheckReport::default();
        let mut seen = FingerprintMap::default();
        let mut enabled = Vec::new();

        'walks: for _ in 0..walks {
            let Snapshot {
                mut state,
                mut properties,
            } = Snapshot::initial(&self.scenario);
            let mut trace: Vec<Transition> = Vec::new();
            visit_explored(&mut seen, state.fingerprint(), &[]);

            for _ in 0..max_steps {
                stepper.select_into(&state, &mut enabled);
                let stats = &mut report.stats;
                let found = if enabled.is_empty() {
                    stats.terminal_states += 1;
                    violated_at_end(&properties, &state)
                } else {
                    let transition = &enabled[rng.below(enabled.len())];
                    stepper.advance(&mut state, &mut properties, transition);
                    stats.transitions += 1;
                    stats.faults.record(transition);
                    trace.push(transition.clone());
                    stats.max_depth = stats.max_depth.max(trace.len());
                    if visit_explored(&mut seen, state.fingerprint(), &[]) == Visit::New {
                        stats.unique_states += 1;
                    }
                    violated(&properties, &state)
                };
                for (property, message) in found {
                    report.violations.push(stepper.violation(
                        &property,
                        message,
                        trace.clone(),
                        report.stats.transitions,
                        report.stats.unique_states,
                    ));
                    if self.config.stop_at_first_violation {
                        break 'walks;
                    }
                }
                if enabled.is_empty() {
                    break;
                }
            }
        }

        report.stats.symbolic_executions = stepper.memo.symbolic_executions;
        report.stats.duration = start.elapsed();
        report
    }
}

/// The random walks' generator: xorshift64* over a SplitMix64-expanded
/// seed. Not cryptographic; a seed names the same walks in every build and
/// on every platform.
struct WalkRng(u64);

impl WalkRng {
    fn new(seed: u64) -> Self {
        // SplitMix64 spreads low-entropy seeds over the state space; the
        // state must not be zero.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        WalkRng((z ^ (z >> 31)) | 1)
    }

    /// An index below `len`, which must be positive: the next 64-bit draw
    /// scaled into `0..len` by a multiply-shift.
    fn below(&mut self, len: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let draw = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((draw as u128 * len as u128) >> 64) as usize
    }
}

// ---------------------------------------------------------------------------
// The search loop
// ---------------------------------------------------------------------------

/// The search loop of Figure 5, the one every worker of every search runs:
/// pops nodes, expands them, and terminates when every worker is idle on
/// an empty queue (or a stop condition fired). Each worker keeps its
/// private stack and only hands work to the shared queue when a sibling is
/// starving, so the common case pays no synchronisation beyond the
/// explored store and the shared totals. A lone worker never sees a
/// starving sibling: it pops its own stack depth-first until the stack
/// runs dry, which is the canonical sequential search.
fn drive<'a>(mut worker: Worker<'a>, queue: &DonationQueue, ctrl: &SessionCtrl) -> Worker<'a> {
    let shared = Arc::clone(&worker.shared);
    let _stop_on_panic = OnPanic(|| queue.stop(&shared));
    while !shared.stop.load(Ordering::Relaxed) {
        let Some(node) = worker.stack.pop().or_else(|| queue.pop_work(&shared)) else {
            break;
        };
        let kept = worker.stack.len();
        if !worker.expand(node, Some(ctrl)) {
            queue.stop(&shared);
            break;
        }
        // Work sharing: hand the node's children plus the older half of the
        // private stack to the shared queue only when another worker is
        // starving; otherwise skip the lock entirely.
        if queue.needs_work() {
            let mut donated = worker.stack.split_off(kept);
            if kept > 1 {
                donated.extend(worker.stack.drain(..kept / 2));
            }
            worker.stats.work_steals += donated.len() as u64;
            queue.push_work(donated);
        }
    }
    worker.publish();
    worker
}

/// The shared frontier queue plus the bookkeeping its termination protocol
/// needs.
struct Frontier {
    queue: Vec<Node>,
    /// Workers currently blocked waiting for work.
    idle: usize,
    /// Set when the search should wind down (every worker idle, budget
    /// exhausted, or first violation under `stop_at_first_violation`).
    stop: bool,
}

/// The scheduler: one mutex-protected LIFO frontier that busy
/// workers donate to only when a sibling is starving.
struct DonationQueue {
    workers: usize,
    frontier: Mutex<Frontier>,
    work_available: Condvar,
    /// Mirror of `Frontier::idle` readable without the queue lock.
    idle_count: AtomicUsize,
}

impl DonationQueue {
    fn new(workers: usize) -> DonationQueue {
        DonationQueue {
            workers,
            frontier: Mutex::new(Frontier {
                queue: Vec::new(),
                idle: 0,
                stop: false,
            }),
            work_available: Condvar::new(),
            idle_count: AtomicUsize::new(0),
        }
    }

    /// Locks the frontier, recovering the guard if another worker panicked
    /// while holding the lock (the state under it is kept consistent at
    /// every await point, so a poisoned guard is still safe to use).
    fn lock_frontier(&self) -> std::sync::MutexGuard<'_, Frontier> {
        self.frontier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pops the next frontier node, blocking while the queue is empty and
    /// other workers may still produce work. Returns `None` when the search
    /// is over: stop was signalled, or every worker went idle at once (no
    /// node left anywhere to generate more work from).
    fn pop_work(&self, shared: &Shared) -> Option<Node> {
        let mut frontier = self.lock_frontier();
        loop {
            if frontier.stop {
                return None;
            }
            if let Some(node) = frontier.queue.pop() {
                return Some(node);
            }
            frontier.idle += 1;
            self.idle_count.store(frontier.idle, Ordering::Relaxed);
            if frontier.idle == self.workers {
                frontier.stop = true;
                shared.stop.store(true, Ordering::Relaxed);
                self.work_available.notify_all();
                return None;
            }
            frontier = self
                .work_available
                .wait(frontier)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            frontier.idle -= 1;
            self.idle_count.store(frontier.idle, Ordering::Relaxed);
        }
    }

    /// True if some worker is starved for work. An empty shared queue alone
    /// is not starvation — every worker may be busy on its private stack —
    /// so only actual idleness triggers donation, keeping the steady state
    /// lock-free.
    fn needs_work(&self) -> bool {
        self.idle_count.load(Ordering::Relaxed) > 0
    }

    /// Pushes a batch of nodes (one lock round-trip per expanded node).
    fn push_work(&self, nodes: Vec<Node>) {
        if nodes.is_empty() {
            return;
        }
        let mut frontier = self.lock_frontier();
        let woken = nodes.len();
        frontier.queue.extend(nodes);
        drop(frontier);
        if woken == 1 {
            self.work_available.notify_one();
        } else {
            self.work_available.notify_all();
        }
    }

    /// Ends the search (first violation under stop-at-first, budget,
    /// interrupt, or a panicking worker) and wakes every sleeper.
    fn stop(&self, shared: &Shared) {
        shared.stop.store(true, Ordering::Relaxed);
        let mut frontier = self.lock_frontier();
        frontier.stop = true;
        drop(frontier);
        self.work_available.notify_all();
    }
}

/// Guard ensuring a panicking worker winds the whole search down instead of
/// leaving its siblings parked forever; the panic itself is then re-raised
/// when the worker is joined.
struct OnPanic<F: Fn()>(F);

impl<F: Fn()> Drop for OnPanic<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// Counts a `Worker::publish` that reached [`Shared`]; a no-op outside tests.
#[cfg(not(test))]
fn count_publish() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StrategyKind;
    use crate::testutil;

    #[test]
    fn hub_ping_scenario_passes_default_properties() {
        let scenario = testutil::hub_ping_scenario(1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(report.passed(), "unexpected violation: {report}");
        assert!(report.stats.transitions > 0);
        assert!(report.stats.unique_states > 1);
        assert!(report.stats.terminal_states > 0);
        assert!(!report.stats.truncated);
    }

    #[test]
    fn forgetful_app_violates_no_forgotten_packets() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(!report.violations.is_empty());
        let violation = report.first_violation().unwrap();
        assert_eq!(violation.property, "NoForgottenPackets");
        assert!(!violation.trace.is_empty());
        assert!(violation.to_string().contains("NoForgottenPackets"));
    }

    #[test]
    fn parallel_search_agrees_with_sequential() {
        // The last leg has more workers than the frontier is ever wide:
        // most of them never get a node and must still let the search end.
        for (pings, workers) in [(2, 2), (2, 4), (1, 8)] {
            let scenario = testutil::hub_ping_scenario(pings);
            let sequential = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default().with_stop_at_first(false),
            )
            .run();
            let parallel = ModelChecker::new(
                scenario,
                CheckerConfig::default()
                    .with_stop_at_first(false)
                    .with_workers(workers),
            )
            .run();
            let label = format!("{pings} pings, {workers} workers");
            assert!(parallel.passed(), "{label}");
            assert_eq!(
                sequential.stats.unique_states, parallel.stats.unique_states,
                "{label}"
            );
            assert_eq!(
                sequential.stats.transitions, parallel.stats.transitions,
                "{label}"
            );
            assert_eq!(
                sequential.stats.terminal_states, parallel.stats.terminal_states,
                "{label}"
            );
            assert_eq!(sequential.stats.work_steals, 0, "{label}: one worker");
        }
    }

    #[test]
    fn a_one_worker_search_runs_on_the_calling_thread() {
        /// Records the thread of every event it observes.
        #[derive(Clone)]
        struct RecordsThreads(Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl Property for RecordsThreads {
            fn name(&self) -> &str {
                "RecordsThreads"
            }
            fn on_event(&mut self, _: &Event, _: &SystemState) {
                self.0.lock().unwrap().push(std::thread::current().id());
            }
            fn check(&self, _: &SystemState) -> Option<String> {
                None
            }
            fn clone_property(&self) -> Box<dyn Property> {
                Box::new(self.clone())
            }
        }
        let threads = Arc::new(Mutex::new(Vec::new()));
        let mut scenario = testutil::hub_ping_scenario(2);
        (scenario.properties).push(Box::new(RecordsThreads(Arc::clone(&threads))));
        let report = ModelChecker::new(scenario, CheckerConfig::default().with_workers(1)).run();
        assert!(report.passed(), "{report}");
        let threads = threads.lock().unwrap();
        assert!(threads.len() as u64 >= report.stats.transitions);
        let here = std::thread::current().id();
        assert!(threads.iter().all(|&id| id == here));
    }

    /// A worker over `checker` with the root queued, as a search starts
    /// its first worker.
    fn solo_worker(checker: &ModelChecker) -> Worker<'_> {
        let (root, root_fingerprint) = checker.root();
        let mut worker = Worker::new(
            checker,
            ShardSpec::solo(),
            Arc::new(ExactStore::new()),
            root,
            Arc::new(Shared::default()),
            DiscoveryMemo::default(),
        );
        worker.enqueue(root_fingerprint, Path::default(), Vec::new());
        worker
    }

    /// `n` distinguishable transitions.
    fn steps(n: u32) -> Vec<Transition> {
        (0..n)
            .map(|host| Transition::HostReceive {
                host: nice_openflow::HostId(host),
            })
            .collect()
    }

    /// [`Path::suffix`], owned.
    fn suffix(path: &Path, from: usize) -> Vec<Transition> {
        path.suffix(from).into_iter().cloned().collect()
    }

    #[test]
    fn a_path_reads_back_what_was_pushed_from_any_depth() {
        let all = steps(9);
        // Grown from the initial state, and grown from a trace received
        // whole.
        for received in [0, 4] {
            let mut path = Path::from(all[..received].to_vec());
            for step in &all[received..] {
                let longer = path.push(step.clone());
                assert_eq!(longer.len(), path.len() + 1);
                path = longer;
            }
            assert_eq!(path.len(), all.len());
            for from in 0..=all.len() {
                assert_eq!(suffix(&path, from), all[from..], "from {from}");
            }
            assert_eq!(path, Path::from(all.clone()));
            assert_ne!(path, Path::from(all[..8].to_vec()));
        }
        // Siblings share their prefix and do not see each other's step.
        let parent = Path::from(all[..2].to_vec()).push(all[2].clone());
        let (left, right) = (parent.push(all[3].clone()), parent.push(all[4].clone()));
        assert_eq!(suffix(&left, 0), all[..4]);
        assert_eq!(suffix(&right, 2), [all[2].clone(), all[4].clone()]);
        assert_eq!(suffix(&parent, 0), all[..3]);
        assert!(Path::default().suffix(0).is_empty() && Path::default().is_empty());
    }

    #[test]
    fn dropping_a_million_link_path_does_not_recurse() {
        // Test threads get the default 2 MiB stack; one frame per link
        // would need far more.
        let step = &steps(1)[0];
        let mut path = Path::default();
        for _ in 0..1_000_000 {
            path = path.push(step.clone());
        }
        assert_eq!(path.len(), 1_000_000);
        // A second owner of the older half: the loop must stop at the
        // first link somebody else still holds, and that owner frees the
        // rest later.
        let newest = path.newest.as_deref().expect("a non-empty path");
        let older = std::iter::successors(Some(newest), |link| link.parent.as_deref())
            .nth(500_000)
            .and_then(|link| link.parent.clone());
        drop(path);
        drop(older);
    }

    #[test]
    fn a_node_owns_its_state_and_its_last_child_takes_it_over() {
        // The zero-clone pop: every node `expand` queues owns its state, so
        // materializing it moves the state out. And the zero-clone last
        // child: a node's state and observers are copied for every
        // successor but the last, which takes them over.
        #[derive(Clone)]
        struct CountsClones(Arc<AtomicUsize>);
        impl Property for CountsClones {
            fn name(&self) -> &str {
                "CountsClones"
            }
            fn on_event(&mut self, _: &Event, _: &SystemState) {}
            fn check(&self, _: &SystemState) -> Option<String> {
                None
            }
            fn clone_property(&self) -> Box<dyn Property> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Box::new(self.clone())
            }
        }
        let clones = Arc::new(AtomicUsize::new(0));
        let mut scenario = testutil::hub_ping_scenario(2);
        scenario
            .properties
            .push(Box::new(CountsClones(Arc::clone(&clones))));
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let mut worker = solo_worker(&checker);
        let mut expanded = 0;
        while let Some(node) = worker.stack.pop() {
            // The root alone carries no state and is copied out of the
            // snapshot every worker of a search shares.
            assert_eq!(node.owned.is_none(), node.trace.is_empty());
            let copied_out = usize::from(node.owned.is_none());
            let (clones_before, transitions_before) =
                (clones.load(Ordering::Relaxed), worker.stats.transitions);
            assert!(worker.expand(node, None));
            let executed = (worker.stats.transitions - transitions_before) as usize;
            assert_eq!(
                clones.load(Ordering::Relaxed) - clones_before,
                copied_out + executed.saturating_sub(1),
                "{executed} successors"
            );
            expanded += 1;
        }
        assert!(expanded > 10);
    }

    #[test]
    fn a_search_rebuilt_from_the_root_at_every_node_is_the_same_search() {
        // Strip every queued node of its state, so that each is rebuilt by
        // replaying its whole trace — as a state a peer shard injected is.
        // The replay must reach the very same states in the same order, and
        // the sleep sets, which travel with the node, must prune the same.
        let scenarios = [
            (
                "forgetful ping",
                testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 2),
            ),
            ("hub ping", testutil::hub_ping_scenario(2)),
        ];
        let mut deepest = 0;
        for (name, scenario) in scenarios {
            for reduction in crate::scenario::ReductionKind::ALL {
                let label = format!("{name}, {}", reduction.name());
                let checker = ModelChecker::new(
                    scenario.clone(),
                    CheckerConfig::default()
                        .with_stop_at_first(false)
                        .with_max_transitions(100_000)
                        .with_reduction(reduction),
                );
                let mut worker = solo_worker(&checker);
                while let Some(node) = worker.stack.pop() {
                    assert!(node.owned.is_none(), "{label}");
                    assert!(worker.expand(node, None), "{label}");
                    for node in &mut worker.stack {
                        node.owned = None;
                    }
                }
                let mut replayed = CheckReport::default();
                worker.finish_into(&mut replayed);

                let owned = checker.run();
                let counters = |report: &CheckReport| {
                    let stats = &report.stats;
                    (
                        stats.transitions,
                        stats.unique_states,
                        stats.terminal_states,
                        stats.dedup_hits,
                        stats.max_depth,
                        stats.pruned_by_por,
                    )
                };
                assert!(!owned.stats.truncated, "{label}");
                assert_eq!(counters(&replayed), counters(&owned), "{label}");
                let witness = |report: &CheckReport| {
                    let first = report.first_violation();
                    first.map(|v| (v.property.clone(), v.trace.clone()))
                };
                assert_eq!(witness(&replayed), witness(&owned), "{label}");
                deepest = deepest.max(replayed.stats.max_depth);
            }
        }
        assert!(deepest > 16, "no replay went deep: {deepest}");
    }

    #[test]
    fn parallel_search_finds_the_same_violated_properties() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let sequential = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let parallel = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_workers(4),
        )
        .run();
        let properties = |report: &CheckReport| {
            let mut names: Vec<String> = report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect();
            names.sort();
            names
        };
        assert!(!sequential.violations.is_empty());
        assert!(!parallel.violations.is_empty());
        assert_eq!(properties(&sequential), properties(&parallel));
        assert_eq!(sequential.stats.unique_states, parallel.stats.unique_states);
    }

    #[test]
    fn parallel_search_respects_stop_at_first_violation() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let report = ModelChecker::new(scenario, CheckerConfig::default().with_workers(4)).run();
        assert!(!report.violations.is_empty());
        assert_eq!(
            report.first_violation().unwrap().property,
            "NoForgottenPackets"
        );
    }

    #[test]
    fn strategies_reduce_or_preserve_the_state_space() {
        let scenario = testutil::hub_ping_scenario(2);
        let full = ModelChecker::new(scenario.clone(), CheckerConfig::default()).run();
        for kind in [
            StrategyKind::NoDelay,
            StrategyKind::FlowIr,
            StrategyKind::Unusual,
        ] {
            let report = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default().with_strategy(kind),
            )
            .run();
            assert!(
                report.passed(),
                "{kind:?} found a spurious violation: {report}"
            );
            assert!(
                report.stats.transitions <= full.stats.transitions,
                "{kind:?} explored more transitions ({}) than the full search ({})",
                report.stats.transitions,
                full.stats.transitions
            );
        }
    }

    #[test]
    fn transition_budget_truncates_search() {
        let scenario = testutil::hub_ping_scenario(3);
        let report =
            ModelChecker::new(scenario, CheckerConfig::default().with_max_transitions(5)).run();
        assert!(report.stats.truncated);
        assert!(report.stats.transitions <= 5);
    }

    #[test]
    fn parallel_transition_budget_truncates_search() {
        // hub-ping:3 has 2 068 transitions. A budget of 1 500 outlasts the
        // first worker's first block of 1 024, so siblings that reserved
        // blocks of their own would leave part of it unrun.
        for (budget, workers) in [5, 1_500]
            .into_iter()
            .flat_map(|b| [(b, 1), (b, 2), (b, 4)])
        {
            let scenario = testutil::hub_ping_scenario(3);
            let report = ModelChecker::new(
                scenario,
                CheckerConfig::default()
                    .with_max_transitions(budget)
                    .with_workers(workers),
            )
            .run();
            assert!(report.stats.truncated, "{workers} workers");
            assert_eq!(report.stats.transitions, budget, "{workers} workers");
        }
    }

    #[test]
    fn a_lone_worker_publishes_its_counts_once_per_block() {
        let checker = ModelChecker::new(
            testutil::hub_ping_scenario(4),
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_max_transitions(0),
        );
        // The default cadence caps a block at `BLOCK`; a cadence of 100
        // makes blocks of 100.
        for (cadence, block) in [(crate::session::DEFAULT_PROGRESS_EVERY, BLOCK), (100, 100)] {
            let before = PUBLISHES.get();
            let report = checker.session().with_progress_every(cadence).run();
            let publishes = PUBLISHES.get() - before;
            let transitions = report.stats.transitions;
            assert!(transitions > 10 * block, "{transitions} transitions");
            // One per block, and one when the worker runs out of work.
            assert!(
                publishes <= transitions.div_ceil(block) + 2,
                "{publishes} publications of {transitions} transitions in blocks of {block}"
            );
        }
    }

    #[test]
    fn a_lone_workers_violation_stamps_do_not_depend_on_its_blocks() {
        // A cadence of one transition makes blocks of one, which publish
        // every transition: the stamps of blocks of 1024 must be the same.
        let app = testutil::DstOnlyLearningApp::default();
        let scenario = testutil::ping_scenario_with_app(Box::new(app), 2);
        let checker = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_max_transitions(0),
        );
        let stamps = |cadence: u64| -> Vec<(u64, u64)> {
            let report = checker.session().with_progress_every(cadence).run();
            (report.violations.iter())
                .map(|v| (v.transitions_explored, v.unique_states))
                .collect()
        };
        let exact = stamps(1);
        assert!(exact.len() > 1, "{exact:?}");
        assert!(exact.windows(2).all(|w| w[0] <= w[1]), "{exact:?}");
        for cadence in [0, 7, 100] {
            assert_eq!(stamps(cadence), exact, "cadence {cadence}");
        }
    }

    #[test]
    fn random_walk_mode_runs_and_reports() {
        let scenario = testutil::hub_ping_scenario(2);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run_random_walk(7, 3, 50);
        assert!(
            report.passed(),
            "hub scenario has no violations to find: {report}"
        );
        assert!(report.stats.transitions > 0);
        // Deterministic for a fixed seed.
        let again = checker.run_random_walk(7, 3, 50);
        assert_eq!(report.stats.transitions, again.stats.transitions);
        assert_eq!(report.stats.unique_states, again.stats.unique_states);
    }

    #[test]
    fn discovery_scenario_explores_symbolically() {
        let scenario = testutil::discovery_scenario(Box::new(testutil::HubApp::default()), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(report.passed(), "{report}");
        assert!(
            report.stats.symbolic_executions >= 1,
            "discover_packets must have run"
        );
        assert!(report.stats.transitions > 0);
    }

    #[test]
    fn report_display_summarises() {
        let scenario = testutil::hub_ping_scenario(1);
        let report = ModelChecker::new(scenario, CheckerConfig::default()).run();
        let text = report.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("transitions"));
    }

    #[test]
    fn panicking_property_propagates_from_parallel_search() {
        /// A user-written property that panics mid-search (users implement
        /// `Property`, so worker threads must survive arbitrary panics by
        /// winding the search down rather than deadlocking their siblings).
        #[derive(Clone)]
        struct PanickingProperty;
        impl crate::properties::Property for PanickingProperty {
            fn name(&self) -> &str {
                "Panicking"
            }
            fn on_event(&mut self, _: &crate::properties::Event, _: &SystemState) {}
            fn check(&self, _: &SystemState) -> Option<String> {
                panic!("property panicked on purpose");
            }
            fn clone_property(&self) -> Box<dyn crate::properties::Property> {
                Box::new(self.clone())
            }
        }

        let mut scenario = testutil::hub_ping_scenario(1);
        scenario.properties.push(Box::new(PanickingProperty));
        let checker = ModelChecker::new(scenario, CheckerConfig::default().with_workers(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checker.run()));
        assert!(result.is_err(), "the worker panic must propagate, not hang");
    }

    #[test]
    fn por_prunes_transitions_but_preserves_the_verdict() {
        let scenario = testutil::hub_ping_scenario(2);
        let full = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let por = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        assert_eq!(full.passed(), por.passed());
        assert!(
            por.stats.transitions < full.stats.transitions,
            "POR must prune something on the hub workload: {} vs {}",
            por.stats.transitions,
            full.stats.transitions
        );
        assert!(por.stats.pruned_by_por > 0);
        assert_eq!(full.stats.pruned_by_por, 0);
        assert_eq!(full.stats.terminal_states, por.stats.terminal_states);
    }

    #[test]
    fn por_finds_the_same_violated_properties() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 2);
        let properties = |report: &CheckReport| {
            let mut names: Vec<String> = report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let shortest = |report: &CheckReport| {
            report
                .violations
                .iter()
                .map(|v| v.trace.len())
                .min()
                .unwrap_or(0)
        };
        let full = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let por = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        assert!(!full.violations.is_empty());
        assert!(!por.violations.is_empty());
        assert_eq!(properties(&full), properties(&por));
        assert_eq!(shortest(&full), shortest(&por));
        assert!(por.stats.transitions <= full.stats.transitions);
    }

    #[test]
    fn por_parallel_agrees_with_sequential_por() {
        let scenario = testutil::hub_ping_scenario(2);
        let sequential = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        let parallel = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por)
                .with_workers(4),
        )
        .run();
        assert_eq!(sequential.passed(), parallel.passed());
        // Workers race on sleep-set narrowing, so transition counts may
        // wobble slightly, but the reduced search must stay well under the
        // unreduced space and find the same terminal coverage.
        let full = ModelChecker::new(
            testutil::hub_ping_scenario(2),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        assert!(parallel.stats.transitions <= full.stats.transitions);
        assert_eq!(
            sequential.stats.terminal_states,
            parallel.stats.terminal_states
        );
    }

    #[test]
    fn a_widened_visit_keeps_the_sleepers_the_narrowed_digests_name() {
        let checker = ModelChecker::new(
            testutil::hub_ping_scenario(1),
            CheckerConfig::default().with_reduction(crate::scenario::ReductionKind::Por),
        );
        let mut worker = solo_worker(&checker);
        let asleep = |hosts: &[u32]| -> Vec<Sleeper> {
            let receive = |&host| Transition::HostReceive {
                host: nice_openflow::HostId(host),
            };
            hosts.iter().map(receive).map(Sleeper::new).collect()
        };
        let hosts = |sleep: &[Sleeper]| -> Vec<Transition> {
            sleep.iter().map(|s| s.transition().clone()).collect()
        };
        for sleeper in asleep(&[1, 2, 3]) {
            assert_eq!(sleeper.digest(), sleeper.transition().digest());
        }
        let (fingerprint, unique) = (0xfeed, worker.stats.unique_states);

        // First seen under {5, 1, 3}: stored, and expanded as it came.
        let (kept, revisit) = worker.visit(fingerprint, asleep(&[5, 1, 3])).expect("new");
        assert_eq!((hosts(&kept), revisit), (hosts(&asleep(&[5, 1, 3])), false));
        // Then under {3, 4, 5, 3}: neither set covers the other, so the
        // state is re-opened under the intersection — exactly the entries
        // whose digests the store named, in the order they came in.
        let (kept, revisit) = (worker.visit(fingerprint, asleep(&[3, 4, 5, 3]))).expect("widened");
        assert_eq!((hosts(&kept), revisit), (hosts(&asleep(&[3, 5, 3])), true));
        // {3, 5} is what is stored now: a superset is covered, and a
        // disjoint set narrows it to nothing.
        assert!(worker.visit(fingerprint, asleep(&[5, 2, 3])).is_none());
        let (kept, revisit) = worker.visit(fingerprint, asleep(&[1])).expect("widened");
        assert!(kept.is_empty() && revisit);
        assert!(worker.visit(fingerprint, Vec::new()).is_none());
        assert_eq!(worker.stats.unique_states, unique + 1);
        assert_eq!(worker.stats.dedup_hits, 2);
    }

    #[test]
    fn a_por_search_digests_a_transition_once_when_it_is_first_put_to_sleep() {
        let checker = ModelChecker::new(
            testutil::hub_ping_scenario(2),
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        );
        let mut worker = solo_worker(&checker);
        let before = crate::por::DIGESTS.get();
        let (mut slept, mut inherited) = (0, 0);
        while let Some(node) = worker.stack.pop() {
            slept += usize::from(!node.sleep.is_empty());
            inherited += node.sleep.len() as u64;
            assert!(worker.expand(node, None));
        }
        let digests = crate::por::DIGESTS.get() - before;
        // Not one per enabled transition and per visit: a sleeper is made
        // of a transition the node executes, at most once per execution,
        // however many children and grandchildren inherit it.
        assert!(slept > 50, "{slept} nodes slept anything");
        assert!(digests > 0 && digests <= worker.stats.transitions);
        assert!(
            digests < inherited,
            "{digests} digests, {inherited} inherited"
        );
        assert!(worker.stats.pruned_by_por > 0);
    }

    #[test]
    fn strategy_prune_counter_reports_filtered_transitions() {
        let scenario = testutil::hub_ping_scenario(2);
        let unusual = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_strategy(StrategyKind::Unusual),
        )
        .run();
        assert!(
            unusual.stats.pruned_by_strategy > 0,
            "UNUSUAL must filter some process_of deliveries"
        );
    }

    #[test]
    fn report_display_includes_prune_counters() {
        let scenario = testutil::hub_ping_scenario(1);
        let report = ModelChecker::new(
            scenario,
            CheckerConfig::default().with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        let text = report.to_string();
        assert!(text.contains("pruned by POR"));
        assert!(text.contains("pruned by strategy"));
        assert!(text.contains("dedup hits"));
    }
}

#[cfg(test)]
thread_local! {
    /// `Worker::publish` calls that reached [`Shared`] on this thread: a
    /// lone worker is held to one per block of transitions.
    static PUBLISHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_publish() {
    PUBLISHES.with(|calls| calls.set(calls.get() + 1));
}
