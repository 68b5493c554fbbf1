//! The state-space search loop (Figure 5), violation traces and search
//! statistics, plus a random-walk simulation mode.
//!
//! # Search engines
//!
//! Every engine runs the same `Worker::expand` — one definition of
//! "expand a frontier node" — over the same in-place `Stepper::advance`;
//! [`ModelChecker::run`] only picks the driver, on
//! [`CheckerConfig::workers`]:
//!
//! * `workers == 1` (default) — the canonical sequential depth-first search:
//!   one worker popping its own stack. Fully deterministic: a fixed scenario
//!   and configuration always yield the same transition count, unique-state
//!   count and violation traces.
//! * `workers > 1` — a parallel search: one worker per thread, each
//!   expanding depth-first from a private stack and handing nodes to a
//!   shared mutex-protected queue only when a sibling is starving. The
//!   workers deduplicate states through one shared [`ExploredStore`], so
//!   each unique state is expanded exactly once across all of them. With no
//!   truncating budget the parallel search visits the same state space as
//!   the sequential one (identical `unique_states` and `transitions`, same
//!   set of violated properties), but the *order* of exploration — and
//!   therefore which trace first reaches a violating state, and where a
//!   `max_transitions` budget cuts off — is scheduling dependent.
//!
//! # Frontier storage
//!
//! Every frontier node keeps its transition trace (it doubles as the
//! violation trace) as a `Path`: its own step plus a shared pointer to its
//! parent's, so a new node costs one small allocation at any depth — an
//! export to a peer shard too, which travels as what it adds to the export
//! before it — and the trace is copied out only for a violation.
//!
//! A node also owns its state and property observers: `Worker::expand`
//! moves each successor's into its node and `Worker::materialize` moves
//! them out again. Since [`SystemState`] is copy-on-write, what a node owns
//! shares everything its transition did not write with its parent and
//! siblings. Two kinds of node carry no state, because none exists where
//! they are created: the root, and the states a peer shard exports (a wire
//! carries traces, not states). Those are rebuilt by re-executing their
//! trace — the state restoration of the paper's Section 6 — from the
//! initial state or from the deepest of the few snapshots the previous such
//! replay left along the same path (`Worker::replay_from_root`).
//!
//! Expanding a node copies its state and property observers for every
//! successor but the last, which takes them over: a node with one successor
//! (most nodes of a deep search) copies nothing. Each successor's
//! fingerprint is read off the accumulator its state carries (see
//! [`crate::state`]), not recomputed.
//!
//! The explored set stores only 64-bit state fingerprints (Section 6 of the
//! paper), behind the tiered [`ExploredStore`] abstraction of
//! [`crate::explored`]: exact packed in-memory tables by default, an exact
//! disk-spilling tier for runs past RAM, or lossy bitstate hashing —
//! selected by [`CheckerConfig::explored`]. Under partial-order reduction
//! ([`CheckerConfig::reduction`](crate::scenario::CheckerConfig)) each
//! fingerprint additionally remembers the sleep set it was explored with —
//! see `crate::explored::FingerprintMap` for why that keeps sleep sets
//! sound under state matching.

use crate::explored::{build_store, visit_explored, ExploredStore, FingerprintMap, Visit};
use crate::json::Json;
use crate::properties::{Event, Property};
use crate::scenario::{CheckerConfig, Scenario};
use crate::session::{Outcome, SessionCtrl};
use crate::shard::{FrontierExport, ShardSpec};
use crate::state::SystemState;
use crate::strategy::{build_reduction, build_strategy, Reduction, SearchStrategy, Sleeper};
use crate::trace::{Trace, TraceEngine};
use crate::transition::{
    drain_control_plane, enabled_transitions, execute, DiscoveryMemo, SharedDiscoveryCache,
    Transition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    /// Controller failovers to the standby runtime.
    pub failovers: u64,
    /// Byzantine mutations of in-flight OpenFlow messages.
    pub mutations: u64,
}

impl FaultStats {
    /// Number of distinct fault kinds tracked.
    pub const KINDS: usize = 8;

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
            failovers: counts[6],
            mutations: counts[7],
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
            ("failovers", self.failovers),
            ("mutations", self.mutations),
        ]
    }

    /// The counters as a JSON object keyed by their stable names: the
    /// `"faults"` of a wire stats object, the `"injected_faults"` of
    /// `nice run --json`.
    pub fn to_json(&self) -> Json<'_> {
        Json::object(self.labeled().map(|(name, count)| (name, count.into())))
    }

    /// Reads what [`to_json`](Self::to_json) writes.
    pub fn from_json(value: &Json) -> Result<Self, String> {
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
            6 => self.failovers += 1,
            7 => self.mutations += 1,
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
    /// Frontier nodes busy workers handed to the parallel search's shared
    /// queue for a starving sibling to pick up (zero on a single worker).
    pub work_steals: u64,
    /// High-water mark of the explored set's in-memory footprint, in bytes.
    pub peak_explored_bytes: u64,
    /// Cold explored-set shards spilled to disk (tiered mode only).
    pub spilled_shards: u64,
    /// Disk probes avoided because a spilled segment's bloom filter proved
    /// the fingerprint absent (tiered mode only).
    pub filter_hits: u64,
    /// Binary searches actually performed against spilled segments (tiered
    /// mode only).
    pub disk_probes: u64,
    /// Wall-clock duration of the search.
    pub duration: Duration,
}

impl SearchStats {
    /// Folds the counters of another worker or shard of the same search
    /// into these: counts add up (explored-set counters too — shards own
    /// disjoint stores), `max_depth` takes the deeper, `truncated` ORs.
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
        self.work_steals += other.work_steals;
        self.peak_explored_bytes += other.peak_explored_bytes;
        self.spilled_shards += other.spilled_shards;
        self.filter_hits += other.filter_hits;
        self.disk_probes += other.disk_probes;
    }

    /// The stats object of the `nice-dist-v2` `job_done` frame.
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
            ("spilled_shards", self.spilled_shards.into()),
            ("filter_hits", self.filter_hits.into()),
            ("disk_probes", self.disk_probes.into()),
            ("max_depth", self.max_depth.into()),
            ("truncated", self.truncated.into()),
            ("duration_ms", (self.duration.as_millis() as u64).into()),
            ("faults", self.faults.to_json()),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes.
    pub fn from_json(value: &Json) -> Result<Self, String> {
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
            spilled_shards: value.u64("spilled_shards")?,
            filter_hits: value.u64("filter_hits")?,
            disk_probes: value.u64("disk_probes")?,
            faults: FaultStats::from_json(value.get("faults")?)?,
            max_depth: value.u64("max_depth")? as usize,
            truncated: value.bool("truncated")?,
            duration: Duration::from_millis(value.u64("duration_ms")?),
        })
    }

    /// Sets the explored-set counters from the search's store.
    pub(crate) fn absorb_explored(&mut self, stats: crate::explored::ExploredStats) {
        self.peak_explored_bytes = stats.peak_bytes;
        self.spilled_shards = stats.spilled_shards;
        self.filter_hits = stats.filter_hits;
        self.disk_probes = stats.disk_probes;
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
    /// True if the explored set was lossy (bitstate hashing): states may
    /// have been *missed*, so a PASS is not exhaustive. Violations are
    /// never invented — every reported trace really executed — but
    /// `--expect pass` semantics are weaker, which is why the flag rides
    /// on the report itself.
    pub lossy: bool,
}

impl CheckReport {
    /// True if no property was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Imposes the stable violation order racing engines (the parallel
    /// search's worker threads, the distributed coordinator's shards) need:
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
        writeln!(
            f,
            "{} | outcome: {} | transitions: {} | unique states: {} | terminal states: {} | time: {:.2?}",
            if self.passed() { "PASS" } else { "FAIL" },
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
        if self.stats.spilled_shards > 0 || self.stats.disk_probes > 0 || self.stats.filter_hits > 0
        {
            writeln!(
                f,
                "  spilled shards: {} | filter hits: {} | disk probes: {}",
                self.stats.spilled_shards, self.stats.filter_hits, self.stats.disk_probes
            )?;
        }
        if self.lossy {
            writeln!(
                f,
                "  lossy: bitstate hashing may have missed states (PASS is not exhaustive)"
            )?;
        }
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
/// test, the semantics-relevant configuration, the strategy, the symbolic
/// discovery memo and a reusable event buffer. The search, the random
/// walker and the [`Replayer`](crate::replay) all step through this, so
/// there is one definition of what executing a transition means.
pub(crate) struct Stepper<'a> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) config: CheckerConfig,
    strategy: Box<dyn SearchStrategy>,
    pub(crate) memo: DiscoveryMemo,
    /// The events emitted by the most recent [`Stepper::advance`].
    pub(crate) events: Vec<Event>,
}

impl<'a> Stepper<'a> {
    pub(crate) fn new(scenario: &'a Scenario, config: CheckerConfig, memo: DiscoveryMemo) -> Self {
        Stepper {
            scenario,
            strategy: build_strategy(config.strategy),
            config,
            memo,
            events: Vec::new(),
        }
    }

    /// The transitions the strategy wants explored from `state`, plus how
    /// many enabled ones it filtered out.
    pub(crate) fn selected(&self, state: &SystemState) -> (Vec<Transition>, u64) {
        let enabled = enabled_transitions(state, self.scenario, &self.config);
        let enabled_count = enabled.len();
        let selected = self.strategy.select(state, enabled);
        let filtered = (enabled_count - selected.len()) as u64;
        (selected, filtered)
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
        if self.strategy.lock_step_control_plane() {
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
/// allocation whatever its depth. An exported state's path keeps that
/// sharing on its way to the owning shard: the wire writes only the links a
/// state does not share with the one before it, and the reader rebuilds it
/// on that one's links ([`crate::shard::exports_to_json`]). A path is laid
/// out in order ([`Path::suffix`]) only where it is read: a violation's
/// witness, the wire, a replay.
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
        Path::default().extended(steps)
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

    /// This path plus `steps`, in order.
    pub(crate) fn extended(&self, steps: Vec<Transition>) -> Path {
        (steps.into_iter()).fold(self.clone(), |path, step| path.push(step))
    }

    /// The first `len` transitions of this path (at most all of them), on
    /// the same links.
    pub(crate) fn prefix(&self, len: usize) -> Path {
        Path {
            newest: self.links().nth(self.len - len).cloned(),
            len,
        }
    }

    /// How many leading transitions this path and `other` have in common.
    /// From the first link the two share down to the root they are one
    /// path, so only the links past it are walked and only their steps
    /// compared: paths that grew from one node cost what they differ in.
    pub(crate) fn shared_with(&self, other: &Path) -> usize {
        let depth = self.len.min(other.len);
        let ours = self.links().skip(self.len - depth);
        let theirs = other.links().skip(other.len - depth);
        // Walking down from `depth`: the links seen before the first common
        // one, and how many of them, counted from the last difference on,
        // hold equal steps — those sit directly on the common part.
        let (mut apart, mut equal) = (0, 0);
        for (ours, theirs) in ours.zip(theirs) {
            if Arc::ptr_eq(ours, theirs) {
                break;
            }
            apart += 1;
            equal = if ours.step == theirs.step {
                equal + 1
            } else {
                0
            };
        }
        depth - apart + equal
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

/// What is genuinely global to one search: the stop flag every worker
/// polls, and the running totals the transition budget, the progress
/// heartbeat and the violation stamps read. Everything else a worker counts
/// is worker-local and summed at the end ([`SearchStats::merge`]).
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    transitions: AtomicU64,
    unique_states: AtomicU64,
}

impl Shared {
    /// Claims one unit of the transition budget (`0` = unlimited).
    fn take_transition(&self, max_transitions: u64) -> bool {
        if max_transitions == 0 {
            self.transitions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.transitions
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max_transitions).then_some(n + 1)
            })
            .is_ok()
    }
}

/// Steps between the snapshots a replay from the root leaves behind
/// (`Worker::replay_from_root`). A snapshot is not free — the copy, and the
/// components the replay has to un-share again after it, cost several
/// replayed steps — and saves half the spacing per later replay on average:
/// `serve_roundtrip` read a verdict in 0.088 s at 4, 0.084 s at 8, 0.087 s
/// at 16 and 0.109 s with none.
const RUNG_SPACING: usize = 8;

/// Slots of a [`SentFilter`]; a power of two. Of the 5 396 exports two
/// unfiltered shards of `chain:5:2` make (at most 3 500 distinct
/// fingerprints a shard), 2^14 slots send 4 622, 2^16 send 4 613 and 2^18
/// send 4 612, at the same time to a verdict.
const SENT_SLOTS: usize = 1 << 14;

/// The sender-side filter of a shard: the fingerprints it most recently
/// exported *with an empty sleep set*, direct-mapped on their low bits. The
/// owner of such a state has stored ∅ for it by the time any later export of
/// the same fingerprint arrives (pipes are FIFO), so it would answer
/// `Visit::Known` whatever sleep set the later one carries: the sender counts
/// that deduplication hit itself and sends nothing. A collision overwrites
/// the slot, and the evicted fingerprint is merely forwarded once more.
struct SentFilter(Box<[u64]>);

impl SentFilter {
    fn new() -> Self {
        // A fingerprint can only ever sit in the slot its low bits name, so
        // a slot holding the complement of its own index holds none — an
        // all-zero table would read as "fingerprint 0 was sent".
        SentFilter((0..SENT_SLOTS as u64).map(|slot| !slot).collect())
    }

    /// True if an export of `fingerprint` would tell its owner nothing;
    /// otherwise the export is about to be sent, and is remembered if its
    /// sleep set is empty.
    fn covers(&mut self, fingerprint: u64, sleep_is_empty: bool) -> bool {
        let slot = &mut self.0[fingerprint as usize & (SENT_SLOTS - 1)];
        let covered = *slot == fingerprint;
        if sleep_is_empty {
            *slot = fingerprint;
        }
        covered
    }
}

/// One worker of a search: its local frontier stack, its share of the
/// results, and handles on what the search shares. The sequential engine is
/// a single worker; the parallel engine runs one per thread over one
/// explored store; a `nice-dist` shard is a single worker that owns only
/// part of the fingerprint space and exports the rest.
pub(crate) struct Worker<'a> {
    pub(crate) stepper: Stepper<'a>,
    reduction: Box<dyn Reduction>,
    /// The sleep sets of the successors of the node being expanded, as the
    /// reduction left them; kept for its capacity.
    child_sleeps: Vec<Vec<Sleeper>>,
    /// The sorted digests of the sleep set being visited; kept for its
    /// capacity.
    sleep_digests: Vec<u64>,
    pub(crate) shard: ShardSpec,
    store: Arc<dyn ExploredStore>,
    root: Arc<Snapshot>,
    /// The path last replayed from the root, and the snapshots kept along
    /// it as `(depth, snapshot)`, shallowest first
    /// (`Worker::replay_from_root`).
    replayed: Path,
    rungs: Vec<(usize, Arc<Snapshot>)>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) stats: SearchStats,
    pub(crate) violations: Vec<Violation>,
    /// Frontier nodes waiting locally, expanded depth-first.
    pub(crate) stack: Vec<Node>,
    /// Successors owned by other shards, awaiting export.
    pub(crate) forwards: Vec<FrontierExport>,
    /// What this shard already exported; allocated with the first foreign
    /// successor, so a search that owns every fingerprint never pays.
    sent: Option<SentFilter>,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(
        checker: &'a ModelChecker,
        shard: ShardSpec,
        store: Arc<dyn ExploredStore>,
        root: Arc<Snapshot>,
        shared: Arc<Shared>,
        memo: DiscoveryMemo,
    ) -> Self {
        Worker {
            stepper: Stepper::new(&checker.scenario, checker.config.clone(), memo),
            reduction: build_reduction(checker.config.reduction, &checker.scenario),
            child_sleeps: Vec::new(),
            sleep_digests: Vec::new(),
            shard,
            store,
            root,
            replayed: Path::default(),
            rungs: Vec::new(),
            shared,
            stats: SearchStats::default(),
            violations: Vec::new(),
            stack: Vec::new(),
            forwards: Vec::new(),
            sent: None,
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

    /// The state and property state `trace` leads to, by re-executing it —
    /// the memory-saving state restoration of Section 6, here for the nodes
    /// that arrive without a state. Replays do not count as explored
    /// transitions, and settle nothing on the way: that would digest
    /// components the next replayed step is about to write again.
    ///
    /// A replay leaves a snapshot every [`RUNG_SPACING`] steps, and the
    /// next one starts from the deepest of them still on its own path:
    /// injected states come off the stack in depth-first order, each
    /// sharing all but its last few steps with the one before it, so a
    /// replay is those few steps plus the way up from the rung below them.
    fn replay_from_root(&mut self, trace: &Path) -> Snapshot {
        let (mut start, mut start_depth) = (&self.root, 0);
        if !trace.is_empty() {
            let shared = trace.shared_with(&self.replayed);
            let on_path = self.rungs.partition_point(|(depth, _)| *depth <= shared);
            self.rungs.truncate(on_path);
            if let Some((depth, rung)) = self.rungs.last() {
                (start, start_depth) = (rung, *depth);
            }
            self.replayed = trace.clone();
        }
        let mut snapshot = Snapshot::clone(start);
        for (depth, transition) in (start_depth + 1..).zip(trace.suffix(start_depth)) {
            self.stepper
                .advance(&mut snapshot.state, &mut snapshot.properties, transition);
            if depth.is_multiple_of(RUNG_SPACING) && depth < trace.len() {
                self.rungs.push((depth, Arc::new(snapshot.clone())));
            }
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
                self.shared.unique_states.fetch_add(1, Ordering::Relaxed);
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
            self.shared.transitions.load(Ordering::Relaxed),
            self.shared.unique_states.load(Ordering::Relaxed),
        );
        if let Some(ctrl) = ctrl {
            ctrl.notify_violation(&violation);
        }
        self.violations.push(violation);
    }

    /// Raises the search-wide stop flag; `expand`'s "wind down" return.
    fn stop(&self) -> bool {
        self.shared.stop.store(true, Ordering::Relaxed);
        false
    }

    /// Expands one frontier node — the single definition of the search
    /// loop's body (Figure 5), which the sequential engine, every parallel
    /// worker and every `nice-dist` shard run: rebuild the node's state,
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
            max_transitions,
            max_depth,
            stop_at_first_violation,
            ..
        } = self.stepper.config;
        self.stats.max_depth = self.stats.max_depth.max(node.trace.len());

        let revisit = node.revisit;
        let (Snapshot { state, properties }, trace, sleep) = self.materialize(node);

        let (mut explore, filtered) = self.stepper.selected(&state);
        self.stats.pruned_by_strategy += filtered;

        if explore.is_empty() {
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
            return true;
        }

        let scenario = self.stepper.scenario;
        let mut child_sleeps = std::mem::take(&mut self.child_sleeps);
        self.stats.pruned_by_por +=
            (self.reduction).reduce(&state, scenario, &sleep, &mut explore, &mut child_sleeps);

        // The node's last successor takes the node's state and property
        // observers over instead of copying them.
        let last = explore.len().saturating_sub(1);
        let mut parent = Some((state, properties));
        for (index, transition) in explore.into_iter().enumerate() {
            if self.shared.stop.load(Ordering::Relaxed) {
                return false;
            }
            if !self.shared.take_transition(max_transitions) {
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
            if let Some(ctrl) = ctrl {
                ctrl.maybe_progress(
                    self.shared.transitions.load(Ordering::Relaxed),
                    self.shared.unique_states.load(Ordering::Relaxed),
                    trace.len() + 1,
                    self.store.bytes(),
                );
            }

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
                // a solo search's exactly — unless the owner's answer is
                // already known here (see `SentFilter`).
                let sent = self.sent.get_or_insert_with(SentFilter::new);
                if sent.covers(fingerprint, child_sleep.is_empty()) {
                    self.stats.dedup_hits += 1;
                    continue;
                }
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
        // down has no use for it).
        child_sleeps.clear();
        self.child_sleeps = child_sleeps;
        true
    }

    /// Folds this worker's results into the search's report.
    pub(crate) fn finish_into(self, report: &mut CheckReport) {
        report.stats.merge(&self.stats);
        report.stats.symbolic_executions += self.stepper.memo.symbolic_executions;
        report.stats.absorb_explored(self.store.stats());
        report.lossy = self.store.lossy();
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

    /// Runs the search and returns the report. Dispatches to the sequential
    /// or parallel engine based on [`CheckerConfig::workers`] (see the module
    /// docs for the semantics of each).
    ///
    /// A thin wrapper over [`ModelChecker::session`] with a no-op observer,
    /// no cancel token and no deadline — bit-identical to a session-driven
    /// run (pinned by the `session_api` integration tests).
    pub fn run(&self) -> CheckReport {
        self.session().run()
    }

    /// Dispatches to the right engine under a session's control handles.
    pub(crate) fn run_with_ctrl(&self, ctrl: &SessionCtrl) -> CheckReport {
        if self.config.workers > 1 {
            self.run_parallel(ctrl)
        } else {
            self.run_sequential(ctrl)
        }
    }

    /// The search's root: the initial state (with the scenario's fresh
    /// property observers) and its fingerprint.
    pub(crate) fn root(&self) -> (Arc<Snapshot>, u64) {
        let root = Snapshot::initial(&self.scenario);
        let fingerprint = root.state.fingerprint();
        (Arc::new(root), fingerprint)
    }

    /// The canonical sequential depth-first search: a solo-shard
    /// [`ShardedSearch`](crate::shard::ShardedSearch) driven to completion,
    /// so a 1-shard distributed run is bit-identical to this by
    /// construction.
    fn run_sequential(&self, ctrl: &SessionCtrl) -> CheckReport {
        let mut search = crate::shard::ShardedSearch::new(self, ShardSpec::solo());
        while search.step_ctrl(Some(ctrl)) == crate::shard::StepOutcome::Expanded {}
        search.finish()
    }

    /// The parallel search: one [`Worker`] per thread over one shared
    /// explored store, exchanging frontier nodes through a
    /// [`DonationQueue`].
    fn run_parallel(&self, ctrl: &SessionCtrl) -> CheckReport {
        let start = Instant::now();
        let (root, root_fingerprint) = self.root();
        let store: Arc<dyn ExploredStore> = Arc::from(build_store(&self.config.explored));
        let shared = Arc::new(Shared::default());
        let discoveries = Arc::new(SharedDiscoveryCache::default());
        let mut workers: Vec<Worker> = (0..self.config.workers)
            .map(|_| {
                Worker::new(
                    self,
                    ShardSpec::solo(),
                    Arc::clone(&store),
                    Arc::clone(&root),
                    Arc::clone(&shared),
                    DiscoveryMemo::with_shared(Arc::clone(&discoveries)),
                )
            })
            .collect();
        // The first worker starts from the root; its siblings start idle
        // and are fed through the queue as soon as the frontier widens.
        workers[0].enqueue(root_fingerprint, Path::default(), Vec::new());

        let queue = DonationQueue::new(workers.len());
        let workers: Vec<Worker> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    let queue = &queue;
                    scope.spawn(move || parallel_worker(worker, queue, ctrl))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        let mut report = CheckReport::default();
        for worker in workers {
            worker.finish_into(&mut report);
        }
        // Workers race, so impose a stable order; `first_violation` then
        // means "a shortest witness".
        report.sort_violations();
        report.stats.duration = start.elapsed();
        report
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
        let mut rng = StdRng::seed_from_u64(seed);
        let mut report = CheckReport::default();
        let mut seen = FingerprintMap::default();

        'walks: for _ in 0..walks {
            let Snapshot {
                mut state,
                mut properties,
            } = Snapshot::initial(&self.scenario);
            let mut trace: Vec<Transition> = Vec::new();
            visit_explored(&mut seen, state.fingerprint(), &[]);

            for _ in 0..max_steps {
                let (enabled, _) = stepper.selected(&state);
                let stats = &mut report.stats;
                let found = if enabled.is_empty() {
                    stats.terminal_states += 1;
                    violated_at_end(&properties, &state)
                } else {
                    let transition = &enabled[rng.gen_range(0..enabled.len())];
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

// ---------------------------------------------------------------------------
// The parallel driver
// ---------------------------------------------------------------------------

/// One thread of the parallel search: pops nodes, expands them, and
/// terminates when every worker is idle on an empty queue (or a stop
/// condition fired). Each worker keeps its private stack and only hands
/// work to the shared queue when a sibling is starving, so the common case
/// pays no synchronisation beyond the explored store and the shared totals.
fn parallel_worker<'a>(
    mut worker: Worker<'a>,
    queue: &DonationQueue,
    ctrl: &SessionCtrl,
) -> Worker<'a> {
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

/// The parallel scheduler: one mutex-protected LIFO frontier that busy
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
        assert!(!report.passed());
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

    /// A worker over `checker` with the root queued, as the sequential
    /// engine starts.
    fn solo_worker(checker: &ModelChecker) -> Worker<'_> {
        let (root, root_fingerprint) = checker.root();
        let mut worker = Worker::new(
            checker,
            ShardSpec::solo(),
            Arc::from(build_store(&checker.config.explored)),
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
                assert_eq!(suffix(&path.prefix(from), 0), all[..from], "first {from}");
            }
            assert_eq!(path, Path::from(all.clone()));
            assert_ne!(path, path.prefix(8));
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
    fn paths_share_what_they_took_together_and_what_reads_the_same() {
        let all = steps(9);
        let trunk = Path::from(all[..5].to_vec());
        let (left, right) = (trunk.push(all[5].clone()), trunk.push(all[6].clone()));
        let deeper = right.push(all[7].clone());
        // On common links: up to where they forked, whichever is longer.
        for (a, b, shared) in [
            (&left, &right, 5),
            (&left, &deeper, 5),
            (&deeper, &right, 6),
            (&deeper, &deeper, 7),
            (&trunk, &deeper, 5),
            (&left, &Path::default(), 0),
        ] {
            assert_eq!(a.shared_with(b), shared);
            assert_eq!(b.shared_with(a), shared);
        }
        // On links of their own, as two frames deliver them: by their steps.
        let apart = Path::from(all[..6].to_vec());
        assert_eq!(apart.shared_with(&left), 6);
        assert_eq!(apart.shared_with(&right), 5);
        assert_eq!(Path::from(all[1..].to_vec()).shared_with(&left), 0);
        // Grafted half-way: common links below, equal steps above, then a
        // different step.
        let grafted =
            (trunk.prefix(3)).extended(vec![all[3].clone(), all[4].clone(), all[8].clone()]);
        assert_eq!(grafted.shared_with(&left), 5);
        assert_eq!(grafted.prefix(4).shared_with(&deeper), 4);
    }

    #[test]
    fn the_sent_filter_remembers_only_empty_sleep_exports_and_nothing_at_first() {
        let mut sent = SentFilter::new();
        // Nothing was sent yet — not even the fingerprint an all-zero table
        // would claim, nor the ones the slots start out holding.
        assert!(!sent.covers(0, true));
        assert!(sent.covers(0, true));
        for slot in [1, 7, SENT_SLOTS as u64 - 1] {
            assert!(!sent.covers(!slot, false), "slot {slot}'s initial value");
        }
        // An export under a non-empty sleep set is never recorded: the
        // owner may have to widen it, so the next one must travel too.
        assert!(!sent.covers(42, false));
        assert!(!sent.covers(42, false));
        assert!(!sent.covers(42, true));
        // Once recorded, later exports are covered whatever their sleep set.
        assert!(sent.covers(42, false) && sent.covers(42, true));
        // A fingerprint mapping to the same slot evicts, and the evicted
        // one is forwarded (and recorded) again.
        let collides = 42 + SENT_SLOTS as u64;
        assert!(!sent.covers(collides, true));
        assert!(sent.covers(collides, true));
        assert!(!sent.covers(42, true));
        assert!(sent.covers(42, true) && !sent.covers(collides, false));
    }

    #[test]
    fn a_filter_hit_counts_the_dedup_hit_and_sends_nothing() {
        let checker = ModelChecker::new(
            testutil::hub_ping_scenario(2),
            CheckerConfig::default().with_stop_at_first(false),
        );
        let (root, _) = checker.root();
        let root_node = || Node {
            owned: None,
            trace: Path::default(),
            sleep: Vec::new(),
            revisit: true,
        };
        // A shard that owns none of the root's successors, so that every
        // one of them takes the export arm.
        let mut worker = (0..=255)
            .map(|index| {
                let mut worker = Worker::new(
                    &checker,
                    ShardSpec { index, count: 256 },
                    Arc::from(build_store(&checker.config.explored)),
                    Arc::clone(&root),
                    Arc::new(Shared::default()),
                    DiscoveryMemo::default(),
                );
                assert!(
                    worker.sent.is_none(),
                    "allocated before a foreign successor"
                );
                assert!(worker.expand(root_node(), None));
                worker
            })
            .find(|worker| worker.stack.is_empty())
            .expect("256 shards, a handful of successors");
        let (successors, exported) = (worker.stats.transitions, worker.forwards.len() as u64);
        assert!(exported > 0 && worker.sent.is_some());
        assert_eq!(exported + worker.stats.dedup_hits, successors);
        // The same successors again: all of them were sent before.
        assert!(worker.expand(root_node(), None));
        assert_eq!(worker.forwards.len() as u64, exported);
        assert_eq!(worker.stats.transitions, 2 * successors);
        assert_eq!(worker.stats.dedup_hits, 2 * successors - exported);
    }

    #[test]
    fn a_replay_from_the_root_starts_at_the_deepest_rung_still_on_its_path() {
        let checker = ModelChecker::new(
            testutil::hub_ping_scenario(2),
            CheckerConfig::default().with_stop_at_first(false),
        );
        // The deepest path of the search, and the deepest one that leaves
        // it before the first rung — as a peer shard would send them.
        let mut scout = solo_worker(&checker);
        let mut paths: Vec<Vec<Transition>> = Vec::new();
        while let Some(node) = scout.stack.pop() {
            paths.push(node.trace.suffix(0).into_iter().cloned().collect());
            assert!(scout.expand(node, None));
        }
        paths.sort_by_key(|path| std::cmp::Reverse(path.len()));
        let deepest = paths[0].clone();
        let leaves_early = |path: &&Vec<Transition>| {
            let shared = path
                .iter()
                .zip(&deepest)
                .take_while(|(a, b)| a == b)
                .count();
            shared < RUNG_SPACING.min(path.len())
        };
        let elsewhere = paths.iter().find(leaves_early).expect("a fork").clone();
        let (below, on, above) = (2 * RUNG_SPACING - 1, 2 * RUNG_SPACING, 2 * RUNG_SPACING + 1);
        assert!(
            deepest.len() > above + RUNG_SPACING,
            "depth {}",
            deepest.len()
        );
        assert!(elsewhere.len() > RUNG_SPACING, "depth {}", elsewhere.len());

        let mut worker = solo_worker(&checker);
        let root_node = |trace: Path| Node {
            owned: None,
            trace,
            sleep: Vec::new(),
            revisit: false,
        };
        // Replays `trace` and holds the result to a replay by the book;
        // afterwards the rungs are the multiples of the spacing below
        // `rungs_below`, the first `reused` of them the very snapshots the
        // replay before left.
        let mut check = |trace: Path, rungs_below: usize, reused: usize| {
            let label = format!("depth {}", trace.len());
            let before: Vec<Arc<Snapshot>> =
                (worker.rungs.iter().map(|(_, rung)| Arc::clone(rung))).collect();
            let (Snapshot { state, .. }, _, _) = worker.materialize(root_node(trace.clone()));
            let mut replayer =
                crate::replay::Replayer::new(&checker, &crate::trace::TraceEngine::default());
            for transition in trace.suffix(0) {
                replayer.step_unchecked(transition);
            }
            assert_eq!(state.fingerprint(), replayer.fingerprint(), "{label}");
            let depths: Vec<usize> = worker.rungs.iter().map(|(depth, _)| *depth).collect();
            let multiples = (1..).map(|i| i * RUNG_SPACING);
            let expected: Vec<usize> = multiples.take_while(|d| *d < rungs_below).collect();
            assert_eq!(depths, expected, "{label}");
            for (i, (_, rung)) in worker.rungs.iter().enumerate() {
                let kept = before
                    .get(i)
                    .is_some_and(|before| Arc::ptr_eq(before, rung));
                assert_eq!(kept, i < reused, "{label}: rung {i}");
            }
        };
        let whole = Path::from(deepest.clone());
        check(whole.clone(), deepest.len(), 0);
        // Siblings on the same links, ending around a rung: the rungs at or
        // below what a path shares with the one before it are reused, the
        // one it ends on included.
        check(whole.prefix(above), above, 2);
        check(whole.prefix(on), above, 2);
        check(whole.prefix(below), below, 1);
        check(whole.prefix(above), above, 1);
        // Across a frame boundary the same steps arrive on links of their
        // own, and the rungs serve them all the same.
        check(Path::from(deepest[..above].to_vec()), above, 2);
        check(Path::from(deepest.clone()), deepest.len(), 2);
        // A path that shares nothing with the last one starts over.
        check(Path::from(elsewhere.clone()), elsewhere.len(), 0);
        // The initial state replays nothing and disturbs nothing.
        let (Snapshot { state, .. }, _, _) = worker.materialize(root_node(Path::default()));
        assert_eq!(state.fingerprint(), checker.root().1);
        assert_eq!(worker.rungs.len(), (elsewhere.len() - 1) / RUNG_SPACING);
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
        let scenario = testutil::hub_ping_scenario(2)
            .with_property(Box::new(CountsClones(Arc::clone(&clones))));
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
        // replay through the rungs — as a state a peer shard injected is.
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
        assert!(deepest > 2 * RUNG_SPACING, "no replay used a rung");
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
        assert!(!sequential.passed());
        assert!(!parallel.passed());
        assert_eq!(properties(&sequential), properties(&parallel));
        assert_eq!(sequential.stats.unique_states, parallel.stats.unique_states);
    }

    #[test]
    fn parallel_search_respects_stop_at_first_violation() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let report = ModelChecker::new(scenario, CheckerConfig::default().with_workers(4)).run();
        assert!(!report.passed());
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
        let scenario = testutil::hub_ping_scenario(3);
        let report = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_max_transitions(5)
                .with_workers(4),
        )
        .run();
        assert!(report.stats.truncated);
        assert!(report.stats.transitions <= 5);
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

        let scenario = testutil::hub_ping_scenario(1).with_property(Box::new(PanickingProperty));
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
        assert!(!full.passed());
        assert!(!por.passed());
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
