//! Sharding by fingerprint: the explored set partitioned over peers.
//!
//! A [`ShardedSearch`] is one shard of a depth-first search whose explored
//! set is partitioned over `count` peers by fingerprint prefix
//! ([`ShardSpec::owns`]). The shard expands only the states it owns;
//! every successor whose fingerprint belongs to another shard is *exported*
//! as a replayable [`FrontierExport`] (its transition trace from the
//! initial state plus its sleep set) instead of being explored locally.
//! Whoever drives the search — a harness running several shards in one
//! process, as the tests below and the benchmark's shard probe do — routes
//! each export to its owner, which [`ShardedSearch::inject`]s it.
//!
//! Because every fingerprint has exactly one owner, global deduplication is
//! exact: each unique state is expanded by exactly one shard, and with no
//! truncating budget the *sum* of the shards' `transitions`,
//! `unique_states`, `terminal_states` and `dedup_hits` equals a one-worker
//! [`ModelChecker::run`]'s counts. No search of the checker runs through
//! this type: it is the harness the tests below and the benchmark's shard
//! probe drive. The expansion itself is not defined here: a shard is one
//! `checker::Worker`, and stepping it runs the same `Worker::expand` every
//! search runs.
//!
//! Injected states arrive as traces and are rebuilt by replaying the whole
//! trace from the initial state (the paper's Section 6 state restoration;
//! a node the shard generated itself owns its state). Replays do not count
//! as explored transitions.

use crate::checker::{CheckReport, ModelChecker, Path, SearchStats, Shared, Worker};
use crate::explored::ExactStore;
use crate::json::Json;
use crate::trace::{steps_from_json, steps_to_json};
use crate::transition::{DiscoveryMemo, Transition};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Maps a state fingerprint to its owning shard.
///
/// This is THE shard-selection function: every component that partitions
/// the fingerprint space — [`ShardSpec::owns`], in-process multi-shard
/// harnesses — must route through it, so a state exported by one component is always
/// accepted by the shard the others would pick.
///
/// Ownership is decided by the *top byte* of the fingerprint (bits
/// `56..=63`), taken modulo the shard count:
///
/// * the explored set's identity hashers bucket on the *low* bits, so the
///   top bits are uniformly free for sharding;
/// * the in-process explored store shards internally on bits `48..=55`
///   (see `crate::explored`), deliberately disjoint from this byte so
///   distributed sharding composes with store sharding instead of
///   concentrating each dist-shard's states into few store shards.
///
/// `count <= 1` always maps to shard 0 (the solo search).
pub fn shard_of(fingerprint: u64, count: u32) -> u32 {
    if count <= 1 {
        return 0;
    }
    ((fingerprint >> 56) as u32) % count
}

/// Which slice of the fingerprint space a search owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// The single shard that owns the whole fingerprint space: every
    /// worker of a [`ModelChecker`] search.
    pub fn solo() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// True if this shard owns `fingerprint` (see [`shard_of`]).
    pub fn owns(&self, fingerprint: u64) -> bool {
        shard_of(fingerprint, self.count) == self.index
    }
}

/// A frontier state exported to the shard that owns its fingerprint:
/// enough to rebuild the state anywhere (replay `trace` from the initial
/// state) and to keep partial-order reduction sound across the handoff
/// (`sleep` travels with the node exactly as it does locally). Cloning one
/// copies no transition of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierExport {
    /// The state's 64-bit fingerprint (computed by the exporting shard; the
    /// owner re-derives nothing, ownership and deduplication key off this).
    pub fingerprint: u64,
    /// The transition path from the initial state to this state.
    pub trace: Path,
    /// The sleep set the state was generated under (empty without POR).
    pub sleep: Vec<Transition>,
}

impl FrontierExport {
    /// The state object of the `nice-dist-v5` `forward` / `states` frames:
    /// the fingerprint, the whole trace and the sleep set (both
    /// `nice-trace-v1` step arrays).
    fn to_json(&self) -> Json<'_> {
        let steps = self.trace.suffix(0).into_iter();
        Json::object([
            ("fingerprint", self.fingerprint.into()),
            ("steps", Json::Arr(steps.map(Transition::to_json).collect())),
            ("sleep", steps_to_json(&self.sleep)),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes.
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(FrontierExport {
            fingerprint: value.u64("fingerprint")?,
            trace: steps_from_json(value, "steps")?.into(),
            sleep: steps_from_json(value, "sleep")?,
        })
    }
}

/// The `"states"` array of a `nice-dist-v5` `forward` / `states` frame.
pub fn exports_to_json(states: &[FrontierExport]) -> Json<'_> {
    Json::Arr(states.iter().map(FrontierExport::to_json).collect())
}

/// Reads what [`exports_to_json`] writes.
pub fn exports_from_json(states: &[Json]) -> Result<Vec<FrontierExport>, String> {
    (states.iter().enumerate())
        .map(|(i, value)| FrontierExport::from_json(value).map_err(|e| format!("state {i}: {e}")))
        .collect()
}

/// What one [`ShardedSearch::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A frontier node was popped and expanded.
    Expanded,
    /// The local frontier is empty — the shard is waiting for injections
    /// (or, if every peer is idle and nothing is in flight, the search is
    /// done).
    Idle,
    /// The search stopped for good: cancelled, budget exhausted with
    /// `stop_at_first_violation`, or a first violation under
    /// `stop_at_first_violation`. No further steps will expand anything.
    Stopped,
}

/// One shard of a (possibly distributed) depth-first search: a single
/// search worker driven one node at a time. See the [module docs](self)
/// for the ownership/forwarding contract.
pub struct ShardedSearch<'a> {
    worker: Worker<'a>,
    start: Instant,
}

impl<'a> ShardedSearch<'a> {
    /// Creates the shard and seeds the initial state — on the shard that
    /// owns its fingerprint only; every other shard starts idle. The shard
    /// keeps its explored set in its own in-memory store, as a local run
    /// does.
    pub fn new(checker: &'a ModelChecker, shard: ShardSpec) -> Self {
        let start = Instant::now();
        let (root, root_fingerprint) = checker.root();
        let mut worker = Worker::new(
            checker,
            shard,
            Arc::new(ExactStore::new()),
            root,
            Arc::new(Shared::default()),
            DiscoveryMemo::default(),
        );
        if shard.owns(root_fingerprint) {
            worker.enqueue(root_fingerprint, Path::default(), Vec::new());
        }
        ShardedSearch { worker, start }
    }

    /// The statistics accumulated so far (`duration`, `symbolic_executions`
    /// and the explored-set counters are finalized by
    /// [`ShardedSearch::finish`]).
    pub fn stats(&self) -> &SearchStats {
        &self.worker.stats
    }

    /// Number of frontier nodes waiting locally.
    pub fn pending(&self) -> usize {
        self.worker.stack.len()
    }

    /// True once the search has stopped for good.
    pub fn stopped(&self) -> bool {
        self.worker.shared.stop.load(Ordering::Relaxed)
    }

    /// Drains the states exported for other shards since the last call.
    pub fn take_forwards(&mut self) -> Vec<FrontierExport> {
        std::mem::take(&mut self.worker.forwards)
    }

    /// Accepts a state exported by a peer shard. Returns true if the state
    /// was new (or re-opened with a narrowed sleep set) and queued for
    /// expansion; false if it was already explored (a deduplication hit,
    /// counted exactly as a locally re-reached state would be), not owned
    /// by this shard, or the search has stopped.
    pub fn inject(&mut self, export: FrontierExport) -> bool {
        !self.stopped()
            && self.worker.shard.owns(export.fingerprint)
            && self
                .worker
                .enqueue(export.fingerprint, export.trace, export.sleep)
    }

    /// Pops and expands one frontier node (depth-first). Successors owned
    /// by this shard are deduplicated and queued; the rest are exported for
    /// [`ShardedSearch::take_forwards`].
    pub fn step(&mut self) -> StepOutcome {
        if self.stopped() {
            return StepOutcome::Stopped;
        }
        let Some(node) = self.worker.stack.pop() else {
            return StepOutcome::Idle;
        };
        if self.worker.expand(node, None) {
            StepOutcome::Expanded
        } else {
            StepOutcome::Stopped
        }
    }

    /// Finalizes and returns the shard's report.
    pub fn finish(self) -> CheckReport {
        let mut report = CheckReport::default();
        self.worker.finish_into(&mut report);
        report.stats.duration = self.start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CheckerConfig, ReductionKind};
    use crate::testutil;

    /// Runs `count` shards in one process, routing forwards by ownership,
    /// and returns the merged report.
    fn run_sharded(make: impl Fn() -> ModelChecker, count: u32) -> CheckReport {
        let checkers: Vec<ModelChecker> = (0..count).map(|_| make()).collect();
        let mut shards: Vec<ShardedSearch<'_>> = checkers
            .iter()
            .enumerate()
            .map(|(i, c)| {
                ShardedSearch::new(
                    c,
                    ShardSpec {
                        index: i as u32,
                        count,
                    },
                )
            })
            .collect();
        loop {
            let mut progressed = false;
            for i in 0..shards.len() {
                while shards[i].step() == StepOutcome::Expanded {
                    progressed = true;
                }
                for export in shards[i].take_forwards() {
                    let owner = shard_of(export.fingerprint, count) as usize;
                    if shards[owner].inject(export) {
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let mut merged = CheckReport::default();
        for shard in shards {
            let report = shard.finish();
            merged.stats.merge(&report.stats);
            merged.violations.extend(report.violations);
        }
        merged.sort_violations();
        merged
    }

    fn exhaustive_config() -> CheckerConfig {
        CheckerConfig {
            stop_at_first_violation: false,
            ..CheckerConfig::default()
        }
    }

    #[test]
    fn shard_of_uses_the_top_byte_modulo_count() {
        // Solo searches own everything regardless of the fingerprint.
        assert_eq!(shard_of(u64::MAX, 0), 0);
        assert_eq!(shard_of(u64::MAX, 1), 0);
        // Only bits 56..=63 participate: low bits never change the owner.
        for fp in [0u64, 0xffff_ffff_ffff, 0x00ff_ffff_ffff_ffff] {
            assert_eq!(shard_of(fp, 4), 0, "{fp:#x}");
        }
        for top in 0..=255u64 {
            let fp = (top << 56) | 0x1234_5678_9abc;
            assert_eq!(shard_of(fp, 4), (top % 4) as u32);
            assert_eq!(shard_of(fp, 7), (top % 7) as u32);
            // Always a valid index.
            assert!(shard_of(fp, 3) < 3);
        }
        // `owns` agrees with `shard_of` by construction.
        let spec = ShardSpec { index: 2, count: 5 };
        for top in 0..=255u64 {
            let fp = top << 56;
            assert_eq!(spec.owns(fp), shard_of(fp, 5) == 2);
        }
    }

    #[test]
    fn solo_shard_owns_everything() {
        let solo = ShardSpec::solo();
        for fp in [0, 1, u64::MAX, 0x7f00_0000_0000_0000] {
            assert!(solo.owns(fp));
        }
        let spec = ShardSpec { index: 1, count: 4 };
        assert!(spec.owns(1u64 << 56));
        assert!(!spec.owns(0));
        // Every fingerprint has exactly one owner.
        for fp in (0..=255u64).map(|b| b << 56) {
            let owners = (0..4)
                .filter(|&i| ShardSpec { index: i, count: 4 }.owns(fp))
                .count();
            assert_eq!(owners, 1, "fingerprint {fp:#x}");
        }
    }

    #[test]
    fn sharded_run_matches_sequential_counts_and_verdict() {
        let make = || {
            ModelChecker::new(
                testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 2),
                exhaustive_config(),
            )
        };
        let sequential = make().run();
        for count in [2u32, 4] {
            let merged = run_sharded(make, count);
            assert_eq!(
                merged.stats.transitions, sequential.stats.transitions,
                "{count} shards: transitions"
            );
            assert_eq!(
                merged.stats.unique_states, sequential.stats.unique_states,
                "{count} shards: unique states"
            );
            assert_eq!(
                merged.stats.terminal_states, sequential.stats.terminal_states,
                "{count} shards: terminal states"
            );
            assert_eq!(
                merged.stats.dedup_hits, sequential.stats.dedup_hits,
                "{count} shards: dedup hits"
            );
            let mut expect: Vec<(String, String)> = sequential
                .violations
                .iter()
                .map(|v| (v.property.clone(), v.message.clone()))
                .collect();
            expect.sort();
            expect.dedup();
            let mut got: Vec<(String, String)> = merged
                .violations
                .iter()
                .map(|v| (v.property.clone(), v.message.clone()))
                .collect();
            got.sort();
            got.dedup();
            assert_eq!(got, expect, "{count} shards: violation set");
        }
    }

    #[test]
    fn sharded_por_run_finds_the_same_violations() {
        let make = || {
            ModelChecker::new(
                testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 2),
                CheckerConfig {
                    reduction: ReductionKind::Por,
                    ..exhaustive_config()
                },
            )
        };
        let sequential = make().run();
        let merged = run_sharded(make, 3);
        let mut expect: Vec<&str> = sequential
            .violations
            .iter()
            .map(|v| v.property.as_str())
            .collect();
        expect.sort();
        expect.dedup();
        let mut got: Vec<&str> = merged
            .violations
            .iter()
            .map(|v| v.property.as_str())
            .collect();
        got.sort();
        got.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn exported_frontier_replays_to_the_same_fingerprint() {
        let make = || ModelChecker::new(testutil::hub_ping_scenario(2), exhaustive_config());
        let checkers = [make(), make()];
        let mut shards: Vec<ShardedSearch<'_>> = (checkers.iter().zip(0..))
            .map(|(checker, index)| ShardedSearch::new(checker, ShardSpec { index, count: 2 }))
            .collect();
        // A real two-shard run, every batch taken over the wire: what the
        // owner decodes is what the sender exported, each state replays to
        // its fingerprint, and the run carries on from the decoded paths.
        let (mut batches, mut states) = (0, 0);
        loop {
            let mut progressed = false;
            for i in 0..shards.len() {
                while shards[i].step() == StepOutcome::Expanded {}
                let exports = shards[i].take_forwards();
                if exports.is_empty() {
                    continue;
                }
                let wire = exports_to_json(&exports).compact();
                let Json::Arr(array) = Json::parse(&wire).expect("well-formed") else {
                    panic!("not an array: {wire}");
                };
                let decoded = exports_from_json(&array).expect("decodes");
                assert_eq!(decoded, exports);
                batches += 1;
                states += exports.len();
                for export in decoded {
                    let mut replayer = crate::replay::Replayer::new(
                        &checkers[i],
                        &crate::trace::TraceEngine::default(),
                        &DiscoveryMemo::default(),
                    );
                    for t in export.trace.suffix(0) {
                        replayer.step_unchecked(t);
                    }
                    assert_eq!(replayer.fingerprint(), export.fingerprint);
                    progressed |= shards[1 - i].inject(export);
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(batches > 2 && states > 2 * batches, "{states} in {batches}");
        let sequential = make().run();
        let sum =
            |field: fn(&SearchStats) -> u64| shards.iter().map(|s| field(s.stats())).sum::<u64>();
        assert_eq!(sum(|s| s.transitions), sequential.stats.transitions);
        assert_eq!(sum(|s| s.unique_states), sequential.stats.unique_states);
        assert_eq!(sum(|s| s.dedup_hits), sequential.stats.dedup_hits);
    }

    #[test]
    fn a_sleep_set_crosses_the_wire_as_transitions_and_is_digested_on_arrival() {
        let make = || {
            ModelChecker::new(
                testutil::hub_ping_scenario(2),
                CheckerConfig {
                    reduction: ReductionKind::Por,
                    ..exhaustive_config()
                },
            )
        };
        let checkers = [make(), make()];
        let mut shards: Vec<ShardedSearch<'_>> = (checkers.iter().zip(0..))
            .map(|(checker, index)| ShardedSearch::new(checker, ShardSpec { index, count: 2 }))
            .collect();
        let (mut asleep_on_the_wire, mut asleep_on_arrival) = (0, 0);
        loop {
            let mut progressed = false;
            for i in 0..shards.len() {
                while shards[i].step() == StepOutcome::Expanded {}
                let exports = shards[i].take_forwards();
                let wire = exports_to_json(&exports).compact();
                let Json::Arr(array) = Json::parse(&wire).expect("well-formed") else {
                    panic!("not an array: {wire}");
                };
                let decoded = exports_from_json(&array).expect("decodes");
                assert_eq!(decoded, exports);
                for export in decoded {
                    let sent = export.sleep.clone();
                    asleep_on_the_wire += sent.len();
                    let owner = &mut shards[1 - i];
                    let queued = owner.pending();
                    if !owner.inject(export) {
                        continue;
                    }
                    progressed = true;
                    // Queued under what was sent or, widened, under part of
                    // it — every entry with the digest of its transition.
                    assert_eq!(owner.pending(), queued + 1);
                    let node = owner.worker.stack.last().expect("just queued");
                    assert!(node.revisit || node.sleep.len() == sent.len());
                    for sleeper in &node.sleep {
                        assert!(sent.contains(sleeper.transition()));
                        assert_eq!(sleeper.digest(), sleeper.transition().digest());
                    }
                    asleep_on_arrival += node.sleep.len();
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(
            asleep_on_arrival > 10,
            "{asleep_on_arrival} sleepers arrived"
        );
        assert!(asleep_on_the_wire >= asleep_on_arrival);
    }
}
