//! The step probe: a plain depth-first search over the model's public
//! functions, written here so that every call into a layer can be timed
//! from outside.
//!
//! It follows the sequential engine's order exactly (last-pushed node
//! first, children in `enabled_transitions` order, no expansion past a
//! violating state, the same stop and budget rules), so on any PKT-SEQ
//! search without partial-order reduction its `unique_states` and
//! `transitions` must equal the engine's. If they do not, its timings
//! describe a different search and the caller counts the run as failed.
//!
//! What it leaves out is what `checker.engine_over_probe` measures: the
//! per-child trace vectors, the strategy and reduction hooks, the packed
//! explored store and the session plumbing of the real loop.

use nice_mc::properties::{Event, Property};
use nice_mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice_mc::{CheckerConfig, Scenario, SystemState};
use std::collections::{BTreeSet, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Span names. `EXECUTE` is followed by the transition kind in the sample
/// and aggregated both per kind and as a whole.
pub const EXPAND: usize = 0;
pub const INITIAL: usize = 1;
pub const ENABLED: usize = 2;
pub const CLONE: usize = 3;
pub const EXECUTE: usize = 4;
pub const PROPERTIES: usize = 5;
pub const FINGERPRINT: usize = 6;
pub const VISIT: usize = 7;
pub const SPAN_NAMES: [&str; 8] = [
    "expand",
    "state.initial",
    "transition.enabled",
    "state.clone",
    "transition.execute",
    "properties.check",
    "state.fingerprint",
    "explored.visit",
];

/// What the probe records around every call into a layer.
pub trait Tracer {
    /// Opens a span that will contain others; returns its id.
    fn enter(&mut self, name: usize) -> u32;
    fn exit(&mut self, id: u32);
    /// Times one call into a layer as a leaf span.
    fn leaf<R>(&mut self, name: usize, kind: &'static str, call: impl FnOnce() -> R) -> R;
}

/// The untraced run: every hook compiles to nothing.
pub struct Off;

impl Tracer for Off {
    fn enter(&mut self, _name: usize) -> u32 {
        0
    }
    fn exit(&mut self, _id: u32) {}
    fn leaf<R>(&mut self, _name: usize, _kind: &'static str, call: impl FnOnce() -> R) -> R {
        call()
    }
}

/// One recorded span. `parent` is the id of the enclosing span (0 = the
/// operation itself); all spans of one search share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: usize,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and total time of the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
}

impl Aggregate {
    pub fn add(&mut self, other: Aggregate) {
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The raw spans kept for the trace file; the aggregates cover all of them.
pub const SAMPLE_SPANS: usize = 50_000;

/// The traced run: spans aggregate in memory, the first `SAMPLE_SPANS` are
/// kept whole, nothing is written until the search is over.
pub struct On {
    epoch: Instant,
    op: u32,
    next_id: u32,
    open: Vec<(u32, usize, u64)>,
    pub by_name: [Aggregate; SPAN_NAMES.len()],
    pub execute_by_kind: Vec<(&'static str, Aggregate)>,
    pub sample: Vec<Span>,
}

impl On {
    pub fn new(op: u32) -> On {
        On {
            epoch: Instant::now(),
            op,
            next_id: 1,
            open: Vec::new(),
            by_name: [Aggregate::default(); SPAN_NAMES.len()],
            execute_by_kind: Vec::new(),
            sample: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, span: Span) {
        let one = Aggregate {
            count: 1,
            total_ns: span.end_ns - span.start_ns,
        };
        self.by_name[span.name].add(one);
        if span.name == EXECUTE {
            add_kind(&mut self.execute_by_kind, span.kind, one);
        }
        if self.sample.len() < SAMPLE_SPANS {
            self.sample.push(span);
        }
    }
}

/// Adds `part` to the aggregate of one transition kind.
pub fn add_kind(by_kind: &mut Vec<(&'static str, Aggregate)>, kind: &'static str, part: Aggregate) {
    match by_kind.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, total)) => total.add(part),
        None => by_kind.push((kind, part)),
    }
}

impl Tracer for On {
    fn enter(&mut self, name: usize) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, start));
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let (open_id, name, start_ns) = self.open.pop().expect("exit matches an enter");
        assert_eq!(open_id, id, "spans close in the order they opened");
        let parent = self.open.last().map_or(0, |(id, _, _)| *id);
        self.record(Span {
            id,
            parent,
            op: self.op,
            name,
            kind: "",
            start_ns,
            end_ns,
        });
    }

    fn leaf<R>(&mut self, name: usize, kind: &'static str, call: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |(id, _, _)| *id);
        self.record(Span {
            id,
            parent,
            op: self.op,
            name,
            kind,
            start_ns,
            end_ns,
        });
        result
    }
}

/// State fingerprints are already well-mixed 64-bit hashes; hashing them
/// again would only add the probe's own cost to what it reports as
/// unattributed.
#[derive(Default)]
struct Identity(u64);

impl Hasher for Identity {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// What a probe search counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub unique_states: u64,
    pub transitions: u64,
    pub terminal_states: u64,
    pub dedup_hits: u64,
    pub max_depth: usize,
    pub violated: BTreeSet<String>,
    /// `execute` calls on `discover_packets` / `discover_stats`.
    pub discover_calls: u64,
    /// Of those, the ones that ran the concolic engine (memo misses).
    pub symbolic_executions: u64,
    /// Fault transitions executed.
    pub faults_injected: u64,
}

struct Node {
    state: SystemState,
    properties: Vec<Box<dyn Property>>,
    depth: usize,
}

/// Searches `scenario` depth-first under `config` (strategy PKT-SEQ, no
/// reduction: the probe applies neither), reporting every call into a layer
/// to `tracer`.
pub fn search<T: Tracer>(scenario: &Scenario, config: &CheckerConfig, tracer: &mut T) -> Counts {
    let mut counts = Counts::default();
    let mut memo = DiscoveryMemo::default();
    let mut events: Vec<Event> = Vec::new();
    let mut explored: HashSet<u64, BuildHasherDefault<Identity>> = HashSet::default();

    let initial = tracer.leaf(INITIAL, "", || SystemState::initial(scenario));
    explored.insert(initial.fingerprint());
    counts.unique_states = 1;
    let mut stack = vec![Node {
        state: initial,
        properties: scenario.properties.clone(),
        depth: 0,
    }];

    'search: while let Some(node) = stack.pop() {
        let expand = tracer.enter(EXPAND);
        counts.max_depth = counts.max_depth.max(node.depth);
        let enabled = tracer.leaf(ENABLED, "", || {
            enabled_transitions(&node.state, scenario, config)
        });

        if enabled.is_empty() {
            counts.terminal_states += 1;
            let messages = tracer.leaf(PROPERTIES, "", || {
                node.properties
                    .iter()
                    .filter_map(|p| p.check_final(&node.state).map(|_| p.name().to_string()))
                    .collect::<Vec<_>>()
            });
            // The engine stops at the first property that fails its final
            // check; later ones go unrecorded.
            let stop = config.stop_at_first_violation && !messages.is_empty();
            if stop {
                counts.violated.insert(messages[0].clone());
            } else {
                counts.violated.extend(messages);
            }
            tracer.exit(expand);
            if stop {
                break 'search;
            }
            continue;
        }
        if node.depth >= config.max_depth {
            tracer.exit(expand);
            continue;
        }

        for transition in &enabled {
            if config.max_transitions > 0 && counts.transitions >= config.max_transitions {
                tracer.exit(expand);
                break 'search;
            }
            let mut next = tracer.leaf(CLONE, "", || node.state.clone());
            events.clear();
            let kind = transition.kind();
            tracer.leaf(EXECUTE, kind, || {
                execute(
                    &mut next,
                    transition,
                    scenario,
                    config,
                    &mut memo,
                    &mut events,
                )
            });
            counts.transitions += 1;
            if matches!(kind, "discover_packets" | "discover_stats") {
                counts.discover_calls += 1;
            }
            if transition.fault_counter_index().is_some() {
                counts.faults_injected += 1;
            }
            let (next_properties, violations) = tracer.leaf(PROPERTIES, "", || {
                let mut properties = node.properties.to_vec();
                for event in &events {
                    for property in properties.iter_mut() {
                        property.on_event(event, &next);
                    }
                }
                let violations: Vec<String> = properties
                    .iter()
                    .filter(|p| p.check(&next).is_some())
                    .map(|p| p.name().to_string())
                    .collect();
                (properties, violations)
            });
            if !violations.is_empty() {
                counts.violated.extend(violations);
                if config.stop_at_first_violation {
                    tracer.exit(expand);
                    break 'search;
                }
                continue;
            }
            let fingerprint = tracer.leaf(FINGERPRINT, "", || next.fingerprint());
            if tracer.leaf(VISIT, "", || explored.insert(fingerprint)) {
                counts.unique_states += 1;
                stack.push(Node {
                    state: next,
                    properties: next_properties,
                    depth: node.depth + 1,
                });
            } else {
                counts.dedup_hits += 1;
            }
        }
        tracer.exit(expand);
    }
    counts.symbolic_executions = memo.symbolic_executions;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_apps::workloads::resolve;
    use nice_mc::ModelChecker;

    fn exhaustive() -> CheckerConfig {
        CheckerConfig::default()
            .with_stop_at_first(false)
            .with_max_transitions(0)
    }

    #[test]
    fn probe_counts_equal_the_engines_on_small_inputs() {
        for spec in ["ping:2", "chain:3:1"] {
            let report = ModelChecker::new(resolve(spec).unwrap(), exhaustive()).run();
            let untraced = search(&resolve(spec).unwrap(), &exhaustive(), &mut Off);
            let mut tracer = On::new(1);
            let traced = search(&resolve(spec).unwrap(), &exhaustive(), &mut tracer);
            assert_eq!(
                untraced, traced,
                "{spec}: tracing must not change the search"
            );
            assert_eq!(untraced.unique_states, report.stats.unique_states, "{spec}");
            assert_eq!(untraced.transitions, report.stats.transitions, "{spec}");
            assert_eq!(
                untraced.terminal_states, report.stats.terminal_states,
                "{spec}"
            );
            assert_eq!(untraced.dedup_hits, report.stats.dedup_hits, "{spec}");
            assert_eq!(untraced.max_depth, report.stats.max_depth, "{spec}");
            assert_eq!(tracer.by_name[EXECUTE].count, report.stats.transitions);
            assert_eq!(tracer.by_name[CLONE].count, report.stats.transitions);
            let per_kind: u64 = tracer.execute_by_kind.iter().map(|(_, a)| a.count).sum();
            assert_eq!(per_kind, report.stats.transitions);
        }
    }

    #[test]
    fn probe_stops_where_the_engine_stops_on_a_bug_hunt() {
        use nice_apps::scenarios::{bug_scenario, BugId};
        for bug in [BugId::BugII, BugId::BugV, BugId::BugVIII] {
            let config = CheckerConfig::default().with_max_transitions(200_000);
            let report = ModelChecker::new(bug_scenario(bug), config.clone()).run();
            let probe = search(&bug_scenario(bug), &config, &mut Off);
            assert_eq!(probe.transitions, report.stats.transitions, "{bug:?}");
            assert_eq!(probe.unique_states, report.stats.unique_states, "{bug:?}");
            let found: BTreeSet<String> = report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect();
            assert_eq!(probe.violated, found, "{bug:?}");
        }
    }

    #[test]
    fn spans_nest_under_their_expansion() {
        let mut tracer = On::new(7);
        search(&resolve("ping:1").unwrap(), &exhaustive(), &mut tracer);
        let expands: BTreeSet<u32> = tracer
            .sample
            .iter()
            .filter(|s| s.name == EXPAND)
            .map(|s| s.id)
            .collect();
        for span in &tracer.sample {
            assert_eq!(span.op, 7);
            assert!(span.end_ns >= span.start_ns);
            match span.name {
                EXPAND | INITIAL => assert_eq!(span.parent, 0),
                _ => assert!(expands.contains(&span.parent), "{span:?}"),
            }
        }
    }
}
