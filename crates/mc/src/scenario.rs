//! What to check and how to search: the [`Scenario`] (system under test) and
//! the [`CheckerConfig`] (search configuration).

use crate::explored::{ExploredConfig, ExploredMode};
use crate::faults::FaultPlan;
use crate::json::Json;
use crate::properties::Property;
use nice_controller::ControllerApp;
use nice_hosts::HostModel;
use nice_openflow::{HostId, Packet, SwitchConfig, Topology};
use nice_sym::{PacketDomains, StatsDomains};
use std::collections::BTreeMap;

/// How clients choose the packets they send.
#[derive(Debug, Clone)]
pub enum SendPolicy {
    /// Each host sends a fixed sequence of packets, in order. This is how the
    /// Section 7 performance workload drives the system (symbolic execution
    /// turned off): host A sends layer-2 pings, host B echoes.
    Scripted(BTreeMap<HostId, Vec<Packet>>),
    /// The packets each host can send are discovered by symbolically
    /// executing the controller's `packet_in` handler in the current
    /// controller state (the `discover_packets` transition of Figure 5).
    Discover,
}

impl SendPolicy {
    /// Convenience constructor for a scripted policy.
    pub fn scripted(entries: impl IntoIterator<Item = (HostId, Vec<Packet>)>) -> Self {
        SendPolicy::Scripted(entries.into_iter().collect())
    }

    /// True if this policy uses symbolic discovery.
    pub fn is_discover(&self) -> bool {
        matches!(self, SendPolicy::Discover)
    }
}

/// The system under test: topology, controller application, host models,
/// send policy and the correctness properties to check.
pub struct Scenario {
    /// A short name used in reports.
    pub name: String,
    /// The network topology.
    pub topology: Topology,
    /// The controller application (cloned into the initial state).
    pub app: Box<dyn ControllerApp>,
    /// The end-host models.
    pub hosts: Vec<Box<dyn HostModel>>,
    /// How clients pick the packets they send.
    pub send_policy: SendPolicy,
    /// Switch-model options (canonical flow table, buffer capacity).
    pub switch_config: SwitchConfig,
    /// Which faults the checker may inject (channel faults on data-plane
    /// packet channels, switch crashes, controller failover, OpenFlow
    /// mutations) and the per-execution fault budget. Defaults to
    /// [`FaultPlan::none`]; fault transitions are only generated when the
    /// checker additionally enables them
    /// ([`CheckerConfig::inject_faults`]).
    pub fault_plan: FaultPlan,
    /// Domains for symbolic packet fields; defaults to
    /// [`PacketDomains::from_topology`] when `None`.
    pub packet_domains: Option<PacketDomains>,
    /// Domains for symbolic statistics counters.
    pub stats_domains: StatsDomains,
    /// The correctness properties to check.
    pub properties: Vec<Box<dyn Property>>,
}

impl Clone for Scenario {
    fn clone(&self) -> Self {
        Scenario {
            name: self.name.clone(),
            topology: self.topology.clone(),
            app: self.app.clone_app(),
            hosts: self.hosts.iter().map(|h| h.clone_host()).collect(),
            send_policy: self.send_policy.clone(),
            switch_config: self.switch_config,
            fault_plan: self.fault_plan.clone(),
            packet_domains: self.packet_domains.clone(),
            stats_domains: self.stats_domains.clone(),
            properties: self.properties.clone(),
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("app", &self.app.name())
            .field("hosts", &self.hosts.len())
            .field("send_policy", &self.send_policy.is_discover())
            .finish()
    }
}

impl Scenario {
    /// Starts a fluent [`ScenarioBuilder`]. Topology and app are required;
    /// everything else defaults to the default switch configuration,
    /// reliable channels, symbolic discovery and no properties.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// Adds a correctness property (builder style).
    pub fn with_property(mut self, property: Box<dyn Property>) -> Self {
        self.properties.push(property);
        self
    }

    /// Adds several correctness properties (builder style).
    pub fn with_properties(mut self, properties: Vec<Box<dyn Property>>) -> Self {
        self.properties.extend(properties);
        self
    }

    /// Overrides the switch configuration (builder style). Passing
    /// `canonical_flow_table: false` reproduces the NO-SWITCH-REDUCTION
    /// baseline of Table 1.
    pub fn with_switch_config(mut self, config: SwitchConfig) -> Self {
        self.switch_config = config;
        self
    }

    /// Overrides the symbolic packet domains (builder style).
    pub fn with_packet_domains(mut self, domains: PacketDomains) -> Self {
        self.packet_domains = Some(domains);
        self
    }

    /// Overrides the symbolic statistics domains (builder style).
    pub fn with_stats_domains(mut self, domains: StatsDomains) -> Self {
        self.stats_domains = domains;
        self
    }

    /// Replaces the fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The effective symbolic packet domains.
    pub fn effective_packet_domains(&self) -> PacketDomains {
        self.packet_domains
            .clone()
            .unwrap_or_else(|| PacketDomains::from_topology(&self.topology))
    }
}

/// Fluent construction of a [`Scenario`]: name the system under test, then
/// chain setters for the topology, controller application, hosts, send
/// policy, properties and model options, and [`ScenarioBuilder::build`] it.
///
/// ```
/// use nice_mc::{Scenario, SendPolicy};
/// # use nice_mc::testutil::HubApp;
/// use nice_openflow::{HostId, PortId, SwitchId, Topology};
///
/// let scenario = Scenario::builder("hub-demo")
///     .topology(Topology::single_switch(1))
///     .app(Box::new(HubApp::default()))
///     .send_policy(SendPolicy::Discover)
///     .build();
/// assert_eq!(scenario.name, "hub-demo");
/// ```
///
/// Topology and app are required: `build` panics with a descriptive message
/// if either is missing, because a scenario without them is meaningless.
pub struct ScenarioBuilder {
    name: String,
    topology: Option<Topology>,
    app: Option<Box<dyn ControllerApp>>,
    hosts: Vec<Box<dyn HostModel>>,
    send_policy: SendPolicy,
    switch_config: SwitchConfig,
    fault_plan: FaultPlan,
    packet_domains: Option<PacketDomains>,
    stats_domains: StatsDomains,
    properties: Vec<Box<dyn Property>>,
}

impl ScenarioBuilder {
    fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            topology: None,
            app: None,
            hosts: Vec::new(),
            send_policy: SendPolicy::Discover,
            switch_config: SwitchConfig::default(),
            fault_plan: FaultPlan::none(),
            packet_domains: None,
            stats_domains: StatsDomains::default(),
            properties: Vec::new(),
        }
    }

    /// Sets the network topology (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the controller application under test (required).
    pub fn app(mut self, app: Box<dyn ControllerApp>) -> Self {
        self.app = Some(app);
        self
    }

    /// Adds one end-host model.
    pub fn host(mut self, host: Box<dyn HostModel>) -> Self {
        self.hosts.push(host);
        self
    }

    /// Adds several end-host models.
    pub fn hosts(mut self, hosts: impl IntoIterator<Item = Box<dyn HostModel>>) -> Self {
        self.hosts.extend(hosts);
        self
    }

    /// Sets how clients choose the packets they send. Defaults to
    /// [`SendPolicy::Discover`] (symbolic discovery).
    pub fn send_policy(mut self, policy: SendPolicy) -> Self {
        self.send_policy = policy;
        self
    }

    /// Convenience for a scripted send policy.
    pub fn scripted_sends(
        mut self,
        entries: impl IntoIterator<Item = (HostId, Vec<Packet>)>,
    ) -> Self {
        self.send_policy = SendPolicy::scripted(entries);
        self
    }

    /// Adds one correctness property.
    pub fn property(mut self, property: Box<dyn Property>) -> Self {
        self.properties.push(property);
        self
    }

    /// Adds several correctness properties.
    pub fn properties(mut self, properties: impl IntoIterator<Item = Box<dyn Property>>) -> Self {
        self.properties.extend(properties);
        self
    }

    /// Overrides the switch-model options. Passing
    /// `canonical_flow_table: false` reproduces the NO-SWITCH-REDUCTION
    /// baseline of Table 1.
    pub fn switch_config(mut self, config: SwitchConfig) -> Self {
        self.switch_config = config;
        self
    }

    /// Sets the fault plan: which faults the checker may inject and the
    /// per-execution budget. Faults are only scheduled when the checker is
    /// additionally run with [`CheckerConfig::inject_faults`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the symbolic packet domains (defaults to
    /// [`PacketDomains::from_topology`]).
    pub fn packet_domains(mut self, domains: PacketDomains) -> Self {
        self.packet_domains = Some(domains);
        self
    }

    /// Overrides the symbolic statistics domains.
    pub fn stats_domains(mut self, domains: StatsDomains) -> Self {
        self.stats_domains = domains;
        self
    }

    /// Builds the scenario.
    ///
    /// # Panics
    ///
    /// If the topology or the controller application was never set.
    pub fn build(self) -> Scenario {
        Scenario {
            topology: self
                .topology
                .unwrap_or_else(|| panic!("scenario '{}' has no topology", self.name)),
            app: self
                .app
                .unwrap_or_else(|| panic!("scenario '{}' has no controller app", self.name)),
            name: self.name,
            hosts: self.hosts,
            send_policy: self.send_policy,
            switch_config: self.switch_config,
            fault_plan: self.fault_plan,
            packet_domains: self.packet_domains,
            stats_domains: self.stats_domains,
            properties: self.properties,
        }
    }
}

/// Which search strategy drives the exploration (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// NICE-MC: exhaustive depth-first search over all enabled transitions.
    FullDfs,
    /// NO-DELAY: controller↔switch communication is treated as atomic.
    NoDelay,
    /// FLOW-IR: only one relative ordering is explored between packets of
    /// independent flows (requires the application's `is_same_flow`).
    FlowIr,
    /// UNUSUAL: control messages are delivered in unusual (reverse) order to
    /// expose race conditions.
    Unusual,
}

impl StrategyKind {
    /// All strategies, in the order Table 2 reports them.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::FullDfs,
        StrategyKind::NoDelay,
        StrategyKind::FlowIr,
        StrategyKind::Unusual,
    ];

    /// The name used in reports (matches the paper's terminology).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::FullDfs => "PKT-SEQ",
            StrategyKind::NoDelay => "NO-DELAY",
            StrategyKind::FlowIr => "FLOW-IR",
            StrategyKind::Unusual => "UNUSUAL",
        }
    }

    /// Parses a strategy from its CLI spelling (case-insensitive): the
    /// paper name (`pkt-seq`, `no-delay`, `flow-ir`, `unusual`) or the
    /// aliases `full` / `dfs` for the exhaustive search.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "pkt-seq" | "full" | "dfs" | "full-dfs" => Some(StrategyKind::FullDfs),
            "no-delay" | "nodelay" => Some(StrategyKind::NoDelay),
            "flow-ir" | "flowir" => Some(StrategyKind::FlowIr),
            "unusual" => Some(StrategyKind::Unusual),
            _ => None,
        }
    }
}

/// Which partial-order reduction runs on top of the search strategy (see
/// [`crate::strategy::Reduction`]).
///
/// Orthogonal to [`StrategyKind`]: the strategy first filters the enabled
/// transitions (a heuristic, possibly unsound restriction of event
/// orderings), then the reduction prunes interleavings of *independent*
/// transitions that provably reach the same states (a sound reduction with
/// respect to the strategy-restricted space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionKind {
    /// No reduction: explore every strategy-selected transition (the
    /// canonical NICE-MC behaviour).
    #[default]
    None,
    /// Sleep-set partial-order reduction over the static independence
    /// relation of [`Transition::footprint`](crate::transition::Transition),
    /// plus a persistent-set-style selector for provably local transitions.
    /// (The implementation's display name lives on
    /// [`Reduction::name`](crate::strategy::Reduction::name).)
    Por,
}

impl ReductionKind {
    /// Both reductions, `None` first.
    pub const ALL: [ReductionKind; 2] = [ReductionKind::None, ReductionKind::Por];

    /// A short, stable label ("none" / "por") used by reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ReductionKind::None => "none",
            ReductionKind::Por => "por",
        }
    }

    /// Parses a reduction from its CLI spelling (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" | "off" => Some(ReductionKind::None),
            "por" | "sleep-sets" => Some(ReductionKind::Por),
            _ => None,
        }
    }
}

/// Search configuration: the one description of a check. The CLI parses its
/// flags into one, the `nice-dist-v2` job frame carries one
/// ([`to_json`](CheckerConfig::to_json)), and the engine reads nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerConfig {
    /// The search strategy.
    pub strategy: StrategyKind,
    /// Stop after exploring this many transitions (0 = unlimited).
    pub max_transitions: u64,
    /// Do not explore beyond this depth (transitions from the initial state).
    pub max_depth: usize,
    /// Stop at the first property violation (the paper's default workflow) or
    /// keep searching to collect every violation.
    pub stop_at_first_violation: bool,
    /// Number of worker threads for the state-space search. `1` (the
    /// default) runs the fully deterministic sequential engine; larger
    /// values explore the same state space concurrently with a shared
    /// deduplication set. With no truncating budget the searches agree on
    /// `unique_states`/`transitions` and on the set of violations, but the
    /// order violations are found in — and therefore the trace attached to
    /// each — may differ run to run.
    pub workers: usize,
    /// Partial-order reduction layered on top of the strategy (see
    /// [`ReductionKind`]).
    pub reduction: ReductionKind,
    /// Schedule the fault transitions described by the scenario's
    /// [`FaultPlan`](crate::faults::FaultPlan). Off by default so that a
    /// scenario carrying a plan can still be checked fault-free (the CLI's
    /// `--faults` flag flips this on).
    pub inject_faults: bool,
    /// How the explored fingerprint set is stored (see
    /// [`ExploredConfig`](crate::explored::ExploredConfig)): exact in-memory
    /// (the default), exact with cold-shard spill to disk, or lossy bitstate
    /// hashing.
    pub explored: ExploredConfig,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            strategy: StrategyKind::FullDfs,
            max_transitions: 2_000_000,
            max_depth: 400,
            stop_at_first_violation: true,
            workers: 1,
            reduction: ReductionKind::None,
            inject_faults: false,
            explored: ExploredConfig::default(),
        }
    }
}

impl CheckerConfig {
    /// Sets the strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the transition budget (builder style).
    pub fn with_max_transitions(mut self, max: u64) -> Self {
        self.max_transitions = max;
        self
    }

    /// Sets whether to stop at the first violation (builder style).
    pub fn with_stop_at_first(mut self, stop: bool) -> Self {
        self.stop_at_first_violation = stop;
        self
    }

    /// Sets the number of search worker threads (builder style). `0` is
    /// clamped to `1`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects the partial-order reduction layered on top of the strategy
    /// (builder style).
    pub fn with_reduction(mut self, reduction: ReductionKind) -> Self {
        self.reduction = reduction;
        self
    }

    /// Enables or disables scheduling of the scenario's fault plan
    /// (builder style).
    pub fn with_fault_injection(mut self, inject: bool) -> Self {
        self.inject_faults = inject;
        self
    }

    /// Selects the explored-set storage mode (builder style). The memory
    /// limit keeps its current value; see
    /// [`with_mem_limit`](CheckerConfig::with_mem_limit).
    pub fn with_explored(mut self, mode: ExploredMode) -> Self {
        self.explored.mode = mode;
        self
    }

    /// Sets the explored-set memory budget in bytes (builder style). `0`
    /// selects the mode's default budget; the exact in-memory mode ignores
    /// it entirely.
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.explored.mem_limit = bytes;
        self
    }

    /// The eight fields as a JSON object, under the keys (and in the order)
    /// the `nice-dist-v2` job frame has always used for the ones it carries;
    /// `workers`, which that frame leaves out, comes last.
    pub fn to_json(&self) -> Json<'static> {
        Json::object([
            ("strategy", self.strategy.name().into()),
            ("reduction", self.reduction.name().into()),
            ("faults", self.inject_faults.into()),
            ("stop_at_first", self.stop_at_first_violation.into()),
            ("max_transitions", self.max_transitions.into()),
            ("max_depth", self.max_depth.into()),
            ("explored", self.explored.mode.name().into()),
            ("mem_limit", self.explored.mem_limit.into()),
            ("workers", self.workers.into()),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes, from any object that
    /// holds those members. An absent `workers` is 1: a shard of a
    /// distributed job runs the sequential engine.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        Ok(CheckerConfig {
            strategy: value.parsed("strategy", StrategyKind::parse)?,
            reduction: value.parsed("reduction", ReductionKind::parse)?,
            inject_faults: value.bool("faults")?,
            stop_at_first_violation: value.bool("stop_at_first")?,
            max_transitions: value.u64("max_transitions")?,
            max_depth: value.u64("max_depth")? as usize,
            explored: ExploredConfig {
                mode: value.parsed("explored", ExploredMode::parse)?,
                mem_limit: value.u64("mem_limit")?,
            },
            workers: match value.get("workers") {
                Ok(_) => value.u64("workers")?.max(1) as usize,
                Err(_) => 1,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use nice_openflow::MacAddr;

    #[test]
    fn send_policy_constructors() {
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let policy = SendPolicy::scripted([(HostId(1), vec![pkt])]);
        assert!(!policy.is_discover());
        assert!(SendPolicy::Discover.is_discover());
    }

    #[test]
    fn scenario_builders_compose() {
        let scenario = testutil::hub_ping_scenario(2)
            .with_switch_config(SwitchConfig {
                canonical_flow_table: false,
                buffer_capacity: 8,
            })
            .with_fault_plan(FaultPlan::lossy(2))
            .with_stats_domains(StatsDomains::around_threshold(100));
        assert!(!scenario.switch_config.canonical_flow_table);
        assert_eq!(scenario.switch_config.buffer_capacity, 8);
        let cloned = scenario.clone();
        assert_eq!(cloned.name, scenario.name);
        assert_eq!(cloned.hosts.len(), scenario.hosts.len());
        assert_eq!(cloned.fault_plan, scenario.fault_plan);
        assert!(scenario.fault_plan.any_enabled());
        assert!(format!("{scenario:?}").contains("hub"));
    }

    #[test]
    fn effective_packet_domains_derive_from_topology_by_default() {
        let scenario = testutil::hub_ping_scenario(1);
        let domains = scenario.effective_packet_domains();
        assert!(domains.macs.contains(&MacAddr::for_host(1).value()));
        let overridden = scenario.with_packet_domains(
            nice_sym::PacketDomains::from_topology(&Topology::single_switch(1)).with_ports(vec![9]),
        );
        assert_eq!(overridden.effective_packet_domains().ports, vec![9]);
    }

    #[test]
    fn strategy_names_match_the_paper() {
        assert_eq!(StrategyKind::FullDfs.name(), "PKT-SEQ");
        assert_eq!(StrategyKind::NoDelay.name(), "NO-DELAY");
        assert_eq!(StrategyKind::FlowIr.name(), "FLOW-IR");
        assert_eq!(StrategyKind::Unusual.name(), "UNUSUAL");
        assert_eq!(StrategyKind::ALL.len(), 4);
    }

    #[test]
    fn checker_config_defaults_and_builders() {
        let config = CheckerConfig::default();
        assert!(config.stop_at_first_violation);
        assert_eq!(config.strategy, StrategyKind::FullDfs);
        let tuned = CheckerConfig::default()
            .with_strategy(StrategyKind::Unusual)
            .with_max_transitions(10)
            .with_stop_at_first(false);
        assert_eq!(tuned.strategy, StrategyKind::Unusual);
        assert_eq!(tuned.max_transitions, 10);
        assert!(!tuned.stop_at_first_violation);
    }

    #[test]
    fn checker_config_round_trips_through_json() {
        // Every field off its default.
        let config = CheckerConfig {
            strategy: StrategyKind::Unusual,
            max_transitions: 7,
            max_depth: 9,
            stop_at_first_violation: false,
            workers: 3,
            reduction: ReductionKind::Por,
            inject_faults: true,
            explored: ExploredConfig {
                mode: ExploredMode::Tiered,
                mem_limit: 4096,
            },
        };
        let text = config.to_json().compact();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(CheckerConfig::from_json(&parsed), Ok(config.clone()));

        for (good, bad, names) in [
            ("\"UNUSUAL\"", "\"bfs\"", "unknown strategy 'bfs'"),
            ("\"tiered\"", "\"mmap\"", "unknown explored 'mmap'"),
        ] {
            let text = text.replace(good, bad);
            let parsed = Json::parse(&text).expect("parse");
            assert_eq!(CheckerConfig::from_json(&parsed), Err(names.to_string()));
        }
    }
}
