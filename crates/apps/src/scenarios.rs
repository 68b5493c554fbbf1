//! Ready-to-check scenarios for the eleven bugs of Section 8 (Table 2),
//! plus the enumerable **scenario registry**.
//!
//! Each scenario pairs the application variant containing the bug with the
//! topology, host models, send policy and the correctness property that the
//! paper reports as detecting it. The benchmark harness iterates over
//! [`BugId::ALL`] × the four search strategies to regenerate Table 2.
//!
//! [`BugId::BugXII`] extends the table beyond the paper: a fault-injection
//! scenario ([`ScenarioEntry::requires_faults`]) whose violation only exists
//! when the checker schedules switch crashes, and whose fixed counterpart
//! survives the same crashes by re-sending unconfirmed packets.
//!
//! [`registry`] enumerates every bug/fixed pair as a [`ScenarioEntry`] —
//! name, application, bug, expected violation and a `build()` constructor —
//! so sweeps, CLIs and CI jobs can iterate over "everything NICE knows how
//! to check" without hand-wiring [`bug_scenario`]/[`fixed_scenario`] call
//! sites.

use crate::energyte::{EnergyTeApp, EnergyTeConfig, UseCorrectRoutingTable};
use crate::loadbalancer::{LoadBalancerApp, LoadBalancerConfig};
use crate::pyswitch::{PySwitchApp, PySwitchVariant};
use nice_hosts::{ClientHost, HostModel, MobileHost, SendBudget, ServerHost};
use nice_mc::properties::{
    FlowAffinity, NoAbandonedPackets, NoBlackHoles, NoForgottenPackets, NoForwardingLoops,
    Property, StrictDirectPaths,
};
use nice_mc::{FaultPlan, Scenario, SendPolicy};
use nice_openflow::{EthType, HostId, Location, MacAddr, NwAddr, Packet, PortId, Topology};
use nice_sym::{PacketDomains, StatsDomains};

/// The bugs reported in Section 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum BugId {
    BugI,
    BugII,
    BugIII,
    BugIV,
    BugV,
    BugVI,
    BugVII,
    BugVIII,
    BugIX,
    BugX,
    BugXI,
    BugXII,
}

impl BugId {
    /// All bugs, in Table 2 order (the fault-injection scenario last).
    pub const ALL: [BugId; 12] = [
        BugId::BugI,
        BugId::BugII,
        BugId::BugIII,
        BugId::BugIV,
        BugId::BugV,
        BugId::BugVI,
        BugId::BugVII,
        BugId::BugVIII,
        BugId::BugIX,
        BugId::BugX,
        BugId::BugXI,
        BugId::BugXII,
    ];

    /// The Roman-numeral label used in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            BugId::BugI => "I",
            BugId::BugII => "II",
            BugId::BugIII => "III",
            BugId::BugIV => "IV",
            BugId::BugV => "V",
            BugId::BugVI => "VI",
            BugId::BugVII => "VII",
            BugId::BugVIII => "VIII",
            BugId::BugIX => "IX",
            BugId::BugX => "X",
            BugId::BugXI => "XI",
            BugId::BugXII => "XII",
        }
    }

    /// The application the bug belongs to.
    pub fn application(&self) -> &'static str {
        match self {
            BugId::BugI | BugId::BugII | BugId::BugIII | BugId::BugXII => "pyswitch",
            BugId::BugIV | BugId::BugV | BugId::BugVI | BugId::BugVII => "load-balancer",
            _ => "energy-te",
        }
    }

    /// The correctness property whose violation reveals the bug.
    pub fn property_name(&self) -> &'static str {
        match self {
            BugId::BugI => "NoBlackHoles",
            BugId::BugII => "StrictDirectPaths",
            BugId::BugIII => "NoForwardingLoops",
            BugId::BugIV | BugId::BugV | BugId::BugVI => "NoForgottenPackets",
            BugId::BugVII => "FlowAffinity",
            BugId::BugVIII | BugId::BugIX | BugId::BugXI => "NoForgottenPackets",
            BugId::BugX => "UseCorrectRoutingTable",
            BugId::BugXII => "NoAbandonedPackets",
        }
    }

    /// True if the bug's violation only exists under fault injection: its
    /// scenarios carry an enabled [`FaultPlan`], and checking them without
    /// `CheckerConfig::with_fault_injection(true)` is expected to pass.
    pub fn requires_faults(&self) -> bool {
        matches!(self, BugId::BugXII)
    }

    /// The registry name of the scenario exhibiting this bug (what
    /// [`bug_scenario`] builds and `nice run` takes).
    pub fn scenario_name(&self) -> &'static str {
        match self {
            BugId::BugI => "bug-i-host-unreachable-after-moving",
            BugId::BugII => "bug-ii-delayed-direct-path",
            BugId::BugIII => "bug-iii-excess-flooding",
            BugId::BugIV => "bug-iv-next-packet-dropped",
            BugId::BugV => "bug-v-packets-dropped-in-transition",
            BugId::BugVI => "bug-vi-arp-packets-forgotten",
            BugId::BugVII => "bug-vii-duplicate-syn",
            BugId::BugVIII => "bug-viii-first-packet-dropped",
            BugId::BugIX => "bug-ix-intermediate-switch-packets-dropped",
            BugId::BugX => "bug-x-only-on-demand-routes",
            BugId::BugXI => "bug-xi-packets-dropped-on-scale-down",
            BugId::BugXII => "bug-xii-packet-lost-on-switch-crash",
        }
    }

    /// The registry name of the fixed counterpart, where one exists.
    pub fn fixed_scenario_name(&self) -> Option<&'static str> {
        match self {
            BugId::BugII => Some("bug-ii-fixed"),
            BugId::BugIV => Some("bug-iv-fixed"),
            BugId::BugVI => Some("bug-vi-fixed"),
            BugId::BugVIII => Some("bug-viii-fixed"),
            BugId::BugX => Some("bug-x-fixed"),
            BugId::BugXII => Some("bug-xii-fixed"),
            _ => None,
        }
    }

    /// A one-line description (from Section 8).
    pub fn description(&self) -> &'static str {
        match self {
            BugId::BugI => "host unreachable after moving",
            BugId::BugII => "delayed direct path",
            BugId::BugIII => "excess flooding",
            BugId::BugIV => "next TCP packet always dropped after reconfiguration",
            BugId::BugV => "some TCP packets dropped after reconfiguration",
            BugId::BugVI => "ARP packets forgotten during address resolution",
            BugId::BugVII => "duplicate SYN packets during transitions",
            BugId::BugVIII => "first packet of a new flow is dropped",
            BugId::BugIX => "first few packets of a new flow can be dropped",
            BugId::BugX => "only on-demand routes used under high load",
            BugId::BugXI => "packets can be dropped when the load reduces",
            BugId::BugXII => "controller-acknowledged packets lost when a switch crashes",
        }
    }
}

/// The virtual IP used by the load-balancer scenarios.
pub fn load_balancer_vip() -> NwAddr {
    NwAddr::from_octets(10, 0, 0, 100)
}

fn l2_domains(topology: &Topology) -> PacketDomains {
    PacketDomains::from_topology(topology)
        .with_eth_types(vec![EthType::L2Ping.value() as u64])
        .with_ports(vec![0])
        .with_payloads(vec![0])
}

fn lb_domains(topology: &Topology) -> PacketDomains {
    let vip = load_balancer_vip();
    let mut domains = PacketDomains::from_topology(topology)
        .with_eth_types(vec![
            EthType::Ipv4.value() as u64,
            EthType::Arp.value() as u64,
        ])
        .with_ports(vec![1000, 80])
        .with_payloads(vec![0]);
    domains.ips.push(vip.value() as u64);
    domains
}

fn pyswitch_scenario(
    name: &str,
    variant: PySwitchVariant,
    topology: Topology,
    mobile_b: bool,
    sends: u32,
    property: Box<dyn Property>,
) -> Scenario {
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let domains = l2_domains(&topology);

    let b: Box<dyn HostModel> = if mobile_b {
        // The mobile host can move to the spare port of its own switch.
        let targets = vec![Location {
            switch: host_b.location.switch,
            port: PortId(3),
        }];
        Box::new(MobileHost::new(host_b, SendBudget::SILENT, targets).with_echo())
    } else {
        Box::new(ClientHost::new(host_b, SendBudget::SILENT).with_echo())
    };
    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(
            host_a,
            SendBudget::sends_with_burst(sends, 1),
        )),
        b,
    ];

    Scenario::builder(name)
        .topology(topology)
        .app(Box::new(PySwitchApp::new(variant)))
        .hosts(hosts)
        .send_policy(SendPolicy::Discover)
        .packet_domains(domains)
        .property(property)
        .build()
}

fn load_balancer_scenario(
    name: &str,
    config: LoadBalancerConfig,
    sends: u32,
    property: Box<dyn Property>,
) -> Scenario {
    let topology = Topology::single_switch(3);
    let client = *topology.host(HostId(1)).unwrap();
    let replica1 = *topology.host(HostId(2)).unwrap();
    let replica2 = *topology.host(HostId(3)).unwrap();
    let vip = load_balancer_vip();
    let domains = lb_domains(&topology);

    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(
            client,
            SendBudget::sends_with_burst(sends, 2),
        )),
        Box::new(ServerHost::new(replica1).with_virtual_ip(vip)),
        Box::new(ServerHost::new(replica2).with_virtual_ip(vip)),
    ];

    Scenario::builder(name)
        .topology(topology)
        .app(Box::new(LoadBalancerApp::new(config)))
        .hosts(hosts)
        .send_policy(SendPolicy::Discover)
        .packet_domains(domains)
        .property(property)
        // Inert unless the checker enables fault injection: `--faults` runs
        // additionally explore duplicated control-plane messages (the load
        // balancer must be idempotent against them).
        .fault_plan(FaultPlan::duplicates(2))
        .build()
}

fn energy_te_scenario(
    name: &str,
    config: EnergyTeConfig,
    flows: &[(u32, u32)],
    property: Box<dyn Property>,
) -> Scenario {
    let topology = Topology::triangle();
    let sender = *topology.host(HostId(1)).unwrap();
    let recv1 = *topology.host(HostId(2)).unwrap();
    let recv2 = *topology.host(HostId(3)).unwrap();

    let script: Vec<Packet> = flows
        .iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            Packet::l2_ping(
                i as u64 + 1,
                MacAddr::for_host(*src),
                MacAddr::for_host(*dst),
                i as u32,
            )
        })
        .collect();
    let sends = script.len() as u32;

    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(sender, SendBudget::sends(sends))),
        Box::new(ClientHost::new(recv1, SendBudget::SILENT)),
        Box::new(ClientHost::new(recv2, SendBudget::SILENT)),
    ];

    let threshold = config.utilization_threshold;
    Scenario::builder(name)
        .topology(topology)
        .app(Box::new(EnergyTeApp::new(config)))
        .hosts(hosts)
        .scripted_sends([(HostId(1), script)])
        .stats_domains(StatsDomains::around_threshold(threshold))
        .property(property)
        .build()
}

/// A minimal single-switch ping workload checked under a one-crash
/// [`FaultPlan`]: the only way to lose the packet after the controller
/// acknowledged it is a switch crash wiping the in-flight `packet_out`, so
/// the violation (and the fix) only show up with fault injection enabled.
fn crash_pyswitch_scenario(name: &str, variant: PySwitchVariant) -> Scenario {
    let topology = Topology::single_switch(2);
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let script = vec![Packet::l2_ping(
        1,
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        0,
    )];

    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(host_a, SendBudget::sends(1))),
        Box::new(ClientHost::new(host_b, SendBudget::SILENT)),
    ];

    Scenario::builder(name)
        .topology(topology)
        .app(Box::new(PySwitchApp::new(variant)))
        .hosts(hosts)
        .scripted_sends([(HostId(1), script)])
        .property(Box::new(NoAbandonedPackets::new()))
        .fault_plan(FaultPlan::crashes(1))
        .build()
}

/// Builds the scenario that exhibits `bug` (Table 2 row).
pub fn bug_scenario(bug: BugId) -> Scenario {
    let name = bug.scenario_name();
    match bug {
        BugId::BugI => pyswitch_scenario(
            name,
            PySwitchVariant::Original,
            Topology::linear_two_switches(),
            true,
            3,
            Box::new(NoBlackHoles::new()),
        ),
        BugId::BugII => pyswitch_scenario(
            name,
            PySwitchVariant::Original,
            Topology::linear_two_switches(),
            false,
            2,
            Box::new(StrictDirectPaths::new()),
        ),
        BugId::BugIII => pyswitch_scenario(
            name,
            PySwitchVariant::Original,
            Topology::triangle(),
            false,
            1,
            Box::new(NoForwardingLoops::new()),
        ),
        BugId::BugIV => {
            let mut config = LoadBalancerConfig::correct(load_balancer_vip());
            config.bug_forget_packet_out = true;
            load_balancer_scenario(name, config, 1, Box::new(NoForgottenPackets::new()))
        }
        BugId::BugV => {
            let mut config =
                LoadBalancerConfig::correct(load_balancer_vip()).with_reconfiguration_after(1);
            config.bug_ignore_unexpected_reason = true;
            load_balancer_scenario(name, config, 2, Box::new(NoForgottenPackets::new()))
        }
        BugId::BugVI => {
            let mut config = LoadBalancerConfig::correct(load_balancer_vip());
            config.bug_forget_arp_buffer = true;
            load_balancer_scenario(name, config, 1, Box::new(NoForgottenPackets::new()))
        }
        BugId::BugVII => {
            let config =
                LoadBalancerConfig::correct(load_balancer_vip()).with_reconfiguration_after(1);
            load_balancer_scenario(
                name,
                config,
                3,
                Box::new(FlowAffinity::new([HostId(2), HostId(3)])),
            )
        }
        BugId::BugVIII => {
            let mut config = EnergyTeConfig::triangle_default();
            config.bug_forget_packet_out = true;
            energy_te_scenario(name, config, &[(1, 2)], Box::new(NoForgottenPackets::new()))
        }
        BugId::BugIX => {
            let mut config = EnergyTeConfig::triangle_default();
            config.bug_ignore_intermediate = true;
            energy_te_scenario(name, config, &[(1, 2)], Box::new(NoForgottenPackets::new()))
        }
        BugId::BugX => {
            let mut config = EnergyTeConfig::triangle_default();
            config.bug_single_table_pointer = true;
            energy_te_scenario(
                name,
                config,
                &[(1, 2), (1, 3)],
                Box::new(UseCorrectRoutingTable::new()),
            )
        }
        BugId::BugXI => {
            let mut config = EnergyTeConfig::triangle_default();
            config.bug_ignore_after_scale_down = true;
            config.stats_polls = 2;
            energy_te_scenario(
                name,
                config,
                &[(1, 2), (1, 3)],
                Box::new(NoForgottenPackets::new()),
            )
        }
        BugId::BugXII => crash_pyswitch_scenario(name, PySwitchVariant::Original),
    }
}

/// Builds the *fixed* counterpart of a bug scenario, where one exists: same
/// topology and workload, but with the fix applied. Used to demonstrate that
/// the fixes eliminate the violations.
pub fn fixed_scenario(bug: BugId) -> Option<Scenario> {
    match bug {
        BugId::BugII => Some(pyswitch_scenario(
            bug.fixed_scenario_name().unwrap(),
            PySwitchVariant::FixedTwoWayInstall,
            Topology::linear_two_switches(),
            false,
            2,
            Box::new(StrictDirectPaths::new()),
        )),
        BugId::BugIV => Some(load_balancer_scenario(
            bug.fixed_scenario_name().unwrap(),
            LoadBalancerConfig::correct(load_balancer_vip()),
            1,
            Box::new(NoForgottenPackets::new()),
        )),
        BugId::BugVI => Some(load_balancer_scenario(
            bug.fixed_scenario_name().unwrap(),
            LoadBalancerConfig::correct(load_balancer_vip()),
            1,
            Box::new(NoForgottenPackets::new()),
        )),
        BugId::BugVIII => Some(energy_te_scenario(
            bug.fixed_scenario_name().unwrap(),
            EnergyTeConfig::triangle_default(),
            &[(1, 2)],
            Box::new(NoForgottenPackets::new()),
        )),
        BugId::BugX => Some(energy_te_scenario(
            bug.fixed_scenario_name().unwrap(),
            EnergyTeConfig::triangle_default(),
            &[(1, 2), (1, 3)],
            Box::new(UseCorrectRoutingTable::new()),
        )),
        BugId::BugXII => Some(crash_pyswitch_scenario(
            bug.fixed_scenario_name().unwrap(),
            PySwitchVariant::CrashResilient,
        )),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The scenario registry
// ---------------------------------------------------------------------------

/// Whether a registry entry carries the published bug or its fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The application variant containing the bug: the check is expected to
    /// find the violation named by [`ScenarioEntry::expected_violation`].
    Buggy,
    /// The fixed counterpart: the same workload is expected to pass.
    Fixed,
}

/// One enumerable, ready-to-build scenario of the registry.
#[derive(Debug, Clone)]
pub struct ScenarioEntry {
    /// The scenario's unique name (identical to the built
    /// [`Scenario::name`]) — what `nice run <name>` takes.
    pub name: String,
    /// Which application the scenario exercises ("pyswitch",
    /// "load-balancer" or "energy-te").
    pub app: &'static str,
    /// The Section 8 bug the scenario reproduces (or whose fix it verifies).
    pub bug: BugId,
    /// Bug or fixed variant.
    pub kind: ScenarioKind,
    /// The property the check is expected to report violated, or `None`
    /// when the scenario is expected to pass (the fixed variants).
    pub expected_violation: Option<&'static str>,
    /// True if the scenario carries an enabled [`FaultPlan`] and
    /// [`ScenarioEntry::expected_violation`] only applies when the checker
    /// runs with fault injection enabled; without it the scenario is
    /// expected to pass.
    pub requires_faults: bool,
}

impl ScenarioEntry {
    /// Builds a fresh copy of the scenario.
    pub fn build(&self) -> Scenario {
        match self.kind {
            ScenarioKind::Buggy => bug_scenario(self.bug),
            ScenarioKind::Fixed => fixed_scenario(self.bug)
                .expect("registry only lists fixed entries for bugs with a fix"),
        }
    }

    /// The property this scenario checks (violated by the buggy variant,
    /// satisfied by the fixed one).
    pub fn property(&self) -> &'static str {
        self.bug.property_name()
    }
}

/// Every scenario NICE ships: a bug entry per [`BugId`] (Table 2 order)
/// followed by the fixed counterpart where one exists. Names are unique, so
/// [`find_scenario`] can resolve them.
pub fn registry() -> Vec<ScenarioEntry> {
    // Names come from the static tables on `BugId`, so enumerating (or
    // resolving) the registry never constructs a scenario; the registry
    // test pins `entry.build().name == entry.name` for every entry.
    let mut entries = Vec::new();
    for bug in BugId::ALL {
        entries.push(ScenarioEntry {
            name: bug.scenario_name().to_string(),
            app: bug.application(),
            bug,
            kind: ScenarioKind::Buggy,
            expected_violation: Some(bug.property_name()),
            requires_faults: bug.requires_faults(),
        });
        if let Some(fixed_name) = bug.fixed_scenario_name() {
            entries.push(ScenarioEntry {
                name: fixed_name.to_string(),
                app: bug.application(),
                bug,
                kind: ScenarioKind::Fixed,
                expected_violation: None,
                requires_faults: bug.requires_faults(),
            });
        }
    }
    entries
}

/// Looks a scenario up by its registry name.
pub fn find_scenario(name: &str) -> Option<ScenarioEntry> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_mc::{CheckerConfig, ModelChecker};

    #[test]
    fn registry_is_complete_and_names_are_unique() {
        let entries = registry();
        // Every bug has exactly one Buggy entry with the right expectation.
        for bug in BugId::ALL {
            let buggy: Vec<_> = entries
                .iter()
                .filter(|e| e.bug == bug && e.kind == ScenarioKind::Buggy)
                .collect();
            assert_eq!(buggy.len(), 1, "{bug:?}");
            assert_eq!(buggy[0].expected_violation, Some(bug.property_name()));
            assert_eq!(buggy[0].app, bug.application());
            // Fixed entries exist exactly where a fixed scenario does.
            let has_fixed = entries
                .iter()
                .any(|e| e.bug == bug && e.kind == ScenarioKind::Fixed);
            assert_eq!(has_fixed, fixed_scenario(bug).is_some(), "{bug:?}");
        }
        // Names are unique and resolvable, and building an entry yields a
        // scenario of the same name with exactly one property.
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "registry names must be unique");
        for entry in &entries {
            let scenario = entry.build();
            assert_eq!(scenario.name, entry.name);
            assert_eq!(scenario.properties.len(), 1, "{}", entry.name);
            assert_eq!(scenario.properties[0].name(), entry.property());
            assert_eq!(
                find_scenario(&entry.name).map(|e| e.kind),
                Some(entry.kind),
                "{}",
                entry.name
            );
        }
        assert!(find_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn every_bug_has_a_scenario_with_one_property() {
        for bug in BugId::ALL {
            let scenario = bug_scenario(bug);
            assert_eq!(scenario.properties.len(), 1, "{bug:?}");
            assert!(!scenario.name.is_empty());
            assert!(!bug.label().is_empty());
            assert!(!bug.description().is_empty());
            assert!(!bug.application().is_empty());
            assert!(!bug.property_name().is_empty());
        }
    }

    #[test]
    fn bug_iv_is_detected_quickly() {
        let report = ModelChecker::new(
            bug_scenario(BugId::BugIV),
            CheckerConfig::default().with_max_transitions(50_000),
        )
        .run();
        assert!(
            !report.violations.is_empty(),
            "BUG-IV must be detected: {report}"
        );
        assert_eq!(
            report.first_violation().unwrap().property,
            "NoForgottenPackets"
        );
    }

    #[test]
    fn bug_viii_is_detected_and_its_fix_passes() {
        let report = ModelChecker::new(
            bug_scenario(BugId::BugVIII),
            CheckerConfig::default().with_max_transitions(50_000),
        )
        .run();
        assert!(
            !report.violations.is_empty(),
            "BUG-VIII must be detected: {report}"
        );

        let fixed = ModelChecker::new(
            fixed_scenario(BugId::BugVIII).unwrap(),
            CheckerConfig::default().with_max_transitions(50_000),
        )
        .run();
        assert!(
            fixed.passed(),
            "the fixed TE app must not violate NoForgottenPackets: {fixed}"
        );
    }

    #[test]
    fn bug_xii_is_found_only_under_fault_injection_and_its_fix_survives() {
        // Without fault injection the crash bug is invisible: the FaultPlan
        // is carried by the scenario but no fault transition is scheduled.
        let quiet = ModelChecker::new(bug_scenario(BugId::BugXII), CheckerConfig::default()).run();
        assert!(quiet.passed(), "no violation without faults: {quiet}");
        assert!(!quiet.stats.faults.any());

        let config = CheckerConfig::default().with_fault_injection(true);
        let report = ModelChecker::new(bug_scenario(BugId::BugXII), config.clone()).run();
        assert!(
            !report.violations.is_empty(),
            "BUG-XII must be detected: {report}"
        );
        assert_eq!(
            report.first_violation().unwrap().property,
            "NoAbandonedPackets"
        );
        assert!(report.stats.faults.crashes > 0, "{report}");

        // The resilient variant explores the same crashes exhaustively and
        // re-delivers every acknowledged packet.
        let fixed = ModelChecker::new(fixed_scenario(BugId::BugXII).unwrap(), config).run();
        assert!(fixed.passed(), "the resilient fix must survive: {fixed}");
        assert!(fixed.stats.faults.crashes > 0, "{fixed}");
        assert!(!fixed.stats.truncated);
    }

    #[test]
    fn bug_iii_forwarding_loop_is_detected() {
        let report = ModelChecker::new(
            bug_scenario(BugId::BugIII),
            CheckerConfig::default().with_max_transitions(100_000),
        )
        .run();
        assert!(
            !report.violations.is_empty(),
            "BUG-III must be detected: {report}"
        );
        assert_eq!(
            report.first_violation().unwrap().property,
            "NoForwardingLoops"
        );
    }
}
