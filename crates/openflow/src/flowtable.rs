//! The switch flow table with canonical representation.
//!
//! Section 2.2.2 of the paper: *"a flow table can easily have two states that
//! appear different but are semantically equivalent […] we construct a
//! canonical representation of the flow table that derives a unique order of
//! rules with overlapping patterns."*
//!
//! Rules are kept sorted by `(priority descending, canonical pattern order,
//! action list)`. Lookup honours OpenFlow semantics — the highest-priority
//! matching rule wins — and the canonical order makes the relative position
//! of non-overlapping equal-priority rules irrelevant for both lookup and
//! fingerprinting. Disabling canonicalisation (keeping insertion order)
//! reproduces the `NO-SWITCH-REDUCTION` baseline of Table 1.

use crate::action::Action;
use crate::fingerprint::{Fingerprint, Fnv64};
use crate::matchfields::MatchPattern;
use crate::packet::Packet;
use crate::stats::FlowStatsEntry;
use crate::types::PortId;
use std::fmt;

/// Soft (idle) and hard timeouts attached to a rule.
///
/// The model checker does not advance wall-clock time and no rule ever
/// expires; timeouts are recorded so that the application code can reason
/// about them, matching how the paper discusses BUG-I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timeouts {
    /// Idle (soft) timeout in abstract seconds; `None` means permanent.
    pub idle: Option<u32>,
    /// Hard timeout in abstract seconds; `None` means permanent.
    pub hard: Option<u32>,
}

impl Timeouts {
    /// A permanent rule (no timeouts), `hard_timer=PERMANENT` in Figure 3.
    pub const PERMANENT: Timeouts = Timeouts {
        idle: None,
        hard: None,
    };

    /// The pyswitch default: `soft_timer=5`, `hard_timer=PERMANENT`.
    pub const SOFT_5: Timeouts = Timeouts {
        idle: Some(5),
        hard: None,
    };

    /// True if the rule can ever expire.
    pub fn can_expire(&self) -> bool {
        self.idle.is_some() || self.hard.is_some()
    }
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts::PERMANENT
    }
}

/// Per-rule traffic counters (Section 1.1: "for each rule, the switch
/// maintains traffic counters that measure the bytes and packets processed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RuleCounters {
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
}

/// One entry of the flow table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowRule {
    /// Match pattern.
    pub pattern: MatchPattern,
    /// Priority; higher wins. OpenFlow exact-match rules conventionally get
    /// the maximum priority.
    pub priority: u16,
    /// Action list applied to matching packets, in order.
    pub actions: Vec<Action>,
    /// Timeouts.
    pub timeouts: Timeouts,
    /// Traffic counters.
    pub counters: RuleCounters,
    /// Opaque application-chosen cookie, echoed in stats and useful for
    /// debugging which handler installed the rule.
    pub cookie: u64,
}

impl FlowRule {
    /// Creates a rule with zeroed counters.
    pub fn new(pattern: MatchPattern, priority: u16, actions: Vec<Action>) -> Self {
        FlowRule {
            pattern,
            priority,
            actions,
            timeouts: Timeouts::default(),
            counters: RuleCounters::default(),
            cookie: 0,
        }
    }

    /// Sets the timeouts (builder style).
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Sets the cookie (builder style).
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// The canonical sort key: priority descending, then pattern order,
    /// then actions.
    fn canonical_key(&self) -> (u16, &MatchPattern, &Vec<Action>) {
        (u16::MAX - self.priority, &self.pattern, &self.actions)
    }
}

impl fmt::Display for FlowRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let actions: Vec<String> = self.actions.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "prio={} match[{}] actions[{}] pkts={}",
            self.priority,
            self.pattern,
            actions.join(","),
            self.counters.packets
        )
    }
}

/// The lookup outcome for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableLookup {
    /// A rule matched; contains the canonical index of the winning rule and a
    /// copy of its action list.
    Match {
        /// Canonical index of the rule that matched.
        rule_index: usize,
        /// The matched rule's actions.
        actions: Vec<Action>,
    },
    /// No rule matched; per the OpenFlow specification the packet goes to the
    /// controller.
    Miss,
}

/// The flow table of one switch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
    /// When `true` (the default, NICE's simplified switch model), rules are
    /// kept in canonical order so equivalent tables fingerprint identically.
    /// When `false`, insertion order is preserved (NO-SWITCH-REDUCTION).
    canonical: bool,
}

impl FlowTable {
    /// Creates an empty table with canonicalisation enabled.
    pub fn new() -> Self {
        FlowTable {
            rules: Vec::new(),
            canonical: true,
        }
    }

    /// Creates an empty table with canonicalisation disabled
    /// (the NO-SWITCH-REDUCTION baseline of Table 1).
    pub fn new_without_reduction() -> Self {
        FlowTable {
            rules: Vec::new(),
            canonical: false,
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules in their stored (canonical) order.
    pub fn rules(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter()
    }

    /// Returns the rule at `index` in stored order.
    pub fn rule(&self, index: usize) -> Option<&FlowRule> {
        self.rules.get(index)
    }

    /// Installs a rule. A rule with an identical pattern and priority
    /// replaces the existing entry (counters reset), which is OpenFlow
    /// `ADD` semantics.
    pub fn add_rule(&mut self, rule: FlowRule) {
        if let Some(existing) = self
            .rules
            .iter_mut()
            .find(|r| r.pattern == rule.pattern && r.priority == rule.priority)
        {
            *existing = rule;
        } else {
            self.rules.push(rule);
        }
        self.restore_order();
    }

    /// Removes every rule whose pattern *exactly equals* `pattern`
    /// (OpenFlow strict delete). Returns the number of rules removed.
    pub fn delete_strict(&mut self, pattern: &MatchPattern, priority: u16) -> usize {
        let before = self.rules.len();
        self.rules
            .retain(|r| !(r.pattern == *pattern && r.priority == priority));
        before - self.rules.len()
    }

    /// Removes every rule whose pattern overlaps `pattern` (OpenFlow
    /// non-strict delete uses subset semantics; the applications modelled here
    /// only delete rules they installed, so overlap is an adequate and
    /// conservative interpretation). Returns the number of rules removed.
    pub fn delete_matching(&mut self, pattern: &MatchPattern) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !pattern.overlaps(&r.pattern));
        before - self.rules.len()
    }

    /// Removes the rule at canonical index `index`, e.g. when a timeout fires.
    pub fn remove_index(&mut self, index: usize) -> Option<FlowRule> {
        if index < self.rules.len() {
            Some(self.rules.remove(index))
        } else {
            None
        }
    }

    /// Canonical index of the highest-priority rule matching `pkt` on
    /// `in_port`.
    fn best_match(&self, pkt: &Packet, in_port: PortId) -> Option<usize> {
        let mut best: Option<(usize, u16, u32)> = None;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.pattern.matches(pkt, in_port) {
                let key = (i, rule.priority, rule.pattern.specificity());
                best = match best {
                    None => Some(key),
                    Some((bi, bp, bs)) => {
                        // Higher priority wins; ties broken by specificity,
                        // then by canonical position (stable).
                        if rule.priority > bp
                            || (rule.priority == bp && rule.pattern.specificity() > bs)
                        {
                            Some(key)
                        } else {
                            Some((bi, bp, bs))
                        }
                    }
                };
            }
        }
        best.map(|(index, _, _)| index)
    }

    /// The actions of the rule [`lookup`](Self::lookup) would pick, borrowed
    /// from the table; `None` on a miss.
    pub fn matching_actions(&self, pkt: &Packet, in_port: PortId) -> Option<&[Action]> {
        let index = self.best_match(pkt, in_port)?;
        Some(&self.rules[index].actions)
    }

    /// Looks up the highest-priority rule matching `pkt` on `in_port`
    /// *without* updating counters.
    pub fn lookup(&self, pkt: &Packet, in_port: PortId) -> TableLookup {
        match self.best_match(pkt, in_port) {
            Some(rule_index) => TableLookup::Match {
                rule_index,
                actions: self.rules[rule_index].actions.clone(),
            },
            None => TableLookup::Miss,
        }
    }

    /// Looks up and, on a hit, updates the winning rule's counters — the
    /// "match the highest-priority rule, update the counters, perform the
    /// actions" pipeline of Section 1.1.
    pub fn process(&mut self, pkt: &Packet, in_port: PortId) -> TableLookup {
        let result = self.lookup(pkt, in_port);
        if let TableLookup::Match { rule_index, .. } = &result {
            let rule = &mut self.rules[*rule_index];
            rule.counters.packets += 1;
            rule.counters.bytes += pkt.byte_size();
        }
        result
    }

    /// Per-rule statistics in canonical order (flow-stats reply payload).
    pub fn flow_stats(&self) -> Vec<FlowStatsEntry> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| FlowStatsEntry {
                rule_index: i,
                packets: r.counters.packets,
                bytes: r.counters.bytes,
            })
            .collect()
    }

    /// Re-establishes the canonical order after a mutation.
    fn restore_order(&mut self) {
        if self.canonical {
            self.rules.sort_by(|a, b| {
                let ka = a.canonical_key();
                let kb = b.canonical_key();
                ka.0.cmp(&kb.0)
                    .then_with(|| ka.1.canonical_cmp(kb.1))
                    .then_with(|| ka.2.cmp(kb.2))
            });
        }
    }
}

impl Fingerprint for RuleCounters {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_u64(self.packets);
        hasher.write_u64(self.bytes);
    }
}

impl Fingerprint for Timeouts {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        match self.idle {
            None => hasher.write_u8(0),
            Some(v) => {
                hasher.write_u8(1);
                hasher.write_u32(v);
            }
        }
        match self.hard {
            None => hasher.write_u8(0),
            Some(v) => {
                hasher.write_u8(1);
                hasher.write_u32(v);
            }
        }
    }
}

impl Fingerprint for FlowRule {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        self.pattern.fingerprint(hasher);
        hasher.write_u16(self.priority);
        self.actions.fingerprint(hasher);
        self.timeouts.fingerprint(hasher);
        self.counters.fingerprint(hasher);
        hasher.write_u64(self.cookie);
    }
}

impl Fingerprint for FlowTable {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        // The stored order *is* the canonical order when canonicalisation is
        // enabled; with it disabled, insertion order leaks into the
        // fingerprint — which is exactly the NO-SWITCH-REDUCTION behaviour
        // the paper measures against.
        self.rules.fingerprint(hasher);
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() {
            return write!(f, "<empty flow table>");
        }
        for (i, rule) in self.rules.iter().enumerate() {
            writeln!(f, "  [{}] {}", i, rule)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;
    use crate::types::{MacAddr, NwAddr};

    fn ping(src: u32, dst: u32) -> Packet {
        Packet::l2_ping(1, MacAddr::for_host(src), MacAddr::for_host(dst), 0)
    }

    fn rule_for(src: u32, dst: u32, out: u16) -> FlowRule {
        let pkt = ping(src, dst);
        FlowRule::new(
            MatchPattern::l2_flow(&pkt, PortId(1)),
            100,
            vec![Action::Output(PortId(out))],
        )
    }

    #[test]
    fn empty_table_misses() {
        let table = FlowTable::new();
        assert!(table.is_empty());
        assert_eq!(table.lookup(&ping(1, 2), PortId(1)), TableLookup::Miss);
    }

    #[test]
    fn lookup_matches_installed_rule() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 7));
        match table.lookup(&ping(1, 2), PortId(1)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(7))]);
            }
            TableLookup::Miss => panic!("expected a match"),
        }
        // Different in_port: the l2_flow pattern pins the input port.
        assert_eq!(table.lookup(&ping(1, 2), PortId(9)), TableLookup::Miss);
    }

    #[test]
    fn process_updates_counters() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 7));
        table.process(&ping(1, 2), PortId(1));
        table.process(&ping(1, 2), PortId(1));
        let stats = table.flow_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].packets, 2);
        assert!(stats[0].bytes >= 128);
    }

    #[test]
    fn higher_priority_wins() {
        let mut table = FlowTable::new();
        let pkt = ping(1, 2);
        table.add_rule(FlowRule::new(MatchPattern::any(), 1, vec![Action::Drop]));
        table.add_rule(FlowRule::new(
            MatchPattern::l2_flow(&pkt, PortId(1)),
            200,
            vec![Action::Output(PortId(3))],
        ));
        match table.lookup(&pkt, PortId(1)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(3))])
            }
            TableLookup::Miss => panic!("expected match"),
        }
        // A packet only matching the wildcard falls back to it.
        match table.lookup(&ping(5, 6), PortId(1)) {
            TableLookup::Match { actions, .. } => assert_eq!(actions, vec![Action::Drop]),
            TableLookup::Miss => panic!("expected wildcard match"),
        }
    }

    #[test]
    fn equal_priority_tie_broken_by_specificity() {
        let mut table = FlowTable::new();
        let pkt = ping(1, 2);
        table.add_rule(FlowRule::new(
            MatchPattern::l2_dst_only(pkt.dst_mac),
            100,
            vec![Action::Output(PortId(1))],
        ));
        table.add_rule(FlowRule::new(
            MatchPattern::l2_flow(&pkt, PortId(1)),
            100,
            vec![Action::Output(PortId(2))],
        ));
        match table.lookup(&pkt, PortId(1)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(2))])
            }
            TableLookup::Miss => panic!("expected match"),
        }
    }

    #[test]
    fn canonical_order_is_insertion_independent() {
        // Two non-overlapping microflow rules: Section 2.2.2's motivating
        // example — their order must not matter.
        let r1 = rule_for(1, 2, 3);
        let r2 = rule_for(2, 1, 4);

        let mut a = FlowTable::new();
        a.add_rule(r1.clone());
        a.add_rule(r2.clone());

        let mut b = FlowTable::new();
        b.add_rule(r2);
        b.add_rule(r1);

        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn without_reduction_order_leaks_into_fingerprint() {
        let r1 = rule_for(1, 2, 3);
        let r2 = rule_for(2, 1, 4);

        let mut a = FlowTable::new_without_reduction();
        a.add_rule(r1.clone());
        a.add_rule(r2.clone());

        let mut b = FlowTable::new_without_reduction();
        b.add_rule(r2);
        b.add_rule(r1);

        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn add_same_pattern_replaces() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 3));
        table.process(&ping(1, 2), PortId(1));
        table.add_rule(rule_for(1, 2, 9));
        assert_eq!(table.len(), 1);
        // Counters reset on replacement.
        assert_eq!(table.flow_stats()[0].packets, 0);
        match table.lookup(&ping(1, 2), PortId(1)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(9))])
            }
            TableLookup::Miss => panic!("expected match"),
        }
    }

    #[test]
    fn strict_delete_removes_exact_rule_only() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 3));
        table.add_rule(rule_for(2, 1, 4));
        let pat = MatchPattern::l2_flow(&ping(1, 2), PortId(1));
        assert_eq!(table.delete_strict(&pat, 100), 1);
        assert_eq!(table.len(), 1);
        assert_eq!(table.delete_strict(&pat, 100), 0);
    }

    #[test]
    fn delete_matching_removes_overlapping_rules() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 3));
        table.add_rule(rule_for(2, 1, 4));
        // A fully-wildcarded delete clears the table.
        assert_eq!(table.delete_matching(&MatchPattern::any()), 2);
        assert!(table.is_empty());
    }

    #[test]
    fn wildcard_prefix_rules_for_load_balancer() {
        use crate::matchfields::PrefixMatch;
        let vip = NwAddr::from_octets(10, 0, 0, 100);
        let mut table = FlowTable::new();
        // Split clients into two halves of the address space.
        table.add_rule(FlowRule::new(
            MatchPattern::ip_src_prefix(PrefixMatch::prefix(NwAddr(0), 1), vip),
            50,
            vec![Action::Output(PortId(1))],
        ));
        table.add_rule(FlowRule::new(
            MatchPattern::ip_src_prefix(PrefixMatch::prefix(NwAddr(0x8000_0000), 1), vip),
            50,
            vec![Action::Output(PortId(2))],
        ));
        let mut pkt = Packet::tcp(
            9,
            MacAddr::for_host(9),
            MacAddr::for_host(100),
            NwAddr(0x0a00_0001),
            vip,
            5555,
            80,
            crate::packet::TcpFlags::SYN,
            0,
        );
        match table.lookup(&pkt, PortId(3)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(1))])
            }
            TableLookup::Miss => panic!("expected low-half match"),
        }
        pkt.src_ip = NwAddr(0xc0a8_0001);
        match table.lookup(&pkt, PortId(3)) {
            TableLookup::Match { actions, .. } => {
                assert_eq!(actions, vec![Action::Output(PortId(2))])
            }
            TableLookup::Miss => panic!("expected high-half match"),
        }
    }

    #[test]
    fn remove_index_pops_rule() {
        let mut table = FlowTable::new();
        table.add_rule(rule_for(1, 2, 3));
        assert!(table.remove_index(0).is_some());
        assert!(table.remove_index(0).is_none());
    }

    #[test]
    fn display_renders_rules() {
        let mut table = FlowTable::new();
        assert!(table.to_string().contains("empty"));
        table.add_rule(rule_for(1, 2, 3));
        assert!(table.to_string().contains("prio=100"));
    }

    #[test]
    fn timeouts_flags() {
        assert!(!Timeouts::PERMANENT.can_expire());
        assert!(Timeouts::SOFT_5.can_expire());
        assert!(Timeouts {
            idle: None,
            hard: Some(10)
        }
        .can_expire());
    }
}
