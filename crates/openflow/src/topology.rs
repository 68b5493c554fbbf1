//! Network topology descriptions.
//!
//! A topology is the static input NICE receives alongside the controller
//! program (Figure 2): the switches with their ports, the end hosts with
//! their addresses and attachment points, and the switch-to-switch links.
//! Host *mobility* is dynamic state owned by the host models; the topology
//! only records the initial attachment and any spare ports a mobile host can
//! move to.

use crate::fingerprint::{Fingerprint, Hasher64};
use crate::types::{HostId, MacAddr, NwAddr, PortId, SwitchId};
use std::collections::BTreeMap;
use std::fmt;

/// A host attachment point: a switch and one of its ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// The switch the host is plugged into.
    pub switch: SwitchId,
    /// The switch port.
    pub port: PortId,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.switch, self.port)
    }
}

impl Fingerprint for Location {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.switch.fingerprint(hasher);
        self.port.fingerprint(hasher);
    }
}

/// What sits on the far side of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// An end host.
    Host(HostId),
    /// Another switch's port.
    SwitchPort(SwitchId, PortId),
    /// Nothing (an unused port; flooded copies sent here leave the network).
    Unconnected,
}

/// Description of one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Datapath id.
    pub id: SwitchId,
    /// Ports, ascending.
    pub ports: Vec<PortId>,
}

/// Description of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSpec {
    /// Host id.
    pub id: HostId,
    /// The host's MAC address.
    pub mac: MacAddr,
    /// The host's IPv4 address.
    pub ip: NwAddr,
    /// Initial attachment point.
    pub location: Location,
}

/// A bidirectional switch-to-switch link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One end.
    pub a: Location,
    /// The other end.
    pub b: Location,
}

/// A static network topology.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Topology {
    switches: BTreeMap<SwitchId, SwitchSpec>,
    hosts: BTreeMap<HostId, HostSpec>,
    links: Vec<LinkSpec>,
    /// Switch-port → endpoint adjacency derived from hosts and links.
    adjacency: BTreeMap<(SwitchId, PortId), Endpoint>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The switches, in id order.
    pub fn switches(&self) -> impl Iterator<Item = &SwitchSpec> {
        self.switches.values()
    }

    /// The hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = &HostSpec> {
        self.hosts.values()
    }

    /// The switch-to-switch links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Looks up a switch.
    pub fn switch(&self, id: SwitchId) -> Option<&SwitchSpec> {
        self.switches.get(&id)
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> Option<&HostSpec> {
        self.hosts.get(&id)
    }

    /// Finds the host owning a MAC address.
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<&HostSpec> {
        self.hosts.values().find(|h| h.mac == mac)
    }

    /// Finds the host owning an IP address.
    pub fn host_by_ip(&self, ip: NwAddr) -> Option<&HostSpec> {
        self.hosts.values().find(|h| h.ip == ip)
    }

    /// What the static topology says is connected to `(switch, port)`.
    /// Host mobility can override host attachments at run time.
    pub fn endpoint(&self, switch: SwitchId, port: PortId) -> Endpoint {
        self.adjacency
            .get(&(switch, port))
            .copied()
            .unwrap_or(Endpoint::Unconnected)
    }

    /// The peer switch port of a switch-to-switch link, if `(switch, port)`
    /// is one of its ends.
    pub fn switch_peer(&self, switch: SwitchId, port: PortId) -> Option<Location> {
        match self.endpoint(switch, port) {
            Endpoint::SwitchPort(s, p) => Some(Location { switch: s, port: p }),
            _ => None,
        }
    }

    /// Ports of `switch` that have no static endpoint; a mobile host can move
    /// to these.
    pub fn free_ports(&self, switch: SwitchId) -> Vec<PortId> {
        match self.switches.get(&switch) {
            None => Vec::new(),
            Some(spec) => spec
                .ports
                .iter()
                .copied()
                .filter(|&p| matches!(self.endpoint(switch, p), Endpoint::Unconnected))
                .collect(),
        }
    }

    /// All candidate MAC addresses in the system (hosts plus broadcast),
    /// the "domain knowledge" Section 3.2 uses to constrain symbolic packet
    /// fields.
    pub fn known_macs(&self) -> Vec<MacAddr> {
        let mut macs: Vec<MacAddr> = self.hosts.values().map(|h| h.mac).collect();
        macs.push(MacAddr::BROADCAST);
        macs.sort();
        macs.dedup();
        macs
    }

    /// All candidate IP addresses in the system.
    pub fn known_ips(&self) -> Vec<NwAddr> {
        let mut ips: Vec<NwAddr> = self.hosts.values().map(|h| h.ip).collect();
        ips.sort();
        ips.dedup();
        ips
    }

    // ----- Canned topologies used throughout the paper -----

    /// The Figure 1 / Section 7 topology: host A — switch 1 — switch 2 —
    /// host B. Hosts attach on port 1 of their switch; the inter-switch link
    /// uses port 2 on both switches. One extra free port (port 3) is left on
    /// each switch so a mobile host has somewhere to move (BUG-I).
    pub fn linear_two_switches() -> Topology {
        Topology::builder()
            .switch(SwitchId(1), &[1, 2, 3])
            .switch(SwitchId(2), &[1, 2, 3])
            .host(HostId(1), SwitchId(1), PortId(1))
            .host(HostId(2), SwitchId(2), PortId(1))
            .link(SwitchId(1), PortId(2), SwitchId(2), PortId(2))
            .build()
    }

    /// A single switch with `n` hosts attached on ports 1..=n, the topology
    /// used for the load balancer (one client plus two server replicas).
    pub fn single_switch(n: u32) -> Topology {
        let mut b =
            Topology::builder().switch(SwitchId(1), &(1..=(n as u16 + 1)).collect::<Vec<_>>());
        for h in 1..=n {
            b = b.host(HostId(h), SwitchId(1), PortId(h as u16));
        }
        b.build()
    }

    /// Three switches in a triangle with one sender host at switch 1 and two
    /// receiver hosts at switch 2; switch 3 lies on the on-demand path
    /// (Section 8.3). Also the smallest topology with a forwarding loop,
    /// used for BUG-III.
    pub fn triangle() -> Topology {
        Topology::builder()
            .switch(SwitchId(1), &[1, 2, 3, 4])
            .switch(SwitchId(2), &[1, 2, 3, 4])
            .switch(SwitchId(3), &[1, 2, 3])
            .host(HostId(1), SwitchId(1), PortId(1))
            .host(HostId(2), SwitchId(2), PortId(1))
            .host(HostId(3), SwitchId(2), PortId(4))
            .link(SwitchId(1), PortId(2), SwitchId(2), PortId(2))
            .link(SwitchId(1), PortId(3), SwitchId(3), PortId(1))
            .link(SwitchId(2), PortId(3), SwitchId(3), PortId(2))
            .build()
    }
}

/// Incremental [`Topology`] construction.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    switches: Vec<SwitchSpec>,
    hosts: Vec<(HostId, SwitchId, PortId)>,
    links: Vec<LinkSpec>,
}

impl TopologyBuilder {
    /// Adds a switch with the given port numbers.
    pub fn switch(mut self, id: SwitchId, ports: &[u16]) -> Self {
        self.switches.push(SwitchSpec {
            id,
            ports: ports.iter().map(|&p| PortId(p)).collect(),
        });
        self
    }

    /// Adds a host attached to `switch`/`port`. The host's MAC and IP are
    /// derived deterministically from its id.
    pub fn host(mut self, id: HostId, switch: SwitchId, port: PortId) -> Self {
        self.hosts.push((id, switch, port));
        self
    }

    /// Adds a bidirectional switch-to-switch link.
    pub fn link(mut self, sa: SwitchId, pa: PortId, sb: SwitchId, pb: PortId) -> Self {
        self.links.push(LinkSpec {
            a: Location {
                switch: sa,
                port: pa,
            },
            b: Location {
                switch: sb,
                port: pb,
            },
        });
        self
    }

    /// Finalises the topology.
    ///
    /// # Panics
    /// Panics if a host or link references a switch or port that does not
    /// exist, or if two entities claim the same port — catching malformed
    /// test topologies early.
    pub fn build(self) -> Topology {
        let mut topo = Topology::default();
        for spec in self.switches {
            let mut spec = spec;
            spec.ports.sort();
            spec.ports.dedup();
            assert!(
                topo.switches.insert(spec.id, spec.clone()).is_none(),
                "duplicate switch {}",
                spec.id
            );
        }
        let check_port = |topo: &Topology, s: SwitchId, p: PortId| {
            let spec = topo
                .switches
                .get(&s)
                .unwrap_or_else(|| panic!("unknown switch {s}"));
            assert!(spec.ports.contains(&p), "switch {s} has no port {p}");
        };
        for link in self.links {
            check_port(&topo, link.a.switch, link.a.port);
            check_port(&topo, link.b.switch, link.b.port);
            assert!(
                topo.adjacency
                    .insert(
                        (link.a.switch, link.a.port),
                        Endpoint::SwitchPort(link.b.switch, link.b.port)
                    )
                    .is_none(),
                "port {} already connected",
                link.a
            );
            assert!(
                topo.adjacency
                    .insert(
                        (link.b.switch, link.b.port),
                        Endpoint::SwitchPort(link.a.switch, link.a.port)
                    )
                    .is_none(),
                "port {} already connected",
                link.b
            );
            topo.links.push(link);
        }
        for (id, switch, port) in self.hosts {
            check_port(&topo, switch, port);
            let spec = HostSpec {
                id,
                mac: MacAddr::for_host(id.0),
                ip: NwAddr::for_host(id.0),
                location: Location { switch, port },
            };
            assert!(
                topo.adjacency
                    .insert((switch, port), Endpoint::Host(id))
                    .is_none(),
                "port {switch}:{port} already connected"
            );
            assert!(topo.hosts.insert(id, spec).is_none(), "duplicate host {id}");
        }
        topo
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "topology: {} switches, {} hosts",
            self.switch_count(),
            self.host_count()
        )?;
        for h in self.hosts.values() {
            writeln!(f, "  {} mac={} ip={} at {}", h.id, h.mac, h.ip, h.location)?;
        }
        for l in &self.links {
            writeln!(f, "  link {} <-> {}", l.a, l.b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_topology_shape() {
        let t = Topology::linear_two_switches();
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.host_count(), 2);
        assert_eq!(t.links().len(), 1);
        assert_eq!(
            t.endpoint(SwitchId(1), PortId(1)),
            Endpoint::Host(HostId(1))
        );
        assert_eq!(
            t.endpoint(SwitchId(1), PortId(2)),
            Endpoint::SwitchPort(SwitchId(2), PortId(2))
        );
        assert_eq!(t.endpoint(SwitchId(1), PortId(3)), Endpoint::Unconnected);
        assert_eq!(
            t.switch_peer(SwitchId(2), PortId(2)),
            Some(Location {
                switch: SwitchId(1),
                port: PortId(2)
            })
        );
        assert_eq!(t.free_ports(SwitchId(1)), vec![PortId(3)]);
    }

    #[test]
    fn single_switch_topology() {
        let t = Topology::single_switch(3);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.host_count(), 3);
        for h in 1..=3u32 {
            let host = t.host(HostId(h)).unwrap();
            assert_eq!(host.location.switch, SwitchId(1));
            assert_eq!(host.location.port, PortId(h as u16));
        }
        // One spare port remains.
        assert_eq!(t.free_ports(SwitchId(1)), vec![PortId(4)]);
    }

    #[test]
    fn triangle_has_a_cycle() {
        let t = Topology::triangle();
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.links().len(), 3);
        // Every switch reaches every other switch directly.
        assert!(t.switch_peer(SwitchId(1), PortId(2)).is_some());
        assert!(t.switch_peer(SwitchId(1), PortId(3)).is_some());
        assert!(t.switch_peer(SwitchId(2), PortId(3)).is_some());
        assert_eq!(t.host_count(), 3);
    }

    #[test]
    fn host_lookup_by_address() {
        let t = Topology::linear_two_switches();
        let h1 = t.host(HostId(1)).unwrap();
        assert_eq!(t.host_by_mac(h1.mac).unwrap().id, HostId(1));
        assert_eq!(t.host_by_ip(h1.ip).unwrap().id, HostId(1));
        assert!(t.host_by_mac(MacAddr(0xdead)).is_none());
    }

    #[test]
    fn known_addresses_include_broadcast() {
        let t = Topology::linear_two_switches();
        let macs = t.known_macs();
        assert!(macs.contains(&MacAddr::BROADCAST));
        assert_eq!(macs.len(), 3);
        assert_eq!(t.known_ips().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown switch")]
    fn building_with_unknown_switch_panics() {
        Topology::builder()
            .host(HostId(1), SwitchId(9), PortId(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "has no port")]
    fn building_with_unknown_port_panics() {
        Topology::builder()
            .switch(SwitchId(1), &[1])
            .host(HostId(1), SwitchId(1), PortId(9))
            .build();
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_use_of_a_port_panics() {
        Topology::builder()
            .switch(SwitchId(1), &[1])
            .switch(SwitchId(2), &[1])
            .host(HostId(1), SwitchId(1), PortId(1))
            .link(SwitchId(1), PortId(1), SwitchId(2), PortId(1))
            .build();
    }

    #[test]
    fn display_summarises() {
        let s = Topology::linear_two_switches().to_string();
        assert!(s.contains("2 switches"));
        assert!(s.contains("link"));
    }
}
