//! # nice-hosts
//!
//! End-host models (Section 2.2.3 of the paper).
//!
//! Hosts in the real world run arbitrary software; NICE instead provides
//! "simple programs that act as clients or servers" with explicit transitions
//! and little state. The models here are:
//!
//! * [`ClientHost`] — the default client: a `send` transition that can
//!   execute a configurable number of times (the packets themselves come from
//!   the `discover_packets` machinery), a `receive` transition, and an
//!   optional echo behaviour that replies to received packets (the "layer-2
//!   ping" responder of the Section 7 workload). The PKT-SEQ burst counter
//!   (`c` in Section 4) lives here: when it reaches zero the host cannot send
//!   until it receives a packet.
//! * [`ServerHost`] — a TCP-aware responder used by the load-balancer
//!   scenario: replies to SYNs with SYN-ACKs and to data with ACKs.
//! * [`MobileHost`] — a refinement with a `move` transition that relocates
//!   the host to a new `<switch, port>` attachment (the trigger for BUG-I).
//!
//! All models implement [`HostModel`], so applications and test harnesses can
//! add custom host behaviour without touching the model checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nice_openflow::{EthType, Fingerprint, Hasher64, HostId, HostSpec, Location, Packet, TcpFlags};

/// The interface between the model checker and an end host.
///
/// A host has up to three kinds of transitions: `send` (emit one of the
/// currently-relevant packets, gated by [`HostModel::can_send`]), `receive`
/// (consume a delivered packet, possibly generating replies) and `move`
/// (relocate, for mobile hosts). The packets a host *sends* are chosen by the
/// model checker from the relevant packets discovered through symbolic
/// execution; the host model only accounts for budgets and produces replies.
///
/// `Send + Sync` is required because system states (which own the host
/// models) migrate between the worker threads of the parallel search.
pub trait HostModel: Send + Sync {
    /// A short name used in traces.
    fn name(&self) -> &str;

    /// The host's identity.
    fn id(&self) -> HostId;

    /// The MAC/IP/location description of this host.
    fn spec(&self) -> HostSpec;

    /// Where the host is currently attached (mobile hosts move).
    fn location(&self) -> Location;

    /// True if the host's `send` transition is currently enabled.
    fn can_send(&self) -> bool;

    /// True if delivering a packet to this host could ever make it inject
    /// reply packets into the network. Hosts that merely absorb traffic
    /// (e.g. a client without echo enabled) return `false`, which lets the
    /// model checker's partial-order reduction treat their `receive`
    /// transition as a purely host-local step. The default is `true` — the
    /// conservative answer — so custom host models stay sound without
    /// opting in.
    fn may_reply(&self) -> bool {
        true
    }

    /// True if receiving a packet can change whether (or what) this host can
    /// send — e.g. the burst-credit replenishment of [`SendBudget`], where a
    /// delivery re-enables a previously exhausted sender. Paired with
    /// [`HostModel::may_reply`] by the partial-order reduction: a receive
    /// that neither replies nor replenishes sending is invisible to every
    /// other transition. Defaults to `true` (conservative).
    fn receive_replenishes_sends(&self) -> bool {
        true
    }

    /// Accounts for one sent packet (called when the model checker executes a
    /// `send` transition for this host).
    fn note_sent(&mut self, packet: &Packet);

    /// Delivers a packet to the host. Replies (if any) are returned; the
    /// caller assigns their provenance ids via `alloc_id`.
    fn receive(&mut self, packet: &Packet, alloc_id: &mut dyn FnMut() -> u64) -> Vec<Packet>;

    /// Locations this host could move to (empty for stationary hosts).
    fn move_targets(&self) -> Vec<Location>;

    /// Relocates the host (only meaningful if [`HostModel::move_targets`] is
    /// non-empty).
    fn apply_move(&mut self, to: Location);

    /// Number of packets sent so far.
    fn sent_count(&self) -> u32;

    /// Number of packets received so far.
    fn received_count(&self) -> u32;

    /// Clones the host model (hosts are part of the explored system state).
    fn clone_host(&self) -> Box<dyn HostModel>;

    /// Absorbs the host state into the system fingerprint.
    fn fingerprint(&self, hasher: &mut Hasher64);
}

impl Clone for Box<dyn HostModel> {
    fn clone(&self) -> Self {
        self.clone_host()
    }
}

/// Budget configuration shared by the provided host models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendBudget {
    /// Maximum number of packets this host may send in total (`C` in the
    /// paper's default client model). `0` means the host never initiates.
    pub max_sends: u32,
    /// Maximum number of outstanding packets (the PKT-SEQ burst bound).
    /// `None` disables the burst limit (full search).
    pub max_burst: Option<u32>,
}

impl SendBudget {
    /// A host that never sends.
    pub const SILENT: SendBudget = SendBudget {
        max_sends: 0,
        max_burst: None,
    };

    /// A host that may send `n` packets with no burst limit.
    pub fn sends(n: u32) -> Self {
        SendBudget {
            max_sends: n,
            max_burst: None,
        }
    }

    /// A host that may send `n` packets with at most `burst` outstanding.
    pub fn sends_with_burst(n: u32, burst: u32) -> Self {
        SendBudget {
            max_sends: n,
            max_burst: Some(burst),
        }
    }
}

/// The default client model.
#[derive(Debug, Clone)]
pub struct ClientHost {
    spec: HostSpec,
    location: Location,
    budget: SendBudget,
    sent: u32,
    received: u32,
    /// Remaining burst credit (only meaningful when a burst limit is set).
    burst_credit: u32,
    /// If true, the host answers received layer-2 pings with a reply packet
    /// (the behaviour of host B in the Section 7 workload).
    echo_l2_pings: bool,
}

impl ClientHost {
    /// Creates a client at its topology-declared location.
    pub fn new(spec: HostSpec, budget: SendBudget) -> Self {
        let burst_credit = budget.max_burst.unwrap_or(u32::MAX);
        ClientHost {
            spec,
            location: spec.location,
            budget,
            sent: 0,
            received: 0,
            burst_credit,
            echo_l2_pings: false,
        }
    }

    /// Enables replying to received layer-2 pings (builder style).
    pub fn with_echo(mut self) -> Self {
        self.echo_l2_pings = true;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> SendBudget {
        self.budget
    }
}

impl HostModel for ClientHost {
    fn name(&self) -> &str {
        if self.echo_l2_pings {
            "echo-client"
        } else {
            "client"
        }
    }

    fn id(&self) -> HostId {
        self.spec.id
    }

    fn spec(&self) -> HostSpec {
        self.spec
    }

    fn location(&self) -> Location {
        self.location
    }

    fn can_send(&self) -> bool {
        if self.sent >= self.budget.max_sends {
            return false;
        }
        if self.budget.max_burst.is_some() && self.burst_credit == 0 {
            return false;
        }
        true
    }

    fn note_sent(&mut self, _packet: &Packet) {
        self.sent += 1;
        if self.budget.max_burst.is_some() {
            self.burst_credit = self.burst_credit.saturating_sub(1);
        }
    }

    fn may_reply(&self) -> bool {
        self.echo_l2_pings
    }

    fn receive_replenishes_sends(&self) -> bool {
        self.budget.max_burst.is_some()
    }

    fn receive(&mut self, packet: &Packet, alloc_id: &mut dyn FnMut() -> u64) -> Vec<Packet> {
        self.received += 1;
        // Default behaviour from Section 4: every received packet replenishes
        // one unit of burst credit.
        if let Some(limit) = self.budget.max_burst {
            self.burst_credit = (self.burst_credit + 1).min(limit);
        }
        if self.echo_l2_pings
            && packet.eth_type == EthType::L2Ping
            && packet.dst_mac == self.spec.mac
        {
            let mut reply = packet.reply_template(alloc_id());
            reply.src_mac = self.spec.mac;
            return vec![reply];
        }
        Vec::new()
    }

    fn move_targets(&self) -> Vec<Location> {
        Vec::new()
    }

    fn apply_move(&mut self, _to: Location) {
        panic!("ClientHost cannot move; use MobileHost");
    }

    fn sent_count(&self) -> u32 {
        self.sent
    }

    fn received_count(&self) -> u32 {
        self.received
    }

    fn clone_host(&self) -> Box<dyn HostModel> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str("client");
        self.spec.id.fingerprint(hasher);
        self.location.fingerprint(hasher);
        hasher.write_u32(self.sent);
        hasher.write_u32(self.received);
        hasher.write_u32(self.burst_credit);
        hasher.write_bool(self.echo_l2_pings);
    }
}

/// A TCP-aware server replica (the load-balancer backend).
#[derive(Debug, Clone)]
pub struct ServerHost {
    spec: HostSpec,
    received: u32,
    replies_sent: u32,
    /// The virtual IP this server also answers for (load-balanced services
    /// receive traffic addressed to the VIP).
    virtual_ip: Option<nice_openflow::NwAddr>,
}

impl ServerHost {
    /// Creates a server.
    pub fn new(spec: HostSpec) -> Self {
        ServerHost {
            spec,
            received: 0,
            replies_sent: 0,
            virtual_ip: None,
        }
    }

    /// Makes the server answer traffic addressed to `vip` as well as its own
    /// address (builder style).
    pub fn with_virtual_ip(mut self, vip: nice_openflow::NwAddr) -> Self {
        self.virtual_ip = Some(vip);
        self
    }

    /// Number of replies generated.
    pub fn replies_sent(&self) -> u32 {
        self.replies_sent
    }

    fn addressed_to_me(&self, packet: &Packet) -> bool {
        packet.dst_ip == self.spec.ip || Some(packet.dst_ip) == self.virtual_ip
    }
}

impl HostModel for ServerHost {
    fn name(&self) -> &str {
        "server"
    }

    fn id(&self) -> HostId {
        self.spec.id
    }

    fn spec(&self) -> HostSpec {
        self.spec
    }

    fn location(&self) -> Location {
        self.spec.location
    }

    fn can_send(&self) -> bool {
        false // Servers only react.
    }

    fn note_sent(&mut self, _packet: &Packet) {}

    fn receive(&mut self, packet: &Packet, alloc_id: &mut dyn FnMut() -> u64) -> Vec<Packet> {
        self.received += 1;
        if !packet.is_tcp() || !self.addressed_to_me(packet) {
            return Vec::new();
        }
        let mut reply = packet.reply_template(alloc_id());
        reply.src_mac = self.spec.mac;
        // Answer from the address the client talked to (VIP-preserving).
        reply.src_ip = packet.dst_ip;
        reply.tcp_flags = if packet.tcp_flags.is_syn() {
            TcpFlags::SYN_ACK
        } else {
            TcpFlags::ACK
        };
        self.replies_sent += 1;
        vec![reply]
    }

    fn move_targets(&self) -> Vec<Location> {
        Vec::new()
    }

    fn apply_move(&mut self, _to: Location) {
        panic!("ServerHost cannot move");
    }

    fn sent_count(&self) -> u32 {
        self.replies_sent
    }

    fn received_count(&self) -> u32 {
        self.received
    }

    fn clone_host(&self) -> Box<dyn HostModel> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str("server");
        self.spec.id.fingerprint(hasher);
        hasher.write_u32(self.received);
        hasher.write_u32(self.replies_sent);
    }
}

/// A host that can move between attachment points (Section 2.2.3's "mobile
/// host" refinement); the trigger for BUG-I.
#[derive(Debug, Clone)]
pub struct MobileHost {
    inner: ClientHost,
    /// Locations the host may move to (typically the free ports of other
    /// switches).
    targets: Vec<Location>,
    /// Maximum number of moves to explore (keeps the state space finite).
    max_moves: u32,
    moves_done: u32,
}

impl MobileHost {
    /// Creates a mobile host wrapping the default client behaviour.
    pub fn new(spec: HostSpec, budget: SendBudget, targets: Vec<Location>) -> Self {
        MobileHost {
            inner: ClientHost::new(spec, budget),
            targets,
            max_moves: 1,
            moves_done: 0,
        }
    }

    /// Enables echoing of layer-2 pings (builder style).
    pub fn with_echo(mut self) -> Self {
        self.inner = self.inner.with_echo();
        self
    }

    /// Sets the maximum number of moves (builder style).
    pub fn with_max_moves(mut self, max_moves: u32) -> Self {
        self.max_moves = max_moves;
        self
    }

    /// Number of moves performed so far.
    pub fn moves_done(&self) -> u32 {
        self.moves_done
    }
}

impl HostModel for MobileHost {
    fn name(&self) -> &str {
        "mobile-host"
    }

    fn id(&self) -> HostId {
        self.inner.id()
    }

    fn spec(&self) -> HostSpec {
        self.inner.spec()
    }

    fn location(&self) -> Location {
        self.inner.location
    }

    fn can_send(&self) -> bool {
        self.inner.can_send()
    }

    fn note_sent(&mut self, packet: &Packet) {
        self.inner.note_sent(packet);
    }

    fn may_reply(&self) -> bool {
        self.inner.may_reply()
    }

    fn receive_replenishes_sends(&self) -> bool {
        self.inner.receive_replenishes_sends()
    }

    fn receive(&mut self, packet: &Packet, alloc_id: &mut dyn FnMut() -> u64) -> Vec<Packet> {
        self.inner.receive(packet, alloc_id)
    }

    fn move_targets(&self) -> Vec<Location> {
        if self.moves_done >= self.max_moves {
            return Vec::new();
        }
        self.targets
            .iter()
            .copied()
            .filter(|&t| t != self.inner.location)
            .collect()
    }

    fn apply_move(&mut self, to: Location) {
        assert!(
            self.move_targets().contains(&to),
            "move target {to} is not currently allowed"
        );
        self.inner.location = to;
        self.moves_done += 1;
    }

    fn sent_count(&self) -> u32 {
        self.inner.sent_count()
    }

    fn received_count(&self) -> u32 {
        self.inner.received_count()
    }

    fn clone_host(&self) -> Box<dyn HostModel> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str("mobile");
        self.inner.fingerprint(hasher);
        hasher.write_u32(self.moves_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_openflow::{MacAddr, NwAddr, PortId, SwitchId, Topology};

    fn fp(h: &dyn HostModel) -> u64 {
        let mut hasher = Hasher64::new();
        h.fingerprint(&mut hasher);
        hasher.finish()
    }

    fn spec(id: u32) -> HostSpec {
        let topo = Topology::linear_two_switches();
        *topo.host(HostId(id)).unwrap()
    }

    #[test]
    fn send_budget_constructors() {
        assert_eq!(SendBudget::SILENT.max_sends, 0);
        assert_eq!(SendBudget::sends(3).max_burst, None);
        assert_eq!(SendBudget::sends_with_burst(3, 1).max_burst, Some(1));
    }

    #[test]
    fn client_send_budget_is_enforced() {
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let mut client = ClientHost::new(spec(1), SendBudget::sends(2));
        assert!(client.can_send());
        client.note_sent(&pkt);
        assert!(client.can_send());
        client.note_sent(&pkt);
        assert!(!client.can_send());
        assert_eq!(client.sent_count(), 2);
        assert_eq!(client.budget().max_sends, 2);
    }

    #[test]
    fn burst_counter_replenishes_on_receive() {
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let mut client = ClientHost::new(spec(1), SendBudget::sends_with_burst(5, 1));
        assert!(client.can_send());
        client.note_sent(&pkt);
        assert!(!client.can_send(), "burst credit exhausted");
        let mut next_id = 100u64;
        let mut alloc = || {
            next_id += 1;
            next_id
        };
        let reply = Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        client.receive(&reply, &mut alloc);
        assert!(client.can_send(), "receive replenished one credit");
        assert_eq!(client.received_count(), 1);
    }

    #[test]
    fn echo_client_replies_to_pings_addressed_to_it() {
        let mut echo = ClientHost::new(spec(2), SendBudget::SILENT).with_echo();
        assert_eq!(echo.name(), "echo-client");
        assert!(!echo.can_send());
        let mut next_id = 10u64;
        let mut alloc = || {
            next_id += 1;
            next_id
        };
        let ping = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 3);
        let replies = echo.receive(&ping, &mut alloc);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].dst_mac, MacAddr::for_host(1));
        assert_eq!(replies[0].src_mac, MacAddr::for_host(2));
        assert_eq!(replies[0].payload, 3);
        assert_eq!(replies[0].id.0, 11);
        // A ping addressed elsewhere is absorbed silently.
        let other = Packet::l2_ping(2, MacAddr::for_host(1), MacAddr::for_host(9), 0);
        assert!(echo.receive(&other, &mut alloc).is_empty());
    }

    #[test]
    fn plain_client_does_not_echo() {
        let mut client = ClientHost::new(spec(2), SendBudget::SILENT);
        let mut alloc = || 1;
        let ping = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        assert!(client.receive(&ping, &mut alloc).is_empty());
        assert_eq!(client.name(), "client");
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn client_cannot_move() {
        let mut client = ClientHost::new(spec(1), SendBudget::SILENT);
        client.apply_move(Location {
            switch: SwitchId(2),
            port: PortId(3),
        });
    }

    #[test]
    fn server_answers_tcp_to_its_address_or_vip() {
        let vip = NwAddr::from_octets(10, 0, 0, 100);
        let mut server = ServerHost::new(spec(2)).with_virtual_ip(vip);
        let mut next_id = 0u64;
        let mut alloc = || {
            next_id += 1;
            next_id
        };
        let syn = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            vip,
            1000,
            80,
            TcpFlags::SYN,
            0,
        );
        let replies = server.receive(&syn, &mut alloc);
        assert_eq!(replies.len(), 1);
        assert!(replies[0].tcp_flags.is_syn() && replies[0].tcp_flags.is_ack());
        assert_eq!(replies[0].src_ip, vip, "reply keeps the VIP as source");
        // Data packet gets a plain ACK.
        let data = Packet::tcp(
            2,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
            1000,
            80,
            TcpFlags::ACK,
            1,
        );
        let replies = server.receive(&data, &mut alloc);
        assert_eq!(replies.len(), 1);
        assert!(!replies[0].tcp_flags.is_syn());
        assert_eq!(server.replies_sent(), 2);
        // Traffic to an unrelated address is ignored.
        let misdirected = Packet::tcp(
            3,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::from_octets(9, 9, 9, 9),
            1000,
            80,
            TcpFlags::SYN,
            0,
        );
        assert!(server.receive(&misdirected, &mut alloc).is_empty());
        // Non-TCP traffic is ignored too.
        let ping = Packet::l2_ping(4, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        assert!(server.receive(&ping, &mut alloc).is_empty());
        assert!(!server.can_send());
        assert!(server.move_targets().is_empty());
    }

    #[test]
    fn mobile_host_moves_once_by_default() {
        let targets = vec![Location {
            switch: SwitchId(2),
            port: PortId(3),
        }];
        let mut host = MobileHost::new(spec(2), SendBudget::SILENT, targets.clone()).with_echo();
        assert_eq!(host.name(), "mobile-host");
        assert_eq!(host.move_targets(), targets);
        let before = host.location();
        host.apply_move(targets[0]);
        assert_ne!(host.location(), before);
        assert_eq!(host.location(), targets[0]);
        assert_eq!(host.moves_done(), 1);
        // Default max_moves = 1: no further moves offered.
        assert!(host.move_targets().is_empty());
    }

    #[test]
    fn mobile_host_can_allow_more_moves() {
        let targets = vec![
            Location {
                switch: SwitchId(2),
                port: PortId(3),
            },
            Location {
                switch: SwitchId(1),
                port: PortId(3),
            },
        ];
        let mut host = MobileHost::new(spec(1), SendBudget::SILENT, targets).with_max_moves(2);
        host.apply_move(Location {
            switch: SwitchId(2),
            port: PortId(3),
        });
        assert_eq!(host.move_targets().len(), 1, "current location excluded");
        host.apply_move(Location {
            switch: SwitchId(1),
            port: PortId(3),
        });
        assert!(host.move_targets().is_empty());
    }

    #[test]
    #[should_panic(expected = "not currently allowed")]
    fn illegal_move_rejected() {
        let mut host = MobileHost::new(spec(1), SendBudget::SILENT, vec![]);
        host.apply_move(Location {
            switch: SwitchId(9),
            port: PortId(9),
        });
    }

    #[test]
    fn mobile_echo_still_replies() {
        let targets = vec![Location {
            switch: SwitchId(2),
            port: PortId(3),
        }];
        let mut host = MobileHost::new(spec(2), SendBudget::SILENT, targets).with_echo();
        let mut alloc = || 50;
        let ping = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let replies = host.receive(&ping, &mut alloc);
        assert_eq!(replies.len(), 1);
        assert_eq!(host.received_count(), 1);
        assert_eq!(host.sent_count(), 0);
        assert!(!host.can_send());
    }

    #[test]
    fn fingerprints_track_dynamic_state() {
        let mut client = ClientHost::new(spec(1), SendBudget::sends(1));
        let baseline = fp(&client);
        let cloned = client.clone_host();
        assert_eq!(fp(cloned.as_ref()), baseline);
        client.note_sent(&Packet::l2_ping(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            0,
        ));
        assert_ne!(fp(&client), baseline);

        let targets = vec![Location {
            switch: SwitchId(2),
            port: PortId(3),
        }];
        let mut mobile = MobileHost::new(spec(2), SendBudget::SILENT, targets.clone());
        let before = fp(&mobile);
        mobile.apply_move(targets[0]);
        assert_ne!(fp(&mobile), before);
        assert_eq!(mobile.spec().id, HostId(2));
    }
}
