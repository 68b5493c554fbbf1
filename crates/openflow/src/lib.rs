//! # nice-openflow
//!
//! The OpenFlow substrate used by the NICE model checker: concrete packets,
//! match patterns, actions, flow tables with a canonical representation,
//! OpenFlow protocol messages, the *simplified switch model* described in
//! Section 2.2.2 of the paper, FIFO communication channels with an optional
//! fault model, and network topology descriptions.
//!
//! Everything in this crate is deterministic and self-contained: no clocks,
//! no randomness, no I/O. All collections iterate in a stable order so that
//! state fingerprints are reproducible.
//!
//! The crate is intentionally much simpler than a production OpenFlow agent
//! (such as Open vSwitch): the paper argues that modelling the reference
//! switch implementation explodes the state space, and instead specifies a
//! switch as a set of FIFO channels, two transitions (`process_pkt` and
//! `process_of`), and a flow table whose semantically-equivalent states are
//! merged through a canonical representation. That is exactly the model
//! implemented here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod channel;
pub mod fingerprint;
pub mod flowtable;
pub mod matchfields;
pub mod messages;
pub mod packet;
pub mod stats;
pub mod switch;
pub mod topology;
pub mod types;

pub use action::{Action, ForwardingDecision};
pub use channel::{ChannelFault, FaultModel, FifoChannel};
pub use fingerprint::{fingerprint_of, Fingerprint, Fnv64};
pub use flowtable::{FlowRule, FlowTable, RuleCounters, Timeouts};
pub use matchfields::MatchPattern;
pub use messages::{FlowModCommand, OfMessage, OfMutation, PacketInReason, StatsKind};
pub use packet::{EthType, IpProto, Packet, PacketId, TcpFlags};
pub use stats::{FlowStatsEntry, PortStatsEntry};
pub use switch::{BufferId, BufferedPacket, Switch, SwitchConfig, SwitchOutput};
pub use topology::{Endpoint, HostSpec, LinkSpec, Location, SwitchSpec, Topology, TopologyBuilder};
pub use types::{HostId, MacAddr, NwAddr, PortId, SwitchId, FLOOD_PORT, OFPP_CONTROLLER};
