//! Typed, replayable violation traces and the stable `nice-trace-v1` JSON
//! schema.
//!
//! The paper's value proposition is the *witness*: a concrete transition
//! sequence reproducing a bug. A [`Trace`] carries that sequence as typed
//! [`Transition`]s — not rendered strings — together with the scenario name
//! and the engine configuration that produced it, so a trace saved to disk
//! is self-contained: `ModelChecker::replay` re-executes it step by step,
//! `minimize`/`bisect` shrink and localise it, and `nice timeline` renders
//! it, all without re-running the search that found it.
//!
//! Serialization is the `nice-trace-v1` JSON schema (documented in
//! `bench/README.md`), built and read through [`crate::json`]:
//! [`Trace::to_json`] emits one canonical compact line (byte-deterministic
//! for a given trace, so CI can diff archived artifacts),
//! [`Trace::from_json`] parses it back.

use crate::json::Json;
use crate::scenario::{CheckerConfig, ReductionKind, StrategyKind};
use crate::transition::Transition;
use nice_openflow::{
    ChannelFault, EthType, HostId, IpProto, Location, MacAddr, NwAddr, OfMutation, Packet,
    PacketId, PortId, PortStatsEntry, SwitchId, TcpFlags,
};
use std::fmt;

/// The current trace schema identifier.
pub const TRACE_SCHEMA: &str = "nice-trace-v1";

// ---------------------------------------------------------------------------
// Engine metadata
// ---------------------------------------------------------------------------

/// The engine configuration a trace was produced (or should be replayed)
/// under — everything that affects which transitions are enabled and how a
/// step executes, but not search-only knobs like budgets or state storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEngine {
    /// The search strategy (affects lock-step control-plane draining and
    /// which transitions the engine would have offered).
    pub strategy: StrategyKind,
    /// The partial-order reduction the search ran with. Informational:
    /// replay follows the recorded sequence and never prunes.
    pub reduction: ReductionKind,
    /// Worker threads of the producing search. `1` means the trace came
    /// from the fully deterministic sequential engine; larger values mean
    /// the witness choice was scheduling-dependent (replay itself is always
    /// deterministic either way).
    pub workers: usize,
    /// Whether fault transitions were schedulable.
    pub faults: bool,
}

impl TraceEngine {
    /// Captures the trace-relevant slice of a checker configuration.
    pub fn from_config(config: &CheckerConfig) -> Self {
        TraceEngine {
            strategy: config.strategy,
            reduction: config.reduction,
            workers: config.workers.max(1),
            faults: config.inject_faults,
        }
    }

    /// True if the producing engine was the deterministic sequential one.
    pub fn deterministic(&self) -> bool {
        self.workers == 1
    }

    /// A stable label for which engine produced the trace — what
    /// `nice run --json` records as `"engine"`.
    pub fn label(&self) -> &'static str {
        if self.deterministic() {
            "sequential"
        } else {
            "parallel"
        }
    }

    /// The `"engine"` object of a trace document. `process_pkt` services
    /// every busy port, always: the key that once said so is written as a
    /// constant, so the documents keep their bytes.
    pub fn to_json(&self) -> Json<'_> {
        let strategy = self.strategy.name().to_ascii_lowercase();
        Json::object([
            ("strategy", Json::Str(strategy.into())),
            ("reduction", self.reduction.name().into()),
            ("workers", self.workers.into()),
            ("faults", self.faults.into()),
            ("coarse_packet_processing", true.into()),
            ("deterministic", self.deterministic().into()),
        ])
    }

    /// Reads an `"engine"` object (`"deterministic"` is derived from
    /// `"workers"`, not read).
    pub fn from_json(value: &Json) -> Result<Self, String> {
        if !value.bool("coarse_packet_processing")? {
            return Err(
                "coarse_packet_processing is false: that is the per-port process_pkt \
                 mode, which was removed"
                    .to_string(),
            );
        }
        Ok(TraceEngine {
            strategy: value.parsed("strategy", StrategyKind::parse)?,
            reduction: value.parsed("reduction", ReductionKind::parse)?,
            workers: value.u64("workers")?.max(1) as usize,
            faults: value.bool("faults")?,
        })
    }
}

impl Default for TraceEngine {
    fn default() -> Self {
        TraceEngine::from_config(&CheckerConfig::default())
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// An ordered, replayable witness: the transitions from the initial state,
/// plus the metadata needed to re-execute them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Name of the scenario the trace belongs to (what
    /// `nice replay`/`minimize`/`timeline` resolve through the registry).
    pub scenario: String,
    /// The engine configuration that produced the trace.
    pub engine: TraceEngine,
    /// The steps, in execution order.
    pub steps: Vec<Transition>,
    /// The property this trace witnesses a violation of, if any.
    pub property: Option<String>,
    /// The violation message, if any.
    pub message: Option<String>,
}

impl Trace {
    /// Creates a trace from typed transitions (the checker's constructor).
    pub fn from_transitions(
        scenario: &str,
        engine: TraceEngine,
        transitions: impl IntoIterator<Item = Transition>,
    ) -> Self {
        Trace {
            scenario: scenario.to_string(),
            engine,
            steps: transitions.into_iter().collect(),
            property: None,
            message: None,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterates over the steps.
    pub fn iter(&self) -> std::slice::Iter<'_, Transition> {
        self.steps.iter()
    }

    /// The human-readable labels, one per step — the `Display` rendering of
    /// each transition.
    pub fn labels(&self) -> Vec<String> {
        self.steps.iter().map(Transition::to_string).collect()
    }

    /// Serializes the trace as one canonical `nice-trace-v1` JSON line.
    /// Byte-deterministic: the same trace always yields the same bytes.
    pub fn to_json(&self) -> String {
        self.to_value().compact()
    }

    /// The `nice-trace-v1` document as a value (what `nice run --json`
    /// embeds as `"trace"`).
    pub fn to_value(&self) -> Json<'_> {
        Json::object([
            ("schema", TRACE_SCHEMA.into()),
            ("scenario", self.scenario.as_str().into()),
            ("property", self.property.as_deref().into()),
            ("message", self.message.as_deref().into()),
            ("engine", self.engine.to_json()),
            ("steps", steps_to_json(&self.steps)),
        ])
    }

    /// Parses a `nice-trace-v1` JSON document.
    pub fn from_json(input: &str) -> Result<Self, String> {
        Trace::from_value(&Json::parse(input)?)
    }

    /// Reads a parsed `nice-trace-v1` document.
    pub fn from_value(value: &Json) -> Result<Self, String> {
        let schema = value.str("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!(
                "unsupported trace schema '{schema}' (expected {TRACE_SCHEMA})"
            ));
        }
        Ok(Trace {
            scenario: value.str("scenario")?.to_string(),
            engine: TraceEngine::from_json(value.get("engine")?)
                .map_err(|e| format!("engine: {e}"))?,
            steps: steps_from_json(value, "steps")?,
            property: value.opt_str("property")?.map(str::to_string),
            message: value.opt_str("message")?.map(str::to_string),
        })
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "    {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Steps
// ---------------------------------------------------------------------------

/// A transition sequence as a JSON array of `nice-trace-v1` step objects —
/// the `"steps"` of a trace, and the fragment the `nice-dist-v2` wire frames
/// embed when a worker forwards frontier states or streams a violation.
pub fn steps_to_json(steps: &[Transition]) -> Json<'_> {
    Json::Arr(steps.iter().map(Transition::to_json).collect())
}

/// Reads the step array stored under `key` of `object` (the inverse of
/// [`steps_to_json`]).
pub fn steps_from_json(object: &Json, key: &str) -> Result<Vec<Transition>, String> {
    let steps = object.arr(key)?.iter().enumerate();
    steps
        .map(|(i, v)| Transition::from_json(v).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

impl Transition {
    /// The `nice-trace-v1` step object: `"kind"`, then the kind's fields.
    pub fn to_json(&self) -> Json<'_> {
        let kind = ("kind", self.kind().into());
        match self {
            Transition::HostSend { host, packet } => Json::object([
                kind,
                ("host", host.0.into()),
                ("packet", packet_to_json(packet)),
            ]),
            Transition::HostReceive { host } | Transition::DiscoverPackets { host } => {
                Json::object([kind, ("host", host.0.into())])
            }
            Transition::HostMove { host, to } => Json::object([
                kind,
                ("host", host.0.into()),
                ("switch", to.switch.0.into()),
                ("port", to.port.0.into()),
            ]),
            Transition::ProcessPacket { switch }
            | Transition::ProcessOf { switch }
            | Transition::ControllerHandle { switch }
            | Transition::DiscoverStats { switch }
            | Transition::SwitchCrash { switch }
            | Transition::SwitchReconnect { switch } => {
                Json::object([kind, ("switch", switch.0.into())])
            }
            Transition::InjectStats { switch, stats } => Json::object([
                kind,
                ("switch", switch.0.into()),
                (
                    "stats",
                    Json::Arr(stats.iter().map(stats_to_json).collect()),
                ),
            ]),
            Transition::ChannelFault {
                switch,
                port,
                fault,
            } => Json::object([
                kind,
                ("switch", switch.0.into()),
                ("port", port.0.into()),
                ("fault", channel_fault_name(*fault).into()),
            ]),
            Transition::ControllerFailover => Json::object([kind]),
            Transition::MutateOfHead { switch, mutation } => Json::object([
                kind,
                ("switch", switch.0.into()),
                ("mutation", mutation.name().into()),
            ]),
        }
    }

    /// Reads a `nice-trace-v1` step object.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let host = || value.u64("host").map(|h| HostId(h as u32));
        let switch = || value.u64("switch").map(|s| SwitchId(s as u32));
        let port = || value.u64("port").map(|p| PortId(p as u16));
        Ok(match value.str("kind")? {
            "host_send" => Transition::HostSend {
                host: host()?,
                packet: packet_from_json(value.get("packet")?)
                    .map_err(|e| format!("packet: {e}"))?,
            },
            "host_receive" => Transition::HostReceive { host: host()? },
            "host_move" => Transition::HostMove {
                host: host()?,
                to: Location {
                    switch: switch()?,
                    port: port()?,
                },
            },
            "process_pkt" => Transition::ProcessPacket { switch: switch()? },
            "process_of" => Transition::ProcessOf { switch: switch()? },
            "ctrl_handle" => Transition::ControllerHandle { switch: switch()? },
            "discover_packets" => Transition::DiscoverPackets { host: host()? },
            "discover_stats" => Transition::DiscoverStats { switch: switch()? },
            "process_stats" => Transition::InjectStats {
                switch: switch()?,
                stats: (value.arr("stats")?.iter())
                    .map(stats_from_json)
                    .collect::<Result<_, _>>()?,
            },
            "channel_fault" => Transition::ChannelFault {
                switch: switch()?,
                port: port()?,
                fault: value.parsed("fault", channel_fault_parse)?,
            },
            "switch_crash" => Transition::SwitchCrash { switch: switch()? },
            "switch_reconnect" => Transition::SwitchReconnect { switch: switch()? },
            "ctrl_failover" => Transition::ControllerFailover,
            "mutate_of" => Transition::MutateOfHead {
                switch: switch()?,
                mutation: value.parsed("mutation", mutation_parse)?,
            },
            removed @ ("process_pkt_on" | "expire_rule") => {
                return Err(format!(
                    "step kind '{removed}' was removed (per-port packet processing and \
                     rule expiry are no longer modelled)"
                ))
            }
            other => return Err(format!("unknown step kind '{other}'")),
        })
    }
}

fn packet_to_json(p: &Packet) -> Json<'_> {
    Json::object([
        ("id", p.id.0.into()),
        ("src_mac", p.src_mac.0.into()),
        ("dst_mac", p.dst_mac.0.into()),
        ("eth_type", p.eth_type.value().into()),
        ("src_ip", p.src_ip.0.into()),
        ("dst_ip", p.dst_ip.0.into()),
        ("nw_proto", p.nw_proto.value().into()),
        ("src_port", p.src_port.into()),
        ("dst_port", p.dst_port.into()),
        ("tcp_flags", p.tcp_flags.0.into()),
        ("arp_op", p.arp_op.into()),
        ("payload", p.payload.into()),
    ])
}

fn packet_from_json(value: &Json) -> Result<Packet, String> {
    Ok(Packet {
        id: PacketId(value.u64("id")?),
        src_mac: MacAddr(value.u64("src_mac")?),
        dst_mac: MacAddr(value.u64("dst_mac")?),
        eth_type: EthType::from_value(value.u64("eth_type")? as u16),
        src_ip: NwAddr(value.u64("src_ip")? as u32),
        dst_ip: NwAddr(value.u64("dst_ip")? as u32),
        nw_proto: IpProto::from_value(value.u64("nw_proto")? as u8),
        src_port: value.u64("src_port")? as u16,
        dst_port: value.u64("dst_port")? as u16,
        tcp_flags: TcpFlags(value.u64("tcp_flags")? as u8),
        arp_op: value.u64("arp_op")? as u8,
        payload: value.u64("payload")? as u32,
    })
}

fn stats_to_json(entry: &PortStatsEntry) -> Json<'_> {
    Json::object([
        ("port", entry.port.0.into()),
        ("rx_packets", entry.rx_packets.into()),
        ("tx_packets", entry.tx_packets.into()),
        ("rx_bytes", entry.rx_bytes.into()),
        ("tx_bytes", entry.tx_bytes.into()),
    ])
}

fn stats_from_json(value: &Json) -> Result<PortStatsEntry, String> {
    Ok(PortStatsEntry {
        port: PortId(value.u64("port")? as u16),
        rx_packets: value.u64("rx_packets")?,
        tx_packets: value.u64("tx_packets")?,
        rx_bytes: value.u64("rx_bytes")?,
        tx_bytes: value.u64("tx_bytes")?,
    })
}

fn channel_fault_name(fault: ChannelFault) -> &'static str {
    match fault {
        ChannelFault::DropHead => "drop_head",
        ChannelFault::DuplicateHead => "duplicate_head",
        ChannelFault::ReorderHead => "reorder_head",
        ChannelFault::FailLink => "fail_link",
    }
}

fn channel_fault_parse(name: &str) -> Option<ChannelFault> {
    use ChannelFault::*;
    let all = [DropHead, DuplicateHead, ReorderHead, FailLink];
    all.into_iter().find(|f| channel_fault_name(*f) == name)
}

fn mutation_parse(name: &str) -> Option<OfMutation> {
    let all = [OfMutation::DropActions, OfMutation::ZeroPriority];
    all.into_iter().find(|m| m.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            scenario: "hub-ping".to_string(),
            engine: TraceEngine::default(),
            steps: every_kind(),
            property: Some("NoAbandonedPackets".to_string()),
            message: Some("packet 7 was \"lost\"".to_string()),
        }
    }

    /// One transition of each of the 14 step kinds.
    fn every_kind() -> Vec<Transition> {
        vec![
            Transition::HostSend {
                host: HostId(3),
                packet: Packet::l2_ping(9, MacAddr::for_host(3), MacAddr::for_host(4), 5),
            },
            Transition::HostReceive { host: HostId(2) },
            Transition::HostMove {
                host: HostId(1),
                to: Location {
                    switch: SwitchId(2),
                    port: PortId(3),
                },
            },
            Transition::ProcessPacket {
                switch: SwitchId(1),
            },
            Transition::ProcessOf {
                switch: SwitchId(4),
            },
            Transition::ControllerHandle {
                switch: SwitchId(5),
            },
            Transition::DiscoverPackets { host: HostId(1) },
            Transition::DiscoverStats {
                switch: SwitchId(1),
            },
            Transition::InjectStats {
                switch: SwitchId(1),
                stats: vec![
                    PortStatsEntry {
                        port: PortId(1),
                        rx_packets: 3,
                        tx_packets: 4,
                        rx_bytes: 1500,
                        tx_bytes: 9000,
                    },
                    PortStatsEntry::zero(PortId(2)),
                ],
            },
            Transition::ChannelFault {
                switch: SwitchId(1),
                port: PortId(1),
                fault: ChannelFault::FailLink,
            },
            Transition::SwitchCrash {
                switch: SwitchId(3),
            },
            Transition::SwitchReconnect {
                switch: SwitchId(3),
            },
            Transition::ControllerFailover,
            Transition::MutateOfHead {
                switch: SwitchId(1),
                mutation: OfMutation::DropActions,
            },
        ]
    }

    #[test]
    fn json_round_trip_preserves_every_step() {
        let trace = sample_trace();
        let json = trace.to_json();
        let parsed = Trace::from_json(&json).expect("round trip");
        assert_eq!(trace, parsed);
        // Canonical serialization: re-serializing yields identical bytes.
        assert_eq!(json, parsed.to_json());
    }

    #[test]
    fn every_transition_kind_round_trips() {
        let all = every_kind();
        let trace = Trace::from_transitions("kinds", TraceEngine::default(), all.clone());
        let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
        assert_eq!(parsed.steps.len(), all.len());
        for (original, parsed) in all.iter().zip(&parsed.steps) {
            assert_eq!(original, parsed);
        }
    }

    /// The `nice-trace-v1` bytes, recorded from the emitter this module had
    /// before it was rebuilt on `crate::json`: the 14 step kinds, every
    /// escape class in the strings, both engine shapes.
    #[test]
    fn golden_bytes_are_pinned() {
        let mut trace =
            Trace::from_transitions("golden \"kinds\"", TraceEngine::default(), every_kind());
        trace.property = Some("NoForgottenPackets".to_string());
        trace.message = Some("packet 9 \\ \"lost\"\n\tat sw1 \u{1} é".to_string());
        let parallel = TraceEngine {
            strategy: StrategyKind::NoDelay,
            reduction: ReductionKind::Por,
            workers: 4,
            faults: true,
        };
        for (trace, golden) in [
            (
                trace,
                r#"{"schema":"nice-trace-v1","scenario":"golden \"kinds\"","property":"NoForgottenPackets","message":"packet 9 \\ \"lost\"\n\tat sw1 \u0001 é","engine":{"strategy":"pkt-seq","reduction":"none","workers":1,"faults":false,"coarse_packet_processing":true,"deterministic":true},"steps":[{"kind":"host_send","host":3,"packet":{"id":9,"src_mac":2199023255555,"dst_mac":2199023255556,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":5}},{"kind":"host_receive","host":2},{"kind":"host_move","host":1,"switch":2,"port":3},{"kind":"process_pkt","switch":1},{"kind":"process_of","switch":4},{"kind":"ctrl_handle","switch":5},{"kind":"discover_packets","host":1},{"kind":"discover_stats","switch":1},{"kind":"process_stats","switch":1,"stats":[{"port":1,"rx_packets":3,"tx_packets":4,"rx_bytes":1500,"tx_bytes":9000},{"port":2,"rx_packets":0,"tx_packets":0,"rx_bytes":0,"tx_bytes":0}]},{"kind":"channel_fault","switch":1,"port":1,"fault":"fail_link"},{"kind":"switch_crash","switch":3},{"kind":"switch_reconnect","switch":3},{"kind":"ctrl_failover"},{"kind":"mutate_of","switch":1,"mutation":"drop_actions"}]}"#,
            ),
            (
                Trace::from_transitions("t", parallel, []),
                r#"{"schema":"nice-trace-v1","scenario":"t","property":null,"message":null,"engine":{"strategy":"no-delay","reduction":"por","workers":4,"faults":true,"coarse_packet_processing":true,"deterministic":false},"steps":[]}"#,
            ),
        ] {
            assert_eq!(trace.to_json(), golden);
            let parsed = Trace::from_json(golden).expect("golden parses");
            assert_eq!(parsed, trace);
            assert_eq!(parsed.to_json(), golden);
        }
    }

    #[test]
    fn labels_match_transition_display() {
        let trace = sample_trace();
        for (step, label) in trace.iter().zip(trace.labels()) {
            assert_eq!(step.to_string(), label);
        }
    }

    #[test]
    fn opaque_step_kind_is_gone_from_the_schema() {
        // The deprecated label-only steps were removed: a document carrying
        // the old "opaque" kind is rejected like any unknown kind.
        let legacy = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"engine\":{\"strategy\":\"pkt-seq\",\"reduction\":\"none\",\
             \"workers\":1,\"faults\":false,\"coarse_packet_processing\":true},\
             \"steps\":[{\"kind\":\"opaque\",\"label\":\"step one\"}]}";
        let err = Trace::from_json(legacy).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    /// What the removed modes wrote is refused by name, never skipped.
    #[test]
    fn documents_of_the_removed_modes_are_rejected() {
        let document = |coarse: bool, step: &str| {
            format!(
                "{{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
                 \"message\":null,\"engine\":{{\"strategy\":\"pkt-seq\",\"reduction\":\"none\",\
                 \"workers\":1,\"faults\":false,\"coarse_packet_processing\":{coarse}}},\
                 \"steps\":[{step}]}}"
            )
        };
        assert!(Trace::from_json(&document(true, "")).is_ok());
        for (coarse, step, names) in [
            (
                false,
                "",
                "the per-port process_pkt mode, which was removed",
            ),
            (
                true,
                r#"{"kind":"process_pkt_on","switch":1,"port":2}"#,
                "steps[0]: step kind 'process_pkt_on' was removed",
            ),
            (
                true,
                r#"{"kind":"expire_rule","switch":2,"rule_index":5}"#,
                "steps[0]: step kind 'expire_rule' was removed",
            ),
        ] {
            let err = Trace::from_json(&document(coarse, step)).unwrap_err();
            assert!(err.contains(names), "{err}");
        }
    }

    #[test]
    fn step_arrays_round_trip_standalone() {
        // The dist wire frames embed step arrays under their own keys.
        let trace = sample_trace();
        let text = Json::object([("sleep", steps_to_json(&trace.steps))]).compact();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(steps_from_json(&parsed, "sleep"), Ok(trace.steps));
        assert_eq!(parsed.compact(), text);
        let err = steps_from_json(
            &Json::parse(r#"{"sleep":[{"kind":"warp"}]}"#).unwrap(),
            "sleep",
        );
        assert_eq!(err.unwrap_err(), "sleep[0]: unknown step kind 'warp'");
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(Trace::from_json("").is_err());
        assert!(Trace::from_json("{}").is_err());
        assert!(Trace::from_json("{\"schema\":\"nice-trace-v0\"}").is_err());
        assert!(Trace::from_json(r#"{"schema": "nice-trace-v1"}"#).is_err());
        assert!(Trace::from_json("[1,2,3]").is_err());
        let missing_engine = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"steps\":[]}";
        assert!(Trace::from_json(missing_engine).is_err());
        let bad_step = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"engine\":{\"strategy\":\"pkt-seq\",\"reduction\":\"none\",\
             \"workers\":1,\"faults\":false,\"coarse_packet_processing\":true},\
             \"steps\":[{\"kind\":\"warp\"}]}";
        let err = Trace::from_json(bad_step).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    #[test]
    fn engine_metadata_round_trips_for_every_strategy_and_reduction() {
        for strategy in StrategyKind::ALL {
            for reduction in ReductionKind::ALL {
                let engine = TraceEngine {
                    strategy,
                    reduction,
                    workers: 4,
                    faults: true,
                };
                let trace = Trace::from_transitions("t", engine, []);
                let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
                assert_eq!(parsed.engine, engine);
                assert_eq!(parsed.engine.label(), "parallel");
            }
        }
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let mut trace = sample_trace();
        trace.message = Some("quote \" backslash \\ newline \n tab \t".to_string());
        let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
        assert_eq!(parsed.message, trace.message);
    }
}
