//! The `nice-dist-v2` wire protocol.
//!
//! Every frame is one line: `<len> <json>\n`, where `<len>` is the byte
//! length of `<json>` and `<json>` is a single-line JSON object carrying
//! `"schema": "nice-dist-v2"` and a `"frame"` discriminant. Frames are
//! built as [`nice_mc::json::Json`] values and rendered by its writer, so
//! an outgoing frame is well-formed by construction; incoming bytes go
//! through its strict, linear, depth-bounded parser, so a hostile or
//! corrupt peer gets an `InvalidData` error, not a stack overflow.
//!
//! Transition sequences reuse the `nice-trace-v1` step objects
//! ([`nice_mc::trace::steps_to_json`]), so a violation streamed by a
//! worker carries the same replayable steps a trace file does.
//!
//! **Exported states travel as deltas.** The `"states"` array of a
//! `forward` / `states` frame ([`nice_mc::shard::exports_to_json`]) writes
//! each state as `{"fingerprint", "keep", "steps", "sleep"}`: `"keep": k`
//! says the state's trace starts with the first `k` transitions of the
//! state *before it in the same array*, and `"steps"` holds only what
//! follows them. A shard exports in depth-first order, so neighbours share
//! all but their last few steps and a state costs those few on the wire,
//! not its depth. The first state of an array keeps nothing and carries its
//! whole trace: a frame decodes on its own, and the coordinator can regroup
//! states by owner, log them and replay the log without any state of the
//! codec to carry along. A `keep` past the end of the previous trace (any
//! at all on a first state) is `InvalidData`.
//!
//! That is what `v2` is for: the other ten frame kinds keep their
//! `nice-dist-v1` bytes, but a v1 peer would hand over whole traces where
//! this one reads suffixes, and the owner of a state re-derives nothing
//! from its trace — so a stale worker binary must fail loudly on the
//! schema tag instead of exploring a wrong state silently.
//!
//! | frame | direction | meaning |
//! |-------|-----------|---------|
//! | `job` | C → W | start a job on a shard (scenario spec + engine config) |
//! | `states` | C → W | frontier exports routed to this worker's shard, each relative to the one before (`keep`) |
//! | `cancel` | C → W | stop expanding (the job still completes with `job_done`) |
//! | `finish` | C → W | no more states will arrive; finalize and report |
//! | `shutdown` | C → W | exit the worker process |
//! | `hello` | W → C | worker is up (pid) |
//! | `forward` | W → C | a batch of frontier exports owned by other shards, each relative to the one before (`keep`) |
//! | `progress` | W → C | periodic transition/state counters |
//! | `violation` | W → C | a violation, streamed live with its steps |
//! | `idle` | W → C | local frontier drained; `received` acknowledges injected states |
//! | `job_done` | W → C | final per-shard stats + violations |
//! | `error` | W → C | the job could not run (e.g. unknown scenario spec) |

use nice_mc::shard::{exports_from_json, exports_to_json};
use nice_mc::trace::{steps_from_json, steps_to_json};
use nice_mc::{FrontierExport, Json, SearchStats, ShardSpec, Transition, Violation};
use std::io::{self, BufRead, Write};

use crate::coordinator::JobSpec;

/// The schema tag every `nice-dist-v2` frame carries.
pub const DIST_SCHEMA: &str = "nice-dist-v2";

/// One violation on the wire: property, message, and the replayable
/// transition steps from the initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct WireViolation {
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
    /// The reproducing transition sequence from the initial state.
    pub steps: Vec<Transition>,
}

impl WireViolation {
    /// The wire form of a checker-reported violation.
    pub fn of(v: &Violation) -> Self {
        WireViolation {
            property: v.property.clone(),
            message: v.message.clone(),
            steps: v.trace.steps.clone(),
        }
    }

    /// The violation object of the `violation` and `job_done` frames.
    pub fn to_json(&self) -> Json<'_> {
        Json::object([
            ("property", self.property.as_str().into()),
            ("message", self.message.as_str().into()),
            ("steps", steps_to_json(&self.steps)),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        Ok(WireViolation {
            property: value.str("property")?.to_string(),
            message: value.str("message")?.to_string(),
            steps: steps_from_json(value, "steps")?,
        })
    }
}

/// A `nice-dist-v2` frame. See the [module docs](self) for the table.
#[derive(Debug, Clone)]
pub enum Frame {
    /// C → W: start `job` on `shard` with the given spec.
    Job {
        /// Job id (coordinator-assigned, echoed by every worker frame).
        job: u64,
        /// The fingerprint slice this worker owns.
        shard: ShardSpec,
        /// What to check and how.
        spec: JobSpec,
    },
    /// C → W: frontier exports owned by the receiving worker's shard.
    States {
        /// Job id.
        job: u64,
        /// The exported states to inject.
        states: Vec<FrontierExport>,
    },
    /// C → W: stop expanding; keep consuming frames and report on `finish`.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// C → W: no further `states` frames will arrive — finalize the shard
    /// report and answer with `job_done`.
    Finish {
        /// Job id.
        job: u64,
    },
    /// C → W: exit the worker process.
    Shutdown,
    /// W → C: the worker process is up.
    Hello {
        /// The worker's OS process id.
        pid: u64,
    },
    /// W → C: frontier exports owned by other shards; the coordinator
    /// routes each to its owner.
    Forward {
        /// Job id.
        job: u64,
        /// The exported states.
        states: Vec<FrontierExport>,
    },
    /// W → C: periodic per-shard counters (budget/deadline enforcement and
    /// live progress).
    Progress {
        /// Job id.
        job: u64,
        /// Transitions executed by this shard so far.
        transitions: u64,
        /// Unique states owned by this shard so far.
        unique_states: u64,
        /// Depth of the path that triggered this report.
        depth: u64,
    },
    /// W → C: a violation found by this shard, streamed live.
    Violation {
        /// Job id.
        job: u64,
        /// The violation.
        violation: WireViolation,
    },
    /// W → C: the local frontier is empty. `received` acknowledges every
    /// state record injected so far — the coordinator's termination
    /// detector compares it against what it forwarded.
    Idle {
        /// Job id.
        job: u64,
        /// Total state records received for this job so far.
        received: u64,
    },
    /// W → C: the shard's final report.
    JobDone {
        /// Job id.
        job: u64,
        /// Per-shard search statistics.
        stats: SearchStats,
        /// Every violation this shard found.
        violations: Vec<WireViolation>,
    },
    /// W → C: the job could not run.
    Error {
        /// Job id.
        job: u64,
        /// What went wrong.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding and decoding
// ---------------------------------------------------------------------------

impl Frame {
    /// Renders the frame as its single-line `nice-dist-v2` JSON document.
    pub fn to_json(&self) -> String {
        let (kind, job, body): (&str, Option<u64>, Vec<(&'static str, Json)>) = match self {
            Frame::Job { job, shard, spec } => {
                let shard = [("index", shard.index.into()), ("count", shard.count.into())];
                let body = vec![("shard", Json::object(shard)), ("spec", spec.to_json())];
                ("job", Some(*job), body)
            }
            Frame::States { job, states } => (
                "states",
                Some(*job),
                vec![("states", exports_to_json(states))],
            ),
            Frame::Cancel { job } => ("cancel", Some(*job), vec![]),
            Frame::Finish { job } => ("finish", Some(*job), vec![]),
            Frame::Shutdown => ("shutdown", None, vec![]),
            Frame::Hello { pid } => ("hello", None, vec![("pid", (*pid).into())]),
            Frame::Forward { job, states } => (
                "forward",
                Some(*job),
                vec![("states", exports_to_json(states))],
            ),
            Frame::Progress {
                job,
                transitions,
                unique_states,
                depth,
            } => {
                let body = vec![
                    ("transitions", (*transitions).into()),
                    ("unique_states", (*unique_states).into()),
                    ("depth", (*depth).into()),
                ];
                ("progress", Some(*job), body)
            }
            Frame::Violation { job, violation } => (
                "violation",
                Some(*job),
                vec![("violation", violation.to_json())],
            ),
            Frame::Idle { job, received } => {
                ("idle", Some(*job), vec![("received", (*received).into())])
            }
            Frame::JobDone {
                job,
                stats,
                violations,
            } => {
                let violations = violations.iter().map(WireViolation::to_json).collect();
                let body = vec![
                    ("stats", stats.to_json()),
                    ("violations", Json::Arr(violations)),
                ];
                ("job_done", Some(*job), body)
            }
            Frame::Error { job, message } => (
                "error",
                Some(*job),
                vec![("message", message.as_str().into())],
            ),
        };
        let head = [("schema", DIST_SCHEMA.into()), ("frame", kind.into())];
        let job = job.map(|job| ("job", job.into()));
        Json::object(head.into_iter().chain(job).chain(body)).compact()
    }

    /// Parses a single-line `nice-dist-v2` JSON document.
    pub fn from_json(input: &str) -> Result<Frame, String> {
        let value = Json::parse(input)?;
        let schema = value.str("schema")?;
        if schema != DIST_SCHEMA {
            return Err(format!("unknown schema '{schema}' (want '{DIST_SCHEMA}')"));
        }
        let job = || value.u64("job");
        Ok(match value.str("frame")? {
            "job" => {
                let shard = value.get("shard")?;
                let (index, count) = (shard.u64("index")? as u32, shard.u64("count")? as u32);
                if index >= count {
                    return Err(format!("invalid shard {index}/{count}"));
                }
                Frame::Job {
                    job: job()?,
                    shard: ShardSpec { index, count },
                    spec: JobSpec::from_json(value.get("spec")?)?,
                }
            }
            "states" => Frame::States {
                job: job()?,
                states: exports_from_json(value.arr("states")?)?,
            },
            "cancel" => Frame::Cancel { job: job()? },
            "finish" => Frame::Finish { job: job()? },
            "shutdown" => Frame::Shutdown,
            "hello" => Frame::Hello {
                pid: value.u64("pid")?,
            },
            "forward" => Frame::Forward {
                job: job()?,
                states: exports_from_json(value.arr("states")?)?,
            },
            "progress" => Frame::Progress {
                job: job()?,
                transitions: value.u64("transitions")?,
                unique_states: value.u64("unique_states")?,
                depth: value.u64("depth")?,
            },
            "violation" => Frame::Violation {
                job: job()?,
                violation: WireViolation::from_json(value.get("violation")?)?,
            },
            "idle" => Frame::Idle {
                job: job()?,
                received: value.u64("received")?,
            },
            "job_done" => Frame::JobDone {
                job: job()?,
                stats: SearchStats::from_json(value.get("stats")?)?,
                violations: (value.arr("violations")?.iter())
                    .map(WireViolation::from_json)
                    .collect::<Result<_, _>>()?,
            },
            "error" => Frame::Error {
                job: job()?,
                message: value.str("message")?.to_string(),
            },
            other => return Err(format!("unknown frame kind '{other}'")),
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame (`<len> <json>\n`) and flushes.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let json = frame.to_json();
    w.write_all(format!("{} {json}\n", json.len()).as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF (the
/// peer closed the pipe); a truncated or corrupt frame is an
/// `InvalidData` error.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end_matches('\n');
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let (len, json) = line
        .split_once(' ')
        .ok_or_else(|| bad("frame missing length prefix".to_string()))?;
    let len: usize = len
        .parse()
        .map_err(|_| bad(format!("bad frame length '{len}'")))?;
    if json.len() != len {
        return Err(bad(format!(
            "frame length mismatch: prefix says {len}, got {} bytes",
            json.len()
        )));
    }
    Frame::from_json(json).map(Some).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_mc::{CheckerConfig, ExploredMode, FaultStats, ReductionKind, StrategyKind};
    use nice_openflow::{HostId, MacAddr, Packet, SwitchId};
    use std::time::{Duration, Instant};

    fn sample_exports() -> Vec<FrontierExport> {
        // Real transitions from a real scenario so the steps on the wire are
        // representative of every transition kind's fields.
        let scenario = nice_apps::workloads::ping_workload(1, true);
        let state = nice_mc::SystemState::initial(&scenario);
        let steps =
            nice_mc::transition::enabled_transitions(&state, &scenario, &CheckerConfig::default());
        vec![FrontierExport {
            fingerprint: state.fingerprint(),
            trace: steps.clone().into(),
            sleep: steps,
        }]
    }

    fn sample_spec() -> JobSpec {
        JobSpec {
            scenario: "chain:5:2".to_string(),
            config: CheckerConfig::default()
                .with_strategy(StrategyKind::NoDelay)
                .with_reduction(ReductionKind::Por)
                .with_fault_injection(true)
                .with_stop_at_first(false)
                .with_max_transitions(12345)
                .with_explored(ExploredMode::Tiered)
                .with_mem_limit(1 << 20),
            time_budget_ms: 60_000,
        }
    }

    fn sample_stats() -> SearchStats {
        SearchStats {
            transitions: 11,
            unique_states: 7,
            terminal_states: 2,
            symbolic_executions: 1,
            pruned_by_strategy: 3,
            pruned_by_por: 4,
            dedup_hits: 5,
            work_steals: 6,
            peak_explored_bytes: 4096,
            spilled_shards: 2,
            filter_hits: 13,
            disk_probes: 8,
            faults: FaultStats {
                drops: 1,
                crashes: 2,
                mutations: 3,
                ..FaultStats::default()
            },
            max_depth: 9,
            truncated: true,
            duration: Duration::from_millis(250),
        }
    }

    fn round_trip(frame: Frame) {
        let json = frame.to_json();
        // Decode → re-encode must be the identity on the wire form (frames
        // hold types without PartialEq, so equality is checked on the JSON).
        assert_eq!(
            Frame::from_json(&json).expect("frame parses").to_json(),
            json
        );
        // And through the length-prefixed pipe framing.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let mut r = io::BufReader::new(buf.as_slice());
        let read = read_frame(&mut r).expect("read").expect("one frame");
        assert_eq!(read.to_json(), json);
        assert!(read_frame(&mut r).expect("eof").is_none());
    }

    /// A frontier export whose bytes do not depend on any scenario.
    fn golden_export() -> FrontierExport {
        FrontierExport {
            fingerprint: 0xfeed_face_cafe_beef,
            trace: vec![
                Transition::HostSend {
                    host: HostId(1),
                    packet: Packet::l2_ping(7, MacAddr::for_host(1), MacAddr::for_host(2), 3),
                },
                Transition::ProcessPacket {
                    switch: SwitchId(1),
                },
                Transition::ControllerHandle {
                    switch: SwitchId(1),
                },
            ]
            .into(),
            sleep: vec![Transition::HostReceive { host: HostId(2) }],
        }
    }

    /// The transitions of `path`, owned.
    fn steps_of(path: &nice_mc::Path) -> Vec<Transition> {
        path.suffix(0).into_iter().cloned().collect()
    }

    /// [`golden_export`]'s sibling: the same way up to its last step.
    fn golden_sibling() -> FrontierExport {
        let mut steps = steps_of(&golden_export().trace);
        steps.pop();
        steps.push(Transition::HostReceive { host: HostId(2) });
        FrontierExport {
            fingerprint: 7,
            trace: steps.into(),
            sleep: Vec::new(),
        }
    }

    /// One frame of each of the 12 kinds with its `nice-dist-v2` bytes. Ten
    /// of them are their `nice-dist-v1` bytes but for the tag; `states` and
    /// `forward` carry `"keep"`.
    fn golden_frames() -> Vec<(Frame, &'static str)> {
        let violation = WireViolation {
            property: "NoBlackHoles".to_string(),
            message: "packet \"lost\"\nat sw1".to_string(),
            steps: steps_of(&golden_export().trace),
        };
        let max = FrontierExport {
            fingerprint: u64::MAX,
            trace: Vec::new().into(),
            sleep: Vec::new(),
        };
        vec![
            (
                Frame::Job {
                    job: 1,
                    shard: ShardSpec { index: 1, count: 4 },
                    spec: sample_spec(),
                },
                r#"{"schema":"nice-dist-v2","frame":"job","job":1,"shard":{"index":1,"count":4},"spec":{"scenario":"chain:5:2","strategy":"NO-DELAY","reduction":"por","faults":true,"stop_at_first":false,"max_transitions":12345,"max_depth":400,"time_budget_ms":60000,"explored":"tiered","mem_limit":1048576}}"#,
            ),
            (
                Frame::States {
                    job: 2,
                    states: vec![golden_export(), golden_sibling(), max],
                },
                r#"{"schema":"nice-dist-v2","frame":"states","job":2,"states":[{"fingerprint":18369614221190020847,"keep":0,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}],"sleep":[{"kind":"host_receive","host":2}]},{"fingerprint":7,"keep":2,"steps":[{"kind":"host_receive","host":2}],"sleep":[]},{"fingerprint":18446744073709551615,"keep":0,"steps":[],"sleep":[]}]}"#,
            ),
            (
                Frame::Cancel { job: 3 },
                r#"{"schema":"nice-dist-v2","frame":"cancel","job":3}"#,
            ),
            (
                Frame::Finish { job: 4 },
                r#"{"schema":"nice-dist-v2","frame":"finish","job":4}"#,
            ),
            (
                Frame::Shutdown,
                r#"{"schema":"nice-dist-v2","frame":"shutdown"}"#,
            ),
            (
                Frame::Hello { pid: 4242 },
                r#"{"schema":"nice-dist-v2","frame":"hello","pid":4242}"#,
            ),
            (
                Frame::Forward {
                    job: 5,
                    states: vec![golden_export(), golden_sibling()],
                },
                r#"{"schema":"nice-dist-v2","frame":"forward","job":5,"states":[{"fingerprint":18369614221190020847,"keep":0,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}],"sleep":[{"kind":"host_receive","host":2}]},{"fingerprint":7,"keep":2,"steps":[{"kind":"host_receive","host":2}],"sleep":[]}]}"#,
            ),
            (
                Frame::Progress {
                    job: 6,
                    transitions: 100,
                    unique_states: 60,
                    depth: 12,
                },
                r#"{"schema":"nice-dist-v2","frame":"progress","job":6,"transitions":100,"unique_states":60,"depth":12}"#,
            ),
            (
                Frame::Violation {
                    job: 7,
                    violation: violation.clone(),
                },
                r#"{"schema":"nice-dist-v2","frame":"violation","job":7,"violation":{"property":"NoBlackHoles","message":"packet \"lost\"\nat sw1","steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}]}}"#,
            ),
            (
                Frame::Idle {
                    job: 8,
                    received: 17,
                },
                r#"{"schema":"nice-dist-v2","frame":"idle","job":8,"received":17}"#,
            ),
            (
                Frame::JobDone {
                    job: 9,
                    stats: sample_stats(),
                    violations: vec![violation],
                },
                r#"{"schema":"nice-dist-v2","frame":"job_done","job":9,"stats":{"transitions":11,"unique_states":7,"terminal_states":2,"symbolic_executions":1,"pruned_by_strategy":3,"pruned_by_por":4,"dedup_hits":5,"work_steals":6,"peak_explored_bytes":4096,"spilled_shards":2,"filter_hits":13,"disk_probes":8,"max_depth":9,"truncated":true,"duration_ms":250,"faults":{"drops":1,"duplicates":0,"reorders":0,"link_failures":0,"crashes":2,"reconnects":0,"failovers":0,"mutations":3}},"violations":[{"property":"NoBlackHoles","message":"packet \"lost\"\nat sw1","steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}]}]}"#,
            ),
            (
                Frame::Error {
                    job: 10,
                    message: "unknown scenario 'nope'".to_string(),
                },
                r#"{"schema":"nice-dist-v2","frame":"error","job":10,"message":"unknown scenario 'nope'"}"#,
            ),
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for (frame, _) in golden_frames() {
            round_trip(frame);
        }
        round_trip(Frame::Forward {
            job: 1,
            states: sample_exports(),
        });
    }

    #[test]
    fn golden_bytes_are_pinned() {
        for (frame, golden) in golden_frames() {
            assert_eq!(frame.to_json(), golden);
            let parsed = Frame::from_json(golden).expect("golden parses");
            assert_eq!(parsed.to_json(), golden);
        }
        let stats = r#"{"transitions":11,"unique_states":7,"terminal_states":2,"symbolic_executions":1,"pruned_by_strategy":3,"pruned_by_por":4,"dedup_hits":5,"work_steals":6,"peak_explored_bytes":4096,"spilled_shards":2,"filter_hits":13,"disk_probes":8,"max_depth":9,"truncated":true,"duration_ms":250,"faults":{"drops":1,"duplicates":0,"reorders":0,"link_failures":0,"crashes":2,"reconnects":0,"failovers":0,"mutations":3}}"#;
        assert_eq!(sample_stats().to_json().compact(), stats);
        let parsed = SearchStats::from_json(&Json::parse(stats).unwrap()).expect("golden parses");
        assert_eq!(parsed.to_json().compact(), stats);
    }

    #[test]
    fn rejects_foreign_schemas_and_corrupt_framing() {
        assert!(Frame::from_json("{\"schema\":\"nice-trace-v1\",\"frame\":\"job\"}").is_err());
        // A peer from before `keep` would hand over whole traces the owner
        // takes for suffixes (or the reverse): it must fail on the tag.
        for (frame, golden) in golden_frames() {
            let stale = golden.replacen("nice-dist-v2", "nice-dist-v1", 1);
            let wire = format!("{} {stale}\n", stale.len());
            let err = read_frame(&mut wire.as_bytes()).expect_err(&format!("{frame:?}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("unknown schema 'nice-dist-v1'"),
                "{err}"
            );
        }
        assert!(Frame::from_json("{\"frame\":\"cancel\",\"job\":1}").is_err());
        let mut r = io::BufReader::new(&b"9 {\"a\":1}\n"[..]);
        assert!(read_frame(&mut r).is_err(), "length mismatch must fail");
        let mut r = io::BufReader::new(&b"nolength\n"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn a_deeply_nested_frame_is_invalid_data_not_a_stack_overflow() {
        // What `nice serve`'s client reader and a worker's stdin thread see
        // when the other process sends 100 000 opening brackets.
        let hostile = format!("100000 {}\n", "[".repeat(100_000));
        let err = read_frame(&mut hostile.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn u64_fingerprints_survive_the_wire() {
        let frame = Frame::States {
            job: 1,
            states: vec![FrontierExport {
                fingerprint: u64::MAX,
                trace: Vec::new().into(),
                sleep: Vec::new(),
            }],
        };
        round_trip(frame);
    }

    /// Crash recovery re-sends a worker's whole forward log as one `states`
    /// frame, so the codec has to stay linear in the frame's size: a parser
    /// that re-scans its input per character takes minutes here. The bound
    /// is two orders of magnitude above what a linear codec needs.
    #[test]
    fn a_four_megabyte_states_frame_round_trips_in_linear_time() {
        // Neighbours that share nothing, so that every state travels whole.
        let (export, mut other) = (sample_exports().remove(0), sample_exports().remove(0));
        let mut detour = vec![Transition::HostReceive { host: HostId(9) }];
        detour.extend(steps_of(&other.trace));
        other.trace = detour.into();
        let states_frame = |states| Frame::States { job: 1, states }.to_json().len();
        let pair = states_frame(vec![export.clone(), other.clone()]) - states_frame(Vec::new());
        let copies = (4 << 20) / pair + 1;
        let frame = Frame::States {
            job: 1,
            states: (0..copies)
                .flat_map(|_| [export.clone(), other.clone()])
                .collect(),
        };
        let started = Instant::now();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write");
        assert!(wire.len() >= 4 << 20, "{} bytes", wire.len());
        let read = read_frame(&mut wire.as_slice()).expect("read");
        let elapsed = started.elapsed();
        let Some(Frame::States { states, .. }) = read else {
            panic!("a states frame decoded as something else");
        };
        let Frame::States { states: sent, .. } = frame else {
            unreachable!()
        };
        assert_eq!(states, sent);
        assert!(elapsed.as_secs() < 5, "round trip took {elapsed:?}");
    }

    /// 64 depth-first neighbours: one long way, then siblings at its end.
    fn neighbours() -> Vec<FrontierExport> {
        let way = steps_of(&sample_exports()[0].trace);
        let way: Vec<Transition> = (0..8).flat_map(|_| way.clone()).collect();
        (0..64)
            .map(|host| {
                let mut steps = way[..way.len() - (host as usize % 5)].to_vec();
                steps.push(Transition::HostReceive { host: HostId(host) });
                FrontierExport {
                    fingerprint: u64::from(host),
                    trace: steps.into(),
                    sleep: Vec::new(),
                }
            })
            .collect()
    }

    #[test]
    fn a_corrupt_keep_is_invalid_data_not_a_panic_or_a_state() {
        let states = neighbours();
        let deepest = states.iter().map(|s| s.trace.len()).max().unwrap();
        let json = Frame::Forward { job: 1, states }.to_json();
        let read = |json: &str| read_frame(&mut format!("{} {json}\n", json.len()).as_bytes());
        let Some(Frame::Forward {
            states: decoded, ..
        }) = read(&json).expect("intact")
        else {
            panic!("a forward frame decoded as something else");
        };
        assert_eq!(decoded, neighbours());
        assert_eq!(json.matches("\"keep\":").count(), 64);
        // Every state's keep in turn, past anything the frame holds.
        for (at, _) in json.match_indices("\"keep\":") {
            let digits = json[at + 7..].find(',').unwrap();
            let corrupt = format!(
                "{}{}{}",
                &json[..at + 7],
                deepest + 1,
                &json[at + 7 + digits..]
            );
            let err = read(&corrupt).expect_err("a keep past the previous trace");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("keep"), "{err}");
        }
        // The first state has nothing before it to keep from.
        let first = json.replacen("\"keep\":0", "\"keep\":1", 1);
        let err = read(&first).expect_err("a keep on the first state");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("state 0: keep 1"), "{err}");
    }

    #[test]
    fn a_batch_is_no_dearer_than_its_states_sent_singly() {
        let states = neighbours();
        let over_the_wire = |frames: &[Frame]| {
            let started = Instant::now();
            let mut bytes = 0;
            for frame in frames {
                let mut wire = Vec::new();
                write_frame(&mut wire, frame).expect("write");
                bytes += wire.len();
                read_frame(&mut wire.as_slice())
                    .expect("read")
                    .expect("a frame");
            }
            (started.elapsed(), bytes)
        };
        let frame = |states: &[FrontierExport]| Frame::States {
            job: 1,
            states: states.to_vec(),
        };
        let singly: Vec<Frame> = states.chunks(1).map(frame).collect();
        let batched = [frame(&states)];
        // Best of five a side: the batch writes a fraction of the bytes, so
        // "no slower" holds with a wide margin when nothing is quadratic.
        let best = |frames: &[Frame]| (0..5).map(|_| over_the_wire(frames)).min().unwrap();
        let ((singly_took, singly_bytes), (batched_took, batched_bytes)) =
            (best(&singly), best(&batched));
        assert!(
            batched_bytes * 4 < singly_bytes,
            "{batched_bytes} vs {singly_bytes} bytes"
        );
        assert!(
            batched_took <= singly_took,
            "{batched_took:?} vs {singly_took:?}"
        );
    }
}
