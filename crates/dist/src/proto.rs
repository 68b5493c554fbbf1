//! The `nice-dist-v8` wire protocol.
//!
//! Every frame is one line: `<len> <json>\n`, where `<len>` is the byte
//! length of `<json>` and `<json>` is a single-line JSON object carrying
//! `"schema": "nice-dist-v8"` and a `"frame"` discriminant. Frames are
//! built as [`nice_mc::json::Json`] values and rendered by its writer, so
//! an outgoing frame is well-formed by construction; incoming bytes go
//! through its strict, linear, depth-bounded parser, so a hostile or
//! corrupt peer gets an `InvalidData` error, not a stack overflow.
//!
//! Transition sequences reuse the `nice-trace-v1` step objects
//! ([`nice_mc::trace::steps_to_json`]), so a violation streamed by a
//! worker carries the same replayable steps a trace file does.
//!
//! **The `forward` and `states` frames are kept for the benchmark only.** No
//! coordinator or worker sends them: every job runs whole on one worker, so
//! no state is forwarded. `benchmark/`'s shard probe still times
//! [`nice_mc::ShardedSearch`]'s forwarding through this codec, so the two
//! frames and their golden bytes stay until that probe moves off them.
//! Their `"states"` array ([`nice_mc::shard::exports_to_json`]) writes each
//! state as `{"fingerprint", "steps", "sleep"}`: its whole trace from the
//! initial state and its sleep set.
//!
//! `v2` wrote those traces as deltas against the state before them, and
//! `v5` writes them whole again. `v3` dropped the explored-set settings from
//! the `job` spec and the spill counters from the `job_done` stats, which
//! gained `depth_bounded`. `v4` dropped the `job` frame's `shard` and the
//! `idle` and `finish` frames of the sharded job. `v6` dropped `hello`,
//! which nothing read, and `shutdown`, which closing the worker's stdin
//! already means. `v7` dropped `job_done`'s `violations`, which repeated
//! every `violation` frame of the job. `v8` dropped the `failovers` and
//! `mutations` fault counters of `job_done`'s stats, whose fault classes
//! are gone. Either way a stale worker binary must fail loudly on the
//! schema tag instead of exploring a wrong state or misreading a verdict
//! silently. Within a tag, a reader refuses any member its writer does not
//! write for the frame's kind, so nothing a peer sends is skipped.
//!
//! | frame | direction | meaning |
//! |-------|-----------|---------|
//! | `job` | C → W | run a job whole (scenario spec + engine config) |
//! | `cancel` | C → W | stop expanding (the job still completes with `job_done`) |
//! | `progress` | W → C | periodic transition/state counters |
//! | `violation` | W → C | a violation, streamed live with its steps |
//! | `job_done` | W → C | final stats (the job's violations are its `violation` frames); `truncated` also when a cancel or the deadline stopped the job |
//! | `error` | W → C | the job could not run (e.g. unknown scenario spec) |
//! | `forward`, `states` | — | frontier exports (fingerprint, trace, sleep set); benchmark only |

use nice_mc::shard::{exports_from_json, exports_to_json};
use nice_mc::trace::{steps_from_json, steps_to_json};
use nice_mc::{FrontierExport, Json, SearchStats, Trace, TraceEngine, Transition, Violation};
use std::io::{self, BufRead, Write};

use crate::coordinator::JobSpec;

/// The schema tag every `nice-dist-v8` frame carries.
pub const DIST_SCHEMA: &str = "nice-dist-v8";

/// One violation on the wire: property, message, and the replayable
/// transition steps from the initial state.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// The checker's form of this violation, its trace recorded as of
    /// `scenario` under `engine`. Discovery counters are left at zero: the
    /// wire does not carry them.
    pub fn into_violation(self, scenario: &str, engine: TraceEngine) -> Violation {
        Violation {
            property: self.property.clone(),
            message: self.message.clone(),
            trace: Trace {
                scenario: scenario.to_string(),
                engine,
                steps: self.steps,
                property: Some(self.property),
                message: Some(self.message),
            },
            transitions_explored: 0,
            unique_states: 0,
        }
    }

    /// The violation object of the `violation` frame.
    pub fn to_json(&self) -> Json<'_> {
        Json::object([
            ("property", self.property.as_str().into()),
            ("message", self.message.as_str().into()),
            ("steps", steps_to_json(&self.steps)),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) writes, and nothing more.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        value.within(&WireViolation::default().to_json())?;
        Ok(WireViolation {
            property: value.str("property")?.to_string(),
            message: value.str("message")?.to_string(),
            steps: steps_from_json(value, "steps")?,
        })
    }
}

/// A `nice-dist-v8` frame. See the [module docs](self) for the table.
#[derive(Debug, Clone)]
pub enum Frame {
    /// C → W: run `job` whole with the given spec.
    Job {
        /// Job id (coordinator-assigned, echoed by every worker frame).
        job: u64,
        /// What to check and how.
        spec: JobSpec,
    },
    /// Frontier exports for a shard to inject (benchmark only).
    States {
        /// Job id.
        job: u64,
        /// The exported states to inject.
        states: Vec<FrontierExport>,
    },
    /// C → W: stop expanding and report with `job_done`.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Frontier exports a shard made for other shards (benchmark only).
    Forward {
        /// Job id.
        job: u64,
        /// The exported states.
        states: Vec<FrontierExport>,
    },
    /// W → C: periodic counters (live progress).
    Progress {
        /// Job id.
        job: u64,
        /// Transitions executed so far.
        transitions: u64,
        /// Unique states explored so far.
        unique_states: u64,
        /// Depth of the path that triggered this report.
        depth: u64,
    },
    /// W → C: a violation, streamed live. A job's violation frames, in the
    /// order they come, are its report's violations.
    Violation {
        /// Job id.
        job: u64,
        /// The violation.
        violation: WireViolation,
    },
    /// W → C: the job's final report.
    JobDone {
        /// Job id.
        job: u64,
        /// Search statistics.
        stats: SearchStats,
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
    /// Renders the frame as its single-line `nice-dist-v8` JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().compact()
    }

    /// The frame as a JSON object.
    fn to_value(&self) -> Json<'_> {
        let (kind, job, body): (&str, u64, Vec<(&'static str, Json)>) = match self {
            Frame::Job { job, spec } => ("job", *job, vec![("spec", spec.to_json())]),
            Frame::States { job, states } => {
                ("states", *job, vec![("states", exports_to_json(states))])
            }
            Frame::Cancel { job } => ("cancel", *job, vec![]),
            Frame::Forward { job, states } => {
                ("forward", *job, vec![("states", exports_to_json(states))])
            }
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
                ("progress", *job, body)
            }
            Frame::Violation { job, violation } => {
                ("violation", *job, vec![("violation", violation.to_json())])
            }
            Frame::JobDone { job, stats } => ("job_done", *job, vec![("stats", stats.to_json())]),
            Frame::Error { job, message } => {
                ("error", *job, vec![("message", message.as_str().into())])
            }
        };
        let head = [
            ("schema", DIST_SCHEMA.into()),
            ("frame", kind.into()),
            ("job", job.into()),
        ];
        Json::object(head.into_iter().chain(body))
    }

    /// Parses a single-line `nice-dist-v8` JSON document, refusing a
    /// member that [`to_json`](Self::to_json) does not write for its kind.
    pub fn from_json(input: &str) -> Result<Frame, String> {
        let value = Json::parse(input)?;
        let schema = value.str("schema")?;
        if schema != DIST_SCHEMA {
            return Err(format!("unknown schema '{schema}' (want '{DIST_SCHEMA}')"));
        }
        let job = || value.u64("job");
        let frame = match value.str("frame")? {
            "job" => Frame::Job {
                job: job()?,
                spec: JobSpec::from_json(value.get("spec")?)?,
            },
            "states" => Frame::States {
                job: job()?,
                states: exports_from_json(value.arr("states")?)?,
            },
            "cancel" => Frame::Cancel { job: job()? },
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
            "job_done" => Frame::JobDone {
                job: job()?,
                stats: SearchStats::from_json(value.get("stats")?)?,
            },
            "error" => Frame::Error {
                job: job()?,
                message: value.str("message")?.to_string(),
            },
            other => return Err(format!("unknown frame kind '{other}'")),
        };
        // What the frame writes back is the template of what it may hold.
        value.within(&frame.to_value())?;
        Ok(frame)
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
    use nice_mc::{CheckerConfig, FaultStats, ReductionKind, StrategyKind};
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
                .with_max_transitions(12345),
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
            faults: FaultStats {
                drops: 1,
                crashes: 2,
                ..FaultStats::default()
            },
            max_depth: 9,
            truncated: true,
            depth_bounded: true,
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

    /// One frame of each of the 8 kinds with its `nice-dist-v8` bytes: its
    /// `nice-dist-v7` bytes but for the tag, and for `job_done`'s fault
    /// counters, which no longer carry `failovers` and `mutations`.
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
                    spec: sample_spec(),
                },
                r#"{"schema":"nice-dist-v8","frame":"job","job":1,"spec":{"scenario":"chain:5:2","strategy":"NO-DELAY","reduction":"por","faults":true,"stop_at_first":false,"max_transitions":12345,"max_depth":400,"time_budget_ms":60000}}"#,
            ),
            (
                Frame::States {
                    job: 2,
                    states: vec![golden_export(), golden_sibling(), max],
                },
                r#"{"schema":"nice-dist-v8","frame":"states","job":2,"states":[{"fingerprint":18369614221190020847,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}],"sleep":[{"kind":"host_receive","host":2}]},{"fingerprint":7,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"host_receive","host":2}],"sleep":[]},{"fingerprint":18446744073709551615,"steps":[],"sleep":[]}]}"#,
            ),
            (
                Frame::Cancel { job: 3 },
                r#"{"schema":"nice-dist-v8","frame":"cancel","job":3}"#,
            ),
            (
                Frame::Forward {
                    job: 5,
                    states: vec![golden_export(), golden_sibling()],
                },
                r#"{"schema":"nice-dist-v8","frame":"forward","job":5,"states":[{"fingerprint":18369614221190020847,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}],"sleep":[{"kind":"host_receive","host":2}]},{"fingerprint":7,"steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"host_receive","host":2}],"sleep":[]}]}"#,
            ),
            (
                Frame::Progress {
                    job: 6,
                    transitions: 100,
                    unique_states: 60,
                    depth: 12,
                },
                r#"{"schema":"nice-dist-v8","frame":"progress","job":6,"transitions":100,"unique_states":60,"depth":12}"#,
            ),
            (
                Frame::Violation { job: 7, violation },
                r#"{"schema":"nice-dist-v8","frame":"violation","job":7,"violation":{"property":"NoBlackHoles","message":"packet \"lost\"\nat sw1","steps":[{"kind":"host_send","host":1,"packet":{"id":7,"src_mac":2199023255553,"dst_mac":2199023255554,"eth_type":34997,"src_ip":0,"dst_ip":0,"nw_proto":0,"src_port":0,"dst_port":0,"tcp_flags":0,"arp_op":0,"payload":3}},{"kind":"process_pkt","switch":1},{"kind":"ctrl_handle","switch":1}]}}"#,
            ),
            (
                Frame::JobDone {
                    job: 9,
                    stats: sample_stats(),
                },
                r#"{"schema":"nice-dist-v8","frame":"job_done","job":9,"stats":{"transitions":11,"unique_states":7,"terminal_states":2,"symbolic_executions":1,"pruned_by_strategy":3,"pruned_by_por":4,"dedup_hits":5,"work_steals":6,"peak_explored_bytes":4096,"max_depth":9,"truncated":true,"depth_bounded":true,"duration_ms":250,"faults":{"drops":1,"duplicates":0,"reorders":0,"link_failures":0,"crashes":2,"reconnects":0}}}"#,
            ),
            (
                Frame::Error {
                    job: 10,
                    message: "unknown scenario 'nope'".to_string(),
                },
                r#"{"schema":"nice-dist-v8","frame":"error","job":10,"message":"unknown scenario 'nope'"}"#,
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
        let stats = r#"{"transitions":11,"unique_states":7,"terminal_states":2,"symbolic_executions":1,"pruned_by_strategy":3,"pruned_by_por":4,"dedup_hits":5,"work_steals":6,"peak_explored_bytes":4096,"max_depth":9,"truncated":true,"depth_bounded":true,"duration_ms":250,"faults":{"drops":1,"duplicates":0,"reorders":0,"link_failures":0,"crashes":2,"reconnects":0}}"#;
        assert_eq!(sample_stats().to_json().compact(), stats);
        let parsed = SearchStats::from_json(&Json::parse(stats).unwrap()).expect("golden parses");
        assert_eq!(parsed.to_json().compact(), stats);
    }

    #[test]
    fn rejects_foreign_schemas_and_corrupt_framing() {
        assert!(Frame::from_json("{\"schema\":\"nice-trace-v1\",\"frame\":\"job\"}").is_err());
        // A v7 worker writes `failovers` and `mutations` in `job_done`'s
        // fault counters, which this side no longer has: it must fail on
        // the tag.
        for (frame, golden) in golden_frames() {
            let stale = golden.replacen("nice-dist-v8", "nice-dist-v7", 1);
            let wire = format!("{} {stale}\n", stale.len());
            let err = read_frame(&mut wire.as_bytes()).expect_err(&format!("{frame:?}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("unknown schema 'nice-dist-v7'"),
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
    fn a_job_frame_cannot_pick_the_worker_thread_count() {
        // The wire never carries `workers`; a client that sends it asks the
        // worker process for that many threads, and is refused. Parsing
        // only: no search starts.
        let (_, golden) = &golden_frames()[0];
        for workers in ["1", "100000"] {
            let hostile = golden.replacen(
                r#""time_budget_ms""#,
                &format!(r#""workers":{workers},"time_budget_ms""#),
                1,
            );
            let err = Frame::from_json(&hostile).unwrap_err();
            assert_eq!(err, "unknown key 'workers'");
            let wire = format!("{} {hostile}\n", hostile.len());
            let err = read_frame(&mut wire.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        assert!(Frame::from_json(golden).is_ok());
    }

    /// A member the writer does not write for a frame's kind is refused, at
    /// the frame's top level and inside its stats: nothing is skipped.
    #[test]
    fn a_member_the_writer_does_not_write_is_invalid_data() {
        let refused = |json: &str, key: &str| {
            let wire = format!("{} {json}\n", json.len());
            let err = read_frame(&mut wire.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{json}");
            assert!(
                err.to_string().contains(&format!("unknown key '{key}'")),
                "{err}"
            );
        };
        for (_, golden) in golden_frames() {
            refused(
                &golden.replacen(r#","job":"#, r#","bogus":true,"job":"#, 1),
                "bogus",
            );
        }
        let (_, done) = &golden_frames()[6];
        assert!(done.contains(r#""frame":"job_done""#));
        refused(
            &done.replacen(r#""reconnects":0"#, r#""reconnects":0,"mutations":0"#, 1),
            "mutations",
        );
        refused(
            &done.replacen(r#""duration_ms""#, r#""violations":[],"duration_ms""#, 1),
            "violations",
        );
        let (_, violation) = &golden_frames()[5];
        refused(
            &violation.replacen(r#""steps""#, r#""trace":null,"steps""#, 1),
            "trace",
        );
    }

    /// Every golden frame cut at every byte offset, and with every byte
    /// replaced by `"`, `}` or 0xff, through both readers: neither panics,
    /// and what one accepts re-encodes to the bytes it read.
    #[test]
    fn a_cut_or_corrupted_frame_is_an_error_or_itself() {
        let read = |wire: &[u8]| match read_frame(&mut &wire[..]) {
            Ok(None) => assert!(wire.is_empty(), "{:?}", String::from_utf8_lossy(wire)),
            Ok(Some(frame)) => {
                let mut again = Vec::new();
                write_frame(&mut again, &frame).expect("write");
                let unended = again.strip_suffix(b"\n");
                assert!(again == wire || unended == Some(wire), "{frame:?}");
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        };
        let parse = |json: &[u8]| {
            let Ok(text) = std::str::from_utf8(json) else {
                return;
            };
            if let Ok(frame) = Frame::from_json(text) {
                assert_eq!(frame.to_json(), text);
            }
        };
        let (mut cut, mut corrupted) = (0, 0);
        for (_, golden) in golden_frames() {
            let wire = format!("{} {golden}\n", golden.len()).into_bytes();
            for at in 0..wire.len() {
                read(&wire[..at]);
                cut += 1;
            }
            for at in 0..golden.len() {
                parse(&golden.as_bytes()[..at]);
            }
            for byte in [b'"', b'}', 0xff] {
                for at in 0..wire.len() {
                    let mut bad = wire.clone();
                    bad[at] = byte;
                    read(&bad);
                    corrupted += 1;
                }
                for at in 0..golden.len() {
                    let mut bad = golden.as_bytes().to_vec();
                    bad[at] = byte;
                    parse(&bad);
                }
            }
        }
        // The eight goldens are 2 868 bytes on the wire.
        assert!(
            cut > 2800 && corrupted == 3 * cut,
            "{cut} cuts, {corrupted}"
        );
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

    /// The codec has to stay linear in the frame's size: a parser that
    /// re-scans its input per character takes minutes on a 4 MiB `states`
    /// frame. The bound is two orders of magnitude above what a linear codec
    /// needs.
    #[test]
    fn a_four_megabyte_states_frame_round_trips_in_linear_time() {
        let export = sample_exports().remove(0);
        let states_frame = |states| Frame::States { job: 1, states }.to_json().len();
        let each = states_frame(vec![export.clone()]) - states_frame(Vec::new());
        let copies = (4 << 20) / each + 1;
        let frame = Frame::States {
            job: 1,
            states: vec![export; copies],
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
}
