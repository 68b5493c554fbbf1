//! Job orchestration over one worker process.
//!
//! A [`Coordinator`] sends a job to its `nice-dist-worker`, relays the
//! worker's `progress` and `violation` frames as [`JobEvent`]s, and builds
//! the job's [`CheckReport`] from its `job_done`. The worker runs the job
//! whole on the sequential engine, so its own `max_transitions` and
//! `stop_at_first_violation` stop it exactly where `nice run` stops; the
//! coordinator only turns a caller's cancel or the job's deadline into a
//! `cancel` frame.
//!
//! **Crash recovery.** When the worker's pipe hits EOF mid-job, the
//! coordinator respawns it (bumping its generation — frames a dead process
//! left behind are discarded by generation tag) and re-sends the job, which
//! restarts from the root. The counters of the report are the fresh
//! process's, so they equal a crash-free run's exactly.

use crate::process::{WorkerEvent, WorkerProcess};
use crate::proto::{Frame, WireViolation};
use nice_mc::{CheckReport, CheckerConfig, InterruptReason, Json, Outcome, TraceEngine};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Consecutive no-frame crashes of the worker before the coordinator gives
/// up on the job instead of respawning forever. Genuine mid-job crashes
/// reset the streak with every frame the worker produced; only a process
/// that dies *immediately* on every spawn (stale binary speaking an old
/// protocol, missing shared library, bad [`crate::WORKER_BIN_ENV`]
/// override) climbs past this.
const MAX_CRASH_STREAK: u32 = 5;

/// What to check and how: a scenario spec, the [`CheckerConfig`] to search
/// it with and the job's deadline. Serialized inside the `job` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Scenario spec, resolved worker-side by
    /// [`nice_apps::workloads::resolve`]: a registry scenario name
    /// (`bug-v-packets-dropped-in-transition`) or a parameterised workload
    /// (`ping:2`, `chain:5:2`, `chain-faults:3:1`).
    pub scenario: String,
    /// The search configuration. The worker runs it on the sequential
    /// engine, so `workers` stays 1 and the wire does not carry it.
    pub config: CheckerConfig,
    /// Wall-clock budget for the job in milliseconds (0 = unlimited).
    pub time_budget_ms: u64,
}

impl JobSpec {
    /// A spec with the engine defaults for the given scenario.
    pub fn new(scenario: impl Into<String>) -> Self {
        JobSpec {
            scenario: scenario.into(),
            config: CheckerConfig::default(),
            time_budget_ms: 0,
        }
    }

    /// The `"spec"` object of the `job` frame: the scenario, the config's
    /// members but `workers`, then the deadline.
    pub fn to_json(&self) -> Json<'_> {
        let Json::Obj(mut members) = self.config.to_json() else {
            unreachable!("a config is written as an object")
        };
        members.retain(|(key, _)| key != "workers");
        members.insert(0, ("scenario".into(), self.scenario.as_str().into()));
        members.push(("time_budget_ms".into(), self.time_budget_ms.into()));
        Json::Obj(members)
    }

    /// Reads what [`to_json`](Self::to_json) writes: the config is what
    /// remains once the scenario and the deadline are taken out.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let Json::Obj(members) = value else {
            return Err("a job spec must be an object".into());
        };
        let own = ["scenario", "time_budget_ms"];
        let config = members
            .iter()
            .filter(|(key, _)| !own.contains(&key.as_ref()));
        Ok(JobSpec {
            scenario: value.str("scenario")?.to_string(),
            config: CheckerConfig::from_json(&Json::Obj(config.cloned().collect()))?,
            time_budget_ms: value.u64("time_budget_ms")?,
        })
    }
}

/// Live events streamed to the job's submitter while it runs. The final
/// [`CheckReport`] — not this stream — is authoritative: a worker crash
/// restarts the job, which streams its violations again.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job was sent to the worker.
    Started,
    /// Sampled progress of the worker's search.
    Progress {
        /// Transitions executed.
        transitions: u64,
        /// Unique states explored.
        unique_states: u64,
        /// Depth of the path that triggered this report.
        depth: u64,
    },
    /// The worker found (and streamed) a violation.
    Violation(WireViolation),
    /// The worker process died and was respawned; the job restarted from
    /// the root.
    WorkerRestarted,
}

/// The checking coordinator: one worker process and the job it runs.
pub struct Coordinator {
    worker: WorkerProcess,
    next_job: u64,
}

impl Coordinator {
    /// Spawns a coordinator and its process of the worker binary
    /// `worker_bin` (see [`worker_bin`](crate::worker_bin)).
    pub fn new(worker_bin: PathBuf) -> io::Result<Coordinator> {
        Ok(Coordinator {
            worker: WorkerProcess::spawn(worker_bin)?,
            next_job: 1,
        })
    }

    /// Runs one job to completion, streaming [`JobEvent`]s to `on_event`.
    /// `cancel` (when provided) is polled and stops the job early with
    /// [`Outcome::Interrupted`]. Returns the job's report.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        mut on_event: impl FnMut(JobEvent),
        cancel: Option<&AtomicBool>,
    ) -> io::Result<CheckReport> {
        // Validate the spec coordinator-side too: a clean error now beats
        // an `error` frame later.
        let scenario_name = nice_apps::workloads::resolve(&spec.scenario)
            .map(|s| s.name)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown scenario spec '{}'", spec.scenario),
                )
            })?;

        let job = self.next_job;
        self.next_job += 1;
        let start = Instant::now();
        let deadline =
            (spec.time_budget_ms > 0).then(|| start + Duration::from_millis(spec.time_budget_ms));
        let job_frame = Frame::Job {
            job,
            spec: spec.clone(),
        };
        // Consecutive crashes with no frame in between. A worker that dies
        // deterministically right after spawn (stale or broken binary,
        // protocol mismatch) would otherwise be respawned forever and hang
        // the job.
        let mut crash_streak = 0u32;
        let mut interrupted: Option<InterruptReason> = None;

        self.worker.send(&job_frame)?;
        on_event(JobEvent::Started);

        loop {
            // External stop conditions, polled between events.
            if interrupted.is_none() {
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    interrupted = Some(InterruptReason::Cancelled);
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    interrupted = Some(InterruptReason::DeadlineExceeded);
                }
                if interrupted.is_some() {
                    self.worker.send(&Frame::Cancel { job })?;
                }
            }

            // The timeout only paces the cancel and deadline polls above:
            // every frame wakes this at once.
            let (generation, event) =
                match self.worker.events().recv_timeout(Duration::from_millis(50)) {
                    Ok(event) => event,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "worker event channel closed",
                        ));
                    }
                };
            if generation != self.worker.generation() {
                continue; // a dead process's leftovers
            }

            let frame = match event {
                WorkerEvent::Frame(frame) => *frame,
                WorkerEvent::Eof => {
                    // Crash: respawn and restart the job from the root.
                    crash_streak += 1;
                    if crash_streak > MAX_CRASH_STREAK {
                        return Err(io::Error::other(format!(
                            "worker died {crash_streak} times in a row without \
                             producing a frame; giving up (broken or stale \
                             worker binary?)"
                        )));
                    }
                    on_event(JobEvent::WorkerRestarted);
                    self.worker.respawn()?;
                    self.worker.send(&job_frame)?;
                    if interrupted.is_some() {
                        self.worker.send(&Frame::Cancel { job })?;
                    }
                    continue;
                }
            };

            match frame {
                // `hello` deliberately does not clear the crash streak: a
                // stale binary still greets before choking on the job frame.
                Frame::Hello { .. } => {}
                Frame::Progress {
                    job: j,
                    transitions,
                    unique_states,
                    depth,
                } if j == job => {
                    crash_streak = 0;
                    on_event(JobEvent::Progress {
                        transitions,
                        unique_states,
                        depth,
                    });
                }
                Frame::Violation { job: j, violation } if j == job => {
                    crash_streak = 0;
                    on_event(JobEvent::Violation(violation));
                }
                Frame::JobDone {
                    job: j,
                    stats,
                    violations,
                } if j == job => {
                    let engine = TraceEngine::from_config(&spec.config);
                    let mut report = CheckReport {
                        violations: (violations.into_iter())
                            .map(|v| v.into_violation(&scenario_name, engine))
                            .collect(),
                        stats,
                        outcome: interrupted.map_or(Outcome::Completed, Outcome::Interrupted),
                    };
                    report.stats.duration = start.elapsed();
                    for v in &mut report.violations {
                        v.transitions_explored = report.stats.transitions;
                        v.unique_states = report.stats.unique_states;
                    }
                    report.sort_violations();
                    return Ok(report);
                }
                Frame::Error { job: j, message } if j == job => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                _ => {} // frames of earlier jobs
            }
        }
    }
}
