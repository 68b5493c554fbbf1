//! Job orchestration over one worker process.
//!
//! A [`Coordinator`] sends a job to its `nice-dist-worker` and relays what
//! the worker reports: its `progress` and `violation` frames while the job
//! runs, then its own `job_done` or `error`. The worker runs the job whole,
//! the way `nice run` does, so its transition budget, its
//! `stop_at_first_violation` and its deadline stop it exactly where `nice
//! run` stops; the coordinator only turns a caller's cancel into a `cancel`
//! frame.
//!
//! **Crash recovery.** When the worker's pipe hits EOF mid-job, the
//! coordinator respawns it (bumping its generation — frames a dead process
//! left behind are discarded by generation tag) and re-sends the job with
//! what is left of its time budget; the job restarts from the root. The
//! `job_done` is the fresh process's, so its counters equal a crash-free
//! run's exactly.

use crate::process::{WorkerEvent, WorkerProcess};
use crate::proto::{Frame, WireViolation};
use nice_mc::{CheckReport, CheckerConfig, Json, SearchStats, TraceEngine};
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
    /// Wall-clock budget for the job in milliseconds (0 = no deadline),
    /// kept by the worker's session.
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

    /// The report a `job_done` frame of this job stands for, as a client
    /// reads it: the frame has no outcome, so a job its deadline or a
    /// cancel stopped reads as truncated.
    pub fn report(&self, stats: SearchStats, violations: Vec<WireViolation>) -> CheckReport {
        let engine = TraceEngine::from_config(&self.config);
        CheckReport {
            violations: (violations.into_iter())
                .map(|v| v.into_violation(&self.scenario, engine))
                .collect(),
            stats,
            ..CheckReport::default()
        }
    }
}

/// How often a running job polls the caller's cancel flag.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// The checking coordinator: one worker process and the job it runs.
pub struct Coordinator {
    worker: WorkerProcess,
    /// The worker died and was not respawned: the last job gave up on it.
    dead: bool,
}

impl Coordinator {
    /// Spawns a coordinator and its process of the worker binary
    /// `worker_bin` (see [`worker_bin`](crate::worker_bin)).
    pub fn new(worker_bin: PathBuf) -> io::Result<Coordinator> {
        Ok(Coordinator {
            worker: WorkerProcess::spawn(worker_bin)?,
            dead: false,
        })
    }

    /// Runs `spec` as job `job` to completion. Hands `sink` each `progress`
    /// and `violation` frame of the live worker, then its `job_done` or
    /// `error`, which ends the job. `cancel` (when provided) is polled and
    /// sent on as a `cancel` frame; the job still ends with its `job_done`.
    /// Returns how many times the worker died and the job restarted; an
    /// error means no final frame came: the worker kept dying without a
    /// frame, or could not be respawned. The caller tells its client.
    pub fn run_job(
        &mut self,
        job: u64,
        spec: &JobSpec,
        mut sink: impl FnMut(Frame),
        cancel: Option<&AtomicBool>,
    ) -> io::Result<u32> {
        if self.dead {
            self.worker.respawn()?;
            self.dead = false;
        }
        let start = Instant::now();
        // Consecutive crashes with no frame in between. A worker that dies
        // deterministically right after spawn (stale or broken binary,
        // protocol mismatch) would otherwise be respawned forever and hang
        // the job.
        let mut crash_streak = 0u32;
        let mut restarts = 0u32;
        let mut cancelled = false;
        self.worker.send(&Frame::Job {
            job,
            spec: spec.clone(),
        })?;

        loop {
            if !cancelled && cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                cancelled = true;
                self.worker.send(&Frame::Cancel { job })?;
            }

            // The timeout only paces the cancel poll above: every frame
            // wakes this at once.
            let (generation, event) = match self.worker.events().recv_timeout(CANCEL_POLL) {
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
                    self.dead = true;
                    crash_streak += 1;
                    if crash_streak > MAX_CRASH_STREAK {
                        return Err(io::Error::other(format!(
                            "worker died {crash_streak} times in a row without \
                             producing a frame; giving up (broken or stale \
                             worker binary?)"
                        )));
                    }
                    self.worker.respawn()?;
                    self.dead = false;
                    restarts += 1;
                    let mut spec = spec.clone();
                    if spec.time_budget_ms > 0 {
                        let spent = start.elapsed().as_millis() as u64;
                        // Never 0, which would mean no deadline at all.
                        spec.time_budget_ms = spec.time_budget_ms.saturating_sub(spent).max(1);
                    }
                    self.worker.send(&Frame::Job { job, spec })?;
                    if cancelled {
                        self.worker.send(&Frame::Cancel { job })?;
                    }
                    continue;
                }
            };

            match frame {
                Frame::Progress { job: j, .. } | Frame::Violation { job: j, .. } if j == job => {
                    crash_streak = 0;
                    sink(frame);
                }
                Frame::JobDone { job: j, .. } | Frame::Error { job: j, .. } if j == job => {
                    sink(frame);
                    return Ok(restarts);
                }
                // `hello` deliberately does not clear the crash streak: a
                // stale binary still greets before choking on the job frame.
                _ => {}
            }
        }
    }
}
