//! Job orchestration over one worker process.
//!
//! A [`Coordinator`] owns one `nice-dist-worker` child: its stdin, and a
//! channel that a reader thread fills with the frames of its stdout. It
//! sends a job to the worker and relays what the worker reports: its
//! `progress` and `violation` frames while the job runs, then its own
//! `job_done` or `error`. The worker runs the job whole, the way `nice run`
//! does, so its transition budget, its `stop_at_first_violation` and its
//! deadline stop it exactly where `nice run` stops; the coordinator only
//! turns a caller's cancel into a `cancel` frame.
//!
//! **A dead worker fails its job.** The search is deterministic, so a job
//! restarted after its worker died would meet the same end again. When the
//! worker's stdout closes mid-job, [`Coordinator::run_job`] returns an error
//! naming the worker's exit status. The next job finds the worker exited
//! and starts a fresh one first, so it runs as if nothing had happened.

use crate::proto::{read_frame, write_frame, Frame, WireViolation};
use crate::WORKER_BIN_ENV;
use nice_mc::{CheckReport, CheckerConfig, Json, SearchStats, TraceEngine};
use std::io::{self, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

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
    /// remains once the scenario and the deadline are taken out. A
    /// `workers` member is refused like any unknown key: the worker's
    /// thread count is not the client's to pick.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let Json::Obj(members) = value else {
            return Err("a job spec must be an object".into());
        };
        value.within(&JobSpec::new("").to_json())?;
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

    /// The report of this job as a client reads it: the stats of its
    /// `job_done` frame and the violations of its `violation` frames, in the
    /// order they came. The frames carry no outcome, so a job its deadline
    /// or a cancel stopped reads as truncated.
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

/// How long a worker whose stdout closed gets to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_millis(500);

/// Locates the worker binary for a front-end installed next to it (`nice
/// serve`): the [`WORKER_BIN_ENV`] override, else a `nice-dist-worker`
/// sibling of the current executable or of its parent directory (test
/// binaries live in `target/<profile>/deps/`, bins in `target/<profile>/`).
pub fn worker_bin() -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var(WORKER_BIN_ENV) {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let name = format!("nice-dist-worker{}", std::env::consts::EXE_SUFFIX);
    let candidates = [
        exe.parent().map(|d| d.join(&name)),
        exe.parent().and_then(|d| d.parent()).map(|d| d.join(&name)),
    ];
    for candidate in candidates.into_iter().flatten() {
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("worker binary '{name}' not found next to {}; build it (cargo build -p nice-dist) or set {WORKER_BIN_ENV}", exe.display()),
    ))
}

/// The checking coordinator: one worker process and the job it runs.
pub struct Coordinator {
    bin: PathBuf,
    /// The worker; its stdin stays open until the coordinator is dropped.
    child: Child,
    /// The worker's frames; the channel closes when its stdout does, or
    /// when a frame on it is corrupt.
    frames: Receiver<Frame>,
}

impl Coordinator {
    /// Spawns a process of the worker binary `bin` (see [`worker_bin`]) and
    /// the thread that reads its stdout.
    pub fn new(bin: PathBuf) -> io::Result<Coordinator> {
        let mut child = Command::new(&bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, frames) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    return; // the coordinator was dropped
                }
            }
        });
        Ok(Coordinator { bin, child, frames })
    }

    /// The worker's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Runs `spec` as job `job` to completion. Hands `sink` each `progress`
    /// and `violation` frame of the worker, then its `job_done` or `error`,
    /// which ends the job. `cancel` (when provided) is polled and sent on as
    /// a `cancel` frame; the job still ends with its `job_done`. A worker
    /// that exited after an earlier job is replaced first. An error means
    /// no final frame came: the worker died mid-job (the error names its
    /// exit status) or could not be started. The caller tells its client.
    pub fn run_job(
        &mut self,
        job: u64,
        spec: &JobSpec,
        mut sink: impl FnMut(Frame),
        cancel: Option<&AtomicBool>,
    ) -> io::Result<()> {
        if !matches!(self.child.try_wait(), Ok(None)) {
            *self = Coordinator::new(self.bin.clone())?;
        }
        let mut cancelled = false;
        self.send(&Frame::Job {
            job,
            spec: spec.clone(),
        })?;
        loop {
            if !cancelled && cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                cancelled = true;
                self.send(&Frame::Cancel { job })?;
            }
            // The timeout only paces the cancel poll above: every frame
            // wakes this at once.
            let frame = match self.frames.recv_timeout(CANCEL_POLL) {
                Ok(frame) => frame,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    let status = self.reap()?;
                    return Err(io::Error::other(format!(
                        "the worker died mid-job ({status})"
                    )));
                }
            };
            match frame {
                Frame::Progress { job: j, .. } | Frame::Violation { job: j, .. } if j == job => {
                    sink(frame);
                }
                Frame::JobDone { job: j, .. } | Frame::Error { job: j, .. } if j == job => {
                    sink(frame);
                    return Ok(());
                }
                _ => {}
            }
        }
    }

    /// Sends a frame. A broken pipe is not an error here: the worker is
    /// dead, and the closed frame channel reports it with its exit status.
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let stdin = self.child.stdin.as_mut().expect("stdin open until drop");
        match write_frame(stdin, frame) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e),
            _ => Ok(()),
        }
    }

    /// Waits for the worker to exit, killing it if it has not within
    /// [`EXIT_GRACE`] (a worker that wrote a corrupt frame may still run).
    fn reap(&mut self) -> io::Result<std::process::ExitStatus> {
        let deadline = Instant::now() + EXIT_GRACE;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.child.kill()?;
        self.child.wait()
    }
}

/// Closing the worker's stdin tells it to finish its job and exit.
impl Drop for Coordinator {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.reap();
    }
}
