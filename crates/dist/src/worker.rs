//! The worker main loop: one `nice-dist-worker` process.
//!
//! A worker runs one job at a time, whole, the way `nice run` does: one
//! [`ModelChecker::session`] on the sequential engine, so its counters are
//! `nice run`'s exactly. Protocol, per job:
//!
//! 1. the coordinator sends `job` (scenario spec + engine config);
//! 2. the session's observer streams a `violation` frame for each violation
//!    as it is found and a `progress` frame every [`PROGRESS_EVERY`]
//!    transitions;
//! 3. the session's `Finished` report's stats go back as `job_done`,
//!    marked `truncated` if a cancel or the job's deadline (`time_budget_ms`,
//!    kept by the session) stopped it. The report's violations are the
//!    `violation` frames already sent, in its order: one worker runs the
//!    job, so nothing races to reorder them. A scenario spec the worker
//!    cannot resolve gets an `error` instead.
//!
//! A reader thread drains stdin: it hands `job` frames to the job loop and
//! trips the running session's cancel token on `cancel` or EOF. A cancelled
//! session still finishes, so every job gets its `job_done`; after EOF the
//! process exits once its job returns.

use crate::proto::{read_frame, write_frame, Frame, WireViolation};
use crate::JobSpec;
use nice_mc::{CancelToken, CheckEvent, ModelChecker, SearchStats};
use std::io::{self, BufWriter, Write};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Emit a `progress` frame every this many transitions.
pub const PROGRESS_EVERY: u64 = 2048;

/// What the stdin reader was told to stop, shared with the job loop: a
/// `cancel` can arrive before the job's session (and its token) exists.
#[derive(Default)]
struct Stops {
    /// The job the latest `cancel` named, since the latest `job`.
    cancelled: Option<u64>,
    /// Stdin closed.
    closed: bool,
    /// The running job and its session's cancel token.
    running: Option<(u64, CancelToken)>,
}

impl Stops {
    /// Cancels the running job if a `cancel` named it or the coordinator
    /// is gone.
    fn apply(&self) {
        if let Some((job, token)) = &self.running {
            if self.closed || self.cancelled == Some(*job) {
                token.cancel();
            }
        }
    }
}

fn lock(stops: &Mutex<Stops>) -> MutexGuard<'_, Stops> {
    stops.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the worker protocol over `stdin`/`stdout` until stdin closes.
/// This is the whole body of the `nice-dist-worker` binary.
pub fn worker_main() -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout());
    let stops = Arc::new(Mutex::new(Stops::default()));
    for (job, spec) in read_stdin(Arc::clone(&stops)) {
        match nice_apps::workloads::resolve(&spec.scenario) {
            Some(scenario) => {
                let checker = ModelChecker::new(scenario, spec.config);
                let budget = Duration::from_millis(spec.time_budget_ms);
                run_job(job, &checker, budget, &stops, &mut out)?;
            }
            None => {
                let message = format!("unknown scenario spec '{}'", spec.scenario);
                write_frame(&mut out, &Frame::Error { job, message })?;
            }
        }
    }
    Ok(())
}

/// Starts the stdin reader thread. It sends `job` frames down the returned
/// channel and applies the rest to `stops`; on EOF it closes
/// the channel, which ends the job loop once the running job returns.
fn read_stdin(stops: Arc<Mutex<Stops>>) -> Receiver<(u64, JobSpec)> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut input = io::stdin().lock();
        loop {
            let frame = read_frame(&mut input);
            let mut stops = lock(&stops);
            match frame {
                Ok(Some(Frame::Job { job, spec })) => {
                    // Job ids are the client's, so a cancel of an earlier
                    // job may name this one too.
                    stops.cancelled = None;
                    if tx.send((job, spec)).is_err() {
                        return;
                    }
                }
                Ok(Some(Frame::Cancel { job })) => stops.cancelled = Some(job),
                Ok(None) | Err(_) => stops.closed = true,
                Ok(Some(_)) => {} // a frame no coordinator sends a worker
            }
            stops.apply();
            if stops.closed {
                return;
            }
        }
    });
    rx
}

/// Runs one job in a session whose observer writes its frames; `budget`
/// is its deadline, zero for none.
fn run_job(
    job: u64,
    checker: &ModelChecker,
    budget: Duration,
    stops: &Mutex<Stops>,
    out: &mut (impl Write + Send),
) -> io::Result<()> {
    let mut session = checker.session().with_progress_every(PROGRESS_EVERY);
    if !budget.is_zero() {
        session = session.with_time_budget(budget);
    }
    {
        let mut stops = lock(stops);
        stops.running = Some((job, session.cancel_token()));
        stops.apply();
    }
    let mut written = Ok(());
    session.run_with(&mut |event: &CheckEvent| {
        let frame = match event {
            CheckEvent::Progress {
                states,
                transitions,
                depth,
                ..
            } => Frame::Progress {
                job,
                transitions: *transitions,
                unique_states: *states,
                depth: *depth as u64,
            },
            CheckEvent::ViolationFound(violation) => Frame::Violation {
                job,
                violation: WireViolation::of(violation),
            },
            CheckEvent::Finished(report) => Frame::JobDone {
                job,
                stats: SearchStats {
                    truncated: report.stats.truncated || report.outcome.interrupted(),
                    ..report.stats.clone()
                },
            },
            CheckEvent::Started { .. } => return,
        };
        if written.is_ok() {
            written = write_frame(out, &frame);
        }
    });
    lock(stops).running = None;
    written
}
