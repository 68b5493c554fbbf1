//! The worker main loop: one `nice-dist-worker` process.
//!
//! A worker owns one shard of the fingerprint space per job. Its expansion
//! loop is a [`nice_mc::ShardedSearch`] — the *same* loop the in-process
//! sequential engine runs (a solo shard **is** the sequential engine), so
//! a 1-worker distributed run is bit-identical to `ModelChecker::session()`
//! by construction.
//!
//! Protocol, per job:
//!
//! 1. coordinator sends `job` (scenario spec + shard assignment);
//! 2. the worker steps its shard, streaming `violation` frames as they are
//!    found and `progress` frames every [`PROGRESS_EVERY`] transitions.
//!    Successors owned by other shards collect in the shard and leave as
//!    one `forward` frame when [`FORWARD_BATCH`] of them are pending, and
//!    whenever the local frontier drains or the search stops — so always
//!    before an `idle` or a `job_done`. The coordinator's termination
//!    argument needs no more than that: a worker that announces `idle` has
//!    flushed every export it made, and pipes are FIFO, so when the
//!    acknowledgements line up nothing is in flight. Exports a crash
//!    catches unflushed were never routed or logged; the respawned process
//!    derives them again;
//! 3. whenever the local frontier drains it announces `idle` carrying the
//!    number of state records received so far (the coordinator's
//!    termination detector compares that against what it routed here);
//! 4. `states` frames re-open the frontier; `cancel` stops expansion but
//!    keeps the worker consuming (and acknowledging) frames;
//! 5. `finish` promises no more states: the worker replies `job_done` with
//!    its shard's final stats and violations, then waits for the next job.
//!
//! Stdin is drained by a dedicated reader thread into a channel so the
//! expansion loop can poll for `cancel`/`states` between steps without
//! blocking.

use crate::proto::{read_frame, write_frame, Frame, WireViolation};
use crate::DIE_AFTER_ENV;
use nice_mc::{ModelChecker, ShardSpec, ShardedSearch, StepOutcome};
use std::io::{self, BufWriter, Write};
use std::sync::mpsc::{Receiver, TryRecvError};

/// Emit a `progress` frame every this many locally-executed transitions.
pub const PROGRESS_EVERY: u64 = 2048;

/// Exported states a `forward` frame waits for while the shard still has
/// local work. Every frame's first state carries its whole trace and the
/// rest only what they add to their predecessor, so small batches pay for
/// many whole traces, while large ones keep the peer waiting for work:
/// `serve_roundtrip` read a verdict in 0.097 s at 16, 0.084 s at 64 and
/// 0.100 s at 256 (where the CPU time per job was lowest and the idle time
/// highest).
pub const FORWARD_BATCH: usize = 64;

/// What the per-job loop asks the process loop to do next.
enum After {
    /// Job finished (or was refused); wait for the next `job` frame.
    NextJob,
    /// `shutdown` arrived or stdin closed: exit the process loop.
    Exit,
}

/// Runs the worker protocol over `stdin`/`stdout` until `shutdown` or EOF.
/// This is the whole body of the `nice-dist-worker` binary; it is a library
/// function so in-process tests can drive it over arbitrary pipes.
pub fn worker_main() -> io::Result<()> {
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    write_frame(
        &mut out,
        &Frame::Hello {
            pid: u64::from(std::process::id()),
        },
    )?;

    let die_after: Option<u64> = std::env::var(DIE_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());

    // Reader thread: stdin → channel. Closing the channel (EOF or a broken
    // pipe) tells the main loop the coordinator is gone.
    let (tx, rx) = std::sync::mpsc::channel::<Frame>();
    std::thread::spawn(move || {
        let stdin = io::stdin();
        let mut input = stdin.lock();
        while let Ok(Some(frame)) = read_frame(&mut input) {
            if tx.send(frame).is_err() {
                break;
            }
        }
    });

    loop {
        let Ok(frame) = rx.recv() else {
            return Ok(());
        };
        match frame {
            Frame::Job { job, shard, spec } => {
                let after = match nice_apps::workloads::resolve(&spec.scenario) {
                    Some(scenario) => {
                        let checker = ModelChecker::new(scenario, spec.config.clone());
                        run_job(job, &checker, shard, &rx, &mut out, die_after)?
                    }
                    None => {
                        write_frame(
                            &mut out,
                            &Frame::Error {
                                job,
                                message: format!("unknown scenario spec '{}'", spec.scenario),
                            },
                        )?;
                        refuse_job(job, &rx, &mut out)?
                    }
                };
                if matches!(after, After::Exit) {
                    return Ok(());
                }
            }
            Frame::Shutdown => return Ok(()),
            // A `finish` outside a job (e.g. re-sent while this worker was
            // respawning) still deserves its `job_done` so the coordinator's
            // collection loop never hangs; stale `states`/`cancel` frames
            // for a job this process never started are dropped.
            Frame::Finish { job } => write_frame(
                &mut out,
                &Frame::JobDone {
                    job,
                    stats: Default::default(),
                    violations: Vec::new(),
                },
            )?,
            _ => {}
        }
    }
}

/// After refusing a job (`error` sent), keep consuming its frames until the
/// coordinator winds it down with `finish` — answered with an empty
/// `job_done` so every `finish` gets exactly one reply.
fn refuse_job(job: u64, rx: &Receiver<Frame>, out: &mut impl Write) -> io::Result<After> {
    loop {
        let Ok(frame) = rx.recv() else {
            return Ok(After::Exit);
        };
        match frame {
            Frame::Finish { job: j } if j == job => {
                write_frame(
                    out,
                    &Frame::JobDone {
                        job,
                        stats: Default::default(),
                        violations: Vec::new(),
                    },
                )?;
                return Ok(After::NextJob);
            }
            Frame::Shutdown => return Ok(After::Exit),
            _ => {}
        }
    }
}

/// Drives one job on one shard. Returns when the job is wound down with
/// `finish` (reply: `job_done`) or the process should exit.
fn run_job(
    job: u64,
    checker: &ModelChecker,
    shard: ShardSpec,
    rx: &Receiver<Frame>,
    out: &mut impl Write,
    die_after: Option<u64>,
) -> io::Result<After> {
    let mut search = ShardedSearch::new(checker, shard);
    let mut received: u64 = 0;
    let mut finish = false;
    let mut idle_at: Option<u64> = None;
    let mut sent_violations = 0usize;
    let mut last_progress: u64 = 0;

    loop {
        // Drain control frames without blocking between steps.
        loop {
            match rx.try_recv() {
                Ok(frame) => {
                    if let Some(after) = handle_frame(
                        frame,
                        job,
                        &mut search,
                        &mut received,
                        &mut finish,
                        &mut idle_at,
                        out,
                    )? {
                        return Ok(after);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(After::Exit),
            }
        }

        let outcome = search.step();

        // Hand the exports to the wire a batch at a time, and whenever the
        // frontier drained or the search stopped: everything below this
        // point that announces `idle` or `job_done` finds nothing pending.
        let pending = search.forwards_pending();
        if pending >= FORWARD_BATCH || (pending > 0 && outcome != StepOutcome::Expanded) {
            let states = search.take_forwards();
            write_frame(out, &Frame::Forward { job, states })?;
        }
        // Stream new violations and progress.
        for violation in &search.violations()[sent_violations..] {
            write_frame(
                out,
                &Frame::Violation {
                    job,
                    violation: WireViolation::of(violation),
                },
            )?;
            sent_violations += 1;
        }
        let stats = search.stats();
        if stats.transitions - last_progress >= PROGRESS_EVERY {
            last_progress = stats.transitions;
            write_frame(
                out,
                &Frame::Progress {
                    job,
                    transitions: stats.transitions,
                    unique_states: stats.unique_states,
                    depth: stats.max_depth as u64,
                },
            )?;
        }
        if let Some(limit) = die_after {
            if stats.transitions >= limit {
                // Crash-recovery hook: die the way a SIGKILL'd worker dies —
                // no flush, no goodbye frame. The coordinator must detect
                // the EOF and re-derive this shard's work.
                std::process::abort();
            }
        }

        if outcome == StepOutcome::Expanded {
            continue;
        }

        // Frontier drained (or search stopped). Finalize if the coordinator
        // already promised no more states; otherwise announce idle once per
        // acknowledgement level and block for the next frame.
        if finish {
            let report = search.finish();
            let violations = report.violations.iter().map(WireViolation::of).collect();
            write_frame(
                out,
                &Frame::JobDone {
                    job,
                    stats: report.stats,
                    violations,
                },
            )?;
            return Ok(After::NextJob);
        }
        if idle_at != Some(received) {
            idle_at = Some(received);
            write_frame(out, &Frame::Idle { job, received })?;
        }
        let Ok(frame) = rx.recv() else {
            return Ok(After::Exit);
        };
        if let Some(after) = handle_frame(
            frame,
            job,
            &mut search,
            &mut received,
            &mut finish,
            &mut idle_at,
            out,
        )? {
            return Ok(after);
        }
    }
}

/// Applies one control frame to the running job. `Some(after)` means the
/// job loop should return.
fn handle_frame(
    frame: Frame,
    job: u64,
    search: &mut ShardedSearch<'_>,
    received: &mut u64,
    finish: &mut bool,
    idle_at: &mut Option<u64>,
    out: &mut impl Write,
) -> io::Result<Option<After>> {
    match frame {
        Frame::States { job: j, states } if j == job => {
            *received += states.len() as u64;
            // New acknowledgement level: the next drain must re-announce.
            *idle_at = None;
            for export in states {
                search.inject(export);
            }
        }
        Frame::Cancel { job: j } if j == job => search.cancel(),
        Frame::Finish { job: j } if j == job => *finish = true,
        Frame::Shutdown => return Ok(Some(After::Exit)),
        // Stale frames for earlier jobs (e.g. a cancel that raced our
        // job_done) are dropped; the coordinator filters by job id too.
        Frame::States { .. } | Frame::Cancel { .. } | Frame::Finish { .. } => {}
        other => {
            write_frame(
                out,
                &Frame::Error {
                    job,
                    message: format!("unexpected frame mid-job: {other:?}"),
                },
            )?;
        }
    }
    Ok(None)
}
