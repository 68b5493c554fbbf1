//! Spawning, supervising and respawning the `nice-dist-worker` child.
//!
//! A [`WorkerProcess`] owns one child process plus a reader thread pumping
//! the child's stdout frames into a channel. Every event is tagged with the
//! child's *generation* — respawning a crashed worker bumps it, so the
//! coordinator can discard frames that a dead process left in the pipe.

use crate::proto::{read_frame, write_frame, Frame};
use crate::{DIE_AFTER_ENV, WORKER_BIN_ENV};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Something the worker process did.
#[derive(Debug)]
pub(crate) enum WorkerEvent {
    /// The worker wrote a frame (boxed: a `job` frame carries a whole
    /// [`JobSpec`](crate::JobSpec), which would otherwise dominate the
    /// event size on the channel).
    Frame(Box<Frame>),
    /// The worker's stdout closed (process exit or crash). Emitted once per
    /// generation; a corrupt frame on the pipe is reported the same way,
    /// since a process writing garbage is as dead to the protocol as one
    /// that exited.
    Eof,
}

/// One `nice-dist-worker` child process, respawned in place when it dies.
pub(crate) struct WorkerProcess {
    bin: PathBuf,
    child: Child,
    stdin: ChildStdin,
    generation: u64,
    /// Every event, tagged with the generation that produced it.
    events: Receiver<(u64, WorkerEvent)>,
    events_tx: Sender<(u64, WorkerEvent)>,
}

/// Locates the worker binary for a front-end installed next to it (`nice
/// serve`): the [`WORKER_BIN_ENV`] override, else a `nice-dist-worker`
/// sibling of the current executable (also checking the parent directory,
/// because test binaries live in `target/<profile>/deps/` while bins live
/// in `target/<profile>/`).
pub fn worker_bin() -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var(WORKER_BIN_ENV) {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let name = format!("nice-dist-worker{}", std::env::consts::EXE_SUFFIX);
    // Sibling of the current executable, or of its parent directory (test
    // binaries live in target/<profile>/deps/, bins in target/<profile>/).
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

impl WorkerProcess {
    /// Spawns the worker binary `bin` (see [`worker_bin`]) and its reader
    /// thread.
    pub(crate) fn spawn(bin: PathBuf) -> io::Result<WorkerProcess> {
        let (events_tx, events) = std::sync::mpsc::channel();
        let (child, stdin) = start(&bin, 0, &events_tx)?;
        Ok(WorkerProcess {
            bin,
            child,
            stdin,
            generation: 0,
            events,
            events_tx,
        })
    }

    /// The current generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The event channel (use `recv`/`recv_timeout`).
    pub(crate) fn events(&self) -> &Receiver<(u64, WorkerEvent)> {
        &self.events
    }

    /// Sends a frame. A broken pipe is not an error here: the worker is
    /// dead, its reader thread is about to deliver [`WorkerEvent::Eof`], and
    /// the coordinator's crash recovery decides what happens next.
    pub(crate) fn send(&mut self, frame: &Frame) -> io::Result<()> {
        match write_frame(&mut self.stdin, frame) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e),
            _ => Ok(()),
        }
    }

    /// Replaces a dead worker with a fresh process of the next generation.
    /// The caller re-sends the job.
    pub(crate) fn respawn(&mut self) -> io::Result<()> {
        self.generation += 1;
        let (child, stdin) = start(&self.bin, self.generation, &self.events_tx)?;
        self.stdin = stdin;
        let mut old = std::mem::replace(&mut self.child, child);
        let _ = old.kill();
        let _ = old.wait();
        Ok(())
    }
}

/// Starts one generation of the worker and the thread reading its stdout.
/// Only the first generation inherits [`DIE_AFTER_ENV`], so a respawned
/// process survives and the job can complete.
fn start(
    bin: &Path,
    generation: u64,
    events_tx: &Sender<(u64, WorkerEvent)>,
) -> io::Result<(Child, ChildStdin)> {
    let mut cmd = Command::new(bin);
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    if generation > 0 {
        cmd.env_remove(DIE_AFTER_ENV);
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let tx = events_tx.clone();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            if tx
                .send((generation, WorkerEvent::Frame(Box::new(frame))))
                .is_err()
            {
                return; // the process handle was dropped
            }
        }
        let _ = tx.send((generation, WorkerEvent::Eof));
    });
    Ok((child, stdin))
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = write_frame(&mut self.stdin, &Frame::Shutdown);
        let deadline = Instant::now() + Duration::from_millis(500);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
