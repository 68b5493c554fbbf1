//! Spawning, supervising and respawning the `nice-dist-worker` children.
//!
//! The pool owns one child process per shard, plus one reader thread per
//! child pumping that child's stdout frames into a single shared event
//! channel. Every event is tagged with the worker index and the worker's
//! *generation* — respawning a crashed worker bumps its generation, so the
//! coordinator can discard frames that a dead process left in the pipe.

use crate::proto::{read_frame, write_frame, Frame};
use crate::{DIE_AFTER_ENV, WORKER_BIN_ENV};
use std::io::{self, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, Sender};

/// Something a worker process did.
#[derive(Debug)]
pub enum WorkerEvent {
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

/// One tagged event from the pool's shared channel.
#[derive(Debug)]
pub struct PoolEvent {
    /// Index of the worker (its shard index).
    pub worker: usize,
    /// The worker's generation when the event was produced. Compare against
    /// [`WorkerPool::generation`] and discard stale events.
    pub generation: u64,
    /// What happened.
    pub event: WorkerEvent,
}

struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    generation: u64,
}

/// A pool of `nice-dist-worker` child processes, one per shard.
pub struct WorkerPool {
    bin: PathBuf,
    workers: Vec<WorkerHandle>,
    events: Receiver<PoolEvent>,
    events_tx: Sender<PoolEvent>,
    /// Crash-test hook parsed from [`DIE_AFTER_ENV`] (`"worker:transitions"`):
    /// applied to that worker's *first* generation only, so the respawned
    /// process survives and the job can complete.
    die_after: Option<(usize, u64)>,
}

/// Locates the worker binary for a front-end installed next to it (`nice
/// serve`, `nice run --dist`): the [`WORKER_BIN_ENV`]
/// override, else a `nice-dist-worker` sibling of the current executable
/// (also checking the parent directory, because test binaries live in
/// `target/<profile>/deps/` while bins live in `target/<profile>/`).
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

impl WorkerPool {
    /// Spawns `count` processes of the worker binary `bin` (see
    /// [`worker_bin`]) and their reader threads.
    pub fn spawn(bin: PathBuf, count: usize) -> io::Result<WorkerPool> {
        let die_after = std::env::var(DIE_AFTER_ENV).ok().and_then(|v| {
            let (worker, transitions) = v.split_once(':')?;
            Some((worker.parse().ok()?, transitions.parse().ok()?))
        });
        let (events_tx, events) = std::sync::mpsc::channel();
        let mut pool = WorkerPool {
            bin,
            workers: Vec::with_capacity(count),
            events,
            events_tx,
            die_after,
        };
        for index in 0..count {
            let handle = pool.spawn_one(index, 0)?;
            pool.workers.push(handle);
        }
        Ok(pool)
    }

    fn spawn_one(&self, index: usize, generation: u64) -> io::Result<WorkerHandle> {
        let mut cmd = Command::new(&self.bin);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .env_remove(DIE_AFTER_ENV);
        if let Some((victim, transitions)) = self.die_after {
            if victim == index && generation == 0 {
                cmd.env(DIE_AFTER_ENV, transitions.to_string());
            }
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = self.events_tx.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(frame)) => {
                        if tx
                            .send(PoolEvent {
                                worker: index,
                                generation,
                                event: WorkerEvent::Frame(Box::new(frame)),
                            })
                            .is_err()
                        {
                            return; // pool dropped
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = tx.send(PoolEvent {
                            worker: index,
                            generation,
                            event: WorkerEvent::Eof,
                        });
                        return;
                    }
                }
            }
        });
        Ok(WorkerHandle {
            child,
            stdin,
            generation,
        })
    }

    /// Number of workers (= shard count).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True if the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The current generation of `worker`.
    pub fn generation(&self, worker: usize) -> u64 {
        self.workers[worker].generation
    }

    /// The shared event channel (use `recv`/`recv_timeout`).
    pub fn events(&self) -> &Receiver<PoolEvent> {
        &self.events
    }

    /// Sends a frame to one worker. A pipe error is reported as `Ok(false)`
    /// rather than an error: the worker is dead, its reader thread is about
    /// to deliver [`WorkerEvent::Eof`], and the coordinator's crash recovery
    /// — not the send site — decides what happens next.
    pub fn send(&mut self, worker: usize, frame: &Frame) -> io::Result<bool> {
        match write_frame(&mut self.workers[worker].stdin, frame) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Sends a frame to every worker.
    pub fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        for worker in 0..self.workers.len() {
            self.send(worker, frame)?;
        }
        Ok(())
    }

    /// Replaces a dead worker with a fresh process (next generation) and
    /// returns the new generation. The caller re-sends the job and replays
    /// the forward log.
    pub fn respawn(&mut self, worker: usize) -> io::Result<u64> {
        let generation = self.workers[worker].generation + 1;
        let fresh = self.spawn_one(worker, generation)?;
        let mut old = std::mem::replace(&mut self.workers[worker], fresh);
        let _ = old.child.kill();
        let _ = old.child.wait();
        Ok(generation)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for handle in &mut self.workers {
            let _ = write_frame(&mut handle.stdin, &Frame::Shutdown);
        }
        for handle in &mut self.workers {
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
            let exited = loop {
                match handle.child.try_wait() {
                    Ok(Some(_)) => break true,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    _ => break false,
                }
            };
            if !exited {
                let _ = handle.child.kill();
                let _ = handle.child.wait();
            }
        }
    }
}
