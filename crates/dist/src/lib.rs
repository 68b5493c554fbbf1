//! # nice-dist
//!
//! The distributed checking service: a **coordinator** that shards one
//! check job across a pool of **worker child processes**, with the
//! fingerprint space partitioned by digest prefix
//! ([`nice_mc::ShardSpec`]) so the explored set is distributed — each
//! unique state is expanded by exactly one worker, and states landing in
//! another worker's shard are forwarded (as replayable frontier exports),
//! not re-explored.
//!
//! * [`proto`] — the `nice-dist-v3` wire protocol: length-prefixed
//!   single-line JSON frames, written and parsed through [`nice_mc::json`].
//! * [`worker`] — the worker main loop: drives a
//!   [`nice_mc::ShardedSearch`] (the *same* expansion loop as the
//!   in-process sequential engine — a 1-shard run is bit-identical to
//!   `ModelChecker::session()` by construction), streaming forwards,
//!   progress and violations back over stdout.
//! * [`pool`] — spawning and respawning the `nice-dist-worker` child
//!   processes and pumping their stdout frames into one event channel.
//! * [`coordinator`] — job orchestration: routing forwards to shard
//!   owners, distributed-termination detection, per-job budgets and
//!   deadlines, cancellation, and worker-crash recovery (a dead worker's
//!   shard is re-seeded by replaying the coordinator's forward log).
//!
//! Transport is `spawn` + stdin/stdout pipes: multi-process on one host,
//! no network crates needed in the offline build environment. The same
//! frames double as the client protocol of `nice serve` / `nice submit`
//! over a Unix socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod pool;
pub mod proto;
pub mod worker;

pub use coordinator::{Coordinator, JobEvent, JobSpec};
pub use pool::worker_bin;
pub use proto::{read_frame, write_frame, Frame, WireViolation, DIST_SCHEMA};
pub use worker::worker_main;

/// Environment variable overriding the worker binary [`worker_bin`] finds.
pub const WORKER_BIN_ENV: &str = "NICE_DIST_WORKER_BIN";

/// Environment variable (set on a spawned worker) making it abort after
/// executing that many transitions — the crash-recovery test hook. The
/// abort models a SIGKILL'd worker: no flush, no goodbye frame.
pub const DIE_AFTER_ENV: &str = "NICE_DIST_DIE_AFTER";
