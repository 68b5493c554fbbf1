//! # nice-dist
//!
//! The checking service's process layer: a **coordinator** that runs each
//! check job whole on its own **worker child process**. A worker runs the
//! job the way `nice run` does — one `ModelChecker::session()` on the
//! sequential engine — so a served job's verdict and counters are the
//! in-process search's exactly. `nice serve --workers N` runs N
//! coordinators side by side: N jobs at once, each independent, none
//! forwarding a state to another.
//!
//! * [`proto`] — the `nice-dist-v8` wire protocol: length-prefixed
//!   single-line JSON frames, written and parsed through [`nice_mc::json`].
//! * [`worker`] — the worker main loop: a session per job whose observer
//!   streams progress and violations back over stdout.
//! * [`coordinator`] — one job at a time on one worker: relays the
//!   worker's frames and passes on the caller's cancel. A worker that dies
//!   mid-job fails that job with its exit status; the next job starts a
//!   fresh worker. The worker keeps the job's deadline, as `nice run` does.
//!
//! Transport is `spawn` + stdin/stdout pipes: multi-process on one host,
//! no network crates needed in the offline build environment. The same
//! frames double as the client protocol of `nice serve` / `nice submit`
//! over a Unix socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod proto;
pub mod worker;

pub use coordinator::{worker_bin, Coordinator, JobSpec};
pub use proto::{read_frame, write_frame, Frame, WireViolation, DIST_SCHEMA};
pub use worker::worker_main;

/// Environment variable overriding the worker binary [`worker_bin`] finds.
pub const WORKER_BIN_ENV: &str = "NICE_DIST_WORKER_BIN";
