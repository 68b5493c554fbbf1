//! Job orchestration over a [`WorkerPool`].
//!
//! The coordinator shards the fingerprint space over the pool
//! (worker *i* runs [`ShardSpec`] `{index: i, count: N}`), routes each
//! `forward`ed frontier export to the worker that owns its fingerprint —
//! a batch in, one batch out per owner — and decides global termination:
//! the frontier is empty exactly when every worker has announced `idle`
//! acknowledging *all* the state records routed to it (workers flush
//! forwards before announcing idle, and pipes are FIFO, so nothing can be
//! in flight when the acknowledgements line up).
//!
//! **Crash recovery.** Every export routed to a worker is also appended to
//! that worker's *forward log* (the logged paths share their prefixes, as
//! they did on the wire, so the log costs what the states differ in). When a worker's pipe hits EOF mid-job, the
//! coordinator respawns it (bumping its generation — frames a dead process
//! left behind are discarded by generation tag), re-sends the job, and
//! replays the log; the worker re-derives its shard of the frontier by
//! replaying the logged traces, exactly as it rebuilds every state a peer
//! sends it. Re-explored work may re-forward states other shards
//! have already seen — those deduplicate at the owner, so the verdict and
//! the violation set are unaffected (per-shard counters may differ from a
//! crash-free run; the equivalence guarantees are for crash-free runs).
//!
//! Determinism: the verdict, the violation set and the summed counters
//! are run-to-run deterministic; the *witness path* recorded for a
//! violation is not (forwarded states arrive in timing-dependent order,
//! so an owner may first reach a violating state along different paths).
//! Every reported trace replays on the deterministic sequential engine.
//!
//! **Budgets.** `max_transitions` is enforced both worker-locally (each
//! shard's own budget) and globally: the coordinator sums `progress`
//! reports and broadcasts `cancel` when the job-wide total crosses the
//! budget. Deadlines (`time_budget_ms`) and caller cancellation are
//! enforced coordinator-side the same way. Cancelled workers stop
//! expanding but keep acknowledging, so termination detection and the
//! final `job_done` collection still converge.

use crate::pool::{PoolEvent, WorkerEvent, WorkerPool};
use crate::proto::{Frame, WireViolation};
use nice_mc::{
    shard_of, CheckReport, CheckerConfig, FrontierExport, InterruptReason, Json, Outcome,
    ShardSpec, TraceEngine,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Consecutive no-frame crashes of one worker before the coordinator gives
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
    /// The search configuration. `max_transitions` is the job-wide budget
    /// (and each shard's own); the depth bound applies per shard. `workers`
    /// stays 1: a shard runs the sequential engine, distribution happens
    /// *across* processes, and the wire does not carry the field.
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
/// [`CheckReport`] — not this stream — is authoritative: a worker crash can
/// replay a `Violation` event, and `Progress` totals are sampled.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job was dispatched to the pool.
    Started {
        /// Worker process (= shard) count.
        workers: usize,
    },
    /// Sampled job-wide progress (sums of the shards' latest reports).
    Progress {
        /// Transitions executed.
        transitions: u64,
        /// Unique states explored.
        unique_states: u64,
        /// Deepest path reported so far.
        depth: u64,
    },
    /// A shard found (and streamed) a violation.
    Violation(WireViolation),
    /// A worker process died and was respawned; its shard is being
    /// re-derived from the coordinator's forward log.
    WorkerRestarted {
        /// The worker's index.
        worker: usize,
    },
}

/// Per-worker bookkeeping for one job.
struct WorkerJob {
    /// Every export ever routed to this worker, for crash replay.
    log: Vec<FrontierExport>,
    /// The `received` count from this worker's latest `idle`, if it is
    /// currently believed idle. Cleared whenever states are sent to it.
    idle_received: Option<u64>,
    /// The shard's final report, once `job_done` arrives.
    done: Option<(nice_mc::SearchStats, Vec<WireViolation>)>,
}

/// The distributed checking coordinator: a worker pool plus job routing.
pub struct Coordinator {
    pool: WorkerPool,
    next_job: u64,
}

impl Coordinator {
    /// Spawns a coordinator with `workers` processes (min 1) of the worker
    /// binary `worker_bin` (see [`worker_bin`](crate::worker_bin)).
    pub fn new(worker_bin: PathBuf, workers: usize) -> io::Result<Coordinator> {
        Ok(Coordinator {
            pool: WorkerPool::spawn(worker_bin, workers.max(1))?,
            next_job: 1,
        })
    }

    /// Number of worker processes (= shards).
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// Runs one job to completion, streaming [`JobEvent`]s to `on_event`.
    /// `cancel` (when provided) is polled and stops the job early with
    /// [`Outcome::Interrupted`]. Returns the merged job-wide report.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        mut on_event: impl FnMut(JobEvent),
        cancel: Option<&AtomicBool>,
    ) -> io::Result<CheckReport> {
        // Validate the spec coordinator-side too: a clean error now beats
        // twelve `error` frames later.
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
        let count = self.pool.len();
        let start = Instant::now();
        let deadline =
            (spec.time_budget_ms > 0).then(|| start + Duration::from_millis(spec.time_budget_ms));

        let mut jobs: Vec<WorkerJob> = (0..count)
            .map(|_| WorkerJob {
                log: Vec::new(),
                idle_received: None,
                done: None,
            })
            .collect();
        let mut progress: Vec<(u64, u64, u64)> = vec![(0, 0, 0); count];
        // Consecutive crashes per worker with no frame in between. A worker
        // that dies deterministically right after spawn (stale or broken
        // binary, protocol mismatch) would otherwise be respawned forever
        // and hang the job.
        let mut crash_streak: Vec<u32> = vec![0; count];
        let mut cancelled = false;
        // The job-wide transition budget stopped the shards: the search is
        // truncated even where no shard reached its own budget.
        let mut budget_cut = false;
        let mut interrupted: Option<InterruptReason> = None;
        let mut worker_error: Option<String> = None;
        let mut finishing = false;

        for index in 0..count {
            self.pool.send(
                index,
                &Frame::Job {
                    job,
                    shard: ShardSpec {
                        index: index as u32,
                        count: count as u32,
                    },
                    spec: spec.clone(),
                },
            )?;
        }
        on_event(JobEvent::Started { workers: count });

        loop {
            // External stop conditions, polled between events.
            if !cancelled {
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    interrupted = Some(InterruptReason::Cancelled);
                    cancelled = true;
                    self.pool.broadcast(&Frame::Cancel { job })?;
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    interrupted = Some(InterruptReason::DeadlineExceeded);
                    cancelled = true;
                    self.pool.broadcast(&Frame::Cancel { job })?;
                }
            }

            // Wind-down: once the global frontier is provably empty, promise
            // the workers no more states and collect their reports.
            if !finishing
                && (0..count).all(|w| jobs[w].idle_received == Some(jobs[w].log.len() as u64))
            {
                finishing = true;
                self.pool.broadcast(&Frame::Finish { job })?;
            }
            if finishing && jobs.iter().all(|j| j.done.is_some()) {
                break;
            }

            // The timeout only paces the cancel and deadline polls above:
            // every frame wakes this at once, and a blocking receive read
            // the same round trips (ROADMAP, wire item).
            let event = match self.pool.events().recv_timeout(Duration::from_millis(50)) {
                Ok(event) => event,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "worker pool event channel closed",
                    ));
                }
            };
            let PoolEvent {
                worker,
                generation,
                event,
            } = event;
            if generation != self.pool.generation(worker) {
                continue; // a dead process's leftovers
            }

            let frame = match event {
                WorkerEvent::Frame(frame) => {
                    if !matches!(*frame, Frame::Hello { .. }) {
                        crash_streak[worker] = 0;
                    }
                    *frame
                }
                WorkerEvent::Eof => {
                    // Crash: respawn, re-send the job, replay the log. The
                    // fresh process re-derives the shard's frontier from the
                    // replayable traces.
                    crash_streak[worker] += 1;
                    if crash_streak[worker] > MAX_CRASH_STREAK {
                        return Err(io::Error::other(format!(
                            "worker {worker} died {} times in a row without \
                             producing a frame; giving up (broken or stale \
                             worker binary?)",
                            crash_streak[worker]
                        )));
                    }
                    on_event(JobEvent::WorkerRestarted { worker });
                    self.pool.respawn(worker)?;
                    jobs[worker].idle_received = None;
                    jobs[worker].done = None;
                    progress[worker] = (0, 0, 0);
                    self.pool.send(
                        worker,
                        &Frame::Job {
                            job,
                            shard: ShardSpec {
                                index: worker as u32,
                                count: count as u32,
                            },
                            spec: spec.clone(),
                        },
                    )?;
                    if !jobs[worker].log.is_empty() {
                        self.pool.send(
                            worker,
                            &Frame::States {
                                job,
                                states: jobs[worker].log.clone(),
                            },
                        )?;
                    }
                    if cancelled {
                        self.pool.send(worker, &Frame::Cancel { job })?;
                    }
                    if finishing {
                        self.pool.send(worker, &Frame::Finish { job })?;
                    }
                    continue;
                }
            };

            match frame {
                // `hello` deliberately does not clear the crash streak: a
                // stale binary still greets before choking on the job frame.
                Frame::Hello { .. } => {}
                Frame::Forward { job: j, states } if j == job => {
                    // After `finish` the global frontier was provably empty,
                    // so anything a crash-recovered worker re-forwards was
                    // already explored by its owner: drop it.
                    if finishing {
                        continue;
                    }
                    let mut batches: Vec<Vec<FrontierExport>> = vec![Vec::new(); count];
                    for export in states {
                        let owner = shard_of(export.fingerprint, count as u32) as usize;
                        jobs[owner].log.push(export.clone());
                        batches[owner].push(export);
                    }
                    for (owner, batch) in batches.into_iter().enumerate() {
                        if batch.is_empty() {
                            continue;
                        }
                        jobs[owner].idle_received = None;
                        self.pool
                            .send(owner, &Frame::States { job, states: batch })?;
                    }
                }
                Frame::Progress {
                    job: j,
                    transitions,
                    unique_states,
                    depth,
                } if j == job => {
                    progress[worker] = (transitions, unique_states, depth);
                    let total_transitions: u64 = progress.iter().map(|p| p.0).sum();
                    on_event(JobEvent::Progress {
                        transitions: total_transitions,
                        unique_states: progress.iter().map(|p| p.1).sum(),
                        depth: progress.iter().map(|p| p.2).max().unwrap_or(0),
                    });
                    if !cancelled
                        && spec.config.max_transitions > 0
                        && total_transitions >= spec.config.max_transitions
                    {
                        cancelled = true;
                        budget_cut = true;
                        self.pool.broadcast(&Frame::Cancel { job })?;
                    }
                }
                Frame::Violation { job: j, violation } if j == job => {
                    if !finishing {
                        on_event(JobEvent::Violation(violation));
                    }
                    if spec.config.stop_at_first_violation && !cancelled {
                        cancelled = true;
                        self.pool.broadcast(&Frame::Cancel { job })?;
                    }
                }
                // Believe an idle acknowledgement only if it covers every
                // record routed so far; a stale idle (sent before states
                // we've since routed) must not trigger termination.
                Frame::Idle { job: j, received }
                    if j == job && received == jobs[worker].log.len() as u64 =>
                {
                    jobs[worker].idle_received = Some(received);
                }
                Frame::JobDone {
                    job: j,
                    stats,
                    violations,
                } if j == job => {
                    jobs[worker].done = Some((stats, violations));
                }
                Frame::Error { job: j, message } if j == job => {
                    if worker_error.is_none() {
                        worker_error = Some(format!("worker {worker}: {message}"));
                    }
                    // Wind the job down so the pool returns to a clean
                    // idle state before we surface the error.
                    if !finishing {
                        finishing = true;
                        self.pool.broadcast(&Frame::Finish { job })?;
                    }
                }
                _ => {} // frames for other jobs (stale cancels etc.)
            }
        }

        if let Some(message) = worker_error {
            return Err(io::Error::new(io::ErrorKind::InvalidData, message));
        }

        let mut report = merge_reports(
            spec,
            &scenario_name,
            jobs.into_iter().map(|j| j.done.unwrap()).collect(),
            start.elapsed(),
            interrupted,
        );
        report.stats.truncated |= budget_cut;
        Ok(report)
    }
}

/// Merges the shards' final reports into one job-wide [`CheckReport`]:
/// the counters by [`SearchStats::merge`](nice_mc::SearchStats::merge)
/// (exact in crash-free runs — every unique state has one owner), and the
/// duration is the job's wall clock. Violations are rebuilt with full replayable
/// traces and sorted into the engine's canonical order.
fn merge_reports(
    spec: &JobSpec,
    scenario_name: &str,
    shards: Vec<(nice_mc::SearchStats, Vec<WireViolation>)>,
    duration: Duration,
    interrupted: Option<InterruptReason>,
) -> CheckReport {
    let mut report = CheckReport::default();
    let engine = TraceEngine::from_config(&spec.config);
    for (stats, violations) in shards {
        // Shards run concurrently over disjoint stores, so the merge's
        // summed explored-set peak is the job's resident footprint.
        report.stats.merge(&stats);
        // Shard-local discovery counters don't total meaningfully; report
        // the job-wide figures (filled in below).
        let violations = violations.into_iter();
        (report.violations).extend(violations.map(|v| v.into_violation(scenario_name, engine)));
    }
    report.stats.duration = duration;
    for v in &mut report.violations {
        v.transitions_explored = report.stats.transitions;
        v.unique_states = report.stats.unique_states;
    }
    report.outcome = match interrupted {
        Some(reason) => Outcome::Interrupted(reason),
        None => Outcome::Completed,
    };
    report.sort_violations();
    report
}
