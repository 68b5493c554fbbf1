//! `nice serve` and `nice submit`: the distributed checking service.
//!
//! `serve` binds a Unix socket, spawns one [`nice_dist::Coordinator`] (a
//! pool of `nice-dist-worker` processes sharding the fingerprint space by
//! digest prefix), and accepts check jobs from any number of concurrent
//! client connections. Jobs are serialized over the one worker pool with
//! **fair queuing**: the scheduler round-robins across connections that
//! have jobs pending, so one chatty client cannot starve the others.
//!
//! The client protocol is `nice-dist-v2` itself — the same length-prefixed
//! JSON frames the coordinator speaks to its workers: a client sends a
//! `job` frame (its `shard` field is ignored; sharding is the server's
//! business) and receives `progress` and `violation` frames while the job
//! runs, then exactly one `job_done` (merged job-wide stats + violations)
//! or `error`. A `cancel` frame stops the named job whether it is running
//! or still queued.
//!
//! `submit` is the matching client: build a [`JobSpec`] from the flags it
//! shares with `run`, send it, stream progress to stderr, print the verdict.

use crate::{parse_number, parse_run_options, usage_error, Mode};
use nice_apps::scenarios::find_scenario;
use nice_dist::{
    read_frame, worker_bin, write_frame, Coordinator, Frame, JobEvent, JobSpec, WireViolation,
};
use nice_mc::{CheckReport, ShardSpec};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

// ---------------------------------------------------------------------------
// nice serve
// ---------------------------------------------------------------------------

/// One accepted client connection, shared between its reader thread (which
/// appends to `pending`) and the scheduler (which drains it).
struct Client {
    /// Jobs submitted but not yet started: client job id + spec.
    pending: VecDeque<(u64, JobSpec)>,
    /// The running job's client id and cancel flag, while one is running.
    current: Option<(u64, Arc<AtomicBool>)>,
    /// The connection; its reader thread holds the other handle.
    stream: Arc<UnixStream>,
    /// Reader saw EOF: the client is dropped (and the connection closed
    /// with it) as soon as no job of its is running.
    closed: bool,
}

/// The open connections by connection id — ids are never reused, so the
/// scheduler and a reader thread keep naming the same client while others
/// come and go — and the signal that one of them queued a job.
#[derive(Default)]
struct Clients {
    by_id: Mutex<BTreeMap<u64, Client>>,
    job_queued: Condvar,
}

impl Clients {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Client>> {
        self.by_id
            .lock()
            .expect("no thread panics holding the client table")
    }
}

pub(crate) fn cmd_serve(args: &[String]) -> i32 {
    let mut socket: Option<String> = None;
    let mut workers: usize = 2;
    let mut max_jobs: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--socket" => match take(i) {
                Ok(v) => {
                    socket = Some(v.clone());
                    i += 2;
                }
                Err(e) => return usage_error(&e),
            },
            "--workers" => match take(i).and_then(|v| parse_number(v, "--workers")) {
                Ok(n) => {
                    workers = n as usize;
                    i += 2;
                }
                Err(e) => return usage_error(&e),
            },
            "--max-jobs" => match take(i).and_then(|v| parse_number(v, "--max-jobs")) {
                Ok(n) => {
                    max_jobs = n;
                    i += 2;
                }
                Err(e) => return usage_error(&e),
            },
            other => return usage_error(&format!("unknown serve option '{other}'")),
        }
    }
    let Some(socket) = socket else {
        return usage_error("serve needs --socket PATH");
    };

    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind '{socket}': {e}");
            return 2;
        }
    };
    let mut coordinator = match worker_bin().and_then(|bin| Coordinator::new(bin, workers)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start worker pool: {e}");
            return 2;
        }
    };
    eprintln!(
        "nice serve: listening on {socket} ({} worker process{})",
        coordinator.workers(),
        if coordinator.workers() == 1 { "" } else { "es" }
    );

    let clients = Arc::new(Clients::default());
    let accept_clients = Arc::clone(&clients);
    std::thread::spawn(move || {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            let stream = match stream {
                Ok(stream) => Arc::new(stream),
                Err(e) => {
                    // Out of descriptors, most likely: they come back as
                    // open connections close, so keep accepting.
                    eprintln!("nice serve: cannot accept a connection: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            };
            accept_clients.lock().insert(
                id,
                Client {
                    pending: VecDeque::new(),
                    current: None,
                    stream: Arc::clone(&stream),
                    closed: false,
                },
            );
            let reader_clients = Arc::clone(&accept_clients);
            std::thread::spawn(move || client_reader(id, &stream, &reader_clients));
        }
    });

    let mut served: u64 = 0;
    let mut next_client = 0u64;
    loop {
        // Round-robin pick: the first connection at or after the cursor
        // with a job pending. With none the scheduler sleeps until a reader
        // queues one.
        let (id, job, spec, cancel, stream) = {
            let mut by_id = clients.lock();
            loop {
                let (from, before) = (by_id.range(next_client..), by_id.range(..next_client));
                let mut waiting = from.chain(before).filter(|(_, c)| !c.pending.is_empty());
                if let Some((&id, _)) = waiting.next() {
                    let client = by_id.get_mut(&id).expect("found under this lock");
                    let (job, spec) = client.pending.pop_front().expect("found non-empty");
                    let cancel = Arc::new(AtomicBool::new(false));
                    client.current = Some((job, Arc::clone(&cancel)));
                    break (id, job, spec, cancel, Arc::clone(&client.stream));
                }
                by_id = (clients.job_queued.wait(by_id))
                    .expect("no thread panics holding the client table");
            }
        };
        next_client = id + 1;
        let mut writer = &*stream;

        eprintln!("job {job} (client {id}): {}", spec.scenario);
        let result = coordinator.run_job(
            &spec,
            |event| {
                // A client that stopped reading must not wedge the job;
                // stream errors are ignored and the final frame decides.
                let _ = match event {
                    JobEvent::Progress {
                        transitions,
                        unique_states,
                        depth,
                    } => write_frame(
                        &mut writer,
                        &Frame::Progress {
                            job,
                            transitions,
                            unique_states,
                            depth,
                        },
                    ),
                    JobEvent::Violation(violation) => {
                        write_frame(&mut writer, &Frame::Violation { job, violation })
                    }
                    JobEvent::Started { .. } | JobEvent::WorkerRestarted { .. } => Ok(()),
                };
            },
            Some(&cancel),
        );
        let finale = match &result {
            Ok(report) => Frame::JobDone {
                job,
                stats: report.stats.clone(),
                violations: report.violations.iter().map(WireViolation::of).collect(),
            },
            Err(e) => Frame::Error {
                job,
                message: e.to_string(),
            },
        };
        let _ = write_frame(&mut writer, &finale);
        match &result {
            Ok(report) => eprintln!(
                "job {job} done: {} states, {} transitions, {} violation{}",
                report.stats.unique_states,
                report.stats.transitions,
                report.violations.len(),
                if report.violations.len() == 1 {
                    ""
                } else {
                    "s"
                }
            ),
            Err(e) => eprintln!("job {job} failed: {e}"),
        }
        {
            let mut by_id = clients.lock();
            let client = by_id
                .get_mut(&id)
                .expect("a client outlives its running job");
            client.current = None;
            if client.closed {
                by_id.remove(&id);
            }
        }

        served += 1;
        if max_jobs > 0 && served >= max_jobs {
            eprintln!(
                "nice serve: served {served} job{}, exiting (--max-jobs)",
                if served == 1 { "" } else { "s" }
            );
            let _ = std::fs::remove_file(&socket);
            return 0;
        }
    }
}

/// Reads a client's frames: `job` enqueues, `cancel` stops a queued or
/// running job, EOF closes the connection (and cancels its running job).
fn client_reader(id: u64, stream: &UnixStream, clients: &Clients) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = read_frame(&mut reader);
        let mut by_id = clients.lock();
        let client = by_id
            .get_mut(&id)
            .expect("a client stays until its reader has seen EOF");
        match frame {
            Ok(Some(Frame::Job { job, spec, .. })) => {
                client.pending.push_back((job, spec));
                clients.job_queued.notify_one();
            }
            Ok(Some(Frame::Cancel { job })) => {
                if let Some((current, cancel)) = &client.current {
                    if *current == job {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
                client.pending.retain(|(id, _)| *id != job);
            }
            Ok(Some(_)) => {} // clients only submit and cancel
            Ok(None) | Err(_) => {
                client.closed = true;
                client.pending.clear();
                match &client.current {
                    // The scheduler drops the client when the job returns.
                    Some((_, cancel)) => cancel.store(true, Ordering::Relaxed),
                    None => drop(by_id.remove(&id)),
                }
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// nice submit
// ---------------------------------------------------------------------------

pub(crate) fn cmd_submit(args: &[String]) -> i32 {
    let opts = match parse_run_options(args, Mode::Submit) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    let Some(socket) = &opts.socket else {
        return usage_error("submit needs --socket PATH");
    };
    let Some(scenario) = &opts.scenario else {
        return usage_error("submit needs a scenario (a registry name or a spec like chain:5:2)");
    };
    let spec = opts.job(scenario);

    // --expect needs the registry's prediction; parameterised specs
    // (ping:N, chain:S:P) carry none.
    let entry = find_scenario(scenario);
    if opts.expect && entry.is_none() {
        eprintln!("--expect needs a registry scenario (`nice list`); '{scenario}' is not one");
        return 2;
    }

    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to '{socket}': {e} (is `nice serve` running?)");
            return 2;
        }
    };
    let Ok(mut writer) = stream.try_clone() else {
        eprintln!("cannot clone socket stream");
        return 2;
    };
    if let Err(e) = write_frame(
        &mut writer,
        &Frame::Job {
            job: 1,
            shard: ShardSpec::solo(), // the server shards; this field is its business
            spec: spec.clone(),
        },
    ) {
        eprintln!("cannot submit job: {e}");
        return 2;
    }

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Progress {
                transitions,
                unique_states,
                depth,
                ..
            })) => {
                if !opts.quiet {
                    eprintln!(
                        "  {unique_states} states / {transitions} transitions, depth {depth}"
                    );
                }
            }
            Ok(Some(Frame::Violation { violation, .. })) => {
                if !opts.quiet {
                    eprintln!(
                        "  violation: {} — {}",
                        violation.property, violation.message
                    );
                }
            }
            Ok(Some(Frame::JobDone {
                stats, violations, ..
            })) => {
                let passed = violations.is_empty();
                println!(
                    "{}: {} unique states, {} transitions, {} violation{} ({:.3}s)",
                    spec.scenario,
                    stats.unique_states,
                    stats.transitions,
                    violations.len(),
                    if violations.len() == 1 { "" } else { "s" },
                    stats.duration.as_secs_f64(),
                );
                let mut properties: Vec<&str> =
                    violations.iter().map(|v| v.property.as_str()).collect();
                properties.sort_unstable();
                properties.dedup();
                for property in &properties {
                    println!("  violated: {property}");
                }
                if opts.expect {
                    let entry = entry.expect("checked above");
                    let expected = crate::effective_expectation(&entry, spec.config.inject_faults);
                    let met = match expected {
                        Some(property) => properties.contains(&property),
                        None => passed,
                    };
                    if !met {
                        eprintln!(
                            "expectation not met for '{}': {}",
                            entry.name,
                            match expected {
                                Some(p) => format!("expected a {p} violation, found none"),
                                None => "this scenario was expected to pass".to_string(),
                            }
                        );
                        return 1;
                    }
                }
                return 0;
            }
            Ok(Some(Frame::Error { message, .. })) => {
                eprintln!("server error: {message}");
                return 2;
            }
            Ok(Some(_)) => {}
            Ok(None) => {
                eprintln!("server closed the connection before finishing the job");
                return 2;
            }
            Err(e) => {
                eprintln!("protocol error: {e}");
                return 2;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// nice run --dist N
// ---------------------------------------------------------------------------

/// Runs a check through an in-process [`Coordinator`] with `dist` worker
/// processes — `nice run <scenario> --dist N` without a server.
pub(crate) fn run_distributed(
    spec: &JobSpec,
    dist: usize,
    quiet: bool,
) -> Result<CheckReport, String> {
    let mut coordinator = worker_bin()
        .and_then(|bin| Coordinator::new(bin, dist))
        .map_err(|e| e.to_string())?;
    coordinator
        .run_job(
            spec,
            |event| {
                if quiet {
                    return;
                }
                match event {
                    JobEvent::Started { workers } => eprintln!(
                        "checking {} over {workers} worker process{} (strategy {}, reduction {})",
                        spec.scenario,
                        if workers == 1 { "" } else { "es" },
                        spec.config.strategy.name(),
                        spec.config.reduction.name(),
                    ),
                    JobEvent::Progress {
                        transitions,
                        unique_states,
                        depth,
                    } => eprintln!(
                        "  {unique_states} states / {transitions} transitions, depth {depth}"
                    ),
                    JobEvent::Violation(v) => {
                        eprintln!("  violation: {} — {}", v.property, v.message)
                    }
                    JobEvent::WorkerRestarted { worker } => {
                        eprintln!("  worker {worker} crashed; respawned and shard re-derived")
                    }
                }
            },
            None,
        )
        .map_err(|e| e.to_string())
}
