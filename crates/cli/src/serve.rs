//! `nice serve` and `nice submit`: the checking service.
//!
//! `serve` binds a Unix socket, starts `--workers N`
//! [`nice_dist::Coordinator`]s, and accepts check jobs from any number of
//! concurrent client connections. Each coordinator has a runner thread that
//! takes the next job and runs it whole on its own `nice-dist-worker`
//! process, so up to N jobs are in flight, no job forwards a state, and a
//! job's counters are the sequential engine's exactly. A worker that dies
//! mid-job fails that job with an `error` naming its exit status (the
//! search is deterministic: run again, it would die again); the runner's
//! next job starts a fresh worker. Runners take jobs with **fair
//! queuing**: the pick round-robins across connections that have a job
//! pending, so one chatty client cannot starve the others. A connection's
//! own jobs run one at a time, in the order it sent them.
//!
//! The client protocol is `nice-dist-v8` itself — the same length-prefixed
//! JSON frames the coordinator speaks to its workers: a client sends a
//! `job` frame and receives `progress` and `violation` frames while the job
//! runs, then exactly one `job_done` (stats) or `error`; the job's
//! violations are its `violation` frames. Those are the worker's own
//! frames, relayed as they come: `job_done`'s `duration_ms` is the worker's
//! search time, and it is `truncated` when a cancel or the job's deadline
//! stopped the search. A `cancel` frame stops
//! the named job whether it is running or still queued.
//!
//! `submit` is the matching client: build a [`JobSpec`] from the flags it
//! shares with `run`, send it, stream progress to stderr, print the verdict.

use crate::{parse_number, parse_run_options, usage_error, worker_count, Mode};
use nice_apps::scenarios::find_scenario;
use nice_dist::{read_frame, worker_bin, write_frame, Coordinator, Frame, JobSpec};
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
/// queues and cancels its jobs) and the runners (which take them).
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

/// A job a runner has taken off a client's queue.
struct Taken {
    client: u64,
    job: u64,
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
    stream: Arc<UnixStream>,
}

/// The open connections by connection id — ids are never reused, so a
/// runner and a reader thread keep naming the same client while others
/// come and go — with the round-robin cursor and the `--max-jobs` count.
#[derive(Default)]
struct Table {
    by_id: BTreeMap<u64, Client>,
    /// The next pick starts at this connection id.
    next_client: u64,
    /// Jobs taken so far, and how many may be (0 = no limit).
    taken: u64,
    max_jobs: u64,
}

impl Table {
    fn open(&mut self, id: u64, stream: Arc<UnixStream>) {
        let client = Client {
            pending: VecDeque::new(),
            current: None,
            stream,
            closed: false,
        };
        self.by_id.insert(id, client);
    }

    fn client(&mut self, id: u64) -> &mut Client {
        self.by_id
            .get_mut(&id)
            .expect("a client stays until it is closed and idle")
    }

    fn queue(&mut self, id: u64, job: u64, spec: JobSpec) {
        self.client(id).pending.push_back((job, spec));
    }

    /// Stops `job` of client `id`, running or queued.
    fn cancel(&mut self, id: u64, job: u64) {
        let client = self.client(id);
        if let Some((current, cancel)) = &client.current {
            if *current == job {
                cancel.store(true, Ordering::Relaxed);
            }
        }
        client.pending.retain(|(queued, _)| *queued != job);
    }

    /// The client hung up: its queued jobs are dropped and its running job
    /// cancelled. The runner drops the client when that job returns.
    fn close(&mut self, id: u64) {
        let client = self.client(id);
        client.closed = true;
        client.pending.clear();
        match &client.current {
            Some((_, cancel)) => cancel.store(true, Ordering::Relaxed),
            None => drop(self.by_id.remove(&id)),
        }
    }

    /// True once `--max-jobs` jobs have been taken.
    fn exhausted(&self) -> bool {
        self.max_jobs > 0 && self.taken >= self.max_jobs
    }

    /// Round-robin pick: the next job of the first connection at or after
    /// the cursor that has one pending and none running. `None` when there
    /// is none, or when `--max-jobs` are taken already.
    fn take(&mut self) -> Option<Taken> {
        if self.exhausted() {
            return None;
        }
        let (from, before) = (
            self.by_id.range(self.next_client..),
            self.by_id.range(..self.next_client),
        );
        let (&id, _) = from
            .chain(before)
            .find(|(_, c)| c.current.is_none() && !c.pending.is_empty())?;
        let client = self.client(id);
        let (job, spec) = client.pending.pop_front().expect("found non-empty");
        let cancel = Arc::new(AtomicBool::new(false));
        client.current = Some((job, Arc::clone(&cancel)));
        let stream = Arc::clone(&client.stream);
        self.next_client = id + 1;
        self.taken += 1;
        Some(Taken {
            client: id,
            job,
            spec,
            cancel,
            stream,
        })
    }

    /// Client `id`'s running job returned: drop the client if it hung up.
    fn finish(&mut self, id: u64) {
        let client = self.client(id);
        client.current = None;
        if client.closed {
            self.by_id.remove(&id);
        }
    }
}

/// The client table and the signal that a reader queued a job (or that
/// the last `--max-jobs` job was taken, so idle runners stop).
#[derive(Default)]
struct Clients {
    table: Mutex<Table>,
    job_queued: Condvar,
}

impl Clients {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table
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
            "--workers" => {
                match take(i).and_then(|v| worker_count(parse_number(v, "--workers")?)) {
                    Ok(n) => {
                        workers = n;
                        i += 2;
                    }
                    Err(e) => return usage_error(&e),
                }
            }
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

    let listener = match listen_at(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind '{socket}': {e}");
            return 2;
        }
    };
    let coordinators = worker_bin().and_then(|bin| {
        (0..workers)
            .map(|_| Coordinator::new(bin.clone()))
            .collect::<std::io::Result<Vec<_>>>()
    });
    let coordinators = match coordinators {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start worker pool: {e}");
            return 2;
        }
    };
    eprintln!(
        "nice serve: listening on {socket} ({workers} worker process{})",
        if workers == 1 { "" } else { "es" }
    );

    let clients = Arc::new(Clients::default());
    clients.lock().max_jobs = max_jobs;
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
            accept_clients.lock().open(id, Arc::clone(&stream));
            let reader_clients = Arc::clone(&accept_clients);
            std::thread::spawn(move || client_reader(id, &stream, &reader_clients));
        }
    });

    let runners: Vec<_> = coordinators
        .into_iter()
        .map(|coordinator| {
            let clients = Arc::clone(&clients);
            std::thread::spawn(move || runner(coordinator, &clients))
        })
        .collect();
    // Runners return only once `--max-jobs` jobs are taken and finished.
    for runner in runners {
        runner.join().expect("a runner thread panicked");
    }
    eprintln!(
        "nice serve: served {max_jobs} job{}, exiting (--max-jobs)",
        if max_jobs == 1 { "" } else { "s" }
    );
    let _ = std::fs::remove_file(&socket);
    0
}

/// A listener on the Unix socket `path`, published only once it listens:
/// bound at a sibling staging path and renamed into place (replacing a stale
/// socket), so a client that finds the path can connect.
fn listen_at(path: &str) -> std::io::Result<UnixListener> {
    let staging = format!("{path}.{}.staging", std::process::id());
    let _ = std::fs::remove_file(&staging);
    let listener = UnixListener::bind(&staging)?;
    std::fs::rename(&staging, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&staging);
    })?;
    Ok(listener)
}

/// One runner: takes the next job off the client table and runs it whole on
/// its own coordinator, until `--max-jobs` jobs are taken.
fn runner(mut coordinator: Coordinator, clients: &Clients) {
    loop {
        let taken = {
            let mut table = clients.lock();
            loop {
                if let Some(taken) = table.take() {
                    if table.exhausted() {
                        clients.job_queued.notify_all();
                    }
                    break taken;
                }
                if table.exhausted() {
                    return;
                }
                table = (clients.job_queued.wait(table))
                    .expect("no thread panics holding the client table");
            }
        };
        run_taken(&mut coordinator, &taken);
        clients.lock().finish(taken.client);
    }
}

/// Runs one job and streams its frames to the client that sent it.
fn run_taken(coordinator: &mut Coordinator, taken: &Taken) {
    let Taken {
        client,
        job,
        spec,
        cancel,
        stream,
    } = taken;
    let mut writer = &**stream;
    eprintln!("job {job} (client {client}): {}", spec.scenario);
    let mut outcome = String::new();
    let mut violations = 0;
    let relay = |frame: Frame| {
        match &frame {
            Frame::Violation { .. } => violations += 1,
            Frame::JobDone { stats, .. } => {
                let plural = if violations == 1 { "" } else { "s" };
                outcome = format!(
                    "done: {} states, {} transitions, {violations} violation{plural}",
                    stats.unique_states, stats.transitions,
                );
            }
            Frame::Error { message, .. } => outcome = format!("failed: {message}"),
            _ => {}
        }
        // A client that stopped reading must not wedge the job; stream
        // errors are ignored.
        let _ = write_frame(&mut writer, &frame);
    };
    match coordinator.run_job(*job, spec, relay, Some(cancel)) {
        Ok(()) => eprintln!("job {job} {outcome}"),
        Err(e) => {
            let message = e.to_string();
            eprintln!("job {job} failed: {message}");
            let _ = write_frame(&mut writer, &Frame::Error { job: *job, message });
        }
    }
}

/// Reads a client's frames: `job` enqueues, `cancel` stops a queued or
/// running job, EOF closes the connection (and cancels its running job).
fn client_reader(id: u64, stream: &UnixStream, clients: &Clients) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = read_frame(&mut reader);
        let mut table = clients.lock();
        match frame {
            Ok(Some(Frame::Job { job, spec })) => {
                table.queue(id, job, spec);
                clients.job_queued.notify_one();
            }
            Ok(Some(Frame::Cancel { job })) => table.cancel(id, job),
            Ok(Some(_)) => {} // clients only submit and cancel
            Ok(None) | Err(_) => return table.close(id),
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
            spec: spec.clone(),
        },
    ) {
        eprintln!("cannot submit job: {e}");
        return 2;
    }

    let mut reader = BufReader::new(stream);
    let mut violations = Vec::new();
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
                violations.push(violation);
            }
            Ok(Some(Frame::JobDone { stats, .. })) => {
                let report = spec.report(stats, violations);
                let (stats, violations) = (&report.stats, &report.violations);
                outln!(
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
                    outln!("  violated: {property}");
                }
                return match entry {
                    Some(entry) if opts.expect => {
                        crate::expect_exit_code(&entry, &report, spec.config.inject_faults)
                    }
                    _ => 0,
                };
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A table with `clients` open connections, each with `jobs` queued.
    fn table(clients: u64, jobs: u64, max_jobs: u64) -> Table {
        let mut table = Table {
            max_jobs,
            ..Table::default()
        };
        for id in 0..clients {
            let (stream, _) = UnixStream::pair().expect("a socket pair");
            table.open(id, Arc::new(stream));
            for job in 1..=jobs {
                table.queue(id, job, JobSpec::new("ping:2"));
            }
        }
        table
    }

    /// Takes as many jobs as the table hands out: (client, job) each.
    fn take_all(table: &mut Table) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| table.take().map(|t| (t.client, t.job))).collect()
    }

    #[test]
    fn runners_take_jobs_round_robin_one_per_connection_at_a_time() {
        let mut table = table(3, 2, 0);
        // Three runners: one job of each client, then none while all run.
        assert_eq!(take_all(&mut table), [(0, 1), (1, 1), (2, 1)]);
        table.finish(1);
        assert_eq!(take_all(&mut table), [(1, 2)]);
        table.finish(0);
        table.finish(2);
        // The cursor stands after client 1, so client 2 goes first.
        assert_eq!(take_all(&mut table), [(2, 2), (0, 2)]);
        // One runner: a, b, c, a, ...
        let mut table = self::table(3, 2, 0);
        let mut order = Vec::new();
        while let Some(taken) = table.take() {
            order.push(taken.client);
            table.finish(taken.client);
        }
        assert_eq!(order, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn a_closed_client_loses_its_queue_and_cancels_its_running_job() {
        let mut table = table(2, 3, 0);
        let running = table.take().expect("client 0 has jobs");
        assert_eq!((running.client, running.job), (0, 1));
        table.close(0);
        assert!(running.cancel.load(Ordering::Relaxed));
        assert!(table.by_id[&0].pending.is_empty());
        // The client stays until its running job returns.
        table.finish(0);
        assert!(!table.by_id.contains_key(&0));
        // An idle client goes at once, jobs and all.
        table.close(1);
        assert!(table.by_id.is_empty());
        assert!(table.take().is_none());
    }

    #[test]
    fn a_cancel_stops_the_running_job_or_drops_a_queued_one() {
        let mut table = table(1, 3, 0);
        let running = table.take().expect("a job");
        table.cancel(0, 2);
        assert!(!running.cancel.load(Ordering::Relaxed));
        table.cancel(0, 1);
        assert!(running.cancel.load(Ordering::Relaxed));
        table.finish(0);
        assert_eq!(take_all(&mut table), [(0, 3)]);
    }

    #[test]
    fn no_job_is_taken_past_max_jobs() {
        let mut table = table(3, 1, 2);
        assert_eq!(take_all(&mut table), [(0, 1), (1, 1)]);
        assert!(table.exhausted());
        table.finish(0);
        table.finish(1);
        assert!(table.take().is_none(), "client 2's job stays queued");
    }

    #[test]
    fn a_published_socket_accepts_connections_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("nice-listen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temporary directory");
        let socket = dir.join("serve.sock");
        // A stale socket from an earlier server is replaced.
        drop(UnixListener::bind(&socket).expect("a stale socket"));
        let listener = listen_at(socket.to_str().unwrap()).expect("listens");
        UnixStream::connect(&socket).expect("the published path accepts");
        drop(listener.accept().expect("the connection arrives"));
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 1, "only the socket remains: {left:?}");
        std::fs::remove_dir_all(&dir).expect("cleaned up");
    }

    #[test]
    fn serve_refuses_zero_workers_before_binding() {
        let socket = std::env::temp_dir().join(format!("nice-zero-{}.sock", std::process::id()));
        let args: Vec<String> = ["--socket", socket.to_str().unwrap(), "--workers", "0"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(cmd_serve(&args), 2);
        assert!(!socket.exists());
    }

    #[test]
    fn serve_refuses_more_than_256_workers_before_binding() {
        let socket = std::env::temp_dir().join(format!("nice-many-{}.sock", std::process::id()));
        for workers in ["257", "100000"] {
            let args: Vec<String> = ["--socket", socket.to_str().unwrap(), "--workers", workers]
                .iter()
                .map(|a| a.to_string())
                .collect();
            assert_eq!(cmd_serve(&args), 2, "--workers {workers}");
            assert!(!socket.exists());
        }
        assert_eq!(
            worker_count(100_000),
            Err("--workers must be at most 256".into())
        );
    }
}
