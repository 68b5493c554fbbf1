//! `bench`: the end-to-end half of the benchmark.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's call)
//! bench [--seed N] [--seconds S] [--out FILE]           every workload, untraced then traced
//! bench compare A.json B.json [A2.json B2.json ...]     apply the regression bounds
//! bench expected                                        print today's outcomes as expected.json
//! ```
//!
//! Each untraced run sets the workload up in a few fresh processes (`bench
//! child`), one after the other, and the last of them goes on to run the
//! closed loop: one client, one operation at a time, for `--seconds`. A
//! traced run hands over to the `probe` binary; end-to-end numbers never
//! come from traced operations.

mod compare;
mod ops;

use nice_benchmark::expected::Expected;
use nice_benchmark::json::{self, Value};
use nice_benchmark::serve::Server;
use nice_benchmark::spec::{Metric, Spec};
use nice_benchmark::stats::Summary;
use nice_benchmark::workloads::{busy_cores, BUGHUNT, SERVED, WORKERS};
use nice_benchmark::{bin_dir, calibrate, procfs, RunArgs, OUT_DIR};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Fresh processes set up per run; `setup_s` is the median.
const SETUP_RUNS: usize = 5;
/// The timed loop runs at least this many operations however short
/// `--seconds` is, so that quartiles exist.
const MIN_OPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("expected") => print_expected(),
        Some("child") => child(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("bench: {why}");
            ExitCode::from(2)
        }
    }
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// The measuring child
// ---------------------------------------------------------------------------

/// CPU seconds spent so far by this process, the children it has waited for
/// (the `nice submit` clients) and the live service processes.
fn cpu_seconds(service: &[u32]) -> Result<f64, String> {
    let own = procfs::cpu_seconds_self_and_reaped().ok_or("cannot read /proc/self/stat")?;
    let served: Option<f64> = service.iter().map(|&p| procfs::cpu_seconds_of(p)).sum();
    Ok(own + served.ok_or("a service process vanished")?)
}

/// `bench child`: sets a workload up in this fresh process, reports how long
/// that took since the parent spawned it, and runs the timed loop for
/// `--seconds` and at least `--min-ops` operations (none and zero when the
/// parent only wants the set-up). Prints one JSON object. Every interval
/// comes with the factor that turns its wall seconds into reference seconds
/// (see `calibrate`).
fn child(args: &[String]) -> Result<ExitCode, String> {
    let mut args = RunArgs::parse(args)?;
    let spawned_at: f64 = args
        .take("--spawned-at")
        .and_then(|v| v.parse().ok())
        .ok_or("child needs --spawned-at")?;
    let min_ops: usize = args
        .take("--min-ops")
        .and_then(|v| v.parse().ok())
        .ok_or("child needs --min-ops")?;
    args.finish()?;
    let workload = args.workload.ok_or("child needs --workload")?;
    let seconds = args.seconds.ok_or("child needs --seconds")?;
    let calibrated = busy_cores(&workload) == 1;
    let first_slice = calibrate::slice(calibrated);

    let expected = Expected::load();
    let mut server = if workload == SERVED {
        Some(Server::start(&bin_dir()?, WORKERS)?)
    } else {
        None
    };
    let service: Vec<u32> = server.as_ref().map(Server::pids).unwrap_or_default();
    let report = {
        let mut op: ops::Op<'_> = match &server {
            Some(server) => {
                let (scenario, expect) = expected.search(SERVED)?;
                Box::new(move || server.submit(scenario, &expect))
            }
            None => ops::in_process(&workload, args.seed, &expected)?,
        };
        // The warm-up operation is part of set-up: it fills caches, faults
        // pages in and lets lazy initialisation finish, so work moved out
        // of the timed loop shows up in `setup_s`.
        op().map_err(|why| format!("warm-up operation failed: {why}"))?;
        // The first slice ran inside the interval; it is not set-up.
        let setup_wall = unix_now() - spawned_at - first_slice.cost_s;
        let mut last_slice = calibrate::slice(calibrated);
        let cpu_before = cpu_seconds(&service)?;
        let started = Instant::now();
        let mut ops = Vec::new();
        let mut slices_s = 0.0;
        let setup_scale = calibrate::scale(first_slice, last_slice);
        while ops.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
            let op_started = Instant::now();
            let outcome = op();
            let wall = op_started.elapsed().as_secs_f64();
            let next_slice = calibrate::slice(calibrated);
            slices_s += next_slice.cost_s;
            let mut entry = vec![
                ("wall_s", Value::Num(wall)),
                (
                    "scale",
                    Value::Num(calibrate::scale(last_slice, next_slice)),
                ),
            ];
            last_slice = next_slice;
            match outcome {
                Ok(transitions) => entry.push(("transitions", transitions.into())),
                Err(why) => {
                    eprintln!("bench: {workload}: operation {} failed: {why}", ops.len());
                    entry.push(("error", why.into()));
                }
            }
            ops.push(Value::obj(entry));
        }
        // The slices between the operations burnt CPU in this process too,
        // as much as they took on the wall.
        let cpu_s = cpu_seconds(&service)? - cpu_before - slices_s;
        // The memory a user must provision: this process for the in-process
        // workloads, the service for the served one.
        let measured = if service.is_empty() {
            vec![std::process::id()]
        } else {
            service.clone()
        };
        let peak_rss_kib: Option<u64> = measured.iter().map(|&p| procfs::peak_rss_kib(p)).sum();
        Value::obj([
            ("setup_wall_s", Value::Num(setup_wall)),
            ("setup_scale", Value::Num(setup_scale)),
            ("ops", Value::Arr(ops)),
            (
                "service_pids",
                Value::Arr(service.iter().map(|&p| u64::from(p).into()).collect()),
            ),
            ("cpu_s", Value::Num(cpu_s)),
            (
                "peak_rss_kib",
                peak_rss_kib.ok_or("cannot read VmHWM")?.into(),
            ),
        ])
    };
    if let Some(server) = &mut server {
        server.stop()?;
    }
    println!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

/// Spawns one `bench child` and parses what it prints.
fn spawn_child(workload: &str, seed: u64, seconds: f64, min_ops: usize) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--min-ops", &min_ops.to_string()])
        .args(["--spawned-at", &unix_now().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the measuring child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: measuring child: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: measuring child printed no result: {e}"))
}

// ---------------------------------------------------------------------------
// One run of one workload
// ---------------------------------------------------------------------------

/// What one run of one workload produced, untraced or traced.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// Every metric the mode reports with its value, in contract order.
    metrics: Vec<(Metric, f64)>,
    /// The part of the result file this run fills in.
    detail: Value,
}

fn field(value: &Value, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("measuring child reported no '{key}'"))
}

/// The service processes a child or the probe says it started.
fn service_pids(report: &Value) -> Vec<u32> {
    let pids = report.get("service_pids").and_then(Value::as_arr);
    pids.unwrap_or(&[])
        .iter()
        .filter_map(|p| p.as_u64().and_then(|p| u32::try_from(p).ok()))
        .collect()
}

/// The workers of a killed `nice serve` exit at once but stay in the process
/// table until the container's init reaps them, a second or two later. A
/// run does not return before they are gone.
fn wait_reaped(service: &[u32]) {
    let left = procfs::wait_reaped(service, Duration::from_secs(10));
    if !left.is_empty() {
        eprintln!("bench: service processes {left:?} are still in the process table");
    }
}

/// An untraced run: `SETUP_RUNS` fresh processes set the workload up, one
/// after the other, and the last goes on to run the closed loop for
/// `seconds`. Times are reference seconds; the raw wall-clock medians go
/// into the result file beside them.
fn end_to_end(spec: &Spec, workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut children = Vec::new();
    for _ in 1..SETUP_RUNS {
        children.push(spawn_child(workload, seed, 0.0, 0)?);
    }
    children.push(spawn_child(workload, seed, seconds, MIN_OPS)?);
    let service: Vec<u32> = children.iter().flat_map(service_pids).collect();
    wait_reaped(&service);

    let mut setups = Vec::new();
    let mut setup_walls = Vec::new();
    for child in &children {
        let wall = field(child, "setup_wall_s")?;
        setups.push(wall * field(child, "setup_scale")?);
        setup_walls.push(wall);
    }
    let full = children.last().expect("SETUP_RUNS is not zero");
    let ops = full
        .get("ops")
        .and_then(Value::as_arr)
        .ok_or("measuring child reported no operations")?;
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let mut errors = Vec::new();
    for op in ops {
        let wall = field(op, "wall_s")?;
        let time = wall * field(op, "scale")?;
        walls.push(wall);
        times.push(time);
        match op.get("transitions").and_then(Value::as_f64) {
            Some(transitions) => rates.push(transitions / time),
            None => errors.push(op.get("error").cloned().unwrap_or(Value::Null)),
        }
    }
    let time = Summary::of(&times).ok_or("no operation ran")?;
    let rate = Summary::of(&rates).ok_or_else(|| format!("{workload}: every operation failed"))?;
    let setup = Summary::of(&setups).ok_or("no set-up ran")?;
    // CPU seconds are only known for the loop as a whole. Dividing them by
    // the operations would let one stalled operation move the metric, so
    // the loop yields the cores kept busy (CPU seconds per wall second) and
    // the median operation yields the seconds.
    let busy = field(full, "cpu_s")? / walls.iter().sum::<f64>();
    let median_of = |samples: &[f64]| Summary::of(samples).map(|s| s.median);
    let wall_median = median_of(&walls).expect("walls is as long as times");
    // (name, value, samples, the same quantity on the raw wall clock)
    let values = [
        (
            "setup_s",
            setup.median,
            Some(&setup),
            median_of(&setup_walls),
        ),
        ("verdict_s", time.median, Some(&time), Some(wall_median)),
        ("transitions_per_s", rate.median, Some(&rate), None),
        (
            "cpu_s_per_op",
            busy * time.median,
            None,
            Some(busy * wall_median),
        ),
        (
            "peak_rss_mib",
            field(full, "peak_rss_kib")? / 1024.0,
            None,
            None,
        ),
    ];
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for metric in &spec.end_to_end {
        let &(_, value, samples, wall) = values
            .iter()
            .find(|(name, ..)| *name == metric.name)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json names '{}', bench has no such metric",
                    metric.name
                )
            })?;
        metrics.push((metric.clone(), value));
        let mut entry = vec![
            ("value", Value::Num(value)),
            ("unit", Value::from(metric.unit.as_str())),
        ];
        if let Some(samples) = samples {
            entry.push(("samples", samples.to_json()));
        }
        if let Some(wall) = wall {
            entry.push(("wall_clock", Value::Num(wall)));
        }
        detail.push((metric.name.clone(), Value::obj(entry)));
    }
    Ok(RunResult {
        attempted: walls.len() as u64,
        failed: errors.len() as u64,
        metrics,
        detail: Value::obj([
            ("attempted", Value::from(walls.len() as u64)),
            ("failed", Value::from(errors.len() as u64)),
            ("errors", Value::Arr(errors)),
            ("end_to_end", Value::Obj(detail)),
        ]),
    })
}

/// A traced run: the `probe` binary measures the layers this workload
/// reaches; the layers it does not reach read 0.
fn per_layer(spec: &Spec, workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let probe = bin_dir()?.join("probe");
    let output = Command::new(&probe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", probe.display()))?;
    if !output.status.success() {
        return Err(format!("{workload}: probe: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: probe printed no result: {e}"))?;
    wait_reaped(&service_pids(&report));
    let measured = report.get("metrics").ok_or("probe reported no metrics")?;
    let checks = report
        .get("checks")
        .and_then(Value::as_arr)
        .ok_or("probe reported no checks")?;
    let failed: Vec<Value> = checks
        .iter()
        .filter(|c| c.get("ok") != Some(&Value::Bool(true)))
        .cloned()
        .collect();
    for check in &failed {
        eprintln!("bench: {workload}: probe check failed: {}", check.render());
    }
    let metrics: Vec<(Metric, f64)> = spec
        .per_layer
        .iter()
        .map(|m| {
            let value = measured.get(&m.name).and_then(Value::as_f64).unwrap_or(0.0);
            (m.clone(), value)
        })
        .collect();
    Ok(RunResult {
        attempted: checks.len() as u64,
        failed: failed.len() as u64,
        detail: Value::obj([
            ("checks", Value::Arr(checks.to_vec())),
            (
                "layers",
                Value::Obj(
                    metrics
                        .iter()
                        .map(|(metric, value)| (metric.name.clone(), Value::Num(*value)))
                        .collect(),
                ),
            ),
        ]),
        metrics,
    })
}

/// The last line a run prints: the object the driver reads.
fn driver_line(result: &RunResult) -> String {
    let metrics = result.metrics.iter().map(|(metric, value)| {
        (
            metric.name.clone(),
            Value::obj([
                ("value", Value::Num(*value)),
                ("unit", metric.unit.as_str().into()),
            ]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", result.attempted.into()),
        ("failed", result.failed.into()),
        ("metrics", Value::Obj(metrics.collect())),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Result files
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The machine and the build a result was measured on.
fn environment(load_before: Option<f64>) -> Value {
    let text = |s: Option<String>| s.map_or(Value::Null, Value::Str);
    let num = |n: Option<f64>| n.map_or(Value::Null, Value::Num);
    Value::obj([
        (
            "nproc",
            std::thread::available_parallelism().map_or(Value::Null, |n| (n.get() as u64).into()),
        ),
        ("loadavg_before", num(load_before)),
        ("loadavg_after", num(procfs::loadavg())),
        ("cpu", text(procfs::cpu_model())),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

fn write_result(
    path: &str,
    seed: u64,
    seconds: f64,
    load_before: Option<f64>,
    workloads: Vec<(String, Value)>,
) -> Result<(), String> {
    let doc = Value::obj([
        ("schema", Value::from("nice-benchmark-result-v1")),
        ("seed", seed.into()),
        ("seconds", Value::Num(seconds)),
        ("env", environment(load_before)),
        ("workloads", Value::Obj(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------------
// The two ways to run
// ---------------------------------------------------------------------------

fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let mut args = RunArgs::parse(args)?;
    let out = args.take("--out");
    args.finish()?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let load_before = procfs::loadavg();

    if let Some(workload) = &args.workload {
        if !spec.has_workload(workload) {
            return Err(format!("unknown workload '{workload}'"));
        }
        let result = if args.trace {
            per_layer(&spec, workload, args.seed, seconds)?
        } else {
            end_to_end(&spec, workload, args.seed, seconds)?
        };
        let key = if args.trace { "traced" } else { "untraced" };
        let path = out.unwrap_or_else(|| format!("{OUT_DIR}/result-{workload}-{key}.json"));
        let line = driver_line(&result);
        let workloads = vec![(workload.clone(), result.detail)];
        write_result(&path, args.seed, seconds, load_before, workloads)?;
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    // Every workload, for a person: refuse to measure on a busy box. (A
    // single-workload run cannot refuse: the driver's own back-to-back runs
    // keep the load average of a two-core box near two.)
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(load) = load_before.filter(|&l| l > nproc as f64) {
        return Err(format!(
            "load average {load} exceeds {nproc} cores; refusing to measure on a busy machine"
        ));
    }
    let mut workloads = Vec::new();
    let mut failed = 0;
    for workload in &spec.workloads {
        let name = &workload.name;
        println!("== {name}: {}", workload.why);
        let untraced = end_to_end(&spec, name, args.seed, seconds)?;
        failed += untraced.failed;
        println!(
            "   {} operations, {} failed",
            untraced.attempted, untraced.failed
        );
        print_metrics(&untraced.metrics);
        let mut detail = match untraced.detail {
            Value::Obj(pairs) => pairs,
            _ => unreachable!("end_to_end builds an object"),
        };
        // A probe that no longer builds or runs costs the layers, never
        // the end-to-end numbers.
        match per_layer(&spec, name, args.seed, seconds) {
            Ok(traced) => {
                failed += traced.failed;
                print_metrics(&traced.metrics);
                if let Value::Obj(pairs) = traced.detail {
                    detail.extend(pairs);
                }
            }
            Err(why) => {
                println!("   layers: null ({why})");
                detail.push(("layers".to_string(), Value::Null));
                detail.push(("layers_error".to_string(), why.into()));
            }
        }
        workloads.push((name.clone(), Value::Obj(detail)));
    }
    let path = out.unwrap_or_else(|| format!("{OUT_DIR}/result.json"));
    write_result(&path, args.seed, seconds, load_before, workloads)?;
    println!("wrote {path}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: {failed} operations or probe checks failed");
        ExitCode::FAILURE
    })
}

fn print_metrics(metrics: &[(Metric, f64)]) {
    for (metric, value) in metrics {
        println!("   {:<40} {value:>16.6} {}", metric.name, metric.unit);
    }
}

fn print_expected() -> Result<ExitCode, String> {
    let workloads: Vec<String> = Spec::load().workloads.into_iter().map(|w| w.name).collect();
    let doc = ops::current_outcomes(&Expected::load(), &workloads)?;
    // One operation per line, so that a re-pin reads well in a diff.
    println!("{{");
    let pairs = doc.as_obj().expect("current_outcomes builds an object");
    for (i, (name, value)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        if name != BUGHUNT {
            println!("  \"{name}\": {}{comma}", value.render());
            continue;
        }
        println!("  \"{name}\": {{");
        for (key, last) in [("cells", false), ("fixed", true)] {
            println!("    \"{key}\": [");
            let items = value.get(key).and_then(Value::as_arr).unwrap_or(&[]);
            for (j, item) in items.iter().enumerate() {
                let comma = if j + 1 < items.len() { "," } else { "" };
                println!("      {}{comma}", item.render());
            }
            println!("    ]{}", if last { "" } else { "," });
        }
        println!("  }}{comma}");
    }
    println!("}}");
    Ok(ExitCode::SUCCESS)
}
