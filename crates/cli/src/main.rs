//! The `nice` command line.
//!
//! Built on the scenario registry and the session-based checking API:
//!
//! * `nice list` — every bug/fixed scenario the registry knows, with the
//!   application and the property each one is expected to violate (or pass).
//! * `nice run <scenario>` — an observable, cancellable check of one
//!   registry scenario or workload spec (`chain:5:2`): streams progress to
//!   stderr, honours a wall-clock budget (`--time-budget-ms`), with
//!   `--json` emits one machine-readable
//!   object embedding the first counterexample as a typed trace (schema
//!   `nice-cli-run-v7`, documented in `bench/README.md`), and with
//!   `--trace-out FILE` writes that trace as a standalone `nice-trace-v1`
//!   file.
//! * `nice sweep <scenario>` — the strategies × reductions matrix on one
//!   scenario, as a JSON report (schema `nice-cli-sweep-v3`).
//! * `nice replay <trace.json>` — re-executes a saved trace step by step on
//!   the deterministic engine, checking every property at every step.
//! * `nice minimize <trace.json>` — ddmin delta debugging: shrinks the
//!   trace while it still violates the same property under replay.
//! * `nice bisect <trace.json>` — reports the first transition after which
//!   the violation becomes unavoidable.
//! * `nice timeline <trace.json>` — renders the trace as an ASCII timeline,
//!   one lane per switch/host/controller.
//! * `nice validate-json` — reads stdin and exits non-zero unless it is one
//!   well-formed JSON value (what CI pipes `--json` output through); a
//!   document whose top-level `"schema"` is `nice-trace-v1` must also read
//!   as a typed trace.
//!
//! Every emitted document is built as a [`nice_mc::Json`] value and rendered
//! by its writer, the same module `validate-json` parses with.

mod serve;

use nice_apps::scenarios::{find_scenario, registry, ScenarioEntry, ScenarioKind};
use nice_mc::{
    render_timeline, CheckEvent, CheckReport, CheckerConfig, Json, ModelChecker, ReductionKind,
    Scenario, StrategyKind, Trace, TraceEngine, Verdict, TRACE_SCHEMA,
};
use std::io::Read;
use std::time::Duration;

const USAGE: &str = "\
nice — model-check OpenFlow controller programs (NICE, NSDI'12)

USAGE:
  nice list [--names|--json]
  nice run <scenario> [OPTIONS]
  nice sweep <scenario> [OPTIONS]
  nice serve --socket <PATH> [--workers <N>] [--max-jobs <N>]
  nice submit --socket <PATH> <scenario> [OPTIONS]
  nice replay <trace.json> [--expect-violation]
  nice minimize <trace.json> [--out <FILE>]
  nice bisect <trace.json> [--max-explored <N>]
  nice timeline <trace.json>
  nice validate-json            (reads stdin)

CHECK OPTIONS (run, sweep and submit: one meaning and one default each):
  --strategy <pkt-seq|no-delay|flow-ir|unusual>   search strategy (default pkt-seq; not sweep, which
                                                  covers all four)
  --reduction <none|por>                          partial-order reduction (default none; not sweep,
                                                  which covers both)
  --max-transitions <N>                           transition budget (default 500000; 0 = unlimited)
  --max-depth <N>                                 depth bound (default 400)
  --time-budget-ms <N>                            interrupt the search (each sweep cell) after N wall-clock ms
                                                  (default and 0: no deadline)
  --faults                                        enable the scenario's fault plan (switch crashes,
                                                  channel faults, failover — see README \"Fault injection\")
  --all-violations                                keep searching after the first violation

OTHER OPTIONS:
  --workers <N>                                   search worker threads (run, sweep; default 1, at most 256)
  --progress-every <N>                            Progress event cadence in transitions (run only; default 8192)
  --expect                                        exit non-zero unless the registry expectation holds
                                                  (bug found its property / fixed variant passed; run
                                                  and submit, registry scenarios only): 1 if it
                                                  fails, 3 if a bound stopped the search first
  --json                                          emit machine-readable JSON on stdout (run, sweep)
  --quiet                                         suppress streamed progress on stderr
  --trace-out <FILE>                              write the first violation's trace as a
                                                  nice-trace-v1 JSON file (run only)

SERVE / SUBMIT (the checking service — see README \"Serving checks\"):
  serve      bind a Unix socket, spawn --workers N nice-dist-worker processes
             (default 2, 1 to 256), and accept check jobs from any number of
             clients; each worker runs one job whole, so up to N jobs run at
             once (fair round-robin across connections); --max-jobs N exits
             after N jobs (CI smoke)
  submit     send one job to a running server (scenario name or a spec like
             ping:2 / chain:5:2 / chain-faults:3:1) and stream its progress;
             takes the check options, --expect and --quiet

TRACE COMMANDS (operate on nice-trace-v1 files, produced by `nice run --trace-out`):
  replay     re-execute the trace on the deterministic engine, checking every
             property at every step; --expect-violation exits non-zero unless
             replay reproduces the trace's recorded violation
  minimize   ddmin delta debugging: emit the shortest sub-trace found that
             still violates the same property under replay (stdout, or --out)
  bisect     binary-search the first step after which the violation is
             unavoidable; --max-explored bounds each probe's state exploration
             (default 2000000, 0 = unlimited)
  timeline   ASCII timeline: one lane per switch/host/controller, with packet
             sends, flow-mods, barriers, faults and the violation marked

<scenario> is a registry name from `nice list` or a workload spec (ping:<pings>,
chain:<switches>:<pings>, chain-faults:<switches>:<pings>); schemas are documented in
bench/README.md.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("submit") => serve::cmd_submit(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("minimize") => cmd_minimize(&args[1..]),
        Some("bisect") => cmd_bisect(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("validate-json") => cmd_validate_json(),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Option parsing (hand-rolled; the offline build has no clap)
// ---------------------------------------------------------------------------

/// Which subcommand is parsing: each rejects the flags that are another's,
/// so no option is ever silently ignored.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Sweep,
    Submit,
}

/// The transition budget of a check nobody gave `--max-transitions`.
const DEFAULT_MAX_TRANSITIONS: u64 = 500_000;

struct RunOptions {
    scenario: Option<String>,
    /// The check: what the shared flags (and `--workers`) describe.
    config: CheckerConfig,
    /// `--time-budget-ms`: a deadline for the run, not a property of the
    /// search.
    time_budget: Option<Duration>,
    progress_every: u64,
    expect: bool,
    json: bool,
    quiet: bool,
    trace_out: Option<String>,
    /// Where `nice serve` listens (`submit` only).
    socket: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scenario: None,
            config: CheckerConfig::default().with_max_transitions(DEFAULT_MAX_TRANSITIONS),
            time_budget: None,
            progress_every: nice_mc::session::DEFAULT_PROGRESS_EVERY,
            expect: false,
            json: false,
            quiet: false,
            trace_out: None,
            socket: None,
        }
    }
}

impl RunOptions {
    /// The job `submit` hands to the server.
    fn job(&self, scenario: &str) -> nice_dist::JobSpec {
        nice_dist::JobSpec {
            scenario: scenario.to_string(),
            config: self.config.clone(),
            time_budget_ms: self.time_budget.map_or(0, |d| d.as_millis() as u64),
        }
    }
}

/// Parses the arguments of `run`, `sweep` or `submit`. The seven flags that
/// describe the check itself (USAGE's "check options") mean the same to all
/// three and are read here only.
fn parse_run_options(args: &[String], mode: Mode) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = || parse_number(value()?, flag);
        // Sweep says why it refuses a flag of `run`; a flag a command has
        // never had is unknown to it.
        let refusal = match (flag, mode) {
            ("--strategy", Mode::Sweep) => Some("; sweep covers every strategy"),
            ("--reduction", Mode::Sweep) => Some("; sweep covers every reduction"),
            ("--progress-every", Mode::Sweep) => Some(" (sweep streams no progress)"),
            ("--trace-out", Mode::Sweep) => Some(" (sweep cells race for the witness)"),
            ("--expect", Mode::Sweep) => Some(" (heuristic sweep cells legitimately miss bugs)"),
            _ => None,
        };
        if let Some(why) = refusal {
            return Err(format!("{flag} is run-only{why}"));
        }
        let foreign = match mode {
            Mode::Run | Mode::Sweep => flag == "--socket",
            Mode::Submit => matches!(
                flag,
                "--workers" | "--progress-every" | "--trace-out" | "--json"
            ),
        };
        let config = &mut opts.config;
        let mut valued = true;
        match flag {
            _ if foreign => return Err(format!("unknown option '{flag}'")),
            "--strategy" => {
                let names = "pkt-seq, no-delay, flow-ir, unusual";
                config.strategy = parse_name(value()?, "strategy", names, StrategyKind::parse)?;
            }
            "--reduction" => {
                let names = "none, por";
                config.reduction = parse_name(value()?, "reduction", names, ReductionKind::parse)?;
            }
            "--max-transitions" => config.max_transitions = number()?,
            "--max-depth" => config.max_depth = number()? as usize,
            "--time-budget-ms" => {
                // 0 is no deadline, as the `job` frame reads it.
                opts.time_budget = Some(number()?)
                    .filter(|ms| *ms > 0)
                    .map(Duration::from_millis)
            }
            "--workers" => config.workers = worker_count(number()?)?,
            "--progress-every" => opts.progress_every = number()?,
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--socket" => opts.socket = Some(value()?.clone()),
            _ => valued = false,
        }
        if valued {
            i += 2;
            continue;
        }
        match flag {
            "--faults" => config.inject_faults = true,
            "--all-violations" => config.stop_at_first_violation = false,
            "--expect" => opts.expect = true,
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            _ if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            name => {
                if opts.scenario.replace(name.to_string()).is_some() {
                    return Err("more than one scenario name given".into());
                }
            }
        }
        i += 1;
    }
    Ok(opts)
}

/// `value` as one of the CLI `names` of an enum.
fn parse_name<T>(
    value: &str,
    what: &str,
    names: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, String> {
    parse(value).ok_or_else(|| format!("unknown {what} '{value}' ({names})"))
}

fn parse_number(value: &str, flag: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a number"))
}

/// The most `--workers` a command accepts: threads for `run` and `sweep`,
/// worker processes for `serve`.
const MAX_WORKERS: u64 = 256;

/// A `--workers` value, checked before any thread or process exists.
fn worker_count(n: u64) -> Result<usize, String> {
    match n {
        0 => Err("--workers must be at least 1".into()),
        n if n > MAX_WORKERS => Err(format!("--workers must be at most {MAX_WORKERS}")),
        n => Ok(n as usize),
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n\n{USAGE}");
    2
}

// ---------------------------------------------------------------------------
// nice list
// ---------------------------------------------------------------------------

fn cmd_list(args: &[String]) -> i32 {
    let names_only = args.iter().any(|a| a == "--names");
    let json = args.iter().any(|a| a == "--json");
    if let Some(bad) = args.iter().find(|a| *a != "--names" && *a != "--json") {
        return usage_error(&format!("unknown option '{bad}'"));
    }
    if names_only && json {
        return usage_error("--names and --json are mutually exclusive");
    }
    let entries = registry();
    if json {
        println!("{}", list_json(&entries).block());
        return 0;
    }
    if names_only {
        for e in &entries {
            println!("{}", e.name);
        }
        return 0;
    }
    println!(
        "{:<42} {:<14} {:>5}  {:<8} expected violation",
        "scenario", "app", "bug", "kind"
    );
    println!("{}", "-".repeat(100));
    for e in &entries {
        println!(
            "{:<42} {:<14} {:>5}  {:<8} {}",
            e.name,
            e.app,
            e.bug.label(),
            kind_label(e.kind),
            match (e.expected_violation, e.requires_faults) {
                (Some(p), true) => format!("{p} (needs --faults)"),
                (Some(p), false) => p.to_string(),
                (None, _) => "none (expected to pass)".to_string(),
            }
        );
    }
    println!("{} scenarios", entries.len());
    0
}

fn kind_label(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::Buggy => "bug",
        ScenarioKind::Fixed => "fixed",
    }
}

/// The machine-readable registry dump (schema `nice-cli-list-v1`,
/// documented in `bench/README.md`): what CI and scripting consume instead
/// of scraping the human table.
fn list_json(entries: &[ScenarioEntry]) -> Json<'_> {
    let scenarios = entries.iter().map(|e| {
        Json::object([
            ("name", e.name.as_str().into()),
            ("app", e.app.into()),
            ("bug", e.bug.label().into()),
            ("kind", kind_label(e.kind).into()),
            ("expected_violation", e.expected_violation.into()),
            ("requires_faults", e.requires_faults.into()),
        ])
    });
    Json::object([
        ("schema", "nice-cli-list-v1".into()),
        ("count", entries.len().into()),
        ("scenarios", Json::Arr(scenarios.collect())),
    ])
}

// ---------------------------------------------------------------------------
// nice run
// ---------------------------------------------------------------------------

/// What `run` / `sweep` check: a scenario resolved from its spec the same
/// way `submit`, `serve` and its worker processes resolve it, plus the registry
/// entry (and with it the expectation) when the spec is a registry name.
struct Target {
    /// The spec as given: a registry name or a workload spec.
    spec: String,
    scenario: Scenario,
    entry: Option<ScenarioEntry>,
}

fn resolve_target(command: &str, opts: &RunOptions) -> Result<Target, i32> {
    let Some(spec) = opts.scenario.clone() else {
        return Err(usage_error(&format!(
            "{command} needs a scenario (a registry name or a spec like chain:5:2)"
        )));
    };
    let Some(scenario) = nice_apps::workloads::resolve(&spec) else {
        eprintln!(
            "unknown scenario '{spec}'; `nice list` enumerates the registry, \
             and ping:<pings>, chain:<switches>:<pings>, chain-faults:<switches>:<pings> are specs"
        );
        return Err(2);
    };
    let entry = find_scenario(&spec);
    if opts.expect && entry.is_none() {
        return Err(usage_error(&format!(
            "--expect needs a registry scenario (`nice list`); '{spec}' is not one"
        )));
    }
    Ok(Target {
        spec,
        scenario,
        entry,
    })
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_run_options(args, Mode::Run) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let target = match resolve_target("run", &opts) {
        Ok(target) => target,
        Err(code) => return code,
    };

    let checker = ModelChecker::new(target.scenario.clone(), opts.config.clone());
    let mut session = checker.session().with_progress_every(opts.progress_every);
    if let Some(budget) = opts.time_budget {
        session = session.with_time_budget(budget);
    }

    let stream_to_stderr = !opts.quiet;
    let report = session.run_with(&mut |event: &CheckEvent| {
        if !stream_to_stderr {
            return;
        }
        match event {
            CheckEvent::Started {
                scenario,
                workers,
                strategy,
                reduction,
            } => eprintln!(
                "checking {scenario} (strategy {strategy}, reduction {reduction}, {workers} worker{})",
                if *workers == 1 { "" } else { "s" }
            ),
            CheckEvent::Progress {
                states,
                transitions,
                rate,
                depth,
                explored_bytes,
            } => eprintln!(
                "  {states} states / {transitions} transitions, depth {depth} \
                 ({rate:.0} states/s, explored set {} KiB)",
                explored_bytes >> 10
            ),
            CheckEvent::ViolationFound(v) => {
                eprintln!("  violation: {} — {}", v.property, v.message)
            }
            CheckEvent::Finished(_) => {}
        }
    });

    let mut trace_file: Option<String> = None;
    if let Some(path) = &opts.trace_out {
        match report.first_violation() {
            Some(v) => {
                if let Err(e) = std::fs::write(path, format!("{}\n", v.trace.to_json())) {
                    eprintln!("cannot write trace to '{path}': {e}");
                    return 2;
                }
                if !opts.quiet {
                    eprintln!("trace written to {path} ({} steps)", v.trace.len());
                }
                trace_file = Some(path.clone());
            }
            None => eprintln!("note: no violation found — '{path}' not written"),
        }
    }

    if opts.json {
        let doc = run_json(&target, &opts, &report, trace_file.as_deref());
        println!("{}", doc.block());
    } else {
        print!("{report}");
        if let Some(entry) = &target.entry {
            match effective_expectation(entry, opts.config.inject_faults) {
                Some(property) if report.violations.is_empty() => eprintln!(
                    "note: expected a {property} violation but none was found \
                     (budget too small, or an over-restrictive strategy?)"
                ),
                None if !report.violations.is_empty() => {
                    eprintln!("note: this scenario was expected to pass")
                }
                None if entry.requires_faults && !opts.config.inject_faults => eprintln!(
                    "note: this bug only manifests under fault injection — re-run with --faults"
                ),
                _ => {}
            }
        }
    }
    // `--expect` implies a registry entry (`resolve_target` checked).
    match (opts.expect, &target.entry) {
        (true, Some(entry)) => expect_exit_code(entry, &report, opts.config.inject_faults),
        _ => 0,
    }
}

/// What `--expect` exits with: 0 if the report meets the registry's
/// prediction, else 3 if the search stopped at a bound with nothing found
/// (inconclusive), else 1.
fn expect_exit_code(entry: &ScenarioEntry, report: &CheckReport, faults: bool) -> i32 {
    if expectation_met(entry, report, faults) {
        return 0;
    }
    let (code, why) = match report.verdict() {
        Verdict::Inconclusive => (3, " (the search was truncated: inconclusive)"),
        Verdict::Pass | Verdict::Fail => (1, ""),
    };
    eprintln!(
        "expectation not met for '{}': {}{why}",
        entry.name,
        match effective_expectation(entry, faults) {
            Some(property) => format!("expected a {property} violation, found none"),
            None => "this scenario was expected to pass".to_string(),
        },
    );
    code
}

/// `expectation_met` as a JSON value: `null` for a workload spec, which the
/// registry predicts nothing about.
fn expectation_met_json(target: &Target, report: &CheckReport, faults: bool) -> Json<'static> {
    let entry = target.entry.as_ref();
    entry.map(|e| expectation_met(e, report, faults)).into()
}

/// The violation the registry predicts under the given fault setting:
/// fault-dependent bugs (BUG-XII) are expected to *pass* while fault
/// injection is off — their violation only exists under the fault plan.
fn effective_expectation(entry: &ScenarioEntry, faults: bool) -> Option<&'static str> {
    match entry.expected_violation {
        Some(property) if !entry.requires_faults || faults => Some(property),
        _ => None,
    }
}

/// True if the report matches what the registry entry predicts: the buggy
/// variants find their expected property, the fixed ones pass (an
/// inconclusive search does not).
fn expectation_met(entry: &ScenarioEntry, report: &CheckReport, faults: bool) -> bool {
    match effective_expectation(entry, faults) {
        Some(property) => report.violations.iter().any(|v| v.property == property),
        None => report.passed(),
    }
}

/// Which engine a run with this many workers is.
fn engine_label(workers: usize) -> &'static str {
    let engine = TraceEngine {
        workers: workers.max(1),
        ..TraceEngine::default()
    };
    engine.label()
}

/// The `nice run --json` report (schema `nice-cli-run-v7`, documented in
/// `bench/README.md`).
fn run_json<'a>(
    target: &'a Target,
    opts: &RunOptions,
    report: &'a CheckReport,
    trace_file: Option<&'a str>,
) -> Json<'a> {
    let mut violated: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.property.as_str())
        .collect();
    violated.sort_unstable();
    violated.dedup();
    let violated = Json::Arr(violated.into_iter().map(Json::from).collect());
    let stats = &report.stats;
    let entry = target.entry.as_ref();
    let app = entry.map_or(target.scenario.app.name(), |e| e.app);
    let kind = entry.map_or("workload", |e| kind_label(e.kind));
    let expected = entry.and_then(|e| effective_expectation(e, opts.config.inject_faults));
    let met = expectation_met_json(target, report, opts.config.inject_faults);
    let first = report.first_violation();
    // Which engine produced the first witness: the trace's own record when
    // there is one, otherwise inferred from the worker count.
    let engine = first.map_or(engine_label(opts.config.workers), |v| {
        v.trace.engine.label()
    });
    let trace = first.map(|v| Json::Compact(Box::new(v.trace.to_value())));
    let secs = stats.duration.as_secs_f64();
    let rate = stats.unique_states as f64 / secs.max(1e-9);
    Json::object([
        ("schema", "nice-cli-run-v7".into()),
        ("scenario", target.spec.as_str().into()),
        ("app", app.into()),
        ("bug", entry.map(|e| e.bug.label()).into()),
        ("kind", kind.into()),
        ("expected_violation", expected.into()),
        ("strategy", opts.config.strategy.name().into()),
        ("reduction", opts.config.reduction.name().into()),
        ("workers", opts.config.workers.into()),
        ("engine", engine.into()),
        ("faults_enabled", opts.config.inject_faults.into()),
        ("injected_faults", stats.faults.to_json()),
        ("outcome", report.outcome.label(stats.truncated).into()),
        ("verdict", report.verdict().name().into()),
        ("passed", report.passed().into()),
        ("expectation_met", met),
        ("violated_properties", violated),
        ("first_trace_len", first.map(|v| v.trace.len()).into()),
        ("trace", trace.into()),
        ("trace_file", trace_file.into()),
        ("states", stats.unique_states.into()),
        ("transitions", stats.transitions.into()),
        ("terminal_states", stats.terminal_states.into()),
        ("pruned_by_strategy", stats.pruned_by_strategy.into()),
        ("pruned_by_por", stats.pruned_by_por.into()),
        ("dedup_hits", stats.dedup_hits.into()),
        ("work_steals", stats.work_steals.into()),
        ("peak_explored_bytes", stats.peak_explored_bytes.into()),
        ("max_depth", stats.max_depth.into()),
        ("duration_secs", Json::fixed(secs, 6)),
        ("states_per_sec", Json::fixed(rate, 1)),
    ])
}

// ---------------------------------------------------------------------------
// nice sweep
// ---------------------------------------------------------------------------

fn cmd_sweep(args: &[String]) -> i32 {
    let opts = match parse_run_options(args, Mode::Sweep) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let target = match resolve_target("sweep", &opts) {
        Ok(target) => target,
        Err(code) => return code,
    };

    let mut cells = Vec::new();
    for strategy in StrategyKind::ALL {
        for reduction in ReductionKind::ALL {
            let config = (opts.config.clone())
                .with_strategy(strategy)
                .with_reduction(reduction);
            let checker = ModelChecker::new(target.scenario.clone(), config);
            let mut session = checker.session();
            if let Some(budget) = opts.time_budget {
                // Each cell gets its own budget, so one pathological
                // strategy×reduction pair cannot starve the rest of the
                // matrix of their share.
                session = session.with_time_budget(budget);
            }
            let report = session.run();
            if !opts.quiet {
                eprintln!(
                    "  {:<9} × {:<4}: {} states, {} transitions, {}",
                    strategy.name(),
                    reduction.name(),
                    report.stats.unique_states,
                    report.stats.transitions,
                    report.verdict().name(),
                );
            }
            cells.push((strategy, reduction, report));
        }
    }

    if opts.json {
        println!("{}", sweep_json(&target, &opts, &cells).block());
    } else {
        println!(
            "swept {} over {} strategy×reduction cells (re-run with --json for the report)",
            target.spec,
            cells.len()
        );
    }
    0
}

/// The `nice sweep --json` report (schema `nice-cli-sweep-v3`, documented
/// in `bench/README.md`).
fn sweep_json<'a>(
    target: &'a Target,
    opts: &RunOptions,
    cells: &[(StrategyKind, ReductionKind, CheckReport)],
) -> Json<'a> {
    let cells = cells.iter().map(|(strategy, reduction, report)| {
        let stats = &report.stats;
        let met = expectation_met_json(target, report, opts.config.inject_faults);
        Json::object([
            ("strategy", strategy.name().into()),
            ("reduction", reduction.name().into()),
            ("outcome", report.outcome.label(stats.truncated).into()),
            ("passed", report.passed().into()),
            ("expectation_met", met),
            ("states", stats.unique_states.into()),
            ("transitions", stats.transitions.into()),
            ("pruned_by_por", stats.pruned_by_por.into()),
            (
                "duration_secs",
                Json::fixed(stats.duration.as_secs_f64(), 6),
            ),
        ])
    });
    Json::object([
        ("schema", "nice-cli-sweep-v3".into()),
        ("scenario", target.spec.as_str().into()),
        ("matrix", "strategies-x-reductions".into()),
        ("workers", opts.config.workers.into()),
        ("engine", engine_label(opts.config.workers).into()),
        ("faults_enabled", opts.config.inject_faults.into()),
        ("cells", Json::Arr(cells.collect())),
    ])
}

// ---------------------------------------------------------------------------
// nice replay / minimize / bisect / timeline
// ---------------------------------------------------------------------------

/// Loads a `nice-trace-v1` file and builds the checker for its scenario —
/// resolved through the registry by the trace's own scenario name, with
/// fault injection matching the recorded engine (so fault transitions in
/// BUG-XII traces replay).
fn load_trace(path: &str) -> Result<(Trace, ModelChecker), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let trace = Trace::from_json(&text).map_err(|e| format!("'{path}': {e}"))?;
    let entry = find_scenario(&trace.scenario).ok_or_else(|| {
        format!(
            "trace names scenario '{}', which the registry does not know \
             (`nice list` enumerates them)",
            trace.scenario
        )
    })?;
    let config = CheckerConfig::default()
        .with_strategy(trace.engine.strategy)
        .with_reduction(trace.engine.reduction)
        .with_fault_injection(trace.engine.faults);
    Ok((trace, ModelChecker::new(entry.build(), config)))
}

/// Parses `<trace.json> [flags...]`: one positional path plus the given
/// boolean flags and valued flags. Returns (path, set flags, flag values).
#[allow(clippy::type_complexity)]
fn parse_trace_args(
    args: &[String],
    bool_flags: &[&str],
    value_flags: &[&str],
) -> Result<(String, Vec<String>, Vec<(String, String)>), String> {
    let mut path: Option<String> = None;
    let mut set = Vec::new();
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if bool_flags.contains(&arg) {
            set.push(arg.to_string());
            i += 1;
        } else if value_flags.contains(&arg) {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{arg} needs a value"))?;
            values.push((arg.to_string(), v.clone()));
            i += 2;
        } else if arg.starts_with('-') {
            return Err(format!("unknown option '{arg}'"));
        } else if path.replace(arg.to_string()).is_some() {
            return Err("more than one trace file given".into());
        } else {
            i += 1;
        }
    }
    let path = path.ok_or_else(|| "a trace file is required".to_string())?;
    Ok((path, set, values))
}

fn cmd_replay(args: &[String]) -> i32 {
    let (path, flags, _) = match parse_trace_args(args, &["--expect-violation"], &[]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let expect_violation = flags.iter().any(|f| f == "--expect-violation");
    let (trace, checker) = match load_trace(&path) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let report = checker.replay(&trace);
    print!("{report}");
    if expect_violation {
        if report.completed() && report.reproduces(&trace) {
            0
        } else {
            eprintln!(
                "replay did not reproduce the recorded violation{}",
                trace
                    .property
                    .as_deref()
                    .map(|p| format!(" of {p}"))
                    .unwrap_or_default()
            );
            1
        }
    } else if report.completed() {
        0
    } else {
        1
    }
}

fn cmd_minimize(args: &[String]) -> i32 {
    let (path, _, values) = match parse_trace_args(args, &[], &["--out"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let out = values.iter().find(|(f, _)| f == "--out").map(|(_, v)| v);
    let (trace, checker) = match load_trace(&path) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let report = match checker.minimize(&trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // Summary to stderr; the minimized trace (a valid nice-trace-v1
    // document) to stdout or --out, so pipelines stay clean.
    eprint!("{report}");
    let doc = report.minimized.to_json();
    match out {
        Some(file) => {
            if let Err(e) = std::fs::write(file, format!("{doc}\n")) {
                eprintln!("cannot write minimized trace to '{file}': {e}");
                return 2;
            }
            eprintln!("minimized trace written to {file}");
        }
        None => println!("{doc}"),
    }
    0
}

fn cmd_bisect(args: &[String]) -> i32 {
    let (path, _, values) = match parse_trace_args(args, &[], &["--max-explored"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let max_explored = match values.iter().find(|(f, _)| f == "--max-explored") {
        Some((_, v)) => match parse_number(v, "--max-explored") {
            Ok(n) => n,
            Err(e) => return usage_error(&e),
        },
        None => 2_000_000,
    };
    let (trace, checker) = match load_trace(&path) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match checker.bisect(&trace, max_explored) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_timeline(args: &[String]) -> i32 {
    let (path, _, _) = match parse_trace_args(args, &[], &[]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let (trace, checker) = match load_trace(&path) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match render_timeline(&checker, &trace) {
        Ok(timeline) => {
            print!("{timeline}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------------
// nice validate-json
// ---------------------------------------------------------------------------

/// What `input` is a valid instance of: `"JSON"`, or [`TRACE_SCHEMA`] for a
/// document that says so in its *top-level* `"schema"` member (a run report
/// embeds a whole trace under `"trace"`; that does not count) and then has
/// to read as a typed trace.
fn check_document(input: &str) -> Result<&'static str, String> {
    let doc = Json::parse(input)?;
    if doc.str("schema") == Ok(TRACE_SCHEMA) {
        Trace::from_value(&doc).map(|_| TRACE_SCHEMA)
    } else {
        Ok("JSON")
    }
}

fn cmd_validate_json() -> i32 {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("cannot read stdin: {e}");
        return 2;
    }
    match check_document(&input) {
        Ok(what) => {
            eprintln!("valid {what} ({} bytes)", input.len());
            0
        }
        Err(message) => {
            eprintln!("{message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` and `submit` describe a check with the same seven flags: same
    /// defaults, same `CheckerConfig` for a good value, same words for a bad
    /// one.
    #[test]
    fn run_and_submit_parse_the_check_options_alike() {
        let both = |flags: &[&str]| {
            let args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            let parse =
                |mode| parse_run_options(&args, mode).map(|opts| (opts.config, opts.time_budget));
            let run = parse(Mode::Run);
            assert_eq!(run, parse(Mode::Submit), "{flags:?}");
            run
        };
        let defaults = both(&[]).expect("no flags is a check");
        let budgeted = CheckerConfig::default().with_max_transitions(500_000);
        assert_eq!(defaults, (budgeted, None));
        for (flag, good, bad) in [
            ("--strategy", "unusual", "bfs"),
            ("--reduction", "por", "tso"),
            ("--max-transitions", "0", "-1"),
            ("--max-depth", "9", "deep"),
            ("--time-budget-ms", "50", "1s"),
        ] {
            assert_ne!(both(&[flag, good]).expect(flag), defaults, "{flag}");
            let refused = both(&[flag, bad]).expect_err(flag);
            assert!(refused.contains(&format!("'{bad}'")), "{refused}");
            assert_eq!(both(&[flag]), Err(format!("{flag} needs a value")));
        }
        for flag in ["--faults", "--all-violations"] {
            assert_ne!(both(&[flag]).expect(flag), defaults, "{flag}");
        }
        // `--workers` is run's and sweep's alone, and capped before a
        // thread exists; submit does not know it.
        for (value, parsed) in [
            ("256", Ok(256)),
            ("257", Err("--workers must be at most 256")),
            ("100000", Err("--workers must be at most 256")),
        ] {
            let args = ["--workers".to_string(), value.to_string()];
            for mode in [Mode::Run, Mode::Sweep] {
                let workers = parse_run_options(&args, mode).map(|opts| opts.config.workers);
                assert_eq!(workers, parsed.map_err(String::from), "--workers {value}");
            }
            let submit = parse_run_options(&args, Mode::Submit).err();
            assert_eq!(submit.as_deref(), Some("unknown option '--workers'"));
        }
        // A zero budget is no deadline, as `--max-transitions 0` is no
        // budget, and the job frame says so with a 0 too.
        assert_eq!(both(&["--time-budget-ms", "0"]), Ok(defaults.clone()));
        let args = ["--time-budget-ms".to_string(), "0".to_string()];
        let opts = parse_run_options(&args, Mode::Submit).expect("a check");
        assert_eq!(opts.job("chain:3:1").time_budget_ms, 0);
        // The retired explored-set flags and `--dist` are unknown to every
        // command (a usage error, exit 2), with or without a value.
        for flags in [
            &["--explored", "tiered"][..],
            &["--explored", "mem"],
            &["--mem-limit", "1"],
            &["--dist", "2"],
        ] {
            let unknown = format!("unknown option '{}'", flags[0]);
            assert_eq!(both(flags), Err(unknown.clone()), "{flags:?}");
            let args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            let sweep = parse_run_options(&args, Mode::Sweep).err();
            assert_eq!(sweep, Some(unknown), "{flags:?}");
        }
    }

    /// `--workers 0` is a usage error (exit 2) wherever `--workers` is an
    /// option, as it is for `serve`; `--dist` exits 2 too.
    #[test]
    fn zero_workers_and_dist_are_usage_errors() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        for mode in [Mode::Run, Mode::Sweep] {
            let refused = parse_run_options(&args("chain:3:1 --workers 0"), mode).err();
            assert_eq!(refused.as_deref(), Some("--workers must be at least 1"));
        }
        assert_eq!(cmd_run(&args("chain:3:1 --workers 0 --quiet")), 2);
        assert_eq!(cmd_sweep(&args("chain:3:1 --workers 0 --quiet")), 2);
        assert_eq!(cmd_run(&args("chain:5:2 --dist 2 --quiet")), 2);
    }

    /// `run --time-budget-ms 0` sets no deadline: the search is exhausted
    /// and passes, where an immediate deadline would stop it at once with
    /// an inconclusive verdict (exit 3).
    #[test]
    fn a_zero_time_budget_runs_the_search_to_its_end() {
        let args: Vec<String> =
            "bug-ii-fixed --max-transitions 0 --time-budget-ms 0 --expect --quiet"
                .split_whitespace()
                .map(String::from)
                .collect();
        assert_eq!(cmd_run(&args), 0);
    }

    /// A search a bound stopped before it found anything is inconclusive,
    /// never a PASS, and `--expect` says so with exit code 3.
    #[test]
    fn a_truncated_search_is_inconclusive_and_expect_exits_3() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let check = |line: &str| {
            let opts = parse_run_options(&args(line), Mode::Run).expect("a check");
            let Ok(target) = resolve_target("run", &opts) else {
                panic!("{line}: a scenario")
            };
            let report = ModelChecker::new(target.scenario.clone(), opts.config.clone()).run();
            let doc = run_json(&target, &opts, &report, None);
            let verdict = doc.str("verdict").expect("a verdict").to_string();
            let flags = (doc.bool("passed"), doc.bool("expectation_met"));
            (report.to_string(), verdict, flags)
        };
        // The exhaustive search takes 131 transitions.
        let budgeted = "bug-ii-fixed --max-transitions 50 --expect --quiet";
        let (text, verdict, flags) = check(budgeted);
        assert_eq!(verdict, "inconclusive");
        assert_eq!(flags, (Ok(false), Ok(false)), "passed, expectation_met");
        assert!(text.starts_with("NO VIOLATION FOUND (truncated: transition budget) |"));
        assert_eq!(cmd_run(&args(budgeted)), 3);

        let (text, verdict, _) = check("ping:4 --max-depth 10");
        assert_eq!(verdict, "inconclusive");
        assert!(text.starts_with("NO VIOLATION FOUND (truncated: depth bound) |"));

        let exhausted = "bug-ii-fixed --max-transitions 0 --expect --quiet";
        let (text, verdict, flags) = check(exhausted);
        assert_eq!(verdict, "pass");
        assert_eq!(flags, (Ok(true), Ok(true)), "passed, expectation_met");
        assert!(text.starts_with("PASS |"));
        assert_eq!(cmd_run(&args(exhausted)), 0);
    }

    #[test]
    fn trace_validation_requires_the_typed_schema() {
        let trace = Trace::from_transitions("demo", TraceEngine::default(), []);
        assert_eq!(check_document(&trace.to_json()), Ok(TRACE_SCHEMA));
        // Well-formed JSON that claims to be a trace has to be one, wherever
        // an editor left the "schema" member and however it spaced it.
        assert!(check_document(r#"{"schema": "nice-trace-v1"}"#).is_err());
        let reordered = r#"{ "steps": [{"kind": "warp"}], "scenario": "demo",
            "schema": "nice-trace-v1" }"#;
        assert!(check_document(reordered).is_err());
        // Anything else only has to be JSON; an embedded trace is not a claim.
        assert_eq!(check_document("{}"), Ok("JSON"));
        let report = format!(
            r#"{{"schema": "nice-cli-run-v7", "trace": {}}}"#,
            trace.to_json()
        );
        assert_eq!(check_document(&report), Ok("JSON"));
        assert!(check_document("{\"schema\": \"nice-trace-v1\",}").is_err());
    }
}
