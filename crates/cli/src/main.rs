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
//!   `nice-cli-run-v5`, documented in `bench/README.md`), and with
//!   `--trace-out FILE` writes that trace as a standalone `nice-trace-v1`
//!   file.
//! * `nice sweep <scenario>` — the strategies × reductions matrix on one
//!   scenario, as a JSON report in the same hand-rolled style as the bench
//!   gate's `BENCH_ci.json` (schema `nice-cli-sweep-v3`).
//! * `nice replay <trace.json>` — re-executes a saved trace step by step on
//!   the deterministic engine, checking every property at every step.
//! * `nice minimize <trace.json>` — ddmin delta debugging: shrinks the
//!   trace while it still violates the same property under replay.
//! * `nice bisect <trace.json>` — reports the first transition after which
//!   the violation becomes unavoidable.
//! * `nice timeline <trace.json>` — renders the trace as an ASCII timeline,
//!   one lane per switch/host/controller.
//! * `nice validate-json` — reads stdin and exits non-zero unless it is one
//!   well-formed JSON value (what CI pipes `--json` output through); input
//!   self-identifying as `nice-trace-v1` is additionally parsed as a typed
//!   trace.
//!
//! Every emitted JSON document is self-checked with the same validator
//! before it is printed, so the CLI can never ship what `validate-json`
//! would reject.

mod serve;

use nice_apps::scenarios::{find_scenario, registry, ScenarioEntry, ScenarioKind};
use nice_bench::jsonv::{escape_json, validate_json, validate_trace_json};
use nice_mc::{
    render_timeline, CheckEvent, CheckReport, CheckerConfig, ExploredMode, ModelChecker,
    ReductionKind, Scenario, StrategyKind, Trace, TRACE_SCHEMA,
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

RUN / SWEEP OPTIONS:
  --strategy <pkt-seq|no-delay|flow-ir|unusual>   search strategy (run only; default pkt-seq)
  --reduction <none|por>                          partial-order reduction (run only; default none)
  --workers <N>                                   search worker threads (default 1)
  --explored <mem|tiered|bitstate>                explored-set storage: exact in-memory (default),
                                                  exact with cold-shard spill to disk, or lossy
                                                  SPIN-style bitstate hashing (PASS not exhaustive)
  --mem-limit <BYTES>                             explored-set memory budget (0 = mode default:
                                                  tiered 512 MiB, bitstate 64 MiB; mem ignores it)
  --dist <N>                                      run only: distribute the search over N worker
                                                  processes (fingerprint-sharded explored set)
  --max-transitions <N>                           transition budget (default 500000; 0 = unlimited)
  --max-depth <N>                                 depth bound (default 400)
  --time-budget-ms <N>                            interrupt the search (each sweep cell) after N wall-clock ms
  --progress-every <N>                            Progress event cadence in transitions (run only; default 8192)
  --faults                                        enable the scenario's fault plan (switch crashes,
                                                  channel faults, failover — see README \"Fault injection\")
  --all-violations                                keep searching after the first violation
  --expect                                        exit non-zero unless the registry expectation holds
                                                  (bug found its property / fixed variant passed; run
                                                  only, registry scenarios only)
  --matrix strategies-x-reductions                sweep matrix selector (sweep only; the default)
  --json                                          emit machine-readable JSON on stdout
  --quiet                                         suppress streamed progress on stderr
  --trace-out <FILE>                              write the first violation's trace as a
                                                  nice-trace-v1 JSON file (run only)

SERVE / SUBMIT (the distributed checking service — see README \"Serving checks\"):
  serve      bind a Unix socket, spawn a pool of nice-dist-worker processes
             sharding the fingerprint space, and accept check jobs from any
             number of clients (fair round-robin across connections);
             --max-jobs N exits after N jobs (CI smoke)
  submit     send one job to a running server (scenario name or a spec like
             ping:2 / chain:5:2 / chain-faults:3:1) and stream its progress;
             accepts --strategy/--reduction/--faults/--all-violations/
             --max-transitions/--max-depth/--time-budget-ms/--expect/--quiet/
             --explored/--mem-limit (each worker shard spills independently)

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

/// Which subcommand is parsing: `run` rejects sweep-only flags and vice
/// versa, so no option is ever silently ignored.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Sweep,
}

struct RunOptions {
    scenario: Option<String>,
    strategy: StrategyKind,
    reduction: ReductionKind,
    workers: usize,
    explored: ExploredMode,
    mem_limit: u64,
    /// Distributed mode: shard the search over this many worker
    /// *processes* (0 = off, the in-process engine).
    dist: usize,
    max_transitions: u64,
    max_depth: usize,
    time_budget: Option<Duration>,
    progress_every: u64,
    faults: bool,
    all_violations: bool,
    expect: bool,
    json: bool,
    quiet: bool,
    trace_out: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scenario: None,
            strategy: StrategyKind::FullDfs,
            reduction: ReductionKind::None,
            workers: 1,
            explored: ExploredMode::default(),
            mem_limit: 0,
            dist: 0,
            max_transitions: 500_000,
            max_depth: 400,
            time_budget: None,
            progress_every: nice_mc::session::DEFAULT_PROGRESS_EVERY,
            faults: false,
            all_violations: false,
            expect: false,
            json: false,
            quiet: false,
            trace_out: None,
        }
    }
}

fn parse_run_options(args: &[String], mode: Mode) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--strategy" => {
                if mode == Mode::Sweep {
                    return Err("--strategy is run-only; sweep covers every strategy".into());
                }
                let v = take_value(i)?;
                opts.strategy = StrategyKind::parse(v).ok_or_else(|| {
                    format!("unknown strategy '{v}' (pkt-seq, no-delay, flow-ir, unusual)")
                })?;
                i += 2;
            }
            "--reduction" => {
                if mode == Mode::Sweep {
                    return Err("--reduction is run-only; sweep covers every reduction".into());
                }
                let v = take_value(i)?;
                opts.reduction = ReductionKind::parse(v)
                    .ok_or_else(|| format!("unknown reduction '{v}' (none, por)"))?;
                i += 2;
            }
            "--workers" => {
                opts.workers = parse_number(take_value(i)?, "--workers")? as usize;
                i += 2;
            }
            "--explored" => {
                let v = take_value(i)?;
                opts.explored = ExploredMode::parse(v).ok_or_else(|| {
                    format!("unknown explored mode '{v}' (mem, tiered, bitstate)")
                })?;
                i += 2;
            }
            "--mem-limit" => {
                opts.mem_limit = parse_number(take_value(i)?, "--mem-limit")?;
                i += 2;
            }
            "--dist" => {
                if mode == Mode::Sweep {
                    return Err("--dist is run-only (sweep cells stay in-process)".into());
                }
                opts.dist = parse_number(take_value(i)?, "--dist")? as usize;
                i += 2;
            }
            "--max-transitions" => {
                opts.max_transitions = parse_number(take_value(i)?, "--max-transitions")?;
                i += 2;
            }
            "--max-depth" => {
                opts.max_depth = parse_number(take_value(i)?, "--max-depth")? as usize;
                i += 2;
            }
            "--time-budget-ms" => {
                let ms = parse_number(take_value(i)?, "--time-budget-ms")?;
                opts.time_budget = Some(Duration::from_millis(ms));
                i += 2;
            }
            "--progress-every" => {
                if mode == Mode::Sweep {
                    return Err("--progress-every is run-only (sweep streams no progress)".into());
                }
                opts.progress_every = parse_number(take_value(i)?, "--progress-every")?;
                i += 2;
            }
            "--matrix" => {
                if mode == Mode::Run {
                    return Err("--matrix is sweep-only".into());
                }
                let v = take_value(i)?;
                // One matrix is supported today; accept both spellings of ×.
                if v != "strategies-x-reductions" && v != "strategies×reductions" {
                    return Err(format!("unknown matrix '{v}' (strategies-x-reductions)"));
                }
                i += 2;
            }
            "--trace-out" => {
                if mode == Mode::Sweep {
                    return Err("--trace-out is run-only (sweep cells race for the witness)".into());
                }
                opts.trace_out = Some(take_value(i)?.clone());
                i += 2;
            }
            "--faults" => {
                opts.faults = true;
                i += 1;
            }
            "--all-violations" => {
                opts.all_violations = true;
                i += 1;
            }
            "--expect" => {
                if mode == Mode::Sweep {
                    return Err(
                        "--expect is run-only (heuristic sweep cells legitimately miss bugs)"
                            .into(),
                    );
                }
                opts.expect = true;
                i += 1;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--quiet" => {
                opts.quiet = true;
                i += 1;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            name => {
                if opts.scenario.replace(name.to_string()).is_some() {
                    return Err("more than one scenario name given".into());
                }
                i += 1;
            }
        }
    }
    Ok(opts)
}

fn parse_number(value: &str, flag: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a number"))
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n\n{USAGE}");
    2
}

fn config_from(
    opts: &RunOptions,
    strategy: StrategyKind,
    reduction: ReductionKind,
) -> CheckerConfig {
    CheckerConfig::default()
        .with_strategy(strategy)
        .with_reduction(reduction)
        .with_workers(opts.workers)
        .with_explored(opts.explored)
        .with_mem_limit(opts.mem_limit)
        .with_max_transitions(opts.max_transitions)
        .with_stop_at_first(!opts.all_violations)
        .with_max_depth(opts.max_depth)
        .with_fault_injection(opts.faults)
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
        let doc = render_list_json(&entries);
        validate_json(&doc).expect("nice list emitted malformed JSON");
        println!("{doc}");
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
            match e.kind {
                ScenarioKind::Buggy => "bug",
                ScenarioKind::Fixed => "fixed",
            },
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

/// The machine-readable registry dump (schema `nice-cli-list-v1`,
/// documented in `bench/README.md`): what CI and scripting consume instead
/// of scraping the human table.
fn render_list_json(entries: &[ScenarioEntry]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"nice-cli-list-v1\",\n  \"count\": {},\n  \"scenarios\": [\n",
        entries.len()
    );
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"app\": \"{}\", \"bug\": \"{}\", \"kind\": \"{}\", \
             \"expected_violation\": {}, \"requires_faults\": {}}}{}\n",
            escape_json(&e.name),
            escape_json(e.app),
            e.bug.label(),
            match e.kind {
                ScenarioKind::Buggy => "bug",
                ScenarioKind::Fixed => "fixed",
            },
            e.expected_violation
                .map_or("null".to_string(), |p| format!("\"{}\"", escape_json(p))),
            e.requires_faults,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}

// ---------------------------------------------------------------------------
// nice run
// ---------------------------------------------------------------------------

/// What `run` / `sweep` check: a scenario resolved from its spec the same
/// way `submit`, `serve` and the dist workers resolve it, plus the registry
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

    if opts.dist > 0 && opts.workers > 1 {
        return usage_error(
            "--dist and --workers are mutually exclusive \
             (each dist worker process runs the sequential engine over its shard)",
        );
    }
    if opts.dist > 0 {
        let spec = nice_dist::JobSpec {
            scenario: target.spec.clone(),
            strategy: opts.strategy,
            reduction: opts.reduction,
            inject_faults: opts.faults,
            stop_at_first_violation: !opts.all_violations,
            max_transitions: opts.max_transitions,
            max_depth: opts.max_depth,
            time_budget_ms: opts.time_budget.map_or(0, |d| d.as_millis() as u64),
            explored: opts.explored,
            mem_limit: opts.mem_limit,
        };
        let report = match serve::run_distributed(&spec, opts.dist, opts.quiet) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        return finish_run(&target, &opts, &report);
    }

    let config = config_from(&opts, opts.strategy, opts.reduction);
    let checker = ModelChecker::new(target.scenario.clone(), config);
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

    finish_run(&target, &opts, &report)
}

/// The shared tail of `nice run`, for both the in-process engines and
/// `--dist`: write `--trace-out`, print the report (or its JSON form), and
/// apply `--expect`.
fn finish_run(target: &Target, opts: &RunOptions, report: &CheckReport) -> i32 {
    let mut trace_file: Option<String> = None;
    if let Some(path) = &opts.trace_out {
        match report.first_violation() {
            Some(v) => {
                let doc = v.trace.to_json();
                validate_trace_json(&doc).expect("nice run emitted a malformed trace");
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
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
        let json = render_run_json(target, opts, report, trace_file.as_deref());
        validate_json(&json).expect("nice run emitted malformed JSON");
        println!("{json}");
    } else {
        print!("{report}");
        if let Some(entry) = &target.entry {
            match effective_expectation(entry, opts.faults) {
                Some(property) if report.passed() => eprintln!(
                    "note: expected a {property} violation but none was found \
                     (budget too small, or an over-restrictive strategy?)"
                ),
                None if !report.passed() => {
                    eprintln!("note: this scenario was expected to pass")
                }
                None if entry.requires_faults && !opts.faults => eprintln!(
                    "note: this bug only manifests under fault injection — re-run with --faults"
                ),
                _ => {}
            }
        }
    }
    // `--expect` implies a registry entry (`resolve_target` checked).
    if let (true, Some(entry)) = (opts.expect, &target.entry) {
        if !expectation_met(entry, report, opts.faults) {
            eprintln!(
                "expectation not met for '{}': {}",
                entry.name,
                match effective_expectation(entry, opts.faults) {
                    Some(property) => format!("expected a {property} violation, found none"),
                    None => "this scenario was expected to pass".to_string(),
                }
            );
            return 1;
        }
    }
    0
}

/// A JSON string literal, or `null`.
fn json_opt_str(value: Option<&str>) -> String {
    value.map_or("null".to_string(), |v| format!("\"{}\"", escape_json(v)))
}

/// `expectation_met` as a JSON value: `null` for a workload spec, which the
/// registry predicts nothing about.
fn expectation_met_json(target: &Target, report: &CheckReport, faults: bool) -> String {
    target.entry.as_ref().map_or("null".to_string(), |entry| {
        expectation_met(entry, report, faults).to_string()
    })
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
/// variants find their expected property, the fixed ones pass.
fn expectation_met(entry: &ScenarioEntry, report: &CheckReport, faults: bool) -> bool {
    match effective_expectation(entry, faults) {
        Some(property) => report.violations.iter().any(|v| v.property == property),
        None => report.passed(),
    }
}

fn render_run_json(
    target: &Target,
    opts: &RunOptions,
    report: &CheckReport,
    trace_file: Option<&str>,
) -> String {
    let mut violated: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.property.as_str())
        .collect();
    violated.sort_unstable();
    violated.dedup();
    let violated = violated
        .iter()
        .map(|p| format!("\"{}\"", escape_json(p)))
        .collect::<Vec<_>>()
        .join(", ");
    let stats = &report.stats;
    let injected = stats
        .faults
        .labeled()
        .iter()
        .map(|(label, count)| format!("\"{label}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Which engine produced the first witness: the trace's own record when
    // there is one, otherwise inferred from the worker count.
    let engine = report
        .first_violation()
        .map(|v| v.trace.engine.label())
        .unwrap_or(if opts.workers.max(1) == 1 {
            "sequential"
        } else {
            "parallel"
        });
    let entry = target.entry.as_ref();
    format!(
        "{{\n  \"schema\": \"nice-cli-run-v5\",\n  \"scenario\": \"{}\",\n  \"app\": \"{}\",\n  \
         \"bug\": {},\n  \"kind\": \"{}\",\n  \"expected_violation\": {},\n  \
         \"strategy\": \"{}\",\n  \"reduction\": \"{}\",\n  \"workers\": {},\n  \"engine\": \"{}\",\n  \
         \"explored\": \"{}\",\n  \"lossy\": {},\n  \
         \"faults_enabled\": {},\n  \"injected_faults\": {{{}}},\n  \
         \"outcome\": \"{}\",\n  \"passed\": {},\n  \"expectation_met\": {},\n  \
         \"violated_properties\": [{}],\n  \"first_trace_len\": {},\n  \
         \"trace\": {},\n  \"trace_file\": {},\n  \
         \"states\": {},\n  \"transitions\": {},\n  \"terminal_states\": {},\n  \
         \"pruned_by_strategy\": {},\n  \"pruned_by_por\": {},\n  \"dedup_hits\": {},\n  \
         \"work_steals\": {},\n  \"peak_explored_bytes\": {},\n  \"spilled_shards\": {},\n  \
         \"filter_hits\": {},\n  \"disk_probes\": {},\n  \
         \"max_depth\": {},\n  \"duration_secs\": {:.6},\n  \"states_per_sec\": {:.1}\n}}",
        escape_json(&target.spec),
        escape_json(entry.map_or(target.scenario.app.name(), |e| e.app)),
        json_opt_str(entry.map(|e| e.bug.label())),
        match entry.map(|e| e.kind) {
            Some(ScenarioKind::Buggy) => "bug",
            Some(ScenarioKind::Fixed) => "fixed",
            None => "workload",
        },
        json_opt_str(entry.and_then(|e| effective_expectation(e, opts.faults))),
        opts.strategy.name(),
        opts.reduction.name(),
        opts.workers.max(1),
        engine,
        opts.explored.name(),
        report.lossy,
        opts.faults,
        injected,
        report.outcome.label(stats.truncated),
        report.passed(),
        expectation_met_json(target, report, opts.faults),
        violated,
        report
            .first_violation()
            .map_or("null".to_string(), |v| v.trace.len().to_string()),
        report
            .first_violation()
            .map_or("null".to_string(), |v| v.trace.to_json()),
        json_opt_str(trace_file),
        stats.unique_states,
        stats.transitions,
        stats.terminal_states,
        stats.pruned_by_strategy,
        stats.pruned_by_por,
        stats.dedup_hits,
        stats.work_steals,
        stats.peak_explored_bytes,
        stats.spilled_shards,
        stats.filter_hits,
        stats.disk_probes,
        stats.max_depth,
        stats.duration.as_secs_f64(),
        stats.unique_states as f64 / stats.duration.as_secs_f64().max(1e-9),
    )
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
            let config = config_from(&opts, strategy, reduction);
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
                    if report.passed() { "pass" } else { "violation" },
                );
            }
            cells.push((strategy, reduction, report));
        }
    }

    let json = render_sweep_json(&target, &opts, &cells);
    if opts.json {
        validate_json(&json).expect("nice sweep emitted malformed JSON");
        println!("{json}");
    } else {
        println!(
            "swept {} over {} strategy×reduction cells (re-run with --json for the report)",
            target.spec,
            cells.len()
        );
    }
    0
}

fn render_sweep_json(
    target: &Target,
    opts: &RunOptions,
    cells: &[(StrategyKind, ReductionKind, CheckReport)],
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"nice-cli-sweep-v3\",\n  \"scenario\": \"{}\",\n  \
         \"matrix\": \"strategies-x-reductions\",\n  \"workers\": {},\n  \"engine\": \"{}\",\n  \
         \"faults_enabled\": {},\n  \"cells\": [\n",
        escape_json(&target.spec),
        opts.workers.max(1),
        if opts.workers.max(1) == 1 {
            "sequential"
        } else {
            "parallel"
        },
        opts.faults,
    );
    for (i, (strategy, reduction, report)) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"reduction\": \"{}\", \"outcome\": \"{}\", \
             \"passed\": {}, \"expectation_met\": {}, \"states\": {}, \"transitions\": {}, \
             \"pruned_by_por\": {}, \"duration_secs\": {:.6}}}{}\n",
            strategy.name(),
            reduction.name(),
            report.outcome.label(report.stats.truncated),
            report.passed(),
            expectation_met_json(target, report, opts.faults),
            report.stats.unique_states,
            report.stats.transitions,
            report.stats.pruned_by_por,
            report.stats.duration.as_secs_f64(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
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
    validate_trace_json(&doc).expect("nice minimize emitted a malformed trace");
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

fn cmd_validate_json() -> i32 {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("cannot read stdin: {e}");
        return 2;
    }
    // Trace documents get the stricter typed validation: well-formed JSON
    // that also parses as a `nice-trace-v1` trace. Only the *top-level*
    // schema key counts — a run-v3 report embeds a whole trace document,
    // so a substring match anywhere would mis-route it here. Trace files
    // are canonical compact JSON, so the schema key is the first key with
    // no inner whitespace; tolerate leading whitespace and pretty spacing
    // for hand-edited files.
    let head: String = input
        .trim_start()
        .chars()
        .take(64)
        .filter(|c| !c.is_whitespace())
        .collect();
    let is_trace = head.starts_with(&format!("{{\"schema\":\"{TRACE_SCHEMA}\""));
    let result = if is_trace {
        validate_trace_json(&input)
    } else {
        validate_json(&input)
    };
    match result {
        Ok(()) => {
            eprintln!(
                "valid {} ({} bytes)",
                if is_trace { TRACE_SCHEMA } else { "JSON" },
                input.len()
            );
            0
        }
        Err(message) => {
            eprintln!("{message}");
            1
        }
    }
}
