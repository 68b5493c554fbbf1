//! `probe`: the per-layer half of the benchmark, run by `bench` for
//! `--trace 1`.
//!
//! It measures the program's layers from outside, by timing calls into
//! their public functions, and re-implements nothing the program could be
//! asked to trace later. Three instruments: the step probe (`step.rs`), the
//! shard probe (`shard.rs`) and the legs through the `nice` binary
//! (`legs.rs`). A layer the workload does not reach reads 0.
//!
//! Unlike `bench`, this binary reaches below the binding surface
//! (`SystemState`, `enabled_transitions`, `execute`, `ShardedSearch`,
//! `write_frame`); a change that reshapes those breaks the probe, never the
//! end-to-end numbers.
//!
//! Prints one JSON object: `{"metrics": {name: value}, "checks": [{"what",
//! "ok", "why"}], "service_pids": [..]}` and writes the spans to
//! `benchmark/out/trace-<workload>.json`.

mod legs;
mod shard;
mod step;

use nice_apps::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::{ping_workload, resolve};
use nice_benchmark::expected::{Expect, Expected};
use nice_benchmark::json::Value;
use nice_benchmark::serve::Server;
use nice_benchmark::spec::{Spec, EXECUTE_KINDS};
use nice_benchmark::stats::median;
use nice_benchmark::workloads::{
    configure, exhaustive, hunt_config, shuffled_cells, violated, BUGHUNT, SERVED, WORKERS,
};
use nice_benchmark::{bin_dir, calibrate, procfs, RunArgs, OUT_DIR};
use nice_mc::{
    CheckReport, CheckerConfig, ModelChecker, ReductionKind, Scenario, StrategyKind, Trace,
};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;
use step::{Aggregate, Counts, Off, On, Span};

/// Witness traces the codec and replay timings average over.
const WITNESSES: usize = 8;
/// Round trips through `nice serve` per served leg.
const SERVED_RUNS: usize = 3;
/// Round trips of the smallest job there is, for the fixed overhead.
const OVERHEAD_RUNS: usize = 5;

/// What the probe hands back to `bench`.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64)>,
    checks: Vec<Value>,
    /// The `nice serve` processes started on the way, for `bench` to see
    /// off.
    service_pids: Vec<u32>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        ));
    }

    fn check(&mut self, what: impl Into<String>, outcome: Result<(), String>) {
        let what = what.into();
        if let Err(why) = &outcome {
            eprintln!("probe: {what}: {why}");
        }
        self.checks.push(Value::obj([
            ("what", Value::from(what)),
            ("ok", Value::Bool(outcome.is_ok())),
            ("why", outcome.err().map_or(Value::Null, Value::Str)),
        ]));
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn timed<R>(call: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = call();
    (result, started.elapsed().as_secs_f64())
}

/// Times single-threaded calls in reference seconds (see `calibrate`): the
/// ratios between engine and probe compare calls made seconds apart, long
/// enough for the clock to change under them.
struct Paced(calibrate::Slice);

impl Paced {
    fn start() -> Paced {
        Paced(calibrate::slice(true))
    }

    /// Returns the call's result, its wall seconds and its reference
    /// seconds.
    fn timed<R>(&mut self, call: impl FnOnce() -> R) -> (R, f64, f64) {
        let (result, wall) = timed(call);
        let next = calibrate::slice(true);
        let scale = calibrate::scale(self.0, next);
        self.0 = next;
        (result, wall, wall * scale)
    }
}

// ---------------------------------------------------------------------------
// The step probe, in rounds
// ---------------------------------------------------------------------------

/// One search the step probe follows: how to build the scenario, the
/// workload's own configuration, and the sequential PKT-SEQ search without
/// reduction that the probe can mirror.
struct Search {
    what: String,
    build: Box<dyn Fn() -> Scenario>,
    own: CheckerConfig,
    reference: CheckerConfig,
}

impl Search {
    fn new(what: String, build: Box<dyn Fn() -> Scenario>, own: CheckerConfig) -> Search {
        let reference = own
            .clone()
            .with_workers(1)
            .with_reduction(ReductionKind::None);
        Search {
            what,
            build,
            own,
            reference,
        }
    }

    /// True if the workload's own configuration is not the one the probe
    /// mirrors (partial-order reduction, worker threads).
    fn differs(&self) -> bool {
        self.own.workers != 1 || self.own.reduction != ReductionKind::None
    }
}

/// Everything the rounds accumulate.
#[derive(Default)]
struct Rounds {
    /// Per round, summed over the searches: reference seconds of the
    /// reference engine, of the workload's own engine configuration where
    /// that is single-threaded too, and of the probe without and with spans.
    reference_s: Vec<f64>,
    own_s: Vec<f64>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Per round: wall and CPU seconds of the own configuration where it is
    /// multi-threaded, and wall seconds of the reference engine run right
    /// before it. Both cores are busy, so the wall clock is the steady one.
    threaded_wall_s: Vec<f64>,
    threaded_cpu_s: Vec<f64>,
    reference_wall_s: Vec<f64>,
    /// Wall seconds of all traced searches: what the spans' raw nanoseconds
    /// are shares of.
    traced_wall_s: f64,
    by_name: [Aggregate; step::SPAN_NAMES.len()],
    execute_by_kind: Vec<(&'static str, Aggregate)>,
    sample: Vec<Span>,
    /// Of the last round: the probe's counts and the engines' reports.
    counts: Vec<Counts>,
    reference: Vec<CheckReport>,
    own: Vec<CheckReport>,
}

impl Rounds {
    fn absorb(&mut self, tracer: On) {
        for (total, part) in self.by_name.iter_mut().zip(tracer.by_name) {
            total.add(part);
        }
        for (kind, part) in tracer.execute_by_kind {
            step::add_kind(&mut self.execute_by_kind, kind, part);
        }
        let room = step::SAMPLE_SPANS.saturating_sub(self.sample.len());
        self.sample.extend(tracer.sample.into_iter().take(room));
    }

    fn kind(&self, kind: &str) -> Aggregate {
        self.execute_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(Aggregate::default(), |(_, a)| *a)
    }
}

/// Runs rounds of (reference engine, own engine, untraced probe, traced
/// probe) over `searches` until `deadline`, at least once.
fn run_rounds(searches: &[Search], deadline: Instant, report: &mut Report) -> Rounds {
    let mut rounds = Rounds::default();
    let mut paced = Paced::start();
    let mut op = 0;
    loop {
        let (mut reference_s, mut own_s, mut untraced_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut threaded_wall_s, mut threaded_cpu_s, mut reference_wall_s) = (0.0, 0.0, 0.0);
        rounds.counts.clear();
        rounds.reference.clear();
        rounds.own.clear();
        for search in searches {
            let run =
                |config: &CheckerConfig| ModelChecker::new((search.build)(), config.clone()).run();
            let (reference, wall, seconds) = paced.timed(|| run(&search.reference));
            reference_wall_s += wall;
            reference_s += seconds;
            if search.own.workers != 1 {
                let cpu_before = procfs::cpu_seconds_self_and_reaped().unwrap_or(0.0);
                let (own, wall) = timed(|| run(&search.own));
                threaded_cpu_s += procfs::cpu_seconds_self_and_reaped().unwrap_or(0.0) - cpu_before;
                threaded_wall_s += wall;
                rounds.own.push(own);
                paced = Paced::start();
            } else if search.differs() {
                let (own, _, seconds) = paced.timed(|| run(&search.own));
                own_s += seconds;
                rounds.own.push(own);
            }
            let scenario = (search.build)();
            let (untraced, _, seconds) =
                paced.timed(|| step::search(&scenario, &search.reference, &mut Off));
            untraced_s += seconds;
            op += 1;
            let mut tracer = On::new(op);
            let (traced, wall, seconds) =
                paced.timed(|| step::search(&scenario, &search.reference, &mut tracer));
            rounds.traced_wall_s += wall;
            traced_s += seconds;
            rounds.absorb(tracer);

            if rounds.reference_s.is_empty() {
                // The searches are deterministic; the first round's
                // comparison holds for all.
                report.check(
                    format!("{}: step probe counts equal the engine's", search.what),
                    same_search(&untraced, &traced, &reference),
                );
            }
            rounds.counts.push(untraced);
            rounds.reference.push(reference);
        }
        rounds.reference_s.push(reference_s);
        rounds.own_s.push(own_s);
        rounds.untraced_s.push(untraced_s);
        rounds.traced_s.push(traced_s);
        rounds.threaded_wall_s.push(threaded_wall_s);
        rounds.threaded_cpu_s.push(threaded_cpu_s);
        rounds.reference_wall_s.push(reference_wall_s);
        if Instant::now() >= deadline {
            return rounds;
        }
    }
}

/// The probe describes the engine's search only if it visits what the
/// engine visits.
fn same_search(untraced: &Counts, traced: &Counts, engine: &CheckReport) -> Result<(), String> {
    if untraced != traced {
        return Err("tracing changed the search".to_string());
    }
    let probe = (
        untraced.unique_states,
        untraced.transitions,
        &untraced.violated,
    );
    let found = violated(engine);
    let engine = (engine.stats.unique_states, engine.stats.transitions, &found);
    if probe == engine {
        Ok(())
    } else {
        Err(format!("probe {probe:?}, engine {engine:?}"))
    }
}

/// Turns the accumulated rounds into the metrics every workload reports.
fn step_metrics(rounds: &Rounds, report: &mut Report) {
    let traced_ns = rounds.traced_wall_s * 1e9;
    let share = |a: Aggregate| ratio(a.total_ns as f64, traced_ns);
    let name = |index: usize| rounds.by_name[index];

    report.set("state.clone_ns", name(step::CLONE).mean_ns());
    report.set("state.clone_share", share(name(step::CLONE)));
    report.set("state.fingerprint_ns", name(step::FINGERPRINT).mean_ns());
    report.set("state.fingerprint_share", share(name(step::FINGERPRINT)));
    report.set("transition.enabled_ns", name(step::ENABLED).mean_ns());
    report.set("transition.enabled_share", share(name(step::ENABLED)));
    report.set("transition.execute_ns", name(step::EXECUTE).mean_ns());
    report.set("transition.execute_share", share(name(step::EXECUTE)));
    for kind in EXECUTE_KINDS {
        report.set(
            &format!("transition.execute_ns.{kind}"),
            rounds.kind(kind).mean_ns(),
        );
    }
    report.set("properties.check_ns", name(step::PROPERTIES).mean_ns());
    report.set("properties.check_share", share(name(step::PROPERTIES)));
    report.set("explored.visit_ns", name(step::VISIT).mean_ns());
    report.set("explored.visit_share", share(name(step::VISIT)));

    let mut discover = rounds.kind("discover_packets");
    discover.add(rounds.kind("discover_stats"));
    let calls: u64 = rounds.counts.iter().map(|c| c.discover_calls).sum();
    let executions: u64 = rounds.counts.iter().map(|c| c.symbolic_executions).sum();
    report.set("sym.discover_calls", calls as f64);
    report.set("sym.discover_ns", discover.mean_ns());
    report.set("sym.discover_share", share(discover));
    report.set("sym.symbolic_executions", executions as f64);
    report.set(
        "sym.memo_hit_ratio",
        ratio(calls.saturating_sub(executions) as f64, calls as f64),
    );

    // What is left of the traced wall once every call into a layer is taken
    // out: allocation and drop of states, the probe's stack, the spans.
    let leaves: u64 = [
        step::INITIAL,
        step::ENABLED,
        step::CLONE,
        step::EXECUTE,
        step::PROPERTIES,
        step::FINGERPRINT,
        step::VISIT,
    ]
    .iter()
    .map(|&i| name(i).total_ns)
    .sum();
    report.set(
        "probe.unattributed_share",
        1.0 - ratio(leaves as f64, traced_ns),
    );
    let untraced = median(&rounds.untraced_s).unwrap_or(0.0);
    report.set(
        "probe.trace_overhead_ratio",
        ratio(median(&rounds.traced_s).unwrap_or(0.0), untraced),
    );
    report.set(
        "checker.engine_over_probe",
        ratio(median(&rounds.reference_s).unwrap_or(0.0), untraced),
    );
}

/// The metrics read off the engine's own counters, for the configuration
/// the workload really runs.
fn engine_metrics(searches: &[Search], rounds: &Rounds, report: &mut Report) {
    let differs = searches.iter().any(Search::differs);
    let own = if differs {
        &rounds.own
    } else {
        &rounds.reference
    };
    let sum = |field: fn(&CheckReport) -> u64| own.iter().map(field).sum::<u64>() as f64;
    let transitions = sum(|r| r.stats.transitions);
    let unique = sum(|r| r.stats.unique_states);
    let dedup = sum(|r| r.stats.dedup_hits);
    let pruned_by_por = sum(|r| r.stats.pruned_by_por);
    report.set(
        "checker.max_depth",
        own.iter().map(|r| r.stats.max_depth).max().unwrap_or(0) as f64,
    );
    report.set("explored.dedup_hit_ratio", ratio(dedup, dedup + unique));
    report.set(
        "explored.bytes_per_state",
        ratio(sum(|r| r.stats.peak_explored_bytes), unique),
    );
    report.set(
        "por.pruned_ratio",
        ratio(pruned_by_por, pruned_by_por + transitions),
    );
    report.set("faults.injected_total", sum(|r| r.stats.faults.total()));

    // The sums a configuration never added to stay zero, and so do the
    // ratios over them: no POR, no `por.time_ratio`; one worker, no `sched.*`.
    let med = |samples: &[f64]| median(samples).unwrap_or(0.0);
    let reduced = searches
        .iter()
        .any(|s| s.own.reduction != ReductionKind::None);
    let reference_transitions: u64 = rounds.reference.iter().map(|r| r.stats.transitions).sum();
    report.set(
        "por.transition_ratio",
        if reduced {
            ratio(transitions, reference_transitions as f64)
        } else {
            0.0
        },
    );
    report.set(
        "por.time_ratio",
        ratio(med(&rounds.own_s), med(&rounds.reference_s)),
    );
    report.set(
        "sched.speedup_2w",
        ratio(med(&rounds.reference_wall_s), med(&rounds.threaded_wall_s)),
    );
    report.set("sched.work_steals", sum(|r| r.stats.work_steals));
    report.set(
        "sched.cpu_over_wall",
        ratio(med(&rounds.threaded_cpu_s), med(&rounds.threaded_wall_s)),
    );
}

// ---------------------------------------------------------------------------
// Workload-specific instruments
// ---------------------------------------------------------------------------

/// Table 2's other axis: how much each strategy prunes, and what the
/// witnesses it finds cost to write, read and replay.
fn bughunt_extras(seed: u64, expected: &Expected, report: &mut Report) {
    let (mut pruned, mut executed) = (0u64, 0u64);
    let mut witnesses: Vec<(BugId, StrategyKind, Trace)> = Vec::new();
    for (bug, strategy) in shuffled_cells(seed) {
        let config = hunt_config(bug, strategy);
        let run = ModelChecker::new(bug_scenario(bug), config).run();
        pruned += run.stats.pruned_by_strategy;
        executed += run.stats.transitions;
        let what = format!("BUG-{} × {}", bug.label(), strategy.name());
        report.check(
            format!("{what}: verdict"),
            match expected.cell(bug.label(), strategy.name()) {
                Some(expect) => expect.check(&violated(&run), 0, 0),
                None => Err("no pin".to_string()),
            },
        );
        if let Some(violation) = run.violations.into_iter().next() {
            witnesses.push((bug, strategy, violation.trace));
        }
    }
    report.set(
        "strategy.pruned_ratio",
        ratio(pruned as f64, (pruned + executed) as f64),
    );

    // The cells came in seed order, so the first few witnesses are the
    // seed's choice.
    witnesses.truncate(WITNESSES);
    let (mut to_json_s, mut from_json_s, mut replay_s, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    for (bug, strategy, trace) in &witnesses {
        let what = format!("BUG-{} × {} witness", bug.label(), strategy.name());
        let (text, wall) = timed(|| trace.to_json());
        to_json_s += wall;
        bytes += text.len();
        let (parsed, wall) = timed(|| Trace::from_json(&text));
        from_json_s += wall;
        report.check(
            format!("{what}: survives its own codec"),
            match &parsed {
                Ok(parsed) if parsed.to_json() == text => Ok(()),
                Ok(_) => Err("the round trip changed the trace".to_string()),
                Err(why) => Err(why.clone()),
            },
        );
        let checker = ModelChecker::new(bug_scenario(*bug), hunt_config(*bug, *strategy));
        let (replayed, wall) = timed(|| checker.replay(trace));
        replay_s += wall;
        report.check(
            format!("{what}: replays to its violation"),
            if replayed.reproduces(trace) {
                Ok(())
            } else {
                Err("the replay does not reproduce the violation".to_string())
            },
        );
    }
    let n = witnesses.len() as f64;
    report.set("trace.to_json_us", ratio(to_json_s * 1e6, n));
    report.set("trace.from_json_us", ratio(from_json_s * 1e6, n));
    report.set("trace.bytes", ratio(bytes as f64, n));
    report.set("replay.replay_us", ratio(replay_s * 1e6, n));
}

/// Table 1's ρ: the share of states the canonical switch model saves over
/// the plain one on the same four pings.
fn rho_ping4(report: &mut Report) {
    let plain = ModelChecker::new(ping_workload(4, false), exhaustive()).run();
    let canonical = ModelChecker::new(ping_workload(4, true), exhaustive()).run();
    let (plain, canonical) = (
        plain.stats.unique_states as f64,
        canonical.stats.unique_states as f64,
    );
    report.set("openflow.rho_ping4", ratio(plain - canonical, plain));
}

/// The explored-set tiers, through the CLI flags that select them: a tier
/// that has been removed reads 0 and says why on stderr.
fn explored_legs(scenario: &str, report: &mut Report) -> Result<(), String> {
    let nice = bin_dir()?.join("nice");
    let base = legs::cli_leg(&nice, scenario, &[])?;
    for (metric, flags) in [
        (
            "explored.tiered_spill_slowdown",
            &["--explored", "tiered", "--mem-limit", "1"][..],
        ),
        ("explored.bitstate_slowdown", &["--explored", "bitstate"]),
    ] {
        match legs::cli_leg(&nice, scenario, flags) {
            Ok(duration) => report.set(metric, ratio(duration, base)),
            Err(why) => eprintln!("probe: {metric}: null ({why})"),
        }
    }
    Ok(())
}

/// The served workload's layers: the emulated two-shard run, stage by
/// stage, and the real round trips it explains.
fn served_legs(scenario: &str, expect: &Expect, report: &mut Report) -> Result<(), String> {
    let build = || resolve(scenario).expect("resolved a moment ago");
    let inproc: Vec<f64> = (0..SERVED_RUNS)
        .map(|_| timed(|| ModelChecker::new(build(), exhaustive()).run()).1)
        .collect();
    let inproc_s = median(&inproc).expect("at least one run");
    let each = shard::run(&build, &exhaustive())?;
    report.check(
        "shard probe: two emulated shards visit what one engine visits",
        expect.check(&expect.violated, each.unique_states, each.transitions),
    );
    // Every forwarded state crosses two frames.
    let crossings = |run: &shard::ShardRun| 2.0 * run.forwards as f64;
    report.set(
        "proto.encode_ns_per_forward",
        ratio(each.encode_s * 1e9, crossings(&each)),
    );
    report.set(
        "proto.decode_ns_per_forward",
        ratio(each.decode_s * 1e9, crossings(&each)),
    );
    report.set(
        "proto.bytes_per_forward",
        ratio(each.bytes as f64, crossings(&each)),
    );
    report.set(
        "proto.decode_batch64_over_batch1",
        shard::decode_batch_ratio(&each.kept)?,
    );
    report.set(
        "shard.forward_ratio",
        ratio(each.forwards as f64, each.transitions as f64),
    );
    report.set(
        "shard.forward_accept_ratio",
        ratio(each.accepted as f64, each.forwards as f64),
    );
    report.set("shard.step_over_solo", ratio(each.step_s, inproc_s));
    report.set("dist.emulated_s", each.wall_s);

    let mut server = Server::start(&bin_dir()?, WORKERS)?;
    report.service_pids = server.pids();
    report.set("serve.spawn_s", server.spawn_s);
    let nothing = Expect {
        violated: BTreeSet::new(),
        counts: None,
    };
    let round_trips = |scenario: &str, expect: &Expect, runs: usize| {
        server.submit(scenario, expect)?; // warm-up
        let mut walls = Vec::new();
        for _ in 0..runs {
            let (outcome, wall) = timed(|| server.submit(scenario, expect));
            outcome?;
            walls.push(wall);
        }
        Ok::<f64, String>(median(&walls).expect("at least one round trip"))
    };
    let served_s = round_trips(scenario, expect, SERVED_RUNS)?;
    let overhead_s = round_trips("ping:2", &nothing, OVERHEAD_RUNS)?;
    server.stop()?;
    report.set("serve.fixed_overhead_ms", overhead_s * 1e3);
    // The emulation does on one thread what the service spreads over its
    // worker processes; wall time beyond a perfect split of that work is
    // time somebody spent waiting on a pipe.
    report.set("serve.pipe_wait_s", served_s - each.wall_s / WORKERS as f64);
    report.set("dist.slowdown_vs_inproc", ratio(served_s, inproc_s));
    Ok(())
}

// ---------------------------------------------------------------------------
// The trace file
// ---------------------------------------------------------------------------

fn write_trace(workload: &str, rounds: &Rounds) -> Result<(), String> {
    let aggregate = |a: &Aggregate| {
        Value::obj([
            ("count", Value::from(a.count)),
            ("total_ns", Value::from(a.total_ns)),
        ])
    };
    let spans = step::SPAN_NAMES
        .iter()
        .zip(&rounds.by_name)
        .map(|(name, a)| (name.to_string(), aggregate(a)));
    let kinds = rounds
        .execute_by_kind
        .iter()
        .map(|(kind, a)| (kind.to_string(), aggregate(a)));
    let sample = rounds.sample.iter().map(|s| {
        Value::Arr(vec![
            u64::from(s.id).into(),
            u64::from(s.parent).into(),
            u64::from(s.op).into(),
            step::SPAN_NAMES[s.name].into(),
            s.kind.into(),
            s.start_ns.into(),
            s.end_ns.into(),
        ])
    });
    let doc = Value::obj([
        ("schema", Value::from("nice-benchmark-trace-v1")),
        ("workload", workload.into()),
        ("traced_s", Value::Num(rounds.traced_wall_s)),
        ("spans", Value::Obj(spans.collect())),
        ("execute_by_kind", Value::Obj(kinds.collect())),
        (
            "sample_columns",
            Value::Arr(
                ["id", "parent", "op", "name", "kind", "start_ns", "end_ns"]
                    .map(Value::from)
                    .to_vec(),
            ),
        ),
        ("sample", Value::Arr(sample.collect())),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------------

fn probe(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let expected = Expected::load();
    let mut report = Report::default();

    // The pin of a single-search workload; the sweep has one per cell.
    let mut pin = None;
    let searches: Vec<Search> = if workload == BUGHUNT {
        // One sweep under PKT-SEQ, the strategy the probe mirrors.
        BugId::ALL
            .into_iter()
            .map(|bug| {
                Search::new(
                    format!("BUG-{}", bug.label()),
                    Box::new(move || bug_scenario(bug)),
                    hunt_config(bug, StrategyKind::FullDfs),
                )
            })
            .collect()
    } else {
        let own = configure(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let (spec, expect) = expected.search(workload)?;
        pin = Some(expect);
        let spec = spec.to_string();
        resolve(&spec).ok_or_else(|| format!("the program cannot resolve '{spec}'"))?;
        let build = {
            let spec = spec.clone();
            move || resolve(&spec).expect("resolved a moment ago")
        };
        vec![Search::new(spec, Box::new(build), own)]
    };

    // The fixed-cost instruments first; the rounds take what time is left.
    match workload {
        BUGHUNT => bughunt_extras(seed, &expected, &mut report),
        "table1_ping4" => rho_ping4(&mut report),
        "lb_faults_por" => explored_legs(&searches[0].what, &mut report)?,
        SERVED => {
            let expect = pin
                .as_ref()
                .expect("the served workload is a single search");
            served_legs(&searches[0].what, expect, &mut report)?;
        }
        _ => {}
    }
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let rounds = run_rounds(&searches, deadline, &mut report);
    step_metrics(&rounds, &mut report);
    engine_metrics(&searches, &rounds, &mut report);

    if let Some(expect) = &pin {
        let own = rounds.own.first().unwrap_or(&rounds.reference[0]);
        report.check(
            format!("{workload}: the engine's own configuration meets its pin"),
            expect.check(
                &violated(own),
                own.stats.unique_states,
                own.stats.transitions,
            ),
        );
    }
    write_trace(workload, &rounds)?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = RunArgs::parse(&args).and_then(|args| {
        args.finish()?;
        let workload = args.workload.ok_or("probe needs --workload")?;
        let seconds = args.seconds.unwrap_or(Spec::load().run_seconds as f64);
        probe(&workload, args.seed, seconds)
    });
    match outcome {
        Ok(report) => {
            let metrics = report
                .metrics
                .into_iter()
                .map(|(name, value)| (name, Value::Num(value)));
            let pids = report.service_pids.into_iter();
            println!(
                "{}",
                Value::obj([
                    ("metrics", Value::Obj(metrics.collect())),
                    ("checks", Value::Arr(report.checks)),
                    (
                        "service_pids",
                        Value::Arr(pids.map(|p| u64::from(p).into()).collect()),
                    ),
                ])
                .render()
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("probe: {why}");
            ExitCode::from(2)
        }
    }
}
