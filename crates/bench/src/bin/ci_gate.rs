//! Deterministic bench-regression gate for CI.
//!
//! Runs a quick, fixed profile of the exploration engines
//! ([`nice_bench::engine_configs`]) on the pyswitch chain and load-balancer
//! workloads, writes the results as JSON (`BENCH_ci.json` by
//! default), and — when given a committed baseline — fails the process if
//! an engine explores **more transitions or more states** than the baseline
//! allows (`> baseline * 1.15`): state-space regressions are deterministic
//! and always real. The one racy row, POR under parallel workers, is held
//! to what holds on every schedule instead (see [`RACY_ENGINE`]).
//!
//! Each engine runs once. Its states/s, and that rate divided by the default
//! engine's of the same run, are printed and written as report-only columns:
//! they are not gated. A rate relative to the default engine reads a faster
//! default engine as a regression of every other row, and an absolute one
//! follows the runner; speed is measured by `benchmark/` (ten alternating
//! parent/change pairs), not here.
//!
//! Usage: `ci_gate [--out FILE] [--baseline FILE]`
//!
//! Regenerate the committed baseline with
//! `cargo run --release -p nice-bench --bin ci_gate -- --out bench/baseline.json`.

use nice_bench::{
    chain_fault_workload, chain_ping_workload, engine_configs, exhaustive, load_balancer_workload,
    TIERED_ENGINE,
};
use nice_dist::{Coordinator, JobSpec};
use nice_mc::{CheckerConfig, Json, ModelChecker, Scenario, SearchStats};

/// One engine's measurements on one workload.
struct EngineRow {
    name: String,
    /// The counters the gate compares.
    stats: SearchStats,
    /// Report only.
    states_per_sec: f64,
    /// states/s divided by the reference (first) engine's states/s of the
    /// same run. Report only.
    relative_rate: f64,
}

struct Profile {
    scenario: String,
    engines: Vec<EngineRow>,
}

/// Transition- and state-count headroom before the gate fails.
const COUNT_TOLERANCE: f64 = 1.15;

/// The engine whose transition count is not a function of its input: under
/// POR, parallel workers race to store a state's sleep set, and whoever
/// loses re-expands it under the intersection (`Visit::Widen`), so the
/// count follows the schedule. Fifty runs of each gated workload at 4
/// workers on 2 cores read 6 707–6 743 transitions on the chain (6 725
/// sequentially) and 1 969–1 981 on BUG-V (1 975), with the sequential POR
/// row's `states` every time. A baseline taken from one such run means
/// nothing, so this row's transitions are not compared with it; what every
/// schedule must satisfy is gated exactly: it finds the states the
/// sequential POR search finds, and executes no more transitions than the
/// unreduced search.
const RACY_ENGINE: &str = "por + parallel";

/// The sequential row [`RACY_ENGINE`]'s states are held to.
const SEQUENTIAL_POR_ENGINE: &str = "por (sleep sets)";

/// Workers for the parallel legs; fixed so the engine labels (and therefore
/// the baseline keys) never drift with runner hardware.
const GATE_WORKERS: usize = 4;

/// Unique states per second of wall clock.
fn states_per_sec(stats: &SearchStats) -> f64 {
    stats.unique_states as f64 / stats.duration.as_secs_f64().max(1e-9)
}

fn profile(label: &str, scenario: impl Fn() -> Scenario) -> Profile {
    let mut engines: Vec<EngineRow> = Vec::new();
    for (name, mut config) in engine_configs(GATE_WORKERS) {
        if name == TIERED_ENGINE {
            let in_memory = &engines[0].stats;
            config.explored.mem_limit = in_memory.peak_explored_bytes / 4;
        }
        let stats = exhaustive(scenario(), config);
        let states_per_sec = states_per_sec(&stats);
        let reference = engines.first().map_or(states_per_sec, |e| e.states_per_sec);
        engines.push(EngineRow {
            name,
            stats,
            states_per_sec,
            relative_rate: states_per_sec / reference,
        });
    }
    Profile {
        scenario: label.to_string(),
        engines,
    }
}

/// One distributed row: the coordinator + worker-process service checking
/// the same workload. Transition and state counts are sharding-invariant
/// (each fingerprint has exactly one owner), so they gate like any
/// engine's.
fn dist_profile(coordinator: &mut Coordinator, label: &str, spec: &JobSpec) -> Profile {
    let report = coordinator
        .run_job(spec, |_| {}, None)
        .expect("distributed gate job");
    Profile {
        scenario: label.to_string(),
        engines: vec![EngineRow {
            name: format!("dist-{}proc", coordinator.workers()),
            states_per_sec: states_per_sec(&report.stats),
            stats: report.stats,
            relative_rate: 1.0,
        }],
    }
}

/// The parallelism the profile ran with; recorded in the JSON so a reader
/// of the report-only rates knows what they were measured on.
fn core_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl EngineRow {
    /// One engine object of the BENCH document.
    fn to_json(&self) -> Json<'_> {
        let stats = &self.stats;
        Json::object([
            ("name", self.name.as_str().into()),
            ("states", stats.unique_states.into()),
            ("transitions", stats.transitions.into()),
            ("states_per_sec", Json::fixed(self.states_per_sec, 1)),
            ("relative_rate", Json::fixed(self.relative_rate, 4)),
            ("work_steals", stats.work_steals.into()),
            ("peak_explored_bytes", stats.peak_explored_bytes.into()),
            ("spilled_shards", stats.spilled_shards.into()),
            ("filter_hits", stats.filter_hits.into()),
            ("disk_probes", stats.disk_probes.into()),
        ])
    }
}

/// The BENCH document: `{"cores", "profiles": [{"scenario", "engines"}]}`.
fn bench_json(profiles: &[Profile]) -> Json<'_> {
    let profiles = profiles.iter().map(|p| {
        let engines = p.engines.iter().map(EngineRow::to_json).collect();
        Json::object([
            ("scenario", p.scenario.as_str().into()),
            ("engines", Json::Arr(engines)),
        ])
    });
    Json::object([
        ("cores", core_count().into()),
        ("profiles", Json::Arr(profiles.collect())),
    ])
}

/// What [`RACY_ENGINE`]'s rows violate of what holds on every schedule.
fn racy_row_failures(profile: &Profile) -> Vec<String> {
    let unreduced = &profile.engines[0];
    let sequential = (profile.engines.iter()).find(|e| e.name == SEQUENTIAL_POR_ENGINE);
    let mut failures = Vec::new();
    for racy in (profile.engines.iter()).filter(|e| e.name.starts_with(RACY_ENGINE)) {
        let label = format!("{} / {}", profile.scenario, racy.name);
        let sequential = sequential.expect("a racy POR row has its sequential row");
        if racy.stats.unique_states != sequential.stats.unique_states {
            failures.push(format!(
                "{label}: {} states, the sequential POR search finds {}",
                racy.stats.unique_states, sequential.stats.unique_states
            ));
        }
        if racy.stats.transitions > unreduced.stats.transitions {
            failures.push(format!(
                "{label}: {} transitions, the unreduced search executes {}",
                racy.stats.transitions, unreduced.stats.transitions
            ));
        }
    }
    failures
}

/// The engine object for `(scenario, engine)` of a parsed BENCH document.
fn baseline_row<'a>(baseline: &'a Json<'a>, scenario: &str, engine: &str) -> Option<&'a Json<'a>> {
    let profiles = baseline.arr("profiles").ok()?;
    let profile = profiles
        .iter()
        .find(|p| p.str("scenario") == Ok(scenario))?;
    let engines = profile.arr("engines").ok()?;
    engines.iter().find(|e| e.str("name") == Ok(engine))
}

/// The rows that explore more than the baseline at `baseline_path` allows.
fn baseline_failures(profiles: &[Profile], baseline_path: &str) -> Vec<String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = Json::parse(&baseline)
        .unwrap_or_else(|e| panic!("baseline {baseline_path} is not JSON: {e}"));

    let mut failures = Vec::new();
    for p in profiles {
        for e in &p.engines {
            let Some(row) = baseline_row(&baseline, &p.scenario, &e.name) else {
                failures.push(format!(
                    "{} / {}: missing from baseline {baseline_path}",
                    p.scenario, e.name
                ));
                continue;
            };
            for (count, now) in [
                ("transitions", e.stats.transitions),
                ("states", e.stats.unique_states),
            ] {
                if count == "transitions" && e.name.starts_with(RACY_ENGINE) {
                    continue;
                }
                let base = row.f64(count).expect("baseline count");
                if now as f64 > base * COUNT_TOLERANCE {
                    failures.push(format!(
                        "{} / {}: {count} regressed {base} -> {now} (>{:.0}% headroom)",
                        p.scenario,
                        e.name,
                        (COUNT_TOLERANCE - 1.0) * 100.0
                    ));
                }
            }
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = String::from("BENCH_ci.json");
    let mut baseline_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--baseline" => {
                baseline_path = Some(args.get(i + 1).expect("--baseline needs a path").clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    // A dormant fault plan must not perturb the gated numbers: the chain
    // workload *with* a fault plan attached but injection off (the default)
    // has to explore the identical state space as the plain chain workload.
    // Checked before profiling so a zero-cost regression fails fast.
    let plain = exhaustive(chain_ping_workload(3, 1), CheckerConfig::default());
    let dormant = exhaustive(chain_fault_workload(3, 1), CheckerConfig::default());
    assert_eq!(
        (plain.transitions, plain.unique_states),
        (dormant.transitions, dormant.unique_states),
        "a fault plan with injection disabled changed the explored state space"
    );
    println!(
        "dormant-fault-plan check: OK ({} transitions, {} states either way)",
        plain.transitions, plain.unique_states
    );

    // The debugging toolkit contract: every witness the checker reports
    // must reproduce its violation under replay. Gated here so a replay
    // regression fails CI even if no unit test covers the exact scenario.
    // (The `nice-trace-v1` bytes are pinned by `nice-mc`'s golden test.)
    let checker = ModelChecker::new(load_balancer_workload(), CheckerConfig::default());
    let report = checker.run();
    let violation = report
        .first_violation()
        .expect("the load-balancer workload is the BUG-V witness generator");
    let replay = checker.replay(&violation.trace);
    assert!(
        replay.completed() && replay.reproduces(&violation.trace),
        "emitted witness trace did not reproduce under replay: {replay}"
    );
    println!("witness replay check: OK ({} steps)", violation.trace.len());

    let mut profiles = vec![
        profile("pyswitch-chain-5sw-2pings", || chain_ping_workload(5, 2)),
        profile("loadbalancer-bug-v", load_balancer_workload),
    ];

    // Multi-worker rows: the same workloads through `nice serve`'s
    // coordinator + 2 sharded worker processes, one pool for both jobs.
    // Needs `cargo build --release` first: the pool execs the
    // `nice-dist-worker` binary next to this one.
    let mut coordinator = nice_dist::worker_bin()
        .and_then(|bin| Coordinator::new(bin, 2))
        .expect("spawn distributed worker pool");
    let every_violation = CheckerConfig::default().with_stop_at_first(false);
    let chain_spec = JobSpec {
        config: every_violation.clone(),
        ..JobSpec::new("chain:5:2")
    };
    profiles.push(dist_profile(
        &mut coordinator,
        "pyswitch-chain-5sw-2pings-dist",
        &chain_spec,
    ));
    let bug_v_spec = JobSpec {
        config: every_violation,
        ..JobSpec::new("bug-v-packets-dropped-in-transition")
    };
    profiles.push(dist_profile(
        &mut coordinator,
        "loadbalancer-bug-v-dist",
        &bug_v_spec,
    ));
    drop(coordinator);

    let doc = bench_json(&profiles);
    // Schema-presence gate: the scheduler and tiered-explored counters are
    // part of the BENCH json shape now; a refactor that silently drops them
    // fails here, not in whatever dashboard consumes the file.
    for profile in doc.arr("profiles").expect("BENCH json lost its profiles") {
        for engine in profile.arr("engines").expect("BENCH json lost its engines") {
            for key in [
                "work_steals",
                "peak_explored_bytes",
                "spilled_shards",
                "filter_hits",
                "disk_probes",
            ] {
                assert!(
                    engine.u64(key).is_ok(),
                    "BENCH json lost the \"{key}\" counter"
                );
            }
        }
    }
    let json = doc.block() + "\n";
    std::fs::write(&out_path, &json).expect("write results");
    println!("wrote {out_path}");
    for p in &profiles {
        println!("{}", p.scenario);
        for e in &p.engines {
            let s = &e.stats;
            println!(
                "  {:<32} states {:>8}  transitions {:>8}  {:>10.0} states/s ({:.2}x)",
                e.name, s.unique_states, s.transitions, e.states_per_sec, e.relative_rate
            );
            if s.work_steals + s.spilled_shards + s.disk_probes > 0 {
                println!(
                    "  {:<32} handoffs {}  spilled {}  filter hits {}  disk probes {}  peak {} KiB",
                    "",
                    s.work_steals,
                    s.spilled_shards,
                    s.filter_hits,
                    s.disk_probes,
                    s.peak_explored_bytes >> 10
                );
            }
        }
    }

    let mut failures: Vec<String> = profiles.iter().flat_map(racy_row_failures).collect();
    if let Some(baseline_path) = &baseline_path {
        failures.extend(baseline_failures(&profiles, baseline_path));
    }
    if !failures.is_empty() {
        eprintln!("bench gate: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if baseline_path.is_some() {
        println!("bench gate: OK (within {COUNT_TOLERANCE}x transitions and states)");
    }
}
