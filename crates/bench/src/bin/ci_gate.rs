//! Deterministic bench-regression gate for CI.
//!
//! Runs a quick, fixed profile of the exploration engines (the same legs as
//! the `parallel` bin, plus the POR legs) on the pyswitch chain and
//! load-balancer workloads, writes the results as JSON (`BENCH_ci.json` by
//! default), and — when given a committed baseline — fails the process if
//!
//! * an engine explores **more transitions** than the baseline allows
//!   (`> baseline * 1.15`): state-space regressions are deterministic and
//!   always real, or
//! * an engine's **states/s slows down relative to the in-run reference
//!   engine** by more than 15%: rates are normalised against the default
//!   engine (the first `engine_configs` row) measured in the *same* run, so
//!   the gate compares engine ratios rather than absolute throughput (which
//!   would make the gate flap with runner hardware). The ratios still move
//!   with the core count, so this leg is report-only unless the baseline
//!   records the same `cores`.
//!   Each engine reports its best of three runs, and only workloads large
//!   enough to time meaningfully are rate-gated (small ones are report-only).
//!
//! Usage: `ci_gate [--out FILE] [--baseline FILE]`
//!
//! Regenerate the committed baseline with
//! `cargo run --release -p nice-bench --bin ci_gate -- --out bench/baseline.json`.

use nice_bench::{
    chain_fault_workload, chain_ping_workload, engine_configs, exhaustive, load_balancer_workload,
};
use nice_dist::{Coordinator, JobSpec};
use nice_mc::{CheckerConfig, ExploredMode, Json, ModelChecker, Scenario, SearchStats};

/// One engine's measurements on one workload.
struct EngineRow {
    name: String,
    /// The deterministic counters, from the first measurement cycle.
    stats: SearchStats,
    /// The best cycle's states/s.
    states_per_sec: f64,
    /// states/s divided by the reference (first) engine's states/s of the
    /// same run — the machine-independent number the gate compares.
    relative_rate: f64,
    /// Whether this engine's rate participates in the gate. Legs running a
    /// deliberately degraded explored set (forced spill, bitstate) are
    /// gated on their deterministic counters only: their states/s is
    /// dominated by per-visit disk I/O or hashing and flaps with runner
    /// load far beyond [`RATE_TOLERANCE`].
    rate_gated: bool,
}

struct Profile {
    scenario: String,
    engines: Vec<EngineRow>,
    /// Whether the states/s leg of the gate applies: only workloads with
    /// enough work per run (tens of milliseconds) produce rates stable
    /// enough to gate on — tiny ones are reported but not rate-gated.
    rate_gated: bool,
}

/// Transition-count headroom before the gate fails (deterministic metric).
const TRANSITIONS_TOLERANCE: f64 = 1.15;
/// Allowed relative slowdown of an engine's normalised rate.
const RATE_TOLERANCE: f64 = 0.85;

/// Workers for the parallel legs; fixed so the engine labels (and therefore
/// the baseline keys) never drift with runner hardware.
const GATE_WORKERS: usize = 4;

/// Measurement cycles per profile; each cycle runs every engine once
/// (round-robin) and each engine reports its best cycle. Interleaving the
/// engines means a transient load burst degrades one *cycle* for everyone
/// rather than all runs of one engine, which keeps the relative rates —
/// the numbers the gate compares — stable on busy CI runners.
const MEASUREMENT_CYCLES: usize = 5;

fn profile(label: &str, rate_gated: bool, scenario: impl Fn() -> Scenario) -> Profile {
    let configs = engine_configs(GATE_WORKERS);
    let mut best_rates = vec![0.0f64; configs.len()];
    let mut stats = Vec::new();
    for cycle in 0..MEASUREMENT_CYCLES {
        for (i, (_, config)) in configs.iter().enumerate() {
            let s = exhaustive(scenario(), config.clone());
            let rate = s.unique_states as f64 / s.duration.as_secs_f64().max(1e-9);
            best_rates[i] = best_rates[i].max(rate);
            if cycle == 0 {
                stats.push(s);
            }
        }
    }
    let reference = best_rates[0];
    let engines = configs
        .into_iter()
        .zip(stats)
        .zip(best_rates)
        .map(|(((name, config), stats), best_rate)| EngineRow {
            name,
            stats,
            states_per_sec: best_rate,
            relative_rate: best_rate / reference,
            rate_gated: config.explored.mode == ExploredMode::Mem,
        })
        .collect();
    Profile {
        scenario: label.to_string(),
        engines,
        rate_gated,
    }
}

/// One distributed row: the coordinator + worker-process service checking
/// the same workload. Transition counts are sharding-invariant (each
/// fingerprint has exactly one owner), so they gate like any engine's; the
/// rate leg is exempt — process spawn and IPC framing costs depend on the
/// runner, and the in-process reference engine is not a fair yardstick for
/// a multi-process run.
fn dist_profile(coordinator: &mut Coordinator, label: &str, spec: &JobSpec) -> Profile {
    let name = format!("dist-{}proc", coordinator.workers());
    let mut best_rate = 0.0f64;
    let mut first: Option<nice_mc::CheckReport> = None;
    for _ in 0..MEASUREMENT_CYCLES {
        let report = coordinator
            .run_job(spec, |_| {}, None)
            .expect("distributed gate job");
        let rate =
            report.stats.unique_states as f64 / report.stats.duration.as_secs_f64().max(1e-9);
        best_rate = best_rate.max(rate);
        if first.is_none() {
            first = Some(report);
        }
    }
    let report = first.expect("at least one measurement cycle");
    Profile {
        scenario: label.to_string(),
        engines: vec![EngineRow {
            name,
            stats: report.stats,
            states_per_sec: best_rate,
            relative_rate: 1.0,
            rate_gated: false,
        }],
        rate_gated: false,
    }
}

/// The parallelism the profile ran with; recorded in the JSON so the gate
/// can tell whether a baseline was measured on comparable hardware.
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

/// The engine object for `(scenario, engine)` of a parsed BENCH document.
fn baseline_row<'a>(baseline: &'a Json<'a>, scenario: &str, engine: &str) -> Option<&'a Json<'a>> {
    let profiles = baseline.arr("profiles").ok()?;
    let profile = profiles
        .iter()
        .find(|p| p.str("scenario") == Ok(scenario))?;
    let engines = profile.arr("engines").ok()?;
    engines.iter().find(|e| e.str("name") == Ok(engine))
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
    // Checked before profiling so a zero-cost regression fails fast, ahead
    // of the (slower) measurement cycles.
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
        profile("pyswitch-chain-5sw-2pings", true, || {
            chain_ping_workload(5, 2)
        }),
        profile("loadbalancer-bug-v", false, load_balancer_workload),
    ];

    // Multi-worker rows: the same workloads through `nice serve`'s
    // coordinator + 2 sharded worker processes. One pool serves all cycles
    // (respawning per cycle would measure process startup, not checking).
    // Needs `cargo build --release` first: the pool execs the
    // `nice-dist-worker` binary next to this one.
    let mut coordinator = nice_dist::worker_bin()
        .and_then(|bin| Coordinator::new(bin, 2))
        .expect("spawn distributed worker pool");
    let chain_spec = JobSpec {
        stop_at_first_violation: false,
        ..JobSpec::new("chain:5:2")
    };
    profiles.push(dist_profile(
        &mut coordinator,
        "pyswitch-chain-5sw-2pings-dist",
        &chain_spec,
    ));
    let bug_v_spec = JobSpec {
        stop_at_first_violation: false,
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

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = Json::parse(&baseline)
        .unwrap_or_else(|e| panic!("baseline {baseline_path} is not JSON: {e}"));

    // Relative rates shift with core count (the parallel legs especially),
    // so a baseline measured on different hardware cannot gate throughput:
    // downgrade the rate leg to a warning until the baseline is
    // regenerated on matching hardware. Transition counts are
    // deterministic and are always gated.
    let baseline_cores = baseline.u64("cores").ok().map(|c| c as usize);
    let rates_comparable = baseline_cores == Some(core_count());
    if !rates_comparable {
        println!(
            "bench gate: baseline cores ({}) != this machine ({}); \
             states/s checks are report-only until bench/baseline.json is \
             regenerated here",
            baseline_cores.map_or("unknown".to_string(), |c| c.to_string()),
            core_count()
        );
    }

    let mut failures = Vec::new();
    for p in &profiles {
        for e in &p.engines {
            let Some(row) = baseline_row(&baseline, &p.scenario, &e.name) else {
                failures.push(format!(
                    "{} / {}: missing from baseline {baseline_path}",
                    p.scenario, e.name
                ));
                continue;
            };
            let base_transitions = row.f64("transitions").expect("baseline transitions");
            let base_rel = row.f64("relative_rate").expect("baseline relative_rate");
            if e.stats.transitions as f64 > base_transitions * TRANSITIONS_TOLERANCE {
                failures.push(format!(
                    "{} / {}: transitions regressed {} -> {} (>{:.0}% headroom)",
                    p.scenario,
                    e.name,
                    base_transitions,
                    e.stats.transitions,
                    (TRANSITIONS_TOLERANCE - 1.0) * 100.0
                ));
            }
            if p.rate_gated
                && e.rate_gated
                && rates_comparable
                && e.relative_rate < base_rel * RATE_TOLERANCE
            {
                failures.push(format!(
                    "{} / {}: states/s (relative to the default engine) regressed \
                     {base_rel:.2}x -> {:.2}x (>15%)",
                    p.scenario, e.name, e.relative_rate
                ));
            }
        }
    }

    if failures.is_empty() {
        println!(
            "bench gate: OK (within {TRANSITIONS_TOLERANCE}x transitions, {RATE_TOLERANCE}x rate)"
        );
    } else {
        eprintln!("bench gate: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
