//! The in-process operations: one call is one request, from scenario spec
//! to checked verdict, through `resolve`/`bug_scenario` and
//! `ModelChecker::new(..).run()` only (see the binding surface in
//! `nice_benchmark::workloads`).

use nice_apps::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::resolve;
use nice_benchmark::expected::{Expect, Expected};
use nice_benchmark::json::Value;
use nice_benchmark::workloads::{
    configure, fixed_names, fixed_search, hunt_config, shuffled_cells, violated, BUGHUNT,
};
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, Scenario, StrategyKind};

/// One operation: runs the search, checks its outcome against the pin and
/// returns the number of transitions it executed.
pub type Op<'a> = Box<dyn FnMut() -> Result<u64, String> + 'a>;

/// Runs one search and holds it to its pin.
fn check(
    scenario: Scenario,
    config: CheckerConfig,
    expect: &Expect,
    what: &str,
) -> Result<u64, String> {
    let report = ModelChecker::new(scenario, config).run();
    if expect.counts.is_some() && report.stats.truncated {
        return Err(format!("{what}: the exhaustive search was truncated"));
    }
    expect
        .check(
            &violated(&report),
            report.stats.unique_states,
            report.stats.transitions,
        )
        .map_err(|why| format!("{what}: {why}"))?;
    Ok(report.stats.transitions)
}

/// The whole Table 2 workflow as one operation: every bug under every
/// strategy until its first violation, then every fixed variant
/// exhaustively.
fn bughunt(seed: u64, expected: &Expected) -> Result<Op<'static>, String> {
    let cells = shuffled_cells(seed)
        .into_iter()
        .map(|(bug, strategy)| {
            let what = format!("BUG-{} × {}", bug.label(), strategy.name());
            let expect = expected
                .cell(bug.label(), strategy.name())
                .ok_or_else(|| format!("no pin for {what}"))?;
            Ok((bug, strategy, expect, what))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let fixed = fixed_names()
        .map(|name| {
            let expect = expected
                .fixed(name)
                .ok_or_else(|| format!("no pin for {name}"))?;
            Ok((name, expect))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Box::new(move || {
        let mut transitions = 0;
        for (bug, strategy, expect, what) in &cells {
            transitions += check(
                bug_scenario(*bug),
                hunt_config(*bug, *strategy),
                expect,
                what,
            )?;
        }
        for (name, expect) in &fixed {
            let (scenario, config) = fixed_search(name)?;
            transitions += check(scenario, config, expect, name)?;
        }
        Ok(transitions)
    }))
}

/// Builds the operation of an in-process workload.
pub fn in_process(workload: &str, seed: u64, expected: &Expected) -> Result<Op<'static>, String> {
    if workload == BUGHUNT {
        return bughunt(seed, expected);
    }
    let config = configure(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let (spec, expect) = expected.search(workload)?;
    let spec = spec.to_string();
    Ok(Box::new(move || {
        let scenario = resolve(&spec).ok_or_else(|| format!("cannot resolve '{spec}'"))?;
        check(scenario, config.clone(), &expect, &spec)
    }))
}

/// `bench expected`: what today's sequential engine reports for every
/// operation, in the layout of `expected.json`. A change that corrects the
/// benchmark re-pins with it; the verdicts must still be argued from the
/// registry and the paper, not copied blindly.
pub fn current_outcomes(expected: &Expected, workloads: &[String]) -> Result<Value, String> {
    let pin = |report: &CheckReport, counts: bool| {
        let mut pairs = vec![(
            "violated".to_string(),
            Value::Arr(violated(report).into_iter().map(Value::Str).collect()),
        )];
        if counts {
            pairs.push(("unique_states".into(), report.stats.unique_states.into()));
            pairs.push(("transitions".into(), report.stats.transitions.into()));
        }
        pairs
    };
    let mut doc = Vec::new();
    for workload in workloads.iter().filter(|w| *w != BUGHUNT) {
        let (spec, _) = expected.search(workload)?;
        // The parallel and the served workload are pinned from the
        // sequential engine: they must agree with it, not with themselves.
        let config = configure(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?
            .with_workers(1);
        let scenario = resolve(spec).ok_or_else(|| format!("cannot resolve '{spec}'"))?;
        let report = ModelChecker::new(scenario, config).run();
        let mut pairs = vec![("scenario".to_string(), Value::from(spec))];
        pairs.extend(pin(&report, true));
        doc.push((workload.clone(), Value::Obj(pairs)));
    }
    let mut cells = Vec::new();
    for bug in BugId::ALL {
        for strategy in StrategyKind::ALL {
            let report = ModelChecker::new(bug_scenario(bug), hunt_config(bug, strategy)).run();
            let mut pairs = vec![
                ("bug".to_string(), Value::from(bug.label())),
                ("strategy".to_string(), Value::from(strategy.name())),
            ];
            pairs.extend(pin(&report, false));
            cells.push(Value::Obj(pairs));
        }
    }
    let mut fixed = Vec::new();
    for name in fixed_names() {
        let (scenario, config) = fixed_search(name)?;
        let report = ModelChecker::new(scenario, config).run();
        let mut pairs = vec![("scenario".to_string(), Value::from(name))];
        pairs.extend(pin(&report, true));
        fixed.push(Value::Obj(pairs));
    }
    doc.push((
        BUGHUNT.to_string(),
        Value::obj([("cells", Value::Arr(cells)), ("fixed", Value::Arr(fixed))]),
    ));
    Ok(Value::Obj(doc))
}
