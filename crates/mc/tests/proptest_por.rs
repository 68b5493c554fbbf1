//! Property-based test pinning the partial-order reduction's independence
//! relation: whenever two enabled transitions have disjoint footprints
//! (`independent` says they commute), executing them in either order from
//! the same state must (a) leave the other transition enabled and (b) reach
//! states with identical fingerprints.
//!
//! States are sampled by driving a deterministic random walk from the
//! initial state of a bundled scenario, so the pairs checked include
//! mid-search configurations with packets in flight, controller backlogs and
//! partially learned flow tables.

use nice_mc::scenario::CheckerConfig;
use nice_mc::testutil;
use nice_mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice_mc::{independent, FaultPlan, Scenario, SystemState, Transition};
use proptest::prelude::*;

/// The hub workload with every fault class armed: lossy channels and switch
/// crashes, under a shared budget of 2. Used to sample states whose enabled
/// sets mix fault and non-fault transitions.
fn faulty_hub_scenario(pings: u32) -> Scenario {
    testutil::hub_ping_scenario(pings).with_fault_plan(FaultPlan::lossy(2).with_switch_crash())
}

/// Walks `steps` pseudo-random transitions from the initial state and
/// returns the reached state (deterministic in `seed`).
fn random_state(
    scenario: &Scenario,
    config: &CheckerConfig,
    seed: u64,
    steps: usize,
) -> SystemState {
    let mut state = SystemState::initial(scenario);
    let mut memo = DiscoveryMemo::default();
    let mut events = Vec::new();
    let mut rng = seed | 1;
    for _ in 0..steps {
        let enabled = enabled_transitions(&state, scenario, config);
        if enabled.is_empty() {
            break;
        }
        // SplitMix-ish step, deterministic and cheap.
        rng = rng
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0xbf58_476d_1ce4_e5b9);
        let pick = (rng >> 33) as usize % enabled.len();
        let transition = enabled[pick].clone();
        execute(
            &mut state,
            &transition,
            scenario,
            config,
            &mut memo,
            &mut events,
        );
        events.clear();
    }
    state
}

/// Checks every independent enabled pair of `state` for commutation.
/// Returns the number of independent pairs exercised.
fn check_commutation(
    state: &SystemState,
    scenario: &Scenario,
    config: &CheckerConfig,
) -> Result<usize, String> {
    let enabled = enabled_transitions(state, scenario, config);
    let mut checked = 0;
    for i in 0..enabled.len() {
        for j in (i + 1)..enabled.len() {
            let (a, b) = (&enabled[i], &enabled[j]);
            if !independent(a, b, state, scenario) {
                continue;
            }
            checked += 1;
            let run = |first: &Transition, second: &Transition| -> Result<u64, String> {
                let mut s = state.clone();
                let mut memo = DiscoveryMemo::default();
                let mut events = Vec::new();
                execute(&mut s, first, scenario, config, &mut memo, &mut events);
                let still_enabled = enabled_transitions(&s, scenario, config)
                    .iter()
                    .any(|t| t == second);
                if !still_enabled {
                    return Err(format!(
                        "{first} disabled the supposedly independent {second}"
                    ));
                }
                execute(&mut s, second, scenario, config, &mut memo, &mut events);
                Ok(s.fingerprint())
            };
            let ab = run(a, b)?;
            let ba = run(b, a)?;
            if ab != ba {
                return Err(format!(
                    "independent pair does not commute: [{a}] vs [{b}] ({ab:#x} != {ba:#x})"
                ));
            }
        }
    }
    Ok(checked)
}

proptest! {
    /// Footprint-disjoint pairs commute on the scripted hub workload.
    #[test]
    fn independent_pairs_commute_on_hub(seed in 0u64..1_000_000, steps in 0usize..14) {
        let scenario = testutil::hub_ping_scenario(2);
        let config = CheckerConfig::default();
        let state = random_state(&scenario, &config, seed, steps);
        let outcome = check_commutation(&state, &scenario, &config);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Footprint-disjoint pairs commute under symbolic packet discovery,
    /// where send enabledness depends on the controller state.
    #[test]
    fn independent_pairs_commute_under_discovery(seed in 0u64..1_000_000, steps in 0usize..10) {
        let scenario = testutil::discovery_scenario(
            Box::new(testutil::DstOnlyLearningApp::default()),
            1,
        );
        let config = CheckerConfig::default();
        let state = random_state(&scenario, &config, seed, steps);
        let outcome = check_commutation(&state, &scenario, &config);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Fault-injection transitions (channel faults, crashes, reconnects)
    /// obey the same independence relation: any footprint-disjoint pair —
    /// fault/fault or fault/non-fault — commutes both ways to the same
    /// fingerprint.
    #[test]
    fn independent_pairs_commute_under_fault_injection(
        seed in 0u64..1_000_000,
        steps in 0usize..14,
    ) {
        let scenario = faulty_hub_scenario(2);
        let config = CheckerConfig::default().with_fault_injection(true);
        let state = random_state(&scenario, &config, seed, steps);
        let outcome = check_commutation(&state, &scenario, &config);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Deterministic smoke check that the property is not vacuous: the walk
/// actually produces states with independent pairs to exercise.
#[test]
fn commutation_property_is_not_vacuous() {
    let scenario = testutil::hub_ping_scenario(2);
    let config = CheckerConfig::default();
    let mut total = 0;
    for seed in 0..40 {
        for steps in [4, 8, 12] {
            let state = random_state(&scenario, &config, seed, steps);
            total += check_commutation(&state, &scenario, &config).expect("commutation");
        }
    }
    assert!(
        total > 0,
        "no independent pairs were ever generated; the property is vacuous"
    );
}

/// The fault leg is not vacuous either: the walk reaches states with
/// independent (fault, non-fault) pairs, and they commute.
#[test]
fn fault_commutation_covers_mixed_pairs() {
    let scenario = faulty_hub_scenario(2);
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut mixed = 0;
    for seed in 0..60 {
        for steps in [2, 5, 8, 11] {
            let state = random_state(&scenario, &config, seed, steps);
            check_commutation(&state, &scenario, &config).expect("commutation under faults");
            let enabled = enabled_transitions(&state, &scenario, &config);
            for i in 0..enabled.len() {
                for j in (i + 1)..enabled.len() {
                    let (a, b) = (&enabled[i], &enabled[j]);
                    if independent(a, b, &state, &scenario)
                        && (a.fault_counter_index().is_some() != b.fault_counter_index().is_some())
                    {
                        mixed += 1;
                    }
                }
            }
        }
    }
    assert!(
        mixed > 0,
        "no independent (fault, non-fault) pairs were ever generated; the fault leg is vacuous"
    );
}
