//! The allocation budget of the search, pinned where the clock cannot be:
//! the number of trips to the allocator one search makes is deterministic,
//! so a change that puts a per-transition allocation back (a `Vec` of empty
//! child sleep sets per expansion, a sorted footprint per transition, a deep
//! copy per inherited sleeper) fails here, on every machine, by a number.
//! The explored set's peak bytes per state are as deterministic, and pinned
//! beside them, and so is what one clone of a search state costs.
//!
//! Its own test binary: the counting allocator is process-wide, and counts
//! only on the thread that asked it to, so the tests do not count each
//! other's trips.

use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice::mc::SystemState;
use nice::prelude::*;
use nice_apps::workloads::{chain_ping_workload, ping_workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(trips)` while this thread is counting its trips to the
    /// allocator.
    static TRIPS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls of threads that are counting.
struct Counting;

impl Counting {
    fn trip() {
        // A thread being torn down has no counter left, and is not counting.
        let _ = TRIPS.try_with(|trips| trips.set(trips.get().map(|n| n + 1)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` initialised
// by a constant, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::trip();
        // SAFETY: the caller's obligations for `alloc` are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::trip();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::trip();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns what it returned and the trips to the allocator
/// it made on this thread.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    TRIPS.set(Some(0));
    let done = work();
    let trips = TRIPS.replace(None).expect("still counting");
    (done, trips)
}

#[test]
fn a_search_stays_inside_its_allocation_budget() {
    // (workload, reduction, unique states, transitions, allocations per
    // transition, peak explored-set bytes per unique state). Each ceiling is
    // the measured value plus under 5 %. On chain:5:2 a transition made
    // 13.15 trips without a reduction and 12.63 under POR while every
    // successor copied the queue of each channel it popped, the port list
    // of each switch it wrote and seven sorted vectors per clone, and 8.75
    // and 9.64 (8.95 on ping:3) while re-learning a MAC address the table
    // already held un-shared the whole table, and 8.56 and 9.33 (8.69 on
    // ping:3) while every expanded node allocated its own list of enabled
    // transitions; it makes 7.92 and 8.45 now (8.19 on ping:3). A store that keeps a private sleep-digest list per
    // state again reads 37.7 explored bytes per state under POR (it reads
    // 32.4). Without POR the store holds one 8-byte fingerprint per slot:
    // 16.1 and 14.6 bytes per state on chain:5:2 and ping:3, where a
    // sleep-list ref in every slot read 24.1 and 21.9.
    let legs = [
        ("chain:5:2", ReductionKind::None, 6_941, 11_044, 8.3, 16.9),
        ("chain:5:2", ReductionKind::Por, 6_039, 6_725, 8.8, 33.5),
        ("ping:3", ReductionKind::None, 5_889, 12_224, 8.5, 15.3),
    ];
    for (workload, reduction, states, transitions, ceiling, bytes_ceiling) in legs {
        let config = CheckerConfig::default()
            .with_stop_at_first(false)
            .with_max_transitions(0)
            .with_workers(1)
            .with_reduction(reduction);
        let scenario = match workload {
            "chain:5:2" => chain_ping_workload(5, 2),
            // Table 1's row: two switches, no property to check.
            _ => ping_workload(3, true),
        };
        let checker = ModelChecker::new(scenario, config);
        let (report, allocations) = counted(|| checker.run());
        let label = format!("{workload}, reduction {}", reduction.name());
        // The counts first: a budget per transition means nothing for a
        // different search.
        assert_eq!(report.stats.unique_states, states, "{label}");
        assert_eq!(report.stats.transitions, transitions, "{label}");
        let per_transition = allocations as f64 / transitions as f64;
        assert!(
            per_transition <= ceiling,
            "{label}: {allocations} allocations = {per_transition:.2} per executed transition, \
             over the budget of {ceiling}"
        );
        let peak = report.stats.peak_explored_bytes;
        let bytes_per_state = peak as f64 / states as f64;
        assert!(
            bytes_per_state <= bytes_ceiling,
            "{label}: the explored set peaked at {peak} bytes = {bytes_per_state:.1} per unique \
             state, over the budget of {bytes_ceiling}"
        );
        println!(
            "{label}: {allocations} allocations = {per_transition:.2} per transition, \
             {peak} explored bytes = {bytes_per_state:.1} per state"
        );
    }
}

/// A frontier node clones its state once per successor, so a clone of a
/// settled state — every clone is born settled — holds to one trip to the
/// allocator: the cell table, whatever the state holds. Checked at every
/// step of a walk deep into `chain:5:2`.
#[test]
fn cloning_a_settled_state_makes_at_most_one_allocation() {
    let scenario = chain_ping_workload(5, 2);
    let config = CheckerConfig::default();
    let (mut memo, mut events) = (DiscoveryMemo::default(), Vec::new());
    let mut state = SystemState::initial(&scenario);
    for step in 0..40 {
        let settled = state.clone();
        let (copy, allocations) = counted(|| settled.clone());
        assert!(
            allocations <= 1,
            "step {step}: a settled clone made {allocations} allocations"
        );
        assert_eq!(copy.fingerprint(), state.fingerprint(), "step {step}");
        let enabled = enabled_transitions(&state, &scenario, &config);
        let Some(taken) = enabled.get(step % enabled.len().max(1)) else {
            panic!("step {step}: the walk ended before it got deep");
        };
        execute(
            &mut state,
            taken,
            &scenario,
            &config,
            &mut memo,
            &mut events,
        );
        events.clear();
    }
}
