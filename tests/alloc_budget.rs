//! The allocation budget of the search, pinned where the clock cannot be:
//! the number of trips to the allocator one search makes is deterministic,
//! so a change that puts a per-transition allocation back (a `Vec` of empty
//! child sleep sets per expansion, a sorted footprint per transition, a deep
//! copy per inherited sleeper) fails here, on every machine, by a number.
//!
//! Its own test binary with a single test: the counting allocator is
//! process-wide, and counts only on the thread that asked it to.

use nice::prelude::*;
use nice_apps::workloads::chain_ping_workload;
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

/// Runs `checker` and returns its report and the trips to the allocator the
/// run made on this thread.
fn counted(checker: &ModelChecker) -> (CheckReport, u64) {
    TRIPS.set(Some(0));
    let report = checker.run();
    let trips = TRIPS.replace(None).expect("still counting");
    (report, trips)
}

#[test]
fn a_search_stays_inside_its_allocation_budget() {
    // (reduction, unique states, transitions, allocations per transition)
    let legs = [
        (ReductionKind::None, 6_941, 11_044, 13.5),
        (ReductionKind::Por, 6_039, 6_725, 14.5),
    ];
    for (reduction, states, transitions, ceiling) in legs {
        let config = CheckerConfig::default()
            .with_stop_at_first(false)
            .with_max_transitions(0)
            .with_workers(1)
            .with_reduction(reduction);
        let checker = ModelChecker::new(chain_ping_workload(5, 2), config);
        let (report, allocations) = counted(&checker);
        let label = format!("chain:5:2, reduction {}", reduction.name());
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
        println!("{label}: {allocations} allocations = {per_transition:.2} per transition");
    }
}
