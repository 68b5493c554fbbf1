//! Reference seconds: wall time with the machine's clock-speed wobble
//! divided out.
//!
//! The boxes this benchmark runs on change their effective clock by about a
//! quarter every few seconds (turbo states under the host's other tenants):
//! back-to-back ten-second medians of one unchanged search came out 14 %
//! apart, two-humped, and a pure dependency chain of integer operations
//! wobbled in step with them. A metric that moves 14 % by itself cannot
//! hold a 10 % bound. So every timed interval is bracketed by a few
//! milliseconds of exactly such a chain, whose instruction count never
//! changes, and the interval's wall time is scaled by how fast the chain
//! ran next to it. The same ten-second medians, scaled, are 0.7 % apart.
//!
//! One reference second is one second on a machine that retires the chain
//! at `REFERENCE_NS_PER_ITERATION`: this box at its base clock, so the
//! numbers stay close to what a stopwatch shows. Result files keep the raw
//! wall-clock medians next to the scaled ones. The scaling cancels between
//! two commits measured by the same benchmark, which is all a comparison
//! needs; it does not make numbers from different machines comparable.

use std::time::Instant;

/// Steps of the chain per slice: about four milliseconds, long enough to
/// dwarf timer jitter, short enough to cost little next to a 50 ms
/// operation.
const ITERATIONS: u64 = 2_500_000;

/// How long one step of the chain takes on the reference machine.
const REFERENCE_NS_PER_ITERATION: f64 = 1.85;

/// What a slice takes on the reference machine.
const REFERENCE_SLICE_S: f64 = ITERATIONS as f64 * REFERENCE_NS_PER_ITERATION * 1e-9;

/// One measurement of the clock next to a timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall (and CPU) seconds the measurement itself took.
    pub cost_s: f64,
    /// Seconds the chain took, or would take on the reference machine.
    pace_s: f64,
}

/// Runs one calibration slice. Only a workload that keeps a single core
/// busy is calibrated: the wobble is that of one core boosting alone, and
/// with both cores busy the clock holds still (the same twelve-second
/// medians of the two-worker and the served workload were 1.7 % and 5.2 %
/// apart raw, 2.4 % and 3.6 % to 5.0 % apart scaled by one- or two-thread
/// slices). Uncalibrated, a slice costs nothing and scales by one.
pub fn slice(calibrated: bool) -> Slice {
    if !calibrated {
        return Slice {
            cost_s: 0.0,
            pace_s: REFERENCE_SLICE_S,
        };
    }
    let started = Instant::now();
    // Each step needs the one before it, so the chain runs at the speed of
    // the core's clock and nothing else: no memory, no parallelism for the
    // compiler or the core to find.
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    let seconds = started.elapsed().as_secs_f64();
    Slice {
        cost_s: seconds,
        pace_s: seconds,
    }
}

/// The factor that turns wall seconds measured between two slices into
/// reference seconds.
pub fn scale(before: Slice, after: Slice) -> f64 {
    REFERENCE_SLICE_S / ((before.pace_s + after.pace_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paced(pace_s: f64) -> Slice {
        Slice {
            cost_s: pace_s,
            pace_s,
        }
    }

    #[test]
    fn a_machine_at_reference_speed_scales_by_one() {
        let reference = REFERENCE_SLICE_S;
        assert!((scale(paced(reference), paced(reference)) - 1.0).abs() < 1e-12);
        // Twice as slow next to the interval: the interval counts half.
        assert!((scale(paced(2.0 * reference), paced(2.0 * reference)) - 0.5).abs() < 1e-12);
        assert!((scale(paced(reference), paced(3.0 * reference)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_slice_takes_measurable_time_unless_calibration_is_off() {
        let on = slice(true);
        assert!(on.cost_s > 1e-5 && on.cost_s < 1.0, "{on:?}");
        let off = slice(false);
        assert_eq!(off.cost_s, 0.0);
        assert_eq!(scale(off, off), 1.0);
    }
}
