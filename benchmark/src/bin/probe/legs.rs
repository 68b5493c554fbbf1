//! Legs that go through the `nice` binary: configuration differentials
//! whose flags a later change may remove, and the round trips through
//! `nice serve`.

use nice_benchmark::json::{self, Value};
use nice_benchmark::stats::median;
use std::path::Path;
use std::process::Command;

/// Runs per flag set; the leg's value is the median.
const CLI_RUNS: usize = 3;

/// The median `duration_secs` of `nice run <scenario> --faults
/// --all-violations --max-transitions 0 <extra> --json --quiet` over
/// `CLI_RUNS` runs. An error is the CLI's own words: most likely the flag
/// is gone.
pub fn cli_leg(nice: &Path, scenario: &str, extra: &[&str]) -> Result<f64, String> {
    let mut durations = Vec::new();
    for _ in 0..CLI_RUNS {
        let output = Command::new(nice)
            .args(["run", scenario, "--faults", "--all-violations"])
            .args(["--max-transitions", "0", "--json", "--quiet"])
            .args(extra)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", nice.display()))?;
        let report = json::parse(&String::from_utf8_lossy(&output.stdout)).map_err(|_| {
            format!(
                "nice run {extra:?}: {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
        durations.push(
            report
                .get("duration_secs")
                .and_then(Value::as_f64)
                .ok_or("the run report has no duration_secs")?,
        );
    }
    Ok(median(&durations).expect("CLI_RUNS is not zero"))
}
