//! The benchmark's contract, read from the `BENCHMARK.json` at the root of
//! the repo: workloads, metrics, units, directions and regression bounds.
//! The file is compiled in, so the names the binaries print and the names
//! the contract lists cannot drift apart silently (`tests/contract.rs`
//! checks the rest).

use crate::json::{self, Value};

/// The contract as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// One workload: its name and the one-line reason it is in the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the compiled-in contract.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: '{key}' is not a list"))
        };
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = text_of(item, "better")?;
                    Ok(Metric {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                        },
                        bound: item.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: 'run_seconds' is not a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|item| {
                    Ok(Workload {
                        name: text_of(item, "name")?,
                        why: text_of(item, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}

/// The kinds of transition whose `execute` time the step probe reports one
/// by one (`transition.execute_ns.<kind>`): the kinds the six workloads
/// spend time in. The rest is still inside `transition.execute_ns`.
pub const EXECUTE_KINDS: [&str; 10] = [
    "host_send",
    "host_receive",
    "host_move",
    "process_pkt",
    "process_of",
    "ctrl_handle",
    "discover_packets",
    "discover_stats",
    "process_stats",
    "channel_fault",
];
