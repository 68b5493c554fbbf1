//! The pinned outcomes of every operation (`expected.json`).
//!
//! Verdicts come from the scenario registry (`expected_violation`; the
//! `*-fixed` variants must pass) and the paper's Table 2 found/missed
//! matrix; the state and transition counts of the exhaustive legs are those
//! of the sequential engine at the commit that added the benchmark. The
//! parallel and the served operations are held to the same counts: an
//! exhaustive search without partial-order reduction visits the same states
//! whoever expands them.

use crate::json::{self, Value};
use std::collections::BTreeSet;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// What one search must report.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// The set of violated properties; empty means the check must pass.
    pub violated: BTreeSet<String>,
    /// `(unique_states, transitions)`, pinned for exhaustive searches only:
    /// a search that stops at its first violation may legitimately reach it
    /// by another path.
    pub counts: Option<(u64, u64)>,
}

impl Expect {
    fn from_json(value: &Value) -> Option<Expect> {
        let violated = value
            .get("violated")?
            .as_arr()?
            .iter()
            .map(|p| p.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        let count = |key: &str| value.get(key).and_then(Value::as_u64);
        Some(Expect {
            violated,
            counts: count("unique_states").zip(count("transitions")),
        })
    }

    /// Compares a search's outcome with the pin; the error says what
    /// differs.
    pub fn check(
        &self,
        violated: &BTreeSet<String>,
        unique_states: u64,
        transitions: u64,
    ) -> Result<(), String> {
        if *violated != self.violated {
            return Err(format!(
                "violated {violated:?}, expected {:?}",
                self.violated
            ));
        }
        match self.counts {
            Some(counts) if counts != (unique_states, transitions) => Err(format!(
                "{unique_states} states / {transitions} transitions, expected {} / {}",
                counts.0, counts.1
            )),
            _ => Ok(()),
        }
    }
}

/// All pins, by workload.
pub struct Expected(Value);

impl Expected {
    pub fn load() -> Expected {
        Expected(json::parse(EXPECTED_JSON).expect("the committed expected.json is well-formed"))
    }

    /// The scenario spec a single-search workload checks (`ping:4`, ...) and
    /// what the search must report.
    pub fn search(&self, workload: &str) -> Result<(&str, Expect), String> {
        let entry = self.0.get(workload);
        entry
            .and_then(|e| e.get("scenario")?.as_str())
            .zip(entry.and_then(Expect::from_json))
            .ok_or_else(|| format!("expected.json has no search pinned for '{workload}'"))
    }

    /// The pin of one Table 2 cell: bug label (`"V"`) × strategy name
    /// (`"NO-DELAY"`).
    pub fn cell(&self, bug: &str, strategy: &str) -> Option<Expect> {
        let cells = self.0.get("table2_bughunt")?.get("cells")?.as_arr()?;
        cells
            .iter()
            .find(|c| {
                c.get("bug").and_then(Value::as_str) == Some(bug)
                    && c.get("strategy").and_then(Value::as_str) == Some(strategy)
            })
            .and_then(Expect::from_json)
    }

    /// The pin of one `*-fixed` registry scenario, searched exhaustively.
    pub fn fixed(&self, scenario: &str) -> Option<Expect> {
        let fixed = self.0.get("table2_bughunt")?.get("fixed")?.as_arr()?;
        fixed
            .iter()
            .find(|f| f.get("scenario").and_then(Value::as_str) == Some(scenario))
            .and_then(Expect::from_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_what_differs() {
        let expect = Expect {
            violated: BTreeSet::from(["NoForgottenPackets".to_string()]),
            counts: Some((10, 20)),
        };
        assert!(expect.check(&expect.violated, 10, 20).is_ok());
        assert!(expect
            .check(&expect.violated, 10, 21)
            .unwrap_err()
            .contains("expected 10 / 20"));
        assert!(expect
            .check(&BTreeSet::new(), 10, 20)
            .unwrap_err()
            .contains("NoForgottenPackets"));
        let verdict_only = Expect {
            counts: None,
            ..expect
        };
        assert!(verdict_only.check(&verdict_only.violated, 1, 2).is_ok());
    }

    #[test]
    fn committed_pins_cover_every_operation() {
        let expected = Expected::load();
        for workload in [
            "table1_ping4",
            "chain8_deep",
            "lb_faults_por",
            "parallel2_chain",
            "serve_roundtrip",
        ] {
            let (_, pin) = expected.search(workload).unwrap();
            assert!(pin.counts.is_some(), "{workload} is exhaustive");
        }
        let cells = expected
            .0
            .get("table2_bughunt")
            .unwrap()
            .get("cells")
            .unwrap();
        assert_eq!(cells.as_arr().unwrap().len(), 12 * 4);
        let fixed = expected
            .0
            .get("table2_bughunt")
            .unwrap()
            .get("fixed")
            .unwrap();
        for entry in fixed.as_arr().unwrap() {
            let pin = Expect::from_json(entry).unwrap();
            assert!(pin.violated.is_empty() && pin.counts.is_some());
        }
        assert_eq!(fixed.as_arr().unwrap().len(), 6);
        assert!(expected.search("table2_bughunt").is_err());
    }
}
