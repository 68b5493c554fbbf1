//! ASCII timeline rendering of a trace: one lane per component.
//!
//! Each column is one trace step; each row is the controller, a switch, or
//! a host. Symbols mark what the step did on each lane:
//!
//! | symbol | meaning |
//! |--------|---------|
//! | `M`    | a packet send (host injection) |
//! | `R`    | a packet delivered to a host |
//! | `W`    | a flow-mod (rule installed or deleted) |
//! | `B`    | a barrier message processed |
//! | `⚡`   | an injected fault (crash, channel fault, failover, mutation) |
//! | `!`    | a property violation fired here |
//! | `*`    | other activity on the step's component |
//! | `.`    | idle |
//!
//! The renderer replays the trace (deterministic 1-worker engine) to see
//! the events each step emits, so the lanes reflect what actually happened
//! — not just the transition labels.

use crate::checker::ModelChecker;
use crate::properties::Event;
use crate::replay::{Replayer, StepResult};
use crate::trace::Trace;
use crate::transition::Transition;
use nice_openflow::{HostId, OfMessage, SwitchId};
use std::collections::HashMap;
use std::fmt;

/// One row of the timeline.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The component label (`ctrl`, `sw1`, `h2`, ...).
    pub label: String,
    /// One symbol per trace step.
    pub cells: Vec<char>,
}

/// A rendered timeline: lanes, the step labels, and the violation the
/// trace ends in (if replay reproduced one).
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The scenario the trace belongs to.
    pub scenario: String,
    /// One lane per component: controller first, then switches, then hosts.
    pub lanes: Vec<Lane>,
    /// The human-readable transition labels, one per column.
    pub steps: Vec<String>,
    /// The first violation replay observed, as `(property, message)`.
    pub violation: Option<(String, String)>,
}

impl Timeline {
    /// True if any lane shows any activity (used by CI smoke checks).
    pub fn has_activity(&self) -> bool {
        self.lanes
            .iter()
            .any(|lane| lane.cells.iter().any(|&c| c != IDLE))
    }

    /// Renders the timeline as text (also available through `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timeline: {} — {} steps",
            self.scenario,
            self.steps.len()
        )?;
        if let Some((property, message)) = &self.violation {
            write!(f, ", violation of {property}: {message}")?;
        }
        writeln!(f)?;
        let width = self.lanes.iter().map(|l| l.label.len()).max().unwrap_or(0);
        for lane in &self.lanes {
            write!(f, "  {:<width$} |", lane.label)?;
            for &cell in &lane.cells {
                write!(f, " {cell}")?;
            }
            writeln!(f, " |")?;
        }
        writeln!(
            f,
            "  legend: M send, R receive, W flow-mod, B barrier, \u{26a1} fault, ! violation"
        )?;
        writeln!(f, "  steps:")?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "    {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

const IDLE: char = '.';
const FAULT: char = '\u{26a1}'; // ⚡

/// Which lane a symbol lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LaneKey {
    Ctrl,
    Switch(SwitchId),
    Host(HostId),
}

/// The component a transition acts on.
fn anchor(transition: &Transition) -> LaneKey {
    match transition {
        Transition::HostSend { host, .. }
        | Transition::HostReceive { host }
        | Transition::HostMove { host, .. }
        | Transition::DiscoverPackets { host } => LaneKey::Host(*host),
        Transition::ControllerHandle { .. } | Transition::ControllerFailover => LaneKey::Ctrl,
        Transition::ProcessPacket { switch }
        | Transition::ProcessOf { switch }
        | Transition::DiscoverStats { switch }
        | Transition::InjectStats { switch, .. }
        | Transition::ChannelFault { switch, .. }
        | Transition::SwitchCrash { switch }
        | Transition::SwitchReconnect { switch }
        | Transition::MutateOfHead { switch, .. } => LaneKey::Switch(*switch),
    }
}

/// Higher-priority symbols overwrite lower ones in the same cell.
fn priority(symbol: char) -> u8 {
    match symbol {
        '!' => 6,
        FAULT => 5,
        'B' => 4,
        'W' => 3,
        'M' | 'R' => 2,
        '*' => 1,
        _ => 0,
    }
}

/// Replays a trace and renders it as a per-component timeline. Errors if
/// the trace diverges (is not a real execution of the checker's scenario).
pub fn render_timeline(checker: &ModelChecker, trace: &Trace) -> Result<Timeline, String> {
    let transitions = &trace.steps;
    let columns = transitions.len();

    // Lanes: controller, then switches and hosts in id order.
    let topology = &checker.scenario().topology;
    let mut keys: Vec<(LaneKey, String)> = vec![(LaneKey::Ctrl, "ctrl".to_string())];
    let mut switches: Vec<SwitchId> = topology.switches().map(|s| s.id).collect();
    switches.sort_by_key(|s| s.0);
    keys.extend(
        switches
            .iter()
            .map(|&s| (LaneKey::Switch(s), format!("sw{}", s.0))),
    );
    let mut hosts: Vec<HostId> = topology.hosts().map(|h| h.id).collect();
    hosts.sort_by_key(|h| h.0);
    keys.extend(
        hosts
            .iter()
            .map(|&h| (LaneKey::Host(h), format!("h{}", h.0))),
    );

    let index: HashMap<LaneKey, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (*key, i))
        .collect();
    let mut grid: Vec<Vec<char>> = vec![vec![IDLE; columns]; keys.len()];
    let mark = |grid: &mut Vec<Vec<char>>, key: LaneKey, col: usize, symbol: char| {
        if let Some(&lane) = index.get(&key) {
            if priority(symbol) > priority(grid[lane][col]) {
                grid[lane][col] = symbol;
            }
        }
    };

    let mut replayer = Replayer::new(checker, &trace.engine);
    let mut violation: Option<(String, String)> = None;
    for (col, transition) in transitions.iter().enumerate() {
        // Peek the control channels before executing: a ProcessOf that is
        // about to consume a BarrierRequest (or a ControllerHandle about to
        // consume a BarrierReply) is a barrier step.
        match transition {
            Transition::ProcessOf { switch } => {
                if let Some(channel) = replayer.state().ctrl_to_sw(*switch) {
                    if matches!(channel.peek(), Some(OfMessage::BarrierRequest { .. })) {
                        mark(&mut grid, LaneKey::Switch(*switch), col, 'B');
                    }
                }
            }
            Transition::ControllerHandle { switch } => {
                if let Some(channel) = replayer.state().sw_to_ctrl(*switch) {
                    if matches!(channel.peek(), Some(OfMessage::BarrierReply { .. })) {
                        mark(&mut grid, LaneKey::Ctrl, col, 'B');
                    }
                }
            }
            _ => {}
        }

        let lane = anchor(transition);
        let base = if transition.fault_counter_index().is_some() {
            FAULT
        } else {
            match transition {
                Transition::HostSend { .. } => 'M',
                Transition::HostReceive { .. } => 'R',
                _ => '*',
            }
        };
        mark(&mut grid, lane, col, base);

        match replayer.step(transition) {
            StepResult::Diverged => {
                return Err(format!(
                    "trace diverges at step {}: '{transition}' is not enabled",
                    col + 1
                ));
            }
            StepResult::Executed(violations) => {
                let events: Vec<Event> = replayer.last_events().to_vec();
                for event in &events {
                    match event {
                        Event::PacketInjected { host, .. } => {
                            mark(&mut grid, LaneKey::Host(*host), col, 'M');
                        }
                        Event::PacketDeliveredToHost { host, .. } => {
                            mark(&mut grid, LaneKey::Host(*host), col, 'R');
                        }
                        Event::RuleInstalled { switch, .. } | Event::RuleDeleted { switch, .. } => {
                            mark(&mut grid, LaneKey::Switch(*switch), col, 'W');
                        }
                        _ => {}
                    }
                }
                if let Some((property, message)) = violations.into_iter().next() {
                    mark(&mut grid, lane, col, '!');
                    violation.get_or_insert((property, message));
                }
            }
        }
    }

    // Final-state violations fire in the terminal state the last step
    // produced; mark them on the last step's lane.
    if violation.is_none() && columns > 0 && replayer.terminal() {
        if let Some((property, message)) = replayer.check_final().into_iter().next() {
            mark(
                &mut grid,
                anchor(&transitions[columns - 1]),
                columns - 1,
                '!',
            );
            violation = Some((property, message));
        }
    }

    let lanes = keys
        .into_iter()
        .zip(grid)
        .map(|((_, label), cells)| Lane { label, cells })
        .collect();
    Ok(Timeline {
        scenario: trace.scenario.clone(),
        lanes,
        steps: transitions.iter().map(|t| t.to_string()).collect(),
        violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;

    #[test]
    fn timeline_renders_lanes_and_marks_the_violation() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let timeline = render_timeline(&checker, &violation.trace).expect("timeline");
        assert!(timeline.has_activity());
        assert_eq!(timeline.steps.len(), violation.trace.len());
        assert!(timeline.lanes.iter().any(|l| l.label == "ctrl"));
        assert!(timeline.lanes.iter().any(|l| l.label.starts_with("sw")));
        assert!(timeline.lanes.iter().any(|l| l.label.starts_with('h')));
        let (property, _) = timeline.violation.as_ref().expect("violation marked");
        assert_eq!(property, &violation.property);
        assert!(
            timeline.lanes.iter().any(|l| l.cells.contains(&'!')),
            "{}",
            timeline.render()
        );
        let text = timeline.render();
        assert!(text.contains("legend"));
        assert!(text.contains("steps:"));
    }

    #[test]
    fn timeline_marks_host_sends() {
        let scenario = testutil::hub_ping_scenario(1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        // Drive a deterministic execution to completion and render it.
        let mut replayer =
            crate::replay::Replayer::new(&checker, &crate::trace::TraceEngine::default());
        let mut steps = Vec::new();
        while let Some(t) = replayer.selected().first().cloned() {
            replayer.step_unchecked(&t);
            steps.push(t);
            if steps.len() > 200 {
                break;
            }
        }
        let trace = crate::trace::Trace::from_transitions(
            &checker.scenario().name,
            crate::trace::TraceEngine::default(),
            steps,
        );
        let timeline = render_timeline(&checker, &trace).expect("timeline");
        assert!(timeline.has_activity());
        assert!(
            timeline.lanes.iter().any(|l| l.cells.contains(&'M')),
            "a ping workload must show a packet send:\n{}",
            timeline.render()
        );
        assert!(timeline.violation.is_none());
    }
}
