//! The shard probe: a two-shard distributed search emulated in one process,
//! with every stage a forwarded state goes through timed on its own.
//!
//! In the real service a state that shard A generates and shard B owns
//! travels `take_forwards` → `forward` frame → pipe → coordinator decode →
//! `states` frame → pipe → worker decode → `inject` (replay from the root).
//! The probe performs the same calls without the pipes, so what `nice
//! serve` adds on top (`serve.pipe_wait_s`) is waiting, not work.

use nice_dist::{read_frame, write_frame, Frame};
use nice_mc::{
    shard_of, CheckerConfig, FrontierExport, ModelChecker, Scenario, ShardSpec, ShardedSearch,
    StepOutcome,
};
use std::time::Instant;

const SHARDS: u32 = 2;
/// Forwarded states kept aside for `decode_batch_ratio`.
const KEPT_EXPORTS: usize = 256;
/// States per frame on the batched side of `decode_batch_ratio`.
const BATCH: usize = 64;

/// Totals of one emulated run.
#[derive(Debug, Default, Clone)]
pub struct ShardRun {
    pub wall_s: f64,
    pub unique_states: u64,
    pub transitions: u64,
    /// States exported to the other shard.
    pub forwards: u64,
    /// Of those, the ones the owner had not seen yet.
    pub accepted: u64,
    /// Frames written (each forwarded state crosses two: worker →
    /// coordinator, coordinator → owner).
    pub frames: u64,
    pub bytes: u64,
    pub step_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub inject_s: f64,
    /// The first `KEPT_EXPORTS` forwarded states, as they were sent.
    pub kept: Vec<FrontierExport>,
}

/// One hop of the wire: encode with the real framing (validation included),
/// decode it again.
fn over_the_wire(frame: &Frame, run: &mut ShardRun) -> Result<Frame, String> {
    let mut wire = Vec::new();
    let started = Instant::now();
    write_frame(&mut wire, frame).map_err(|e| format!("encode: {e}"))?;
    run.encode_s += started.elapsed().as_secs_f64();
    run.frames += 1;
    run.bytes += wire.len() as u64;
    let started = Instant::now();
    let decoded = read_frame(&mut wire.as_slice()).map_err(|e| format!("decode: {e}"))?;
    run.decode_s += started.elapsed().as_secs_f64();
    decoded.ok_or_else(|| "decode: empty frame".to_string())
}

/// Seconds to decode `exports` when they travel `per_frame` to a frame.
fn decode_seconds(exports: &[FrontierExport], per_frame: usize) -> Result<f64, String> {
    let mut scratch = ShardRun::default();
    for states in exports.chunks(per_frame) {
        let frame = Frame::States {
            job: 1,
            states: states.to_vec(),
        };
        over_the_wire(&frame, &mut scratch)?;
    }
    Ok(scratch.decode_s)
}

/// How much longer the same states take to decode 64 to a frame than one to
/// a frame: 1 for a parser that is linear in the frame's size.
pub fn decode_batch_ratio(exports: &[FrontierExport]) -> Result<f64, String> {
    let single = decode_seconds(exports, 1)?;
    let batched = decode_seconds(exports, BATCH)?;
    Ok(if single > 0.0 { batched / single } else { 0.0 })
}

/// Runs the two shards to completion, flushing each shard's exports after
/// every expansion, as the worker process does.
pub fn run(build: &dyn Fn() -> Scenario, config: &CheckerConfig) -> Result<ShardRun, String> {
    let checkers: Vec<ModelChecker> = (0..SHARDS)
        .map(|_| ModelChecker::new(build(), config.clone()))
        .collect();
    let mut shards: Vec<ShardedSearch<'_>> = checkers
        .iter()
        .zip(0..)
        .map(|(checker, index)| {
            ShardedSearch::new(
                checker,
                ShardSpec {
                    index,
                    count: SHARDS,
                },
            )
        })
        .collect();
    let mut run = ShardRun::default();
    let started = Instant::now();
    loop {
        let mut progressed = false;
        for index in 0..shards.len() {
            let step_started = Instant::now();
            progressed |= shards[index].step() == StepOutcome::Expanded;
            run.step_s += step_started.elapsed().as_secs_f64();

            let forwards = shards[index].take_forwards();
            if forwards.is_empty() {
                continue;
            }
            run.forwards += forwards.len() as u64;
            let room = KEPT_EXPORTS.saturating_sub(run.kept.len());
            run.kept.extend(forwards.iter().take(room).cloned());
            // Two shards: everything a shard exports belongs to the other.
            let owner = shard_of(forwards[0].fingerprint, SHARDS) as usize;
            let at_coordinator = over_the_wire(
                &Frame::Forward {
                    job: 1,
                    states: forwards,
                },
                &mut run,
            )?;
            let Frame::Forward { states, .. } = at_coordinator else {
                return Err("a forward frame decoded as something else".to_string());
            };
            let at_owner = over_the_wire(&Frame::States { job: 1, states }, &mut run)?;
            let Frame::States { states, .. } = at_owner else {
                return Err("a states frame decoded as something else".to_string());
            };
            let inject_started = Instant::now();
            for export in states {
                if shards[owner].inject(export) {
                    run.accepted += 1;
                    progressed = true;
                }
            }
            run.inject_s += inject_started.elapsed().as_secs_f64();
        }
        if !progressed {
            break;
        }
    }
    for shard in shards {
        let report = shard.finish();
        run.unique_states += report.stats.unique_states;
        run.transitions += report.stats.transitions;
    }
    run.wall_s = started.elapsed().as_secs_f64();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_apps::workloads::resolve;

    #[test]
    fn two_emulated_shards_visit_what_one_engine_visits() {
        let config = CheckerConfig::default()
            .with_stop_at_first(false)
            .with_max_transitions(0);
        let build = || resolve("chain:3:1").unwrap();
        let solo = ModelChecker::new(build(), config.clone()).run();
        let run = run(&build, &config).unwrap();
        assert_eq!(run.unique_states, solo.stats.unique_states);
        assert_eq!(run.transitions, solo.stats.transitions);
        assert!(run.forwards > 0 && run.accepted <= run.forwards);
        assert!(run.frames >= 2 && run.bytes > 0);
        assert!(!run.kept.is_empty() && run.kept.len() as u64 <= run.forwards);
        assert!(decode_batch_ratio(&run.kept).unwrap() > 0.0);
    }
}
