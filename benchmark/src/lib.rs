//! What the two benchmark binaries share: the contract (`spec`), the pinned
//! outcomes (`expected`), reference seconds (`calibrate`), order statistics,
//! a JSON codec, `/proc`
//! accounting, the `nice serve` fixture, argument parsing and how each
//! workload configures the checker (`workloads`, the only module that names
//! the program under test, and only through the binding surface). So `bench`
//! keeps building whatever happens to the deep API that `probe` reaches into.

pub mod calibrate;
pub mod expected;
pub mod json;
pub mod procfs;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// Where a run leaves its result and trace files, relative to the root of
/// the checkout (`run.sh` changes into it). Relative on purpose: the served
/// workload's Unix socket lives here, and a socket address holds only about
/// a hundred bytes.
pub const OUT_DIR: &str = "benchmark/out";

/// The directory the running binary was built into, where cargo also put
/// `nice`, `nice-dist-worker` and the sibling benchmark binary.
pub fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    exe.parent()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{} has no parent directory", exe.display()))
}

/// The options every mode of both binaries takes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload to run; `None` runs all of them.
    pub workload: Option<String>,
    pub seed: u64,
    /// How long the timed phase lasts; `None` takes `run_seconds`.
    pub seconds: Option<f64>,
    pub trace: bool,
    /// Options this parser does not know, for the caller to take or refuse.
    pub rest: Vec<(String, String)>,
}

impl RunArgs {
    /// Parses `--name value` pairs.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut parsed = RunArgs {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            rest: Vec::new(),
        };
        for pair in args.chunks(2) {
            let [name, value] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            match name.as_str() {
                "--workload" => parsed.workload = Some(value.clone()),
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value}: not a whole number"))?;
                }
                "--seconds" => {
                    let seconds: f64 = value
                        .parse()
                        .map_err(|_| format!("--seconds {value}: not a number"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(format!("--seconds {value}: out of range"));
                    }
                    parsed.seconds = Some(seconds);
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: 0 or 1")),
                    };
                }
                name if name.starts_with("--") => {
                    parsed.rest.push((name.to_string(), value.clone()));
                }
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        Ok(parsed)
    }

    /// Takes the value of an option `parse` left in `rest`.
    pub fn take(&mut self, name: &str) -> Option<String> {
        let index = self.rest.iter().position(|(n, _)| n == name)?;
        Some(self.rest.remove(index).1)
    }

    /// Refuses whatever is still in `rest`.
    pub fn finish(&self) -> Result<(), String> {
        match self.rest.first() {
            Some((name, _)) => Err(format!("unknown option '{name}'")),
            None => Ok(()),
        }
    }
}

/// A small deterministic generator (SplitMix64) for shuffling inputs by
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates. The modulo bias is immaterial for orderings of a few
    /// dozen items.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let mut args = RunArgs::parse(&strings(&[
            "--workload",
            "chain8_deep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--out",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("chain8_deep"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(10.0), true));
        assert!(args.finish().is_err());
        assert_eq!(args.take("--out").as_deref(), Some("x.json"));
        assert!(args.finish().is_ok());
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["stray", "x"],
        ] {
            assert!(RunArgs::parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let order = |seed| {
            let mut items: Vec<u32> = (0..48).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<u32>>());
    }
}
