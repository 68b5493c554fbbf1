//! The served workload's fixture: one `nice serve` with its worker
//! processes, started in set-up, asked through `nice submit`, and torn down
//! on every way out of the benchmark that Rust can see (return, error,
//! panic). Ctrl-C reaches the server too, because it stays in the
//! benchmark's process group.

use crate::expected::Expect;
use crate::{procfs, OUT_DIR};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the server may take to announce that it listens.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long orphaned workers get to notice their closed pipes.
const EXIT_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Server {
    nice: PathBuf,
    socket: String,
    child: Option<Child>,
    workers: Vec<u32>,
    /// Seconds from spawning `nice serve` to its "listening" line.
    pub spawn_s: f64,
}

impl Server {
    /// Starts `nice serve --workers <workers>` on a fresh socket under
    /// `benchmark/out/` and waits until it listens and its pool is up.
    pub fn start(bin_dir: &Path, workers: usize) -> Result<Server, String> {
        let nice = bin_dir.join("nice");
        // The guard against a half-built tree: `nice serve` looks for its
        // worker binary next to itself and would only fail at the first job.
        for binary in [&nice, &bin_dir.join("nice-dist-worker")] {
            if !binary.is_file() {
                return Err(format!(
                    "{} is missing; `benchmark/run.sh` builds it",
                    binary.display()
                ));
            }
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let socket = format!("{OUT_DIR}/serve-{}.sock", std::process::id());
        let started = Instant::now();
        let mut child = Command::new(&nice)
            .args(["serve", "--socket", &socket, "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nice.display()))?;
        // The server logs two lines per job; somebody has to keep reading
        // them or it blocks on a full pipe after a few hundred jobs.
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let (ready_tx, ready_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut ready_tx = Some(ready_tx);
            for line in stderr.lines().map_while(Result::ok) {
                if line.contains("listening on") {
                    if let Some(tx) = ready_tx.take() {
                        let _ = tx.send(Ok(()));
                    }
                } else if let Some(tx) = &ready_tx {
                    // Whatever it says before it listens is why it will not.
                    let _ = tx.send(Err(line));
                }
            }
        });
        let mut server = Server {
            nice,
            socket,
            child: Some(child),
            workers: Vec::new(),
            spawn_s: 0.0,
        };
        match ready_rx.recv_timeout(START_TIMEOUT) {
            Ok(Ok(())) => {}
            Ok(Err(line)) => return Err(format!("nice serve: {line}")),
            Err(_) => return Err("nice serve did not start listening".to_string()),
        }
        server.spawn_s = started.elapsed().as_secs_f64();
        server.workers = procfs::children_of(server.pid());
        if server.workers.len() != workers {
            return Err(format!(
                "nice serve has {} worker processes, expected {workers}",
                server.workers.len()
            ));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("the server is running").id()
    }

    /// The server and its workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.pid()];
        pids.extend(&self.workers);
        pids
    }

    /// One round trip: `nice submit <scenario> --all-violations
    /// --max-transitions 0 --quiet`, checked against `expect`. Returns the
    /// transitions the service executed.
    pub fn submit(&self, scenario: &str, expect: &Expect) -> Result<u64, String> {
        let output = Command::new(&self.nice)
            .args(["submit", scenario, "--socket", &self.socket])
            .args(["--all-violations", "--max-transitions", "0", "--quiet"])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run nice submit: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "nice submit {scenario}: {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (unique_states, transitions, violated) = parse_verdict(&stdout).ok_or_else(|| {
            format!("nice submit {scenario}: cannot read verdict from {stdout:?}")
        })?;
        expect
            .check(&violated, unique_states, transitions)
            .map_err(|why| format!("nice submit {scenario}: {why}"))?;
        Ok(transitions)
    }

    /// Stops the server and makes sure nothing of it is left: no process,
    /// no socket.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let _ = child.kill();
        let _ = child.wait();
        // The workers exit when the pipes to their dead parent close.
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while self.workers.iter().any(|&w| procfs::alive(w)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stale: Vec<u32> = self
            .workers
            .iter()
            .copied()
            .filter(|&w| procfs::alive(w))
            .collect();
        for pid in &stale {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let _ = std::fs::remove_file(&self.socket);
        if stale.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "worker processes {stale:?} outlived nice serve and had to be killed"
            ))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Reads `nice submit`'s report: `<spec>: N unique states, M transitions,
/// K violations (T s)` followed by one `violated: <property>` line each.
fn parse_verdict(stdout: &str) -> Option<(u64, u64, BTreeSet<String>)> {
    let mut lines = stdout.lines();
    let words: Vec<&str> = lines.next()?.split_whitespace().collect();
    let before = |marker: &str| -> Option<u64> {
        let at = words
            .iter()
            .position(|w| w.trim_end_matches(',') == marker)?;
        words.get(at.checked_sub(1)?)?.parse().ok()
    };
    let unique_states = before("unique")?;
    let transitions = before("transitions")?;
    let violated = lines
        .filter_map(|l| l.trim().strip_prefix("violated: "))
        .map(str::to_string)
        .collect();
    Some((unique_states, transitions, violated))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_submit_report() {
        let (states, transitions, violated) = parse_verdict(
            "chain:5:2: 6941 unique states, 11044 transitions, 0 violations (0.412s)\n",
        )
        .unwrap();
        assert_eq!((states, transitions), (6941, 11044));
        assert!(violated.is_empty());
        let (_, _, violated) = parse_verdict(
            "bug-v: 1367 unique states, 2569 transitions, 2 violations (0.1s)\n  violated: NoForgottenPackets\n",
        )
        .unwrap();
        assert_eq!(violated, BTreeSet::from(["NoForgottenPackets".to_string()]));
        assert_eq!(parse_verdict("server error: nope\n"), None);
    }
}
