//! Process accounting read from `/proc` (Linux only, like `nice serve`'s
//! Unix socket).

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux architecture this benchmark runs on; reading it properly
/// needs `sysconf`, which the standard library does not expose.
const USER_HZ: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the command name, which may itself
/// contain spaces and parentheses.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
    (fields.len() > CSTIME).then_some(fields)
}

// Indices into `stat_fields`: field 3 of stat(5) is index 0.
const STATE: usize = 0;
const PPID: usize = 1;
const UTIME: usize = 11;
const STIME: usize = 12;
const CUTIME: usize = 13;
const CSTIME: usize = 14;

fn ticks(fields: &[String], indices: &[usize]) -> Option<f64> {
    let mut total = 0.0;
    for &i in indices {
        total += fields.get(i)?.parse::<f64>().ok()?;
    }
    Some(total / USER_HZ)
}

/// CPU seconds (user + system) of this process and of every child it has
/// waited for.
pub fn cpu_seconds_self_and_reaped() -> Option<f64> {
    ticks(&stat_fields("self")?, &[UTIME, STIME, CUTIME, CSTIME])
}

/// CPU seconds (user + system) of a live process, without its children.
pub fn cpu_seconds_of(pid: u32) -> Option<f64> {
    ticks(&stat_fields(&pid.to_string())?, &[UTIME, STIME])
}

/// Peak resident set size (`VmHWM`) of a process in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The live processes whose parent is `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut children: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|child| {
            stat_fields(&child.to_string()).and_then(|f| f.get(PPID)?.parse::<u32>().ok())
                == Some(pid)
        })
        .collect();
    children.sort_unstable();
    children
}

/// True while `pid` names a process that still runs. A zombie does not
/// count: it has exited, and when its parent died first it is up to the
/// container's init to reap it, which may take seconds.
pub fn alive(pid: u32) -> bool {
    stat_fields(&pid.to_string()).is_some_and(|fields| fields[STATE] != "Z")
}

/// Waits, up to `timeout`, until none of `pids` is left in the process table,
/// not even as a zombie. Returns the ones that still are.
pub fn wait_reaped(pids: &[u32], timeout: std::time::Duration) -> Vec<u32> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let left: Vec<u32> = pids
            .iter()
            .copied()
            .filter(|pid| fs::metadata(format!("/proc/{pid}")).is_ok())
            .collect();
        if left.is_empty() || std::time::Instant::now() >= deadline {
            return left;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// The one-minute load average.
pub fn loadavg() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The CPU model name of the first processor.
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_accounting() {
        let me = std::process::id();
        assert!(cpu_seconds_self_and_reaped().unwrap() >= 0.0);
        assert!(cpu_seconds_of(me).unwrap() >= 0.0);
        assert!(peak_rss_kib(me).unwrap() > 0);
        assert!(alive(me));
        assert!(loadavg().unwrap() >= 0.0);
    }

    #[test]
    fn finds_a_spawned_child_and_sees_it_go() {
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        assert!(children_of(std::process::id()).contains(&child.id()));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(!alive(child.id()));
        assert!(wait_reaped(&[child.id()], std::time::Duration::from_secs(1)).is_empty());
        let me = std::process::id();
        assert_eq!(wait_reaped(&[me], std::time::Duration::ZERO), [me]);
    }
}
