//! Host counters read from `/proc`: process CPU time, host steal time and
//! the main thread's run-queue wait. They explain a disturbed sample; none
//! of them is a property of the program under test.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc` tick counters (`USER_HZ`,
/// fixed at 100 on Linux for every user-visible interface).
const USER_HZ: f64 = 100.0;

/// One reading of every host counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSnapshot {
    /// Process user + system CPU seconds, all threads, exited ones included.
    pub cpu_s: f64,
    /// Host-wide steal seconds summed over CPUs.
    pub steal_s: f64,
    /// Seconds the main thread waited on a run queue.
    pub runqueue_wait_s: f64,
}

impl HostSnapshot {
    /// Reads every counter now. A counter the host does not expose reads 0.
    pub fn now() -> HostSnapshot {
        HostSnapshot {
            cpu_s: process_cpu_s().unwrap_or(0.0),
            steal_s: host_steal_s().unwrap_or(0.0),
            runqueue_wait_s: runqueue_wait_s().unwrap_or(0.0),
        }
    }

    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSnapshot) -> HostSnapshot {
        HostSnapshot {
            cpu_s: self.cpu_s - earlier.cpu_s,
            steal_s: self.steal_s - earlier.steal_s,
            runqueue_wait_s: self.runqueue_wait_s - earlier.runqueue_wait_s,
        }
    }
}

/// `utime + stime` of this process from `/proc/self/stat`, in seconds.
fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields restart after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// The run-queue wait (second field, ns) of `/proc/self/schedstat`.
fn runqueue_wait_s() -> Option<f64> {
    let raw = fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = raw.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns / 1e9)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the checkout was built from, read from `.git` under `root`
/// without running git; `"unknown"` when the checkout is not a repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
