//! Process and host readings from `/proc` and the cgroup filesystem:
//! resident memory, CPU time, runqueue wait, host steal and the CPU quota.
//! Every reader degrades to zero/absent when the file is missing, so the
//! benchmark still runs (with a flat noise record) off Linux.

use std::collections::BTreeMap;

/// Kernel clock ticks per second for `/proc/*/stat` and `/proc/stat`
/// (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

fn status_kib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Current resident set size, MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:").unwrap_or(0.0) / 1024.0
}

/// Peak resident set size since start (or the last [`reset_peak_rss`]), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mib`] reports the peak of the measured phase alone. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User plus system CPU seconds consumed by the whole process so far
/// (exited threads included).
pub fn process_cpu_s() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Nanoseconds each live thread of this process has spent waiting on a
/// runqueue (`/proc/self/task/*/schedstat`, second field), by thread id.
pub fn runqueue_wait_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(wait) = text.split_whitespace().nth(1).and_then(|w| w.parse().ok()) {
            out.insert(tid, wait);
        }
    }
    out
}

/// Host-wide steal time so far (`/proc/stat`, aggregate `cpu` line), ms.
pub fn host_steal_ms() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    text.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ * 1e3)
}

/// The cgroup CPU quota in CPUs, or `None` when unlimited or unreadable
/// (v2 `cpu.max` of `max`, v1 `cpu.cfs_quota_us` of `-1`).
pub fn cgroup_cpu_quota() -> Option<f64> {
    if let Ok(text) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        let mut it = text.split_whitespace();
        let quota = it.next()?.parse::<f64>().ok()?;
        let period = it.next()?.parse::<f64>().ok()?;
        return (period > 0.0).then(|| quota / period);
    }
    let quota: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    let period: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// The noise readings bracketing one measured phase.
#[derive(Debug, Clone)]
pub struct NoiseProbe {
    cpu_s: f64,
    steal_ms: f64,
    runqueue: BTreeMap<u64, u64>,
}

/// What happened to the process and host during a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Host steal, ms.
    pub steal_ms: f64,
    /// Runqueue wait summed over this process's threads, ms.
    pub runqueue_wait_ms: f64,
}

impl NoiseProbe {
    /// Takes the opening readings.
    pub fn start() -> Self {
        NoiseProbe {
            cpu_s: process_cpu_s(),
            steal_ms: host_steal_ms(),
            runqueue: runqueue_wait_ns(),
        }
    }

    /// Takes the closing readings. Threads born during the phase count in
    /// full; threads that exited during it are lost to the runqueue sum
    /// (call this before joining the phase's threads).
    pub fn stop(&self) -> Noise {
        let wait_ns: u64 = runqueue_wait_ns()
            .iter()
            .map(|(tid, &w)| w.saturating_sub(self.runqueue.get(tid).copied().unwrap_or(0)))
            .sum();
        Noise {
            cpu_s: process_cpu_s() - self.cpu_s,
            steal_ms: host_steal_ms() - self.steal_ms,
            runqueue_wait_ms: wait_ns as f64 / 1e6,
        }
    }
}

/// Returns freed heap memory to the kernel, so the resident size after
/// input generation counts the inputs, not the synthesiser's garbage.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes a plain size, touches only the
    // allocator's own free lists under its own lock, and is safe to call
    // from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Returns freed heap memory to the kernel (no-op off glibc).
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}
