//! Shared fixtures for the EchoWrite benchmarks.
//!
//! Each bench target regenerates the workload behind one paper table or
//! figure (see `DESIGN.md` §5 for the experiment index). The fixtures here
//! render deterministic audio traces once so the benches measure the
//! pipeline, not the synthesizer.

pub mod stitch;

use echowrite::EchoWrite;
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use std::sync::OnceLock;

/// A process-wide engine (template generation costs a few hundred ms).
pub fn engine() -> &'static EchoWrite {
    static E: OnceLock<EchoWrite> = OnceLock::new();
    E.get_or_init(EchoWrite::new)
}

/// Snapshot of the benchmark host: hardware threads, the cgroup CPU quota
/// that may cap them, the worker count
/// [`Parallelism::Auto`](echowrite::Parallelism) resolves to, and the
/// runtime-dispatched SIMD backend with every feature the dispatcher
/// detected. Recorded in each `BENCH_*.json` environment block so a number
/// can never be compared across hosts (or `ECHOWRITE_SIMD` overrides)
/// without noticing.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnvironment {
    /// Hardware threads reported by the OS.
    pub cpus: usize,
    /// The cgroup CPU quota in CPUs (`quota / period`), or `None` when the
    /// cgroup sets no limit or none is readable.
    pub cgroup_cpu_quota: Option<f64>,
    /// Workers `Parallelism::Auto` resolves to for an unbounded workload.
    pub effective_parallelism: usize,
    /// The SIMD backend the kernel dispatcher selected (honours the
    /// `ECHOWRITE_SIMD` override, so a forced-scalar run records `scalar`).
    pub simd_backend: &'static str,
    /// Every SIMD feature detected on the host, selected or not.
    pub simd_features: &'static [&'static str],
}

impl std::fmt::Display for BenchEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpus={} cgroup_cpu_quota={} effective_parallelism={} simd_backend={} simd_features={}",
            self.cpus,
            self.cgroup_cpu_quota_json(),
            self.effective_parallelism,
            self.simd_backend,
            self.simd_features.join(",")
        )
    }
}

impl BenchEnvironment {
    /// The CPU quota as a JSON value: a number, or `null` without a quota.
    pub fn cgroup_cpu_quota_json(&self) -> String {
        self.cgroup_cpu_quota.map_or_else(|| "null".to_string(), |q| format!("{q}"))
    }
}

/// The cgroup CPU quota in CPUs, read from cgroup v2 `cpu.max` or, failing
/// that, v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us` (read-only).
fn cgroup_cpu_quota() -> Option<f64> {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    if let Some(text) = read("/sys/fs/cgroup/cpu.max") {
        return parse_cpu_max(&text);
    }
    let quota: f64 = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?.trim().parse().ok()?;
    let period: f64 = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?.trim().parse().ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// Parses a cgroup v2 `cpu.max` line, `"<quota|max> <period>"`.
fn parse_cpu_max(text: &str) -> Option<f64> {
    let mut it = text.split_whitespace();
    let quota: f64 = it.next()?.parse().ok()?;
    let period: f64 = it.next()?.parse().ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// Probes the current process's benchmark environment.
pub fn bench_environment() -> BenchEnvironment {
    BenchEnvironment {
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cgroup_cpu_quota: cgroup_cpu_quota(),
        effective_parallelism: echowrite::Parallelism::Auto.workers(usize::MAX),
        simd_backend: echowrite_dsp::kernels::backend().name(),
        simd_features: echowrite_dsp::kernels::detected_features(),
    }
}

/// Prints the environment line once per process — every bench target calls
/// this so each run's log states what the numbers were measured with.
pub fn print_bench_environment() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        println!("bench_environment {}", bench_environment());
    });
}

/// Renders a single-stroke trace in the given environment.
pub fn stroke_trace(stroke: Stroke, env: EnvironmentProfile, seed: u64) -> Vec<f64> {
    let perf = Writer::new(WriterParams::nominal(), seed).write_stroke(stroke);
    Scene::new(DeviceProfile::mate9(), env, seed).render(&perf.trajectory)
}

/// Renders a word trace (stroke sequence of `word`) in the meeting room.
pub fn word_trace(word: &str, seed: u64) -> Vec<f64> {
    let seq = engine().scheme().encode_word(word).expect("letters only");
    let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(&seq);
    Scene::new(
        DeviceProfile::mate9(),
        EnvironmentProfile::meeting_room(),
        seed,
    )
    .render(&perf.trajectory)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_probe_is_sane() {
        let env = bench_environment();
        assert!(env.cpus >= 1);
        assert!(env.effective_parallelism >= 1);
        assert!(!env.simd_backend.is_empty());
        assert!(env.cgroup_cpu_quota.is_none_or(|q| q > 0.0));
        let line = env.to_string();
        assert!(line.contains("cpus="));
        assert!(line.contains("cgroup_cpu_quota="));
        assert!(line.contains("simd_backend="));
    }

    #[test]
    fn cpu_max_parses_quota_and_unlimited() {
        assert_eq!(parse_cpu_max("150000 100000\n"), Some(1.5));
        assert_eq!(parse_cpu_max("max 100000\n"), None);
        assert_eq!(parse_cpu_max(""), None);
    }

    #[test]
    fn fixtures_render() {
        let t = stroke_trace(Stroke::S2, EnvironmentProfile::meeting_room(), 1);
        assert!(t.len() > 44_100);
        let w = word_trace("me", 1);
        assert!(w.len() > t.len() / 2);
    }
}
