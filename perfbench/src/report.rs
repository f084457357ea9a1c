//! The run's result: counts, named metrics with units, and the noise
//! record, printed as `#`-prefixed context lines followed by the one JSON
//! result line the benchmark contract requires last on stdout.

use crate::sys::Noise;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output checked equal to its oracle.
    pub correct: bool,
    /// Operations attempted (words recognised, sessions served).
    pub attempted: u64,
    /// Operations failed (see each workload for what counts).
    pub failed: u64,
    /// Named metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context lines: failure breakdown, sample counts, checks.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{"value", "unit"}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints (shortest round-trip
/// form); non-finite values become 0 so the line always parses.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The environment record printed with every run.
pub fn environment_line(noise: &Noise, measured_s: f64) -> String {
    let env = echowrite_bench::bench_environment();
    let quota = crate::sys::cgroup_cpu_quota().map_or("null".to_string(), json_number);
    format!(
        "# environment {{\"nproc\": {}, \"cgroup_cpu_quota\": {quota}, \"simd_backend\": \"{}\", \
         \"measured_s\": {}, \"host_steal_ms\": {}, \"runqueue_wait_ms\": {}, \"process_cpu_s\": {}}}",
        env.cpus,
        env.simd_backend,
        json_number(measured_s),
        json_number(noise.steal_ms),
        json_number(noise.runqueue_wait_ms),
        json_number(noise.cpu_s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
