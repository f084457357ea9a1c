//! Serving metrics on the shared `echowrite_trace::metrics` registry
//! primitives: lock-free counters, gauges, and a fixed-bucket latency
//! histogram, so the ingress path and the shard workers never contend on a
//! lock to record an observation. The same primitives back the offline
//! evaluation harness (`crates/bench`), keeping the two vocabularies in
//! sync.
//!
//! This module is the serving layer's *only* sanctioned wall-clock
//! quarantine, mirroring `crates/profile::timing`: the uptime gauge below
//! reads `std::time::Instant` behind reasoned `echolint: allow` markers.
//! Everything that can influence a recognition result — queue order,
//! deadlines, the idle reaper — runs on logical clocks (enqueue sequence
//! numbers and pushed-sample counts) and never touches this clock.

pub use echowrite_trace::metrics::{Counter, Gauge, Histogram, PromWriter};
use echowrite_trace::metrics::quantile_from_buckets;
// echolint: allow(determinism) -- metrics-only uptime clock, quarantined like crates/profile::timing; never feeds recognition results
use std::time::Instant;

/// Upper bounds (µs) of the push-latency histogram buckets; observations
/// above the last bound land in the explicit `+Inf` bucket (counted, never
/// dropped).
///
/// The ladder extends to 2.5 s: under multi-session queueing a push's
/// end-to-end latency (enqueue to processed) routinely exceeds the old
/// 250 ms ceiling, which pinned every loaded p99 readout at the `+Inf`
/// bucket instead of resolving a real tail.
pub const LATENCY_BUCKETS_US: [u64; 15] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000,
];

/// The serving layer's metric registry: one instance per
/// [`SessionManager`](crate::SessionManager), shared by the ingress path
/// and every shard worker.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Sessions admitted and opened.
    pub sessions_opened: Counter,
    /// Sessions ended by an explicit finish.
    pub sessions_finished: Counter,
    /// Sessions reclaimed by the idle reaper.
    pub sessions_reaped: Counter,
    /// Sessions suspended into the snapshot store (reaper eviction,
    /// explicit export, or a shutdown drain).
    pub sessions_suspended: Counter,
    /// Suspends whose snapshot-store write failed; each such session was
    /// reaped instead (and is also counted in `sessions_reaped`).
    pub suspend_store_errors: Counter,
    /// Sessions resumed from the snapshot store (a thaw on `Open`/`Push`/
    /// `Finish`, or an explicit import).
    pub sessions_resumed: Counter,
    /// Idempotent re-opens of an already-live session id (a retrying
    /// client re-sending an `Open` whose ack it lost).
    pub sessions_reopened: Counter,
    /// Open attempts rejected by the admission controller.
    pub sessions_shed: Counter,
    /// Sessions currently live across all shards.
    pub sessions_live: Gauge,
    /// Audio chunks processed by shard workers.
    pub pushes: Counter,
    /// Pushes degraded to segment-only output by a missed deadline.
    pub pushes_degraded: Counter,
    /// Batched drain rounds executed by shard workers (each round runs up
    /// to `batch_max` queued commands through one shared DSP scratch).
    pub batch_drains: Counter,
    /// Submissions rejected because the shard queue was full.
    pub queue_full: Counter,
    /// Commands addressed to a session no shard knows (never opened, shed,
    /// already finished, or reaped).
    pub orphan_commands: Counter,
    /// Segment events emitted across all sessions.
    pub events: Counter,
    /// Commands currently sitting in shard queues.
    pub queue_depth: Gauge,
    /// TCP connections accepted by the wire front-end.
    pub wire_connections: Counter,
    /// Request frames decoded off wire sockets.
    pub wire_frames_read: Counter,
    /// Response frames written to wire sockets.
    pub wire_frames_written: Counter,
    /// Wire frames rejected as malformed (bad length, unknown kind,
    /// truncated payload); each one closes its connection.
    pub wire_malformed_frames: Counter,
    /// Times a wire response had to wait because its connection's write
    /// queue was full (a slow-reading client).
    pub wire_write_stalls: Counter,
    /// HTTP requests served by the `echowrite-obs` introspection plane.
    pub obs_requests: Counter,
    /// HTTP requests the introspection plane rejected as malformed; each
    /// one closes only its own connection.
    pub obs_malformed_requests: Counter,
    /// Flight-recorder dump artifacts written by shard workers.
    pub flight_dumps: Counter,
    /// End-to-end push latency (enqueue to processed), µs.
    pub push_latency_us: Histogram,
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        ServeMetrics {
            sessions_opened: Counter::default(),
            sessions_finished: Counter::default(),
            sessions_reaped: Counter::default(),
            sessions_suspended: Counter::default(),
            suspend_store_errors: Counter::default(),
            sessions_resumed: Counter::default(),
            sessions_reopened: Counter::default(),
            sessions_shed: Counter::default(),
            sessions_live: Gauge::default(),
            pushes: Counter::default(),
            pushes_degraded: Counter::default(),
            batch_drains: Counter::default(),
            queue_full: Counter::default(),
            orphan_commands: Counter::default(),
            events: Counter::default(),
            queue_depth: Gauge::default(),
            wire_connections: Counter::default(),
            wire_frames_read: Counter::default(),
            wire_frames_written: Counter::default(),
            wire_malformed_frames: Counter::default(),
            wire_write_stalls: Counter::default(),
            obs_requests: Counter::default(),
            obs_malformed_requests: Counter::default(),
            flight_dumps: Counter::default(),
            push_latency_us: Histogram::new(&LATENCY_BUCKETS_US),
            // echolint: allow(determinism) -- observability-only uptime stamp; nothing downstream branches on it
            started: Instant::now(),
        }
    }

    /// Seconds since the registry was created (wall clock; observability
    /// only).
    pub fn uptime_seconds(&self) -> f64 {
        // echolint: allow(determinism) -- observability-only uptime read, quarantined in this module
        self.started.elapsed().as_secs_f64()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            sessions_opened: self.sessions_opened.get(),
            sessions_finished: self.sessions_finished.get(),
            sessions_reaped: self.sessions_reaped.get(),
            sessions_suspended: self.sessions_suspended.get(),
            suspend_store_errors: self.suspend_store_errors.get(),
            sessions_resumed: self.sessions_resumed.get(),
            sessions_reopened: self.sessions_reopened.get(),
            sessions_shed: self.sessions_shed.get(),
            sessions_live: self.sessions_live.get(),
            pushes: self.pushes.get(),
            pushes_degraded: self.pushes_degraded.get(),
            batch_drains: self.batch_drains.get(),
            queue_full: self.queue_full.get(),
            orphan_commands: self.orphan_commands.get(),
            events: self.events.get(),
            queue_depth: self.queue_depth.get(),
            wire_connections: self.wire_connections.get(),
            wire_frames_read: self.wire_frames_read.get(),
            wire_frames_written: self.wire_frames_written.get(),
            wire_malformed_frames: self.wire_malformed_frames.get(),
            wire_write_stalls: self.wire_write_stalls.get(),
            obs_requests: self.obs_requests.get(),
            obs_malformed_requests: self.obs_malformed_requests.get(),
            flight_dumps: self.flight_dumps.get(),
            push_latency_count: self.push_latency_us.count(),
            push_latency_sum_us: self.push_latency_us.sum(),
            push_latency_buckets: self.push_latency_us.bucket_counts(),
            push_latency_overflow: self.push_latency_us.overflow_count(),
            push_latency_p99_us: self.push_latency_us.quantile_upper_bound(0.99),
            uptime_seconds: self.uptime_seconds(),
        }
    }

    /// Prometheus-style text exposition of the whole registry.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

/// A point-in-time copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions admitted and opened.
    pub sessions_opened: u64,
    /// Sessions ended by an explicit finish.
    pub sessions_finished: u64,
    /// Sessions reclaimed by the idle reaper.
    pub sessions_reaped: u64,
    /// Sessions suspended into the snapshot store.
    pub sessions_suspended: u64,
    /// Suspends whose snapshot-store write failed (reaped instead).
    pub suspend_store_errors: u64,
    /// Sessions resumed from the snapshot store.
    pub sessions_resumed: u64,
    /// Idempotent re-opens of an already-live session id.
    pub sessions_reopened: u64,
    /// Open attempts rejected by the admission controller.
    pub sessions_shed: u64,
    /// Sessions currently live across all shards.
    pub sessions_live: u64,
    /// Audio chunks processed by shard workers.
    pub pushes: u64,
    /// Pushes degraded to segment-only output by a missed deadline.
    pub pushes_degraded: u64,
    /// Batched drain rounds executed by shard workers.
    pub batch_drains: u64,
    /// Submissions rejected because the shard queue was full.
    pub queue_full: u64,
    /// Commands addressed to a session no shard knows.
    pub orphan_commands: u64,
    /// Segment events emitted across all sessions.
    pub events: u64,
    /// Commands currently sitting in shard queues.
    pub queue_depth: u64,
    /// TCP connections accepted by the wire front-end.
    pub wire_connections: u64,
    /// Request frames decoded off wire sockets.
    pub wire_frames_read: u64,
    /// Response frames written to wire sockets.
    pub wire_frames_written: u64,
    /// Wire frames rejected as malformed.
    pub wire_malformed_frames: u64,
    /// Wire responses that waited on a full connection write queue.
    pub wire_write_stalls: u64,
    /// HTTP requests served by the introspection plane.
    pub obs_requests: u64,
    /// HTTP requests the introspection plane rejected as malformed.
    pub obs_malformed_requests: u64,
    /// Flight-recorder dump artifacts written by shard workers.
    pub flight_dumps: u64,
    /// Push-latency observation count.
    pub push_latency_count: u64,
    /// Push-latency sum, µs (saturating).
    pub push_latency_sum_us: u64,
    /// Push-latency per-bucket counts (non-cumulative, `+Inf` last).
    pub push_latency_buckets: Vec<u64>,
    /// Observations that exceeded every finite bucket bound.
    pub push_latency_overflow: u64,
    /// Upper bound (µs) of the bucket holding the p99 push latency.
    pub push_latency_p99_us: Option<u64>,
    /// Seconds since the registry was created.
    pub uptime_seconds: f64,
}

impl MetricsSnapshot {
    /// Prometheus text exposition: `# HELP`/`# TYPE` preambles for every
    /// family, escaped label values, and the latency histogram with
    /// cumulative `le` buckets ending in `+Inf`.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.info(
            "echowrite_serve_build_info",
            "Build metadata for the serving layer.",
            &[("crate", "echowrite-serve"), ("version", env!("CARGO_PKG_VERSION"))],
        );
        let counters: [(&str, &str, u64); 22] = [
            (
                "echowrite_serve_sessions_opened_total",
                "Sessions admitted and opened.",
                self.sessions_opened,
            ),
            (
                "echowrite_serve_sessions_finished_total",
                "Sessions ended by an explicit finish.",
                self.sessions_finished,
            ),
            (
                "echowrite_serve_sessions_reaped_total",
                "Sessions reclaimed by the idle reaper.",
                self.sessions_reaped,
            ),
            (
                "echowrite_serve_sessions_suspended_total",
                "Sessions suspended into the snapshot store.",
                self.sessions_suspended,
            ),
            (
                "echowrite_serve_suspend_store_errors_total",
                "Suspends whose snapshot-store write failed; the session was reaped instead.",
                self.suspend_store_errors,
            ),
            (
                "echowrite_serve_sessions_resumed_total",
                "Sessions resumed from the snapshot store.",
                self.sessions_resumed,
            ),
            (
                "echowrite_serve_sessions_reopened_total",
                "Idempotent re-opens of an already-live session id.",
                self.sessions_reopened,
            ),
            (
                "echowrite_serve_sessions_shed_total",
                "Open attempts rejected by the admission controller.",
                self.sessions_shed,
            ),
            ("echowrite_serve_pushes_total", "Audio chunks processed.", self.pushes),
            (
                "echowrite_serve_pushes_degraded_total",
                "Pushes degraded to segment-only output by a missed deadline.",
                self.pushes_degraded,
            ),
            (
                "echowrite_serve_batch_drains_total",
                "Batched drain rounds executed by shard workers.",
                self.batch_drains,
            ),
            (
                "echowrite_serve_queue_full_total",
                "Submissions rejected because the shard queue was full.",
                self.queue_full,
            ),
            (
                "echowrite_serve_orphan_commands_total",
                "Commands addressed to a session no shard knows.",
                self.orphan_commands,
            ),
            ("echowrite_serve_events_total", "Segment events emitted.", self.events),
            (
                "echowrite_serve_wire_connections_total",
                "TCP connections accepted by the wire front-end.",
                self.wire_connections,
            ),
            (
                "echowrite_serve_wire_frames_read_total",
                "Request frames decoded off wire sockets.",
                self.wire_frames_read,
            ),
            (
                "echowrite_serve_wire_frames_written_total",
                "Response frames written to wire sockets.",
                self.wire_frames_written,
            ),
            (
                "echowrite_serve_wire_malformed_frames_total",
                "Wire frames rejected as malformed.",
                self.wire_malformed_frames,
            ),
            (
                "echowrite_serve_wire_write_stalls_total",
                "Wire responses that waited on a full connection write queue.",
                self.wire_write_stalls,
            ),
            (
                "echowrite_serve_obs_requests_total",
                "HTTP requests served by the introspection plane.",
                self.obs_requests,
            ),
            (
                "echowrite_serve_obs_malformed_requests_total",
                "HTTP requests the introspection plane rejected as malformed.",
                self.obs_malformed_requests,
            ),
            (
                "echowrite_serve_flight_dumps_total",
                "Flight-recorder dump artifacts written by shard workers.",
                self.flight_dumps,
            ),
        ];
        for (name, help, v) in counters {
            w.counter(name, help, v);
        }
        w.gauge(
            "echowrite_serve_sessions_live",
            "Sessions currently live across all shards.",
            self.sessions_live,
        );
        w.gauge(
            "echowrite_serve_queue_depth",
            "Commands currently sitting in shard queues.",
            self.queue_depth,
        );
        w.gauge_f64(
            "echowrite_serve_uptime_seconds",
            "Seconds since the metrics registry was created.",
            self.uptime_seconds,
        );
        // Interpolated latency quantiles: estimated inside the histogram's
        // buckets by linear interpolation (quantile_from_buckets), so a
        // scrape gets a usable p50/p95/p99 without PromQL. Omitted until
        // the first observation lands — an absent gauge is honest, a fake
        // zero is not.
        let quantiles: [(f64, &str, &str); 3] = [
            (0.50, "echowrite_serve_push_latency_p50_us", "Estimated p50"),
            (0.95, "echowrite_serve_push_latency_p95_us", "Estimated p95"),
            (0.99, "echowrite_serve_push_latency_p99_us", "Estimated p99"),
        ];
        for (q, name, which) in quantiles {
            if let Some(v) =
                quantile_from_buckets(&LATENCY_BUCKETS_US, &self.push_latency_buckets, q)
            {
                let help = format!(
                    "{which} push latency in microseconds, interpolated from histogram buckets."
                );
                w.gauge_f64(name, &help, v);
            }
        }
        w.histogram(
            "echowrite_serve_push_latency_us",
            "End-to-end push latency (enqueue to processed), microseconds.",
            &LATENCY_BUCKETS_US,
            &self.push_latency_buckets,
            self.push_latency_sum_us,
            self.push_latency_count,
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates, no wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_p99() {
        let h = Histogram::new(&LATENCY_BUCKETS_US);
        for _ in 0..99 {
            h.observe(40); // first bucket (le 50)
        }
        h.observe(200_000); // second-to-last bucket
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper_bound(0.5), Some(50));
        assert_eq!(h.quantile_upper_bound(0.99), Some(50));
        assert_eq!(h.quantile_upper_bound(1.0), Some(250_000));
        let h2 = Histogram::new(&LATENCY_BUCKETS_US);
        assert_eq!(h2.quantile_upper_bound(0.99), None);
        h2.observe(u64::MAX); // overflow bucket
        assert_eq!(h2.quantile_upper_bound(0.99), Some(u64::MAX));
    }

    /// Regression: over-range observations land in the `+Inf` bucket and
    /// the sum saturates — nothing is silently dropped or wrapped.
    #[test]
    fn histogram_over_range_is_counted_not_dropped() {
        let h = Histogram::new(&LATENCY_BUCKETS_US);
        h.observe(2_500_001); // one past the last finite bound
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.sum(), u64::MAX); // saturated, not wrapped
        let buckets = h.bucket_counts();
        assert_eq!(buckets.len(), LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(buckets.last().copied(), Some(2));
        assert_eq!(buckets.iter().take(LATENCY_BUCKETS_US.len()).sum::<u64>(), 0);
    }

    /// Regression for the bucket-ladder extension: a queueing-shaped load
    /// (most pushes fast, the backlogged tail between 250 ms and 2.5 s)
    /// must resolve a real finite p99 instead of saturating at the old
    /// 250 ms ceiling's `+Inf` bucket.
    #[test]
    fn queueing_tail_resolves_finite_p99() {
        assert_eq!(
            &LATENCY_BUCKETS_US[12..],
            &[500_000, 1_000_000, 2_500_000],
            "the ladder must extend past 250 ms to cover queueing tails"
        );
        let h = Histogram::new(&LATENCY_BUCKETS_US);
        for _ in 0..90 {
            h.observe(400); // uncontended pushes
        }
        for _ in 0..9 {
            h.observe(180_000); // mild backlog
        }
        h.observe(800_000); // deep multi-session backlog: 0.8 s
        assert_eq!(h.overflow_count(), 0, "a 0.8 s push must land in a finite bucket");
        assert_eq!(h.quantile_upper_bound(0.99), Some(250_000));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1_000_000), "tail resolves, not +Inf");
    }

    #[test]
    fn prometheus_dump_has_every_family() {
        let m = ServeMetrics::new();
        m.pushes.inc();
        m.push_latency_us.observe(123);
        m.queue_depth.set(7);
        let text = m.to_prometheus();
        for family in [
            "echowrite_serve_sessions_opened_total",
            "echowrite_serve_sessions_suspended_total",
            "echowrite_serve_suspend_store_errors_total",
            "echowrite_serve_sessions_resumed_total",
            "echowrite_serve_sessions_reopened_total",
            "echowrite_serve_sessions_shed_total",
            "echowrite_serve_wire_connections_total",
            "echowrite_serve_wire_malformed_frames_total",
            "echowrite_serve_wire_write_stalls_total",
            "echowrite_serve_pushes_total 1",
            "echowrite_serve_queue_depth 7",
            "echowrite_serve_push_latency_us_bucket{le=\"250\"} 1",
            "echowrite_serve_push_latency_us_bucket{le=\"+Inf\"} 1",
            "echowrite_serve_push_latency_us_count 1",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    /// The exposition format satellite: every family carries `# HELP` and
    /// `# TYPE` preambles, and label values are escaped.
    #[test]
    fn prometheus_exposition_format() {
        let m = ServeMetrics::new();
        m.push_latency_us.observe(9_999_999); // over-range → +Inf bucket
        let text = m.to_prometheus();
        // One HELP and one TYPE line per family, HELP immediately before TYPE.
        for family in [
            ("echowrite_serve_sessions_opened_total", "counter"),
            ("echowrite_serve_pushes_total", "counter"),
            ("echowrite_serve_sessions_live", "gauge"),
            ("echowrite_serve_uptime_seconds", "gauge"),
            ("echowrite_serve_push_latency_us", "histogram"),
        ] {
            let (name, kind) = family;
            assert!(text.contains(&format!("# HELP {name} ")), "no HELP for {name}:\n{text}");
            assert!(
                text.contains(&format!("# TYPE {name} {kind}")),
                "no TYPE {kind} for {name}:\n{text}"
            );
        }
        // Build-info labels present and quoted.
        assert!(text.contains("echowrite_serve_build_info{crate=\"echowrite-serve\","));
        // The over-range observation shows up in +Inf but no finite bucket.
        assert!(text.contains("echowrite_serve_push_latency_us_bucket{le=\"250000\"} 0"));
        assert!(text.contains("echowrite_serve_push_latency_us_bucket{le=\"2500000\"} 0"));
        assert!(text.contains("echowrite_serve_push_latency_us_bucket{le=\"+Inf\"} 1"));
        // Label escaping is exercised directly on the writer.
        assert_eq!(PromWriter::escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Satellite regression (interpolated quantiles): once observations
    /// land, `/metrics` carries p50/p95/p99 gauges estimated inside the
    /// histogram buckets; with no observations the gauges are absent
    /// rather than a misleading zero.
    #[test]
    fn interpolated_quantile_gauges_exposed() {
        let empty = ServeMetrics::new();
        assert!(
            !empty.to_prometheus().contains("echowrite_serve_push_latency_p95_us"),
            "quantile gauges must be absent before the first observation"
        );
        let m = ServeMetrics::new();
        for _ in 0..95 {
            m.push_latency_us.observe(40); // le=50 bucket
        }
        for _ in 0..5 {
            m.push_latency_us.observe(2_000); // le=2500 bucket
        }
        let text = m.to_prometheus();
        for name in [
            "echowrite_serve_push_latency_p50_us",
            "echowrite_serve_push_latency_p95_us",
            "echowrite_serve_push_latency_p99_us",
        ] {
            assert!(text.contains(&format!("# TYPE {name} gauge")), "missing {name}:\n{text}");
        }
        // p50 sits inside the first bucket (interpolated below its 50 µs
        // bound), p99 inside the 1000..2500 bucket — not pinned at bounds.
        let p50 = quantile_from_buckets(&LATENCY_BUCKETS_US, &m.push_latency_us.bucket_counts(), 0.5)
            .expect("p50");
        assert!(p50 > 0.0 && p50 <= 50.0, "p50 {p50} outside its bucket");
        let p99 = quantile_from_buckets(&LATENCY_BUCKETS_US, &m.push_latency_us.bucket_counts(), 0.99)
            .expect("p99");
        assert!((1_000.0..=2_500.0).contains(&p99), "p99 {p99} outside its bucket");
    }

    #[test]
    fn snapshot_reflects_registry() {
        let m = ServeMetrics::new();
        m.sessions_opened.add(3);
        m.sessions_live.set(2);
        m.push_latency_us.observe(60);
        let snap = m.snapshot();
        assert_eq!(snap.sessions_opened, 3);
        assert_eq!(snap.sessions_live, 2);
        assert_eq!(snap.push_latency_count, 1);
        assert_eq!(snap.push_latency_overflow, 0);
        assert_eq!(snap.push_latency_p99_us, Some(100));
        assert!(snap.uptime_seconds >= 0.0);
    }
}
