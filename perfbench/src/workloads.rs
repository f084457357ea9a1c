//! The three workloads end to end: inputs, set-up, the measured phase, the
//! correctness gate and the metrics. `trace == false` reports the
//! end-to-end metrics; `trace == true` reports the per-layer metrics.

use crate::inputs::{self, Oracle, Rng, Word};
use crate::layers;
use crate::report::{environment_line, Report};
use crate::sys::{self, Noise, NoiseProbe};
use crate::{flood, offline, paced, stats};
use echowrite::EchoWrite;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The workloads. `BENCHMARK.json` gates on `serve_flood` and
/// `wire_paced`; `offline_words` is run by hand (see the README).
pub const WORKLOADS: [&str; 3] = ["offline_words", "serve_flood", "wire_paced"];

/// Runs one workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    let report = match workload {
        "offline_words" => offline_words(seed, seconds, trace),
        "serve_flood" => serve_flood(seed, seconds, trace),
        "wire_paced" => wire_paced(seed, seconds, trace),
        _ => return None,
    };
    Some(report)
}

/// Times `build` [`SETUP_REPS`] times, dropping every result but the
/// last; returns it with the median set-up time.
fn timed_setup<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let clock = Instant::now();
        last = Some(build());
        times.push(clock.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Marks the end of input generation: returns freed synthesis memory to
/// the kernel and restarts the peak-RSS mark; returns the baseline RSS.
fn rss_baseline() -> f64 {
    sys::trim_heap();
    sys::reset_peak_rss();
    sys::rss_mib()
}

fn common_end_to_end(
    report: &mut Report,
    setup_s: f64,
    rss_base: f64,
    noise: &Noise,
    measured_s: f64,
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", sys::peak_rss_mib() - rss_base, "MiB");
    report.note(environment_line(noise, measured_s));
}

fn oracles(engine: &EchoWrite, words: &[Word]) -> Vec<Oracle> {
    words
        .iter()
        .map(|w| inputs::oracle(engine, &w.audio))
        .collect()
}

/// `profile.decision_lag_ms_p50` over the serving engine's oracles.
fn decision_lag(report: &mut Report, engine: &EchoWrite, words: &[Word], oracles: &[Oracle]) {
    let hop = engine.config().stft.hop;
    let lags: Vec<f64> = words
        .iter()
        .zip(oracles)
        .flat_map(|(w, o)| inputs::decision_lags_ms(o, w.audio.len(), hop))
        .collect();
    report.metric("profile.decision_lag_ms_p50", stats::median(&lags), "ms");
}

/// The harness's own readings over a traced pass of `measured_s` seconds,
/// plus the environment record.
fn harness(report: &mut Report, noise: &Noise, audio_s: f64, measured_s: f64) {
    report.note(environment_line(noise, measured_s));
    report.metric(
        "proc.cpu_s_per_audio_s",
        noise.cpu_s / audio_s.max(f64::MIN_POSITIVE),
        "s/s",
    );
    report.metric("proc.runqueue_wait_ms", noise.runqueue_wait_ms, "ms");
    report.metric("host.steal_ms", noise.steal_ms, "ms");
}

/// Relative cost of tracing on a headline metric, %: positive when the
/// traced phase read worse than the untraced one.
fn overhead(report: &mut Report, untraced: f64, traced: f64, higher_is_better: bool) {
    let pct = if higher_is_better {
        untraced / traced - 1.0
    } else {
        traced / untraced - 1.0
    };
    report.metric("trace.overhead_pct", 100.0 * pct, "%");
}

/// The stroke-latency tail of a traced pass. It is a per-layer metric: on
/// `wire_paced` its run-to-run spread is several times any usable bound.
fn latency_tail(report: &mut Report, latencies_ms: &[f64]) {
    report.metric(
        "stroke_latency_p99_ms",
        stats::quantile(&stats::sorted(latencies_ms), 0.99),
        "ms",
    );
    report.note(format!(
        "# stroke latency tail over {} samples",
        latencies_ms.len()
    ));
}

/// Zeroes for the layers a workload bypasses, so every run prints every
/// per-layer metric; the note says which ones.
fn bypassed(report: &mut Report, names: &[(&str, &'static str)]) {
    for (name, unit) in names {
        report.metric(name, 0.0, unit);
    }
    let list: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    report.note(format!(
        "# not exercised by this workload (reported as 0): {}",
        list.join(" ")
    ));
}

const SERVE_LAYER: [(&str, &str); 8] = [
    ("serve.cmds_per_drain", "count"),
    ("serve.submit_us", "us"),
    ("serve.driver_wait_s", "s"),
    ("serve.push_latency_mean_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_full", "count"),
    ("serve.shed", "count"),
    ("serve.pushes_degraded", "count"),
];

const WIRE_LAYER: [(&str, &str); 9] = [
    ("snapshot.suspended", "count"),
    ("snapshot.resumed", "count"),
    ("wire.verdict_rtt_p50_ms", "ms"),
    ("wire.verdict_rtt_p99_ms", "ms"),
    ("wire.residual_ms", "ms"),
    ("wire.write_stalls", "count"),
    ("obs.scrape_ms", "ms"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
];

/// Up to `n` of `words`, evenly spaced through the list (which runs from
/// the most to the least frequent), so a probe sees short and long words.
fn spread_sample(words: &[Word], n: usize) -> Vec<Word> {
    let step = words.len().div_ceil(n.max(1)).max(1);
    words.iter().step_by(step).cloned().collect()
}

/// The offline layers of a traced loop: the stage waterfall and top-5
/// accuracy. Returns whether the waterfall held its bound and every result
/// matched.
fn offline_layers(report: &mut Report, l: &offline::Loop) -> bool {
    let rate = 100.0 * l.top5_misses as f64 / l.words as f64;
    report.metric("lang.top5_miss_pct", rate, "%");
    offline::waterfall(report, l) && l.staged_mismatches == 0 && l.mismatches == 0
}

/// The offline layers on another workload's words, for a share of the
/// traced run.
fn offline_sweep(report: &mut Report, words: Vec<Word>, seconds: f64) -> bool {
    let engine = offline::paper_engine();
    let prep = offline::prepare(&engine, words);
    offline_layers(report, &offline::run_loop(&engine, &prep, seconds, true))
}

fn offline_words(seed: u64, seconds: f64, trace: bool) -> Report {
    let words = offline::words(seed);
    let reference_engine = offline::paper_engine();
    let prep = offline::prepare(&reference_engine, words);
    drop(reference_engine);
    let rss_base = rss_baseline();
    let (engine, setup_s) = timed_setup(offline::paper_engine, drop);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if !trace {
        let probe = NoiseProbe::start();
        let l = offline::run_loop(&engine, &prep, seconds, false);
        let noise = probe.stop();
        offline::end_to_end(&mut report, &l, &prep.words);
        common_end_to_end(&mut report, setup_s, rss_base, &noise, l.wall_s);
        report.attempted = l.words;
        report.failed = l.mismatches;
        report.correct = l.mismatches == 0;
        report.note(format!(
            "# failures: {} results differed from the word's reference; top-5 misses (counted, not failures): {} of {} words",
            l.mismatches, l.top5_misses, l.words
        ));
        return report;
    }
    // Untraced, traced, untraced: the overhead compares the traced pass with
    // the untraced passes on either side, so a steady drift cancels.
    let before = offline::run_loop(&engine, &prep, seconds / 6.0, false);
    let probe = NoiseProbe::start();
    let traced = offline::run_loop(&engine, &prep, seconds / 3.0, true);
    let noise = probe.stop();
    let after = offline::run_loop(&engine, &prep, seconds / 6.0, false);
    let layers_ok = offline_layers(&mut report, &traced);
    latency_tail(&mut report, &traced.latencies_ms);
    let serving = layers::serving_engine();
    let serving_oracles = oracles(&serving, &prep.words);
    decision_lag(&mut report, &serving, &prep.words, &serving_oracles);
    let sample = spread_sample(&prep.words, 24);
    layers::push_replay(&mut report, &serving, &sample, seconds / 3.0);
    let snapshot_ok = layers::snapshot_micro(&mut report, &serving, &sample);
    harness(&mut report, &noise, traced.audio_s, traced.wall_s);
    let untraced: Vec<f64> = before
        .latencies_ms
        .iter()
        .chain(&after.latencies_ms)
        .copied()
        .collect();
    overhead(
        &mut report,
        stats::mean(&untraced),
        stats::mean(&traced.latencies_ms),
        false,
    );
    bypassed(&mut report, &SERVE_LAYER);
    bypassed(&mut report, &WIRE_LAYER);
    report.attempted = before.words + traced.words + after.words;
    report.failed =
        before.mismatches + traced.mismatches + traced.staged_mismatches + after.mismatches;
    report.correct = report.failed == 0 && layers_ok && snapshot_ok;
    report
}

fn serve_flood(seed: u64, seconds: f64, trace: bool) -> Report {
    let words = inputs::draw_words(seed, 2, flood::POOL, 1);
    let mut rng = Rng::new(seed, 3);
    let order: Vec<usize> = (0..4096).map(|_| rng.below(words.len())).collect();
    let reference_engine = layers::serving_engine();
    let word_oracles = oracles(&reference_engine, &words);
    drop(reference_engine);
    let rss_base = rss_baseline();
    let users = flood::USERS;
    let ((engine, manager), setup_s) = timed_setup(
        || {
            let engine = layers::serving_engine();
            let manager =
                echowrite_serve::SessionManager::new(engine.clone(), flood::config(users))
                    .expect("valid serve config");
            (engine, manager)
        },
        |(_, manager)| drop(manager.shutdown()),
    );
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if !trace {
        let probe = NoiseProbe::start();
        let f = flood::run(
            manager,
            &words,
            &word_oracles,
            users,
            &order,
            seconds,
            false,
        );
        let noise = probe.stop();
        flood::end_to_end(&mut report, &f);
        common_end_to_end(&mut report, setup_s, rss_base, &noise, f.steady_wall_s);
        finish_flood_counts(&mut report, &f);
        return report;
    }
    // A first pass faults in the sessions' memory; the two measured
    // passes then start from the same warm heap.
    let warm = flood::run(
        manager,
        &words,
        &word_oracles,
        users,
        &order,
        seconds / 8.0,
        false,
    );
    let fresh = || {
        echowrite_serve::SessionManager::new(engine.clone(), flood::config(users))
            .expect("valid serve config")
    };
    // Untraced, traced, untraced, as for offline_words.
    let before = flood::run(
        fresh(),
        &words,
        &word_oracles,
        users,
        &order,
        seconds / 8.0,
        false,
    );
    let manager = fresh();
    let probe = NoiseProbe::start();
    let traced = flood::run(
        manager,
        &words,
        &word_oracles,
        users,
        &order,
        seconds / 4.0,
        true,
    );
    let noise = probe.stop();
    let after = flood::run(
        fresh(),
        &words,
        &word_oracles,
        users,
        &order,
        seconds / 8.0,
        false,
    );
    latency_tail(&mut report, &traced.latencies_ms);
    decision_lag(&mut report, &engine, &words, &word_oracles);
    let sample = spread_sample(&words, 24);
    let push_us = layers::push_replay(&mut report, &engine, &sample, seconds / 6.0);
    let snapshot_ok = layers::snapshot_micro(&mut report, &engine, &sample);
    flood::serve_layer(
        &mut report,
        &traced.metrics,
        &traced.submit_us,
        traced.driver_wait_s,
        push_us,
    );
    let sweep_ok = offline_sweep(&mut report, spread_sample(&words, 12), seconds / 6.0);
    harness(
        &mut report,
        &noise,
        traced.steady_audio_s,
        traced.steady_wall_s,
    );
    overhead(
        &mut report,
        (before.steady_audio_s + after.steady_audio_s)
            / (before.steady_wall_s + after.steady_wall_s),
        traced.steady_audio_s / traced.steady_wall_s,
        true,
    );
    bypassed(&mut report, &WIRE_LAYER);
    let passes = [&warm, &before, &traced, &after];
    let failed: u64 = passes.iter().map(|f| f.failures.total()).sum();
    report.attempted = passes.iter().map(|f| f.sessions).sum();
    report.failed = failed;
    report.correct = failed == 0 && snapshot_ok && sweep_ok;
    report
}

fn finish_flood_counts(report: &mut Report, f: &flood::Flood) {
    let x = f.failures;
    report.attempted = f.sessions;
    report.failed = x.total();
    report.correct = x.mismatched == 0 && x.unfinished == 0;
    report.note(format!(
        "# failures: {} transcripts differed from the oracle, {} sessions unfinished, {} refused submissions, {} degraded segments",
        x.mismatched, x.unfinished, x.refused, x.degraded
    ));
}

fn paced_counts(report: &mut Report, runs: &[&paced::Paced]) {
    let mut ok = true;
    for p in runs {
        report.attempted += p.sessions;
        report.failed += p.failures();
        ok &= p.mismatched == 0
            && p.unfinished == 0
            && p.error.is_none()
            && p.scrape_mismatches.is_empty();
        report.note(format!(
            "# failures: {} transcripts differed from the oracle, {} sessions unfinished, {} refused submissions, {} degraded segments",
            p.mismatched, p.unfinished, p.refused, p.degraded
        ));
        if let Some(e) = &p.error {
            report.note(format!("# connection error: {e}"));
        }
        for m in &p.scrape_mismatches {
            report.note(format!("# /metrics cross-check failed: {m}"));
        }
    }
    report.correct = ok;
}

fn paced_end_to_end(report: &mut Report, p: &paced::Paced) {
    let half = p.window_s / 2.0;
    report.metric("words_per_s", p.words_in_steady / half, "1/s");
    report.metric("throughput_rtf", p.audio_in_steady / half, "x");
    let q = p.stroke_latency_p50_ms();
    report.metric("stroke_latency_p50_ms", q.median, "ms");
    report.note(format!(
        "# wire_paced: {} sessions ({} paused and were suspended) at {} realtime sessions offered, \
         {:.1} s audio in {:.3} s; words_per_s (each push counting as its share of its word) \
         and throughput_rtf count the pushes answered in the second half of the {:.1} s arrival window; \
         stroke latency from the emitting push's due time to the event's arrival, {} samples; \
         stroke_latency_p50_ms is the median of the {} samples in the {} of that half's {} \
         slices of {} s with the least host steal; whole-run median {:.4} ms",
        p.sessions,
        p.pausers,
        paced::LOAD,
        p.audio_s,
        p.wall_s,
        p.window_s,
        p.stroke_latency_ms.len(),
        q.samples,
        q.kept,
        q.slices,
        paced::LATENCY_SLICE_S,
        stats::median(&p.stroke_latency_ms)
    ));
}

fn wire_paced(seed: u64, seconds: f64, trace: bool) -> Report {
    let words = inputs::draw_words(seed, 5, paced::POOL, 1);
    let reference_engine = layers::serving_engine();
    let word_oracles = oracles(&reference_engine, &words);
    drop(reference_engine);
    let window = if trace { seconds / 3.0 } else { seconds };
    let sched = paced::schedule(seed, &words, window);
    let gap = paced::max_gap_pushes(&sched);
    let rss_base = rss_baseline();
    let (engine, setup_s) = timed_setup(
        || {
            let engine = layers::serving_engine();
            let stack = paced::stack(&engine);
            (engine, stack)
        },
        |(_, stack)| drop(paced::teardown(stack)),
    );
    let (engine, stack) = engine;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.note(format!(
        "# schedule: {} commands; widest gap under a writing session {} pushes ({} samples, idle timeout {})",
        sched.cmds.len(),
        gap,
        gap * inputs::CHUNK,
        paced::IDLE_TIMEOUT_SAMPLES
    ));
    if !trace {
        let probe = NoiseProbe::start();
        let p = paced::run(stack, &words, &word_oracles, &sched);
        let noise = probe.stop();
        paced_end_to_end(&mut report, &p);
        common_end_to_end(&mut report, setup_s, rss_base, &noise, p.wall_s);
        paced_counts(&mut report, &[&p]);
        return report;
    }
    drop(paced::teardown(stack));
    let untraced = paced::run(paced::stack(&engine), &words, &word_oracles, &sched);
    let probe = NoiseProbe::start();
    let traced = paced::run(paced::stack(&engine), &words, &word_oracles, &sched);
    let noise = probe.stop();
    latency_tail(&mut report, &traced.stroke_latency_ms);
    decision_lag(&mut report, &engine, &words, &word_oracles);
    let sample = spread_sample(&words, 24);
    let push_us = layers::push_replay(&mut report, &engine, &sample, seconds / 6.0);
    let snapshot_ok = layers::snapshot_micro(&mut report, &engine, &sample);
    let m = traced
        .metrics
        .clone()
        .unwrap_or_else(|| echowrite_serve::ServeMetrics::new().snapshot());
    flood::serve_layer(&mut report, &m, &[], 0.0, push_us);
    let (rtt50, rtt99) = paced::p50_p99(&traced.verdict_rtt_ms);
    let (late50, late99) = paced::p50_p99(&traced.late_ms);
    let push_latency_ms = m.push_latency_sum_us as f64 / m.push_latency_count.max(1) as f64 / 1e3;
    report.metric("snapshot.suspended", m.sessions_suspended as f64, "count");
    report.metric("snapshot.resumed", m.sessions_resumed as f64, "count");
    report.metric("wire.verdict_rtt_p50_ms", rtt50, "ms");
    report.metric("wire.verdict_rtt_p99_ms", rtt99, "ms");
    report.metric(
        "wire.residual_ms",
        stats::mean(&traced.stroke_latency_ms) - stats::mean(&traced.late_ms) - push_latency_ms,
        "ms",
    );
    report.metric("wire.write_stalls", m.wire_write_stalls as f64, "count");
    report.metric("obs.scrape_ms", traced.scrape_ms, "ms");
    report.metric("gen.late_p50_ms", late50, "ms");
    report.metric("gen.late_p99_ms", late99, "ms");
    let sweep_ok = offline_sweep(&mut report, spread_sample(&words, 12), seconds / 6.0);
    harness(&mut report, &noise, traced.audio_s, traced.wall_s);
    overhead(
        &mut report,
        untraced.stroke_latency_p50_ms().median,
        traced.stroke_latency_p50_ms().median,
        false,
    );
    report.note("# serve.submit_us and serve.driver_wait_s read 0: the wire server, not the generator, calls submit");
    paced_counts(&mut report, &[&untraced, &traced]);
    report.correct &= snapshot_ok && sweep_ok;
    report
}
