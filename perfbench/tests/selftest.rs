//! Self-tests of the benchmark: a short run of every workload passes its
//! gates and prints every metric `BENCHMARK.json` names, with its unit; a
//! transcript with one flipped score bit is caught by the serving gate.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use echowrite_perfbench::inputs::{self, Oracle};
use echowrite_perfbench::{flood, layers};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// The workload runs are timed; running two at once on a small host would
/// skew the waterfall check, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(section, name, unit)` for every metric in `BENCHMARK.json`.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('"') {
            if let Some((key, _)) = rest.split_once("\": [") {
                section = key.to_string();
            }
        }
        if section == "workloads" || !line.starts_with("{\"name\"") {
            continue;
        }
        let field = |key: &str| -> String {
            let start =
                line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[start..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        out.push((section.clone(), field("name"), field("unit")));
    }
    out
}

/// The result line's metrics, name → unit, plus its counts.
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    units: BTreeMap<String, String>,
}

fn parse_result(line: &str) -> Result {
    let flag = |key: &str| -> String {
        let start = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        line[start..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim()
            .to_string()
    };
    let mut units = BTreeMap::new();
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    for entry in metrics.split("}, ") {
        let Some((name, rest)) = entry
            .trim_start_matches(['{', ' '])
            .split_once("\": {\"value\": ")
        else {
            continue;
        };
        let unit = rest
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("unit");
        let value: f64 = rest
            .split(',')
            .next()
            .expect("value")
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{name} is not finite");
        units.insert(name.trim_matches('"').to_string(), unit.to_string());
    }
    Result {
        correct: flag("correct") == "true",
        attempted: flag("attempted").parse().expect("attempted"),
        failed: flag("failed").parse().expect("failed"),
        units,
    }
}

fn run(workload: &str, trace: u8) -> Result {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("spawn perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse_result(stdout.lines().last().expect("a result line"))
}

fn check_workload(workload: &str) {
    let declared = declared_metrics();
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let r = run(workload, trace);
        assert!(r.correct, "{workload} trace={trace}: a gate failed");
        assert!(
            r.attempted >= 1,
            "{workload} trace={trace}: nothing attempted"
        );
        assert_eq!(
            r.failed, 0,
            "{workload} trace={trace}: failed operations at a short seed"
        );
        let want: BTreeMap<String, String> = declared
            .iter()
            .filter(|(s, _, _)| s == section)
            .map(|(_, n, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(
            r.units, want,
            "{workload} trace={trace}: printed metrics differ from BENCHMARK.json"
        );
    }
}

#[test]
fn offline_words_passes_its_gates_and_prints_every_metric() {
    check_workload("offline_words");
}

#[test]
fn serve_flood_passes_its_gates_and_prints_every_metric() {
    check_workload("serve_flood");
}

#[test]
fn wire_paced_passes_its_gates_and_prints_every_metric() {
    check_workload("wire_paced");
}

#[test]
fn benchmark_json_declares_setup_time() {
    let declared = declared_metrics();
    assert!(declared
        .iter()
        .any(|(s, n, u)| s == "end_to_end" && n == "setup_s" && u == "s"));
    assert!(declared.iter().filter(|(s, _, _)| s == "per_layer").count() >= 1);
}

/// Serves two words through the real flood loop against oracles with one
/// score bit flipped in one row: exactly that session must fail the gate.
#[test]
fn one_flipped_score_bit_fails_the_transcript_gate() {
    let engine = layers::serving_engine();
    let words = inputs::draw_words(11, 2, 2, 1);
    let mut oracles: Vec<Oracle> = words
        .iter()
        .map(|w| inputs::oracle(&engine, &w.audio))
        .collect();
    let (word, row) = oracles
        .iter()
        .enumerate()
        .find_map(|(i, o)| (!o.rows.is_empty()).then_some((i, o.rows.len() - 1)))
        .expect("a word with at least one stroke");
    let clean = {
        let manager =
            echowrite_serve::SessionManager::new(engine.clone(), flood::config(2)).expect("config");
        flood::run(manager, &words, &oracles, 2, &[0, 1], 0.0, false)
    };
    assert_eq!(
        clean.failures.total(),
        0,
        "the unmodified oracles must pass"
    );
    assert_eq!(clean.sessions, 2);

    oracles[word].rows[row].3[2] ^= 1;
    assert!(!inputs::transcript_matches(&oracles[word].rows, &{
        let mut fixed = oracles[word].rows.clone();
        fixed[row].3[2] ^= 1;
        fixed
    }));
    let manager =
        echowrite_serve::SessionManager::new(engine.clone(), flood::config(2)).expect("config");
    let flipped = flood::run(manager, &words, &oracles, 2, &[0, 1], 0.0, false);
    assert_eq!(
        flipped.failures.mismatched, 1,
        "the flipped bit must fail exactly its session"
    );
}
