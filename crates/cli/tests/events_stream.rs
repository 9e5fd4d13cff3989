//! The built `eureka` binary's run-event stream: every line of
//! `simulate --events-out` is schema-valid, `wall.seq` numbers the lines
//! densely from 0, and the deterministic projection of a `--jobs 1` run
//! equals that of a `--jobs 4 --progress` run byte for byte. Neither the
//! bus nor the progress reporter changes the CSV report. Each run is its
//! own process, so the process-global bus is never shared.

use eureka_obs::events::deterministic_projection;
use eureka_obs::json::{self, Value};
use std::process::Command;

/// Runs `eureka simulate` with `extra` flags and returns its CSV report.
fn simulate(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_eureka"))
        .args([
            "simulate",
            "--benchmark",
            "mobilenetv1",
            "--arch",
            "eureka-p4",
        ])
        .args(["--fast", "--csv", "--no-ledger"])
        .args(extra)
        .output()
        .expect("the eureka binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "simulate {extra:?}: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

/// [`simulate`] with the event bus armed; returns the CSV report and the
/// deterministic projection of the event stream, after checking the
/// stream's `wall.seq` values are exactly `0..lines`.
fn simulate_with_events(tag: &str, extra: &[&str]) -> (String, String) {
    let events = std::env::temp_dir().join(format!("eureka-{tag}-{}.jsonl", std::process::id()));
    let path = events.to_str().expect("UTF-8 temp path");
    let report = simulate(&[&["--events-out", path], extra].concat());
    let stream = std::fs::read_to_string(&events).expect("event stream written");
    std::fs::remove_file(&events).ok();
    let mut seqs: Vec<u64> = stream
        .lines()
        .map(|line| {
            let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let seq = v
                .get("wall")
                .and_then(|w| w.get("seq"))
                .and_then(Value::as_f64);
            seq.unwrap_or_else(|| panic!("no wall.seq: {line}")) as u64
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>(), "{tag}");
    let projection = deterministic_projection(&stream).unwrap_or_else(|e| panic!("{tag}: {e}"));
    (report, projection)
}

#[test]
fn event_streams_are_schema_valid_and_jobs_invariant() {
    let (report_j1, p1) = simulate_with_events("events-j1", &["--jobs", "1"]);
    let (report_j4, p4) = simulate_with_events("events-j4", &["--jobs", "4", "--progress"]);
    assert!(p1.contains("\"event\":\"run-finished\""), "{p1}");
    assert_eq!(
        p1, p4,
        "the deterministic projection must not depend on --jobs"
    );
    assert_eq!(
        report_j1, report_j4,
        "arming the bus and progress changes no report"
    );
    assert_eq!(
        report_j1,
        simulate(&["--jobs", "4"]),
        "a run without the bus reports the same"
    );
}
