//! The `sgml_processor run --trace/--spans` surface: exports the EPIC bundle
//! to disk, co-simulates it through the real binary, and structurally
//! validates the Chrome trace-event JSON and the span log — resolvable
//! parents, no dangling trace IDs, monotonic timestamps within each track.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::obs::json::{self, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgcr-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A required unsigned integer member of a parsed object.
fn uint(value: &Value, key: &str) -> u64 {
    value
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{key} must be an unsigned integer"))
}

#[test]
fn cli_exports_valid_trace_and_span_files() {
    let dir = temp_dir("trace-export");
    let bundle_dir = dir.join("bundle");
    epic_bundle()
        .write_to_dir(&bundle_dir)
        .expect("write EPIC bundle");
    let trace_path = dir.join("trace.json");
    let spans_path = dir.join("spans.jsonl");
    let metrics_path = dir.join("metrics.json");

    let output = Command::new(env!("CARGO_BIN_EXE_sgml_processor"))
        .args([
            "run",
            bundle_dir.to_str().unwrap(),
            "--seconds",
            "2",
            "--trace",
            trace_path.to_str().unwrap(),
            "--spans",
            spans_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("run sgml_processor");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // --- Span log: one JSON object per line, resolvable causal links. ---
    let spans = std::fs::read_to_string(&spans_path).expect("spans file written");
    let records: Vec<Value> = spans
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert!(records.len() > 100, "a 2 s run produces many spans");
    let mut trace_of_span: HashMap<u64, u64> = HashMap::new();
    for span in &records {
        let start = uint(span, "start_ns");
        let end = uint(span, "end_ns");
        assert!(end >= start, "span interval must not be inverted: {span:?}");
        trace_of_span.insert(uint(span, "span_id"), uint(span, "trace_id"));
    }
    let mut roots = 0usize;
    for span in &records {
        let span_id = uint(span, "span_id");
        let trace_id = uint(span, "trace_id");
        match span.get("parent_span_id") {
            Some(Value::Null) => roots += 1,
            Some(parent) => {
                let parent = parent.as_u64().expect("parent_span_id is an id or null");
                // Every parent reference resolves to a recorded span of the
                // same trace — no dangling IDs anywhere in the file.
                let parent_trace = *trace_of_span
                    .get(&parent)
                    .unwrap_or_else(|| panic!("span {span_id} has dangling parent {parent}"));
                assert_eq!(
                    parent_trace, trace_id,
                    "span {span_id} and parent {parent} must share a trace"
                );
            }
            None => panic!("span {span_id} lacks parent_span_id"),
        }
    }
    assert!(roots > 0, "at least one trace root (the step spans)");

    // --- Chrome trace: one event per line, track metadata + complete
    // events, monotonic ts. ---
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let doc = json::parse(&trace).expect("trace is one JSON document");
    let trace_events = doc.as_array().expect("trace is a JSON array");
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.first(), Some(&"["));
    assert_eq!(lines.last(), Some(&"]"));
    assert_eq!(lines.len(), trace_events.len() + 2, "one event per line");
    for (line, event) in lines[1..lines.len() - 1].iter().zip(trace_events) {
        let line = line.strip_suffix(',').unwrap_or(line);
        assert_eq!(json::parse(line).as_ref(), Ok(event), "line: {line}");
    }
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let tracks: Vec<String> = trace_events
        .iter()
        .filter(|e| text(e, "name").as_deref() == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| text(a, "name")))
        .collect();
    assert_eq!(tracks, ["range", "power", "net", "control", "scada"]);
    let mut events = 0usize;
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for event in trace_events {
        match text(event, "ph").as_deref() {
            Some("M") => {
                let name = text(event, "name");
                assert!(
                    matches!(name.as_deref(), Some("process_name" | "thread_name")),
                    "metadata event: {event:?}"
                );
                continue;
            }
            Some("X") => {}
            other => panic!("unexpected phase {other:?}"),
        }
        events += 1;
        let tid = uint(event, "tid");
        let ts = event
            .get("ts")
            .and_then(Value::as_f64)
            .expect("complete events carry a ts");
        assert!(
            event
                .get("dur")
                .and_then(Value::as_f64)
                .expect("dur present")
                >= 0.0
        );
        let args = event.get("args").expect("IDs ride in args");
        uint(args, "trace_id");
        uint(args, "span_id");
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(
                ts >= prev,
                "timestamps must be monotonic within track {tid}: {prev} then {ts}"
            );
        }
    }
    assert_eq!(
        events,
        records.len(),
        "every span becomes one complete event"
    );

    // --- Metrics snapshot surfaces the span-buffer drop counter. ---
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let metrics = json::parse(&metrics).expect("metrics file is JSON");
    assert_eq!(uint(&metrics, "spans_dropped"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_without_trace_flags_writes_no_trace_files() {
    let dir = temp_dir("trace-off");
    let bundle_dir = dir.join("bundle");
    epic_bundle()
        .write_to_dir(&bundle_dir)
        .expect("write EPIC bundle");
    let metrics_path = dir.join("metrics.json");

    let output = Command::new(env!("CARGO_BIN_EXE_sgml_processor"))
        .args([
            "run",
            bundle_dir.to_str().unwrap(),
            "--seconds",
            "1",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("run sgml_processor");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Telemetry without tracing: the snapshot still reports the (zero) span
    // drop counter, and no trace artifacts appear.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(metrics.contains("\"spans_dropped\": 0"), "{metrics}");
    assert!(!dir.join("trace.json").exists());
    assert!(!dir.join("spans.jsonl").exists());

    let _ = std::fs::remove_dir_all(&dir);
}
