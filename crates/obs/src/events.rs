//! Structured run-event stream (`eureka-events-v1`).
//!
//! A process-wide JSONL event bus mirroring the metrics registry's
//! deterministic/timing split at the *field* level: every event line
//! carries a `det` object (fields that are byte-identical across
//! reruns and across `--jobs 1` vs `--jobs N`, given the runner's
//! determinism contract) and a `wall` object (emission order, wall
//! clock, and environment — everything that legitimately varies).
//!
//! Line format (one JSON object per line, no trailing spaces):
//!
//! ```text
//! {"schema":"eureka-events-v1","event":"unit-finished","det":{...},"wall":{"seq":7,"t_us":1234,...}}
//! ```
//!
//! Because worker threads emit concurrently, the raw line *order* is
//! not deterministic under `--jobs N`. The canonical comparison form is
//! the [`deterministic_projection`]: per line, keep only
//! `{"event":...,"det":{...}}`, sort the lines lexicographically, and
//! join with `\n`. Two runs of the same plan agree byte-for-byte on
//! this projection regardless of parallelism (CI compares the streams
//! of `eureka simulate --jobs 1` and `--jobs 4` this way).
//!
//! The bus is **off by default**: every emit site is guarded by a
//! single relaxed atomic load ([`enabled`]), so instrumented code pays
//! ~nothing until a writer is armed or the progress reporter is active.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json;

/// Schema identifier stamped on every line.
pub const SCHEMA: &str = "eureka-events-v1";

/// Event kinds and their required deterministic fields, in schema
/// order. The checker ([`validate_line`]) enforces this table; it is
/// the only copy.
pub const KINDS: &[(&str, &[&str])] = &[
    ("run-started", &[]),
    ("unit-planned", &["unit", "job", "arch", "gemm", "key"]),
    ("unit-started", &["unit"]),
    ("unit-finished", &["unit", "source", "ok", "cycles"]),
    ("retry", &["unit", "attempt", "kind"]),
    ("failure", &["unit", "kind", "attempts", "payload"]),
    ("checkpoint-written", &["unit"]),
    ("run-finished", &["units", "failures"]),
    // Job-service lifecycle (eureka serve).
    ("job-accepted", &["job", "key"]),
    ("job-queued", &["job"]),
    ("job-started", &["job"]),
    ("job-retried", &["job", "attempts"]),
    ("job-completed", &["job", "ok"]),
    ("job-cancelled", &["job"]),
    ("job-deadline-exceeded", &["job"]),
    ("job-shed", &["capacity"]),
    ("job-recovered", &["job", "key"]),
    // SLA lifecycle tracing (admission → dequeue → terminal outcome).
    ("job-admitted", &["job", "key"]),
    ("job-dequeued", &["job"]),
    ("job-finished", &["job", "outcome"]),
    ("service-drained", &[]),
];

/// A single field value (events only need these three shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (unit indices, cycle counts, digests-as-u64).
    U64(u64),
    /// String (arch names, source classification, failure kinds).
    Str(String),
    /// Boolean (`ok`).
    Bool(bool),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// One event under construction. Build with [`Event::new`] and the
/// `det_*`/`wall_*` field adders, then pass to [`emit`].
#[derive(Debug, Clone)]
pub struct Event {
    kind: &'static str,
    det: Vec<(&'static str, FieldValue)>,
    wall: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts an event of the given kind (one of the [`KINDS`] names).
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            det: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Adds a deterministic unsigned-integer field.
    #[must_use]
    pub fn det_u64(mut self, key: &'static str, v: u64) -> Self {
        self.det.push((key, FieldValue::U64(v)));
        self
    }

    /// Adds a deterministic string field.
    #[must_use]
    pub fn det_str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.det.push((key, FieldValue::Str(v.into())));
        self
    }

    /// Adds a deterministic boolean field.
    #[must_use]
    pub fn det_bool(mut self, key: &'static str, v: bool) -> Self {
        self.det.push((key, FieldValue::Bool(v)));
        self
    }

    /// Adds a wall-clock/environment unsigned-integer field (appended
    /// after the bus-assigned `seq` and `t_us`).
    #[must_use]
    pub fn wall_u64(mut self, key: &'static str, v: u64) -> Self {
        self.wall.push((key, FieldValue::U64(v)));
        self
    }

    /// The event kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Looks up a deterministic field by name.
    #[must_use]
    pub fn det_field(&self, key: &str) -> Option<&FieldValue> {
        self.det.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The event as one JSONL line (no newline) with the given
    /// `wall.seq` / `wall.t_us` — the bus's writer, shared with the
    /// flight recorder's dumps.
    pub(crate) fn to_line(&self, seq: u64, t_us: u64) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"event\":\"");
        out.push_str(self.kind);
        out.push_str("\",\"det\":{");
        for (i, (k, v)) in self.det.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push_str("},\"wall\":{\"seq\":");
        out.push_str(&seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&t_us.to_string());
        for (k, v) in &self.wall {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

struct Bus {
    writer: Option<Box<dyn Write + Send>>,
    seq: u64,
    start: Instant,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EMITTED: AtomicU64 = AtomicU64::new(0);

fn bus() -> MutexGuard<'static, Bus> {
    static BUS: OnceLock<Mutex<Bus>> = OnceLock::new();
    BUS.get_or_init(|| {
        Mutex::new(Bus {
            writer: None,
            seq: 0,
            start: Instant::now(),
        })
    })
    .lock()
    .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether any consumer (JSONL writer or progress reporter) is
/// attached. Emit sites check this first; when `false`, [`emit`]
/// returns immediately.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) fn refresh_enabled() {
    let has_writer = bus().writer.is_some();
    ENABLED.store(has_writer || crate::progress::active(), Ordering::Release);
}

/// Arms the bus for a run: installs the JSONL writer (if any), zeroes
/// the sequence and emitted counters, and restarts the `t_us` clock.
/// Call with `None` to reset counters for a progress-only run.
pub fn arm(writer: Option<Box<dyn Write + Send>>) {
    {
        let mut bus = bus();
        bus.writer = writer;
        bus.seq = 0;
        bus.start = Instant::now();
    }
    EMITTED.store(0, Ordering::Release);
    refresh_enabled();
}

/// Flushes and detaches the writer. The emitted-line count survives
/// until the next [`arm`] so callers (the run ledger) can read it
/// after the run completes.
pub fn disarm() {
    {
        let mut bus = bus();
        if let Some(w) = bus.writer.as_mut() {
            let _ = w.flush();
        }
        bus.writer = None;
    }
    refresh_enabled();
}

/// Number of events emitted since the bus was last armed.
#[must_use]
pub fn emitted_count() -> u64 {
    EMITTED.load(Ordering::Acquire)
}

/// Emits one event: assigns `seq`/`t_us` under the bus lock, writes
/// the JSONL line to the armed writer (if any), and feeds the progress
/// reporter. A no-op unless [`enabled`] — emit sites may call this
/// unconditionally, but hot paths should check [`enabled`] first to
/// skip event construction entirely.
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    let mut bus = bus();
    let seq = bus.seq;
    bus.seq += 1;
    let t_us = u64::try_from(bus.start.elapsed().as_micros()).unwrap_or(u64::MAX);
    if bus.writer.is_some() {
        let line = ev.to_line(seq, t_us);
        if let Some(w) = bus.writer.as_mut() {
            if writeln!(w, "{line}").is_err() {
                // A broken pipe must not take the run down; drop the
                // writer and keep simulating.
                bus.writer = None;
            }
        }
    }
    EMITTED.fetch_add(1, Ordering::AcqRel);
    drop(bus);
    crate::progress::observe(&ev);
}

/// Validates a single JSONL line against the v1 schema: the `schema`
/// stamp, a known `event` kind, its required `det` fields, and the
/// bus-assigned `wall.seq`/`wall.t_us` numbers.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    if v.get("schema").and_then(json::Value::as_str) != Some(SCHEMA) {
        return Err(format!("bad or missing schema stamp (want {SCHEMA})"));
    }
    let kind = v
        .get("event")
        .and_then(json::Value::as_str)
        .ok_or("missing event kind")?;
    let required = KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, req)| *req)
        .ok_or_else(|| format!("unknown event kind {kind:?}"))?;
    let det = v.get("det").ok_or("missing det object")?;
    if !matches!(det, json::Value::Obj(_)) {
        return Err("det is not an object".to_string());
    }
    for field in required {
        if det.get(field).is_none() {
            return Err(format!("event {kind:?} missing det field {field:?}"));
        }
    }
    let wall = v.get("wall").ok_or("missing wall object")?;
    for field in ["seq", "t_us"] {
        if wall.get(field).and_then(json::Value::as_f64).is_none() {
            return Err(format!("missing numeric wall field {field:?}"));
        }
    }
    Ok(())
}

/// Canonical deterministic projection of an event stream: per line,
/// keep only `{"event":...,"det":{...}}` (field order preserved), sort
/// the projected lines lexicographically, join with `\n`. Two runs of
/// the same plan agree byte-for-byte on this projection regardless of
/// `--jobs`. Every line is validated on the way through.
pub fn deterministic_projection(stream: &str) -> Result<String, String> {
    let mut projected = Vec::new();
    for (idx, line) in stream.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let event = v.get("event").cloned().unwrap_or(json::Value::Null);
        let det = v.get("det").cloned().unwrap_or(json::Value::Null);
        let proj = json::Value::Obj(vec![("event".to_string(), event), ("det".to_string(), det)]);
        projected.push(proj.to_json());
    }
    projected.sort_unstable();
    Ok(projected.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Events tests share the process-wide bus; serialize them.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A Vec<u8> sink shareable across the `Box<dyn Write + Send>`
    /// boundary.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Sink {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_bus_emits_nothing() {
        let _gate = exclusive();
        disarm();
        assert!(!enabled());
        emit(Event::new("run-started"));
        // No writer armed since the last arm(None) — nothing counted.
    }

    #[test]
    fn emits_schema_valid_lines_in_sequence() {
        let _gate = exclusive();
        let sink = Sink::default();
        arm(Some(Box::new(sink.clone())));
        emit(Event::new("run-started").wall_u64("jobs", 2));
        emit(
            Event::new("unit-planned")
                .det_u64("unit", 0)
                .det_u64("job", 0)
                .det_str("arch", "Dense")
                .det_str("gemm", "conv1")
                .det_str("key", "00ff"),
        );
        emit(
            Event::new("unit-finished")
                .det_u64("unit", 0)
                .det_str("source", "computed")
                .det_bool("ok", true)
                .det_u64("cycles", 123)
                .wall_u64("exec_us", 9),
        );
        disarm();
        let out = sink.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(emitted_count(), 3);
        for (i, line) in lines.iter().enumerate() {
            validate_line(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            let v = json::parse(line).unwrap();
            let seq = v.get("wall").unwrap().get("seq").unwrap().as_f64().unwrap();
            assert_eq!(seq as usize, i, "seq assigned in emission order");
        }
        assert!(lines[2].contains("\"cycles\":123"));
        assert!(lines[2].contains("\"exec_us\":9"));
    }

    #[test]
    fn projection_is_order_insensitive_and_drops_wall_fields() {
        let _gate = exclusive();
        let a = concat!(
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":1},"wall":{"seq":0,"t_us":5}}"#,
            "\n",
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":0},"wall":{"seq":1,"t_us":9}}"#,
        );
        let b = concat!(
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":0},"wall":{"seq":0,"t_us":1}}"#,
            "\n",
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":1},"wall":{"seq":1,"t_us":2}}"#,
        );
        let pa = deterministic_projection(a).unwrap();
        let pb = deterministic_projection(b).unwrap();
        assert_eq!(pa, pb);
        assert!(!pa.contains("wall"));
        assert!(!pa.contains("t_us"));
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v2","event":"run-started","det":{},"wall":{"seq":0,"t_us":0}}"#).is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"no-such-kind","det":{},"wall":{"seq":0,"t_us":0}}"#).is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"unit-started","det":{},"wall":{"seq":0,"t_us":0}}"#)
            .is_err_and(|e| e.contains("unit")));
        assert!(validate_line(
            r#"{"schema":"eureka-events-v1","event":"run-started","det":{},"wall":{"seq":0}}"#
        )
        .is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"run-started","det":{},"wall":{"seq":0,"t_us":0}}"#).is_ok());
    }

    #[test]
    fn broken_writer_does_not_poison_the_run() {
        let _gate = exclusive();
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        arm(Some(Box::new(Broken)));
        emit(Event::new("run-started"));
        emit(
            Event::new("run-finished")
                .det_u64("units", 0)
                .det_u64("failures", 0),
        );
        disarm();
        assert_eq!(emitted_count(), 2);
    }
}
