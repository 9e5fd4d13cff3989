//! The resident job service's survival contract, end to end: a SIGTERM
//! (through the real signal handler) drains gracefully — in-flight work
//! finishes, new work sheds, the journal ends clean — and a SIGKILL
//! (crash emulation) loses nothing: accepted-but-unfinished jobs replay
//! from the write-ahead journal on restart, without duplicating units
//! the previous life completed, and the service ledger reconciles in
//! every generation.

use eureka_models::{Benchmark, PruningLevel};
use eureka_sim::service::{self, JobService, JobSpec, JobStatus, ServiceConfig, SubmitError};
use eureka_sim::{BackoffPolicy, Journal, SimConfig};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The service counters and the termination latch are process-global;
/// serialize these tests so exact-count assertions hold.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sampling counts distinct from every other suite so these tests own
/// their cache and checkpoint entries.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 5,
        slice_samples: 5,
        ..SimConfig::fast()
    }
}

struct Sandbox {
    root: PathBuf,
}

impl Sandbox {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("eureka-svc-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).expect("sandbox dir");
        Sandbox { root }
    }

    fn config(&self, hold: bool) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.root.join("journal"));
        cfg.sim = test_cfg();
        cfg.checkpoint_dir = Some(self.root.join("ckpt"));
        cfg.backoff = BackoffPolicy::exponential(100, 2_000);
        cfg.hold = hold;
        cfg
    }

    fn journal(&self) -> Journal {
        Journal::new(self.root.join("journal"))
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn spec(retries: u32) -> JobSpec {
    let mut s = JobSpec::new(
        Benchmark::MobileNetV1,
        PruningLevel::Moderate,
        32,
        "eureka-p4",
    );
    s.retries = retries; // distinct retries ⇒ distinct journal identity
    s
}

/// SIGTERM through the real handler: the latch fires, the serve loop
/// drains — queued jobs finish, later submissions shed as `Draining` —
/// and the journal holds no unfinished work afterwards.
#[test]
fn sigterm_drains_gracefully_without_losing_accepted_jobs() {
    let _x = exclusive();
    let sb = Sandbox::new("sigterm");
    service::service_reset();
    eureka_signal::install_termination_latch();
    eureka_signal::reset_termination();

    // Hold the worker so both jobs are still queued when the signal
    // lands — the drain, not luck, must finish them.
    let svc = JobService::start(sb.config(true));
    let a = svc.submit(spec(0)).expect("first submission admitted");
    let b = svc.submit(spec(1)).expect("second submission admitted");

    eureka_signal::raise_termination();
    assert!(
        eureka_signal::termination_requested(),
        "the real SIGTERM handler must fire the latch"
    );

    // What `eureka serve` does when the latch fires.
    svc.release();
    assert!(svc.drain(), "drain must finish the queued work");
    assert_eq!(
        svc.submit(spec(2)),
        Err(SubmitError::Draining),
        "a draining service admits nothing new"
    );
    assert_eq!(svc.status(a), Some(JobStatus::Completed));
    assert_eq!(svc.status(b), Some(JobStatus::Completed));
    assert!(svc.outcome(a).is_some_and(|o| o.is_complete()));
    svc.shutdown();

    let stats = service::service_stats();
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert!(stats.reconciled(), "{stats:?}");
    assert_eq!(
        service::latency_counts(),
        [2, 1, 0, 0, 0],
        "per-class latency histogram counts track the counters exactly"
    );
    assert!(
        sb.journal().recover().is_empty(),
        "a drained service leaves no unfinished journal records"
    );
    eureka_signal::reset_termination();
}

/// Mixed terminal outcomes (completed, cancelled-from-queue, shed):
/// the per-class latency histogram counts reconcile exactly with
/// `ServiceStats`, both via [`service::latency_counts`] and through the
/// `stats` wire verb.
#[test]
fn latency_histogram_counts_reconcile_with_service_stats_per_class() {
    use eureka_obs::json::{self, Value};

    let _x = exclusive();
    let sb = Sandbox::new("latency");
    service::service_reset();

    let svc = JobService::start(sb.config(true)); // held: cancel window is deterministic
    svc.submit(spec(0)).expect("admitted");
    let b = svc.submit(spec(1)).expect("admitted");
    assert!(svc.cancel(b), "queued job cancels immediately");
    svc.release();
    assert!(svc.wait_idle());
    assert!(svc.drain());
    assert_eq!(
        svc.submit(spec(2)),
        Err(SubmitError::Draining),
        "post-drain submission sheds"
    );

    let stats = service::service_stats();
    assert!(stats.reconciled(), "{stats:?}");
    assert_eq!(
        service::latency_counts(),
        [
            stats.completed,
            stats.shed,
            stats.cancelled,
            stats.deadline_exceeded,
            stats.failed
        ],
        "each outcome class's e2e histogram count equals its counter"
    );

    // The wire verb reports the same counts.
    let (resp, stop) = service::handle_request(&svc, r#"{"cmd":"stats"}"#);
    assert!(!stop);
    let v = json::parse(&resp).expect("stats is one JSON line");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    let count_of = |class: &str| {
        v.get("latency")
            .and_then(|l| l.get(class))
            .and_then(|c| c.get("e2e_us"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("latency.{class}.e2e_us.count missing: {resp}"))
    };
    #[allow(clippy::cast_precision_loss)]
    {
        assert_eq!(count_of("completed"), stats.completed as f64);
        assert_eq!(count_of("shed"), stats.shed as f64);
        assert_eq!(count_of("cancelled"), stats.cancelled as f64);
        assert_eq!(count_of("failed"), stats.failed as f64);
    }
    svc.shutdown();
    service::service_reset();
}

/// SIGKILL emulation: the crashed generation journals nothing terminal,
/// the restarted generation replays exactly the unfinished jobs and
/// completes them, and a third generation finds a clean journal.
#[test]
fn sigkill_crash_replays_unfinished_jobs_from_the_journal() {
    let _x = exclusive();
    let sb = Sandbox::new("sigkill");
    service::service_reset();

    let svc = JobService::start(sb.config(true));
    svc.submit(spec(0)).expect("admitted");
    svc.submit(spec(1)).expect("admitted");
    svc.crash(); // SIGKILL: no drain, no terminal journaling

    let mut unfinished = sb.journal().recover();
    unfinished.sort();
    let mut expected = vec![spec(0).canonical(), spec(1).canonical()];
    expected.sort();
    assert_eq!(unfinished, expected, "both accepted jobs must await replay");

    // Generation 2: same journal + checkpoint dirs, fresh ledger.
    service::service_reset();
    let svc2 = JobService::start(sb.config(false));
    assert!(svc2.wait_idle(), "recovered jobs run to completion");
    assert_eq!(
        svc2.health(),
        (0, false, false),
        "nothing queued or running"
    );
    let stats = service::service_stats();
    assert_eq!(stats.recovered, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert!(stats.reconciled(), "{stats:?}");
    assert_eq!(
        service::latency_counts(),
        [2, 0, 0, 0, 0],
        "recovered jobs get full lifecycle latency samples; the crashed \
         generation recorded no terminal samples"
    );
    // Recovery re-admits in sorted order with fresh ids from 1.
    for id in [1, 2] {
        assert_eq!(svc2.status(id), Some(JobStatus::Completed), "job {id}");
        assert!(
            svc2.outcome(id).is_some_and(|o| o.is_complete()),
            "job {id} has a complete report"
        );
    }
    svc2.shutdown();

    // Generation 3: nothing left to replay.
    assert!(
        sb.journal().recover().is_empty(),
        "completed jobs must not replay again"
    );
    service::service_reset();
    let svc3 = JobService::start(sb.config(false));
    assert!(svc3.wait_idle());
    assert_eq!(service::service_stats().recovered, 0);
    svc3.shutdown();
}

/// An in-memory JSONL sink for the event bus; a `slow` one takes its
/// time over every job lifecycle line.
#[derive(Clone, Default)]
struct Sink {
    lines: std::sync::Arc<Mutex<Vec<u8>>>,
    slow: bool,
}

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.slow && buf.starts_with(b"{\"schema\":\"eureka-events-v1\",\"event\":\"job-") {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        self.lines.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// FNV-1a 64 of a string, as 16 hex digits.
fn fnv_hex(text: &str) -> String {
    format!("{:016x}", eureka_sim::checkpoint::fnv1a64(text.as_bytes()))
}

/// The job-lifecycle lines of the pinned projection below.
const PINNED_LIFECYCLE: &str = r#"{"event":"job-accepted","det":{"job":1,"key":"5f302c65c625fde4"}}
{"event":"job-accepted","det":{"job":1,"key":"8b5fb5b5eaeda196"}}
{"event":"job-accepted","det":{"job":1,"key":"8b5fb7b5eaeda4fc"}}
{"event":"job-accepted","det":{"job":1,"key":"8b5fb9b5eaeda862"}}
{"event":"job-admitted","det":{"job":1,"key":"5f302c65c625fde4"}}
{"event":"job-admitted","det":{"job":1,"key":"8b5fb5b5eaeda196"}}
{"event":"job-admitted","det":{"job":1,"key":"8b5fb5b5eaeda196"}}
{"event":"job-admitted","det":{"job":1,"key":"8b5fb7b5eaeda4fc"}}
{"event":"job-admitted","det":{"job":1,"key":"8b5fb9b5eaeda862"}}
{"event":"job-cancelled","det":{"job":1}}
{"event":"job-completed","det":{"job":1,"ok":true}}
{"event":"job-completed","det":{"job":1,"ok":true}}
{"event":"job-deadline-exceeded","det":{"job":1}}
{"event":"job-dequeued","det":{"job":1}}
{"event":"job-dequeued","det":{"job":1}}
{"event":"job-dequeued","det":{"job":1}}
{"event":"job-finished","det":{"job":1,"outcome":"cancelled"}}
{"event":"job-finished","det":{"job":1,"outcome":"completed"}}
{"event":"job-finished","det":{"job":1,"outcome":"completed"}}
{"event":"job-finished","det":{"job":1,"outcome":"deadline-exceeded"}}
{"event":"job-queued","det":{"job":1}}
{"event":"job-queued","det":{"job":1}}
{"event":"job-queued","det":{"job":1}}
{"event":"job-queued","det":{"job":1}}
{"event":"job-queued","det":{"job":1}}
{"event":"job-recovered","det":{"job":1,"key":"8b5fb5b5eaeda196"}}
{"event":"job-shed","det":{"capacity":8}}
{"event":"job-started","det":{"job":1}}
{"event":"job-started","det":{"job":1}}
{"event":"job-started","det":{"job":1}}
{"event":"service-drained","det":{}}
{"event":"service-drained","det":{}}
{"event":"service-drained","det":{}}
{"event":"service-drained","det":{}}
{"event":"service-drained","det":{}}"#;

/// FNV-1a 64 of the whole pinned projection, runner events included.
const PINNED_PROJECTION_DIGEST: &str = "dc371a5a9311b258";

/// Shuts `svc` down, then checks its flight-recorder dump: every line
/// is a valid `eureka-events-v1` event, `wall.seq` runs consecutively,
/// only `jobs` (this service's ids and specs) appear, and every
/// `job-admitted` key names a `<key>.job` journal file.
fn shutdown_and_check_recorder(svc: JobService, jobs: &[(u64, &JobSpec)], journal: &Journal) {
    use eureka_obs::json::{self, Value};

    let recorder = svc.flight_recorder();
    svc.shutdown();
    let dump = recorder.dump_jsonl();
    assert!(dump.contains("\"event\":\"service-drained\""), "{dump}");
    let mut seqs = Vec::new();
    for line in dump.lines() {
        eureka_obs::events::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let v = json::parse(line).expect("valid line");
        seqs.push(
            v.get("wall")
                .and_then(|w| w.get("seq"))
                .and_then(Value::as_f64)
                .unwrap() as u64,
        );
        let det = v.get("det").expect("det");
        if let Some(id) = det.get("job").and_then(Value::as_f64) {
            assert!(
                jobs.iter().any(|(j, _)| *j as f64 == id),
                "foreign job: {line}"
            );
        }
        if let Some(key) = det.get("key").and_then(Value::as_str) {
            assert!(
                jobs.iter().any(|(_, s)| s.digest() == key),
                "foreign key: {line}"
            );
            if line.contains("\"event\":\"job-admitted\"") {
                assert!(
                    journal.dir().join(format!("{key}.job")).is_file(),
                    "admitted key {key} has no journal file"
                );
            }
        }
    }
    let first = seqs[0];
    assert_eq!(seqs, (first..first + seqs.len() as u64).collect::<Vec<_>>());
}

/// The served stream's deterministic projection, pinned: five lifecycles
/// (submit → complete, shed, cancel while queued, deadline, crash →
/// recover) with the bus armed keep emitting exactly these job events,
/// the runner events under them keep their digest, and each service's
/// flight recorder holds its own lifecycle as valid bus lines.
#[test]
fn served_lifecycles_keep_their_pinned_event_projection() {
    use eureka_sim::faults::{FaultKind, FaultPlan, FaultSpec};

    let _x = exclusive();
    let sb = Sandbox::new("pinned");
    let journal = sb.journal();
    service::service_reset();
    let config = |hold: bool| {
        let mut cfg = ServiceConfig::new(sb.root.join("journal"));
        cfg.sim = SimConfig {
            rowgroup_samples: 2,
            slice_samples: 2,
            ..SimConfig::fast()
        };
        cfg.hold = hold;
        cfg
    };
    let sink = Sink::default();
    eureka_obs::events::arm(Some(Box::new(sink.clone())));

    // Submit → complete, then a drain and a shed submission.
    let svc = JobService::start(config(false));
    let id = svc.submit(spec(0)).expect("admitted");
    assert!(svc.wait_idle());
    assert_eq!(svc.status(id), Some(JobStatus::Completed));
    assert!(svc.drain());
    assert_eq!(svc.submit(spec(1)), Err(SubmitError::Draining));
    shutdown_and_check_recorder(svc, &[(id, &spec(0))], &journal);

    // Cancel while queued.
    let svc = JobService::start(config(true));
    let id = svc.submit(spec(2)).expect("admitted");
    assert!(svc.cancel(id));
    shutdown_and_check_recorder(svc, &[(id, &spec(2))], &journal);

    // Deadline: the first layer stalls well past the job's deadline.
    let layer = eureka_models::Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32)
        .gemms()[0]
        .name
        .clone();
    let mut cfg = config(false);
    cfg.fault = Some((
        FaultPlan::new(vec![FaultSpec {
            layer,
            kind: FaultKind::Stall(300),
            fail_first: u32::MAX,
        }]),
        "pinned".into(),
    ));
    let svc = JobService::start(cfg);
    let mut late = spec(3);
    late.deadline_ms = 100;
    let id = svc.submit(late.clone()).expect("admitted");
    assert!(svc.wait_idle());
    assert_eq!(svc.status(id), Some(JobStatus::DeadlineExceeded));
    shutdown_and_check_recorder(svc, &[(id, &late)], &journal);

    // Crash → recover: the held job replays in the next generation.
    let svc = JobService::start(config(true));
    svc.submit(spec(4)).expect("admitted");
    svc.crash();
    let svc = JobService::start(config(false));
    assert!(svc.wait_idle());
    assert_eq!(svc.status(1), Some(JobStatus::Completed));
    shutdown_and_check_recorder(svc, &[(1, &spec(4))], &journal);

    eureka_obs::events::disarm();
    let stream = String::from_utf8(sink.lines.lock().unwrap().clone()).unwrap();
    let projection = eureka_obs::events::deterministic_projection(&stream).expect("valid stream");
    let lifecycle: Vec<&str> = projection
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"job-") || l.starts_with("{\"event\":\"service-"))
        .collect();
    assert_eq!(lifecycle.join("\n"), PINNED_LIFECYCLE);
    assert_eq!(
        fnv_hex(&projection),
        PINNED_PROJECTION_DIGEST,
        "{projection}"
    );
    service::service_reset();
}

/// Spins on `status(id)` from the calling thread; at the first terminal
/// status, the job's whole terminal accounting must already be visible.
fn assert_accounted_at_first_terminal(
    svc: &JobService,
    journal: &Journal,
    id: u64,
    s: &JobSpec,
    class: usize,
) {
    let status = loop {
        match svc.status(id) {
            Some(st) if st.is_terminal() => break st,
            _ => std::hint::spin_loop(),
        }
    };
    let stats = service::service_stats();
    let counter = [stats.completed, stats.shed, stats.cancelled][class];
    let e2e = service::latency_counts()[class];
    let finished = svc.flight_recorder().dump_jsonl().lines().any(|l| {
        l.contains(&format!(
            "\"event\":\"job-finished\",\"det\":{{\"job\":{id},"
        ))
    });
    let journaled = std::fs::read_to_string(journal.path_for(&s.canonical())).unwrap_or_default();
    assert_eq!(
        counter, 1,
        "{status:?} published before its class counter ticked"
    );
    assert_eq!(e2e, 1, "{status:?} published before its e2e sample");
    assert!(
        finished,
        "{status:?} published before the recorder's job-finished line"
    );
    assert!(
        journaled.contains(&format!("state {}", status.label())),
        "{status:?} published before its terminal journal record: {journaled:?}"
    );
}

/// Whoever sees a terminal status first — here the submitting thread —
/// sees the finished accounting too: the worker's end of job and a
/// queued job's cancellation publish the status last.
#[test]
fn terminal_status_is_published_after_all_accounting() {
    let _x = exclusive();
    let sb = Sandbox::new("race");
    let slow = Sink {
        slow: true,
        ..Sink::default()
    };
    eureka_obs::events::arm(Some(Box::new(slow)));

    service::service_reset();
    let svc = JobService::start(sb.config(false));
    let id = svc.submit(spec(0)).expect("admitted");
    assert_accounted_at_first_terminal(&svc, &sb.journal(), id, &spec(0), 0);
    svc.shutdown();

    service::service_reset();
    let svc = JobService::start(sb.config(true));
    let id = svc.submit(spec(1)).expect("admitted");
    std::thread::scope(|scope| {
        scope.spawn(|| assert!(svc.cancel(id)));
        assert_accounted_at_first_terminal(&svc, &sb.journal(), id, &spec(1), 2);
    });
    svc.shutdown();
    eureka_obs::events::disarm();
    service::service_reset();
}
