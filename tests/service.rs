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
