//! The run-event stream's end-to-end guarantees (`eureka-events-v1`):
//! every emitted line is schema-valid, the deterministic projection is
//! byte-identical across `--jobs` settings and across reruns, failures
//! and retries surface as typed events, memoization sources are visible
//! per unit, and — above all — arming the bus and the progress reporter
//! changes no report and no deterministic metric.

use eureka::obs;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::faults::{self, FaultKind, FaultPlan, FaultSpec, FaultyArch};
use eureka_sim::{arch, runner, JobOutcome, RetryPolicy, Runner, SimConfig, SimJob};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The event bus, the unit cache and the metrics registry are
/// process-global; serialize the tests that arm or reset them.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sampling counts distinct from every named preset so these tests never
/// share cache entries with other suites.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 11,
        slice_samples: 8,
        ..SimConfig::paper_default()
    }
}

/// An in-memory JSONL sink shareable across the `Box<dyn Write + Send>`
/// boundary the bus requires.
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

/// Runs `f` with the bus armed into a fresh sink and returns the
/// captured stream.
fn capture<F: FnOnce()>(f: F) -> String {
    let sink = Sink::default();
    obs::events::arm(Some(Box::new(sink.clone())));
    f();
    obs::events::disarm();
    sink.contents()
}

fn count(stream: &str, kind: &str) -> usize {
    let needle = format!("\"event\":\"{kind}\"");
    stream.lines().filter(|l| l.contains(&needle)).count()
}

#[test]
fn deterministic_projection_is_identical_across_jobs_and_reruns() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let run = |jobs: usize| {
        runner::cache_reset();
        capture(|| {
            let runner = if jobs == 1 {
                Runner::serial()
            } else {
                Runner::with_jobs(jobs)
            };
            runner.run(&job).expect("supported");
        })
    };
    let serial = run(1);
    let parallel = run(4);
    let rerun = run(1);

    // Every raw line is schema-valid, and the stream brackets the run.
    for stream in [&serial, &parallel, &rerun] {
        for (i, line) in stream.lines().enumerate() {
            obs::events::validate_line(line)
                .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
        }
        assert_eq!(count(stream, "run-started"), 1);
        assert_eq!(count(stream, "run-finished"), 1);
        assert_eq!(count(stream, "unit-planned"), w.layer_count());
        assert_eq!(count(stream, "unit-started"), w.layer_count());
        assert_eq!(count(stream, "unit-finished"), w.layer_count());
        assert_eq!(count(stream, "failure"), 0);
    }
    // The canonical comparison form is byte-identical regardless of
    // worker parallelism and across reruns; wall fields never leak in.
    let ps = obs::events::deterministic_projection(&serial).unwrap();
    let pp = obs::events::deterministic_projection(&parallel).unwrap();
    let pr = obs::events::deterministic_projection(&rerun).unwrap();
    assert_eq!(ps, pp, "projection must be --jobs invariant");
    assert_eq!(ps, pr, "projection must be rerun-stable");
    assert!(!ps.contains("\"wall\""));
    assert!(!ps.contains("t_us"));
    // In the serial stream, `seq` is dense in emission order.
    for (i, line) in serial.lines().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{i},")),
            "line {i} out of sequence: {line}"
        );
    }
}

#[test]
fn events_and_progress_have_zero_impact_on_reports_and_metrics() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p2").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    // Baseline: bus off, progress off.
    runner::cache_reset();
    obs::metrics::reset();
    let plain_report = Runner::with_jobs(4).run(&job).expect("supported");
    let plain_metrics = obs::metrics::snapshot_json(false);

    // Instrumented: bus armed AND progress forced on.
    runner::cache_reset();
    obs::metrics::reset();
    obs::progress::set_mode(obs::progress::Mode::On);
    let sink = Sink::default();
    obs::events::arm(Some(Box::new(sink.clone())));
    let instr_report = Runner::with_jobs(4).run(&job).expect("supported");
    obs::progress::set_mode(obs::progress::Mode::Off);
    obs::events::disarm();
    let instr_metrics = obs::metrics::snapshot_json(false);

    assert!(!sink.contents().is_empty(), "events were streamed");
    assert_eq!(
        plain_report, instr_report,
        "instrumented reports must be bit-identical"
    );
    assert_eq!(
        plain_metrics, instr_metrics,
        "deterministic metrics must be byte-identical"
    );
}

#[test]
fn failures_and_retries_surface_as_events() {
    let _x = exclusive();
    faults::install_quiet_hook();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let victim = w.gemms().into_iter().nth(2).expect("has layers").name;

    // One transient fault: the first attempt panics, the retry recovers.
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim.clone(),
        kind: FaultKind::Panic,
        fail_first: 1,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "ev-retry");
    let job = SimJob::new(&faulty, &w, cfg);
    runner::cache_reset();
    let stream = capture(|| {
        let outcome = Runner::serial()
            .without_cache()
            .with_retry(RetryPolicy::transient(3))
            .run_outcome(&job);
        assert!(matches!(outcome, JobOutcome::Complete(_)), "retry recovers");
    });
    assert_eq!(count(&stream, "retry"), 1);
    assert_eq!(count(&stream, "failure"), 0);
    assert!(stream.contains("\"attempt\":1"), "{stream}");
    assert!(stream.contains("\"failures\":0"), "{stream}");

    // A permanent fault with no retry budget degrades the job and emits
    // a typed failure event.
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim.clone(),
        kind: FaultKind::Panic,
        fail_first: u32::MAX,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "ev-fail");
    let job = SimJob::new(&faulty, &w, cfg);
    runner::cache_reset();
    let stream = capture(|| {
        let outcome = Runner::serial().without_cache().run_outcome(&job);
        assert!(matches!(outcome, JobOutcome::Degraded { .. }));
    });
    assert_eq!(count(&stream, "retry"), 0);
    assert_eq!(count(&stream, "failure"), 1);
    let failure_line = stream
        .lines()
        .find(|l| l.contains("\"event\":\"failure\""))
        .expect("failure event");
    assert!(
        failure_line.contains("\"kind\":\"panic\""),
        "{failure_line}"
    );
    assert!(failure_line.contains("\"attempts\":1"), "{failure_line}");
    assert!(stream.contains("\"failures\":1"), "{stream}");
}

#[test]
fn unit_source_classification_tracks_memoization() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig {
        rowgroup_samples: 12, // distinctive: this test owns its entries
        ..test_cfg()
    };
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    runner::cache_reset();
    let stream = capture(|| {
        Runner::serial().run(&job).expect("supported");
        Runner::serial().run(&job).expect("supported");
    });
    // First pass computes (or replays store tiles); the repeat is served
    // entirely from the unit cache.
    let cache_hits = stream
        .lines()
        .filter(|l| l.contains("\"event\":\"unit-finished\"") && l.contains("\"source\":\"cache\""))
        .count();
    assert_eq!(cache_hits, w.layer_count(), "{stream}");
    assert_eq!(count(&stream, "unit-finished"), 2 * w.layer_count());
    // Cache replays report zero execution wall time.
    for line in stream
        .lines()
        .filter(|l| l.contains("\"source\":\"cache\""))
    {
        assert!(line.contains("\"exec_us\":0"), "{line}");
    }
}
