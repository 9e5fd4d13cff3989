//! The telemetry layer's end-to-end guarantees: metrics snapshots are
//! deterministic, the cache counters reconcile with the planner, trace
//! export covers every unit on every worker track, and — above all —
//! telemetry never changes simulation output.

use eureka::obs;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, runner, ProfileConfig, Runner, SimConfig, SimJob};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Spans, the metrics registry and the unit cache are process-global;
/// serialize the tests that reset or drain them.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sampling counts distinct from every named preset so these tests never
/// share cache entries with other suites.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 9,
        slice_samples: 9,
        ..SimConfig::paper_default()
    }
}

#[test]
fn metrics_snapshot_is_byte_identical_across_reruns() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let snapshot = || {
        runner::cache_reset();
        obs::metrics::reset();
        Runner::serial().run(&job).expect("supported");
        obs::metrics::snapshot_json(false)
    };
    let first = snapshot();
    let second = snapshot();
    // Timing metrics are excluded by design, so the deterministic
    // snapshot carries only counts — byte-identical across reruns.
    assert_eq!(first, second);
    assert!(first.contains("\"cache.hits\":0"), "{first}");
    assert!(!first.contains("exec_micros"), "timing excluded: {first}");
    // The full snapshot includes the timing histograms.
    let full = obs::metrics::snapshot_json(true);
    assert!(full.contains("\"unit.exec_micros\""), "{full}");
    assert!(full.contains("\"runner.worker_utilization\""), "{full}");
}

#[test]
fn cache_counters_reconcile_with_the_planner() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let cfg = SimConfig {
        rowgroup_samples: 13, // distinctive: this test owns its entries
        ..test_cfg()
    };
    let a = arch::by_name("ampere").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    runner::cache_reset();
    obs::metrics::reset();
    Runner::with_jobs(4).run(&job).expect("supported");
    Runner::with_jobs(4).run(&job).expect("supported");

    let (hits, misses, _) = runner::cache_stats();
    let planned =
        obs::metrics::counter("runner.units_planned", obs::metrics::Class::Deterministic).get();
    assert_eq!(planned, 2 * w.layer_count() as u64);
    // Every planned unit either hit the cache, executed from the tile
    // store, or missed outright. Ampere never consults the tile store
    // (its 2:4 timing is closed-form), so units_from_store stays zero
    // and the miss count is exact.
    assert_eq!(hits + misses + runner::units_from_store_stats(), planned);
    assert_eq!(misses, w.layer_count() as u64);
    assert_eq!(runner::units_from_store_stats(), 0);
}

#[test]
fn trace_export_has_unit_spans_on_worker_tracks() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    runner::cache_reset();
    obs::span::clear();
    obs::span::set_enabled(true);
    Runner::with_jobs(4).run(&job).expect("supported");
    obs::span::set_enabled(false);
    let (events, tracks) = obs::span::take_events();

    let unit_spans: Vec<_> = events.iter().filter(|e| e.name == "unit.exec").collect();
    assert_eq!(
        unit_spans.len(),
        w.layer_count(),
        "one unit.exec span per planned unit"
    );
    let worker_tids: std::collections::BTreeSet<u64> = unit_spans.iter().map(|e| e.tid).collect();
    assert!(
        worker_tids.len() >= 2,
        "units spread across worker tracks: {worker_tids:?}"
    );
    for tid in &worker_tids {
        assert!(tracks.contains_key(tid), "every track is named");
    }
    for phase in ["runner.run_all", "runner.plan", "runner.reduce"] {
        assert!(
            events.iter().any(|e| e.name == phase),
            "{phase} span missing"
        );
    }
    // And the Chrome-trace serialization is loadable syntax.
    let json = obs::chrome::spans_to_json(&events, &tracks);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"ph\":\"M\""));
}

#[test]
fn degraded_run_counters_reconcile_and_spans_flush() {
    let _x = exclusive();
    use eureka_sim::faults::{FaultKind, FaultPlan, FaultyArch};
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig {
        rowgroup_samples: 15, // distinctive: this test owns its entries
        ..test_cfg()
    };
    let layers: Vec<String> = w.gemms().into_iter().map(|g| g.name).collect();
    let plan = FaultPlan::seeded(3, &layers, 3, FaultKind::Panic);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "tel-degraded");

    runner::cache_reset();
    obs::metrics::reset();
    obs::span::clear();
    obs::span::set_enabled(true);
    let outcome = Runner::with_jobs(4).run_outcome(&SimJob::new(&faulty, &w, cfg));
    obs::span::set_enabled(false);
    let (events, _) = obs::span::take_events();

    let failures = outcome.failures().len() as u64;
    assert_eq!(failures, 3, "all three planned panics surface");
    assert!(outcome.report().is_some(), "survivors are kept");

    // The degraded-run accounting invariant: every planned unit fires
    // exactly one of cache.hits, checkpoint.hits,
    // runner.units_from_store, cache.misses or runner.failures.*.
    let planned =
        obs::metrics::counter("runner.units_planned", obs::metrics::Class::Deterministic).get();
    assert_eq!(planned, w.layer_count() as u64);
    let (hits, misses, _) = runner::cache_stats();
    let (ckpt_hits, _, _) = runner::checkpoint_stats();
    let ufs = runner::units_from_store_stats();
    assert_eq!(
        hits + ckpt_hits + ufs + misses + failures,
        planned,
        "hits {hits} + ckpt {ckpt_hits} + store-served {ufs} + misses {misses} + failures {failures} != planned"
    );
    let (failed_panic, failed_sim) = runner::failure_stats();
    assert_eq!((failed_panic, failed_sim), (3, 0));

    // Worker-thread spans are flushed even though units on those workers
    // panicked: every planned unit has its unit.exec span, and every
    // failure emits a unit.failure span.
    let unit_spans = events.iter().filter(|e| e.name == "unit.exec").count();
    assert_eq!(unit_spans, w.layer_count(), "one unit.exec span per unit");
    let failure_spans = events.iter().filter(|e| e.name == "unit.failure").count();
    assert_eq!(failure_spans, 3, "one unit.failure span per failed unit");
}

#[test]
fn telemetry_does_not_change_simulation_output() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 16);
    let cfg = test_cfg();
    let a = arch::by_name("dstc").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    obs::span::set_enabled(false);
    let plain = Runner::with_jobs(4)
        .without_cache()
        .run(&job)
        .expect("supported");

    obs::span::clear();
    obs::span::set_enabled(true);
    let traced = Runner::with_jobs(4)
        .without_cache()
        .run(&job)
        .expect("supported");
    obs::span::set_enabled(false);
    obs::span::clear();

    assert_eq!(plain, traced, "tracing must not perturb results");
}

#[test]
fn telemetry_does_not_change_profiled_output() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 16);
    let cfg = test_cfg();
    let pcfg = ProfileConfig::default();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    obs::span::set_enabled(false);
    let (plain_report, plain_profile) = Runner::with_jobs(4)
        .run_profiled(&job, &pcfg)
        .expect("supported");

    obs::span::clear();
    obs::span::set_enabled(true);
    let (traced_report, traced_profile) = Runner::with_jobs(4)
        .run_profiled(&job, &pcfg)
        .expect("supported");
    obs::span::set_enabled(false);
    obs::span::clear();

    assert_eq!(
        plain_report, traced_report,
        "tracing must not perturb reports"
    );
    assert_eq!(
        plain_profile, traced_profile,
        "tracing must not perturb profiles"
    );
    assert_eq!(
        plain_profile.to_json(),
        traced_profile.to_json(),
        "profile JSON is byte-identical with tracing on"
    );
    // Profiling reconciles even with the telemetry layer active.
    assert_eq!(
        traced_profile.total_attributed_cycles(),
        traced_report.total_cycles()
    );
}

#[test]
fn per_arch_exec_histograms_carry_quantiles_in_the_full_snapshot() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig {
        rowgroup_samples: 15, // distinctive: this test owns its entries
        ..test_cfg()
    };
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    runner::cache_reset();
    obs::metrics::reset();
    Runner::serial().run(&job).expect("supported");

    // The aggregate histogram and the per-arch breakdown ("Eureka P=4"
    // slugs to eureka_p_4) both appear in the full snapshot, each with
    // the p50/p90/p99 summary fields.
    let full = obs::metrics::snapshot_json(true);
    assert!(full.contains("\"unit.exec_micros\""), "{full}");
    assert!(full.contains("\"unit.exec_micros.eureka_p_4\""), "{full}");
    for q in ["\"p50\":", "\"p90\":", "\"p99\":"] {
        assert!(full.contains(q), "missing {q} in {full}");
    }
    // Execution wall time is Class::Timing: the deterministic snapshot
    // stays free of it, so rerun byte-identity is preserved.
    let det = obs::metrics::snapshot_json(false);
    assert!(!det.contains("unit.exec_micros"), "{det}");
}

/// The service ledger reconciles at quiescence: `service.served ==
/// completed + shed + cancelled + deadline_exceeded + failed`, with
/// every lifecycle path (accept, shed, cancel) counted exactly once.
#[test]
fn service_counters_reconcile_at_quiescence() {
    use eureka_sim::service::{self, JobService, JobSpec, ServiceConfig, SubmitError};

    let _x = exclusive();
    let dir = std::env::temp_dir().join(format!("eureka-tel-svc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("sandbox dir");

    let mut cfg = ServiceConfig::new(dir.join("journal"));
    cfg.sim = SimConfig {
        rowgroup_samples: 20, // distinctive: this test owns its entries
        slice_samples: 5,
        ..SimConfig::fast()
    };
    cfg.queue_capacity = 1;
    cfg.hold = true;
    service::service_reset();
    let svc = JobService::start(cfg);

    let spec = |retries: u32| {
        let mut s = JobSpec::new(
            Benchmark::MobileNetV1,
            PruningLevel::Moderate,
            32,
            "eureka-p4",
        );
        s.retries = retries;
        s
    };
    // One of each fate: `a` is cancelled while queued, `b` sheds on the
    // full queue, `c` completes.
    let a = svc.submit(spec(0)).expect("admitted");
    assert!(matches!(
        svc.submit(spec(1)),
        Err(SubmitError::Overloaded { capacity: 1 })
    ));
    assert!(svc.cancel(a), "queued jobs cancel immediately");
    let c = svc.submit(spec(2)).expect("slot freed by the cancel");
    svc.release();
    assert!(svc.wait_idle());

    let stats = service::service_stats();
    assert_eq!(stats.served, 3, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.deadline_exceeded, 0, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(stats.reconciled(), "{stats:?}");
    assert!(svc.outcome(c).is_some_and(|o| o.is_complete()));
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
