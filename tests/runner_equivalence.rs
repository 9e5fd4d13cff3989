//! The runner's determinism contract, enforced end to end: parallel
//! execution is bit-identical to serial execution for every architecture
//! in the registry, and cache replays are bit-identical to cold misses.
//!
//! Counter-assertion convention: on a *cold* run the split between
//! `cache.misses` and `runner.units_from_store` depends on which unit
//! computes a shared tile key first (schedule-dependent under a parallel
//! runner), so cold assertions check the sum. Against a *warm* tile
//! store every re-executed unit is guaranteed `units_from_store` — zero
//! tile computes can happen — so warm assertions are exact.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch::{self, Architecture, OneSided, ScheduleMode, TileTimer};
use eureka_sim::{runner, store, ProfileConfig, Runner, SimConfig, SimJob};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The unit cache and its counters are process-global; serialize the
/// tests so exact-count assertions don't depend on execution order.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Eureka at compaction factor 8, as in the ablations' compaction sweep:
/// its 4×32 tiles lie outside the packed SUDS tables, so it is the kind of
/// architecture that still resolves tiles through the store.
fn eureka_p8() -> OneSided {
    OneSided::new(
        "Eureka P=8",
        8,
        TileTimer::OptimalSuds,
        ScheduleMode::Grouped,
    )
}

/// Small sampling counts so the full registry sweep stays fast; distinct
/// from every named preset so these tests never share cache entries with
/// other suites.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 10,
        slice_samples: 10,
        ..SimConfig::paper_default()
    }
}

#[test]
fn parallel_equals_serial_for_every_registry_arch() {
    let _x = exclusive();
    // ResNet50 is the one benchmark every registry architecture supports
    // (S2TA has no structured-sparsity data for InceptionV3).
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    for name in arch::registry_names() {
        let a = arch::by_name(name).expect("registry name resolves");
        let job = SimJob::new(a.as_ref(), &w, cfg);
        let serial = Runner::serial().without_cache().run(&job);
        let parallel = Runner::with_jobs(8).without_cache().run(&job);
        assert_eq!(serial, parallel, "{name}: parallel must be bit-identical");
        assert!(serial.is_ok(), "{name} must support ResNet50");
    }
}

#[test]
fn tile_memo_never_changes_a_result() {
    // Takes the gate: resolving through the process-wide tier ticks the
    // `store.*` counters other tests here assert exactly.
    let _x = exclusive();
    // Both runners skip the unit cache, or the second run would replay
    // the first instead of re-simulating without the memo.
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig::fast();
    for name in arch::registry_names() {
        let a = arch::by_name(name).expect("registry name resolves");
        let job = SimJob::new(a.as_ref(), &w, cfg);
        let memo = Runner::serial().without_cache().run(&job);
        let direct = Runner::serial().without_cache().without_store().run(&job);
        assert_eq!(memo, direct, "{name}: the tile memo changed a report");
    }
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 32);
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let pcfg = ProfileConfig::default();
    let memo = Runner::serial().run_profiled(&job, &pcfg);
    let direct = Runner::serial().without_store().run_profiled(&job, &pcfg);
    assert_eq!(memo, direct, "the tile memo changed a profile");
}

#[test]
fn parallel_equals_serial_on_unsupported_combinations() {
    let _x = exclusive();
    // Error paths must agree too: the lowest-index failure wins in both
    // modes.
    let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let s2ta = arch::by_name("s2ta").expect("registered");
    let job = SimJob::new(s2ta.as_ref(), &w, cfg);
    let serial = Runner::serial().without_cache().run(&job);
    let parallel = Runner::with_jobs(8).without_cache().run(&job);
    assert!(serial.is_err());
    assert_eq!(serial, parallel);
}

#[test]
fn cache_hit_equals_cold_miss() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Conservative, 32);
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 11,
        ..test_cfg()
    };
    let a = eureka_p8();
    let job = SimJob::new(&a, &w, cfg);
    let layers = w.layer_count() as u64;

    // cache_reset zeroes the counters too, so the assertions below are
    // exact regardless of what ran earlier in the process.
    runner::cache_reset();
    let cold = Runner::parallel().run(&job).expect("supported");
    let (hits_after_cold, misses_after_cold, _) = runner::cache_stats();
    let ufs_after_cold = runner::units_from_store_stats();
    let (_, _, store_misses_cold, _) = store::store_stats();
    let warm = Runner::parallel().run(&job).expect("supported");
    let (hits_after_warm, misses_after_warm, _) = runner::cache_stats();

    assert_eq!(cold, warm, "cache replay must be bit-identical");
    assert_eq!(hits_after_cold, 0, "cold run hits nothing after a reset");
    assert_eq!(
        misses_after_cold + ufs_after_cold,
        layers,
        "cold run executes once per layer"
    );
    assert_eq!(
        misses_after_warm + runner::units_from_store_stats(),
        layers,
        "warm run must not re-execute any unit"
    );
    assert_eq!(hits_after_warm, layers, "warm run must hit on every layer");

    // And a cleared cache recomputes to the same report — with every
    // re-executed unit served entirely by the still-warm tile store:
    // exact counts, because zero tile computes can happen.
    runner::clear_cache();
    let recomputed = Runner::parallel().run(&job).expect("supported");
    assert_eq!(cold, recomputed);
    let (_, misses_after_recompute, _) = runner::cache_stats();
    let (_, _, store_misses_recompute, _) = store::store_stats();
    assert_eq!(
        misses_after_recompute, misses_after_cold,
        "recompute against a warm tile store adds no cache.misses"
    );
    assert_eq!(
        runner::units_from_store_stats(),
        ufs_after_cold + layers,
        "every recomputed unit is served from the tile store"
    );
    assert_eq!(
        store_misses_recompute, store_misses_cold,
        "zero tile simulations happen against a warm store"
    );
}

#[test]
fn cache_reset_clears_store_tiers_for_honest_cold_starts() {
    let _x = exclusive();
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 15,
        ..test_cfg()
    };
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 32);
    let a = eureka_p8();
    let job = SimJob::new(&a, &w, cfg);
    let layers = w.layer_count() as u64;

    runner::cache_reset();
    let first = Runner::parallel().run(&job).expect("supported");
    let (lookups, _, store_misses, _) = store::store_stats();
    assert!(lookups > 0, "a tile-timer arch resolves through the store");
    assert!(store_misses > 0, "a cold store computes tiles");
    assert!(
        !store::global().is_empty(),
        "computed tiles populate the hot tier"
    );

    // After a reset the next run is a genuine cold start: same exact
    // counter trajectory as the first run, nothing smuggled across.
    runner::cache_reset();
    assert_eq!(store::store_stats(), (0, 0, 0, 0), "store counters zeroed");
    assert!(store::global().is_empty(), "hot tier emptied");
    let second = Runner::parallel().run(&job).expect("supported");
    assert_eq!(first, second, "cold starts are bit-identical");
    let (hits, misses, _) = runner::cache_stats();
    let (_, _, store_misses_2, _) = store::store_stats();
    assert_eq!(hits, 0, "nothing survives a reset to hit on");
    assert_eq!(misses + runner::units_from_store_stats(), layers);
    assert_eq!(
        store_misses_2, store_misses,
        "an honest cold start recomputes exactly the same tiles"
    );
}

#[test]
fn tabled_tiles_bypass_the_store() {
    let _x = exclusive();
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 16,
        ..test_cfg()
    };
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 32);
    let a = arch::by_name("eureka-p4").expect("registered");
    let layers = w.layer_count() as u64;

    // Eureka P=4 times 4×16 tiles from the packed tables: no store
    // lookup at all, so every executed unit counts as a cache miss.
    runner::cache_reset();
    Runner::parallel()
        .run(&SimJob::new(a.as_ref(), &w, cfg))
        .expect("supported");
    assert_eq!(store::store_stats(), (0, 0, 0, 0), "no store traffic");
    assert!(store::global().is_empty(), "nothing inserted");
    assert_eq!(runner::cache_stats().1, layers, "every unit is a miss");
    assert_eq!(runner::units_from_store_stats(), 0);
}

/// Exact fast-sampling cycles of the architectures whose tiles changed
/// route when p = 4, q ≤ 16 SUDS timing moved to the packed tables:
/// the wide-tile columns, which still resolve through the store, and
/// reach-3, which reads a table of its own. Pinned from the store-only
/// implementation; any drift is a timing-model change.
#[test]
fn rerouted_tile_paths_keep_their_pinned_cycles() {
    let _x = exclusive();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig::fast();
    let pins = [
        (eureka_p8(), 245_975),
        (
            OneSided::new(
                "Eureka P=16",
                16,
                TileTimer::OptimalSuds,
                ScheduleMode::Grouped,
            ),
            240_282,
        ),
        (arch::eureka_multistep(3), 237_712),
    ];
    for (a, cycles) in pins {
        let job = SimJob::new(&a, &w, cfg);
        for runner in [
            Runner::serial().without_cache(),
            Runner::serial().without_cache().without_store(),
        ] {
            let report = runner.run(&job).expect("supported");
            assert_eq!(report.total_cycles(), cycles, "{}", a.name());
        }
    }
}

#[test]
fn jobs_differing_only_in_seed_do_not_share_cache_entries() {
    let _x = exclusive();
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 12,
        ..test_cfg()
    };
    let base = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let reseeded = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32)
        .with_seed(base.seed() ^ 0xDEAD_BEEF);
    assert_eq!(
        base.gemms(),
        reseeded.gemms(),
        "same layers, only seed differs"
    );
    let a = arch::by_name("eureka-p4").expect("registered");
    let layers = base.layer_count() as u64;

    runner::cache_reset();
    let first = Runner::parallel()
        .run(&SimJob::new(a.as_ref(), &base, cfg))
        .expect("supported");
    let second = Runner::parallel()
        .run(&SimJob::new(a.as_ref(), &reseeded, cfg))
        .expect("supported");
    let (hits, misses, _) = runner::cache_stats();
    assert_eq!(
        hits, 0,
        "a different seed must never hit the other's entries"
    );
    assert_eq!(
        misses + runner::units_from_store_stats(),
        2 * layers,
        "both runs must fully re-execute"
    );
    // Different RNG streams really do produce different sampled timings.
    assert_ne!(
        first.total_cycles(),
        second.total_cycles(),
        "reseeding must change the sampled simulation"
    );

    // Replaying the reseeded job now hits every layer.
    let replay = Runner::parallel()
        .run(&SimJob::new(a.as_ref(), &reseeded, cfg))
        .expect("supported");
    assert_eq!(second, replay);
    let (hits_after_replay, misses_after_replay, _) = runner::cache_stats();
    assert_eq!(hits_after_replay, layers);
    assert_eq!(
        misses_after_replay + runner::units_from_store_stats(),
        2 * layers,
        "the replay re-executes nothing"
    );
}

#[test]
fn cache_hits_are_independent_of_arch_ordering() {
    let _x = exclusive();
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 13,
        ..test_cfg()
    };
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let layers = w.layer_count() as u64;
    let dense = arch::by_name("dense").expect("registered");
    let eureka = arch::by_name("eureka-p4").expect("registered");

    // Warm the cache in one order...
    runner::cache_reset();
    let d1 = Runner::parallel()
        .run(&SimJob::new(dense.as_ref(), &w, cfg))
        .expect("supported");
    let e1 = Runner::parallel()
        .run(&SimJob::new(eureka.as_ref(), &w, cfg))
        .expect("supported");
    let (hits_cold, misses_cold, _) = runner::cache_stats();
    let ufs_cold = runner::units_from_store_stats();
    assert_eq!(hits_cold, 0, "distinct archs must not alias each other");
    assert_eq!(misses_cold + ufs_cold, 2 * layers);
    assert!(
        misses_cold >= layers,
        "dense never consults the tile store, so its units always miss"
    );

    // ...then replay in the opposite order: every layer hits, and the
    // reports are bit-identical to the cold runs.
    let e2 = Runner::parallel()
        .run(&SimJob::new(eureka.as_ref(), &w, cfg))
        .expect("supported");
    let d2 = Runner::parallel()
        .run(&SimJob::new(dense.as_ref(), &w, cfg))
        .expect("supported");
    let (hits_warm, misses_warm, _) = runner::cache_stats();
    assert_eq!(
        hits_warm,
        2 * layers,
        "identical jobs hit regardless of order"
    );
    assert_eq!(
        misses_warm + runner::units_from_store_stats(),
        2 * layers,
        "no recomputation on replay"
    );
    assert_eq!(d1, d2);
    assert_eq!(e1, e2);
}

#[test]
fn retried_unit_writes_cache_exactly_once_and_replays() {
    let _x = exclusive();
    use eureka_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
    use eureka_sim::RetryPolicy;
    let cfg = SimConfig {
        // Distinctive sampling so this test owns its cache entries.
        rowgroup_samples: 14,
        ..test_cfg()
    };
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let layers = w.layer_count() as u64;
    let victim = w.gemms().into_iter().nth(2).expect("has layers").name;
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim,
        kind: FaultKind::Panic,
        fail_first: 1,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "req-retry");

    runner::cache_reset();
    let first = Runner::parallel()
        .with_retry(RetryPolicy::transient(2))
        .run(&SimJob::new(&faulty, &w, cfg))
        .expect("retry must recover the transient panic");
    let (hits_cold, misses_cold, _) = runner::cache_stats();
    let (attempts, recovered) = runner::retry_stats();
    assert_eq!(hits_cold, 0, "cold run hits nothing after a reset");
    assert_eq!(
        misses_cold + runner::units_from_store_stats(),
        layers,
        "the retried unit must be counted (and cached) exactly once"
    );
    assert_eq!(attempts, 1, "exactly one retry attempt");
    assert_eq!(recovered, 1, "exactly one recovery");

    // Replay: every unit hits, including the once-failed one. The fault
    // plan would fire again if the victim re-executed (its attempt
    // counter is NOT reset), so bit-identical success here also proves
    // cache hits never re-execute units.
    let replay = Runner::parallel()
        .run(&SimJob::new(&faulty, &w, cfg))
        .expect("replay from cache");
    assert_eq!(first, replay, "cached replay must be bit-identical");
    let (hits_warm, misses_warm, _) = runner::cache_stats();
    assert_eq!(hits_warm, layers, "warm run must hit on every layer");
    assert_eq!(
        misses_warm + runner::units_from_store_stats(),
        layers,
        "warm run must not re-execute any unit"
    );
}

#[test]
fn batch_submission_matches_individual_runs() {
    let _x = exclusive();
    let w1 = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let w2 = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let cfg = test_cfg();
    let dense = arch::by_name("dense").expect("registered");
    let eureka = arch::by_name("eureka-p4").expect("registered");
    let jobs = [
        SimJob::new(dense.as_ref(), &w1, cfg),
        SimJob::new(eureka.as_ref(), &w2, cfg),
    ];
    let batched = Runner::parallel().run_all(&jobs);
    for (job, batched) in jobs.iter().zip(&batched) {
        let solo = Runner::serial().run(job);
        assert_eq!(&solo, batched);
    }
}
