//! Serial vs parallel runner on the headline workload (ResNet-50,
//! moderate pruning, Eureka P=4), plus the measured speedup and the
//! telemetry (span-recording) overhead on the serial path.
//!
//! The cache is disabled and cleared so both modes do the full per-layer
//! work every iteration; the determinism contract guarantees they produce
//! bit-identical reports, so any timing gap is pure scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, runner, ProfileConfig, Runner, SimConfig, SimJob};
use std::time::Instant;

fn bench_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 48,
        slice_samples: 48,
        ..SimConfig::paper_default()
    }
}

fn serial_vs_parallel(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);
    runner::clear_cache();

    let mut group = c.benchmark_group("runner/resnet50-moderate");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| Runner::serial().without_cache().run(&job).unwrap())
    });
    group.bench_function("parallel", |b| {
        b.iter(|| Runner::parallel().without_cache().run(&job).unwrap())
    });
    group.finish();

    // Record the speedup directly in the bench output.
    let time = |r: Runner| {
        let r = r.without_cache();
        let start = Instant::now();
        for _ in 0..5 {
            r.run(&job).unwrap();
        }
        start.elapsed()
    };
    let serial = time(Runner::serial());
    let parallel = time(Runner::parallel());
    println!(
        "runner/resnet50-moderate speedup: {:.2}x ({} workers; serial {:.1} ms, parallel {:.1} ms per run)",
        serial.as_secs_f64() / parallel.as_secs_f64(),
        Runner::parallel().effective_jobs(),
        serial.as_secs_f64() * 1e3 / 5.0,
        parallel.as_secs_f64() * 1e3 / 5.0,
    );
}

/// Serial run with span recording on vs off — the instrumentation budget
/// (acceptance: well under 5% on this workload).
fn telemetry_overhead(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);
    runner::clear_cache();

    let mut group = c.benchmark_group("runner/telemetry");
    group.sample_size(10);
    eureka_obs::span::set_enabled(false);
    group.bench_function("spans-off", |b| {
        b.iter(|| Runner::serial().without_cache().run(&job).unwrap())
    });
    eureka_obs::span::set_enabled(true);
    group.bench_function("spans-on", |b| {
        b.iter(|| {
            let r = Runner::serial().without_cache().run(&job).unwrap();
            eureka_obs::span::clear(); // keep the buffer from growing unbounded
            r
        })
    });
    eureka_obs::span::set_enabled(false);
    eureka_obs::span::clear();
    group.finish();

    let time = |on: bool| {
        eureka_obs::span::set_enabled(on);
        let start = Instant::now();
        for _ in 0..5 {
            Runner::serial().without_cache().run(&job).unwrap();
            eureka_obs::span::clear();
        }
        let t = start.elapsed();
        eureka_obs::span::set_enabled(false);
        t
    };
    let off = time(false);
    let on = time(true);
    println!(
        "runner/telemetry overhead: {:+.2}% (off {:.1} ms, on {:.1} ms per run)",
        100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0),
        off.as_secs_f64() * 1e3 / 5.0,
        on.as_secs_f64() * 1e3 / 5.0,
    );
}

/// Plain run vs cycle-attribution profiling on the serial path — the
/// profiler's budget (acceptance: under 5% on this workload). The plain
/// path monomorphizes over the no-op sink, so "off" here is the exact
/// code every non-profiled run executes.
fn profile_overhead(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);
    let pcfg = ProfileConfig::default();
    runner::clear_cache();

    let mut group = c.benchmark_group("runner/profile");
    group.sample_size(10);
    group.bench_function("profiling-off", |b| {
        b.iter(|| Runner::serial().without_cache().run(&job).unwrap())
    });
    group.bench_function("profiling-on", |b| {
        b.iter(|| {
            Runner::serial()
                .without_cache()
                .run_profiled(&job, &pcfg)
                .unwrap()
        })
    });
    group.finish();

    let start = Instant::now();
    for _ in 0..5 {
        Runner::serial().without_cache().run(&job).unwrap();
    }
    let off = start.elapsed();
    let start = Instant::now();
    for _ in 0..5 {
        Runner::serial()
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
    }
    let on = start.elapsed();
    println!(
        "runner/profile overhead: {:+.2}% (off {:.1} ms, profiled {:.1} ms per run)",
        100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0),
        off.as_secs_f64() * 1e3 / 5.0,
        on.as_secs_f64() * 1e3 / 5.0,
    );
}

criterion_group!(
    benches,
    serial_vs_parallel,
    telemetry_overhead,
    profile_overhead
);
criterion_main!(benches);
