//! Flight-recorder cost: raw `record()` latency, dump rendering, and —
//! the acceptance bound — the overhead the always-armed recorder adds
//! to a simulated job-accounting loop, asserted `< 5%` on
//! min-of-samples times (min is robust to scheduler noise; any single
//! clean sample bounds the true cost from above).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eureka_obs::events::Event;
use eureka_obs::flightrec::{Recorder, CAPACITY};
use std::time::{Duration, Instant};

/// Iterations of the per-job accounting kernel: about 23 µs per job on
/// a 2-core Xeon container, against about 0.35 µs for building and
/// recording a job's three lifecycle events.
const JOB_ITERS: u64 = 100_000;

/// A stand-in for the service's per-job bookkeeping between lifecycle
/// transitions: an FNV-style fold the optimizer cannot discard.
fn simulated_job(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..JOB_ITERS {
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3).wrapping_add(i);
    }
    acc
}

/// Minimum wall time of `samples` runs of `f` (after one warm-up).
fn min_time<F: FnMut()>(samples: usize, mut f: F) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// Records one job's three lifecycle events (admit, dequeue, finish),
/// built the way the job service builds them, around `work`.
fn lifecycle(rec: &Recorder, job: u64, work: impl FnOnce()) {
    let key = format!("{job:016x}");
    rec.record(
        Event::new("job-admitted")
            .det_u64("job", job)
            .det_str("key", key),
    );
    rec.record(
        Event::new("job-dequeued")
            .det_u64("job", job)
            .wall_u64("wait_us", 0),
    );
    work();
    let outcome = "completed";
    rec.record(
        Event::new("job-finished")
            .det_u64("job", job)
            .det_str("outcome", outcome),
    );
}

fn bench_record(c: &mut Criterion) {
    let rec = Recorder::default();
    let mut g = c.benchmark_group("flightrec");
    g.sample_size(20);
    g.bench_function("record", |b| {
        b.iter(|| {
            for job in 0..100u64 {
                lifecycle(&rec, black_box(job), || {});
            }
        });
    });
    g.bench_function("dump_jsonl_full_ring", |b| {
        for job in 0..CAPACITY as u64 / 3 + 1 {
            lifecycle(&rec, job, || {});
        }
        b.iter(|| black_box(rec.dump_jsonl().len()));
    });
    g.finish();
}

/// The acceptance bound: a job loop with the recorder armed (it always
/// is) versus the identical loop without any recording must stay within
/// 5% on min-of-samples time.
fn bench_overhead_bound(c: &mut Criterion) {
    let rec = Recorder::default();
    let mut sink = 0u64;
    let bare = min_time(30, || {
        sink = sink.wrapping_add(black_box(simulated_job(sink)));
    });
    let recorded = min_time(30, || {
        lifecycle(&rec, sink, || {
            sink = sink.wrapping_add(black_box(simulated_job(sink)));
        });
    });
    black_box(sink);
    let ratio = recorded.as_secs_f64() / bare.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "flightrec/overhead_bound                           bare: {bare:?}  recorded: {recorded:?}  ratio: {ratio:.4}"
    );
    assert!(
        ratio < 1.05,
        "always-armed flight recorder overhead must stay under 5% \
         (bare {bare:?}, recorded {recorded:?}, ratio {ratio:.4})"
    );
    // Keep a criterion sample of the same loop for the report.
    c.bench_function("flightrec/job_with_lifecycle_records", |b| {
        b.iter(|| {
            lifecycle(&rec, sink, || sink = sink.wrapping_add(simulated_job(sink)));
        });
    });
    black_box(sink);
}

criterion_group!(benches, bench_record, bench_overhead_bound);
criterion_main!(benches);
