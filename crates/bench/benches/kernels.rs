//! Micro-benchmarks of the core algorithmic kernels: SUDS work assignment,
//! systolic scheduling, FP16 arithmetic, and the functional executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eureka_core::schedule::{schedule_grouped, schedule_natural, SystolicConfig};
use eureka_core::suds::{self, DisplacedTile};
use eureka_core::{exec, CompactedTile};
use eureka_fp16::mac::{self, MacUnit};
use eureka_fp16::{csa, Prepared, F16};
use eureka_sparse::bitmask::MaskedRow;
use eureka_sparse::rng::{Bernoulli, DetRng};
use eureka_sparse::{gen, AlignedTile, SparsityPattern, TilePattern};
use std::hint::black_box;

fn sample_lens(count: usize, p: usize, q: usize, density: f64, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = DetRng::new(seed);
    let cell = Bernoulli::new(density);
    (0..count)
        .map(|_| (0..p).map(|_| cell.count(q, &mut rng)).collect())
        .collect()
}

fn bench_suds(c: &mut Criterion) {
    let mut group = c.benchmark_group("suds_assignment");
    for (p, q) in [(4usize, 16usize), (8, 32), (16, 64)] {
        let lens = sample_lens(256, p, q, 0.13, 42);
        group.bench_with_input(
            BenchmarkId::new("optimal", format!("{p}x{q}")),
            &lens,
            |b, lens| {
                b.iter(|| {
                    for l in lens {
                        black_box(suds::optimize(l));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{p}x{q}")),
            &lens,
            |b, lens| {
                b.iter(|| {
                    for l in lens {
                        black_box(suds::greedy(l));
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_suds_lut(c: &mut Criterion) {
    // The packed per-planner table read vs the polynomial algorithm.
    let lens = sample_lens(4096, 4, 16, 0.13, 99);
    let fours: Vec<[usize; 4]> = lens
        .iter()
        .map(|l| l.as_slice().try_into().expect("sampled with p = 4"))
        .collect();
    let mut group = c.benchmark_group("suds_lut");
    // Fill the entries these tiles read outside the measurement.
    for &l in &fours {
        let _ = suds::lut::lookup(suds::lut::Planner::Optimal, l);
    }
    group.bench_function("lut_4096_tiles", |b| {
        b.iter(|| {
            for &l in &fours {
                black_box(suds::lut::lookup(suds::lut::Planner::Optimal, black_box(l)));
            }
        });
    });
    group.bench_function("algorithm_4096_tiles", |b| {
        b.iter(|| {
            for l in &lens {
                black_box(suds::optimize(l));
            }
        });
    });
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut rng = DetRng::new(7);
    let times: Vec<u64> = (0..4096).map(|_| 1 + rng.next_below(4) as u64).collect();
    let cfg = SystolicConfig::paper_default();
    let mut group = c.benchmark_group("systolic_scheduling");
    group.bench_function("natural_4096_tiles", |b| {
        b.iter(|| black_box(schedule_natural(&times, &cfg)));
    });
    group.bench_function("grouped_4096_tiles", |b| {
        b.iter(|| black_box(schedule_grouped(&times, &cfg)));
    });
    group.finish();
}

fn bench_fp16(c: &mut Criterion) {
    let mut rng = DetRng::new(11);
    let vals: Vec<F16> = (0..1024)
        .map(|_| F16::from_f64(rng.next_gaussian()))
        .collect();
    let mut group = c.benchmark_group("fp16");
    group.bench_function("mul_1024", |b| {
        b.iter(|| {
            let mut acc = F16::ZERO;
            for w in vals.windows(2) {
                acc = black_box(w[0].mul_hw(w[1]));
            }
            acc
        });
    });
    group.bench_function("csa_add3_1024", |b| {
        b.iter(|| {
            let mut acc = F16::ZERO;
            for w in vals.windows(2) {
                acc = black_box(csa::add3(acc, w[0], w[1]));
            }
            acc
        });
    });
    group.finish();
}

fn bench_mask_intersection(c: &mut Criterion) {
    // Word-parallel popcount intersection (the DSTC chunk-match hot
    // path) against the per-position scalar walk it replaced.
    let mut rng = DetRng::new(17);
    let rows: Vec<(MaskedRow, MaskedRow, SparsityPattern, SparsityPattern)> = (0..256)
        .map(|_| {
            let a = SparsityPattern::from_fn(1, 128, |_, _| rng.bernoulli(0.13));
            let b = SparsityPattern::from_fn(1, 128, |_, _| rng.bernoulli(0.25));
            (
                MaskedRow::from_pattern(&a, 0),
                MaskedRow::from_pattern(&b, 0),
                a,
                b,
            )
        })
        .collect();
    let mut group = c.benchmark_group("mask_intersection");
    group.bench_function("scalar_256_rows", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (_, _, a, b) in &rows {
                for col in 0..128 {
                    if a.get(0, col) && b.get(0, col) {
                        total += 1;
                    }
                }
            }
            black_box(total)
        });
    });
    group.bench_function("word_parallel_256_rows", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (a, b, _, _) in &rows {
                total += a.total_matches(b);
            }
            black_box(total)
        });
    });
    group.finish();
}

fn bench_mac_batched(c: &mut Criterion) {
    // The batched dot product (operands classified once, up front)
    // against the element-wise MAC chain that re-classifies each term.
    let mut rng = DetRng::new(19);
    let a: Vec<F16> = (0..256)
        .map(|_| F16::from_f64(rng.next_gaussian()))
        .collect();
    let b: Vec<F16> = (0..256)
        .map(|_| F16::from_f64(rng.next_gaussian()))
        .collect();
    let ap: Vec<Prepared> = a.iter().map(|&x| Prepared::new(x)).collect();
    let bp: Vec<Prepared> = b.iter().map(|&x| Prepared::new(x)).collect();
    let mut group = c.benchmark_group("mac_dot256");
    group.bench_function("elementwise", |bch| {
        bch.iter(|| {
            let mut unit = MacUnit::new();
            for (&x, &y) in a.iter().zip(&b) {
                unit.fma(x, y);
            }
            black_box(unit.value())
        });
    });
    group.bench_function("batched", |bch| {
        bch.iter(|| black_box(mac::dot_hw(&ap, &bp)));
    });
    group.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut rng = DetRng::new(23);
    let pattern = SparsityPattern::from_fn(4, 16, |_, _| rng.bernoulli(0.2));
    let tile = TilePattern::from_pattern(&pattern, 0, 0, 4, 16).unwrap();
    let plan = suds::optimize(&tile.row_lens());
    let schedule = DisplacedTile::from_plan(&AlignedTile::from_tile(&tile), &plan).unwrap();
    let weights = gen::integer_values_for_pattern(&pattern, &mut rng);
    let act_pattern = SparsityPattern::from_fn(16, 8, |_, _| true);
    let acts = gen::integer_values_for_pattern(&act_pattern, &mut rng);
    c.bench_function("functional_executor_4x16_tile", |b| {
        b.iter(|| black_box(exec::execute(&schedule, &weights, &acts).unwrap()));
    });
}

fn bench_compaction(c: &mut Criterion) {
    let mut rng = DetRng::new(31);
    let tiles: Vec<TilePattern> = (0..256)
        .map(|_| {
            let p = SparsityPattern::from_fn(4, 16, |_, _| rng.bernoulli(0.13));
            TilePattern::from_pattern(&p, 0, 0, 4, 16).unwrap()
        })
        .collect();
    c.bench_function("compaction_256_tiles", |b| {
        b.iter(|| {
            for t in &tiles {
                black_box(CompactedTile::new(t, 4).unwrap());
            }
        });
    });
}

criterion_group!(
    kernels,
    bench_suds,
    bench_suds_lut,
    bench_scheduling,
    bench_fp16,
    bench_mask_intersection,
    bench_mac_batched,
    bench_executor,
    bench_compaction
);
criterion_main!(kernels);
