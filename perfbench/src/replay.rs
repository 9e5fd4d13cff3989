//! The job sets each workload simulates, rebuilt from public APIs so the
//! traced run can replay one layer of the stack at a time in a fresh
//! process: the runner over the same jobs, `Architecture::simulate_layer`
//! per (arch, layer), and the tile timer, SUDS, schedule and sparse
//! kernels over the tiles of the same layers.

use crate::trace;
use eureka_core::schedule::{cyclesim::simulate_steps, schedule_grouped_steps, SystolicConfig};
use eureka_core::suds;
use eureka_models::activation;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::json::Value;
use eureka_sim::arch::{self, Architecture, LayerCtx, OneSided, ScheduleMode, TileTimer};
use eureka_sim::scratch::ScratchPool;
use eureka_sim::{Runner, SimConfig, SimJob, TileBroker};
use eureka_sparse::bitmask::MaskedRow;
use eureka_sparse::canon::{canonical_lens_into, RowOrder};
use eureka_sparse::rng::DetRng;
use eureka_sparse::TilePattern;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// One simulation job: an architecture, a workload and a configuration.
pub struct Job {
    pub arch: Box<dyn Architecture>,
    pub workload: Workload,
    pub cfg: SimConfig,
}

impl Job {
    fn new(arch: Box<dyn Architecture>, workload: Workload, cfg: SimConfig) -> Self {
        Job {
            arch,
            workload,
            cfg,
        }
    }
}

/// Jobs in the batches the program hands to `Runner::run_all`, with the
/// runner settings it uses for them.
pub struct JobSet {
    pub batches: Vec<Vec<Job>>,
    /// Whether the runner resolves tiles through the tile store.
    pub store: bool,
    /// Runner workers (`None` = the runner's default, all cores).
    pub workers: Option<usize>,
}

impl JobSet {
    pub fn runner(&self) -> Runner {
        let r = self.workers.map_or_else(Runner::default, Runner::with_jobs);
        if self.store {
            r
        } else {
            r.without_store()
        }
    }

    fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.batches.iter().flatten()
    }
}

/// The Figure 11 batch exactly as `eureka_bench::figure11` builds it:
/// Dense plus every Figure 11 arch over the workload grid, in one batch.
pub fn fig11() -> JobSet {
    let cfg = SimConfig::paper_default();
    let archs = || eureka_bench::figure11_archs();
    let mut batch = Vec::new();
    for w in eureka_bench::workload_grid(32) {
        batch.push(Job::new(Box::new(arch::dense()), w.clone(), cfg));
        for a in archs() {
            batch.push(Job::new(a, w.clone(), cfg));
        }
    }
    JobSet {
        batches: vec![batch],
        store: true,
        workers: None,
    }
}

/// The batches of `eureka figure ablations`, in the order the CLI runs
/// its sweeps: reach, window, compaction, sigma, then the energy
/// calibration run and the two-sided table.
pub fn ablations() -> JobSet {
    let base = SimConfig::paper_default();
    let probes = || {
        [
            Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32),
            Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 32),
        ]
    };
    // Each column pairs a Dense baseline with its variant, per workload.
    let sweep = |variant: &dyn Fn(usize) -> (Box<dyn Architecture>, SimConfig), cols: usize| {
        let mut batch = Vec::new();
        for w in probes() {
            for i in 0..cols {
                let (a, cfg) = variant(i);
                batch.push(Job::new(Box::new(arch::dense()), w.clone(), cfg));
                batch.push(Job::new(a, w.clone(), cfg));
            }
        }
        batch
    };
    let reach = sweep(
        &|i| {
            let a: Box<dyn Architecture> = match i {
                0 => Box::new(arch::eureka_no_suds_p4()),
                1 => Box::new(arch::eureka_p4()),
                r => Box::new(arch::eureka_multistep(r)),
            };
            (a, base)
        },
        4,
    );
    let windows = [1usize, 2, 4, 8];
    let window = sweep(
        &|i| {
            let mut c = base;
            c.core.window = windows[i];
            (Box::new(arch::eureka_p4()), c)
        },
        4,
    );
    let factors = [1usize, 2, 4, 8, 16];
    let compaction = sweep(
        &|i| {
            let p = factors[i];
            let a = OneSided::new(
                format!("Eureka P={p}"),
                p,
                TileTimer::OptimalSuds,
                ScheduleMode::Grouped,
            );
            (Box::new(a), base)
        },
        5,
    );
    let sigmas = [0.0f64, 0.4, 0.8, 1.2];
    let sigma = sweep(
        &|i| {
            let c = SimConfig {
                row_density_sigma: sigmas[i],
                ..base
            };
            (Box::new(arch::eureka_p4()), c)
        },
        4,
    );
    let calibration = vec![Job::new(
        Box::new(arch::dense()),
        Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32),
        base,
    )];
    let mut two_sided = Vec::new();
    for w in probes() {
        two_sided.push(Job::new(Box::new(arch::dense()), w.clone(), base));
        two_sided.push(Job::new(Box::new(arch::eureka_p4()), w.clone(), base));
        two_sided.push(Job::new(Box::new(arch::eureka_two_sided()), w, base));
    }
    JobSet {
        batches: vec![reach, window, compaction, sigma, calibration, two_sided],
        store: true,
        workers: None,
    }
}

/// Served specs as the service runs them: one job at a time on a
/// one-worker runner without the tile store.
pub fn served(specs: &[eureka_sim::JobSpec], cfg: SimConfig) -> JobSet {
    let batches = specs
        .iter()
        .map(|s| {
            let a = arch::by_name(&s.arch).expect("served specs name registry archs");
            vec![Job::new(
                a,
                Workload::new(s.benchmark, s.pruning, s.batch),
                cfg,
            )]
        })
        .collect();
    JobSet {
        batches,
        store: false,
        workers: Some(1),
    }
}

/// Replays every batch through `Runner::run_all`; returns the wall time in
/// milliseconds and the runner's worker count.
pub fn run_all(set: &JobSet) -> Vec<(String, Value)> {
    let runner = set.runner();
    let start = Instant::now();
    for (b, batch) in set.batches.iter().enumerate() {
        let jobs: Vec<SimJob<'_>> = batch
            .iter()
            .map(|j| SimJob::new(j.arch.as_ref(), &j.workload, j.cfg))
            .collect();
        trace::span("runner.run_all", &format!("batch{b}"), || {
            black_box(runner.run_all(black_box(&jobs)))
        });
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    vec![
        ("wall_ms".into(), Value::Num(wall_ms)),
        ("workers".into(), Value::Num(runner.effective_jobs() as f64)),
    ]
}

/// Registry name of an architecture, or `other` for ablation variants
/// outside the registry.
fn arch_slug(display: &str) -> String {
    arch::registry_names()
        .into_iter()
        .find(|n| arch::by_name(n).is_some_and(|a| a.name() == display))
        .unwrap_or("other")
        .to_string()
}

/// A unit's identity as the runner's cache sees it, at job granularity:
/// a job repeated within a set is served from the cache and not replayed.
fn job_key(j: &Job) -> String {
    format!(
        "{}|{}|{}|{}|{:?}",
        j.arch.name(),
        j.workload.benchmark().name(),
        j.workload.pruning().label(),
        j.workload.batch(),
        j.cfg
    )
}

/// Calls `simulate_layer` once per (job, layer) with a fresh `LayerCtx`,
/// serially, and sums the wall time per architecture.
pub fn layers(set: &JobSet) -> Vec<(String, Value)> {
    let mut seen = BTreeSet::new();
    let mut per_arch: BTreeMap<String, f64> = BTreeMap::new();
    let mut calls = 0u64;
    for (j_idx, job) in set.jobs().enumerate() {
        if !seen.insert(job_key(job)) {
            continue;
        }
        let w = &job.workload;
        let bench = w.benchmark();
        let base_rng = DetRng::new(w.seed());
        let scratch = ScratchPool::default();
        let slug = arch_slug(job.arch.name());
        let group = format!("job{j_idx}");
        let mut ms = 0.0;
        for (i, gemm) in w.gemms().into_iter().enumerate() {
            let ctx = LayerCtx {
                act_density: w.activation_density(),
                s2ta_act_density: activation::s2ta_activation_density(bench),
                s2ta_fil_density: activation::s2ta_filter_density(bench),
                rng: base_rng.fork(i as u64),
                tiles: if set.store {
                    TileBroker::enabled(None)
                } else {
                    TileBroker::disabled()
                },
                scratch: scratch.clone(),
            };
            let start = Instant::now();
            let _ = black_box(trace::span("layer", &group, || {
                job.arch.simulate_layer(black_box(&gemm), &ctx, &job.cfg)
            }));
            ms += start.elapsed().as_secs_f64() * 1e3;
            calls += 1;
        }
        *per_arch.entry(slug).or_default() += ms;
    }
    let total: f64 = per_arch.values().sum();
    vec![
        ("calls".into(), Value::Num(calls as f64)),
        ("total_ms".into(), Value::Num(total)),
        (
            "ms".into(),
            Value::Obj(
                per_arch
                    .into_iter()
                    .map(|(k, v)| (k, Value::Num(v)))
                    .collect(),
            ),
        ),
    ]
}

/// Timer disciplines measured, with their metric suffixes.
pub const DISCIPLINES: [(&str, TileTimer); 4] = [
    ("optimal", TileTimer::OptimalSuds),
    ("greedy", TileTimer::GreedySuds),
    ("reach2", TileTimer::MultiStepSuds(2)),
    ("maxrow", TileTimer::MaxRow),
];

/// Median over `reps` runs of `f`, in nanoseconds per item.
fn ns_per(items: usize, reps: usize, name: &str, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        trace::span(name, "kernels", &mut f);
        per.push(start.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64);
    }
    crate::stats::median(&per)
}

/// Replays the tile-level layers over the tiles of every distinct layer in
/// the set (`arch::tile_samples_for_layer` at each job's configuration):
/// the tile timer per discipline, the SUDS planners and lookup table, the
/// systolic schedule, and the sparse kernels.
pub fn tiles(set: &JobSet) -> Vec<(String, Value)> {
    const REPS: usize = 5;
    let mut seen = BTreeSet::new();
    // Tiles per distinct layer, with the configuration that sampled them.
    let mut layers: Vec<(SimConfig, Vec<TilePattern>)> = Vec::new();
    for job in set.jobs() {
        let w = &job.workload;
        let key = format!(
            "{}|{}|{}|{:?}",
            w.benchmark().name(),
            w.pruning().label(),
            w.batch(),
            job.cfg
        );
        if !seen.insert(key) {
            continue;
        }
        for (i, gemm) in w.gemms().iter().enumerate() {
            layers.push((
                job.cfg,
                arch::tile_samples_for_layer(gemm, &job.cfg, i as u64),
            ));
        }
    }
    let all: Vec<&TilePattern> = layers.iter().flat_map(|(_, t)| t).collect();
    let n = all.len();
    let mut out = vec![("tiles".to_string(), Value::Num(n as f64))];

    for (name, timer) in DISCIPLINES {
        let ns = ns_per(n, REPS, &format!("timer.{name}"), || {
            for t in &all {
                black_box(timer.outcome(black_box(t)));
            }
        });
        out.push((format!("timer.{name}"), Value::Num(ns)));
    }

    let lens: Vec<Vec<usize>> = all.iter().map(|t| t.row_lens()).collect();
    type Planner = fn(&[usize]) -> usize;
    let suds_kernels: [(&str, Planner); 4] = [
        ("optimize", |l| suds::optimize(l).k),
        ("greedy", |l| suds::greedy(l).k),
        ("multistep2", |l| suds::multistep::optimal_k(l, 2)),
        ("lut", suds::lut::optimal_k),
    ];
    for (name, f) in suds_kernels {
        let ns = ns_per(n, REPS, &format!("suds.{name}"), || {
            for l in &lens {
                black_box(f(black_box(l)));
            }
        });
        out.push((format!("suds.{name}"), Value::Num(ns)));
    }

    // Critical paths per layer, as the optimal planner times them.
    let paths: Vec<(SystolicConfig, Vec<u64>)> = layers
        .iter()
        .map(|(cfg, tiles)| {
            let sys = SystolicConfig {
                rows: cfg.core.grid_rows,
                stages: cfg.core.grid_cols,
                window: cfg.core.window,
            };
            let times = tiles
                .iter()
                .map(|t| TileTimer::OptimalSuds.outcome(t).cycles)
                .collect();
            (sys, times)
        })
        .collect();
    let ns = ns_per(paths.len(), REPS, "schedule", || {
        for (sys, times) in &paths {
            let steps = schedule_grouped_steps(black_box(times), sys);
            black_box(simulate_steps(&steps, sys));
        }
    });
    out.push(("schedule".into(), Value::Num(ns)));

    let mut buf = Vec::new();
    let ns = ns_per(n, REPS, "sparse.canon", || {
        for t in &all {
            canonical_lens_into(black_box(t), RowOrder::Exact, &mut buf);
            black_box(&buf);
        }
    });
    out.push(("sparse.canon".into(), Value::Num(ns)));

    // Each tile row against a seeded activation row of the same width.
    let mut rng = DetRng::new(0xA11CE);
    let rows: Vec<Vec<(MaskedRow, MaskedRow)>> = all
        .iter()
        .map(|t| {
            let width = if t.q() >= 64 {
                u64::MAX
            } else {
                (1u64 << t.q()) - 1
            };
            (0..t.p())
                .map(|r| {
                    let masked = |m: u64| MaskedRow {
                        chunks: vec![m as u32, (m >> 32) as u32],
                        cols: t.q(),
                    };
                    (masked(t.row_mask(r)), masked(rng.next_u64() & width))
                })
                .collect()
        })
        .collect();
    let ns = ns_per(n, REPS, "sparse.mask", || {
        for tile in &rows {
            for (w, a) in tile {
                black_box(black_box(w).total_matches(a));
            }
        }
    });
    out.push(("sparse.mask".into(), Value::Num(ns)));
    out
}
