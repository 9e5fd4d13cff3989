//! Design-choice ablations beyond the paper's figures.
//!
//! DESIGN.md calls these out as the load-bearing choices worth sweeping:
//!
//! * **displacement reach** — why single-step? ([`reach_sweep`])
//! * **scheduling window** — why a look-ahead of 2? ([`window_sweep`])
//! * **compaction factor** — why P = 2/4? ([`compaction_sweep`])
//! * **filter-row heterogeneity** — model sensitivity ([`sigma_sweep`])
//! * **two-sided gating** — the extension the paper declined
//!   ([`two_sided_energy`])
//!
//! Run them all with `cargo run -p eureka-bench --release --bin ablations`.

use crate::FigTable;
use eureka_energy::calibrate;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch::{self, Architecture};
use eureka_sim::{engine, Runner, SimConfig, SimJob};

/// The two workloads the ablations sweep: a sparsity-friendly CNN and the
/// clustered transformer.
fn probe_workloads() -> Vec<Workload> {
    vec![
        Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32),
        Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 32),
    ]
}

fn speedup_table(
    title: &str,
    archs: Vec<(String, Box<dyn Architecture>)>,
    cfg_for: impl Fn(usize) -> SimConfig,
) -> FigTable {
    let mut table = FigTable {
        title: title.to_string(),
        columns: archs.iter().map(|(n, _)| n.clone()).collect(),
        rows: Vec::new(),
    };
    // One job batch for the whole table: each column pairs a Dense
    // baseline with its variant at that column's configuration (the
    // runner's cache collapses the repeated baselines).
    let workloads = probe_workloads();
    let dense = arch::dense();
    let mut jobs = Vec::with_capacity(workloads.len() * archs.len() * 2);
    for w in &workloads {
        for (i, (_, a)) in archs.iter().enumerate() {
            let cfg = cfg_for(i);
            jobs.push(SimJob::new(&dense, w, cfg));
            jobs.push(SimJob::new(a.as_ref(), w, cfg));
        }
    }
    let mut results = Runner::default().run_all(&jobs).into_iter();
    for w in &workloads {
        let cells = archs
            .iter()
            .map(|_| {
                let dense_r = results.next().expect("dense job").expect("Dense runs");
                results
                    .next()
                    .expect("variant job")
                    .ok()
                    .map(|r| engine::speedup(&dense_r, &r))
            })
            .collect();
        table.rows.push((
            format!("{} ({})", w.benchmark().name(), w.pruning().label()),
            cells,
        ));
    }
    table
}

/// Displacement-reach sweep: no displacement, single-step (SUDS), reach 2
/// and reach 3 (the full-balance limit for 4-row tiles).
#[must_use]
pub fn reach_sweep(cfg: &SimConfig) -> FigTable {
    let archs: Vec<(String, Box<dyn Architecture>)> = vec![
        ("no disp".into(), Box::new(arch::eureka_no_suds_p4())),
        ("reach 1 (SUDS)".into(), Box::new(arch::eureka_p4())),
        ("reach 2".into(), Box::new(arch::eureka_multistep(2))),
        ("reach 3".into(), Box::new(arch::eureka_multistep(3))),
    ];
    let cfg = *cfg;
    speedup_table(
        "Ablation: displacement reach (speedup over Dense). Hardware cost grows \
         with reach: R return wires + an (R+2)-input adder per MAC.",
        archs,
        move |_| cfg,
    )
}

/// Systolic-scheduling look-ahead window sweep.
#[must_use]
pub fn window_sweep(cfg: &SimConfig) -> FigTable {
    let windows = [1usize, 2, 4, 8];
    let archs: Vec<(String, Box<dyn Architecture>)> = windows
        .iter()
        .map(|w| {
            (
                format!("window {w}"),
                Box::new(arch::eureka_p4()) as Box<dyn Architecture>,
            )
        })
        .collect();
    let base = *cfg;
    speedup_table(
        "Ablation: scheduling look-ahead window (speedup over Dense). Larger \
         windows raise register-file pressure (§3.3).",
        archs,
        move |i| {
            let mut c = base;
            c.core.window = windows[i];
            c
        },
    )
}

/// Compaction-factor sweep (P = 1 disables compaction; P = 16 saturates
/// the 64-wide mask datapath at p = 4).
#[must_use]
pub fn compaction_sweep(cfg: &SimConfig) -> FigTable {
    use eureka_sim::arch::{OneSided, ScheduleMode, TileTimer};
    let factors = [1usize, 2, 4, 8, 16];
    let archs: Vec<(String, Box<dyn Architecture>)> = factors
        .iter()
        .map(|&p| {
            (
                format!("P={p}"),
                Box::new(OneSided::new(
                    format!("Eureka P={p}"),
                    p,
                    TileTimer::OptimalSuds,
                    ScheduleMode::Grouped,
                )) as Box<dyn Architecture>,
            )
        })
        .collect();
    let cfg = *cfg;
    speedup_table(
        "Ablation: compaction factor (speedup over Dense). Metadata grows \
         log2(4P)+1 bits per value; the operand mux grows 4P-to-1.",
        archs,
        move |_| cfg,
    )
}

/// Sensitivity to the per-filter-row density heterogeneity sigma — a
/// model parameter, not a hardware knob; shows how load imbalance drives
/// every sparse scheme.
#[must_use]
pub fn sigma_sweep(cfg: &SimConfig) -> FigTable {
    let sigmas = [0.0f64, 0.4, 0.8, 1.2];
    let archs: Vec<(String, Box<dyn Architecture>)> = sigmas
        .iter()
        .map(|s| {
            (
                format!("sigma {s}"),
                Box::new(arch::eureka_p4()) as Box<dyn Architecture>,
            )
        })
        .collect();
    let base = *cfg;
    speedup_table(
        "Ablation: filter-row density heterogeneity (Eureka P=4 speedup over \
         Dense). More heterogeneous rows are harder to balance.",
        archs,
        move |i| SimConfig {
            row_density_sigma: sigmas[i],
            ..base
        },
    )
}

/// Calibration sensitivity of the SparTen baseline: its front-end
/// double-buffer refill floor (`sparten_chunk_min_cycles`) is this
/// reproduction's only fitted baseline parameter; this table shows how
/// the SparTen bars move with it (the Eureka results are untouched).
#[must_use]
pub fn sparten_calibration(cfg: &SimConfig) -> FigTable {
    let mins = [2.0f64, 3.0, 4.0, 6.0];
    let mut table = FigTable {
        title: "Calibration: SparTen speedup over Dense vs its chunk-refill floor \
                (default 4.0; Eureka P=4 shown for reference)"
            .to_string(),
        columns: mins
            .iter()
            .map(|m| format!("min={m}"))
            .chain(["Eureka P=4".to_string()])
            .collect(),
        rows: Vec::new(),
    };
    let workloads = probe_workloads();
    let dense = arch::dense();
    let sparten = arch::sparten();
    let eureka = arch::eureka_p4();
    let mut jobs = Vec::with_capacity(workloads.len() * (mins.len() * 2 + 2));
    for w in &workloads {
        for &m in &mins {
            let c = SimConfig {
                sparten_chunk_min_cycles: m,
                ..*cfg
            };
            jobs.push(SimJob::new(&dense, w, c));
            jobs.push(SimJob::new(&sparten, w, c));
        }
        jobs.push(SimJob::new(&dense, w, *cfg));
        jobs.push(SimJob::new(&eureka, w, *cfg));
    }
    let mut results = Runner::default().run_all(&jobs).into_iter();
    let mut next = || {
        results
            .next()
            .expect("one result per job")
            .expect("all sparten-calibration archs run")
    };
    for w in &workloads {
        let mut cells: Vec<Option<f64>> = mins
            .iter()
            .map(|_| {
                let d = next();
                Some(engine::speedup(&d, &next()))
            })
            .collect();
        let d = next();
        cells.push(Some(engine::speedup(&d, &next())));
        table.rows.push((
            format!("{} ({})", w.benchmark().name(), w.pruning().label()),
            cells,
        ));
    }
    table
}

/// Batch-size sweep: inference latency amortization. Small batches
/// under-fill the output columns (`m = tokens·batch` or
/// `pixels·batch`), so per-input throughput grows with batch until the
/// device saturates.
#[must_use]
pub fn batch_sweep(cfg: &SimConfig) -> FigTable {
    let batches = [1usize, 4, 16, 32, 64];
    let mut table = FigTable {
        title: "Sweep: Eureka P=4 throughput (inputs/s at 1 GHz) vs batch size".to_string(),
        columns: batches.iter().map(|b| format!("batch {b}")).collect(),
        rows: Vec::new(),
    };
    let benches = [Benchmark::ResNet50, Benchmark::BertSquad];
    let eureka = arch::eureka_p4();
    let workloads: Vec<Workload> = benches
        .iter()
        .flat_map(|&bench| {
            batches
                .iter()
                .map(move |&b| Workload::new(bench, PruningLevel::Moderate, b))
        })
        .collect();
    let jobs: Vec<SimJob<'_>> = workloads
        .iter()
        .map(|w| SimJob::new(&eureka, w, *cfg))
        .collect();
    let mut results = Runner::default().run_all(&jobs).into_iter();
    for bench in benches {
        let cells = batches
            .iter()
            .map(|&b| {
                let r = results
                    .next()
                    .expect("one result per job")
                    .expect("Eureka runs");
                Some(r.throughput_per_s(b, 1.0))
            })
            .collect();
        table.rows.push((format!("{} (mod)", bench.name()), cells));
    }
    table
}

/// Clock-penalty caveat (§5.4): the public-domain synthesis puts Eureka's
/// critical path at 1.84 ns vs Ampere's 1.66 ns; the paper argues
/// commercial tools and pipelining close the gap. This table shows the
/// speedup with and without charging the 11% slower clock.
#[must_use]
pub fn clock_penalty(cfg: &SimConfig) -> FigTable {
    use eureka_energy::components::{AMPERE_DELAY_NS, EUREKA_DELAY_NS};
    let penalty = EUREKA_DELAY_NS / AMPERE_DELAY_NS;
    let mut table = FigTable {
        title: format!(
            "Caveat: Eureka speedup at iso-clock vs with the synthesized {:.0}% slower \
             clock (paper §5.4 expects pipelining to recover it)",
            100.0 * (penalty - 1.0)
        ),
        columns: vec!["iso-clock".into(), "with delay penalty".into()],
        rows: Vec::new(),
    };
    let workloads = probe_workloads();
    let dense = arch::dense();
    let eureka = arch::eureka_p4();
    let jobs: Vec<SimJob<'_>> = workloads
        .iter()
        .flat_map(|w| [SimJob::new(&dense, w, *cfg), SimJob::new(&eureka, w, *cfg)])
        .collect();
    let mut results = Runner::default().run_all(&jobs).into_iter();
    for w in &workloads {
        let d = results.next().expect("dense job").expect("Dense runs");
        let e = results.next().expect("eureka job").expect("Eureka runs");
        let iso = engine::speedup(&d, &e);
        table.rows.push((
            format!("{} ({})", w.benchmark().name(), w.pruning().label()),
            vec![Some(iso), Some(iso / penalty)],
        ));
    }
    table
}

/// The two-sided extension the paper declined (§1, §3.4): activation-zero
/// clock gating. Energy normalized to Dense; timing is identical to
/// Eureka P=4 by construction.
#[must_use]
pub fn two_sided_energy(cfg: &SimConfig) -> FigTable {
    let model = calibrate::calibrated_model(cfg);
    let archs: Vec<(String, Box<dyn Architecture>)> = vec![
        ("Eureka P=4".into(), Box::new(arch::eureka_p4())),
        ("+act gating".into(), Box::new(arch::eureka_two_sided())),
    ];
    let mut table = FigTable {
        title: "Extension: two-sided activation gating (energy normalized to Dense). \
                CNNs benefit; ReLU-free BERT does not — the paper's rationale for \
                staying one-sided."
            .to_string(),
        columns: archs.iter().map(|(n, _)| n.clone()).collect(),
        rows: Vec::new(),
    };
    let workloads = probe_workloads();
    let dense = arch::dense();
    let mut jobs = Vec::with_capacity(workloads.len() * (archs.len() + 1));
    for w in &workloads {
        jobs.push(SimJob::new(&dense, w, *cfg));
        for (_, a) in &archs {
            jobs.push(SimJob::new(a.as_ref(), w, *cfg));
        }
    }
    let mut results = Runner::default().run_all(&jobs).into_iter();
    for w in &workloads {
        let dense_r = results.next().expect("dense job").expect("Dense runs");
        let dense_e = model.energy(&dense_r, cfg);
        let cells = archs
            .iter()
            .map(|_| {
                results
                    .next()
                    .expect("variant job")
                    .ok()
                    .map(|r| model.energy(&r, cfg).total_pj() / dense_e.total_pj())
            })
            .collect();
        table.rows.push((
            format!("{} ({})", w.benchmark().name(), w.pruning().label()),
            cells,
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            rowgroup_samples: 12,
            slice_samples: 12,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn reach_has_diminishing_returns() {
        let t = reach_sweep(&cfg());
        let row = "ResNet50 (mod)";
        let none = t.value(row, "no disp").unwrap();
        let r1 = t.value(row, "reach 1 (SUDS)").unwrap();
        let r3 = t.value(row, "reach 3").unwrap();
        // Single-step captures most of the gain over no displacement.
        let step1_gain = r1 - none;
        let extra_gain = r3 - r1;
        assert!(step1_gain > 0.0);
        assert!(
            extra_gain < step1_gain,
            "reach>1 gain {extra_gain} should be below the single-step gain {step1_gain}"
        );
    }

    #[test]
    fn compaction_grows_then_saturates() {
        let t = compaction_sweep(&cfg());
        let row = "ResNet50 (mod)";
        let p1 = t.value(row, "P=1").unwrap();
        let p4 = t.value(row, "P=4").unwrap();
        let p16 = t.value(row, "P=16").unwrap();
        assert!(p4 > p1 * 1.5);
        // Saturation: doubling twice more buys comparatively little.
        assert!(p16 - p4 < p4 - p1);
    }

    #[test]
    fn sigma_hurts_balance() {
        let t = sigma_sweep(&cfg());
        let row = "ResNet50 (mod)";
        let s0 = t.value(row, "sigma 0").unwrap();
        let s12 = t.value(row, "sigma 1.2").unwrap();
        assert!(s0 > s12, "sigma 0 {s0} vs 1.2 {s12}");
    }

    #[test]
    fn sparten_calibration_is_monotone() {
        let t = sparten_calibration(&cfg());
        let row = "ResNet50 (mod)";
        let vals: Vec<f64> = ["min=2", "min=3", "min=4", "min=6"]
            .iter()
            .map(|c| t.value(row, c).unwrap())
            .collect();
        assert!(
            vals.windows(2).all(|w| w[1] <= w[0] * 1.02),
            "higher refill floor must not speed SparTen up: {vals:?}"
        );
        // The calibration choice does not decide the BERT crossover.
        let bert_eureka = t.value("BERT-squad (mod)", "Eureka P=4").unwrap();
        for c in ["min=3", "min=4", "min=6"] {
            let s = t.value("BERT-squad (mod)", c).unwrap();
            assert!(s < bert_eureka, "{c}: SparTen {s} vs Eureka {bert_eureka}");
        }
    }

    #[test]
    fn batch_amortizes_throughput() {
        let t = batch_sweep(&cfg());
        let b1 = t.value("ResNet50 (mod)", "batch 1").unwrap();
        let b32 = t.value("ResNet50 (mod)", "batch 32").unwrap();
        assert!(b32 > b1, "batch 32 {b32} vs batch 1 {b1}");
    }

    #[test]
    fn clock_penalty_scales_speedup() {
        let t = clock_penalty(&cfg());
        let iso = t.value("ResNet50 (mod)", "iso-clock").unwrap();
        let pen = t.value("ResNet50 (mod)", "with delay penalty").unwrap();
        assert!((pen / iso - 1.66 / 1.84).abs() < 1e-9);
    }

    #[test]
    fn gating_helps_cnn_not_bert() {
        let t = two_sided_energy(&cfg());
        let cnn_base = t.value("ResNet50 (mod)", "Eureka P=4").unwrap();
        let cnn_gated = t.value("ResNet50 (mod)", "+act gating").unwrap();
        assert!(cnn_gated < cnn_base);
        let bert_base = t.value("BERT-squad (mod)", "Eureka P=4").unwrap();
        let bert_gated = t.value("BERT-squad (mod)", "+act gating").unwrap();
        assert!((bert_gated - bert_base).abs() / bert_base < 0.05);
    }
}
