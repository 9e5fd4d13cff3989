//! Metamorphic invariants: properties that must hold between *related*
//! runs, where no single run has an obvious ground truth.
//!
//! Tile-level ([`check_metamorphic`], architecture-independent):
//!
//! 1. **Cyclic-rotation invariance** — SUDS displacement is a ring
//!    (row `i` sheds into row `i+1 mod p`), so rotating the row-length
//!    vector cannot change the optimal `K`. (Arbitrary permutations *can*:
//!    `[0,4,4,0]` needs `K = 3` while `[4,0,4,0]` packs into `K = 2`, so
//!    the stronger claim would be wrong, and asserting it here guards the
//!    test suite itself against that tempting mistake.)
//! 2. **Grouped-schedule permutation invariance** — §3.3's offline
//!    scheduler sorts tiles into groups, so dispatch order in must not
//!    matter.
//! 3. **Density monotonicity** — on *coupled* masks (same uniform draws,
//!    lower threshold ⇒ subset mask), both compaction cycles and optimal
//!    SUDS `K` are monotone in density.
//! 4. **P = 1 on a full tile is dense** — factor-1 compaction of a fully
//!    dense `p × p` tile costs exactly `p` cycles and SUDS cannot improve
//!    it.
//!
//! Simulator-level ([`check_sim`], per architecture):
//!
//! 5. **Determinism** — `simulate_layer` on identical inputs (same seeded
//!    `LayerCtx`) returns identical reports.
//! 6. For the Natural-schedule compaction archs, **layer-level density
//!    monotonicity** of the exact tile-timed cycle count (at
//!    `row_density_sigma = 0`, halving density can only speed them up).
//! 7. For `dense`, **P = 1 compaction ≡ dense** at full density: the
//!    exact cycle counts coincide.

use crate::case::CaseParams;
use eureka_core::compact::CompactedTile;
use eureka_core::schedule::{schedule_grouped, SystolicConfig};
use eureka_core::suds;
use eureka_models::gemm::GemmShape;
use eureka_models::workload::LayerGemm;
use eureka_sim::arch::onesided::{self, exact_layer_compute_cycles};
use eureka_sim::arch::{by_name, LayerCtx};
use eureka_sim::SimConfig;
use eureka_sparse::rng::DetRng;
use eureka_sparse::TilePattern;
use proptest::test_runner::TestRng;

/// Tile-level invariants (1)–(4). Architecture-independent.
///
/// # Errors
///
/// A diagnostic naming the violated invariant and the generated inputs.
pub fn check_metamorphic(case: &CaseParams) -> Result<(), String> {
    let mut rng = TestRng::from_seed(case.seed ^ 0x4E7A_0000_0000_0000);
    let ctx = |detail: &str| format!("[metamorphic] case={case:?}: {detail}");

    // (1) Cyclic rotation invariance of the optimal K.
    let lens: Vec<usize> = (0..4).map(|_| rng.below_inclusive(12) as usize).collect();
    let k0 = suds::optimize(&lens).k;
    for r in 1..lens.len() {
        let mut rotated = lens.clone();
        rotated.rotate_left(r);
        let kr = suds::optimize(&rotated).k;
        if kr != k0 {
            return Err(ctx(&format!(
                "optimal K changed under rotation: {lens:?} -> K={k0} but \
                 rotate_left({r})={rotated:?} -> K={kr}"
            )));
        }
    }

    // (2) Grouped scheduling ignores dispatch order.
    let times: Vec<u64> = (0..1 + rng.below_inclusive(23))
        .map(|_| 1 + rng.below_inclusive(15))
        .collect();
    let cfg = SystolicConfig::paper_default();
    let base = schedule_grouped(&times, &cfg);
    let mut shuffled = times.clone();
    DetRng::new(case.seed).shuffle(&mut shuffled);
    let perm = schedule_grouped(&shuffled, &cfg);
    if base != perm {
        return Err(ctx(&format!(
            "grouped schedule depends on tile order: {times:?} -> {base:?} \
             but shuffled {shuffled:?} -> {perm:?}"
        )));
    }

    // (3) Density monotonicity on coupled masks (p = 4, q = 16: factor 4).
    let (p, q) = (4usize, 16usize);
    let d_hi = case.density();
    let d_lo = d_hi / 2.0;
    let mut value_rng = DetRng::new(case.seed ^ 0xC0_7B1E);
    let mut rows_lo = vec![0u64; p];
    let mut rows_hi = vec![0u64; p];
    for r in 0..p {
        for c in 0..q {
            let u = value_rng.next_f64();
            if u < d_lo {
                rows_lo[r] |= 1 << c;
            }
            if u < d_hi {
                rows_hi[r] |= 1 << c;
            }
        }
    }
    let t_lo = TilePattern::from_rows(&rows_lo, q).map_err(|e| ctx(&format!("{e:?}")))?;
    let t_hi = TilePattern::from_rows(&rows_hi, q).map_err(|e| ctx(&format!("{e:?}")))?;
    let (c_lo, c_hi) = (
        CompactedTile::new(&t_lo, 4).map_err(|e| ctx(&format!("{e:?}")))?,
        CompactedTile::new(&t_hi, 4).map_err(|e| ctx(&format!("{e:?}")))?,
    );
    if c_lo.cycles() > c_hi.cycles() {
        return Err(ctx(&format!(
            "compaction cycles not monotone in density: {} at d={d_lo:.3} > {} at d={d_hi:.3}",
            c_lo.cycles(),
            c_hi.cycles()
        )));
    }
    let (k_lo, k_hi) = (suds::optimal_cycles(&t_lo), suds::optimal_cycles(&t_hi));
    if k_lo > k_hi {
        return Err(ctx(&format!(
            "optimal SUDS cycles not monotone on coupled masks: K={k_lo} at \
             d={d_lo:.3} > K={k_hi} at d={d_hi:.3}"
        )));
    }

    // (4) Factor-1 compaction of a full tile is dense execution.
    let full = TilePattern::from_rows(&[0b1111; 4], 4).map_err(|e| ctx(&format!("{e:?}")))?;
    let c1 = CompactedTile::new(&full, 1).map_err(|e| ctx(&format!("{e:?}")))?;
    if c1.cycles() != 4 || c1.cycles() != c1.dense_cycles() {
        return Err(ctx(&format!(
            "P=1 compaction of a full 4x4 tile costs {} cycles, dense costs {}",
            c1.cycles(),
            c1.dense_cycles()
        )));
    }
    if suds::optimal_cycles(&full) != 4 {
        return Err(ctx(&format!(
            "SUDS claims {} cycles on a full 4x4 tile; no displacement can \
             beat 4 (every row is full)",
            suds::optimal_cycles(&full)
        )));
    }
    Ok(())
}

/// A small, fast simulator configuration for per-case checks.
fn sim_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 8,
        slice_samples: 8,
        ..SimConfig::fast()
    }
}

/// The synthetic layer a case maps to at the simulator level.
fn sim_gemm(case: &CaseParams, density: f64) -> LayerGemm {
    let shape = GemmShape {
        n: case.n * 4,
        k: case.k * 2,
        m: case.m * 8,
    };
    LayerGemm {
        name: "fuzz".into(),
        shape,
        unique_act_bytes: shape.activation_bytes(),
        weight_density: density,
        clustered: false,
        depthwise: false,
    }
}

fn layer_ctx(seed: u64) -> LayerCtx {
    LayerCtx {
        act_density: 0.55,
        s2ta_act_density: Some(0.5),
        s2ta_fil_density: Some(0.5),
        rng: DetRng::new(seed),
        tiles: Default::default(),
        scratch: Default::default(),
    }
}

/// Simulator-level invariants (5)–(7) for one registry architecture.
///
/// # Errors
///
/// A diagnostic naming the architecture and the violated invariant.
pub fn check_sim(arch_key: &str, case: &CaseParams) -> Result<(), String> {
    let ctx = |detail: &str| format!("[sim] arch={arch_key} case={case:?}: {detail}");
    let arch = by_name(arch_key).ok_or_else(|| ctx("unknown architecture"))?;
    let cfg = sim_cfg();
    // Statistical models may divide by density; keep it off the edges.
    let density = case.density().clamp(0.02, 0.95);
    let gemm = sim_gemm(case, density);

    // (5) Determinism: identical seeded contexts, identical reports.
    let a = arch.simulate_layer(&gemm, &layer_ctx(case.seed), &cfg);
    let b = arch.simulate_layer(&gemm, &layer_ctx(case.seed), &cfg);
    if a != b {
        return Err(ctx(&format!(
            "simulate_layer is not deterministic:\n  first:  {a:?}\n  second: {b:?}"
        )));
    }

    // (6) Exact-timing density monotonicity for the Natural-schedule
    // compaction architectures (coupled draws: at sigma = 0 the sampler
    // consumes the same stream at every density).
    if matches!(arch_key, "cnvlutin" | "eureka-unopt") {
        let exact_cfg = SimConfig {
            row_density_sigma: 0.0,
            ..cfg
        };
        let model = match arch_key {
            "cnvlutin" => onesided::cnvlutin_like(),
            _ => onesided::eureka_unopt(),
        };
        let sparser = sim_gemm(case, density / 2.0);
        let cycles_hi =
            exact_layer_compute_cycles(&model, &gemm, &layer_ctx(case.seed), &exact_cfg);
        let cycles_lo =
            exact_layer_compute_cycles(&model, &sparser, &layer_ctx(case.seed), &exact_cfg);
        if cycles_lo > cycles_hi {
            return Err(ctx(&format!(
                "halving density slowed {arch_key} down: {cycles_lo} cycles at \
                 d={:.3} vs {cycles_hi} at d={density:.3}",
                density / 2.0
            )));
        }
    }

    // (7) P=1 compaction degenerates to dense timing at full density.
    if arch_key == "dense" {
        let exact_cfg = SimConfig {
            row_density_sigma: 0.0,
            ..cfg
        };
        let full = sim_gemm(case, 1.0);
        let dense_cycles = exact_layer_compute_cycles(
            &onesided::dense(),
            &full,
            &layer_ctx(case.seed),
            &exact_cfg,
        );
        let p1_cycles = exact_layer_compute_cycles(
            &onesided::compaction_only(1),
            &full,
            &layer_ctx(case.seed),
            &exact_cfg,
        );
        if dense_cycles != p1_cycles {
            return Err(ctx(&format!(
                "P=1 compaction at full density took {p1_cycles} cycles, \
                 dense took {dense_cycles}; they must coincide"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_sim::arch::registry_names;

    #[test]
    fn tile_invariants_hold_over_many_seeds() {
        for seed in 0..100u64 {
            check_metamorphic(&CaseParams::generate(seed)).unwrap();
        }
    }

    #[test]
    fn sim_invariants_hold_for_every_registry_arch() {
        let case = CaseParams::generate(5);
        for key in registry_names() {
            check_sim(key, &case).unwrap();
        }
    }

    #[test]
    fn rotation_vs_permutation_distinction_is_real() {
        // The documented counterexample: cyclic rotations agree...
        assert_eq!(
            suds::optimize(&[0, 4, 4, 0]).k,
            suds::optimize(&[4, 4, 0, 0]).k
        );
        // ...but a non-cyclic permutation of the same multiset differs.
        assert_eq!(suds::optimize(&[0, 4, 4, 0]).k, 3);
        assert_eq!(suds::optimize(&[4, 0, 4, 0]).k, 2);
    }
}
