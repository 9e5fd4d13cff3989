//! The DSTC baseline (Dual-Side Sparse Tensor Core, ISCA 2021).
//!
//! DSTC computes two-sided sparse outer products: compressed weight
//! columns cross compressed activation rows, with the resulting partial
//! products scattered into accumulation buffers through a crossbar. The
//! paper's model (§4, §5.1) is power/area-limited to four 4×4 crossbars
//! routing at most **16 partial products per cycle** out of the 64 an 8×8
//! array can generate — which, with its lack of load balancing, is why
//! DSTC leaves most of the two-sided opportunity on the table.
//!
//! Model: for each 8×8 output block and each reduction index `k`, the
//! work is `nnz(W-column-segment) × nnz(A-row-segment)` partial products,
//! committed at `crossbar_width` per cycle (`ceil` quantization models the
//! burstiness penalty; zero-product steps are skipped by the compressed
//! format).

use super::{tile_density, Architecture, LayerCtx, SimError};
use crate::config::SimConfig;
use crate::memory;
use crate::report::{LayerReport, OpCounts};
use eureka_models::workload::LayerGemm;
use eureka_sparse::rng::{Bernoulli, DetRng};

/// DSTC's output-block edge (its 8×8 array).
const BLOCK: usize = 8;

/// The DSTC architecture model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dstc;

/// Constructs the DSTC baseline.
#[must_use]
pub fn dstc() -> Dstc {
    Dstc
}

impl Architecture for Dstc {
    fn name(&self) -> &str {
        "DSTC"
    }

    fn simulate_layer(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
    ) -> Result<LayerReport, SimError> {
        let (n, k, m) = (gemm.shape.n, gemm.shape.k, gemm.shape.m);
        let d_a = ctx.act_density;
        let width = cfg.dstc_crossbar_width as f64;
        let mut rng = ctx.rng.fork(0xD57C);

        // Streaming model over windows of consecutive reduction steps:
        // compressed weight non-zeros feed the vector lanes (4 values per
        // cycle) and the crossbar commits `width` products per cycle;
        // per-window ceil quantization captures the burstiness an
        // unbalanced design cannot smooth. A window shares one clustered
        // block density (pruned blocks are larger than a window).
        const WINDOW: usize = 16;
        let samples = (cfg.rowgroup_samples * cfg.slice_samples).max(256);
        let (w_rows, a_cols) = (BLOCK.min(n), BLOCK.min(m));
        let act = Bernoulli::new(d_a);
        let window_stats = |d_w: f64, rng: &mut DetRng| -> (f64, f64) {
            let weight = Bernoulli::new(d_w);
            let (mut sum_cycles, mut sum_products) = (0f64, 0f64);
            for _ in 0..samples {
                // Integer counts within a sample; both stay small enough
                // that their `f64` values are exact.
                let (mut products, mut w_total) = (0usize, 0usize);
                for _ in 0..WINDOW {
                    let w_nnz = weight.count(w_rows, rng);
                    let a_nnz = act.count(a_cols, rng);
                    products += w_nnz * a_nnz;
                    w_total += w_nnz;
                }
                let (products, w_total) = (products as f64, w_total as f64);
                sum_products += products;
                // 1×8 weight vector lanes bound the front end; the
                // crossbar bounds the commit side.
                sum_cycles += (products / width).ceil().max((w_total / 8.0).ceil());
            }
            (sum_cycles / samples as f64, sum_products / samples as f64)
        };

        let (mean_cycles, mean_products, imbalance) = if gemm.clustered {
            // Coarsely clustered filters assign whole dense regions to
            // some compute units and near-empty regions to others; with no
            // load balancing the slowest unit gates the device (§5.1:
            // "DSTC incurs heavy load imbalance in BERT").
            let (f, hi, lo) = super::cluster_mixture(gemm.weight_density);
            let (cyc_hi, prod_hi) = window_stats(hi, &mut rng);
            let (cyc_lo, prod_lo) = window_stats(lo, &mut rng);
            let mean_cyc = f * cyc_hi + (1.0 - f) * cyc_lo;
            let mean_prod = f * prod_hi + (1.0 - f) * prod_lo;
            // Each unit statically owns a set of contiguous regions.
            const UNITS: usize = 16;
            const REGIONS_PER_UNIT: usize = 16;
            let mut max_work = 0f64;
            let mut total_work = 0f64;
            for _ in 0..UNITS {
                let work: f64 = (0..REGIONS_PER_UNIT)
                    .map(|_| if rng.bernoulli(f) { cyc_hi } else { cyc_lo })
                    .sum();
                total_work += work;
                max_work = max_work.max(work);
            }
            let factor = if total_work > 0.0 {
                max_work / (total_work / UNITS as f64)
            } else {
                1.0
            };
            (mean_cyc, mean_prod, factor.max(1.0))
        } else {
            let d_w = tile_density(gemm, &mut rng);
            let (cyc, prod) = window_stats(d_w, &mut rng);
            (cyc, prod, 1.0)
        };

        let blocks = (n.div_ceil(BLOCK) * m.div_ceil(BLOCK)) as f64;
        let windows = k.div_ceil(WINDOW) as f64;
        let core_cycles = mean_cycles * windows * blocks * imbalance / cfg.tensor_cores as f64;
        let compute_cycles = core_cycles.ceil().max(1.0) as u64;

        let mac_ops = (mean_products * windows * blocks) as u64;
        let nnz_w = (n * k) as f64 * gemm.weight_density;
        let act_elems = gemm.unique_act_bytes / 2;
        let device_macs = cfg.total_macs() as u64;

        let mut report = LayerReport {
            name: gemm.name.clone(),
            compute_cycles,
            mem_cycles: 0,
            mac_ops,
            idle_mac_cycles: (compute_cycles * device_macs).saturating_sub(mac_ops),
            bubble_cycles: 0,
            // Compressed payloads plus one mask bit per position.
            weight_bytes: (nnz_w * 2.0) as u64,
            act_bytes: (act_elems as f64 * d_a * 2.0) as u64,
            out_bytes: (2 * n * m) as u64,
            metadata_bytes: ((n * k) as u64 + act_elems) / 8,
            ops: OpCounts {
                crossbar: mac_ops,
                // Accumulation-buffer write + read-back per partial product.
                buffer: 2 * mac_ops,
                ..OpCounts::default()
            },
        };
        report.mem_cycles = memory::exposed_cycles(&report, &cfg.mem);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::onesided;
    use eureka_models::GemmShape;

    fn ctx(act: f64) -> LayerCtx {
        LayerCtx {
            act_density: act,
            s2ta_act_density: None,
            s2ta_fil_density: None,
            rng: DetRng::new(7),
            tiles: Default::default(),
            scratch: Default::default(),
        }
    }

    fn gemm(d: f64, clustered: bool) -> LayerGemm {
        LayerGemm {
            name: "t".into(),
            shape: GemmShape {
                n: 256,
                k: 2304,
                m: 6272,
            },
            unique_act_bytes: 1 << 20,
            weight_density: d,
            clustered,
            depthwise: false,
        }
    }

    #[test]
    fn crossbar_limits_speedup() {
        // Analytic check: speedup over dense ≈ 1/(4·d_w·d_a) when the
        // per-step products stay above the skip threshold.
        let cfg = SimConfig::fast();
        let g = gemm(0.13, false);
        let d = onesided::dense()
            .simulate_layer(&g, &ctx(0.5), &cfg)
            .unwrap();
        let r = dstc().simulate_layer(&g, &ctx(0.5), &cfg).unwrap();
        let speedup = d.compute_cycles as f64 / r.compute_cycles as f64;
        // Quantization pushes below the 3.85 bound.
        assert!(speedup > 2.0 && speedup < 4.2, "speedup {speedup}");
    }

    #[test]
    fn bert_clustering_hurts_dstc() {
        let cfg = SimConfig::fast();
        let dense_r = onesided::dense()
            .simulate_layer(&gemm(0.10, true), &ctx(0.98), &cfg)
            .unwrap();
        let clustered = dstc()
            .simulate_layer(&gemm(0.10, true), &ctx(0.98), &cfg)
            .unwrap();
        let uniform = dstc()
            .simulate_layer(&gemm(0.10, false), &ctx(0.98), &cfg)
            .unwrap();
        // Clustered (bursty) sparsity quantizes worse against the crossbar.
        assert!(clustered.compute_cycles >= uniform.compute_cycles);
        let speedup = dense_r.compute_cycles as f64 / clustered.compute_cycles as f64;
        assert!(speedup < 3.0, "speedup {speedup}");
    }

    #[test]
    fn counts_crossbar_traffic() {
        let cfg = SimConfig::fast();
        let r = dstc()
            .simulate_layer(&gemm(0.13, false), &ctx(0.5), &cfg)
            .unwrap();
        assert_eq!(r.ops.crossbar, r.mac_ops);
        assert_eq!(r.ops.buffer, 2 * r.mac_ops);
        // Two-sided products ≈ n·k·m·d_w·d_a.
        let expect = 256.0 * 2304.0 * 6272.0 * 0.13 * 0.5;
        let got = r.mac_ops as f64;
        assert!(
            (got - expect).abs() / expect < 0.1,
            "got {got} expect {expect}"
        );
    }
}
