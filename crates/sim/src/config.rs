//! Simulator configuration.

/// Geometry of one tensor core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorCoreConfig {
    /// MAC sub-array dimension `p` (a `p × p` square).
    pub sub_array_dim: usize,
    /// Systolic rows of sub-arrays.
    pub grid_rows: usize,
    /// Systolic stages (columns of sub-arrays) per row.
    pub grid_cols: usize,
    /// Scheduling look-ahead: sub-matrices packable into one macro-step of
    /// one row (paper §3.3, "a small number, e.g. 2").
    pub window: usize,
}

impl TensorCoreConfig {
    /// The paper's tensor core: four 4×4 sub-arrays as a 2×2 systolic grid.
    #[must_use]
    pub fn paper_default() -> Self {
        TensorCoreConfig {
            sub_array_dim: 4,
            grid_rows: 2,
            grid_cols: 2,
            window: 2,
        }
    }

    /// A plainly-scaled `dim × dim` array: one monolithic sub-array
    /// (Figure 14's `-plain` variants).
    #[must_use]
    pub fn plain(dim: usize) -> Self {
        TensorCoreConfig {
            sub_array_dim: dim,
            grid_rows: 1,
            grid_cols: 1,
            window: 2,
        }
    }

    /// A systolically-scaled `dim × dim` array built from 4×4 blocks
    /// (Figure 14's `-systolic` variants).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a positive multiple of 4.
    #[must_use]
    pub fn systolic(dim: usize) -> Self {
        assert!(
            dim >= 4 && dim.is_multiple_of(4),
            "dim must be a multiple of 4"
        );
        TensorCoreConfig {
            sub_array_dim: 4,
            grid_rows: dim / 4,
            grid_cols: dim / 4,
            window: 2,
        }
    }

    /// MACs in this tensor core.
    #[must_use]
    pub fn macs(&self) -> usize {
        self.sub_array_dim * self.sub_array_dim * self.grid_rows * self.grid_cols
    }
}

impl Default for TensorCoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Off-chip memory model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryConfig {
    /// DRAM bandwidth in bytes per core-clock cycle across the device
    /// (1.5 TB/s at 1 GHz ⇒ 1500 B/cycle).
    pub bytes_per_cycle: f64,
    /// Fraction of activation/output traffic that stays resident in the
    /// shared L2 between layers (§3.4) and never touches DRAM for timing
    /// purposes. Energy accounting still sees the full traffic.
    pub l2_act_residency: f64,
    /// Non-overlappable memory time as a fraction of compute time
    /// (per-tile cold misses, layer-boundary ramp). Calibrated so the
    /// compute-bound paper workloads expose 9–13% memory time in every
    /// architecture (§5.1).
    pub ramp_fraction: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            bytes_per_cycle: 1500.0,
            l2_act_residency: 0.7,
            ramp_fraction: 0.11,
        }
    }
}

/// Full simulation configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of tensor cores (Ampere-like: 432).
    pub tensor_cores: usize,
    /// Per-core geometry.
    pub core: TensorCoreConfig,
    /// Memory system.
    pub mem: MemoryConfig,
    /// Row-group samples per layer for the statistical timing model.
    pub rowgroup_samples: usize,
    /// Reduction-slice samples per sampled row-group.
    pub slice_samples: usize,
    /// Log-normal sigma of per-filter-row density variation. Magnitude
    /// pruning keeps some filters far denser than others; a hot row idles
    /// `p - 1` rows of a `p×p` array, which is why plain array scale-up
    /// "loses more utilization for the same unbalanced row length than
    /// smaller arrays" (paper §5.5).
    pub row_density_sigma: f64,
    /// Minimum front-end cycles SparTen spends per non-skippable chunk
    /// pair (double-buffer refill; see DESIGN.md baseline models).
    pub sparten_chunk_min_cycles: f64,
    /// Partial products DSTC's crossbar can commit per cycle per core
    /// (paper §5.1: 16 of a maximum 64).
    pub dstc_crossbar_width: usize,
    /// Whether to account BERT's weight-free attention-score matmuls
    /// (`QKᵀ`, `attn × V`) as dense work appended to every architecture.
    /// Off by default: the paper's figures evaluate the pruned weight
    /// GEMMs; turning this on dampens every sparse scheme's BERT bar
    /// equally (~8% extra dense MACs).
    pub include_attention_aux: bool,
    /// Replace the analytic L2-residency constant with a per-layer
    /// measurement from the detailed cache substrate
    /// ([`crate::cachesim`]). Slower; used to validate the analytic
    /// memory model.
    pub detailed_memory: bool,
}

impl SimConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        SimConfig {
            tensor_cores: 432,
            core: TensorCoreConfig::paper_default(),
            mem: MemoryConfig::default(),
            rowgroup_samples: 96,
            slice_samples: 96,
            row_density_sigma: 0.8,
            sparten_chunk_min_cycles: 4.0,
            dstc_crossbar_width: 16,
            include_attention_aux: false,
            detailed_memory: false,
        }
    }

    /// A reduced-sampling configuration for tests and doc examples
    /// (identical model, ~10× faster, a few percent noisier).
    #[must_use]
    pub fn fast() -> Self {
        SimConfig {
            rowgroup_samples: 24,
            slice_samples: 24,
            ..Self::paper_default()
        }
    }

    /// Total MACs in the device.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.tensor_cores * self.core.macs()
    }

    /// Keeps total device MACs constant while switching core geometry
    /// (Figure 14 compares equal-MAC configurations).
    ///
    /// # Panics
    ///
    /// Panics if the new geometry doesn't divide the current MAC budget.
    #[must_use]
    pub fn with_core(&self, core: TensorCoreConfig) -> Self {
        let budget = self.total_macs();
        assert!(
            budget.is_multiple_of(core.macs()),
            "core geometry {core:?} does not divide the {budget}-MAC budget"
        );
        SimConfig {
            tensor_cores: budget / core.macs(),
            core,
            ..*self
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_core_has_64_macs() {
        assert_eq!(TensorCoreConfig::paper_default().macs(), 64);
        assert_eq!(SimConfig::paper_default().total_macs(), 432 * 64);
    }

    #[test]
    fn figure14_geometries() {
        assert_eq!(TensorCoreConfig::plain(8).macs(), 64);
        assert_eq!(TensorCoreConfig::systolic(8).macs(), 64);
        assert_eq!(TensorCoreConfig::plain(16).macs(), 256);
        let sys16 = TensorCoreConfig::systolic(16);
        assert_eq!((sys16.grid_rows, sys16.grid_cols), (4, 4));
        assert_eq!(sys16.macs(), 256);
    }

    #[test]
    fn with_core_preserves_mac_budget() {
        let base = SimConfig::paper_default();
        for core in [
            TensorCoreConfig::plain(4),
            TensorCoreConfig::plain(16),
            TensorCoreConfig::systolic(16),
        ] {
            let cfg = base.with_core(core);
            assert_eq!(cfg.total_macs(), base.total_macs());
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn systolic_validates() {
        let _ = TensorCoreConfig::systolic(6);
    }
}
