//! Deterministic fault injection for testing the runner's failure paths.
//!
//! Nothing here runs in production sweeps: the module exists so tests,
//! `eureka_verify::faultcheck`, and CI can *prove* the fault-tolerance
//! contract — that a panicking unit is isolated, that surviving layers
//! are bit-identical to a fault-free run, and that failed units never
//! poison the content cache.
//!
//! A [`FaultPlan`] names (layer, kind) sites, chosen explicitly or by a
//! seeded RNG; [`FaultyArch`] wraps any real [`Architecture`] and injects
//! the planned faults — a panic, a [`SimError::Injected`], or a slow-unit
//! stall — on the first [`FaultSpec::fail_first`] simulation attempts of
//! each site, then delegates to the wrapped model. Because the wrapper
//! takes a caller-supplied tag into its display name, its units never
//! alias the clean architecture's cache entries (the runner caches on
//! [`Architecture::name`]).

use crate::arch::{Architecture, LayerCtx, SimError};
use crate::config::SimConfig;
use crate::report::LayerReport;
use eureka_models::workload::LayerGemm;
use eureka_sparse::rng::DetRng;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// What to inject at a fault site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the unit (tests [`std::panic::catch_unwind`]
    /// isolation). The payload is an [`InjectedPanic`], which the
    /// process-wide quiet hook suppresses from stderr.
    Panic,
    /// Return [`SimError::Injected`] (tests the typed-error path).
    Error,
    /// Sleep this many milliseconds, then simulate normally (tests that
    /// slow units change nothing but timing telemetry).
    Stall(u64),
}

/// One fault site: a layer name, what to inject, and for how many
/// attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The layer (GEMM) name to fault.
    pub layer: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Inject on the first `fail_first` simulation attempts of this
    /// site, then succeed — `1` models a transient fault that a retry
    /// recovers, `u32::MAX` a permanent one.
    pub fail_first: u32,
}

/// A deterministic set of fault sites.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults (the wrapper becomes a transparent proxy).
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit sites.
    #[must_use]
    pub fn new(faults: Vec<FaultSpec>) -> Self {
        FaultPlan { faults }
    }

    /// Chooses `k` distinct fault sites from `layers` with a seeded RNG:
    /// the same `(seed, layers, k, kind)` always yields the same plan.
    /// Sites fail permanently (`fail_first = u32::MAX`).
    #[must_use]
    pub fn seeded(seed: u64, layers: &[String], k: usize, kind: FaultKind) -> Self {
        let mut rng = DetRng::new(seed);
        let picks = rng.choose_indices(layers.len(), k.min(layers.len()));
        FaultPlan {
            faults: picks
                .into_iter()
                .map(|i| FaultSpec {
                    layer: layers[i].clone(),
                    kind,
                    fail_first: u32::MAX,
                })
                .collect(),
        }
    }

    /// The planned site layer names, in plan order.
    #[must_use]
    pub fn sites(&self) -> Vec<&str> {
        self.faults.iter().map(|f| f.layer.as_str()).collect()
    }

    fn spec_for(&self, layer: &str) -> Option<&FaultSpec> {
        self.faults.iter().find(|f| f.layer == layer)
    }
}

/// The payload of an injected panic. Typed so the quiet hook can
/// distinguish injected panics (suppressed from stderr) from real ones
/// (reported as usual), and so the runner can render a stable message.
#[derive(Clone, Debug)]
pub struct InjectedPanic {
    /// The faulted layer name.
    pub site: String,
}

impl core::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "injected panic at {}", self.site)
    }
}

/// Installs (once, process-wide) a panic hook that suppresses
/// [`InjectedPanic`] payloads and forwards everything else to the
/// previously installed hook. Keeps fault-matrix runs from spraying
/// "thread panicked" noise while leaving real panics fully reported.
pub fn install_quiet_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// A test-only [`Architecture`] wrapper that injects the faults of a
/// [`FaultPlan`] and otherwise delegates to the wrapped model.
///
/// The display name is `"<inner> ⚡<tag>"`; callers must pick a tag that
/// is unique per distinct plan (the runner's cache keys on the name, so
/// two same-named wrappers with different plans would alias).
pub struct FaultyArch {
    inner: Box<dyn Architecture>,
    plan: FaultPlan,
    name: String,
    /// Per-site simulation-attempt counters (keyed by layer name).
    attempts: Mutex<HashMap<String, u32>>,
}

impl FaultyArch {
    /// Wraps `inner`, injecting `plan`'s faults. Installs the quiet
    /// panic hook so injected panics stay off stderr.
    #[must_use]
    pub fn new(inner: Box<dyn Architecture>, plan: FaultPlan, tag: &str) -> Self {
        install_quiet_hook();
        let name = format!("{} ⚡{tag}", inner.name());
        FaultyArch {
            inner,
            plan,
            name,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Resets the per-site attempt counters, as if no layer had ever been
    /// simulated (lets one wrapper model several independent runs).
    pub fn reset_attempts(&self) {
        self.attempts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// The wrapped plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Architecture for FaultyArch {
    fn name(&self) -> &str {
        &self.name
    }

    fn simulate_layer(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
    ) -> Result<LayerReport, SimError> {
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let n = attempts.entry(gemm.name.clone()).or_insert(0);
            *n += 1;
            *n
        };
        if let Some(spec) = self.plan.spec_for(&gemm.name) {
            if attempt <= spec.fail_first {
                match spec.kind {
                    FaultKind::Panic => std::panic::panic_any(InjectedPanic {
                        site: gemm.name.clone(),
                    }),
                    FaultKind::Error => {
                        return Err(SimError::Injected {
                            site: gemm.name.clone(),
                        })
                    }
                    FaultKind::Stall(millis) => {
                        std::thread::sleep(std::time::Duration::from_millis(millis));
                    }
                }
            }
        }
        self.inner.simulate_layer(gemm, ctx, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct_by_seed() {
        let layers: Vec<String> = (0..10).map(|i| format!("l{i}")).collect();
        let a = FaultPlan::seeded(7, &layers, 3, FaultKind::Error);
        let b = FaultPlan::seeded(7, &layers, 3, FaultKind::Error);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.sites().len(), 3);
        let c = FaultPlan::seeded(8, &layers, 3, FaultKind::Error);
        assert_ne!(a, c, "different seed, different plan");
        // k is capped at the layer count.
        let all = FaultPlan::seeded(7, &layers, 99, FaultKind::Panic);
        assert_eq!(all.sites().len(), layers.len());
    }

    #[test]
    fn wrapper_name_is_distinct_from_inner() {
        let a = FaultyArch::new(Box::new(arch::dense()), FaultPlan::empty(), "t1");
        assert_ne!(a.name(), "Dense");
        assert!(a.name().contains("Dense"));
        assert!(a.name().contains("t1"));
    }

    #[test]
    fn empty_plan_delegates_transparently() {
        use eureka_models::{Benchmark, PruningLevel, Workload};
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = SimConfig::fast();
        let gemm = w.gemms().into_iter().next().expect("has layers");
        let ctx = LayerCtx {
            act_density: w.activation_density(),
            s2ta_act_density: None,
            s2ta_fil_density: None,
            rng: DetRng::new(w.seed()).fork(0),
            tiles: Default::default(),
            scratch: Default::default(),
        };
        let clean = arch::dense()
            .simulate_layer(&gemm, &ctx, &cfg)
            .expect("dense supports every layer");
        let wrapped = FaultyArch::new(Box::new(arch::dense()), FaultPlan::empty(), "t2");
        let faulty = wrapped
            .simulate_layer(&gemm, &ctx, &cfg)
            .expect("empty plan injects nothing");
        assert_eq!(clean, faulty, "empty plan is a transparent proxy");
    }

    #[test]
    fn fail_first_counts_attempts_per_site() {
        use eureka_models::{Benchmark, PruningLevel, Workload};
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = SimConfig::fast();
        let gemm = w.gemms().into_iter().next().expect("has layers");
        let ctx = LayerCtx {
            act_density: w.activation_density(),
            s2ta_act_density: None,
            s2ta_fil_density: None,
            rng: DetRng::new(w.seed()).fork(0),
            tiles: Default::default(),
            scratch: Default::default(),
        };
        let plan = FaultPlan::new(vec![FaultSpec {
            layer: gemm.name.clone(),
            kind: FaultKind::Error,
            fail_first: 1,
        }]);
        let arch = FaultyArch::new(Box::new(arch::dense()), plan, "t3");
        assert!(
            matches!(
                arch.simulate_layer(&gemm, &ctx, &cfg),
                Err(SimError::Injected { .. })
            ),
            "attempt 1 faults"
        );
        assert!(
            arch.simulate_layer(&gemm, &ctx, &cfg).is_ok(),
            "attempt 2 succeeds"
        );
        arch.reset_attempts();
        assert!(
            arch.simulate_layer(&gemm, &ctx, &cfg).is_err(),
            "reset restores attempt 1 behaviour"
        );
    }
}
