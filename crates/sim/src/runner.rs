//! The unified simulation drive path: explicit jobs, a plan/execute split,
//! parallel execution, fault isolation and a content-keyed result cache.
//!
//! Every consumer of the simulator — [`crate::engine`], the figure drivers
//! in `eureka-bench`, the ablation sweeps and the CLI — submits
//! [`SimJob`]s to a [`Runner`] instead of hand-rolling a serial loop over
//! `(architecture × workload × layer)`. The runner
//!
//! 1. **plans** each job into independent per-layer [work units](`WorkUnit`)
//!    (every unit owns its forked [`DetRng`] stream, so units are
//!    order-independent by construction),
//! 2. **executes** the units — serially or fanned out across a scoped
//!    thread pool — consulting a process-wide content-keyed cache (and,
//!    when resuming, an on-disk checkpoint) first, and
//! 3. **reduces** the results back into [`JobOutcome`]s in layer-index
//!    order.
//!
//! # Determinism contract
//!
//! [`Runner::parallel`] output is bit-identical to [`Runner::serial`]
//! output: units are pure functions of their content key, the reduction
//! assembles layers by index (never by completion order), and no
//! floating-point accumulation crosses unit boundaries. The workspace
//! test-suite asserts `SimReport` equality across both modes for every
//! registry architecture. Fault handling preserves the contract: failures
//! are deterministic properties of a unit's inputs, every planned unit is
//! always executed (no early abort on failure), and outcomes are reduced
//! by index.
//!
//! # Failure model
//!
//! Each unit executes under [`std::panic::catch_unwind`]: a panic or
//! [`SimError`] becomes a typed [`UnitFailure`] instead of aborting the
//! sweep, optionally retried under a bounded deterministic
//! [`RetryPolicy`]. [`Runner::run_outcomes`] surfaces the full taxonomy
//! ([`JobOutcome::Complete`] / [`JobOutcome::Degraded`] /
//! [`JobOutcome::Failed`]); the legacy [`Runner::run_all`] collapses it
//! back to `Result`s. Failed units are never inserted into the cache or
//! the checkpoint directory, so no later run can replay a poisoned
//! result. See DESIGN.md "Failure model & recovery".
//!
//! # Caching
//!
//! Figure sweeps re-simulate identical dense baselines dozens of times
//! (every speedup column divides by the same dense run). Units are
//! memoized behind a hash of their full content: architecture name, GEMM
//! descriptor, per-layer RNG stream, and every timing-relevant
//! [`SimConfig`] field. Architecture display names must therefore uniquely
//! identify simulation behaviour — an invariant the registry upholds and
//! [`Architecture::name`] documents. Cached replays are bit-identical to
//! cold misses because unit execution is deterministic. The same content
//! key, rendered canonically as text, names on-disk checkpoint entries
//! ([`crate::checkpoint`]) so interrupted sweeps resume bit-identically.
//!
//! Below the unit cache, tile timing is memoized at a finer grain. SUDS
//! tiles with `p = 4` rows and width `q ≤ 16` read their plan from the
//! packed per-planner tables of [`eureka_core::suds::lut`], and max-row
//! tiles are a popcount max; neither touches the store. Only wider SUDS
//! tiles resolve through the content-addressed tile store
//! ([`crate::store`]): planning plants a [`TileBroker`] in every unit's
//! [`LayerCtx`], so such tiles with equal canonical row-length
//! signatures are simulated once per process. A unit whose tiles all
//! came from the store still executes (its RNG streams advance
//! identically, keeping reports bit-identical to a cold run) but performs
//! zero tile simulations; such units count toward
//! `runner.units_from_store` instead of `cache.misses`. A unit that made
//! no store lookup counts toward `cache.misses`.
//!
//! # Telemetry
//!
//! The runner is fully instrumented through [`eureka_obs`]: every phase
//! opens a span (`runner.run_all`, `runner.plan`, `unit.exec`,
//! `runner.reduce`, plus zero-length `unit.retry` / `unit.failure`
//! markers) and updates the process-wide metrics registry (`runner.*`,
//! `cache.*`, `unit.*`, `checkpoint.*`, `store.*` — see the table in
//! `DESIGN.md`). For a cache-enabled runner the deterministic counters
//! reconcile as `runner.units_planned == cache.hits + checkpoint.hits +
//! runner.units_from_store + cache.misses + runner.failures.*` — every
//! planned unit is accounted for exactly once,
//! even on degraded runs. Telemetry never feeds back into simulation:
//! spans cost one relaxed atomic load while disabled, metric updates are
//! plain atomics, and no measured time influences any unit's result, so
//! instrumented output stays bit-identical to uninstrumented output.
//!
//! When the [`eureka_obs::events`] bus is armed (`--events-out` /
//! `--progress`), the drive path additionally emits the
//! `eureka-events-v1` stream — `run-started`, `unit-planned` per unit,
//! `unit-started` / `unit-finished` (with its `cache` / `checkpoint` /
//! `store` / `computed` source classification), `retry` / `failure`,
//! `checkpoint-written`, `run-finished`. Every emit site
//! is guarded by one relaxed atomic load and feeds nothing back into
//! simulation, so event-instrumented runs stay bit-identical too.

use crate::arch::{Architecture, LayerCtx, SimError};
use crate::backoff::BackoffPolicy;
use crate::checkpoint::{fnv1a64, CheckpointStore};
use crate::config::SimConfig;
use crate::outcome::{FailureKind, JobOutcome, RetryPolicy, UnitFailure};
use crate::profile::{LayerProfile, ProfileConfig, SimProfile};
use crate::report::{LayerReport, SimReport};
use crate::store::{self, TileBroker};
use eureka_models::{activation, workload::LayerGemm, Workload};
use eureka_obs::events::{self, Event};
use eureka_obs::metrics::{self, Class, Counter, Gauge, Histogram};
use eureka_sparse::rng::DetRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One simulation request: an architecture applied to a workload under a
/// configuration.
#[derive(Clone, Copy)]
pub struct SimJob<'a> {
    /// The architecture to simulate.
    pub arch: &'a dyn Architecture,
    /// The workload to run.
    pub workload: &'a Workload,
    /// The simulator configuration.
    pub cfg: SimConfig,
}

impl<'a> SimJob<'a> {
    /// A job simulating `workload` on `arch` under `cfg`.
    #[must_use]
    pub fn new(arch: &'a dyn Architecture, workload: &'a Workload, cfg: SimConfig) -> Self {
        SimJob {
            arch,
            workload,
            cfg,
        }
    }
}

/// The smallest schedulable piece of a job: one layer of one workload on
/// one architecture. Owns everything needed to execute independently.
struct WorkUnit<'a> {
    arch: &'a dyn Architecture,
    gemm: LayerGemm,
    ctx: LayerCtx,
    cfg: SimConfig,
    key: UnitKey,
    /// Position in the batch's plan order — the stable `unit` coordinate
    /// every run event carries (deterministic: planning is serial).
    index: usize,
}

/// Bit-exact content key of a work unit. Two units with equal keys are
/// guaranteed to produce equal [`LayerReport`]s, because unit execution is
/// a pure function of exactly these inputs.
#[derive(Clone, PartialEq, Eq, Hash)]
struct UnitKey {
    arch: String,
    gemm_name: String,
    n: usize,
    k: usize,
    m: usize,
    unique_act_bytes: u64,
    weight_density: u64,
    clustered: bool,
    depthwise: bool,
    act_density: u64,
    s2ta_act_density: Option<u64>,
    s2ta_fil_density: Option<u64>,
    rng_seed: u64,
    rng_stream: u64,
    cfg: CfgKey,
}

impl UnitKey {
    /// Stable single-line text rendering of the full content key; names
    /// on-disk checkpoint entries, so it must be identical across
    /// processes and platforms for identical units (floats are rendered
    /// as raw bits, never formatted).
    fn canonical(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "-".to_string(), |b| format!("{b:016x}"))
        }
        format!(
            "v1|arch={}|gemm={}|nkm={}x{}x{}|uab={}|wd={:016x}|cl={}|dw={}|ad={:016x}|s2a={}|s2f={}|seed={:016x}|stream={}|{}",
            self.arch,
            self.gemm_name,
            self.n,
            self.k,
            self.m,
            self.unique_act_bytes,
            self.weight_density,
            self.clustered,
            self.depthwise,
            self.act_density,
            opt(self.s2ta_act_density),
            opt(self.s2ta_fil_density),
            self.rng_seed,
            self.rng_stream,
            self.cfg.canonical(),
        )
    }
}

/// The timing-relevant [`SimConfig`] fields, with floats as raw bits.
/// `include_attention_aux` is deliberately excluded: it only affects the
/// reduce step, never a unit's result.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CfgKey {
    tensor_cores: usize,
    sub_array_dim: usize,
    grid_rows: usize,
    grid_cols: usize,
    window: usize,
    bytes_per_cycle: u64,
    l2_act_residency: u64,
    ramp_fraction: u64,
    rowgroup_samples: usize,
    slice_samples: usize,
    row_density_sigma: u64,
    sparten_chunk_min_cycles: u64,
    dstc_crossbar_width: usize,
    detailed_memory: bool,
}

impl CfgKey {
    fn of(cfg: &SimConfig) -> Self {
        CfgKey {
            tensor_cores: cfg.tensor_cores,
            sub_array_dim: cfg.core.sub_array_dim,
            grid_rows: cfg.core.grid_rows,
            grid_cols: cfg.core.grid_cols,
            window: cfg.core.window,
            bytes_per_cycle: cfg.mem.bytes_per_cycle.to_bits(),
            l2_act_residency: cfg.mem.l2_act_residency.to_bits(),
            ramp_fraction: cfg.mem.ramp_fraction.to_bits(),
            rowgroup_samples: cfg.rowgroup_samples,
            slice_samples: cfg.slice_samples,
            row_density_sigma: cfg.row_density_sigma.to_bits(),
            sparten_chunk_min_cycles: cfg.sparten_chunk_min_cycles.to_bits(),
            dstc_crossbar_width: cfg.dstc_crossbar_width,
            detailed_memory: cfg.detailed_memory,
        }
    }

    /// Stable text rendering for [`UnitKey::canonical`].
    fn canonical(&self) -> String {
        format!(
            "cfg=tc{},sa{},gr{},gc{},w{},bpc{:016x},l2{:016x},rf{:016x},rg{},sl{},sg{:016x},sc{:016x},xw{},dm{}",
            self.tensor_cores,
            self.sub_array_dim,
            self.grid_rows,
            self.grid_cols,
            self.window,
            self.bytes_per_cycle,
            self.l2_act_residency,
            self.ramp_fraction,
            self.rowgroup_samples,
            self.slice_samples,
            self.row_density_sigma,
            self.sparten_chunk_min_cycles,
            self.dstc_crossbar_width,
            self.detailed_memory,
        )
    }
}

/// Requested worker count when the runner should use every available core.
const AUTO: usize = 0;

/// Process-wide default worker count override (0 = auto-detect), set by
/// [`set_global_jobs`] — the CLI's `--jobs` flag lands here.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(AUTO);

/// Process-wide default retry policy, consumed only by
/// [`Runner::default`] — the CLI's `--retries` flag lands here.
static GLOBAL_RETRY: Mutex<RetryPolicy> = Mutex::new(RetryPolicy::NONE);

/// Process-wide default checkpoint configuration `(dir, resume)`,
/// consumed only by [`Runner::default`] — the CLI's `--checkpoint-dir` /
/// `--resume` flags land here.
static GLOBAL_CHECKPOINT: Mutex<Option<(PathBuf, bool)>> = Mutex::new(None);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The runner must stay usable after a unit panic was caught while
    // some other thread held a shared lock: recover the data instead of
    // propagating poisoning forever.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sets the process-wide default worker count for runners constructed with
/// [`Runner::parallel`] / [`Runner::default`]. `0` restores auto-detection
/// (all available cores). Runners built with [`Runner::with_jobs`] or
/// [`Runner::serial`] are unaffected.
pub fn set_global_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, Ordering::Relaxed);
}

/// Sets the process-wide default [`RetryPolicy`], consumed only by
/// [`Runner::default`] (explicitly constructed runners are unaffected, so
/// tests composing their own runners stay isolated).
pub fn set_global_retry(policy: RetryPolicy) {
    *lock(&GLOBAL_RETRY) = policy;
}

/// Sets (or clears) the process-wide default checkpoint configuration,
/// consumed only by [`Runner::default`]: the directory for completed-unit
/// files and whether to resume from entries already present.
pub fn set_global_checkpoint(cfg: Option<(PathBuf, bool)>) {
    *lock(&GLOBAL_CHECKPOINT) = cfg;
}

/// The process-wide unit cache. Hit/miss/insert counts live in the
/// telemetry registry (`cache.hits` / `cache.misses` / `cache.inserts`),
/// not here — see [`telemetry`].
struct Cache {
    map: Mutex<HashMap<UnitKey, LayerReport>>,
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Cache {
        map: Mutex::new(HashMap::new()),
    })
}

/// `&'static` handles to every runner metric, registered on first use.
/// The `cache.*` / `checkpoint.*` / `runner.units_*` / `runner.jobs` /
/// `runner.failures.*` / `runner.retries.*` counters are
/// [`Class::Deterministic`]: with [`cache_reset`] +
/// [`metrics::reset`] beforehand they are byte-identical across reruns
/// of the same work. The wall-clock histograms and the utilization gauge
/// are [`Class::Timing`] and excluded from deterministic snapshots.
struct Telemetry {
    jobs: &'static Counter,
    units_planned: &'static Counter,
    units_executed: &'static Counter,
    units_cached: &'static Counter,
    cache_hits: &'static Counter,
    cache_misses: &'static Counter,
    cache_inserts: &'static Counter,
    units_from_store: &'static Counter,
    failures_panic: &'static Counter,
    failures_sim: &'static Counter,
    failures_cancelled: &'static Counter,
    retries_attempts: &'static Counter,
    retries_recovered: &'static Counter,
    backoff_slept_us: &'static Counter,
    ckpt_hits: &'static Counter,
    ckpt_writes: &'static Counter,
    ckpt_errors: &'static Counter,
    exec_micros: &'static Histogram,
    queue_wait_micros: &'static Histogram,
    reduce_micros: &'static Histogram,
    exec_wall_micros: &'static Histogram,
    worker_utilization: &'static Gauge,
}

fn telemetry() -> &'static Telemetry {
    static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();
    let t = metrics::TIME_BUCKETS_US;
    TELEMETRY.get_or_init(|| Telemetry {
        jobs: metrics::counter("runner.jobs", Class::Deterministic),
        units_planned: metrics::counter("runner.units_planned", Class::Deterministic),
        units_executed: metrics::counter("runner.units_executed", Class::Deterministic),
        units_cached: metrics::counter("runner.units_cached", Class::Deterministic),
        cache_hits: metrics::counter("cache.hits", Class::Deterministic),
        cache_misses: metrics::counter("cache.misses", Class::Deterministic),
        cache_inserts: metrics::counter("cache.inserts", Class::Deterministic),
        units_from_store: metrics::counter("runner.units_from_store", Class::Deterministic),
        failures_panic: metrics::counter("runner.failures.panic", Class::Deterministic),
        failures_sim: metrics::counter("runner.failures.sim_error", Class::Deterministic),
        failures_cancelled: metrics::counter("runner.failures.cancelled", Class::Deterministic),
        retries_attempts: metrics::counter("runner.retries.attempts", Class::Deterministic),
        retries_recovered: metrics::counter("runner.retries.recovered", Class::Deterministic),
        // Deterministic: the slept total is a pure function of the
        // (deterministic) retry schedule and the backoff policy.
        backoff_slept_us: metrics::counter("runner.backoff.slept_us", Class::Deterministic),
        ckpt_hits: metrics::counter("checkpoint.hits", Class::Deterministic),
        ckpt_writes: metrics::counter("checkpoint.writes", Class::Deterministic),
        ckpt_errors: metrics::counter("checkpoint.errors", Class::Deterministic),
        exec_micros: metrics::histogram("unit.exec_micros", Class::Timing, t),
        queue_wait_micros: metrics::histogram("unit.queue_wait_micros", Class::Timing, t),
        reduce_micros: metrics::histogram("runner.reduce_micros", Class::Timing, t),
        exec_wall_micros: metrics::histogram("runner.exec_wall_micros", Class::Timing, t),
        worker_utilization: metrics::gauge("runner.worker_utilization", Class::Timing),
    })
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The per-architecture unit execution-time histogram
/// (`unit.exec_micros.<slug>`, [`Class::Timing`]), interned on first
/// use. Slugs are the lowercased arch display name with every
/// non-alphanumeric character mapped to `_` (e.g. `Eureka P=4` →
/// `eureka_p_4`). Timing-class, so which architectures happened to run
/// never changes a deterministic snapshot.
fn arch_exec_histogram(arch: &str) -> &'static Histogram {
    static BY_ARCH: OnceLock<Mutex<HashMap<String, &'static Histogram>>> = OnceLock::new();
    let map = BY_ARCH.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock(map);
    if let Some(h) = map.get(arch) {
        return h;
    }
    let slug: String = arch
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let name: &'static str = Box::leak(format!("unit.exec_micros.{slug}").into_boxed_str());
    let h = metrics::histogram(name, Class::Timing, metrics::TIME_BUCKETS_US);
    map.insert(arch.to_string(), h);
    h
}

/// The `key` event field: the fnv1a64 digest of the unit's canonical
/// content key, rendered as 16 hex digits (the same digest that names
/// checkpoint files).
fn unit_key_digest(key: &UnitKey) -> String {
    format!("{:016x}", fnv1a64(key.canonical().as_bytes()))
}

/// Emits `run-started` and one `unit-planned` per unit, where
/// `ranges[j]` holds job `j`'s units.
fn emit_planned(units: &[WorkUnit<'_>], ranges: &[std::ops::Range<usize>]) {
    events::emit(Event::new("run-started").wall_u64("jobs", ranges.len() as u64));
    for (job_idx, range) in ranges.iter().enumerate() {
        for unit in &units[range.clone()] {
            events::emit(
                Event::new("unit-planned")
                    .det_u64("unit", unit.index as u64)
                    .det_u64("job", job_idx as u64)
                    .det_str("arch", unit.key.arch.clone())
                    .det_str("gemm", unit.gemm.name.clone())
                    .det_str("key", unit_key_digest(&unit.key)),
            );
        }
    }
}

/// Emits `run-finished` for a batch of `jobs` jobs started at `started`.
fn emit_run_finished(units: usize, failures: u64, jobs: usize, started: Instant) {
    events::emit(
        Event::new("run-finished")
            .det_u64("units", units as u64)
            .det_u64("failures", failures)
            .wall_u64("jobs", jobs as u64)
            .wall_u64("wall_us", micros(started.elapsed())),
    );
}

/// Emits the `failure` event of a unit lost for good.
fn emit_failure(unit: &WorkUnit<'_>, kind: &FailureKind, attempts: u32, payload: &str) {
    events::emit(
        Event::new("failure")
            .det_u64("unit", unit.index as u64)
            .det_str("kind", kind.label())
            .det_u64("attempts", u64::from(attempts))
            .det_str("payload", payload),
    );
}

/// The `unit-finished` source of a unit that just executed: `store` when
/// every tile it looked up came from the tile store, `computed`
/// otherwise.
fn executed_source(unit: &WorkUnit<'_>) -> &'static str {
    let (tile_lookups, tile_computes) = unit.ctx.tiles.tally();
    if tile_lookups > 0 && tile_computes == 0 {
        "store"
    } else {
        "computed"
    }
}

/// Persists a unit's report under its canonical `key`, counting the
/// write (`checkpoint.writes` + a `checkpoint-written` event) or its
/// failure (`checkpoint.errors`).
fn write_checkpoint(ck: &CheckpointCfg, key: &str, unit: &WorkUnit<'_>, report: &LayerReport) {
    let t = telemetry();
    match ck.store.store(key, report) {
        Ok(()) => {
            t.ckpt_writes.inc();
            if events::enabled() {
                events::emit(Event::new("checkpoint-written").det_u64("unit", unit.index as u64));
            }
        }
        Err(_) => t.ckpt_errors.inc(),
    }
}

/// Emits the `unit-finished` event for a successful unit. `exec_us` is
/// `0` for cache/checkpoint replays (nothing executed). The `source`
/// classification (`cache` / `checkpoint` / `store` / `computed`) is a
/// deterministic field: unit keys within a shipped plan are distinct,
/// so which memoization layer serves a unit never depends on worker
/// scheduling.
fn emit_unit_finished(unit: &WorkUnit<'_>, source: &str, report: &LayerReport, exec_us: u64) {
    events::emit(
        Event::new("unit-finished")
            .det_u64("unit", unit.index as u64)
            .det_str("source", source)
            .det_bool("ok", true)
            .det_u64("cycles", report.total_cycles())
            .wall_u64("exec_us", exec_us),
    );
}

/// Empties the process-wide unit cache (for cold-start measurements).
/// Leaves the `cache.*` counters running; see [`cache_reset`] to zero
/// them too.
pub fn clear_cache() {
    lock(&cache().map).clear();
}

/// Empties the unit cache **and** the tile store's hot tier, and zeroes
/// the `cache.*`, `checkpoint.*`, `store.*`, `runner.units_from_store`,
/// `runner.failures.*` and `runner.retries.*` counters, so callers can
/// assert exact counts no matter what ran earlier in the process (test
/// execution order, warm-up passes, ...).
pub fn cache_reset() {
    let t = telemetry();
    lock(&cache().map).clear();
    store::store_reset();
    t.cache_hits.reset();
    t.cache_misses.reset();
    t.cache_inserts.reset();
    t.units_from_store.reset();
    t.failures_panic.reset();
    t.failures_sim.reset();
    t.failures_cancelled.reset();
    t.retries_attempts.reset();
    t.retries_recovered.reset();
    t.backoff_slept_us.reset();
    t.ckpt_hits.reset();
    t.ckpt_writes.reset();
    t.ckpt_errors.reset();
}

/// `(hits, misses, entries)` counters of the process-wide unit cache.
#[must_use]
pub fn cache_stats() -> (u64, u64, usize) {
    let t = telemetry();
    let entries = lock(&cache().map).len();
    (t.cache_hits.get(), t.cache_misses.get(), entries)
}

/// `(panics, sim_errors)` — units that exhausted their retry budget,
/// by failure kind (`runner.failures.*`).
#[must_use]
pub fn failure_stats() -> (u64, u64) {
    let t = telemetry();
    (t.failures_panic.get(), t.failures_sim.get())
}

/// Units refused at a unit boundary because their [`CancelToken`] had
/// fired (`runner.failures.cancelled`).
#[must_use]
pub fn cancelled_stats() -> u64 {
    telemetry().failures_cancelled.get()
}

/// Total microseconds of backoff delay slept before retries
/// (`runner.backoff.slept_us`; deterministic — the schedule is a pure
/// function of unit keys and the policy).
#[must_use]
pub fn backoff_stats() -> u64 {
    telemetry().backoff_slept_us.get()
}

/// `(extra_attempts, recovered)` — retry attempts beyond the first, and
/// units that ultimately succeeded after at least one failed attempt
/// (`runner.retries.*`).
#[must_use]
pub fn retry_stats() -> (u64, u64) {
    let t = telemetry();
    (t.retries_attempts.get(), t.retries_recovered.get())
}

/// `(hits, writes, errors)` of the on-disk checkpoint layer
/// (`checkpoint.*`).
#[must_use]
pub fn checkpoint_stats() -> (u64, u64, u64) {
    let t = telemetry();
    (t.ckpt_hits.get(), t.ckpt_writes.get(), t.ckpt_errors.get())
}

/// Units that executed with every sampled tile served by the tile store
/// (`runner.units_from_store`): the unit ran — its RNG streams advanced
/// and its report is bit-identical to a cold compute — but zero tile
/// simulations happened.
#[must_use]
pub fn units_from_store_stats() -> u64 {
    telemetry().units_from_store.get()
}

/// Checkpoint configuration carried by a runner: where completed-unit
/// files live, and whether to consult existing entries before executing.
#[derive(Clone, Debug)]
struct CheckpointCfg {
    store: CheckpointStore,
    resume: bool,
}

/// A unit failure as seen by the execute phase, before the reduce phase
/// attaches job/layer coordinates.
#[derive(Clone, Debug)]
struct UnitError {
    kind: FailureKind,
    payload: String,
    attempts: u32,
}

/// Cooperative cancellation handle, checked by the runner at unit
/// boundaries (never mid-unit: a unit that has started always runs to
/// its own completion or failure, keeping unit results pure).
///
/// A token fires either *explicitly* — [`CancelToken::cancel`], from an
/// operator or a service drain — or *implicitly*, when its optional
/// deadline passes. Clones share the explicit flag (and carry the same
/// deadline), so the service can hold one end while the runner polls
/// the other. Once fired, a token never un-fires; units observed after
/// that fail with [`FailureKind::Cancelled`] and are never retried.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once `deadline` has elapsed from
    /// now (the job's admission into execution).
    #[must_use]
    pub fn with_deadline(deadline: std::time::Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + deadline),
        }
    }

    /// Fires the token explicitly. Idempotent; shared by all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] was called (deadline excluded).
    #[must_use]
    pub fn cancelled_explicitly(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Whether the deadline (if any) has passed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the token has fired, for either reason. Cheap enough to
    /// poll at every unit boundary.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled_explicitly() || self.deadline_exceeded()
    }
}

/// Executes [`SimJob`]s: plans per-layer units, runs them (optionally in
/// parallel, optionally memoized, optionally checkpointed) under panic
/// isolation and a bounded retry policy, and reduces deterministically.
///
/// The parallel and serial modes produce bit-identical results; see the
/// [module docs](self) for the contract.
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    cached: bool,
    retry: RetryPolicy,
    backoff: BackoffPolicy,
    cancel: Option<CancelToken>,
    checkpoint: Option<CheckpointCfg>,
    store_enabled: bool,
}

impl Default for Runner {
    /// The standard drive path: parallel across all cores (or the
    /// [`set_global_jobs`] override), with the unit cache enabled, and the
    /// process-wide [`set_global_retry`] / [`set_global_checkpoint`]
    /// settings applied (explicit constructors ignore those, so tests
    /// composing their own runners stay isolated).
    fn default() -> Self {
        let mut runner = Runner::parallel();
        runner.retry = *lock(&GLOBAL_RETRY);
        runner.checkpoint = lock(&GLOBAL_CHECKPOINT)
            .clone()
            .map(|(dir, resume)| CheckpointCfg {
                store: CheckpointStore::new(dir),
                resume,
            });
        runner
    }
}

impl Runner {
    /// A runner executing units one at a time, in plan order.
    #[must_use]
    pub fn serial() -> Self {
        Runner::with_jobs(1)
    }

    /// A runner fanning units out across all available cores (or the
    /// process-wide [`set_global_jobs`] override).
    #[must_use]
    pub fn parallel() -> Self {
        Runner::with_jobs(AUTO)
    }

    /// A runner with an explicit worker count (`0` = auto-detect).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs,
            cached: true,
            retry: RetryPolicy::NONE,
            backoff: BackoffPolicy::NONE,
            cancel: None,
            checkpoint: None,
            store_enabled: true,
        }
    }

    /// Disables the unit cache for this runner (every unit recomputes).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cached = false;
        self
    }

    /// Sets this runner's retry policy for failed units.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets this runner's backoff schedule for retries: before attempt
    /// `n+1` of a unit, the worker sleeps
    /// [`BackoffPolicy::delay_us`]`(seed, n)` microseconds, where `seed`
    /// is derived from the unit's content key — deterministic across
    /// reruns, decorrelated across units. Backoff reshapes wall-clock
    /// time only; results stay bit-identical.
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Attaches a cooperative cancellation token, checked at every unit
    /// boundary: units observed after the token fires (explicit cancel
    /// or deadline) fail with [`FailureKind::Cancelled`] instead of
    /// executing, and are never retried. Units already executing always
    /// finish their attempt.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables checkpointing under `dir`: every successfully executed
    /// unit is persisted, and with `resume` existing entries are replayed
    /// instead of recomputed (bit-identically — entries are keyed by the
    /// unit's full content key).
    #[must_use]
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, resume: bool) -> Self {
        self.checkpoint = Some(CheckpointCfg {
            store: CheckpointStore::new(dir.into()),
            resume,
        });
        self
    }

    /// Disables the tile-result store for this runner: every sampled
    /// tile is simulated directly, with no hot-tier sharing. Output is
    /// bit-identical either way — the store only removes redundant work.
    #[must_use]
    pub fn without_store(mut self) -> Self {
        self.store_enabled = false;
        self
    }

    /// The worker count this runner would use right now.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        let requested = match self.jobs {
            AUTO => GLOBAL_JOBS.load(Ordering::Relaxed),
            n => n,
        };
        match requested {
            AUTO => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Runs one job.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if the architecture cannot run
    /// the workload (e.g. S2TA on InceptionV3), or the first failure of a
    /// degraded run ([`SimError::UnitPanic`] for caught panics). Partial
    /// results are available via [`Runner::run_outcome`] instead.
    pub fn run(&self, job: &SimJob<'_>) -> Result<SimReport, SimError> {
        self.run_all(std::slice::from_ref(job))
            .pop()
            .expect("invariant: run_all returns exactly one result per submitted job")
    }

    /// Runs one job, surfacing the full [`JobOutcome`] taxonomy (partial
    /// results survive individual unit failures).
    #[must_use]
    pub fn run_outcome(&self, job: &SimJob<'_>) -> JobOutcome {
        self.run_outcomes(std::slice::from_ref(job))
            .pop()
            .expect("invariant: run_outcomes returns exactly one outcome per submitted job")
    }

    /// Runs a batch of jobs, fanning all their units out together, and
    /// returns one result per job in submission order. Degraded jobs
    /// collapse to their lowest-layer-index failure; use
    /// [`Runner::run_outcomes`] to keep partial results.
    pub fn run_all(&self, jobs: &[SimJob<'_>]) -> Vec<Result<SimReport, SimError>> {
        self.run_outcomes(jobs)
            .into_iter()
            .map(JobOutcome::into_result)
            .collect()
    }

    /// Runs a batch of jobs under fault isolation, returning one
    /// [`JobOutcome`] per job in submission order. Every planned unit is
    /// executed regardless of other units' failures, so the set of
    /// surviving layers — and their bit-exact reports — is deterministic
    /// and identical across serial and parallel modes.
    #[must_use]
    pub fn run_outcomes(&self, jobs: &[SimJob<'_>]) -> Vec<JobOutcome> {
        let t = telemetry();
        let _run_span = eureka_obs::span!("runner.run_all", "{} job(s)", jobs.len());
        t.jobs.add(jobs.len() as u64);
        let run_started = Instant::now();
        // Plan: enumerate every job's per-layer units.
        let mut units = Vec::new();
        let mut ranges = Vec::with_capacity(jobs.len());
        {
            let _plan_span = eureka_obs::span!("runner.plan");
            for job in jobs {
                let start = units.len();
                plan(job, &mut units, self.store_enabled);
                ranges.push(start..units.len());
            }
        }
        t.units_planned.add(units.len() as u64);
        if events::enabled() {
            emit_planned(&units, &ranges);
        }
        // Execute: serial order or index-claimed pool, cache-first.
        let results = self.execute(&units);
        // Reduce: reassemble per job, in layer-index order.
        let _reduce_span = eureka_obs::span!("runner.reduce");
        let reduce_started = Instant::now();
        let out: Vec<JobOutcome> = jobs
            .iter()
            .enumerate()
            .zip(ranges)
            .map(|((job_idx, job), range)| {
                reduce(job, job_idx, &units[range.clone()], &results[range])
            })
            .collect();
        t.reduce_micros.record(micros(reduce_started.elapsed()));
        if events::enabled() {
            let failures: u64 = out
                .iter()
                .map(|o| match o {
                    JobOutcome::Complete(_) => 0,
                    JobOutcome::Degraded { failed_layers, .. } => failed_layers.len() as u64,
                    JobOutcome::Failed { failures } => failures.len() as u64,
                })
                .sum();
            emit_run_finished(units.len(), failures, jobs.len(), run_started);
        }
        out
    }

    /// Executes planned units, returning results in unit order.
    fn execute(&self, units: &[WorkUnit<'_>]) -> Vec<Result<LayerReport, UnitError>> {
        self.execute_with(units, |unit| self.run_unit(unit))
    }

    /// The shared execute phase: runs `run` over every unit — serially or
    /// via the index-claimed scoped pool — and returns results in unit
    /// order. Generic over the result type so the plain and profiled
    /// paths share one pool implementation (and one determinism story:
    /// slot `i` always holds unit `i`'s result, whichever worker ran it).
    fn execute_with<R: Send + Sync>(
        &self,
        units: &[WorkUnit<'_>],
        run: impl Fn(&WorkUnit<'_>) -> R + Sync,
    ) -> Vec<R> {
        let t = telemetry();
        let workers = self.effective_jobs().min(units.len());
        let wall = Instant::now();
        let busy_us = AtomicU64::new(0);
        let results: Vec<R> = if workers <= 1 {
            units
                .iter()
                .map(|unit| {
                    t.queue_wait_micros.record(micros(wall.elapsed()));
                    let started = Instant::now();
                    let result = run(unit);
                    busy_us.fetch_add(micros(started.elapsed()), Ordering::Relaxed);
                    result
                })
                .collect()
        } else {
            let slots: Vec<OnceLock<R>> = (0..units.len()).map(|_| OnceLock::new()).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        // `thread::scope` unblocks when this closure
                        // returns — possibly before TLS destructors run —
                        // so hand buffered spans over via a guard that
                        // also fires if anything below unwinds.
                        let _flush = eureka_obs::span::FlushGuard::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(unit) = units.get(i) else { break };
                            t.queue_wait_micros.record(micros(wall.elapsed()));
                            let started = Instant::now();
                            if slots[i].set(run(unit)).is_err() {
                                unreachable!("unit {i} claimed twice");
                            }
                            busy_us.fetch_add(micros(started.elapsed()), Ordering::Relaxed);
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("invariant: the worker pool fills every unit slot")
                })
                .collect()
        };
        let wall_us = micros(wall.elapsed());
        if !units.is_empty() {
            t.exec_wall_micros.record(wall_us);
            if wall_us > 0 {
                let busy = busy_us.load(Ordering::Relaxed) as f64;
                t.worker_utilization
                    .set(busy / (workers.max(1) as f64 * wall_us as f64));
            }
        }
        results
    }

    /// Executes one unit: in-memory cache first, then (when resuming) the
    /// on-disk checkpoint, then real execution under panic isolation and
    /// the retry policy. Exactly one of `cache.hits`, `checkpoint.hits`,
    /// `runner.units_from_store` (successful execution with every tile
    /// served by the store), `cache.misses` (successful execution that
    /// simulated at least one tile, or looked none up) or
    /// `runner.failures.*` (final failure) fires per call, for cached
    /// runners.
    fn run_unit(&self, unit: &WorkUnit<'_>) -> Result<LayerReport, UnitError> {
        let t = telemetry();
        let _span = eureka_obs::span!("unit.exec", "{} {}", unit.key.arch, unit.gemm.name);
        let events_on = events::enabled();
        if events_on {
            events::emit(Event::new("unit-started").det_u64("unit", unit.index as u64));
        }
        // Cooperative cancellation: the unit boundary is the only place
        // the runner looks at the token, so a unit either never starts
        // or runs to its own conclusion. Checked before the cache so a
        // cancelled job does zero work, not merely zero compute.
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                t.failures_cancelled.inc();
                let payload = if token.cancelled_explicitly() {
                    "cancelled before execution"
                } else {
                    "deadline exceeded before execution"
                };
                if events_on {
                    emit_failure(unit, &FailureKind::Cancelled, 0, payload);
                }
                return Err(UnitError {
                    kind: FailureKind::Cancelled,
                    payload: payload.to_string(),
                    attempts: 0,
                });
            }
        }
        if self.cached {
            if let Some(hit) = lock(&cache().map).get(&unit.key).cloned() {
                t.cache_hits.inc();
                t.units_cached.inc();
                if let Some(ck) = &self.checkpoint {
                    // Keep the checkpoint directory complete even when
                    // the unit never re-executes in this process.
                    let key = unit.key.canonical();
                    if ck.store.load(&key).is_none() {
                        write_checkpoint(ck, &key, unit, &hit);
                    }
                }
                if events_on {
                    emit_unit_finished(unit, "cache", &hit, 0);
                }
                return Ok(hit);
            }
        }
        if let Some(ck) = &self.checkpoint {
            if ck.resume {
                let key = unit.key.canonical();
                if let Some(report) = ck.store.load(&key) {
                    t.ckpt_hits.inc();
                    t.units_cached.inc();
                    if self.cached {
                        lock(&cache().map).insert(unit.key.clone(), report.clone());
                        t.cache_inserts.inc();
                    }
                    if events_on {
                        emit_unit_finished(unit, "checkpoint", &report, 0);
                    }
                    return Ok(report);
                }
            }
        }
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                t.retries_attempts.inc();
                let _retry = eureka_obs::span!(
                    "unit.retry",
                    "{} {} attempt {}",
                    unit.key.arch,
                    unit.gemm.name,
                    attempt
                );
            }
            // A fresh tally per attempt: classification below must
            // reflect the final (successful) attempt only.
            unit.ctx.tiles.reset_tally();
            let started = Instant::now();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_unit(unit)));
            let exec_us = micros(started.elapsed());
            t.exec_micros.record(exec_us);
            arch_exec_histogram(&unit.key.arch).record(exec_us);
            t.units_executed.inc();
            let failure = match outcome {
                Ok(Ok(report)) => {
                    if attempt > 1 {
                        t.retries_recovered.inc();
                    }
                    let source = executed_source(unit);
                    if self.cached {
                        if source == "store" {
                            t.units_from_store.inc();
                        } else {
                            t.cache_misses.inc();
                        }
                        lock(&cache().map).insert(unit.key.clone(), report.clone());
                        t.cache_inserts.inc();
                    }
                    if let Some(ck) = &self.checkpoint {
                        write_checkpoint(ck, &unit.key.canonical(), unit, &report);
                    }
                    if events_on {
                        emit_unit_finished(unit, source, &report, exec_us);
                    }
                    return Ok(report);
                }
                Ok(Err(e)) => UnitError {
                    payload: e.to_string(),
                    kind: FailureKind::Sim(e),
                    attempts: attempt,
                },
                Err(panic) => UnitError {
                    payload: panic_message(panic.as_ref()),
                    kind: FailureKind::Panic,
                    attempts: attempt,
                },
            };
            if !self.retry.should_retry(&failure.kind, attempt) {
                match failure.kind {
                    FailureKind::Panic => t.failures_panic.inc(),
                    FailureKind::Sim(_) => t.failures_sim.inc(),
                    // Unreachable today (the boundary check above is the
                    // only source of Cancelled), but the accounting is
                    // correct if an architecture ever surfaces it.
                    FailureKind::Cancelled => t.failures_cancelled.inc(),
                }
                let _failure = eureka_obs::span!(
                    "unit.failure",
                    "{} {}: {} after {} attempt(s)",
                    unit.key.arch,
                    unit.gemm.name,
                    failure.kind.label(),
                    failure.attempts
                );
                if events_on {
                    emit_failure(unit, &failure.kind, failure.attempts, &failure.payload);
                }
                return Err(failure);
            }
            // Space the next attempt out: deterministic exponential
            // backoff seeded by the unit's content key, so the schedule
            // replays exactly and different units decorrelate.
            let delay_us = self
                .backoff
                .delay_us(unit.key.rng_seed ^ unit.key.rng_stream, attempt);
            if events_on {
                events::emit(
                    Event::new("retry")
                        .det_u64("unit", unit.index as u64)
                        .det_u64("attempt", u64::from(attempt))
                        .det_str("kind", failure.kind.label())
                        .wall_u64("backoff_us", delay_us),
                );
            }
            if delay_us > 0 {
                t.backoff_slept_us.add(delay_us);
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
    }

    /// Runs one job with cycle-attribution profiling, returning the
    /// report and its [`SimProfile`].
    ///
    /// The report is bit-identical to [`Runner::run`] on the same job
    /// (the profiled architecture paths consume identical RNG streams —
    /// asserted by the workspace test-suite for every registry
    /// architecture), and the profile is assembled in layer-index order,
    /// so its JSON export is byte-identical across serial and parallel
    /// runners. Profiled units bypass the unit cache and the checkpoint
    /// store: both hold bare [`LayerReport`]s, and replaying one could
    /// not reconstruct its row-level attribution. The deterministic
    /// `runner.*`/`cache.*` counters are therefore untouched, keeping the
    /// plain drive path's reconciliation invariant intact. The tile
    /// store, however, *does* serve profiled units — tile outcomes carry
    /// everything the per-tile attribution needs — so the `store.*`
    /// counters tick and a warmed store accelerates profiling too.
    ///
    /// # Errors
    ///
    /// Returns the lowest-layer-index failure ([`SimError::Unsupported`]
    /// from the architecture, [`SimError::UnitPanic`] for caught panics)
    /// — profiling has no degraded mode.
    pub fn run_profiled(
        &self,
        job: &SimJob<'_>,
        pcfg: &ProfileConfig,
    ) -> Result<(SimReport, SimProfile), SimError> {
        let _span = eureka_obs::span!(
            "runner.run_profiled",
            "{} on {}",
            job.arch.name(),
            job.workload.benchmark().name()
        );
        let mut units = Vec::new();
        plan(job, &mut units, self.store_enabled);
        let run_started = Instant::now();
        let events_on = events::enabled();
        if events_on {
            emit_planned(&units, std::slice::from_ref(&(0..units.len())));
        }
        let results = self.execute_with(&units, |unit| {
            if events::enabled() {
                events::emit(Event::new("unit-started").det_u64("unit", unit.index as u64));
            }
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_unit_profiled(unit, pcfg)
            }));
            let exec_us = micros(started.elapsed());
            arch_exec_histogram(&unit.key.arch).record(exec_us);
            let result = match outcome {
                Ok(r) => r,
                Err(panic) => Err(SimError::UnitPanic {
                    layer: unit.gemm.name.clone(),
                    payload: panic_message(panic.as_ref()),
                }),
            };
            if events::enabled() {
                match &result {
                    Ok((report, _)) => {
                        emit_unit_finished(unit, executed_source(unit), report, exec_us);
                    }
                    Err(e) => {
                        let kind = match e {
                            SimError::UnitPanic { .. } => FailureKind::Panic,
                            e => FailureKind::Sim(e.clone()),
                        };
                        emit_failure(unit, &kind, 1, &e.to_string());
                    }
                }
            }
            result
        });
        if events_on {
            let failures = results.iter().filter(|r| r.is_err()).count() as u64;
            emit_run_finished(units.len(), failures, 1, run_started);
        }
        let mut layers = Vec::with_capacity(results.len() + 1);
        let mut profiles = Vec::with_capacity(results.len() + 1);
        for result in results {
            let (report, profile) = result?;
            layers.push(report);
            profiles.push(profile);
        }
        if let Some(aux) = attention_aux_layer(job) {
            profiles.push(LayerProfile::from_report(&aux));
            layers.push(aux);
        }
        let report = SimReport {
            arch: job.arch.name().to_string(),
            workload: workload_label(job),
            layers,
        };
        let profile = SimProfile {
            arch: report.arch.clone(),
            workload: report.workload.clone(),
            layers: profiles,
        };
        Ok((report, profile))
    }
}

/// Best-effort rendering of a caught panic payload. `&str` and `String`
/// payloads (what `panic!` produces) render verbatim; the fault-injection
/// payload renders through its `Display`; anything else gets a
/// placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<crate::faults::InjectedPanic>() {
        p.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Plans one job into per-layer units appended to `units`, each wired to
/// the process-wide tile store through its own broker when `store` is
/// set (each unit tallies its own lookups).
fn plan<'a>(job: &SimJob<'a>, units: &mut Vec<WorkUnit<'a>>, store: bool) {
    let workload = job.workload;
    let bench = workload.benchmark();
    let base_rng = DetRng::new(workload.seed());
    // One pool per job: all its units share recycled scratch buffers, so
    // the steady-state allocation count is bounded by worker concurrency.
    let scratch = crate::scratch::ScratchPool::default();
    let act_density = workload.activation_density();
    let s2ta_act_density = activation::s2ta_activation_density(bench);
    let s2ta_fil_density = activation::s2ta_filter_density(bench);
    for (i, gemm) in workload.gemms().into_iter().enumerate() {
        let stream = i as u64;
        let key = UnitKey {
            arch: job.arch.name().to_string(),
            gemm_name: gemm.name.clone(),
            n: gemm.shape.n,
            k: gemm.shape.k,
            m: gemm.shape.m,
            unique_act_bytes: gemm.unique_act_bytes,
            weight_density: gemm.weight_density.to_bits(),
            clustered: gemm.clustered,
            depthwise: gemm.depthwise,
            act_density: act_density.to_bits(),
            s2ta_act_density: s2ta_act_density.map(f64::to_bits),
            s2ta_fil_density: s2ta_fil_density.map(f64::to_bits),
            rng_seed: workload.seed(),
            rng_stream: stream,
            cfg: CfgKey::of(&job.cfg),
        };
        units.push(WorkUnit {
            arch: job.arch,
            gemm,
            ctx: LayerCtx {
                act_density,
                s2ta_act_density,
                s2ta_fil_density,
                rng: base_rng.fork(stream),
                tiles: if store {
                    TileBroker::enabled(None)
                } else {
                    TileBroker::disabled()
                },
                scratch: scratch.clone(),
            },
            cfg: job.cfg,
            key,
            index: units.len(),
        });
    }
}

/// The pure per-layer computation: architecture timing, plus the measured
/// cache-replay residency when `detailed_memory` is on.
fn execute_unit(unit: &WorkUnit<'_>) -> Result<LayerReport, SimError> {
    let mut report = unit.arch.simulate_layer(&unit.gemm, &unit.ctx, &unit.cfg)?;
    if let Some(mem_cycles) = detailed_mem_cycles(unit, &report) {
        report.mem_cycles = mem_cycles;
    }
    Ok(report)
}

/// [`execute_unit`] with cycle attribution: same timing, same RNG
/// consumption, plus the layer's [`LayerProfile`]. The detailed-memory
/// adjustment is mirrored into the profile so its `memory` stall bucket
/// keeps matching the report's `mem_cycles` exactly.
fn execute_unit_profiled(
    unit: &WorkUnit<'_>,
    pcfg: &ProfileConfig,
) -> Result<(LayerReport, LayerProfile), SimError> {
    let (mut report, mut profile) = unit
        .arch
        .simulate_layer_profiled(&unit.gemm, &unit.ctx, &unit.cfg, pcfg)?;
    if let Some(mem_cycles) = detailed_mem_cycles(unit, &report) {
        report.mem_cycles = mem_cycles;
        profile.mem_cycles = mem_cycles;
        profile.stalls.memory = mem_cycles;
    }
    Ok((report, profile))
}

/// The measured-residency memory exposure for `unit`, when
/// `detailed_memory` is on: replaces the analytic residency constant with
/// one measured on the cache substrate and re-derives the exposed cycles.
fn detailed_mem_cycles(unit: &WorkUnit<'_>, report: &LayerReport) -> Option<u64> {
    if !unit.cfg.detailed_memory {
        return None;
    }
    let residency = crate::cachesim::replay_layer(
        &unit.gemm,
        &unit.cfg,
        crate::cachesim::CacheConfig::ampere_l2(),
        96,
    )
    .act_hit_rate;
    let mem = crate::config::MemoryConfig {
        l2_act_residency: residency,
        ..unit.cfg.mem
    };
    Some(crate::memory::exposed_cycles(report, &mem))
}

/// The human-readable workload label shared by every report assembled
/// from `job`.
fn workload_label(job: &SimJob<'_>) -> String {
    format!(
        "{} ({}, batch {})",
        job.workload.benchmark().name(),
        job.workload.pruning().label(),
        job.workload.batch()
    )
}

/// The synthetic dense layer for the weight-free attention matmuls, when
/// `include_attention_aux` asks for it and the workload has any.
fn attention_aux_layer(job: &SimJob<'_>) -> Option<LayerReport> {
    if !job.cfg.include_attention_aux {
        return None;
    }
    let aux = job.workload.attention_aux_macs();
    if aux == 0 {
        return None;
    }
    let compute = (aux as f64 / job.cfg.total_macs() as f64).ceil() as u64;
    Some(LayerReport {
        name: "attention-aux".into(),
        compute_cycles: compute,
        mem_cycles: (job.cfg.mem.ramp_fraction * compute as f64).ceil() as u64,
        mac_ops: aux,
        idle_mac_cycles: 0,
        ..LayerReport::default()
    })
}

/// Assembles one job's unit results (already in layer order) into a
/// [`JobOutcome`]: complete when every unit succeeded, degraded when some
/// survived, failed when none did. Surviving layers are exactly what a
/// fault-free run produces for them; failures carry full reproduction
/// coordinates (job, layer, kind, seed).
fn reduce(
    job: &SimJob<'_>,
    job_idx: usize,
    units: &[WorkUnit<'_>],
    results: &[Result<LayerReport, UnitError>],
) -> JobOutcome {
    let mut layers = Vec::with_capacity(results.len() + 1);
    let mut failures = Vec::new();
    for (layer_idx, (unit, result)) in units.iter().zip(results).enumerate() {
        match result {
            Ok(layer) => layers.push(layer.clone()),
            Err(e) => failures.push(UnitFailure {
                job: job_idx,
                layer: layer_idx,
                layer_name: unit.gemm.name.clone(),
                arch: unit.key.arch.clone(),
                kind: e.kind.clone(),
                payload: e.payload.clone(),
                rng_seed: unit.key.rng_seed,
                attempts: e.attempts,
            }),
        }
    }
    if layers.is_empty() && !failures.is_empty() {
        return JobOutcome::Failed { failures };
    }
    // Weight-free attention matmuls run dense on every architecture.
    if let Some(aux) = attention_aux_layer(job) {
        layers.push(aux);
    }
    let report = SimReport {
        arch: job.arch.name().to_string(),
        workload: workload_label(job),
        layers,
    };
    if failures.is_empty() {
        JobOutcome::Complete(report)
    } else {
        JobOutcome::Degraded {
            report,
            failed_layers: failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
    use eureka_models::{Benchmark, PruningLevel, Workload};

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            rowgroup_samples: 8,
            slice_samples: 8,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn serial_and_parallel_agree_on_one_job() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p4();
        let job = SimJob::new(&a, &w, cfg);
        let serial = Runner::serial().without_cache().run(&job).unwrap();
        let parallel = Runner::with_jobs(4).without_cache().run(&job).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_all_preserves_submission_order() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let dense = arch::dense();
        let eureka = arch::eureka_p4();
        let jobs = [SimJob::new(&dense, &w, cfg), SimJob::new(&eureka, &w, cfg)];
        let out = Runner::with_jobs(3).run_all(&jobs);
        assert_eq!(out[0].as_ref().unwrap().arch, "Dense");
        assert_eq!(out[1].as_ref().unwrap().arch, "Eureka P=4");
    }

    #[test]
    fn unsupported_arch_errors_like_engine() {
        let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let s2ta = arch::s2ta();
        let job = SimJob::new(&s2ta, &w, cfg);
        let serial = Runner::serial().run(&job);
        let parallel = Runner::with_jobs(4).run(&job);
        assert!(serial.is_err());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cache_counts_hits_and_returns_identical_results() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 16);
        let cfg = SimConfig {
            rowgroup_samples: 7, // distinctive: avoid collisions with other tests
            ..tiny_cfg()
        };
        let a = arch::ampere();
        let job = SimJob::new(&a, &w, cfg);
        let cold = Runner::serial().run(&job).unwrap();
        let (h0, _, _) = cache_stats();
        let warm = Runner::serial().run(&job).unwrap();
        let (h1, _, _) = cache_stats();
        assert_eq!(cold, warm);
        assert!(
            h1 >= h0 + w.layer_count() as u64,
            "expected {} cache hits, saw {}",
            w.layer_count(),
            h1 - h0
        );
    }

    #[test]
    fn global_jobs_override_applies_to_auto_runners() {
        set_global_jobs(3);
        assert_eq!(Runner::parallel().effective_jobs(), 3);
        assert_eq!(Runner::serial().effective_jobs(), 1);
        assert_eq!(Runner::with_jobs(5).effective_jobs(), 5);
        set_global_jobs(0);
        assert!(Runner::parallel().effective_jobs() >= 1);
    }

    #[test]
    fn attention_aux_reduces_identically_in_both_modes() {
        let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 8);
        let cfg = SimConfig {
            include_attention_aux: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let serial = Runner::serial().without_cache().run(&job).unwrap();
        let parallel = Runner::with_jobs(2).without_cache().run(&job).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.layers.iter().any(|l| l.name == "attention-aux"));
    }

    #[test]
    fn panicking_unit_degrades_instead_of_aborting() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let victim = w.gemms()[2].name.clone();
        let a = FaultyArch::new(
            Box::new(arch::dense()),
            FaultPlan::new(vec![FaultSpec {
                layer: victim.clone(),
                kind: FaultKind::Panic,
                fail_first: u32::MAX,
            }]),
            "runner-panic",
        );
        let job = SimJob::new(&a, &w, cfg);
        let outcome = Runner::serial().without_cache().run_outcome(&job);
        match &outcome {
            JobOutcome::Degraded {
                report,
                failed_layers,
            } => {
                assert_eq!(report.layers.len(), w.layer_count() - 1);
                assert_eq!(failed_layers.len(), 1);
                assert_eq!(failed_layers[0].layer, 2);
                assert_eq!(failed_layers[0].layer_name, victim);
                assert_eq!(failed_layers[0].kind, FailureKind::Panic);
                assert_eq!(failed_layers[0].rng_seed, w.seed());
                assert_eq!(failed_layers[0].attempts, 1);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The legacy Result view surfaces the panic as a typed error.
        let err = outcome.into_result().unwrap_err();
        assert!(matches!(err, SimError::UnitPanic { ref layer, .. } if *layer == victim));
    }

    #[test]
    fn retry_recovers_transient_faults() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let victim = w.gemms()[0].name.clone();
        let a = FaultyArch::new(
            Box::new(arch::dense()),
            FaultPlan::new(vec![FaultSpec {
                layer: victim,
                kind: FaultKind::Error,
                fail_first: 1,
            }]),
            "runner-retry",
        );
        let job = SimJob::new(&a, &w, cfg);
        // Without retries the transient fault is fatal for its layer...
        let outcome = Runner::serial().without_cache().run_outcome(&job);
        assert!(!outcome.is_complete());
        // ...with one retry the whole job completes.
        a.reset_attempts();
        let outcome = Runner::serial()
            .without_cache()
            .with_retry(RetryPolicy::transient(2))
            .run_outcome(&job);
        assert!(outcome.is_complete(), "{outcome:?}");
    }

    #[test]
    fn global_retry_and_checkpoint_only_affect_default_runners() {
        set_global_retry(RetryPolicy::transient(3));
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-glob-{}", std::process::id()));
        set_global_checkpoint(Some((dir.clone(), true)));
        let d = Runner::default();
        assert_eq!(d.retry.max_attempts, 3);
        assert!(d.checkpoint.as_ref().is_some_and(|c| c.resume));
        // Explicit constructors are unaffected (test isolation).
        assert_eq!(Runner::serial().retry, RetryPolicy::NONE);
        assert!(Runner::parallel().checkpoint.is_none());
        set_global_retry(RetryPolicy::NONE);
        set_global_checkpoint(None);
        assert_eq!(Runner::default().retry, RetryPolicy::NONE);
        assert!(Runner::default().checkpoint.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profiled_run_does_not_perturb_the_report() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p4();
        let job = SimJob::new(&a, &w, cfg);
        let plain = Runner::serial().without_cache().run(&job).unwrap();
        let (profiled, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(plain, profiled, "profiling must not change the report");
        assert_eq!(profile.total_attributed_cycles(), profiled.total_cycles());
        assert_eq!(profile.idle_mac_cycles(), profiled.idle_mac_cycles());
    }

    #[test]
    fn profiles_are_identical_across_worker_counts() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p2();
        let job = SimJob::new(&a, &w, cfg);
        let pcfg = ProfileConfig::default();
        let (r1, p1) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
        let (r4, p4) = Runner::with_jobs(4)
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
        assert_eq!(r1, r4);
        assert_eq!(p1, p4);
        assert_eq!(p1.to_json(), p4.to_json(), "JSON export is byte-stable");
    }

    #[test]
    fn profiled_run_includes_attention_aux_layer() {
        let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 8);
        let cfg = SimConfig {
            include_attention_aux: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let (report, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(report.layers.len(), profile.layers.len());
        let aux = profile.layers.last().unwrap();
        assert_eq!(aux.name, "attention-aux");
        assert_eq!(profile.total_attributed_cycles(), report.total_cycles());
    }

    #[test]
    fn profiled_run_mirrors_detailed_memory_adjustment() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = SimConfig {
            detailed_memory: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let plain = Runner::serial().without_cache().run(&job).unwrap();
        let (profiled, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(plain, profiled);
        for (l, p) in profiled.layers.iter().zip(&profile.layers) {
            assert_eq!(l.mem_cycles, p.mem_cycles);
            assert_eq!(l.mem_cycles, p.stalls.memory);
        }
    }

    #[test]
    fn canonical_keys_are_stable_and_distinct() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let a = arch::dense();
        let job = SimJob::new(&a, &w, tiny_cfg());
        let mut units = Vec::new();
        plan(&job, &mut units, false);
        let keys: Vec<String> = units.iter().map(|u| u.key.canonical()).collect();
        let mut uniq = keys.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "every unit key is distinct");
        // Same plan, same keys (the stability the checkpoint layer needs).
        let mut units2 = Vec::new();
        plan(&job, &mut units2, false);
        let keys2: Vec<String> = units2.iter().map(|u| u.key.canonical()).collect();
        assert_eq!(keys, keys2);
        assert!(keys[0].starts_with("v1|arch=Dense|"));
    }
}
