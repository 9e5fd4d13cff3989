//! Tile-level content-addressed result memo: the memoization layer
//! beneath the runner's unit cache.
//!
//! The paper's timing model is tile-granular, and identical sparsity
//! tiles recur constantly — across layers, across workloads, and across
//! architectures that share a timer. This module caches one
//! [`TileOutcome`] per canonical [`TileKey`] in an in-process **hot
//! tier**: a striped hash map shared by every runner in the process.
//!
//! Only SUDS tiles outside the packed tables of
//! [`eureka_core::suds::lut`] reach the store: those wider than 16
//! columns or not 4 rows tall. The one-sided sampling loop times
//! `p = 4`, `q ≤ 16` tiles from the tables and max-row tiles by a
//! popcount max, with no key and no lookup (see
//! [`TileTimer::outcome`](crate::arch::TileTimer::outcome)).
//! Concurrent requests for the same missing key deduplicate — exactly one
//! computes, the rest block on the entry — so hit/miss counts depend only
//! on the multiset of keys, not on scheduling.
//!
//! Keys canonicalize via [`eureka_sparse::canon`]: permutation-invariant
//! timers collapse row orderings, order-sensitive timers keep them, and
//! uniform-latency timers (dense, 2:4) are not keyed at all. The store
//! returns bit-identical outcomes for equal keys by construction — every
//! timer is a pure integer function of the canonical signature — which is
//! what lets a warm store skip `suds::optimize` entirely without
//! perturbing any report.
//!
//! # Metrics
//!
//! `store.lookups/hits/misses/inserts`, all [`Class::Deterministic`];
//! `lookups == hits + misses` always, and on a fully warmed store
//! `hits == lookups` with `misses == 0`.

use eureka_obs::metrics::{self, Class, Counter};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::checkpoint::fnv1a64;

/// Stripe count of the hot tier's hash map.
const STRIPES: usize = 16;

/// Canonical content key of one timed tile: timer discipline (including
/// any timer parameter, e.g. the multistep reach) plus the canonical
/// row-length signature.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileKey(String);

impl TileKey {
    /// Assembles a key from a timer discipline tag and a canonical
    /// row-length token (see [`eureka_sparse::canon::lens_token`]).
    #[must_use]
    pub fn new(discipline: &str, lens_token: &str) -> Self {
        let mut text = String::with_capacity(1 + discipline.len() + lens_token.len());
        TileKey::encode_into(discipline, lens_token, &mut text);
        TileKey(text)
    }

    /// Writes the key text (`discipline|lens_token`) into a reusable
    /// buffer — the zero-allocation form of [`TileKey::new`] for hot
    /// loops that resolve through [`TileBroker::resolve_str`]. The buffer
    /// is cleared first; the rendered text is byte-identical to
    /// `TileKey::new(discipline, lens_token).as_str()`.
    pub fn encode_into(discipline: &str, lens_token: &str, out: &mut String) {
        out.clear();
        out.push_str(discipline);
        out.push('|');
        out.push_str(lens_token);
    }

    /// The key's stable text form.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// `TileKey` hashes, compares and orders exactly like its text form, so
/// map lookups can run on a borrowed `&str` without materializing a key.
impl std::borrow::Borrow<str> for TileKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

fn stripe_of(key: &str) -> usize {
    ((fnv1a64(key.as_bytes()) >> 8) as usize) % STRIPES
}

/// The result of timing one canonical tile: everything both the plain
/// and the profiled simulation paths consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileOutcome {
    /// Sub-array cycles for the tile (the timer's `k`, floored at 1).
    pub cycles: u64,
    /// SUDS-displaced element count (0 for non-SUDS timers).
    pub displaced: u64,
    /// The SUDS plan's base row, when the timer produces one (feeds the
    /// profiler's crossbar-rotation histogram).
    pub base_row: Option<usize>,
    /// Non-zeros in the tile — determined by the canonical signature, so
    /// it is safe to carry in a content-addressed record.
    pub nnz: u64,
}

/// Where a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Present in the hot tier (or computed concurrently by another
    /// worker — the entry deduplicates).
    Hot,
    /// Missing: the caller's closure simulated it.
    Computed,
}

/// `&'static` handles to the `store.*` counters.
struct StoreTelemetry {
    lookups: &'static Counter,
    hits: &'static Counter,
    misses: &'static Counter,
    inserts: &'static Counter,
}

fn stel() -> &'static StoreTelemetry {
    static TEL: OnceLock<StoreTelemetry> = OnceLock::new();
    TEL.get_or_init(|| StoreTelemetry {
        lookups: metrics::counter("store.lookups", Class::Deterministic),
        hits: metrics::counter("store.hits", Class::Deterministic),
        misses: metrics::counter("store.misses", Class::Deterministic),
        inserts: metrics::counter("store.inserts", Class::Deterministic),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Same poisoning policy as the runner: a caught unit panic must not
    // wedge the store for the rest of the process.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One hot-tier entry. The `OnceLock` is the deduplication point:
/// whichever caller reaches an unset entry first initializes it by
/// computing; concurrent callers block and then read it.
type Cell = Arc<OnceLock<TileOutcome>>;

/// The hot tier plus the `store.*` counters' bookkeeping.
#[derive(Debug)]
pub struct TileStore {
    stripes: Vec<Mutex<HashMap<TileKey, Cell>>>,
}

impl TileStore {
    fn new() -> Self {
        TileStore {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Resolves `key`: hot tier first, then `compute` — which runs at
    /// most once per key in this tier, with concurrent requesters
    /// blocking on the in-flight entry.
    /// Updates the `store.*` counters; exactly one of hit/miss fires per
    /// call, and misses also count an insert.
    pub fn lookup_or_compute(
        &self,
        key: &TileKey,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, Served) {
        self.lookup_or_compute_str(key.as_str(), compute)
    }

    /// [`lookup_or_compute`](Self::lookup_or_compute) over the key's text
    /// form. The hot path: an owned [`TileKey`] is only materialized when
    /// the key is genuinely new to the hot tier (first sight of a
    /// canonical tile), so steady-state resolution performs no
    /// allocation.
    pub fn lookup_or_compute_str(
        &self,
        key: &str,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, Served) {
        let t = stel();
        t.lookups.inc();
        let cell = {
            let mut map = lock(&self.stripes[stripe_of(key)]);
            match map.get(key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Cell::default();
                    map.insert(TileKey(key.to_string()), Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut served = Served::Hot;
        let out = *cell.get_or_init(|| {
            served = Served::Computed;
            compute()
        });
        match served {
            Served::Hot => t.hits.inc(),
            Served::Computed => {
                t.misses.inc();
                t.inserts.inc();
            }
        }
        (out, served)
    }

    /// Number of hot-tier entries (including in-flight ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|stripe| lock(stripe).len()).sum()
    }

    /// Whether the hot tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every hot-tier entry (cold-start measurements).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            lock(stripe).clear();
        }
    }
}

/// The process-wide hot tier.
pub fn global() -> &'static TileStore {
    static STORE: OnceLock<TileStore> = OnceLock::new();
    STORE.get_or_init(TileStore::new)
}

/// `(lookups, hits, misses, inserts)` of the `store.*` counters.
#[must_use]
pub fn store_stats() -> (u64, u64, u64, u64) {
    let t = stel();
    (
        t.lookups.get(),
        t.hits.get(),
        t.misses.get(),
        t.inserts.get(),
    )
}

/// Zeroes every `store.*` counter and clears the process-wide hot tier.
/// Called by [`crate::runner::cache_reset`].
pub fn store_reset() {
    let t = stel();
    global().clear();
    t.lookups.reset();
    t.hits.reset();
    t.misses.reset();
    t.inserts.reset();
}

/// The tile-resolution handle planted in each work unit's
/// [`crate::arch::LayerCtx`]. Disabled brokers compute directly (ad-hoc
/// simulation call sites); enabled brokers resolve through a hot tier
/// while tallying per-unit lookup/compute counts so the runner can
/// classify the unit.
#[derive(Clone, Debug, Default)]
pub struct TileBroker {
    inner: Option<Arc<BrokerInner>>,
}

#[derive(Debug)]
struct BrokerInner {
    /// A caller-owned tier; `None` resolves through [`global`].
    tier: Option<Arc<TileStore>>,
    lookups: AtomicU64,
    computes: AtomicU64,
}

impl TileBroker {
    /// A broker that always computes (no store participation).
    #[must_use]
    pub fn disabled() -> Self {
        TileBroker::default()
    }

    /// A store-backed broker with a fresh per-unit tally, resolving
    /// through `tier` — or, for `None`, the process-wide tier the runner
    /// uses.
    #[must_use]
    pub fn enabled(tier: Option<Arc<TileStore>>) -> Self {
        TileBroker {
            inner: Some(Arc::new(BrokerInner {
                tier,
                lookups: AtomicU64::new(0),
                computes: AtomicU64::new(0),
            })),
        }
    }

    /// Resolves one tile: through the store when enabled and the timer
    /// is content-addressable (`key` is `Some`), by calling `compute`
    /// otherwise.
    pub fn resolve(
        &self,
        key: Option<TileKey>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        self.resolve_str(key.as_ref().map(TileKey::as_str), compute)
    }

    /// [`resolve`](Self::resolve) over a borrowed key text (e.g. a
    /// scratch buffer filled by [`TileKey::encode_into`]) — the
    /// zero-allocation hot path: an owned key is only built when the
    /// store has never seen this canonical tile.
    pub fn resolve_str(
        &self,
        key: Option<&str>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        let (Some(inner), Some(key)) = (&self.inner, key) else {
            return compute();
        };
        inner.lookups.fetch_add(1, Ordering::Relaxed);
        let tier = match &inner.tier {
            Some(tier) => tier,
            None => global(),
        };
        let (out, served) = tier.lookup_or_compute_str(key, compute);
        if served == Served::Computed {
            inner.computes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// `(lookups, computes)` this broker has tallied.
    #[must_use]
    pub fn tally(&self) -> (u64, u64) {
        self.inner.as_ref().map_or((0, 0), |i| {
            (
                i.lookups.load(Ordering::Relaxed),
                i.computes.load(Ordering::Relaxed),
            )
        })
    }

    /// Zeroes the tally (the runner resets between retry attempts, so a
    /// unit's classification reflects its final attempt only).
    pub fn reset_tally(&self) {
        if let Some(i) = &self.inner {
            i.lookups.store(0, Ordering::Relaxed);
            i.computes.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn out(cycles: u64) -> TileOutcome {
        TileOutcome {
            cycles,
            displaced: cycles / 2,
            base_row: Some(3),
            nnz: cycles * 4,
        }
    }

    fn key(n: u64) -> TileKey {
        TileKey::new("test", &format!("{n},{},{},{}", n + 1, n + 2, n + 3))
    }

    #[test]
    fn hot_tier_deduplicates() {
        let store = TileStore::new();
        let computes = AtomicUsize::new(0);
        let compute = || {
            computes.fetch_add(1, Ordering::Relaxed);
            out(1)
        };
        let (o1, s1) = store.lookup_or_compute(&key(1), compute);
        let (o2, s2) = store.lookup_or_compute(&key(1), compute);
        assert_eq!((o1, s1), (out(1), Served::Computed));
        assert_eq!((o2, s2), (out(1), Served::Hot));
        assert_eq!(computes.load(Ordering::Relaxed), 1, "one compute per key");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn broker_tallies_lookups_and_computes() {
        // A private tier, so concurrently running tests cannot pre-warm
        // the key.
        let tier = Arc::new(TileStore::new());
        let broker = TileBroker::enabled(Some(Arc::clone(&tier)));
        let k = TileKey::new("tally", "1,2,3");
        broker.resolve(Some(k.clone()), || out(8));
        broker.resolve(Some(k.clone()), || out(8));
        broker.resolve(None, || out(8)); // uniform timer: not tallied
        assert_eq!(broker.tally(), (2, 1), "only the first resolve computes");
        assert_eq!(tier.len(), 1, "resolved through the private tier");
        broker.reset_tally();
        assert_eq!(broker.tally(), (0, 0));
        assert_eq!(TileBroker::disabled().tally(), (0, 0));
    }
}
