//! Cross-call sub-plan estimate cache (the Hyrise
//! `CardinalityEstimationCache` pattern).
//!
//! The join-order optimizer probes its estimator once per connected table
//! subset, and consecutive queries in a workload overlap heavily in those
//! sub-plans. [`EstimateCache`] persists estimates *across* `optimize()`
//! calls, keyed on the semantic [`QueryFingerprint`] of the sub-plan, so a
//! sub-plan estimated for one query is free for every later query that
//! contains it — regardless of predicate order or join spelling
//! (fingerprint canonicalization makes semantically equal sub-queries
//! collide).
//!
//! Caching across calls is only sound while the estimator itself does not
//! change. The cache therefore carries a [`GenerationSource`]: the serving
//! layer's `ModelSlot` bumps its generation on every accepted hot swap,
//! and the cache compares that generation on each probe, dropping every
//! entry the moment it moves — an adaptation swap atomically invalidates
//! all stale estimates. A cache built without a source
//! ([`EstimateCache::new`]) pins generation 0 and never invalidates,
//! which is correct exactly when the estimator is immutable.
//!
//! The probe/fill protocol is generation-checked end to end:
//! [`EstimateCache::probe`] returns a [`Probe::Miss`] carrying the
//! generation observed at probe time, and [`EstimateCache::fill`] refuses
//! the insert if the generation has moved since — an estimate computed
//! against the old model can never be published under the new one, even
//! when a swap lands between probe and fill.
//!
//! Counter contract (the conservation law asserted by `bench_optimizer`):
//! every probe is exactly one hit or one miss, so
//! `hits + misses == probes`. Evictions count entries dropped by capacity
//! sweeps; invalidations count entries dropped by generation changes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qfe_core::estimator::{Estimate, GenerationSource};
use qfe_core::fingerprint::QueryFingerprint;
use qfe_obs::{NoopRecorder, Recorder};

/// Metric names under which the cache reports, precomputed so the hot
/// path never formats (the convention of the rest of the workspace).
const HIT: &str = "cache.hit";
const MISS: &str = "cache.miss";
const EVICT: &str = "cache.evict";
const INVALIDATE: &str = "cache.invalidate";

/// Default entry bound. A JOB-light-sized workload needs a few hundred
/// distinct sub-plans; this leaves generous headroom while keeping the
/// worst case at a few MB.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Result of [`EstimateCache::probe`].
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// The fingerprint was cached; here is the estimated cardinality
    /// ([`Estimate::value`] of the filled estimate).
    Hit(f64),
    /// Not cached. The token is the generation observed at probe time;
    /// pass it to [`EstimateCache::fill`] so a concurrent model swap
    /// cannot publish the (now stale) estimate.
    Miss(FillToken),
}

/// Proof of a probe-time generation observation (see [`Probe::Miss`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillToken {
    generation: u64,
}

/// Cumulative counters of an [`EstimateCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that found nothing (and were issued a fill token).
    pub misses: u64,
    /// Entries dropped by capacity sweeps.
    pub evictions: u64,
    /// Entries dropped because the model generation moved.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total probes (every probe is exactly one hit or one miss).
    pub fn probes(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` before the first probe.
    pub fn hit_rate(&self) -> f64 {
        if self.probes() == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes() as f64
        }
    }
}

struct CacheState {
    /// Estimated cardinality per fingerprint: a hit returns the value
    /// only, so it copies a float and allocates nothing.
    map: HashMap<u128, f64>,
    /// Generation the cached entries were produced under.
    generation: u64,
}

/// Fingerprint-keyed cross-call estimate cache with generation-based
/// invalidation (module docs have the full contract).
pub struct EstimateCache {
    state: Mutex<CacheState>,
    capacity: usize,
    source: Option<Arc<dyn GenerationSource>>,
    recorder: Arc<dyn Recorder>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for EstimateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EstimateCache {
    /// A cache for an estimator that never changes (generation pinned at
    /// 0, no invalidation), bounded by [`DEFAULT_CACHE_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// [`new`](Self::new) with an explicit entry bound.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A cache whose validity is tied to `source` (typically the serving
    /// layer's `ModelSlot`): whenever `source.generation()` moves, all
    /// entries are dropped on the next probe and counted as
    /// invalidations.
    pub fn with_generation_source(source: Arc<dyn GenerationSource>) -> Self {
        Self::build(DEFAULT_CACHE_CAPACITY, Some(source))
    }

    /// [`with_generation_source`](Self::with_generation_source) with an
    /// explicit entry bound.
    pub fn with_generation_source_and_capacity(
        source: Arc<dyn GenerationSource>,
        capacity: usize,
    ) -> Self {
        Self::build(capacity, Some(source))
    }

    fn build(capacity: usize, source: Option<Arc<dyn GenerationSource>>) -> Self {
        let generation = source.as_ref().map_or(0, |s| s.generation());
        EstimateCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                generation,
            }),
            capacity: capacity.max(1),
            source,
            recorder: Arc::new(NoopRecorder),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Route `cache.{hit,miss,evict,invalidate}` counters to `recorder`
    /// (builder form; the default sink is a [`NoopRecorder`]).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // An estimate cache holds no invariants a panicking writer could
        // tear (entries are immutable once inserted); adopt the inner
        // state rather than cascading the poison.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop all entries if the source generation moved since they were
    /// filled. Returns the current generation.
    fn sync_generation(&self, state: &mut CacheState) -> u64 {
        if let Some(source) = &self.source {
            let now = source.generation();
            if now != state.generation {
                let dropped = state.map.len() as u64;
                state.map.clear();
                state.generation = now;
                if dropped > 0 {
                    self.invalidations.fetch_add(dropped, Ordering::Relaxed);
                    self.recorder.add(INVALIDATE, dropped);
                }
            }
        }
        state.generation
    }

    /// Look up `fp`, invalidating first if the model generation moved.
    /// Every call is exactly one hit or one miss.
    pub fn probe(&self, fp: QueryFingerprint) -> Probe {
        let mut state = self.lock();
        let generation = self.sync_generation(&mut state);
        match state.map.get(&fp.0) {
            Some(&card) => {
                drop(state);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.recorder.incr(HIT);
                Probe::Hit(card)
            }
            None => {
                drop(state);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.recorder.incr(MISS);
                Probe::Miss(FillToken { generation })
            }
        }
    }

    /// Publish the estimate computed for a [`Probe::Miss`] (only its
    /// value is kept: hits answer the cardinality alone). Rejected
    /// (silently — the cache stays correct, the work is merely lost) if
    /// the generation moved since the probe, so stale estimates never
    /// enter a fresh cache. At capacity the whole table is swept (epoch
    /// eviction — sub-plan working sets are small and bookkeeping-free
    /// sweeps beat per-entry LRU at this size), counted as evictions.
    pub fn fill(&self, fp: QueryFingerprint, estimate: Estimate, token: FillToken) {
        let mut state = self.lock();
        let generation = self.sync_generation(&mut state);
        if token.generation != generation {
            return;
        }
        if state.map.len() >= self.capacity {
            let dropped = state.map.len() as u64;
            state.map.clear();
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            self.recorder.add(EVICT, dropped);
        }
        state.map.insert(fp.0, estimate.value);
    }

    /// Drop every entry unconditionally (counted as evictions).
    pub fn clear(&self) {
        let mut state = self.lock();
        let dropped = state.map.len() as u64;
        state.map.clear();
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            self.recorder.add(EVICT, dropped);
        }
    }
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Gen;

    struct Bumpable(Gen);

    impl GenerationSource for Bumpable {
        fn generation(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    fn fp(x: u128) -> QueryFingerprint {
        QueryFingerprint(x)
    }

    fn est(v: f64) -> Estimate {
        Estimate::primary(v, "test")
    }

    #[test]
    fn probe_fill_roundtrip_and_conservation() {
        let cache = EstimateCache::new();
        let Probe::Miss(token) = cache.probe(fp(1)) else {
            panic!("empty cache must miss");
        };
        cache.fill(fp(1), est(42.0), token);
        assert_eq!(cache.probe(fp(1)), Probe::Hit(42.0));
        assert!(matches!(cache.probe(fp(2)), Probe::Miss(_)));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.probes(), 3);
        assert_eq!(stats.evictions + stats.invalidations, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_change_invalidates_everything() {
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source(source.clone());
        for i in 0..4 {
            let Probe::Miss(token) = cache.probe(fp(i)) else {
                panic!("miss expected");
            };
            cache.fill(fp(i), est(i as f64 + 1.0), token);
        }
        assert_eq!(cache.len(), 4);
        source.0.store(1, Ordering::Relaxed);
        // First probe after the swap sees an empty cache.
        assert!(matches!(cache.probe(fp(0)), Probe::Miss(_)));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().invalidations, 4);
    }

    #[test]
    fn stale_token_fill_is_rejected() {
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source(source.clone());
        let Probe::Miss(token) = cache.probe(fp(9)) else {
            panic!("miss expected");
        };
        // A swap lands between probe and fill: the estimate was computed
        // against the old model and must not be published.
        source.0.store(1, Ordering::Relaxed);
        cache.fill(fp(9), est(5.0), token);
        assert!(matches!(cache.probe(fp(9)), Probe::Miss(_)));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_sweep_counts_evictions() {
        let cache = EstimateCache::with_capacity(2);
        for i in 0..3 {
            let Probe::Miss(token) = cache.probe(fp(i)) else {
                panic!("miss expected");
            };
            cache.fill(fp(i), est(1.0), token);
        }
        // Third fill swept the first two.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn counters_reach_the_recorder() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source_and_capacity(source.clone(), 1)
            .with_recorder(recorder.clone());
        let Probe::Miss(t) = cache.probe(fp(1)) else {
            panic!()
        };
        cache.fill(fp(1), est(2.0), t);
        cache.probe(fp(1));
        let Probe::Miss(t) = cache.probe(fp(2)) else {
            panic!()
        };
        cache.fill(fp(2), est(3.0), t); // sweeps fp(1)
        source.0.store(5, Ordering::Relaxed);
        cache.probe(fp(2)); // invalidates 1 entry, then misses
        assert_eq!(recorder.counter("cache.hit"), 1);
        assert_eq!(recorder.counter("cache.miss"), 3);
        assert_eq!(recorder.counter("cache.evict"), 1);
        assert_eq!(recorder.counter("cache.invalidate"), 1);
        // Conservation: probes == hits + misses.
        let s = cache.stats();
        assert_eq!(s.probes(), s.hits + s.misses);
        assert_eq!(s.probes(), 4);
    }
}
