//! Plan caching: hashable keys over logical expressions and a small LRU
//! cache with hit/miss accounting.
//!
//! Planning a translated query is not free — translation, eight rewrite
//! passes, physical planning and operator compilation — so repeated workload
//! queries should plan **once**. [`PlanKey`] makes a
//! logical [`RaExpr`] usable as a hash-map key (the expression tree carries
//! no `Hash` impl of its own; the key hashes a structural fingerprint and
//! falls back to full equality on collisions), qualified by everything else
//! the resulting plan depends on: which translation variant was planned, the
//! database's schema epoch, and the parallelism configuration. [`PlanCache`]
//! is the LRU map over such keys used by the `certus::Session` facade.

use certus_algebra::expr::RaExpr;
use certus_obs::metrics::{registry, Counter};
use certus_obs::names;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Process-wide `plan_cache.*` counter handles, fetched once. Every
/// [`PlanCache`] instance mirrors its per-instance counters into these so
/// registry snapshots see cache behaviour without a handle to the session.
struct GlobalCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

fn global_counters() -> &'static GlobalCounters {
    static H: OnceLock<GlobalCounters> = OnceLock::new();
    H.get_or_init(|| GlobalCounters {
        hits: registry().counter(names::PLAN_CACHE_HITS),
        misses: registry().counter(names::PLAN_CACHE_MISSES),
        insertions: registry().counter(names::PLAN_CACHE_INSERTIONS),
        evictions: registry().counter(names::PLAN_CACHE_EVICTIONS),
        invalidations: registry().counter(names::PLAN_CACHE_INVALIDATIONS),
    })
}

/// A structural fingerprint of a logical expression: the hash of its
/// deterministic textual rendering. Two equal expressions always fingerprint
/// identically; distinct expressions may collide (the rendering elides
/// literal-relation contents), which is why [`PlanKey`] keeps the expression
/// itself for the equality check.
pub fn expr_fingerprint(expr: &RaExpr) -> u64 {
    let mut h = DefaultHasher::new();
    expr.to_string().hash(&mut h);
    h.finish()
}

/// Everything a cached physical plan depends on: the logical expression, the
/// translation variant that was planned (an opaque tag chosen by the caller),
/// the database's schema epoch at planning time, and the worker-thread count
/// the plan's exchange operators were sized for.
///
/// `Hash` uses the expression's [`expr_fingerprint`]; equality compares the
/// full expression, so fingerprint collisions cost a probe, never a wrong
/// plan.
#[derive(Debug, Clone)]
pub struct PlanKey {
    expr: RaExpr,
    fingerprint: u64,
    variant: u8,
    epoch: u64,
    threads: usize,
}

impl PlanKey {
    /// Build a key for an expression planned as the given variant, at the
    /// given schema epoch, for the given worker-thread count.
    pub fn new(expr: RaExpr, variant: u8, epoch: u64, threads: usize) -> Self {
        let fingerprint = expr_fingerprint(&expr);
        PlanKey { expr, fingerprint, variant, epoch, threads }
    }

    /// The expression's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The schema epoch the plan was built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.variant == other.variant
            && self.epoch == other.epoch
            && self.threads == other.threads
            && self.expr == other.expr
    }
}

// `RaExpr` equality is reflexive (floats inside `Value` compare by
// normalised bit pattern), so the `Eq` marker is sound.
impl Eq for PlanKey {}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fingerprint.hash(state);
        self.variant.hash(state);
        self.epoch.hash(state);
        self.threads.hash(state);
    }
}

/// A snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Entries dropped to make room (least recently used first).
    pub evictions: u64,
    /// Entries dropped because their schema epoch went stale.
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// A least-recently-used cache from [`PlanKey`]s to prepared plans, with
/// hit/miss/eviction/invalidation counters. Eviction scans for the oldest
/// slot, which is linear in the entry count — fine at plan-cache capacities
/// (tens of entries), where the scan is dwarfed by a single planning run.
#[derive(Debug)]
pub struct PlanCache<V> {
    capacity: usize,
    map: HashMap<PlanKey, Slot<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

impl<V: Clone> PlanCache<V> {
    /// Default capacity used by the session facade.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache holding at most `capacity` plans (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Look up a plan, counting a hit or a miss and refreshing the entry's
    /// recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                global_counters().hits.incr();
                Some(slot.value.clone())
            }
            None => {
                self.misses += 1;
                global_counters().misses.incr();
                None
            }
        }
    }

    /// Insert a plan, evicting the least recently used entry when full.
    pub fn insert(&mut self, key: PlanKey, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
                global_counters().evictions.incr();
            }
        }
        self.insertions += 1;
        global_counters().insertions.incr();
        self.map.insert(key, Slot { value, last_used: self.tick });
    }

    /// Drop every entry planned at a schema epoch other than `epoch` —
    /// called by the session whenever it observes the database's current
    /// epoch, so a schema change frees the stale plans immediately instead
    /// of waiting for LRU pressure. (Stale entries could never *hit* anyway:
    /// the epoch is part of the key.)
    pub fn retain_epoch(&mut self, epoch: u64) {
        let before = self.map.len();
        self.map.retain(|k, _| k.epoch == epoch);
        let dropped = (before - self.map.len()) as u64;
        self.invalidations += dropped;
        global_counters().invalidations.add(dropped);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            invalidations: self.invalidations,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::eq;

    fn q(rel: &str) -> RaExpr {
        RaExpr::relation(rel).join(RaExpr::relation("s"), eq("a", "b"))
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(expr_fingerprint(&q("r")), expr_fingerprint(&q("r")));
        assert_ne!(expr_fingerprint(&q("r")), expr_fingerprint(&q("t")));
    }

    #[test]
    fn keys_distinguish_variant_epoch_and_threads() {
        let base = PlanKey::new(q("r"), 0, 0, 1);
        assert_eq!(base, PlanKey::new(q("r"), 0, 0, 1));
        assert_ne!(base, PlanKey::new(q("r"), 1, 0, 1));
        assert_ne!(base, PlanKey::new(q("r"), 0, 1, 1));
        assert_ne!(base, PlanKey::new(q("r"), 0, 0, 4));
        assert_ne!(base, PlanKey::new(q("t"), 0, 0, 1));
    }

    #[test]
    fn cache_mirrors_counters_into_the_registry() {
        let before = certus_obs::MetricsSnapshot::now();
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        let key = PlanKey::new(q("m"), 0, 0, 1);
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), 1);
        assert_eq!(cache.get(&key), Some(1));
        let delta = certus_obs::MetricsSnapshot::now().delta_since(&before);
        // Other cache tests run concurrently in this process, so only lower
        // bounds are stable.
        assert!(delta.counter(names::PLAN_CACHE_HITS) >= 1);
        assert!(delta.counter(names::PLAN_CACHE_MISSES) >= 1);
        assert!(delta.counter(names::PLAN_CACHE_INSERTIONS) >= 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache: PlanCache<u32> = PlanCache::new(4);
        let key = PlanKey::new(q("r"), 0, 0, 1);
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), 7);
        assert_eq!(cache.get(&key), Some(7));
        assert_eq!(cache.get(&key), Some(7));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        let (a, b, c) = (
            PlanKey::new(q("a"), 0, 0, 1),
            PlanKey::new(q("b"), 0, 0, 1),
            PlanKey::new(q("c"), 0, 0, 1),
        );
        cache.insert(a.clone(), 1);
        cache.insert(b.clone(), 2);
        assert_eq!(cache.get(&a), Some(1)); // refresh a: b is now the LRU
        cache.insert(c.clone(), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a), Some(1));
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&c), Some(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn retain_epoch_invalidates_stale_plans() {
        let mut cache: PlanCache<u32> = PlanCache::new(4);
        cache.insert(PlanKey::new(q("a"), 0, 0, 1), 1);
        cache.insert(PlanKey::new(q("b"), 0, 0, 1), 2);
        cache.insert(PlanKey::new(q("a"), 0, 1, 1), 3);
        cache.retain_epoch(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(cache.get(&PlanKey::new(q("a"), 0, 1, 1)), Some(3));
    }

    #[test]
    fn capacity_is_clamped_and_clear_keeps_counters() {
        let mut cache: PlanCache<u32> = PlanCache::new(0);
        assert_eq!(cache.stats().capacity, 1);
        let key = PlanKey::new(q("a"), 0, 0, 1);
        cache.insert(key.clone(), 1);
        assert_eq!(cache.get(&key), Some(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(key.epoch(), 0);
        assert_eq!(key.fingerprint(), expr_fingerprint(&q("a")));
    }
}
