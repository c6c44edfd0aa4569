//! Per-database string interning.
//!
//! The TPC-H workload repeats a small set of strings millions of times
//! (order statuses, nation and region names, part-name words), and the
//! translations join and deduplicate over them. [`StrPool`] deduplicates the
//! *storage*: every distinct string is allocated exactly once as an
//! `Arc<str>`, and every occurrence shares it. On top of the storage dedup
//! the pool assigns each distinct string a dense `StrId`, which is what the
//! columnar layer ([`crate::data::column`]) stores in string columns — comparing or
//! hashing an interned string column element is a `u32` operation, not a
//! byte-wise string walk.
//!
//! The pool is interior-mutable (`RwLock`) so the engine can intern through a
//! shared `&Database` during execution; bulk operations (column extraction)
//! take the lock once per column, not once per row.

use crate::obs::metrics::{registry, Gauge};
use crate::obs::names;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The process-wide `interner.strings` gauge: updated on every pool growth
/// (write-path only, so the read-lock fast path stays untouched). With
/// several live pools the gauge reports the most recently grown one —
/// sessions hold one database, so in practice that is *the* interner.
fn interner_gauge() -> &'static Gauge {
    static H: OnceLock<Arc<Gauge>> = OnceLock::new();
    H.get_or_init(|| registry().gauge(names::INTERNER_STRINGS))
}

/// Dense identifier of an interned string. Ids are assigned in first-intern
/// order and are only meaningful relative to the pool that issued them; two
/// strings interned in the same pool are equal iff their ids are equal.
pub(crate) type StrId = u32;

#[derive(Debug, Default)]
struct PoolInner {
    map: HashMap<Arc<str>, StrId>,
    strings: Vec<Arc<str>>,
}

impl PoolInner {
    fn intern(&mut self, s: &str) -> (StrId, Arc<str>) {
        if let Some((arc, &id)) = self.map.get_key_value(s) {
            return (id, arc.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        let id = self.strings.len() as StrId;
        self.strings.push(arc.clone());
        self.map.insert(arc.clone(), id);
        (id, arc)
    }

    fn intern_arc(&mut self, s: &Arc<str>) -> StrId {
        if let Some(&id) = self.map.get(s.as_ref()) {
            return id;
        }
        let id = self.strings.len() as StrId;
        self.strings.push(s.clone());
        self.map.insert(s.clone(), id);
        id
    }
}

/// A deduplicating string pool (see the module docs). Cloning a pool clones
/// its table but shares the underlying string allocations.
#[derive(Debug)]
pub struct StrPool {
    inner: RwLock<PoolInner>,
    id: u64,
}

/// A process-unique pool id: ids issued by two pools with different ids
/// must never be compared or resolved across them.
fn next_pool_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for StrPool {
    fn default() -> Self {
        StrPool { inner: RwLock::default(), id: next_pool_id() }
    }
}

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        StrPool::default()
    }

    /// The pool's process-unique identity. A clone is a different pool (its
    /// table may number new strings differently), so it gets a new id.
    /// Anything that keeps string ids beyond one call — a relation's
    /// cached columns — records the id of the pool that issued them.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Intern a string, returning its id and the shared allocation.
    pub(crate) fn intern(&self, s: &str) -> (StrId, Arc<str>) {
        // Fast path: already interned, read lock only.
        if let Some((arc, &id)) =
            self.inner.read().expect("pool lock").map.get_key_value(s).map(|(a, i)| (a.clone(), i))
        {
            return (id, arc);
        }
        let mut inner = self.inner.write().expect("pool lock");
        let out = inner.intern(s);
        interner_gauge().set(inner.strings.len() as u64);
        out
    }

    /// The id of an already interned string, if any. Strings absent from the
    /// pool can never equal an interned column element.
    pub fn lookup(&self, s: &str) -> Option<StrId> {
        self.inner.read().expect("pool lock").map.get(s).copied()
    }

    /// The shared allocation for an id (panics on a foreign id — ids are only
    /// valid for the pool that issued them).
    pub fn resolve(&self, id: StrId) -> Arc<str> {
        self.inner.read().expect("pool lock").strings[id as usize].clone()
    }

    /// Run `f` over the pool's strings, indexed by id, under one read lock:
    /// a column's worth of lookups takes the lock once and clones no
    /// allocation.
    pub(crate) fn with_strings<R>(&self, f: impl FnOnce(&[Arc<str>]) -> R) -> R {
        f(&self.inner.read().expect("pool lock").strings)
    }

    /// Bulk-intern a batch of `Arc<str>` values under a single lock
    /// acquisition (used by column extraction: one lock per column, not one
    /// per row). When every string is already interned — the steady state
    /// once the loaders have run — a shared read lock suffices, so parallel
    /// workers extracting string columns never serialize on the pool.
    pub(crate) fn intern_all<'a>(
        &self,
        values: impl Iterator<Item = Option<&'a Arc<str>>>,
    ) -> Vec<StrId> {
        let vals: Vec<Option<&Arc<str>>> = values.collect();
        {
            let inner = self.inner.read().expect("pool lock");
            let hits: Option<Vec<StrId>> = vals
                .iter()
                .map(|v| match v {
                    Some(s) => inner.map.get(s.as_ref()).copied(),
                    None => Some(0),
                })
                .collect();
            if let Some(ids) = hits {
                return ids;
            }
        }
        let mut inner = self.inner.write().expect("pool lock");
        let ids = vals.into_iter().map(|v| v.map(|s| inner.intern_arc(s)).unwrap_or(0)).collect();
        interner_gauge().set(inner.strings.len() as u64);
        ids
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("pool lock").strings.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for StrPool {
    fn clone(&self) -> Self {
        let inner = self.inner.read().expect("pool lock");
        StrPool {
            inner: RwLock::new(PoolInner {
                map: inner.map.clone(),
                strings: inner.strings.clone(),
            }),
            id: next_pool_id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_storage_and_ids() {
        let pool = StrPool::new();
        let (a, arc_a) = pool.intern("FURNITURE");
        let (b, arc_b) = pool.intern("FURNITURE");
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&arc_a, &arc_b));
        let (c, _) = pool.intern("BUILDING");
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn intern_arc_reuses_the_allocation() {
        let pool = StrPool::new();
        let s: Arc<str> = Arc::from("almond antique");
        let id = pool.intern_all(std::iter::once(Some(&s)))[0];
        assert!(Arc::ptr_eq(&pool.resolve(id), &s));
        // A content-equal but distinct allocation maps to the same id…
        let t: Arc<str> = Arc::from("almond antique");
        assert_eq!(pool.intern_all(std::iter::once(Some(&t))), vec![id]);
        // …and resolution keeps returning the first allocation.
        assert!(Arc::ptr_eq(&pool.resolve(id), &s));
    }

    #[test]
    fn lookup_misses_for_foreign_strings() {
        let pool = StrPool::new();
        pool.intern("x");
        assert!(pool.lookup("x").is_some());
        assert!(pool.lookup("y").is_none());
    }

    #[test]
    fn clone_shares_allocations() {
        let pool = StrPool::new();
        let (id, arc) = pool.intern("shared");
        let copy = pool.clone();
        assert!(Arc::ptr_eq(&copy.resolve(id), &arc));
        // The copy is independent: new strings in one don't appear in the other.
        copy.intern("only in copy");
        assert!(pool.lookup("only in copy").is_none());
        // So it is a different pool, by identity too.
        assert_ne!(copy.id(), pool.id());
        assert_ne!(StrPool::new().id(), StrPool::new().id());
    }

    #[test]
    fn intern_all_assigns_ids_in_one_pass() {
        let pool = StrPool::new();
        let vals: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b"), Arc::from("a")];
        let ids = pool.intern_all(vals.iter().map(Some));
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(pool.len(), 2);
    }
}
