//! Snapshot storage: many concurrent readers over one mutable database.
//!
//! A [`SnapshotStore`] holds the current [`Database`] behind an `Arc`.
//! Readers [`pin`](SnapshotStore::pin) the current state and keep executing
//! against it for as long as they hold the [`Snapshot`] — they are never
//! blocked by a writer and never observe a torn (partially applied) update.
//! Writers go through [`update`](SnapshotStore::update): one writer at a
//! time clones the database (cheap — relations are `Arc`-shared, see
//! [`Database`]), mutates the clone (copy-on-write per touched relation —
//! of row pointers, the rows themselves stay shared — data version bumped
//! by the mutating accessors), and atomically publishes the result as the
//! new current snapshot.
//!
//! A snapshot's [`epoch`](Snapshot::epoch) is its data version. Plans key
//! on the schema epoch instead, which a write to the rows leaves alone: a
//! query prepared against one snapshot executes unchanged against every
//! later snapshot with the same tables, and sees their rows.

use crate::database::Database;
use certus_obs::metrics::{registry, Counter, Gauge};
use certus_obs::names;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared pin accounting, owned by the store and referenced by every
/// live [`Snapshot`] so drops decrement the live count even after the
/// store itself is gone.
#[derive(Debug)]
struct PinStats {
    live: AtomicU64,
    taken_metric: Arc<Counter>,
    live_metric: Arc<Gauge>,
}

/// The store: current database state plus a writer lock.
///
/// Reads are wait-free apart from a brief mutex on the `Arc` swap; writes
/// serialize against each other (single-writer) but never against readers.
#[derive(Debug)]
pub struct SnapshotStore {
    current: Mutex<Arc<Database>>,
    /// Serializes writers so `update` closures see a consistent base state.
    writer: Mutex<()>,
    pins: Arc<PinStats>,
}

/// A pinned, immutable view of the database at one data version.
///
/// Dereferences to [`Database`]; clone-cheap (bumps the `Arc`). The live-pin
/// gauge drops when the last clone of a pin is dropped.
#[derive(Debug, Clone)]
pub struct Snapshot {
    db: Arc<Database>,
    guard: Arc<PinGuard>,
}

#[derive(Debug)]
struct PinGuard(Arc<PinStats>);

impl Drop for PinGuard {
    fn drop(&mut self) {
        let live = self.0.live.fetch_sub(1, Ordering::Relaxed) - 1;
        self.0.live_metric.set(live);
    }
}

impl SnapshotStore {
    /// Wrap a database as the initial snapshot.
    pub fn new(db: Database) -> Self {
        let reg = registry();
        SnapshotStore {
            current: Mutex::new(Arc::new(db)),
            writer: Mutex::new(()),
            pins: Arc::new(PinStats {
                live: AtomicU64::new(0),
                taken_metric: reg.counter(names::SERVER_SNAPSHOT_PINS),
                live_metric: reg.gauge(names::SERVER_SNAPSHOT_PINS_LIVE),
            }),
        }
    }

    /// Pin the current state. The returned [`Snapshot`] stays valid (and its
    /// relations stay untouched) regardless of later writes.
    pub fn pin(&self) -> Snapshot {
        let db = self.current.lock().expect("snapshot store poisoned").clone();
        self.pins.taken_metric.incr();
        let live = self.pins.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.pins.live_metric.set(live);
        Snapshot { db, guard: Arc::new(PinGuard(self.pins.clone())) }
    }

    /// Data version ([`Database::version`]) of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.lock().expect("snapshot store poisoned").version()
    }

    /// Apply a mutation and publish the result as the new current snapshot.
    ///
    /// The closure receives a private clone of the current database; touched
    /// relations are copied on first write (`Arc::make_mut`), untouched ones
    /// stay shared with in-flight snapshots. Copying a relation costs one
    /// reference-count bump per row — rows are `Arc<[Value]>`, shared between
    /// the old and the new snapshot — not a copy of every value: an insert
    /// into an `n`-row relation allocates its own rows plus a vector of `n`
    /// pointers. Readers pinned before or during the update keep their old
    /// state; readers pinning after see the new one. Writers serialize
    /// against each other, never against readers.
    pub fn update<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let _writer = self.writer.lock().expect("snapshot writer poisoned");
        let mut next: Database = (**self.current.lock().expect("snapshot store poisoned")).clone();
        let out = f(&mut next);
        *self.current.lock().expect("snapshot store poisoned") = Arc::new(next);
        out
    }

    /// Snapshots currently pinned (not yet dropped).
    pub fn live_pins(&self) -> u64 {
        self.pins.live.load(Ordering::Relaxed)
    }
}

impl Snapshot {
    /// The shared database handle — for building a `Session` over the
    /// snapshot without copying the data.
    pub fn database(&self) -> Arc<Database> {
        self.db.clone()
    }

    /// Data version ([`Database::version`]) this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.db.version()
    }

    /// Number of live pins sharing this snapshot's accounting (diagnostic).
    pub fn live_pins(&self) -> u64 {
        self.guard.0.live.load(Ordering::Relaxed)
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::rel;
    use crate::value::Value;

    fn store_with_r() -> SnapshotStore {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        SnapshotStore::new(db)
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_updates() {
        let store = store_with_r();
        let before = store.pin();
        let epoch_before = before.epoch();
        store.update(|db| {
            db.relation_mut("r").unwrap().insert_values(vec![Value::Int(2)]).unwrap();
        });
        // The pinned snapshot still sees the old contents and version…
        assert_eq!(before.relation("r").unwrap().len(), 1);
        assert_eq!(before.epoch(), epoch_before);
        // …while a fresh pin sees the update under a bumped version, and
        // the same schema epoch.
        let after = store.pin();
        assert_eq!(after.relation("r").unwrap().len(), 2);
        assert!(after.epoch() > epoch_before);
        assert_eq!(after.schema_epoch(), before.schema_epoch());
    }

    #[test]
    fn untouched_relations_stay_shared_across_snapshots() {
        let store = store_with_r();
        store.update(|db| {
            db.insert_relation("s", rel(&["x"], vec![vec![Value::Int(9)]]));
        });
        let a = store.pin();
        store.update(|db| {
            db.relation_mut("r").unwrap().insert_values(vec![Value::Int(3)]).unwrap();
        });
        let b = store.pin();
        // The touched relation was copy-on-written; the untouched one is the
        // very same allocation in both snapshots.
        assert!(!std::ptr::eq(a.relation("r").unwrap(), b.relation("r").unwrap()));
        assert!(std::ptr::eq(a.relation("s").unwrap(), b.relation("s").unwrap()));
    }

    #[test]
    fn copy_on_write_shares_the_untouched_rows() {
        let mut db = Database::new();
        db.insert_relation(
            "lineitem",
            rel(&["l_orderkey", "l_comment"], vec![vec![Value::Int(1), Value::str("as is")]]),
        );
        let store = SnapshotStore::new(db);
        let before = store.pin();
        store.update(|db| {
            let lineitem = db.relation_mut("lineitem").unwrap();
            lineitem.insert_values([Value::Int(2), Value::str("new")]).unwrap();
        });
        let after = store.pin();
        let (old, new) =
            (before.relation("lineitem").unwrap(), after.relation("lineitem").unwrap());
        assert_eq!((old.len(), new.len()), (1, 2));
        // The relation was copied on write — as a vector of row pointers:
        // the untouched row is one allocation seen from both snapshots.
        assert!(std::ptr::eq(old.tuples()[0].values().as_ptr(), new.tuples()[0].values().as_ptr()));
    }

    #[test]
    fn pin_accounting_tracks_lifecycle() {
        let store = store_with_r();
        assert_eq!(store.live_pins(), 0);
        let p1 = store.pin();
        let p2 = store.pin();
        let p3 = p2.clone(); // clones share one pin
        assert_eq!(store.live_pins(), 2);
        drop(p2);
        assert_eq!(store.live_pins(), 2, "clone keeps the pin alive");
        drop(p3);
        assert_eq!(store.live_pins(), 1);
        drop(p1);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn update_returns_closure_result_and_serializes_epochs() {
        let store = store_with_r();
        let e0 = store.epoch();
        let n = store.update(|db| {
            db.relation_mut("r").unwrap().insert_values(vec![Value::Int(7)]).unwrap();
            db.relation("r").unwrap().len()
        });
        assert_eq!(n, 2);
        assert!(store.epoch() > e0);
    }
}
