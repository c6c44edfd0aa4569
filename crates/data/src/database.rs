//! Incomplete databases: named relations, key constraints, active domains.

use crate::error::DataError;
use crate::null::NullId;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Table metadata: the schema plus declared primary key (used by the
/// key-based simplification `R ⋉̸⇑ S → R − S` of Section 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub schema: Arc<Schema>,
    /// Names of the primary-key columns (empty if no key is declared).
    pub primary_key: Vec<String>,
}

impl TableDef {
    /// Create a table definition without a primary key.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableDef { name: name.into(), schema: schema.shared(), primary_key: Vec::new() }
    }

    /// Declare the primary key columns.
    pub fn with_key(mut self, key: &[&str]) -> Self {
        self.primary_key = key.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Whether the table declares a (non-empty) primary key.
    pub fn has_key(&self) -> bool {
        !self.primary_key.is_empty()
    }
}

/// The set of constants and nulls occurring in a database.
#[derive(Debug, Clone, Default)]
pub struct ActiveDomain {
    /// Constants, deduplicated, in deterministic order.
    pub constants: Vec<Value>,
    /// Null ids, deduplicated, in deterministic order.
    pub nulls: Vec<NullId>,
}

impl ActiveDomain {
    /// All elements of the active domain (`Const(D) ∪ Null(D)`) as values.
    pub fn elements(&self) -> Vec<Value> {
        let mut out = self.constants.clone();
        out.extend(self.nulls.iter().map(|&id| Value::Null(id)));
        out
    }

    /// Size of the active domain.
    pub fn len(&self) -> usize {
        self.constants.len() + self.nulls.len()
    }

    /// Whether the active domain is empty.
    pub fn is_empty(&self) -> bool {
        self.constants.is_empty() && self.nulls.is_empty()
    }
}

/// An incomplete database instance: a collection of named relations with
/// optional key constraints.
///
/// Relations are stored behind `Arc`s, so cloning a database is cheap — the
/// clone shares every relation (and the string pool) with the original and
/// only copies the name→relation map. Mutation through
/// [`Database::relation_mut`] is **copy-on-write**: a relation still shared
/// with another database clone is copied once, at mutation time, and only
/// that relation. This is what the snapshot storage
/// ([`crate::snapshot::SnapshotStore`]) builds on: readers pin an immutable
/// snapshot while a writer clones the database, rewrites just the touched
/// relations, and publishes the result under a bumped data version. A
/// relation's cached columns ([`Relation::column`]) travel with its `Arc`:
/// every snapshot sharing the relation shares them, and the writer's copy
/// starts without any.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Relation>>,
    defs: BTreeMap<String, TableDef>,
    schema_epoch: u64,
    version: u64,
    /// The per-database string pool: loaders intern through it so repeated
    /// strings share one allocation, and the columnar layer resolves string
    /// column ids against it. Interior-mutable, so interning works through
    /// the shared references the engine holds during execution. Shared (not
    /// copied) by `Clone`: snapshots of one database must agree on interned
    /// ids, and interning is additive, so sharing is always sound.
    pool: Arc<crate::intern::StrPool>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The database's *schema epoch*: a monotonic counter that moves only
    /// when a table definition does — a table is created, or
    /// [`Database::insert_relation`] replaces one with a different schema.
    /// Plans read the query and the catalog (schemas, nullability, keys),
    /// never the rows, so plan caches and prepared queries key on it and
    /// survive every write.
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch
    }

    /// The database's *data version*: a monotonic counter bumped by every
    /// mutating accessor, [`Database::relation_mut`] included. Snapshots,
    /// checkpoints and statistics catalogs key on it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The database's string pool (see [`crate::intern::StrPool`]).
    pub fn str_pool(&self) -> &crate::intern::StrPool {
        &self.pool
    }

    /// Intern a string through the database's pool and return it as a
    /// [`Value`]; repeated calls with equal content share one allocation.
    pub fn intern_str(&self, s: &str) -> Value {
        Value::Str(self.pool.intern(s).1)
    }

    /// Register a table definition with an empty instance.
    pub fn create_table(&mut self, def: TableDef) -> Result<()> {
        if self.tables.contains_key(&def.name) {
            return Err(DataError::DuplicateTable(def.name.clone()));
        }
        let empty = Relation::empty(def.schema.clone());
        self.install_table(def, empty);
        Ok(())
    }

    /// Add (or replace) a relation under a name. A registered definition
    /// (and its key) is kept when the relation's schema equals it; otherwise
    /// a key-less one derived from that schema replaces it.
    pub fn insert_relation(&mut self, name: impl Into<String>, relation: Relation) {
        let name = name.into();
        let def = match self.defs.get(&name) {
            Some(def) if def.schema == *relation.schema() => def.clone(),
            _ => TableDef { name, schema: relation.schema().clone(), primary_key: Vec::new() },
        };
        self.install_table(def, relation);
    }

    /// Install a table definition together with its instance, replacing any
    /// existing entry under that name; the schema epoch moves only if the
    /// definition differs. Checkpoint recovery ([`crate::wal`]) rebuilds
    /// databases through it.
    pub(crate) fn install_table(&mut self, def: TableDef, relation: Relation) {
        self.tables.insert(def.name.clone(), Arc::new(relation));
        if self.defs.get(&def.name) != Some(&def) {
            self.defs.insert(def.name.clone(), def);
            self.schema_epoch += 1;
        }
        self.version += 1;
    }

    /// Restore the data version a checkpoint recorded ([`crate::wal`]), so
    /// recovery never rewinds the version clients were acknowledged with.
    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Replace the whole database by `next`, as a replica bootstrap does.
    /// The data version never rewinds. The schema epoch stays put when
    /// `next` defines the same tables, and otherwise moves past both sides,
    /// so a plan compiled against either schema never matches the result.
    pub(crate) fn replace(&mut self, next: Database) {
        let version = self.version.max(next.version);
        let schema_epoch = if self.defs == next.defs {
            self.schema_epoch
        } else {
            self.schema_epoch.max(next.schema_epoch) + 1
        };
        *self = Database { schema_epoch, version, ..next };
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(name)
            .map(|r| r.as_ref())
            .ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a relation's rows by name. Bumps the data version
    /// (the caller receives the power to change the rows), never the schema
    /// epoch: the caller must not change the relation's schema —
    /// [`Database::insert_relation`] is the way to do that. Copy-on-write:
    /// if the relation is still shared with another database clone (e.g. a
    /// pinned snapshot), it is copied first, so the sharers never observe
    /// the mutation.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        match self.tables.get_mut(name) {
            Some(rel) => {
                self.version += 1;
                Ok(Arc::make_mut(rel))
            }
            None => Err(DataError::UnknownTable(name.to_string())),
        }
    }

    /// Append `rows` to `table`, all or nothing: the table lookup and every
    /// row's arity are checked before anything is written, so a bad batch
    /// leaves the rows and the version untouched.
    pub fn append(&mut self, table: &str, rows: &[Tuple]) -> Result<()> {
        self.check_rows(table, rows)?;
        let rel = self.relation_mut(table)?;
        for row in rows {
            rel.insert(row.clone())?;
        }
        Ok(())
    }

    /// Check that `rows` fit `table` — it exists and every row has its
    /// arity — without writing anything or copying the relation.
    pub(crate) fn check_rows(&self, table: &str, rows: &[Tuple]) -> Result<()> {
        let expected = self.relation(table)?.arity();
        match rows.iter().find(|row| row.len() != expected) {
            Some(row) => Err(DataError::ArityMismatch { expected, found: row.len() }),
            None => Ok(()),
        }
    }

    /// Look up a table definition by name.
    pub fn table_def(&self, name: &str) -> Result<&TableDef> {
        self.defs.get(name).ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, in deterministic order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// All table definitions.
    pub fn table_defs(&self) -> impl Iterator<Item = &TableDef> {
        self.defs.values()
    }

    /// Whether a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(|r| r.len()).sum()
    }

    /// Whether any table contains a null (i.e. the database is incomplete).
    pub(crate) fn has_nulls(&self) -> bool {
        self.tables.values().any(|r| r.has_nulls())
    }

    /// Whether the database is complete (null-free).
    pub fn is_complete(&self) -> bool {
        !self.has_nulls()
    }

    /// Compute the active domain `adom(D) = Const(D) ∪ Null(D)`.
    pub fn active_domain(&self) -> ActiveDomain {
        let mut constants: HashSet<Value> = HashSet::new();
        let mut nulls: HashSet<NullId> = HashSet::new();
        for rel in self.tables.values() {
            constants.extend(rel.constants());
            nulls.extend(rel.null_ids());
        }
        let mut constants: Vec<Value> = constants.into_iter().collect();
        constants.sort();
        let mut nulls: Vec<NullId> = nulls.into_iter().collect();
        nulls.sort();
        ActiveDomain { constants, nulls }
    }

    /// All null ids occurring anywhere in the database.
    pub fn null_ids(&self) -> Vec<NullId> {
        self.active_domain().nulls
    }

    /// Apply a valuation to every relation, producing (for a total valuation)
    /// one of the complete databases this instance represents.
    pub fn apply(&self, v: &Valuation) -> Database {
        let mut out = Database::new();
        for (name, def) in &self.defs {
            out.defs.insert(name.clone(), def.clone());
        }
        for (name, rel) in &self.tables {
            out.tables.insert(name.clone(), Arc::new(rel.apply(v)));
        }
        out
    }

    /// Validate that non-nullable columns contain no nulls and that declared
    /// primary keys are key-like on the constant part (no two tuples share
    /// the same ground key).
    pub fn validate(&self) -> Result<()> {
        for (name, rel) in &self.tables {
            let def = &self.defs[name];
            for t in rel.iter() {
                for (i, v) in t.values().iter().enumerate() {
                    if v.is_null() && !rel.schema().attr(i).nullable {
                        return Err(DataError::NullInNonNullable {
                            table: name.clone(),
                            column: rel.schema().attr(i).name.clone(),
                        });
                    }
                }
            }
            if def.has_key() {
                let positions = rel
                    .schema()
                    .positions_of(&def.primary_key)
                    .map_err(|e| DataError::Invalid(format!("bad key on {name}: {e}")))?;
                let mut seen = HashSet::new();
                for t in rel.iter() {
                    let key = t.project(&positions);
                    if key.is_ground() && !seen.insert(key) {
                        return Err(DataError::Invalid(format!(
                            "primary key violated in table {name}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.tables {
            writeln!(f, "{name}: {} tuples", rel.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::rel;
    use crate::column::{Column, ColumnData};
    use crate::schema::Attribute;
    use crate::types::ValueType;
    use std::borrow::Cow;

    fn db_with_r() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Null(NullId(1))],
                    vec![Value::Int(2), Value::Int(3)],
                ],
            ),
        );
        db
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        let def = TableDef::new("t", Schema::of_names(&["x"])).with_key(&["x"]);
        db.create_table(def.clone()).unwrap();
        assert!(db.has_table("t"));
        assert!(db.create_table(def).is_err());
        assert!(db.relation("missing").is_err());
        assert_eq!(db.table_def("t").unwrap().primary_key, vec!["x"]);
    }

    #[test]
    fn active_domain_collects_constants_and_nulls() {
        let db = db_with_r();
        let adom = db.active_domain();
        assert_eq!(adom.nulls, vec![NullId(1)]);
        assert_eq!(adom.constants.len(), 3);
        assert_eq!(adom.len(), 4);
        assert!(db.has_nulls());
        assert!(!db.is_complete());
    }

    #[test]
    fn apply_valuation_completes_database() {
        let db = db_with_r();
        let mut v = Valuation::new();
        v.set(NullId(1), Value::Int(42));
        let complete = db.apply(&v);
        assert!(complete.is_complete());
        assert_eq!(complete.relation("r").unwrap().len(), 2);
    }

    #[test]
    fn validate_rejects_null_in_non_nullable() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::not_null("k", ValueType::Int),
            Attribute::new("v", ValueType::Int),
        ]);
        let mut r = Relation::empty(schema.shared());
        r.insert_values(vec![Value::Null(NullId(9)), Value::Int(1)]).unwrap();
        db.insert_relation("t", r);
        assert!(matches!(db.validate(), Err(DataError::NullInNonNullable { .. })));
    }

    #[test]
    fn validate_rejects_duplicate_keys() {
        let mut db = Database::new();
        let def = TableDef::new("t", Schema::of_names(&["k", "v"])).with_key(&["k"]);
        db.create_table(def).unwrap();
        let r = db.relation_mut("t").unwrap();
        r.insert_values(vec![Value::Int(1), Value::Int(10)]).unwrap();
        r.insert_values(vec![Value::Int(1), Value::Int(20)]).unwrap();
        assert!(db.validate().is_err());
    }

    #[test]
    fn schema_epoch_tracks_mutations() {
        let mut db = Database::new();
        assert_eq!((db.schema_epoch(), db.version()), (0, 0));
        db.create_table(TableDef::new("t", Schema::of_names(&["x"]))).unwrap();
        assert_eq!((db.schema_epoch(), db.version()), (1, 1));
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        assert_eq!((db.schema_epoch(), db.version()), (2, 2));
        // Failed mutations leave both counters alone…
        assert!(db.create_table(TableDef::new("t", Schema::of_names(&["x"]))).is_err());
        assert!(db.relation_mut("missing").is_err());
        assert!(db.append("r", &[Tuple::new(vec![Value::Int(2), Value::Int(3)])]).is_err());
        assert_eq!((db.schema_epoch(), db.version()), (2, 2));
        // …writes to the rows move the data version only…
        db.relation_mut("r").unwrap().insert_values(vec![Value::Int(2)]).unwrap();
        db.append("r", &[Tuple::new(vec![Value::Int(3)])]).unwrap();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(4)]]));
        assert_eq!((db.schema_epoch(), db.version()), (2, 5));
        // …and read-only accessors move neither.
        let _ = db.relation("r").unwrap();
        let _ = db.active_domain();
        assert_eq!((db.schema_epoch(), db.version()), (2, 5));
    }

    #[test]
    fn replacing_a_relation_with_another_schema_replaces_its_definition() {
        let mut db = Database::new();
        db.create_table(TableDef::new("r", Schema::of_names(&["a"])).with_key(&["a"])).unwrap();
        // The same schema keeps the definition, key included.
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        assert_eq!(db.table_def("r").unwrap().primary_key, vec!["a"]);
        assert_eq!(db.schema_epoch(), 1);
        // Another schema replaces it, key-less, and moves the schema epoch.
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        let def = db.table_def("r").unwrap();
        assert_eq!(def.schema, *db.relation("r").unwrap().schema());
        assert!(!def.has_key());
        assert_eq!(db.schema_epoch(), 2);
    }

    #[test]
    fn replacing_the_database_keeps_the_version_and_moves_the_epoch_on_a_new_schema() {
        let mut db = db_with_r();
        db.relation_mut("r").unwrap().insert_values([Value::Int(5), Value::Int(6)]).unwrap();
        let (epoch, version) = (db.schema_epoch(), db.version());
        // Same tables: the schema epoch stays put and the version never rewinds.
        db.replace(db_with_r());
        assert_eq!((db.schema_epoch(), db.version()), (epoch, version));
        // Another schema: the epoch moves past both sides.
        let mut other = Database::new();
        for name in ["p", "q", "s"] {
            other.insert_relation(name, rel(&["x"], vec![]));
        }
        let (theirs, their_version) = (other.schema_epoch(), other.version());
        assert!(theirs > epoch && their_version > version);
        db.replace(other);
        assert_eq!((db.schema_epoch(), db.version()), (theirs + 1, their_version));
        assert_eq!(db.table_names(), vec!["p", "q", "s"]);
    }

    #[test]
    fn intern_str_shares_allocations() {
        let db = Database::new();
        let a = db.intern_str("FURNITURE");
        let b = db.intern_str("FURNITURE");
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(std::sync::Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
        assert_eq!(db.str_pool().len(), 1);
        // Cloning the database keeps the pool (and its allocations).
        let copy = db.clone();
        assert!(copy.str_pool().lookup("FURNITURE").is_some());
    }

    #[test]
    fn clone_shares_relations_until_mutation() {
        let db = db_with_r();
        let mut copy = db.clone();
        // The clone shares the relation allocation…
        assert!(Arc::ptr_eq(&db.tables["r"], &copy.tables["r"]));
        // …until it is mutated, which copies just that relation.
        copy.relation_mut("r").unwrap().insert_values(vec![Value::Int(5), Value::Int(6)]).unwrap();
        assert!(!Arc::ptr_eq(&db.tables["r"], &copy.tables["r"]));
        assert_eq!(db.relation("r").unwrap().len(), 2);
        assert_eq!(copy.relation("r").unwrap().len(), 3);
    }

    /// The cached column behind a borrow (the cache never hands out a copy
    /// to the pool it was filled under).
    fn cached<'a>(db: &'a Database, name: &str, pos: usize) -> &'a Column {
        match db.relation(name).unwrap().column(pos, db.str_pool()) {
            Cow::Borrowed(col) => col,
            Cow::Owned(_) => panic!("{name}.{pos} was extracted without the cache"),
        }
    }

    #[test]
    fn clones_share_cached_columns_until_copy_on_write() {
        let db = db_with_r();
        let col = cached(&db, "r", 0);
        let mut copy = db.clone();
        assert!(std::ptr::eq(col, cached(&copy, "r", 0)), "a snapshot shares the cache");
        copy.relation_mut("r").unwrap().insert_values([Value::Int(5), Value::Int(6)]).unwrap();
        // The writer's copy starts empty and sees its insert…
        assert_eq!(cached(&copy, "r", 0).len(), 3);
        // …while the other snapshot keeps the very column it had.
        assert!(std::ptr::eq(col, cached(&db, "r", 0)));
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn a_relation_moved_to_another_pool_is_not_read_through_the_old_ids() {
        let rows = ["x", "y", "x"].map(|s| vec![Value::str(s)]).to_vec();
        let mut first = Database::new();
        first.insert_relation("t", rel(&["s"], rows));
        // Cached under the first pool, which numbered "x" 0 and "y" 1.
        cached(&first, "t", 0);
        let shared = first.tables.remove("t").unwrap();
        drop(first);
        let moved = Arc::try_unwrap(shared).expect("the only handle left");
        let mut second = Database::new();
        second.intern_str("y");
        second.intern_str("x");
        second.insert_relation("t", moved);
        // `s = 'x'` the way the vectorized filter evaluates it: the
        // constant's id in the database's pool against the column's ids.
        let want = second.str_pool().lookup("x");
        let col = second.relation("t").unwrap().column(0, second.str_pool());
        let ColumnData::Str(ids) = col.data() else { panic!("a string column: {col:?}") };
        let hits: Vec<usize> = (0..ids.len()).filter(|&i| Some(ids[i]) == want).collect();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn total_tuples_counts_all_tables() {
        let mut db = db_with_r();
        db.insert_relation("s", rel(&["x"], vec![vec![Value::Int(9)]]));
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.table_names(), vec!["r", "s"]);
    }
}
