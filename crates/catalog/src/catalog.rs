//! The catalog: tables, their storage, their indexes, their statistics.
//!
//! # Versions and snapshots
//!
//! The catalog is a sequence of immutable versions. A version is a pinned
//! [`Catalog`] holding one namespace (the table and index-name maps), and
//! nothing in it changes once it is published. The live catalog keeps the
//! current version behind one lock, so [`Catalog::snapshot`] is one `Arc`
//! clone: a statement plans and runs against that version whatever DDL
//! commits after it.
//!
//! A mutator reads the current version, does its heap and B+-tree I/O with
//! no lock held, builds the next version aside (a changed table gets a new
//! [`TableInfo`] sharing the old one's heap and trees) and swaps it in under
//! the lock. The swap is refused if another writer published first, which
//! the engine's commit lock rules out. A pinned version refuses every
//! mutator.
//!
//! Heap and index *pages* are shared storage — snapshot isolation here is
//! catalog-level (schemas, index lists, statistics), while row visibility
//! is read-committed at page granularity (see DESIGN.md §11.2).

use std::collections::HashMap;
use std::sync::Arc;

use evopt_common::{lockorder, EvoptError, Result, Schema};
use evopt_storage::{BTreeIndex, BufferPool, HeapFile, PageId};
use parking_lot::Mutex;

use crate::stats::TableStats;

/// A registered B+-tree index on one column of a table.
pub struct IndexInfo {
    /// Index name (unique per catalog).
    pub name: String,
    /// Owning table name.
    pub table: String,
    /// Column ordinal in the table schema the index keys on.
    pub column: usize,
    /// Whether the heap is physically ordered by this key (set by the
    /// engine when the load was sorted). A clustered range scan touches
    /// `sel × P(R)` heap pages; an unclustered one up to one page per match.
    pub clustered: bool,
    /// Whether keys are unique (the optimizer caps equality matches at 1).
    pub unique: bool,
    /// The tree itself.
    pub btree: Arc<BTreeIndex>,
}

/// A registered table: schema + heap + indexes + statistics. Immutable once
/// published: index DDL and ANALYZE publish a new `TableInfo` that shares
/// this one's heap and trees.
#[derive(Clone)]
pub struct TableInfo {
    pub name: String,
    pub schema: Schema,
    pub heap: Arc<HeapFile>,
    indexes: Vec<Arc<IndexInfo>>,
    stats: Option<Arc<TableStats>>,
}

impl std::fmt::Debug for TableInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableInfo")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .finish()
    }
}

impl TableInfo {
    /// All indexes on this table, in creation order.
    pub fn indexes(&self) -> &[Arc<IndexInfo>] {
        &self.indexes
    }

    /// Statistics from the last ANALYZE, if any.
    pub fn stats(&self) -> Option<&Arc<TableStats>> {
        self.stats.as_ref()
    }
}

/// What one version holds: the tables by lower-cased name. Index names
/// are unique across the catalog and live on their tables.
type Namespace = HashMap<String, Arc<TableInfo>>;

/// The namespace of tables and indexes. Thread-safe; shared via `Arc`.
pub struct Catalog {
    pool: Arc<BufferPool>,
    role: Role,
}

enum Role {
    /// The catalog writers publish to: the current version, behind rank
    /// [`lockorder::CATALOG`].
    Live(Mutex<Arc<Catalog>>),
    /// One published version, read without a lock.
    Pinned(Arc<Namespace>),
}

impl Catalog {
    pub fn new(pool: Arc<BufferPool>) -> Catalog {
        let first = Catalog::pinned(&pool, Arc::default());
        Catalog {
            pool,
            role: Role::Live(Mutex::new(first)),
        }
    }

    fn pinned(pool: &Arc<BufferPool>, namespace: Arc<Namespace>) -> Arc<Catalog> {
        Arc::new(Catalog {
            pool: Arc::clone(pool),
            role: Role::Pinned(namespace),
        })
    }

    /// The buffer pool tables in this catalog allocate from.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The version as of now: the current one, or this one when it is a
    /// version itself. It answers every read (`table`, `tables`, `pool`)
    /// and refuses every mutator.
    pub fn snapshot(&self) -> Arc<Catalog> {
        match &self.role {
            Role::Live(current) => {
                let _r = lockorder::acquire(lockorder::CATALOG);
                Arc::clone(&current.lock())
            }
            Role::Pinned(namespace) => Catalog::pinned(&self.pool, Arc::clone(namespace)),
        }
    }

    /// Run `f` on the namespace this catalog reads: its own when pinned,
    /// the current version's when live.
    fn read<T>(&self, f: impl FnOnce(&Namespace) -> T) -> T {
        match &self.role {
            Role::Live(_) => self.snapshot().read(f),
            Role::Pinned(namespace) => f(namespace),
        }
    }

    /// Start a mutation on the current version. The one place a pinned
    /// version refuses a mutator.
    fn writer(&self) -> Result<Writer<'_>> {
        match &self.role {
            Role::Live(slot) => Ok(Writer {
                slot,
                base: self.snapshot(),
            }),
            Role::Pinned(_) => Err(EvoptError::Catalog("catalog snapshot is read-only".into())),
        }
    }

    /// Create an empty table. Names are case-insensitive.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<TableInfo>> {
        self.register_table(name, schema, HeapFile::create)
    }

    /// Re-register a table whose pages already exist on disk (crash
    /// recovery): the heap is *opened* at `first_page`, not created.
    /// Statistics start empty — they are advisory and recovery re-ANALYZEs.
    pub fn restore_table(
        &self,
        name: &str,
        schema: Schema,
        first_page: PageId,
    ) -> Result<Arc<TableInfo>> {
        self.register_table(name, schema, |pool| HeapFile::open(pool, first_page))
    }

    fn register_table(
        &self,
        name: &str,
        schema: Schema,
        heap: impl FnOnce(Arc<BufferPool>) -> Result<HeapFile>,
    ) -> Result<Arc<TableInfo>> {
        let w = self.writer()?;
        let key = name.to_ascii_lowercase();
        if w.base.read(|ns| ns.contains_key(&key)) {
            return Err(EvoptError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let info = Arc::new(TableInfo {
            heap: Arc::new(heap(Arc::clone(&self.pool))?),
            schema: schema.with_qualifier(&key),
            name: key,
            indexes: Vec::new(),
            stats: None,
        });
        w.publish(|ns| ns.insert(info.name.clone(), Arc::clone(&info)))?;
        Ok(info)
    }

    /// Drop a table and its indexes from the namespace. (Pages are not
    /// reclaimed — the simulated disk is monotonic; see evopt-storage.)
    /// Snapshots cut earlier keep the table queryable.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let w = self.writer()?;
        let key = w.base.table(name)?.name.clone();
        w.publish(|ns| ns.remove(&key))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        self.read(|ns| ns.get(&name.to_ascii_lowercase()).cloned())
            .ok_or_else(|| EvoptError::Catalog(format!("unknown table '{name}'")))
    }

    /// All tables, sorted by name (deterministic iteration for EXPLAIN etc).
    pub fn tables(&self) -> Vec<Arc<TableInfo>> {
        let mut v: Vec<_> = self.read(|ns| ns.values().cloned().collect());
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Create a B+-tree index on `table_name.column_name` and bulk-build it
    /// from the current heap contents. Snapshots cut before the call never
    /// see it. (Callers racing writers must hold the engine commit lock —
    /// the bulk build scans the heap unlocked.)
    pub fn create_index(
        &self,
        index_name: &str,
        table_name: &str,
        column_name: &str,
        unique: bool,
        clustered: bool,
    ) -> Result<Arc<IndexInfo>> {
        self.register_index(index_name, table_name, unique, clustered, |table, pool| {
            let column = table.schema.resolve(None, column_name).map_err(|_| {
                EvoptError::Catalog(format!(
                    "unknown column '{column_name}' on table '{table_name}'"
                ))
            })?;
            let btree = BTreeIndex::create(pool)?;
            for item in table.heap.scan() {
                let (rid, tuple) = item?;
                let key = tuple.value(column)?;
                if !key.is_null() {
                    btree.insert(key, rid)?;
                }
            }
            Ok((column, btree))
        })
    }

    /// Re-register an index whose B+-tree already exists on disk (crash
    /// recovery): the tree is *opened* at `meta_page`, not rebuilt, and the
    /// key column is given by ordinal (the recovered schema's order).
    pub fn restore_index(
        &self,
        index_name: &str,
        table_name: &str,
        column: usize,
        unique: bool,
        clustered: bool,
        meta_page: PageId,
    ) -> Result<Arc<IndexInfo>> {
        self.register_index(index_name, table_name, unique, clustered, |table, pool| {
            if column >= table.schema.columns().len() {
                return Err(EvoptError::Catalog(format!(
                    "index '{index_name}' keys on column {column} but table '{table_name}' has {}",
                    table.schema.columns().len()
                )));
            }
            Ok((column, BTreeIndex::open(pool, meta_page)?))
        })
    }

    /// Register the index `tree` builds or opens on `table_name`, with the
    /// index name checked first.
    fn register_index(
        &self,
        index_name: &str,
        table_name: &str,
        unique: bool,
        clustered: bool,
        tree: impl FnOnce(&TableInfo, Arc<BufferPool>) -> Result<(usize, BTreeIndex)>,
    ) -> Result<Arc<IndexInfo>> {
        let w = self.writer()?;
        let name = index_name.to_ascii_lowercase();
        let taken = |ns: &Namespace| {
            ns.values()
                .any(|t| t.indexes.iter().any(|i| i.name == name))
        };
        if w.base.read(taken) {
            return Err(EvoptError::Catalog(format!(
                "index '{index_name}' already exists"
            )));
        }
        let table = w.base.table(table_name)?;
        let (column, btree) = tree(&table, Arc::clone(&self.pool))?;
        let index = Arc::new(IndexInfo {
            name,
            table: table.name.clone(),
            column,
            clustered,
            unique,
            btree: Arc::new(btree),
        });
        let mut entry = TableInfo::clone(&table);
        entry.indexes.push(Arc::clone(&index));
        w.publish(|ns| ns.insert(entry.name.clone(), Arc::new(entry)))?;
        Ok(index)
    }

    /// Publish fresh statistics for `table_name`. Snapshots cut before the
    /// call keep planning with the old ones.
    pub fn install_stats(&self, table_name: &str, stats: Arc<TableStats>) -> Result<()> {
        let w = self.writer()?;
        let mut entry = TableInfo::clone(&*w.base.table(table_name)?);
        entry.stats = Some(stats);
        w.publish(|ns| ns.insert(entry.name.clone(), Arc::new(entry)))
    }
}

/// A mutation in progress: the version it read, and the live slot its
/// successor goes into.
struct Writer<'a> {
    slot: &'a Mutex<Arc<Catalog>>,
    base: Arc<Catalog>,
}

impl Writer<'_> {
    /// Swap in the base version with `edit` applied. The new version is
    /// built before the lock is taken; under it happen only the check that
    /// the base is still current and the pointer swap.
    fn publish<T>(self, edit: impl FnOnce(&mut Namespace) -> T) -> Result<()> {
        let mut next = self.base.read(Namespace::clone);
        edit(&mut next);
        let next = Catalog::pinned(&self.base.pool, Arc::new(next));
        let _r = lockorder::acquire(lockorder::CATALOG);
        let mut current = self.slot.lock();
        if !Arc::ptr_eq(&current, &self.base) {
            return Err(EvoptError::Catalog(
                "the catalog changed during this DDL: catalog writers must serialize".into(),
            ));
        }
        *current = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_common::{Column, DataType, Tuple, Value};
    use evopt_storage::DiskManager;

    fn mkcatalog() -> Catalog {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        Catalog::new(pool)
    }

    fn two_col_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("name", DataType::Str),
        ])
    }

    fn stats(row_count: u64) -> Arc<TableStats> {
        Arc::new(TableStats {
            row_count,
            ..Default::default()
        })
    }

    #[test]
    fn create_and_lookup_table() {
        let cat = mkcatalog();
        let t = cat.create_table("Users", two_col_schema()).unwrap();
        assert_eq!(t.name, "users");
        // Case-insensitive lookup, schema qualified with table name.
        let got = cat.table("USERS").unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(got.schema.resolve(Some("users"), "id").unwrap(), 0);
    }

    #[test]
    fn duplicate_table_is_error() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        let e = cat.create_table("T", two_col_schema()).unwrap_err();
        assert_eq!(e.kind(), "catalog");
    }

    #[test]
    fn unknown_table_is_error() {
        let cat = mkcatalog();
        assert!(cat.table("nope").is_err());
        assert!(cat.drop_table("nope").is_err());
    }

    #[test]
    fn drop_table_removes_indexes_from_namespace() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        t.heap
            .insert(&Tuple::new(vec![Value::Int(1), Value::Str("a".into())]))
            .unwrap();
        cat.create_index("idx_t_id", "t", "id", true, false)
            .unwrap();
        let before = cat.snapshot();
        cat.drop_table("t").unwrap();
        // Index name is reusable after the drop.
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("idx_t_id", "t", "id", true, false)
            .unwrap();
        // A snapshot cut before the drop still resolves the old table and
        // scans its index.
        let old = before.table("t").unwrap();
        assert!(Arc::ptr_eq(&old.heap, &t.heap));
        let hits = old.indexes()[0].btree.search_eq(&Value::Int(1)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn index_build_covers_existing_rows() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        for i in 0..100 {
            t.heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("n{i}")),
                ]))
                .unwrap();
        }
        let idx = cat.create_index("idx", "t", "id", true, false).unwrap();
        assert_eq!(idx.btree.entry_count().unwrap(), 100);
        let hits = idx.btree.search_eq(&Value::Int(42)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            t.heap.get(hits[0]).unwrap().unwrap().value(0).unwrap(),
            &Value::Int(42)
        );
    }

    #[test]
    fn index_skips_nulls() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        t.heap
            .insert(&Tuple::new(vec![Value::Null, Value::Str("x".into())]))
            .unwrap();
        t.heap
            .insert(&Tuple::new(vec![Value::Int(1), Value::Str("y".into())]))
            .unwrap();
        let idx = cat.create_index("idx", "t", "id", false, false).unwrap();
        assert_eq!(idx.btree.entry_count().unwrap(), 1);
    }

    #[test]
    fn duplicate_index_name_and_bad_column_error() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i", "t", "id", false, false).unwrap();
        assert!(cat.create_index("I", "t", "name", false, false).is_err());
        assert!(cat.create_index("j", "t", "nope", false, false).is_err());
        assert!(cat
            .create_index("k", "missing", "id", false, false)
            .is_err());
    }

    #[test]
    fn indexes_list_in_creation_order() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i_id", "t", "id", false, false).unwrap();
        cat.create_index("i_name", "t", "name", false, false)
            .unwrap();
        // Index DDL publishes a new entry: re-fetch to see the result.
        let t = cat.table("t").unwrap();
        let keyed: Vec<_> = t
            .indexes()
            .iter()
            .map(|i| (i.name.as_str(), i.column))
            .collect();
        assert_eq!(keyed, [("i_id", 0), ("i_name", 1)]);
    }

    #[test]
    fn index_ddl_publishes_a_new_entry() {
        let cat = mkcatalog();
        let before = cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i", "t", "id", false, false).unwrap();
        // The Arc held from before the DDL is untouched; the live entry
        // carries the index and shares the same heap.
        assert_eq!(before.indexes().len(), 0);
        let after = cat.table("t").unwrap();
        assert_eq!(after.indexes().len(), 1);
        assert_eq!(after.name, before.name);
        assert!(Arc::ptr_eq(&after.heap, &before.heap));
    }

    #[test]
    fn install_stats_publishes_a_new_entry() {
        let cat = mkcatalog();
        let before = cat.create_table("t", two_col_schema()).unwrap();
        cat.install_stats("t", stats(7)).unwrap();
        assert!(before.stats().is_none());
        assert_eq!(cat.table("t").unwrap().stats().unwrap().row_count, 7);
        assert!(cat.install_stats("missing", stats(0)).is_err());
    }

    #[test]
    fn snapshots_without_mutation_share_one_version() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        let a = cat.snapshot();
        let b = cat.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        // Reads on the live catalog publish nothing.
        cat.table("t").unwrap();
        cat.tables();
        assert!(Arc::ptr_eq(&a, &cat.snapshot()));
    }

    /// The live catalog's `version()` counter is gone: a snapshot *is* the
    /// version it pins, so "pinned" and "moved on" are `Arc` identities.
    #[test]
    fn snapshot_is_stable_across_ddl() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        t.heap
            .insert(&Tuple::new(vec![Value::Int(1), Value::Str("a".into())]))
            .unwrap();
        let snap = cat.snapshot();

        cat.create_index("i", "t", "id", false, false).unwrap();
        cat.install_stats("t", stats(1)).unwrap();
        cat.create_table("u", two_col_schema()).unwrap();
        cat.drop_table("t").unwrap();

        // The snapshot still sees the pre-DDL world: table 't' present with
        // no indexes and no stats, table 'u' absent, version pinned.
        let st = snap.table("t").unwrap();
        assert_eq!(st.indexes().len(), 0);
        assert!(st.stats().is_none());
        assert!(snap.table("u").is_err());
        assert!(Arc::ptr_eq(&snap.snapshot().table("t").unwrap(), &st));
        assert_eq!(st.heap.scan().count(), 1, "dropped table stays readable");

        // The live catalog moved on.
        assert!(cat.table("t").is_err());
        assert!(cat.table("u").is_ok());
        assert!(!Arc::ptr_eq(&cat.snapshot(), &snap));
    }

    /// A snapshot has no read-only flag left to query: it is a published
    /// version, identical to a second snapshot cut with no mutation between.
    #[test]
    fn snapshot_rejects_mutation() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        let snap = cat.snapshot();
        assert!(Arc::ptr_eq(&snap, &cat.snapshot()));
        assert!(snap.create_table("u", two_col_schema()).is_err());
        assert!(snap.drop_table("t").is_err());
        assert!(snap.create_index("i", "t", "id", false, false).is_err());
        assert!(snap.restore_table("u", two_col_schema(), 1).is_err());
        assert!(snap.restore_index("i", "t", 0, false, false, 1).is_err());
        assert!(snap.install_stats("t", stats(0)).is_err());
        // Reads still work.
        assert!(snap.table("t").is_ok());
        assert_eq!(snap.tables().len(), 1);
        // And the live catalog never saw the attempts.
        assert!(Arc::ptr_eq(&snap, &cat.snapshot()));
    }

    #[test]
    fn every_mutation_publishes_a_new_version() {
        let cat = mkcatalog();
        let v0 = cat.snapshot();
        cat.create_table("t", two_col_schema()).unwrap();
        let v1 = cat.snapshot();
        assert!(!Arc::ptr_eq(&v1, &v0));
        cat.create_index("i", "t", "id", false, false).unwrap();
        let v2 = cat.snapshot();
        assert!(!Arc::ptr_eq(&v2, &v1));
        cat.install_stats("t", stats(0)).unwrap();
        let v3 = cat.snapshot();
        assert!(!Arc::ptr_eq(&v3, &v2));
        cat.drop_table("t").unwrap();
        assert!(!Arc::ptr_eq(&cat.snapshot(), &v3));
    }

    #[test]
    fn failed_ddl_leaves_the_published_version_identical() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        let idx = cat.create_index("i", "t", "id", false, false).unwrap();
        let v = cat.snapshot();
        let failures = [
            (
                "duplicate table",
                cat.create_table("T", two_col_schema()).err(),
            ),
            (
                "duplicate index name",
                cat.create_index("I", "t", "name", false, false).err(),
            ),
            (
                "unknown column",
                cat.create_index("j", "t", "nope", false, false).err(),
            ),
            (
                "unknown table",
                cat.create_index("k", "missing", "id", false, false).err(),
            ),
            ("drop unknown table", cat.drop_table("missing").err()),
            (
                "restore_index out-of-range column",
                cat.restore_index("r", "t", 9, false, false, idx.btree.meta_page())
                    .err(),
            ),
            (
                "restore duplicate table",
                cat.restore_table("t", two_col_schema(), t.heap.first_page())
                    .err(),
            ),
        ];
        for (what, err) in failures {
            assert_eq!(err.map(|e| e.kind()), Some("catalog"), "{what}");
            assert!(Arc::ptr_eq(&cat.snapshot(), &v), "{what} published");
        }
    }

    #[test]
    fn restore_reopens_existing_storage() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = Catalog::new(Arc::clone(&pool));
        let t = cat.create_table("t", two_col_schema()).unwrap();
        for i in 0..50 {
            t.heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("n{i}")),
                ]))
                .unwrap();
        }
        let idx = cat.create_index("idx", "t", "id", true, false).unwrap();
        let (first_page, meta_page) = (t.heap.first_page(), idx.btree.meta_page());
        drop((t, idx));

        // A second catalog over the same pool: restore instead of create.
        let cat2 = Catalog::new(pool);
        let rt = cat2
            .restore_table("t", two_col_schema(), first_page)
            .unwrap();
        let ri = cat2
            .restore_index("idx", "t", 0, true, false, meta_page)
            .unwrap();
        assert_eq!(rt.heap.scan().count(), 50);
        assert_eq!(ri.btree.entry_count().unwrap(), 50);
        assert!(rt.stats().is_none(), "stats are not carried by restore");
        // Restored names occupy the namespace like created ones.
        assert!(cat2
            .restore_table("T", two_col_schema(), first_page)
            .is_err());
        assert!(cat2
            .restore_index("IDX", "t", 0, true, false, meta_page)
            .is_err());
        // Column ordinal out of range is typed.
        assert!(cat2
            .restore_index("idx2", "t", 9, false, false, meta_page)
            .is_err());
    }

    #[test]
    fn tables_listing_sorted() {
        let cat = mkcatalog();
        cat.create_table("zeta", two_col_schema()).unwrap();
        cat.create_table("alpha", two_col_schema()).unwrap();
        let names: Vec<_> = cat.tables().iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
