//! The catalog: tables, their storage, their indexes, their statistics.
//!
//! # Snapshots and copy-on-write
//!
//! The catalog is the root of every statement's view of the database, and
//! the multi-session engine lets DDL run concurrently with reads. Readers
//! therefore never plan against the live catalog: they take a
//! [`Catalog::snapshot`] — a cheap *frozen* clone of the two namespace maps
//! (table entries are shared `Arc<TableInfo>`s, so a snapshot costs one map
//! clone, not a data copy). The snapshot stays stable for the life of the
//! statement no matter what DDL commits after it.
//!
//! For that stability to hold, mutators never edit a published
//! `TableInfo` in place. `create_index`, `restore_index` and
//! [`Catalog::install_stats`] are **copy-on-write**: they build a fresh
//! `TableInfo` (sharing the heap `Arc`) with the updated index list or
//! stats slot and swap the map entry, so older snapshots keep the old
//! roots. `create_table`/`drop_table` only insert/remove map entries,
//! which cloned maps are immune to by construction.
//!
//! A monotone version counter stamps every successful mutation; snapshots
//! pin the version they were cut at. Frozen catalogs reject all mutators.
//!
//! Heap and index *pages* are shared storage — snapshot isolation here is
//! catalog-level (schemas, index lists, statistics), while row visibility
//! is read-committed at page granularity (see DESIGN.md §11.2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A registered table: schema + heap + indexes + statistics.
///
/// Published `TableInfo`s are immutable in spirit: catalog mutators replace
/// the whole entry (copy-on-write) rather than editing the index list or
/// stats slot of an `Arc` that snapshots may share. The interior mutexes
/// remain for the direct-embedding use case (tests and benches that drive a
/// bare `Catalog` with no snapshots in flight).
pub struct TableInfo {
    pub id: u64,
    pub name: String,
    pub schema: Schema,
    pub heap: Arc<HeapFile>,
    indexes: Mutex<Vec<Arc<IndexInfo>>>,
    stats: Mutex<Option<Arc<TableStats>>>,
}

impl std::fmt::Debug for TableInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableInfo")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("schema", &self.schema)
            .finish()
    }
}

impl TableInfo {
    /// All indexes on this table.
    pub fn indexes(&self) -> Vec<Arc<IndexInfo>> {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        self.indexes.lock().clone()
    }

    /// Indexes keyed on `column`.
    pub fn indexes_on(&self, column: usize) -> Vec<Arc<IndexInfo>> {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        self.indexes
            .lock()
            .iter()
            .filter(|i| i.column == column)
            .cloned()
            .collect()
    }

    /// Statistics from the last ANALYZE, if any.
    pub fn stats(&self) -> Option<Arc<TableStats>> {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        self.stats.lock().clone()
    }

    /// Install fresh statistics in place. Direct-embedding convenience; the
    /// engine's ANALYZE goes through [`Catalog::install_stats`] instead so
    /// concurrent snapshots keep their stats view.
    pub fn set_stats(&self, stats: TableStats) {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        *self.stats.lock() = Some(Arc::new(stats));
    }

    fn add_index(&self, index: Arc<IndexInfo>) {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        self.indexes.lock().push(index);
    }

    /// Copy-on-write clone: same identity and storage roots, fresh metadata
    /// slots so mutating the clone leaves `self` (and any snapshot holding
    /// it) untouched.
    fn cow_clone(&self) -> TableInfo {
        let _r = lockorder::acquire(lockorder::TABLE_META);
        TableInfo {
            id: self.id,
            name: self.name.clone(),
            schema: self.schema.clone(),
            heap: Arc::clone(&self.heap),
            indexes: Mutex::new(self.indexes.lock().clone()),
            stats: Mutex::new(self.stats.lock().clone()),
        }
    }
}

/// The namespace of tables and indexes. Thread-safe; shared via `Arc`.
pub struct Catalog {
    pool: Arc<BufferPool>,
    tables: Mutex<HashMap<String, Arc<TableInfo>>>,
    index_names: Mutex<HashMap<String, String>>, // index -> table
    next_id: AtomicU64,
    /// Bumped on every successful mutation; snapshots pin the version they
    /// were cut at.
    version: AtomicU64,
    /// Frozen catalogs (snapshots) reject every mutator.
    frozen: bool,
}

impl Catalog {
    pub fn new(pool: Arc<BufferPool>) -> Catalog {
        Catalog {
            pool,
            tables: Mutex::new(HashMap::new()),
            index_names: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            version: AtomicU64::new(0),
            frozen: false,
        }
    }

    /// The buffer pool tables in this catalog allocate from.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The mutation counter: bumped once per successful DDL / stats install.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Whether this catalog is a frozen snapshot.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Cut a frozen, immutable view of the namespace as of now. Cheap: the
    /// two name maps are cloned; every `TableInfo` is shared by `Arc`.
    /// Copy-on-write mutators guarantee shared entries never change under
    /// the snapshot. The snapshot answers all read-side queries (`table`,
    /// `tables`, `pool`) and rejects every mutator.
    pub fn snapshot(&self) -> Arc<Catalog> {
        let _rt = lockorder::acquire(lockorder::CATALOG_MAP);
        let tables = self.tables.lock();
        let _rn = lockorder::acquire(lockorder::CATALOG_NAMES);
        let names = self.index_names.lock();
        Arc::new(Catalog {
            pool: Arc::clone(&self.pool),
            tables: Mutex::new(tables.clone()),
            index_names: Mutex::new(names.clone()),
            next_id: AtomicU64::new(self.next_id.load(Ordering::Relaxed)),
            version: AtomicU64::new(self.version.load(Ordering::SeqCst)),
            frozen: true,
        })
    }

    fn check_mutable(&self) -> Result<()> {
        if self.frozen {
            return Err(EvoptError::Catalog("catalog snapshot is read-only".into()));
        }
        Ok(())
    }

    /// Create an empty table. Names are case-insensitive.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<TableInfo>> {
        self.check_mutable()?;
        let key = name.to_ascii_lowercase();
        let _r = lockorder::acquire(lockorder::CATALOG_MAP);
        let mut tables = self.tables.lock();
        if tables.contains_key(&key) {
            return Err(EvoptError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let heap = Arc::new(HeapFile::create(Arc::clone(&self.pool))?);
        let schema = schema.with_qualifier(&key);
        let info = Arc::new(TableInfo {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name: key.clone(),
            schema,
            heap,
            indexes: Mutex::new(Vec::new()),
            stats: Mutex::new(None),
        });
        tables.insert(key, Arc::clone(&info));
        self.version.fetch_add(1, Ordering::SeqCst);
        Ok(info)
    }

    /// Drop a table and its indexes from the namespace. (Pages are not
    /// reclaimed — the simulated disk is monotonic; see evopt-storage.)
    /// Snapshots cut earlier keep the table queryable.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.check_mutable()?;
        let key = name.to_ascii_lowercase();
        let _rt = lockorder::acquire(lockorder::CATALOG_MAP);
        let removed = self.tables.lock().remove(&key);
        match removed {
            Some(_) => {
                let _rn = lockorder::acquire(lockorder::CATALOG_NAMES);
                self.index_names.lock().retain(|_, t| t != &key);
                self.version.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            None => Err(EvoptError::Catalog(format!("unknown table '{name}'"))),
        }
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        let _r = lockorder::acquire(lockorder::CATALOG_MAP);
        self.tables
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EvoptError::Catalog(format!("unknown table '{name}'")))
    }

    /// All tables, sorted by name (deterministic iteration for EXPLAIN etc).
    pub fn tables(&self) -> Vec<Arc<TableInfo>> {
        let _r = lockorder::acquire(lockorder::CATALOG_MAP);
        let mut v: Vec<_> = self.tables.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Create a B+-tree index on `table_name.column_name` and bulk-build it
    /// from the current heap contents. Copy-on-write: the table's entry is
    /// replaced with a clone carrying the extra index, so snapshots cut
    /// before the call never see it. (Callers racing writers must hold the
    /// engine commit lock — the bulk build scans the heap unlocked.)
    pub fn create_index(
        &self,
        index_name: &str,
        table_name: &str,
        column_name: &str,
        unique: bool,
        clustered: bool,
    ) -> Result<Arc<IndexInfo>> {
        self.check_mutable()?;
        let ikey = index_name.to_ascii_lowercase();
        {
            let _r = lockorder::acquire(lockorder::CATALOG_NAMES);
            let names = self.index_names.lock();
            if names.contains_key(&ikey) {
                return Err(EvoptError::Catalog(format!(
                    "index '{index_name}' already exists"
                )));
            }
        }
        let table = self.table(table_name)?;
        let column = table.schema.resolve(None, column_name).map_err(|_| {
            EvoptError::Catalog(format!(
                "unknown column '{column_name}' on table '{table_name}'"
            ))
        })?;
        let btree = Arc::new(BTreeIndex::create(Arc::clone(&self.pool))?);
        for item in table.heap.scan() {
            let (rid, tuple) = item?;
            let key = tuple.value(column)?;
            if !key.is_null() {
                btree.insert(key, rid)?;
            }
        }
        let info = Arc::new(IndexInfo {
            name: ikey.clone(),
            table: table.name.clone(),
            column,
            clustered,
            unique,
            btree,
        });
        self.publish_index(&table.name, Arc::clone(&info), ikey)?;
        Ok(info)
    }

    /// Swap in a copy-on-write table entry carrying `index` and claim its
    /// name, atomically with respect to `snapshot`.
    fn publish_index(&self, table_key: &str, index: Arc<IndexInfo>, ikey: String) -> Result<()> {
        let _rt = lockorder::acquire(lockorder::CATALOG_MAP);
        let mut tables = self.tables.lock();
        let _rn = lockorder::acquire(lockorder::CATALOG_NAMES);
        let mut names = self.index_names.lock();
        // Re-check both namespaces: the unlocked bulk build above raced no
        // writers (commit lock), but cheap defensive checks keep the maps
        // coherent even for direct embedders.
        let current = tables
            .get(table_key)
            .ok_or_else(|| EvoptError::Catalog(format!("unknown table '{table_key}'")))?;
        if names.contains_key(&ikey) {
            return Err(EvoptError::Catalog(format!(
                "index '{ikey}' already exists"
            )));
        }
        let cow = current.cow_clone();
        cow.add_index(index);
        tables.insert(table_key.to_string(), Arc::new(cow));
        names.insert(ikey, table_key.to_string());
        self.version.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Install fresh statistics for `table_name`, copy-on-write: the entry
    /// is replaced with a clone carrying the new stats, so snapshots cut
    /// before the call keep planning with the old ones. This is the
    /// engine's ANALYZE path; [`TableInfo::set_stats`] remains for direct
    /// embedders with no snapshots in flight.
    pub fn install_stats(&self, table_name: &str, stats: TableStats) -> Result<()> {
        self.check_mutable()?;
        let key = table_name.to_ascii_lowercase();
        let _r = lockorder::acquire(lockorder::CATALOG_MAP);
        let mut tables = self.tables.lock();
        let current = tables
            .get(&key)
            .ok_or_else(|| EvoptError::Catalog(format!("unknown table '{table_name}'")))?;
        let cow = current.cow_clone();
        cow.set_stats(stats);
        tables.insert(key, Arc::new(cow));
        self.version.fetch_add(1, Ordering::SeqCst);
        Ok(())
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
        self.check_mutable()?;
        let key = name.to_ascii_lowercase();
        let _r = lockorder::acquire(lockorder::CATALOG_MAP);
        let mut tables = self.tables.lock();
        if tables.contains_key(&key) {
            return Err(EvoptError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let heap = Arc::new(HeapFile::open(Arc::clone(&self.pool), first_page)?);
        let schema = schema.with_qualifier(&key);
        let info = Arc::new(TableInfo {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name: key.clone(),
            schema,
            heap,
            indexes: Mutex::new(Vec::new()),
            stats: Mutex::new(None),
        });
        tables.insert(key, Arc::clone(&info));
        self.version.fetch_add(1, Ordering::SeqCst);
        Ok(info)
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
        self.check_mutable()?;
        let ikey = index_name.to_ascii_lowercase();
        {
            let _r = lockorder::acquire(lockorder::CATALOG_NAMES);
            let names = self.index_names.lock();
            if names.contains_key(&ikey) {
                return Err(EvoptError::Catalog(format!(
                    "index '{index_name}' already exists"
                )));
            }
        }
        let table = self.table(table_name)?;
        if column >= table.schema.columns().len() {
            return Err(EvoptError::Catalog(format!(
                "index '{index_name}' keys on column {column} but table '{table_name}' has {}",
                table.schema.columns().len()
            )));
        }
        let btree = Arc::new(BTreeIndex::open(Arc::clone(&self.pool), meta_page)?);
        let info = Arc::new(IndexInfo {
            name: ikey.clone(),
            table: table.name.clone(),
            column,
            clustered,
            unique,
            btree,
        });
        self.publish_index(&table.name, Arc::clone(&info), ikey)?;
        Ok(info)
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

    #[test]
    fn create_and_lookup_table() {
        let cat = mkcatalog();
        let t = cat.create_table("Users", two_col_schema()).unwrap();
        assert_eq!(t.name, "users");
        // Case-insensitive lookup, schema qualified with table name.
        let got = cat.table("USERS").unwrap();
        assert_eq!(got.id, t.id);
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
        cat.drop_table("t").unwrap();
        // Index name is reusable after the drop.
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("idx_t_id", "t", "id", true, false)
            .unwrap();
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
    fn indexes_on_filters_by_column() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i_id", "t", "id", false, false).unwrap();
        cat.create_index("i_name", "t", "name", false, false)
            .unwrap();
        // Index DDL is copy-on-write: re-fetch the entry to see the result.
        let t = cat.table("t").unwrap();
        assert_eq!(t.indexes().len(), 2);
        assert_eq!(t.indexes_on(0).len(), 1);
        assert_eq!(t.indexes_on(0)[0].name, "i_id");
        assert_eq!(t.indexes_on(1)[0].name, "i_name");
    }

    #[test]
    fn index_ddl_is_copy_on_write() {
        let cat = mkcatalog();
        let before = cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i", "t", "id", false, false).unwrap();
        // The Arc held from before the DDL is untouched; the live entry
        // carries the index and shares the same heap.
        assert_eq!(before.indexes().len(), 0);
        let after = cat.table("t").unwrap();
        assert_eq!(after.indexes().len(), 1);
        assert_eq!(after.id, before.id);
        assert!(Arc::ptr_eq(&after.heap, &before.heap));
    }

    #[test]
    fn install_stats_is_copy_on_write() {
        let cat = mkcatalog();
        let before = cat.create_table("t", two_col_schema()).unwrap();
        cat.install_stats(
            "t",
            TableStats {
                row_count: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(before.stats().is_none());
        assert_eq!(cat.table("t").unwrap().stats().unwrap().row_count, 7);
        assert!(cat.install_stats("missing", TableStats::default()).is_err());
    }

    #[test]
    fn snapshot_is_stable_across_ddl() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        t.heap
            .insert(&Tuple::new(vec![Value::Int(1), Value::Str("a".into())]))
            .unwrap();
        let snap = cat.snapshot();
        let v = snap.version();

        cat.create_index("i", "t", "id", false, false).unwrap();
        cat.install_stats(
            "t",
            TableStats {
                row_count: 1,
                ..Default::default()
            },
        )
        .unwrap();
        cat.create_table("u", two_col_schema()).unwrap();
        cat.drop_table("t").unwrap();

        // The snapshot still sees the pre-DDL world: table 't' present with
        // no indexes and no stats, table 'u' absent, version pinned.
        let st = snap.table("t").unwrap();
        assert_eq!(st.indexes().len(), 0);
        assert!(st.stats().is_none());
        assert!(snap.table("u").is_err());
        assert_eq!(snap.version(), v);
        assert_eq!(st.heap.scan().count(), 1, "dropped table stays readable");

        // The live catalog moved on.
        assert!(cat.table("t").is_err());
        assert!(cat.table("u").is_ok());
        assert!(cat.version() > v);
    }

    #[test]
    fn snapshot_rejects_mutation() {
        let cat = mkcatalog();
        cat.create_table("t", two_col_schema()).unwrap();
        let snap = cat.snapshot();
        assert!(snap.is_frozen());
        assert!(snap.create_table("u", two_col_schema()).is_err());
        assert!(snap.drop_table("t").is_err());
        assert!(snap.create_index("i", "t", "id", false, false).is_err());
        assert!(snap.restore_table("u", two_col_schema(), 1).is_err());
        assert!(snap.restore_index("i", "t", 0, false, false, 1).is_err());
        assert!(snap.install_stats("t", TableStats::default()).is_err());
        // Reads still work.
        assert!(snap.table("t").is_ok());
        assert_eq!(snap.tables().len(), 1);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let cat = mkcatalog();
        let v0 = cat.version();
        cat.create_table("t", two_col_schema()).unwrap();
        let v1 = cat.version();
        assert!(v1 > v0);
        cat.create_index("i", "t", "id", false, false).unwrap();
        let v2 = cat.version();
        assert!(v2 > v1);
        cat.install_stats("t", TableStats::default()).unwrap();
        let v3 = cat.version();
        assert!(v3 > v2);
        cat.drop_table("t").unwrap();
        assert!(cat.version() > v3);
        // Failed mutations don't bump.
        let v = cat.version();
        assert!(cat.drop_table("t").is_err());
        assert_eq!(cat.version(), v);
    }

    #[test]
    fn stats_roundtrip() {
        let cat = mkcatalog();
        let t = cat.create_table("t", two_col_schema()).unwrap();
        assert!(t.stats().is_none());
        t.set_stats(TableStats {
            row_count: 5,
            ..Default::default()
        });
        assert_eq!(t.stats().unwrap().row_count, 5);
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
