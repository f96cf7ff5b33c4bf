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
//!
//! The log records a version as its [`CatalogImage`] (schemas and storage
//! roots): [`Catalog::image`] writes it, [`Catalog::from_image`] reads it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use evopt_common::{lockorder, Column, EvoptError, Result, Schema};
use evopt_storage::{
    BTreeIndex, BufferPool, CatalogImage, ColumnImage, HeapFile, IndexImage, TableImage,
};
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
        Catalog::live(pool, Namespace::new())
    }

    fn live(pool: Arc<BufferPool>, first: Namespace) -> Catalog {
        Catalog {
            role: Role::Live(Mutex::new(Catalog::pinned(&pool, Arc::new(first)))),
            pool,
        }
    }

    /// The catalog `image` describes, as its first version, with every heap
    /// and B+-tree opened at its root and no lock held (crash recovery). No
    /// statistics. A duplicate name or a missing column is a typed error.
    pub fn from_image(pool: Arc<BufferPool>, image: &CatalogImage) -> Result<Catalog> {
        let (mut namespace, mut index_names) = (Namespace::new(), HashSet::new());
        for t in &image.tables {
            let name = t.name.to_ascii_lowercase();
            let columns = t.columns.iter().map(|c| Column {
                nullable: c.nullable,
                ..Column::new(&c.name, c.dtype)
            });
            let mut info = TableInfo {
                schema: Schema::new(columns.collect()).with_qualifier(&name),
                heap: Arc::new(HeapFile::open(Arc::clone(&pool), t.first_page)?),
                name: name.clone(),
                indexes: Vec::new(),
                stats: None,
            };
            for i in &t.indexes {
                info.schema.column(i.column as usize).ok_or_else(|| {
                    EvoptError::Catalog(format!("index '{}' keys on no column of '{name}'", i.name))
                })?;
                if !index_names.insert(i.name.to_ascii_lowercase()) {
                    return Err(exists("index", &i.name));
                }
                info.indexes.push(Arc::new(IndexInfo {
                    name: i.name.to_ascii_lowercase(),
                    table: name.clone(),
                    column: i.column as usize,
                    clustered: i.clustered,
                    unique: i.unique,
                    btree: Arc::new(BTreeIndex::open(Arc::clone(&pool), i.meta_page)?),
                }));
            }
            if namespace.insert(name, Arc::new(info)).is_some() {
                return Err(exists("table", &t.name));
            }
        }
        Ok(Catalog::live(pool, namespace))
    }

    /// This catalog's version as the log's image: tables sorted by name,
    /// each table's indexes in creation order, no statistics.
    pub fn image(&self) -> CatalogImage {
        let column = |c: &Column| ColumnImage {
            name: c.name.clone(),
            dtype: c.dtype,
            nullable: c.nullable,
        };
        let index = |i: &Arc<IndexInfo>| IndexImage {
            name: i.name.clone(),
            column: i.column as u32,
            unique: i.unique,
            clustered: i.clustered,
            meta_page: i.btree.meta_page(),
        };
        let table = |t: &Arc<TableInfo>| TableImage {
            name: t.name.clone(),
            columns: t.schema.columns().iter().map(column).collect(),
            first_page: t.heap.first_page(),
            indexes: t.indexes.iter().map(index).collect(),
        };
        CatalogImage {
            tables: self.tables().iter().map(table).collect(),
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
        let w = self.writer()?;
        let key = name.to_ascii_lowercase();
        if w.base.read(|ns| ns.contains_key(&key)) {
            return Err(exists("table", name));
        }
        let info = Arc::new(TableInfo {
            heap: Arc::new(HeapFile::create(Arc::clone(&self.pool))?),
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
        let w = self.writer()?;
        let name = index_name.to_ascii_lowercase();
        let taken = |ns: &Namespace| {
            ns.values()
                .any(|t| t.indexes.iter().any(|i| i.name == name))
        };
        if w.base.read(taken) {
            return Err(exists("index", index_name));
        }
        let table = w.base.table(table_name)?;
        let column = table.schema.resolve(None, column_name).map_err(|_| {
            EvoptError::Catalog(format!(
                "unknown column '{column_name}' on table '{table_name}'"
            ))
        })?;
        let btree = BTreeIndex::create(Arc::clone(&self.pool))?;
        for item in table.heap.scan() {
            let (rid, tuple) = item?;
            let key = tuple.value(column)?;
            if !key.is_null() {
                btree.insert(key, rid)?;
            }
        }
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

/// A name the namespace already holds.
fn exists(what: &str, name: &str) -> EvoptError {
    EvoptError::Catalog(format!("{what} '{name}' already exists"))
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
        cat.create_table("t", two_col_schema()).unwrap();
        cat.create_index("i", "t", "id", false, false).unwrap();
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
        ];
        for (what, err) in failures {
            assert_eq!(err.map(|e| e.kind()), Some("catalog"), "{what}");
            assert!(Arc::ptr_eq(&cat.snapshot(), &v), "{what} published");
        }
    }

    /// Three tables with two indexes each, one of them dropped, with rows.
    fn populated(pool: &Arc<BufferPool>) -> Catalog {
        let cat = Catalog::new(Arc::clone(pool));
        for name in ["zeta", "alpha", "gone"] {
            let t = cat.create_table(name, two_col_schema()).unwrap();
            for i in 0..50 {
                let row = vec![Value::Int(i), Value::Str(format!("{name}{i}"))];
                t.heap.insert(&Tuple::new(row)).unwrap();
            }
            cat.create_index(&format!("{name}_name"), name, "name", false, false)
                .unwrap();
            cat.create_index(&format!("{name}_id"), name, "id", true, true)
                .unwrap();
        }
        cat.install_stats("alpha", stats(50)).unwrap();
        cat.drop_table("gone").unwrap();
        cat
    }

    #[test]
    fn image_round_trips_through_from_image() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = populated(&pool);
        let image = cat.image();
        let names: Vec<_> = image.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"], "sorted, the dropped table gone");
        let indexes: Vec<_> = image.tables[1].indexes.iter().map(|i| &i.name).collect();
        assert_eq!(indexes, ["zeta_name", "zeta_id"], "in creation order");

        let back = Catalog::from_image(Arc::clone(&pool), &image).unwrap();
        assert_eq!(back.image(), image);
        // The recovered catalog reads the same storage, with no statistics,
        // and resolves qualified columns like a created one.
        let t = back.table("ALPHA").unwrap();
        assert!(t.stats().is_none(), "statistics are not in the image");
        assert_eq!(t.heap.scan().count(), 50);
        assert_eq!(t.schema.resolve(Some("alpha"), "name").unwrap(), 1);
        let id = &t.indexes()[1];
        assert_eq!((id.name.as_str(), id.table.as_str()), ("alpha_id", "alpha"));
        assert!(id.unique && id.clustered);
        assert_eq!(id.btree.search_eq(&Value::Int(7)).unwrap().len(), 1);
        // It is a live catalog: its names are taken, and DDL publishes.
        assert!(back.create_table("zeta", two_col_schema()).is_err());
        assert!(back
            .create_index("ZETA_ID", "alpha", "id", false, false)
            .is_err());
        back.create_index("gone_id", "zeta", "id", false, false)
            .unwrap();
    }

    #[test]
    fn hostile_images_are_typed_catalog_errors() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let image = populated(&pool).image();
        let mut bad_column = image.clone();
        bad_column.tables[0].indexes[0].column = 9;
        let mut duplicate_table = image.clone();
        duplicate_table.tables[1].name = "ALPHA".into();
        let mut duplicate_index = image.clone();
        duplicate_index.tables[1].indexes[1].name = "Alpha_Id".into();
        for (what, hostile) in [
            ("out-of-range column ordinal", bad_column),
            ("duplicate table", duplicate_table),
            ("duplicate index name across two tables", duplicate_index),
        ] {
            let err = Catalog::from_image(Arc::clone(&pool), &hostile).err();
            assert_eq!(err.map(|e| e.kind()), Some("catalog"), "{what}");
        }
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
