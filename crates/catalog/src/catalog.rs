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
//! The log records a version as one catalog record whose bytes are the
//! catalog's own (schemas and storage roots, no statistics):
//! [`Catalog::encode`] writes them and [`Catalog::decode`] reads them back
//! at recovery. The log frames, orders and keeps the last committed record
//! but never reads it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use evopt_common::{lockorder, Column, DataType, EvoptError, Result, Schema};
use evopt_storage::{BTreeIndex, BufferPool, HeapFile};
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

    /// The catalog `bytes` (an [`Catalog::encode`]d version) describe, as
    /// its first version, with every heap and B+-tree opened at its root
    /// and no lock held (crash recovery). No statistics. Bytes that do not
    /// parse are `Corruption`; a duplicate name or a missing column is a
    /// `Catalog` error.
    pub fn decode(pool: Arc<BufferPool>, bytes: &[u8]) -> Result<Catalog> {
        let mut r = Reader(bytes);
        let (mut namespace, mut index_names) = (Namespace::new(), HashSet::new());
        for _ in 0..r.u32()? {
            let table = r.name()?;
            let name = table.to_ascii_lowercase();
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(r.0.len()));
            for _ in 0..ncols {
                let column = r.name()?;
                let dtype = match r.u8()? {
                    0 => DataType::Bool,
                    1 => DataType::Int,
                    2 => DataType::Float,
                    3 => DataType::Str,
                    tag => return Err(malformed(&format!("unknown type tag {tag}"))),
                };
                let nullable = r.u8()? != 0;
                columns.push(Column {
                    nullable,
                    ..Column::new(column, dtype)
                });
            }
            let mut info = TableInfo {
                schema: Schema::new(columns).with_qualifier(&name),
                heap: Arc::new(HeapFile::open(Arc::clone(&pool), r.u64()?)?),
                name: name.clone(),
                indexes: Vec::new(),
                stats: None,
            };
            for _ in 0..r.u32()? {
                let index = r.name()?;
                let column = r.u32()? as usize;
                let (unique, clustered) = (r.u8()? != 0, r.u8()? != 0);
                let meta_page = r.u64()?;
                info.schema.column(column).ok_or_else(|| {
                    EvoptError::Catalog(format!("index '{index}' keys on no column of '{name}'"))
                })?;
                if !index_names.insert(index.to_ascii_lowercase()) {
                    return Err(exists("index", index));
                }
                info.indexes.push(Arc::new(IndexInfo {
                    name: index.to_ascii_lowercase(),
                    table: name.clone(),
                    column,
                    clustered,
                    unique,
                    btree: Arc::new(BTreeIndex::open(Arc::clone(&pool), meta_page)?),
                }));
            }
            if namespace.insert(name, Arc::new(info)).is_some() {
                return Err(exists("table", table));
            }
        }
        if !r.0.is_empty() {
            return Err(malformed(&format!("{} bytes past its end", r.0.len())));
        }
        Ok(Catalog::live(pool, namespace))
    }

    /// This version as the log's catalog record: tables sorted by name,
    /// each table's indexes in creation order, no statistics. Every count
    /// and length is a little-endian `u32`, a page id a `u64`, a flag a
    /// byte; a string is its length, then its UTF-8 bytes.
    pub fn encode(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, n: usize) {
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &str) {
            put_u32(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        let tables = self.tables();
        let mut out = Vec::new();
        put_u32(&mut out, tables.len());
        for t in &tables {
            put_str(&mut out, &t.name);
            put_u32(&mut out, t.schema.columns().len());
            for c in t.schema.columns().iter() {
                put_str(&mut out, &c.name);
                out.push(match c.dtype {
                    DataType::Bool => 0,
                    DataType::Int => 1,
                    DataType::Float => 2,
                    DataType::Str => 3,
                });
                out.push(u8::from(c.nullable));
            }
            out.extend_from_slice(&t.heap.first_page().to_le_bytes());
            put_u32(&mut out, t.indexes.len());
            for i in &t.indexes {
                put_str(&mut out, &i.name);
                put_u32(&mut out, i.column);
                out.extend_from_slice(&[u8::from(i.unique), u8::from(i.clustered)]);
                out.extend_from_slice(&i.btree.meta_page().to_le_bytes());
            }
        }
        out
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

/// Catalog bytes that do not parse.
fn malformed(what: &str) -> EvoptError {
    EvoptError::Corruption(format!("catalog record: {what}"))
}

/// Reads a catalog record front to back, little-endian; running out of
/// bytes is corruption.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| malformed("truncated"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8> {
        let [b] = self.take()?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// A `u32` length, then that many bytes of UTF-8.
    fn name(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let (bytes, rest) = self
            .0
            .split_at_checked(len)
            .ok_or_else(|| malformed("truncated"))?;
        self.0 = rest;
        std::str::from_utf8(bytes).map_err(|_| malformed("a name is not UTF-8"))
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
    fn encode_round_trips_through_decode() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = populated(&pool);
        let bytes = cat.encode();
        let back = Catalog::decode(Arc::clone(&pool), &bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        let names: Vec<_> = back.tables().iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, ["alpha", "zeta"], "the dropped table gone");
        let zeta = back.table("zeta").unwrap();
        let indexes: Vec<_> = zeta.indexes().iter().map(|i| i.name.as_str()).collect();
        assert_eq!(indexes, ["zeta_name", "zeta_id"], "in creation order");
        // The recovered catalog reads the same storage, with no statistics,
        // and resolves qualified columns like a created one.
        let t = back.table("ALPHA").unwrap();
        assert!(t.stats().is_none(), "statistics are not logged");
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

    /// Three tables with every column type, nullable and non-null columns,
    /// a multi-byte name, a table with no column, and indexes unique and
    /// clustered both ways: the catalog [`FIXED_RECORD`] encodes.
    fn fixed(pool: &Arc<BufferPool>) -> Catalog {
        // Storage roots past page 255 pin both bytes' order in each u64.
        for _ in 0..300 {
            pool.new_page().unwrap();
        }
        let cat = Catalog::new(Arc::clone(pool));
        let orders = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("paid", DataType::Bool),
            Column::new("total", DataType::Float).not_null(),
            Column::new("note", DataType::Str),
        ]);
        let t = cat.create_table("Orders", orders).unwrap();
        for i in 0..40 {
            let note = match i % 3 {
                0 => Value::Null,
                _ => Value::Str(format!("n{i}")),
            };
            let total = Value::Float(i as f64 / 4.0);
            let row = vec![Value::Int(i), Value::Bool(i % 2 == 0), total, note];
            t.heap.insert(&Tuple::new(row)).unwrap();
        }
        let flag = Schema::new(vec![Column::new("k", DataType::Bool).not_null()]);
        cat.create_table("α-table", flag).unwrap();
        cat.create_table("empty", Schema::new(vec![])).unwrap();
        for (name, table, column, unique, clustered) in [
            ("orders_id", "orders", "id", true, true),
            ("orders_note", "orders", "note", false, false),
            ("orders_total", "orders", "total", true, false),
            ("i1", "α-table", "k", false, true),
        ] {
            cat.create_index(name, table, column, unique, clustered)
                .unwrap();
        }
        cat
    }

    /// What the log's catalog record held for [`fixed`] before the catalog
    /// wrote it: `u32` counts and lengths, `u8` type tags (Bool 0, Int 1,
    /// Float 2, Str 3) and flags, `u64` page ids, all little-endian.
    #[rustfmt::skip]
    const FIXED_RECORD: &[u8] = &[
        3, 0, 0, 0, // three tables, sorted by name
        5, 0, 0, 0, b'e', b'm', b'p', b't', b'y',
        0, 0, 0, 0, // no column
        46, 1, 0, 0, 0, 0, 0, 0, // heap at page 302
        0, 0, 0, 0, // no index
        6, 0, 0, 0, b'o', b'r', b'd', b'e', b'r', b's',
        4, 0, 0, 0, // four columns: name, type, nullable
        2, 0, 0, 0, b'i', b'd', 1, 0,
        4, 0, 0, 0, b'p', b'a', b'i', b'd', 0, 1,
        5, 0, 0, 0, b't', b'o', b't', b'a', b'l', 2, 0,
        4, 0, 0, 0, b'n', b'o', b't', b'e', 3, 1,
        44, 1, 0, 0, 0, 0, 0, 0, // heap at page 300
        3, 0, 0, 0, // three indexes: name, column, unique, clustered, meta
        9, 0, 0, 0, b'o', b'r', b'd', b'e', b'r', b's', b'_', b'i', b'd',
        0, 0, 0, 0, 1, 1, 48, 1, 0, 0, 0, 0, 0, 0,
        11, 0, 0, 0, b'o', b'r', b'd', b'e', b'r', b's', b'_', b'n', b'o', b't', b'e',
        3, 0, 0, 0, 0, 0, 50, 1, 0, 0, 0, 0, 0, 0,
        12, 0, 0, 0, b'o', b'r', b'd', b'e', b'r', b's', b'_', b't', b'o', b't', b'a', b'l',
        2, 0, 0, 0, 1, 0, 52, 1, 0, 0, 0, 0, 0, 0,
        8, 0, 0, 0, 206, 177, b'-', b't', b'a', b'b', b'l', b'e', // "α-table"
        1, 0, 0, 0,
        1, 0, 0, 0, b'k', 0, 0,
        45, 1, 0, 0, 0, 0, 0, 0, // heap at page 301
        1, 0, 0, 0,
        2, 0, 0, 0, b'i', b'1', 0, 0, 0, 0, 0, 1, 54, 1, 0, 0, 0, 0, 0, 0,
    ];

    /// The catalog record's bytes did not move when the catalog took over
    /// writing them: a log written before still recovers.
    #[test]
    fn encode_writes_the_bytes_the_log_always_held() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = fixed(&pool);
        assert_eq!(cat.encode(), FIXED_RECORD);
        let back = Catalog::decode(Arc::clone(&pool), FIXED_RECORD).unwrap();
        let (tables, decoded) = (cat.tables(), back.tables());
        assert_eq!(decoded.len(), 3);
        for (t, d) in tables.iter().zip(&decoded) {
            assert_eq!((&d.name, &d.schema), (&t.name, &t.schema));
            assert_eq!(d.heap.first_page(), t.heap.first_page());
            assert_eq!(d.heap.scan().count(), t.heap.scan().count());
            assert_eq!(d.indexes().len(), t.indexes().len());
            for (i, j) in t.indexes().iter().zip(d.indexes()) {
                let shape = |i: &IndexInfo| {
                    let root = i.btree.meta_page();
                    (
                        i.name.clone(),
                        i.table.clone(),
                        i.column,
                        i.unique,
                        i.clustered,
                        root,
                    )
                };
                assert_eq!(shape(j), shape(i));
                assert_eq!(
                    j.btree.entry_count().unwrap(),
                    i.btree.entry_count().unwrap()
                );
            }
        }
        let orders = back.table("orders").unwrap();
        assert_eq!(orders.heap.scan().count(), 40);
        let by_id = orders.indexes()[0].btree.search_eq(&Value::Int(7)).unwrap();
        let row = orders.heap.get(by_id[0]).unwrap().unwrap();
        assert_eq!(row.value(2).unwrap(), &Value::Float(1.75));
    }

    /// `bytes` with the first occurrence of `from` replaced by `to`.
    fn patched(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = (0..bytes.len()).find(|&i| bytes[i..].starts_with(from));
        let at = at.unwrap_or_else(|| panic!("{from:?} does not occur"));
        [&bytes[..at], to, &bytes[at + from.len()..]].concat()
    }

    /// `s` behind its `u32` length, as the record spells a name.
    fn spelled(s: &[u8]) -> Vec<u8> {
        [&(s.len() as u32).to_le_bytes()[..], s].concat()
    }

    #[test]
    fn hostile_bytes_are_typed_errors() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = Catalog::new(Arc::clone(&pool));
        for name in ["alpha", "gamma"] {
            cat.create_table(name, two_col_schema()).unwrap();
            cat.create_index(&format!("{name}_id"), name, "id", true, true)
                .unwrap();
        }
        let good = cat.encode();
        assert!(Catalog::decode(Arc::clone(&pool), &good).is_ok());
        let index = spelled(b"alpha_id");
        let ordinal = [&index[..], &[0, 0, 0, 0]].concat();
        let columns = [&spelled(b"gamma")[..], &[2, 0, 0, 0]].concat();
        let semantic = [
            (
                "out-of-range column ordinal",
                patched(&good, &ordinal, &[&index[..], &[9, 0, 0, 0]].concat()),
            ),
            (
                "duplicate table",
                patched(&good, &spelled(b"gamma"), &spelled(b"ALPHA")),
            ),
            (
                "duplicate index name across two tables",
                patched(&good, &spelled(b"gamma_id"), &spelled(b"Alpha_Id")),
            ),
        ];
        let malformed = [
            ("an empty record", Vec::new()),
            ("trailing bytes", [&good[..], &[0]].concat()),
            (
                "an unknown type tag",
                patched(
                    &good,
                    &[&spelled(b"name")[..], &[3]].concat(),
                    &[&spelled(b"name")[..], &[4]].concat(),
                ),
            ),
            (
                "a name that is not UTF-8",
                patched(&good, &spelled(b"alpha"), &spelled(b"alph\xFF")),
            ),
            (
                "a column count no record could hold",
                patched(
                    &good,
                    &columns,
                    &[&spelled(b"gamma")[..], &[0xFF; 4]].concat(),
                ),
            ),
        ];
        let cuts = (0..good.len()).map(|n| (format!("cut to {n} bytes"), good[..n].to_vec()));
        let cases = semantic
            .into_iter()
            .map(|(what, bytes)| (what.to_string(), bytes, "catalog"))
            .chain(
                malformed
                    .into_iter()
                    .map(|(w, b)| (w.to_string(), b, "corruption")),
            )
            .chain(cuts.map(|(what, bytes)| (what, bytes, "corruption")));
        for (what, bytes, kind) in cases {
            let err = Catalog::decode(Arc::clone(&pool), &bytes).err();
            assert_eq!(err.map(|e| e.kind()), Some(kind), "{what}");
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
