//! Paged B+-tree index.
//!
//! Maps single-column keys ([`Value`]) to record ids ([`Rid`]), supporting
//! duplicate keys, point lookups and ordered range scans. Nodes live in
//! buffer-pool pages, so **index probes cost real page fetches** — the
//! `height + leaf pages` term in the optimizer's index-scan cost formula is
//! measurable against this structure (experiment T2).
//!
//! Design choices (documented, deliberately classic):
//!
//! * Entries are ordered by the composite `(key, rid)`, which makes every
//!   entry unique and descent deterministic even with heavy duplication.
//! * Nodes are (de)serialised whole on access. O(page) per touch, but the
//!   *I/O pattern* — what the cost model cares about — is identical to an
//!   in-place layout.
//! * Inserts split on byte overflow (variable-length string keys); deletes
//!   are lazy (no rebalancing), the standard trade-off for load-then-query
//!   workloads.
//! * A meta page stores the root pointer, height, and entry/page counts.

use std::ops::Bound;
use std::sync::Arc;

use evopt_common::{lockorder, EvoptError, Result, Tuple, Value};
use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::page::{PageData, PageId, Rid, INVALID_PAGE_ID, USABLE_PAGE_SIZE};

/// Keys larger than this are rejected at insert; guarantees a split always
/// produces two nodes that fit in a page.
pub const MAX_KEY_BYTES: usize = 512;

const META_MAGIC: u64 = 0x6276_7472_6565_3031; // "bvtree01"

/// Composite entry key: column value plus rid tiebreak.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    value: Value,
    rid: Rid,
}

impl Key {
    fn min_for(value: &Value) -> Key {
        Key {
            value: value.clone(),
            rid: Rid::new(0, 0),
        }
    }
}

/// Fixed-size view of `bytes` for `from_le_bytes`; a length mismatch is a
/// deserialisation failure (truncated/corrupt node), not a panic.
fn arr<const N: usize>(bytes: &[u8]) -> Result<[u8; N]> {
    bytes.try_into().map_err(|_| {
        EvoptError::Storage(format!(
            "truncated b-tree field: expected {N} bytes, got {}",
            bytes.len()
        ))
    })
}

fn encode_value(v: &Value) -> Vec<u8> {
    Tuple::new(vec![v.clone()]).encode()
}

fn decode_value(bytes: &[u8]) -> Result<Value> {
    let t = Tuple::decode(bytes)?;
    t.into_values()
        .pop()
        .ok_or_else(|| EvoptError::Storage("empty b-tree key".into()))
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Key, ())>,
        next: PageId,
    },
    Internal {
        /// `keys[i]` is the smallest composite key in `children[i+1]`.
        keys: Vec<Key>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                // type(1) + count(2) + next(8) + per entry: klen(2)+key+rid(10)
                11 + entries
                    .iter()
                    .map(|(k, _)| 12 + encode_value(&k.value).len())
                    .sum::<usize>()
            }
            Node::Internal { keys, children } => {
                // type(1) + count(2) + children + per key: klen(2)+key+rid(10)
                3 + children.len() * 8
                    + keys
                        .iter()
                        .map(|k| 12 + encode_value(&k.value).len())
                        .sum::<usize>()
            }
        }
    }

    fn store(&self, page: &mut PageData) -> Result<()> {
        let size = self.serialized_size();
        if size > USABLE_PAGE_SIZE {
            return Err(EvoptError::Internal(format!(
                "b-tree node of {size} bytes stored without split"
            )));
        }
        let mut buf = Vec::with_capacity(size);
        match self {
            Node::Leaf { entries, next } => {
                buf.push(0u8);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                buf.extend_from_slice(&next.to_le_bytes());
                for (k, _) in entries {
                    let kb = encode_value(&k.value);
                    buf.extend_from_slice(&(kb.len() as u16).to_le_bytes());
                    buf.extend_from_slice(&kb);
                    buf.extend_from_slice(&k.rid.page.to_le_bytes());
                    buf.extend_from_slice(&k.rid.slot.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                buf.push(1u8);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                for c in children {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                for k in keys {
                    let kb = encode_value(&k.value);
                    buf.extend_from_slice(&(kb.len() as u16).to_le_bytes());
                    buf.extend_from_slice(&kb);
                    buf.extend_from_slice(&k.rid.page.to_le_bytes());
                    buf.extend_from_slice(&k.rid.slot.to_le_bytes());
                }
            }
        }
        page[..buf.len()].copy_from_slice(&buf);
        Ok(())
    }

    fn load(page: &PageData) -> Result<Node> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let end = *pos + n;
            if end > USABLE_PAGE_SIZE {
                return Err(EvoptError::Storage("truncated b-tree node".into()));
            }
            let s = &page[*pos..end];
            *pos = end;
            Ok(s)
        };
        let ty = take(&mut pos, 1)?[0];
        let count = u16::from_le_bytes(arr(take(&mut pos, 2)?)?) as usize;
        let read_key = |pos: &mut usize| -> Result<Key> {
            let klen = u16::from_le_bytes(arr(take(pos, 2)?)?) as usize;
            let value = decode_value(take(pos, klen)?)?;
            let page_id = u64::from_le_bytes(arr(take(pos, 8)?)?);
            let slot = u16::from_le_bytes(arr(take(pos, 2)?)?);
            Ok(Key {
                value,
                rid: Rid::new(page_id, slot),
            })
        };
        match ty {
            0 => {
                let next = u64::from_le_bytes(arr(take(&mut pos, 8)?)?);
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((read_key(&mut pos)?, ()));
                }
                Ok(Node::Leaf { entries, next })
            }
            1 => {
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..=count {
                    children.push(u64::from_le_bytes(arr(take(&mut pos, 8)?)?));
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(read_key(&mut pos)?);
                }
                Ok(Node::Internal { keys, children })
            }
            t => Err(EvoptError::Storage(format!("bad b-tree node type {t}"))),
        }
    }
}

struct Meta {
    root: PageId,
    height: u32,
    entry_count: u64,
    page_count: u64,
}

impl Meta {
    fn store(&self, page: &mut PageData) {
        page[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&self.root.to_le_bytes());
        page[16..20].copy_from_slice(&self.height.to_le_bytes());
        page[20..28].copy_from_slice(&self.entry_count.to_le_bytes());
        page[28..36].copy_from_slice(&self.page_count.to_le_bytes());
    }

    fn load(page: &PageData) -> Result<Meta> {
        let magic = u64::from_le_bytes(arr(&page[0..8])?);
        if magic != META_MAGIC {
            return Err(EvoptError::Storage("not a b-tree meta page".into()));
        }
        Ok(Meta {
            root: u64::from_le_bytes(arr(&page[8..16])?),
            height: u32::from_le_bytes(arr(&page[16..20])?),
            entry_count: u64::from_le_bytes(arr(&page[20..28])?),
            page_count: u64::from_le_bytes(arr(&page[28..36])?),
        })
    }
}

/// A B+-tree index over one column.
pub struct BTreeIndex {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    /// Rank [`lockorder::BTREE_WRITE`]: serialises writers (held across
    /// page fetches at rank POOL); readers are safe against the
    /// page-level state.
    write_lock: Mutex<()>,
}

impl BTreeIndex {
    /// Create an empty tree (allocates a meta page and an empty root leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<BTreeIndex> {
        let root_guard = pool.new_page()?;
        let root_id = root_guard.id();
        Node::Leaf {
            entries: Vec::new(),
            next: INVALID_PAGE_ID,
        }
        .store(&mut root_guard.write())?;
        drop(root_guard);

        let meta_guard = pool.new_page()?;
        let meta_page = meta_guard.id();
        Meta {
            root: root_id,
            height: 1,
            entry_count: 0,
            page_count: 1,
        }
        .store(&mut meta_guard.write());
        drop(meta_guard);

        Ok(BTreeIndex {
            pool,
            meta_page,
            write_lock: Mutex::new(()),
        })
    }

    /// Re-open a tree from its meta page.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<BTreeIndex> {
        let guard = pool.fetch(meta_page)?;
        Meta::load(&guard.read())?; // validate magic
        drop(guard);
        Ok(BTreeIndex {
            pool,
            meta_page,
            write_lock: Mutex::new(()),
        })
    }

    /// The meta page id — the tree's stable identity for the catalog.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    fn read_meta(&self) -> Result<Meta> {
        let guard = self.pool.fetch(self.meta_page)?;
        let meta = Meta::load(&guard.read())?;
        Ok(meta)
    }

    fn write_meta(&self, meta: &Meta) -> Result<()> {
        let guard = self.pool.fetch(self.meta_page)?;
        meta.store(&mut guard.write());
        Ok(())
    }

    /// Root-to-leaf path length in pages (≥ 1). The optimizer charges this
    /// many page fetches per index probe.
    pub fn height(&self) -> Result<u32> {
        Ok(self.read_meta()?.height)
    }

    /// Total entries in the tree.
    pub fn entry_count(&self) -> Result<u64> {
        Ok(self.read_meta()?.entry_count)
    }

    /// Node pages in the tree (excludes the meta page).
    pub fn page_count(&self) -> Result<u64> {
        Ok(self.read_meta()?.page_count)
    }

    fn load_node(&self, id: PageId) -> Result<Node> {
        let guard = self.pool.fetch(id)?;
        let node = Node::load(&guard.read())?;
        Ok(node)
    }

    fn store_node(&self, id: PageId, node: &Node) -> Result<()> {
        let guard = self.pool.fetch(id)?;
        let result = node.store(&mut guard.write());
        result
    }

    /// Insert `(key, rid)`. Duplicate keys are allowed; the exact duplicate
    /// `(key, rid)` pair is also allowed (and will be returned twice).
    pub fn insert(&self, key: &Value, rid: Rid) -> Result<()> {
        if encode_value(key).len() > MAX_KEY_BYTES {
            return Err(EvoptError::Storage(format!(
                "b-tree key exceeds {MAX_KEY_BYTES} bytes"
            )));
        }
        let _r = lockorder::acquire(lockorder::BTREE_WRITE);
        let _w = self.write_lock.lock();
        let mut meta = self.read_meta()?;
        let composite = Key {
            value: key.clone(),
            rid,
        };
        if let Some((sep, right)) = self.insert_rec(meta.root, composite, &mut meta)? {
            // Root split: grow the tree by one level.
            let new_root = self.pool.new_page()?;
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![meta.root, right],
            };
            node.store(&mut new_root.write())?;
            meta.root = new_root.id();
            meta.height += 1;
            meta.page_count += 1;
        }
        meta.entry_count += 1;
        self.write_meta(&meta)
    }

    /// Recursive insert; returns `Some((separator, new_right_page))` when
    /// this node split.
    fn insert_rec(&self, page: PageId, key: Key, meta: &mut Meta) -> Result<Option<(Key, PageId)>> {
        let mut node = self.load_node(page)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                let idx = entries.partition_point(|(k, _)| k <= &key);
                entries.insert(idx, (key, ()));
                if node.serialized_size() <= USABLE_PAGE_SIZE {
                    self.store_node(page, &node)?;
                    return Ok(None);
                }
                // Split: move the upper half to a fresh right sibling.
                let (entries, next) = match &mut node {
                    Node::Leaf { entries, next } => (entries, next),
                    _ => {
                        return Err(EvoptError::Internal(
                            "b-tree leaf changed variant mid-split".into(),
                        ))
                    }
                };
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right_guard = self.pool.new_page()?;
                let right_id = right_guard.id();
                let right_node = Node::Leaf {
                    entries: right_entries,
                    next: *next,
                };
                right_node.store(&mut right_guard.write())?;
                *next = right_id;
                self.store_node(page, &node)?;
                meta.page_count += 1;
                Ok(Some((sep, right_id)))
            }
            Node::Internal { keys, children } => {
                let child_idx = keys.partition_point(|k| k <= &key);
                let child = children[child_idx];
                if let Some((sep, right_id)) = self.insert_rec(child, key, meta)? {
                    keys.insert(child_idx, sep);
                    children.insert(child_idx + 1, right_id);
                    if node.serialized_size() <= USABLE_PAGE_SIZE {
                        self.store_node(page, &node)?;
                        return Ok(None);
                    }
                    let (keys, children) = match &mut node {
                        Node::Internal { keys, children } => (keys, children),
                        _ => {
                            return Err(EvoptError::Internal(
                                "b-tree internal node changed variant mid-split".into(),
                            ))
                        }
                    };
                    let mid = keys.len() / 2;
                    let promoted = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // remove the promoted key from the left
                    let right_children = children.split_off(mid + 1);
                    let right_guard = self.pool.new_page()?;
                    let right_id = right_guard.id();
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    }
                    .store(&mut right_guard.write())?;
                    self.store_node(page, &node)?;
                    meta.page_count += 1;
                    Ok(Some((promoted, right_id)))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Remove the exact `(key, rid)` entry. Returns whether it was present.
    /// Lazy deletion: nodes are never merged or rebalanced.
    pub fn delete(&self, key: &Value, rid: Rid) -> Result<bool> {
        let _r = lockorder::acquire(lockorder::BTREE_WRITE);
        let _w = self.write_lock.lock();
        let mut meta = self.read_meta()?;
        let target = Key {
            value: key.clone(),
            rid,
        };
        // Descend to the candidate leaf.
        let mut page = meta.root;
        loop {
            match self.load_node(page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= &target);
                    page = children[idx];
                }
                Node::Leaf { mut entries, next } => {
                    match entries.binary_search_by(|(k, _)| k.cmp(&target)) {
                        Ok(idx) => {
                            entries.remove(idx);
                            self.store_node(page, &Node::Leaf { entries, next })?;
                            meta.entry_count -= 1;
                            self.write_meta(&meta)?;
                            return Ok(true);
                        }
                        Err(_) => return Ok(false),
                    }
                }
            }
        }
    }

    /// Descend to the leaf that may contain the first entry ≥ `target`.
    fn descend(&self, target: &Key) -> Result<PageId> {
        let meta = self.read_meta()?;
        let mut page = meta.root;
        loop {
            match self.load_node(page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= target);
                    page = children[idx];
                }
                Node::Leaf { .. } => return Ok(page),
            }
        }
    }

    /// Leftmost leaf (for unbounded scans).
    fn leftmost_leaf(&self) -> Result<PageId> {
        let meta = self.read_meta()?;
        let mut page = meta.root;
        loop {
            match self.load_node(page)? {
                Node::Internal { children, .. } => page = children[0],
                Node::Leaf { .. } => return Ok(page),
            }
        }
    }

    /// All rids whose key equals `key`, in rid order.
    pub fn search_eq(&self, key: &Value) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        for item in self.range(Bound::Included(key), Bound::Included(key))? {
            let (_, rid) = item?;
            out.push(rid);
        }
        Ok(out)
    }

    /// Ordered scan of entries with keys within `(low, high)`.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Result<BTreeRangeScan> {
        let start_leaf = match &low {
            Bound::Unbounded => self.leftmost_leaf()?,
            Bound::Included(v) | Bound::Excluded(v) => self.descend(&Key::min_for(v))?,
        };
        Ok(BTreeRangeScan {
            pool: Arc::clone(&self.pool),
            next_leaf: start_leaf,
            buffer: Vec::new(),
            pos: 0,
            low: match low {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(v) => Bound::Included(v.clone()),
                Bound::Excluded(v) => Bound::Excluded(v.clone()),
            },
            high: match high {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(v) => Bound::Included(v.clone()),
                Bound::Excluded(v) => Bound::Excluded(v.clone()),
            },
            started: false,
            done: false,
        })
    }

    /// Depth-first structural check: key ordering within nodes, separator
    /// invariants, and leaf-chain ordering. Test/debug helper.
    pub fn check_invariants(&self) -> Result<()> {
        let meta = self.read_meta()?;
        let mut leaf_count = 0u64;
        self.check_rec(meta.root, None, None, meta.height, 1, &mut leaf_count)?;
        if leaf_count != meta.entry_count {
            return Err(EvoptError::Internal(format!(
                "meta entry_count {} != leaves {}",
                meta.entry_count, leaf_count
            )));
        }
        Ok(())
    }

    fn check_rec(
        &self,
        page: PageId,
        low: Option<&Key>,
        high: Option<&Key>,
        height: u32,
        depth: u32,
        leaf_count: &mut u64,
    ) -> Result<()> {
        let fail = |msg: String| Err(EvoptError::Internal(msg));
        match self.load_node(page)? {
            Node::Leaf { entries, .. } => {
                if depth != height {
                    return fail(format!("leaf at depth {depth}, height {height}"));
                }
                for w in entries.windows(2) {
                    if w[0].0 > w[1].0 {
                        return fail("unsorted leaf entries".into());
                    }
                }
                for (k, _) in &entries {
                    if let Some(lo) = low {
                        if k < lo {
                            return fail("leaf key below separator".into());
                        }
                    }
                    if let Some(hi) = high {
                        // Non-strict: an exact duplicate (key, rid) pair may
                        // straddle a split, making the separator equal to
                        // the left leaf's last entry.
                        if k > hi {
                            return fail("leaf key above separator".into());
                        }
                    }
                }
                *leaf_count += entries.len() as u64;
                Ok(())
            }
            Node::Internal { keys, children } => {
                if keys.len() + 1 != children.len() {
                    return fail("internal arity mismatch".into());
                }
                for w in keys.windows(2) {
                    if w[0] > w[1] {
                        return fail("unsorted internal keys".into());
                    }
                }
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 { low } else { Some(&keys[i - 1]) };
                    let hi = if i == keys.len() {
                        high
                    } else {
                        Some(&keys[i])
                    };
                    self.check_rec(child, lo, hi, height, depth + 1, leaf_count)?;
                }
                Ok(())
            }
        }
    }
}

/// Iterator over `(key, rid)` pairs from a [`BTreeIndex::range`] call.
/// Buffers one leaf at a time (same pin discipline as heap scans).
pub struct BTreeRangeScan {
    pool: Arc<BufferPool>,
    next_leaf: PageId,
    buffer: Vec<(Value, Rid)>,
    pos: usize,
    low: Bound<Value>,
    high: Bound<Value>,
    started: bool,
    done: bool,
}

impl BTreeRangeScan {
    fn refill(&mut self) -> Result<bool> {
        while self.next_leaf != INVALID_PAGE_ID {
            let guard = self.pool.fetch(self.next_leaf)?;
            let node = Node::load(&guard.read())?;
            drop(guard);
            let (entries, next) = match node {
                Node::Leaf { entries, next } => (entries, next),
                Node::Internal { .. } => {
                    return Err(EvoptError::Internal(
                        "range scan reached an internal node".into(),
                    ))
                }
            };
            self.buffer.clear();
            for (k, _) in entries {
                self.buffer.push((k.value, k.rid));
            }
            self.pos = 0;
            self.next_leaf = next;
            if !self.started {
                // Skip entries below the low bound in the first leaf.
                self.pos = match &self.low {
                    Bound::Unbounded => 0,
                    Bound::Included(v) => self.buffer.partition_point(|(k, _)| k < v),
                    Bound::Excluded(v) => self.buffer.partition_point(|(k, _)| k <= v),
                };
                // The low bound may fall past this leaf's entries (they were
                // all smaller); continue to the next leaf still "unstarted".
                if self.pos >= self.buffer.len() {
                    continue;
                }
                self.started = true;
            }
            if self.pos < self.buffer.len() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn past_high(&self, key: &Value) -> bool {
        match &self.high {
            Bound::Unbounded => false,
            Bound::Included(v) => key > v,
            Bound::Excluded(v) => key >= v,
        }
    }
}

impl Iterator for BTreeRangeScan {
    type Item = Result<(Value, Rid)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.pos >= self.buffer.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        let (k, rid) = self.buffer[self.pos].clone();
        if self.past_high(&k) {
            self.done = true;
            return None;
        }
        self.pos += 1;
        self.started = true;
        Some(Ok((k, rid)))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::disk::{DiskBackend, DiskManager};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn mktree(frames: usize) -> BTreeIndex {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), frames);
        BTreeIndex::create(pool).unwrap()
    }

    fn rid(i: u64) -> Rid {
        Rid::new(i, (i % 7) as u16)
    }

    #[test]
    fn empty_tree() {
        let t = mktree(16);
        assert_eq!(t.height().unwrap(), 1);
        assert_eq!(t.entry_count().unwrap(), 0);
        assert!(t.search_eq(&Value::Int(1)).unwrap().is_empty());
        assert_eq!(
            t.range(Bound::Unbounded, Bound::Unbounded).unwrap().count(),
            0
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = mktree(16);
        for i in 0..100 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.search_eq(&Value::Int(i)).unwrap(), vec![rid(i as u64)]);
        }
        assert!(t.search_eq(&Value::Int(100)).unwrap().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn grows_multiple_levels_and_stays_sorted() {
        let t = mktree(64);
        let n: i64 = 20_000;
        let mut order: Vec<i64> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(42));
        for &i in &order {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 3, "height {}", t.height().unwrap());
        assert_eq!(t.entry_count().unwrap(), n as u64);
        t.check_invariants().unwrap();
        let scanned: Vec<i64> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0.as_i64().unwrap())
            .collect();
        assert_eq!(scanned, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_keys_all_returned() {
        let t = mktree(32);
        for i in 0..500u64 {
            t.insert(&Value::Int(7), rid(i)).unwrap();
        }
        t.insert(&Value::Int(6), rid(0)).unwrap();
        t.insert(&Value::Int(8), rid(0)).unwrap();
        let hits = t.search_eq(&Value::Int(7)).unwrap();
        assert_eq!(hits.len(), 500);
        // Returned in rid order.
        let mut sorted = hits.clone();
        sorted.sort();
        assert_eq!(hits, sorted);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_bounds_semantics() {
        let t = mktree(16);
        for i in 0..20 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        let collect = |lo: Bound<&Value>, hi: Bound<&Value>| -> Vec<i64> {
            t.range(lo, hi)
                .unwrap()
                .map(|r| r.unwrap().0.as_i64().unwrap())
                .collect()
        };
        let v5 = Value::Int(5);
        let v10 = Value::Int(10);
        assert_eq!(
            collect(Bound::Included(&v5), Bound::Included(&v10)),
            (5..=10).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Excluded(&v5), Bound::Excluded(&v10)),
            (6..10).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Unbounded, Bound::Excluded(&v5)),
            (0..5).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Included(&v10), Bound::Unbounded),
            (10..20).collect::<Vec<_>>()
        );
        // Empty range.
        let v100 = Value::Int(100);
        assert!(collect(Bound::Included(&v100), Bound::Unbounded).is_empty());
    }

    #[test]
    fn range_with_low_bound_past_first_leaf() {
        // Force many leaves, then scan from a bound that lands between them.
        let t = mktree(64);
        for i in 0..5000 {
            t.insert(&Value::Int(i * 2), rid(i as u64)).unwrap(); // even keys
        }
        let lo = Value::Int(4001); // odd: between 4000 and 4002
        let got: Vec<i64> = t
            .range(Bound::Included(&lo), Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0.as_i64().unwrap())
            .collect();
        assert_eq!(got[0], 4002);
        assert_eq!(got.len(), (5000 - 2001));
    }

    #[test]
    fn string_keys() {
        let t = mktree(32);
        let words = ["delta", "alpha", "echo", "bravo", "charlie"];
        for (i, w) in words.iter().enumerate() {
            t.insert(&Value::Str((*w).into()), rid(i as u64)).unwrap();
        }
        let scanned: Vec<String> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0.as_str().unwrap().to_owned())
            .collect();
        assert_eq!(scanned, vec!["alpha", "bravo", "charlie", "delta", "echo"]);
        let lo = Value::Str("b".into());
        let hi = Value::Str("d".into());
        let mid: Vec<String> = t
            .range(Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap()
            .map(|r| r.unwrap().0.as_str().unwrap().to_owned())
            .collect();
        assert_eq!(mid, vec!["bravo", "charlie"]);
    }

    #[test]
    fn oversized_key_rejected() {
        let t = mktree(16);
        let big = Value::Str("k".repeat(MAX_KEY_BYTES + 1));
        assert!(t.insert(&big, rid(0)).is_err());
    }

    #[test]
    fn delete_exact_entry() {
        let t = mktree(32);
        for i in 0..1000 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        assert!(t.delete(&Value::Int(500), rid(500)).unwrap());
        assert!(!t.delete(&Value::Int(500), rid(500)).unwrap());
        assert!(!t.delete(&Value::Int(500), rid(501)).unwrap());
        assert!(t.search_eq(&Value::Int(500)).unwrap().is_empty());
        assert_eq!(t.entry_count().unwrap(), 999);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_one_duplicate_keeps_others() {
        let t = mktree(16);
        for i in 0..10u64 {
            t.insert(&Value::Int(3), rid(i)).unwrap();
        }
        assert!(t.delete(&Value::Int(3), rid(4)).unwrap());
        let hits = t.search_eq(&Value::Int(3)).unwrap();
        assert_eq!(hits.len(), 9);
        assert!(!hits.contains(&rid(4)));
    }

    #[test]
    fn reopen_from_meta_page() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 32);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        for i in 0..100 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        let meta = t.meta_page();
        drop(t);
        let t = BTreeIndex::open(Arc::clone(&pool), meta).unwrap();
        assert_eq!(t.entry_count().unwrap(), 100);
        assert_eq!(t.search_eq(&Value::Int(50)).unwrap(), vec![rid(50)]);
        // Opening a non-meta page fails loudly.
        assert!(BTreeIndex::open(pool, 0).is_err());
    }

    #[test]
    fn probe_io_scales_with_height_not_size() {
        // An index probe should touch ~height pages, far fewer than the
        // tree's total pages — the property the optimizer's cost model uses.
        let disk = Arc::new(DiskManager::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        for i in 0..20_000 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        let height = t.height().unwrap() as u64;
        let pages = t.page_count().unwrap();
        assert!(pages > 50);
        // Flush and dirty the pool with a scan of another structure so the
        // probe starts cold-ish; the tiny pool (8 frames) guarantees that.
        let before = disk.snapshot();
        let hits = t.search_eq(&Value::Int(12_345)).unwrap();
        let delta = disk.snapshot().since(&before);
        assert_eq!(hits, vec![rid(12_345)]);
        // meta + root..leaf + possibly one sibling leaf.
        assert!(
            delta.reads <= height + 3,
            "probe read {} pages, height {height}",
            delta.reads
        );
    }

    #[test]
    fn works_with_tiny_pool() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 4);
        let t = BTreeIndex::create(pool).unwrap();
        for i in (0..3000).rev() {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        t.check_invariants().unwrap();
        let n = t.range(Bound::Unbounded, Bound::Unbounded).unwrap().count();
        assert_eq!(n, 3000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Model-based test: tree contents always match a sorted reference
        /// vector under random insert/delete interleavings.
        #[test]
        fn prop_matches_model(ops in prop::collection::vec(
            (any::<bool>(), -50i64..50, 0u64..20), 1..400)) {
            let t = mktree(32);
            let mut model: Vec<(i64, u64)> = Vec::new();
            for (is_insert, k, r) in ops {
                if is_insert || model.is_empty() {
                    t.insert(&Value::Int(k), rid(r)).unwrap();
                    model.push((k, r));
                } else {
                    let present = model.iter().position(|&(mk, mr)| mk == k && mr == r);
                    let deleted = t.delete(&Value::Int(k), rid(r)).unwrap();
                    prop_assert_eq!(deleted, present.is_some());
                    if let Some(p) = present {
                        model.remove(p);
                    }
                }
            }
            model.sort_by_key(|a| (a.0, rid(a.1)));
            let got: Vec<(i64, Rid)> = t
                .range(Bound::Unbounded, Bound::Unbounded).unwrap()
                .map(|x| { let (v, r) = x.unwrap(); (v.as_i64().unwrap(), r) })
                .collect();
            let want: Vec<(i64, Rid)> = model.iter().map(|&(k, r)| (k, rid(r))).collect();
            prop_assert_eq!(got, want);
            t.check_invariants().unwrap();
        }

        /// Range scans agree with filtering a full scan.
        #[test]
        fn prop_range_equals_filtered_full_scan(
            keys in prop::collection::vec(-100i64..100, 0..300),
            lo in -120i64..120, hi in -120i64..120) {
            let t = mktree(32);
            for (i, &k) in keys.iter().enumerate() {
                t.insert(&Value::Int(k), rid(i as u64)).unwrap();
            }
            let (vlo, vhi) = (Value::Int(lo), Value::Int(hi));
            let got: Vec<i64> = t
                .range(Bound::Included(&vlo), Bound::Excluded(&vhi)).unwrap()
                .map(|x| x.unwrap().0.as_i64().unwrap())
                .collect();
            let mut want: Vec<i64> = keys.iter().copied()
                .filter(|&k| k >= lo && k < hi).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
