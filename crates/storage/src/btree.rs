//! Paged B+-tree index.
//!
//! Maps single-column keys ([`Value`]) to record ids ([`Rid`]), supporting
//! duplicate keys, point lookups and ordered range scans. Nodes live in
//! buffer-pool pages, so **index probes cost real page fetches** — the
//! `height + leaf pages` term in the optimizer's index-scan cost formula is
//! measurable against this structure (the plan-regret access-path sweep).
//!
//! A node is searched and edited where it lies in its page:
//!
//! ```text
//! offset 0   [u8]  node type: 0 = leaf, 1 = internal
//! offset 1   [u16] entry count
//! offset 3   [u64] leaf: next leaf's page id (INVALID_PAGE_ID = none)
//!                  internal: child[0], the subtree below every key
//! offset 11  slot array, 2 bytes each: [u16 entry offset], in (key, rid) order
//! ...        free space
//! frontier.. entries, packed towards USABLE_PAGE_SIZE:
//!              [key: the single-value tuple encoding][rid: u64 page, u16 slot]
//!              internal only: [u64 child holding the entries >= (key, rid)]
//! ```
//!
//! * Entries are ordered by the composite `(key, rid)`, which makes every
//!   entry unique and descent deterministic even with heavy duplication.
//! * An entry stores no length (its key encoding tells) and the header no
//!   frontier: entries never leave holes, so the frontier is the lowest
//!   slot offset. A node costs `11 + Σ (2 + entry)` bytes.
//! * Descent is a binary search over the slots of the pinned page, keys
//!   compared as stored (`KeyRef::cmp_value`, the order of `Value::cmp`),
//!   not by `memcmp`: the encoding is little-endian, `Int` and `Float`
//!   share a class, and a scan must hand back the stored variant.
//! * Insert writes the entry at the frontier and shifts the slots above
//!   it; delete closes the hole at once. Each is one `guard.write()`.
//!   Inserts split on byte overflow at `len / 2` (at the byte midpoint
//!   when a half would not fit); deletes are lazy (no rebalancing), the
//!   standard trade-off for load-then-query workloads.
//! * A meta page stores root, height and page count; only a split writes
//!   it. [`BTreeIndex::entry_count`] counts along the leaf chain.
//! * Readers take no tree lock: one landing left of its key while a split
//!   is half published follows the leaf chain right.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use evopt_common::{lockorder, EvoptError, Result, Tuple, Value};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, PageGuard};
use crate::page::{PageData, PageId, Rid, INVALID_PAGE_ID, PAGE_SIZE, USABLE_PAGE_SIZE};

/// Keys larger than this are rejected at insert; guarantees a split always
/// produces two nodes that fit in a page.
pub const MAX_KEY_BYTES: usize = 512;

const META_MAGIC: u64 = 0x6276_7472_6565_3032; // "bvtree02"
const META_MAGIC_V1: u64 = 0x6276_7472_6565_3031; // "bvtree01": nodes (de)serialised whole
const V1_REFUSED: &str = "b-tree meta page is format bvtree01: this build reads only bvtree02 \
                          and converts nothing (drop the index and create it again)";

const HEADER: usize = 11;
const SLOT: usize = 2;
const RID_BYTES: usize = 10;
const CHILD_BYTES: usize = 8;

fn corrupt(what: &str) -> EvoptError {
    EvoptError::Storage(format!("corrupt b-tree node: {what}"))
}

/// Split `n` bytes off the front of `bytes`; running out is corruption.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    let (head, rest) = bytes
        .split_at_checked(n)
        .ok_or_else(|| corrupt("truncated entry"))?;
    *bytes = rest;
    Ok(head)
}

fn take_arr<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N]> {
    let head = take(bytes, N)?;
    head.try_into().map_err(|_| corrupt("short field"))
}

fn u16_at(page: &PageData, off: usize) -> usize {
    u16::from_le_bytes([page[off], page[off + 1]]) as usize
}

fn put_u16(page: &mut PageData, off: usize, v: usize) {
    page[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

/// A key as it lies in the page: a [`Value`] that owns no heap memory, or
/// a string's bytes, borrowed (and unvalidated: comparing needs no more).
enum KeyRef<'a> {
    Scalar(Value),
    Str(&'a [u8]),
}

impl KeyRef<'_> {
    /// The order of `Value::cmp` — `Null` < `Bool` < `Int`/`Float` in one
    /// numeric class < `Str` bytewise — without materialising the key.
    fn cmp_value(&self, v: &Value) -> Ordering {
        match (self, v) {
            (KeyRef::Str(a), Value::Str(b)) => (*a).cmp(b.as_bytes()),
            (KeyRef::Str(_), _) => Ordering::Greater, // strings are the top class
            (KeyRef::Scalar(a), b) => a.cmp(b),
        }
    }

    fn to_value(&self) -> Result<Value> {
        match self {
            KeyRef::Scalar(v) => Ok(v.clone()),
            KeyRef::Str(b) => std::str::from_utf8(b)
                .map(|s| Value::Str(s.to_owned()))
                .map_err(|_| corrupt("invalid UTF-8 in a string key")),
        }
    }
}

/// One parsed entry, borrowed from the page.
struct Entry<'a> {
    /// The whole entry as stored.
    bytes: &'a [u8],
    key: KeyRef<'a>,
    rid: Rid,
    /// Internal nodes only (`INVALID_PAGE_ID` in a leaf).
    child: PageId,
}

impl<'a> Entry<'a> {
    /// Parse the entry at the front of `bytes`.
    fn parse(bytes: &'a [u8], internal: bool) -> Result<Entry<'a>> {
        let mut r = bytes;
        if take(&mut r, 2)? != [1, 0] {
            return Err(corrupt("key is not a single value"));
        }
        let key = match take(&mut r, 1)?[0] {
            0 => KeyRef::Scalar(Value::Null),
            1 => KeyRef::Scalar(Value::Bool(take(&mut r, 1)?[0] != 0)),
            2 => KeyRef::Scalar(Value::Int(i64::from_le_bytes(take_arr(&mut r)?))),
            3 => KeyRef::Scalar(Value::Float(f64::from_le_bytes(take_arr(&mut r)?))),
            4 => {
                let len = u32::from_le_bytes(take_arr(&mut r)?) as usize;
                KeyRef::Str(take(&mut r, len)?)
            }
            _ => return Err(corrupt("bad key tag")),
        };
        let page = u64::from_le_bytes(take_arr(&mut r)?);
        let rid = Rid::new(page, u16::from_le_bytes(take_arr(&mut r)?));
        let child = match internal {
            true => u64::from_le_bytes(take_arr(&mut r)?),
            false => INVALID_PAGE_ID,
        };
        let bytes = &bytes[..bytes.len() - r.len()];
        Ok(Entry {
            bytes,
            key,
            rid,
            child,
        })
    }

    fn cmp(&self, key: &Value, rid: Rid) -> Ordering {
        self.key.cmp_value(key).then(self.rid.cmp(&rid))
    }
}

/// `(key, rid)` as a leaf stores it; a separator is the same bytes with
/// its right child's page id appended.
fn leaf_entry(key: &Value, rid: Rid) -> Vec<u8> {
    let mut e = Tuple::new(vec![key.clone()]).encode();
    e.extend_from_slice(&rid.page.to_le_bytes());
    e.extend_from_slice(&rid.slot.to_le_bytes());
    e
}

/// Read-only view of a node page. `new` checks the header, each entry
/// access its own bounds: hostile bytes surface as errors.
struct Node<'a> {
    page: &'a PageData,
    internal: bool,
    count: usize,
    /// A leaf's next leaf, an internal node's `child[0]`.
    link: PageId,
}

impl<'a> Node<'a> {
    /// `kind`: `Some(true)` = must be internal, `Some(false)` = must be a leaf.
    fn new(page: &'a PageData, kind: Option<bool>) -> Result<Node<'a>> {
        let (internal, count) = (page[0] == 1, u16_at(page, 1));
        let wrong_kind = page[0] > 1 || kind.is_some_and(|k| k != internal);
        if wrong_kind || HEADER + SLOT * count > USABLE_PAGE_SIZE {
            return Err(corrupt("wrong node type or slot count"));
        }
        let link = u64::from_le_bytes(take_arr(&mut &page[3..])?);
        Ok(Node {
            page,
            internal,
            count,
            link,
        })
    }

    fn slot(&self, i: usize) -> usize {
        u16_at(self.page, HEADER + SLOT * i)
    }

    fn entry(&self, i: usize) -> Result<Entry<'a>> {
        match self.page.get(self.slot(i)..USABLE_PAGE_SIZE) {
            Some(bytes) => Entry::parse(bytes, self.internal),
            None => Err(corrupt("slot offset past the page")),
        }
    }

    /// Where the entry bytes begin: packed, so the lowest slot offset.
    fn frontier(&self) -> usize {
        let slots = (0..self.count).map(|i| self.slot(i));
        slots.fold(USABLE_PAGE_SIZE, usize::min)
    }

    /// How many leading entries are `below`: a binary search.
    fn partition(&self, mut below: impl FnMut(&Entry) -> bool) -> Result<usize> {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if below(&self.entry(mid)?) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

/// A node page holding `entries`, which are in order.
fn pack(internal: bool, link: PageId, entries: &[&[u8]]) -> Result<PageData> {
    let mut page = [0u8; PAGE_SIZE];
    page[0] = internal as u8;
    set_link(&mut page, link);
    for (i, entry) in entries.iter().enumerate() {
        if !insert_at(&mut page, i, entry)? {
            return Err(EvoptError::Internal(
                "half of a split b-tree node does not fit".into(),
            ));
        }
    }
    Ok(page)
}

fn set_link(page: &mut PageData, link: PageId) {
    page[3..HEADER].copy_from_slice(&link.to_le_bytes());
}

/// Replace the node under `guard` (the LSN trailer is the WAL's).
fn put_node(guard: &PageGuard, node: &PageData) {
    guard.write()[..USABLE_PAGE_SIZE].copy_from_slice(&node[..USABLE_PAGE_SIZE]);
}

/// Make `entry` slot `idx`: its bytes go to the frontier, the slots from
/// `idx` up move one place. `false` (nothing written) when the node is full.
fn insert_at(page: &mut PageData, idx: usize, entry: &[u8]) -> Result<bool> {
    let node = Node::new(page, None)?;
    let (count, frontier) = (node.count, node.frontier());
    let (at, slots_end) = (HEADER + SLOT * idx, HEADER + SLOT * count);
    if idx > count || slots_end + SLOT + entry.len() > frontier {
        return Ok(false);
    }
    let off = frontier - entry.len();
    page[off..frontier].copy_from_slice(entry);
    page.copy_within(at..slots_end, at + SLOT);
    put_u16(page, at, off);
    put_u16(page, 1, count + 1);
    Ok(true)
}

/// Drop slot `idx` and close the hole its bytes leave, so the entries stay
/// packed and the frontier stays the lowest offset.
fn remove_at(page: &mut PageData, idx: usize) -> Result<()> {
    let node = Node::new(page, None)?;
    let (count, frontier, off) = (node.count, node.frontier(), node.slot(idx));
    let len = node.entry(idx)?.bytes.len();
    page.copy_within(frontier..off, frontier + len);
    for at in (HEADER..HEADER + SLOT * count).step_by(SLOT) {
        let o = u16_at(page, at);
        if o < off {
            put_u16(page, at, o + len);
        }
    }
    let at = HEADER + SLOT * idx;
    page.copy_within(at + SLOT..HEADER + SLOT * count, at);
    put_u16(page, 1, count - 1);
    Ok(())
}

struct Meta {
    root: PageId,
    height: u32,
    page_count: u64,
}

impl Meta {
    fn store(&self, page: &mut PageData) {
        page[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&self.root.to_le_bytes());
        page[16..20].copy_from_slice(&self.height.to_le_bytes());
        page[20..28].copy_from_slice(&self.page_count.to_le_bytes());
    }

    fn load(page: &PageData) -> Result<Meta> {
        let mut r = &page[..];
        match u64::from_le_bytes(take_arr(&mut r)?) {
            META_MAGIC => {}
            META_MAGIC_V1 => return Err(EvoptError::Storage(V1_REFUSED.into())),
            _ => return Err(EvoptError::Storage("not a b-tree meta page".into())),
        }
        Ok(Meta {
            root: u64::from_le_bytes(take_arr(&mut r)?),
            height: u32::from_le_bytes(take_arr(&mut r)?),
            page_count: u64::from_le_bytes(take_arr(&mut r)?),
        })
    }
}

/// Whether `key` is before a low `bound` (`side` = `Less`) or past a high one.
fn outside(key: &KeyRef, bound: Bound<&Value>, side: Ordering) -> bool {
    match bound {
        Bound::Unbounded => false,
        Bound::Included(v) => key.cmp_value(v) == side,
        Bound::Excluded(v) => key.cmp_value(v) != side.reverse(),
    }
}

/// Links a scan has followed along the leaf chain, against the node pages
/// the meta page counts: a chain longer than the tree is a cycle.
struct Hops {
    meta_page: PageId,
    taken: u64,
    limit: u64,
}

impl Hops {
    /// Follow one link. Past the page count the scan started with, judge by
    /// the count now: the tree may have grown under a live scan.
    fn step(&mut self, pool: &Arc<BufferPool>, next: PageId) -> Result<PageGuard> {
        self.taken += 1;
        if self.taken > self.limit {
            self.limit = Meta::load(&pool.fetch(self.meta_page)?.read())?.page_count;
            if self.taken > self.limit {
                return Err(corrupt("leaf chain longer than the tree"));
            }
        }
        pool.fetch(next)
    }
}

/// Hand the entries with keys within `(low, high)` to `emit`, in order, from
/// `leaf` along the chain. `emit` says whether to pause at the end of its
/// leaf; the result is the leaf to resume on (none: the scan is over).
fn follow(
    pool: &Arc<BufferPool>,
    mut leaf: PageGuard,
    hops: &mut Hops,
    low: Bound<&Value>,
    high: Bound<&Value>,
    mut emit: impl FnMut(&Entry) -> Result<bool>,
) -> Result<PageId> {
    loop {
        let mut pause = false;
        let next = {
            let page = leaf.read();
            let node = Node::new(&page, Some(false))?;
            for i in node.partition(|e| outside(&e.key, low, Ordering::Less))?..node.count {
                let e = node.entry(i)?;
                if outside(&e.key, high, Ordering::Greater) {
                    return Ok(INVALID_PAGE_ID);
                }
                pause = emit(&e)?;
            }
            node.link
        };
        if pause || next == INVALID_PAGE_ID {
            return Ok(next);
        }
        leaf = hops.step(pool, next)?;
    }
}

/// A B+-tree index over one column.
pub struct BTreeIndex {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    /// The meta page's height and page count, for [`BTreeIndex::shape`].
    height: AtomicU32,
    page_count: AtomicU64,
    /// Rank [`lockorder::BTREE_WRITE`]: serialises writers (held across
    /// page fetches at rank POOL); readers are safe against the
    /// page-level state.
    write_lock: Mutex<()>,
}

impl BTreeIndex {
    /// Create an empty tree (allocates a meta page and an empty root leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<BTreeIndex> {
        let root = pool.new_page()?;
        put_node(&root, &pack(false, INVALID_PAGE_ID, &[])?);
        let meta_guard = pool.new_page()?;
        let meta = Meta {
            root: root.id(),
            height: 1,
            page_count: 1,
        };
        meta.store(&mut meta_guard.write());
        BTreeIndex::open(pool, meta_guard.id())
    }

    /// Re-open a tree from its meta page. A page of the previous format
    /// (`bvtree01`) is refused, not converted.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<BTreeIndex> {
        let meta = Meta::load(&pool.fetch(meta_page)?.read())?;
        Ok(BTreeIndex {
            pool,
            meta_page,
            height: AtomicU32::new(meta.height),
            page_count: AtomicU64::new(meta.page_count),
            write_lock: Mutex::new(()),
        })
    }

    /// The meta page id — the tree's stable identity for the catalog.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    fn read_meta(&self) -> Result<Meta> {
        Meta::load(&self.pool.fetch(self.meta_page)?.read())
    }

    /// `(height, page_count)` as the meta page holds them, read with no I/O.
    pub fn shape(&self) -> (u32, u64) {
        (self.height.load(Relaxed), self.page_count.load(Relaxed))
    }

    /// Total entries in the tree, counted along the leaf chain.
    pub fn entry_count(&self) -> Result<u64> {
        let (mut total, all) = (0, Bound::Unbounded);
        let (leaf, mut hops) = self.descend_to(all)?;
        follow(&self.pool, leaf, &mut hops, all, all, |_| {
            total += 1;
            Ok(false)
        })?;
        Ok(total)
    }

    /// Insert `(key, rid)`. Duplicate keys are allowed; the exact duplicate
    /// `(key, rid)` pair is also allowed (and will be returned twice).
    pub fn insert(&self, key: &Value, rid: Rid) -> Result<()> {
        let entry = leaf_entry(key, rid);
        if entry.len() - RID_BYTES > MAX_KEY_BYTES {
            let msg = format!("b-tree key exceeds {MAX_KEY_BYTES} bytes");
            return Err(EvoptError::Storage(msg));
        }
        let _r = lockorder::acquire(lockorder::BTREE_WRITE);
        let _w = self.write_lock.lock();
        let mut meta = self.read_meta()?;
        let mut path = Vec::new();
        let at_or_below = |e: &Entry| e.cmp(key, rid) != Ordering::Greater;
        let leaf = self.descend(&meta, at_or_below, Some(&mut path))?;
        let idx = Node::new(&leaf.read(), Some(false))?.partition(at_or_below)?;
        let mut split = self.add(&leaf, idx, &entry)?;
        drop(leaf);
        // A split hands its parent a separator; past the root, the tree grows.
        let grown = split.is_some();
        while let Some(sep) = split {
            meta.page_count += 1;
            split = match path.pop() {
                Some((parent, idx)) => self.add(&self.pool.fetch(parent)?, idx, &sep)?,
                None => {
                    let new_root = self.pool.new_page()?;
                    put_node(&new_root, &pack(true, meta.root, &[&sep])?);
                    meta.root = new_root.id();
                    meta.height += 1;
                    meta.page_count += 1;
                    None
                }
            };
        }
        if grown {
            meta.store(&mut self.pool.fetch(self.meta_page)?.write());
            self.height.store(meta.height, Relaxed);
            self.page_count.store(meta.page_count, Relaxed);
        }
        Ok(())
    }

    /// Put `entry` at slot `idx` of the node under `guard`. A full node
    /// splits: the result is then the separator entry for its parent.
    fn add(&self, guard: &PageGuard, idx: usize, entry: &[u8]) -> Result<Option<Vec<u8>>> {
        if insert_at(&mut guard.write(), idx, entry)? {
            return Ok(None);
        }
        // Cut "this node's entries with `entry` at `idx`" at `len / 2`, or,
        // when a half would not fit (long keys beside short ones), where the
        // lower half's bytes first reach half the total. Both halves pack
        // before the right page is allocated, so a refusal leaks no page; it
        // is written first, the old page replaced last: a reader sees the
        // whole node or its lower half linked to the upper.
        let (mut left, right, mut sep, internal) = {
            let data = guard.read();
            let node = Node::new(&data, None)?;
            let list = (0..node.count).map(|i| Ok(node.entry(i)?.bytes));
            let mut list = list.collect::<Result<Vec<_>>>()?;
            list.insert(idx.min(list.len()), entry);
            let bytes = |half: &[&[u8]]| half.iter().map(|e| SLOT + e.len()).sum::<usize>();
            let fits = |half: &[&[u8]]| HEADER + bytes(half) <= USABLE_PAGE_SIZE;
            let (n, up) = (list.len(), node.internal as usize);
            let mut cut = n / 2;
            if !fits(&list[..cut]) || !fits(&list[cut + up..]) {
                let total = bytes(&list);
                let reach = (1..n).find(|&k| 2 * bytes(&list[..k]) >= total);
                cut = reach.unwrap_or(n - 1);
            }
            let (lower, upper) = list.split_at(cut);
            if node.internal {
                // The middle key moves up; its child is the right half's `child[0]`.
                let up = Entry::parse(upper[0], true)?;
                let sep = &up.bytes[..up.bytes.len() - CHILD_BYTES];
                let left = pack(true, node.link, lower)?;
                (left, pack(true, up.child, &upper[1..])?, sep.to_vec(), true)
            } else {
                let right = pack(false, node.link, upper)?;
                let left = pack(false, INVALID_PAGE_ID, lower)?;
                (left, right, upper[0].to_vec(), false)
            }
        };
        let right_guard = self.pool.new_page()?;
        if !internal {
            // The lower leaf links to the page just allocated.
            set_link(&mut left, right_guard.id());
        }
        put_node(&right_guard, &right);
        put_node(guard, &left);
        sep.extend_from_slice(&right_guard.id().to_le_bytes());
        Ok(Some(sep))
    }

    /// Remove the exact `(key, rid)` entry. Returns whether it was present.
    /// Lazy deletion: nodes are never merged or rebalanced.
    pub fn delete(&self, key: &Value, rid: Rid) -> Result<bool> {
        let _r = lockorder::acquire(lockorder::BTREE_WRITE);
        let _w = self.write_lock.lock();
        let at_or_below = |e: &Entry| e.cmp(key, rid) != Ordering::Greater;
        let leaf = self.descend(&self.read_meta()?, at_or_below, None)?;
        let idx = {
            let page = leaf.read();
            let node = Node::new(&page, Some(false))?;
            let idx = node.partition(|e| e.cmp(key, rid) == Ordering::Less)?;
            if idx == node.count || node.entry(idx)?.cmp(key, rid) != Ordering::Equal {
                return Ok(false);
            }
            idx
        };
        remove_at(&mut leaf.write(), idx)?;
        Ok(true)
    }

    /// Pin the leaf reached by taking, in each internal node, the child
    /// after the separators that are `below`, one pin at a time. `path`
    /// collects each internal page and the slot taken in it.
    fn descend(
        &self,
        meta: &Meta,
        below: impl Fn(&Entry) -> bool,
        mut path: Option<&mut Vec<(PageId, usize)>>,
    ) -> Result<PageGuard> {
        let mut guard = self.pool.fetch(meta.root)?;
        for _ in 1..meta.height {
            let (idx, child) = {
                let page = guard.read();
                let node = Node::new(&page, Some(true))?;
                // `child[0]` lies below every key, the others right of theirs.
                match node.partition(&below)? {
                    0 => (0, node.link),
                    idx => (idx, node.entry(idx - 1)?.child),
                }
            };
            if let Some(path) = path.as_mut() {
                path.push((guard.id(), idx));
            }
            drop(guard);
            guard = self.pool.fetch(child)?;
        }
        Ok(guard)
    }

    /// Pin the leaf where a scan from `low` starts, with the scan's hop
    /// budget. Separators are judged by key alone: an excluded bound
    /// descends past every duplicate of its key.
    fn descend_to(&self, low: Bound<&Value>) -> Result<(PageGuard, Hops)> {
        let before = |e: &Entry| outside(&e.key, low, Ordering::Less);
        let meta = self.read_meta()?;
        let hops = Hops {
            meta_page: self.meta_page,
            taken: 0,
            limit: meta.page_count,
        };
        Ok((self.descend(&meta, before, None)?, hops))
    }

    /// All rids whose key equals `key`, in rid order.
    pub fn search_eq(&self, key: &Value) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        let bound = Bound::Included(key);
        let (leaf, mut hops) = self.descend_to(bound)?;
        follow(&self.pool, leaf, &mut hops, bound, bound, |e| {
            out.push(e.rid);
            Ok(false)
        })?;
        Ok(out)
    }

    /// Ordered scan of entries with keys within `(low, high)`.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Result<BTreeRangeScan> {
        let (leaf, hops) = self.descend_to(low)?;
        let mut scan = BTreeRangeScan {
            pool: Arc::clone(&self.pool),
            next_leaf: INVALID_PAGE_ID,
            hops,
            buffer: Vec::new().into_iter(),
            low: low.cloned(),
            high: high.cloned(),
        };
        scan.fill(leaf)?;
        Ok(scan)
    }

    /// Structural check: every node packed and in bounds, every leaf at the
    /// tree's height, leaf entries and the separators between them sorted
    /// in order of traversal (every ordering invariant at once), leaf chain
    /// and meta page agreeing with the tree, the shape in memory with the
    /// meta page. Test/debug helper.
    pub fn check_invariants(&self) -> Result<()> {
        let meta = self.read_meta()?;
        let (mut seq, mut entries, mut pages) = (Vec::new(), 0u64, 0u64);
        self.check_rec(meta.root, meta.height, &mut seq, &mut entries, &mut pages)?;
        let chained = self.entry_count()?;
        // Non-strict: an exact duplicate (key, rid) pair may straddle a
        // split, making the separator equal to the left leaf's last entry.
        if seq.windows(2).any(|w| w[0] > w[1]) || entries != chained || pages != meta.page_count {
            return Err(EvoptError::Internal(format!(
                "b-tree keys out of order, or {entries} entries on {pages} pages against \
                 {chained} in the leaf chain and {} pages in the meta page",
                meta.page_count
            )));
        }
        if self.shape() != (meta.height, meta.page_count) {
            return Err(corrupt("shape in memory is not the meta page's"));
        }
        Ok(())
    }

    /// Appends the subtree at `page`, which must have `levels` levels, to `seq`.
    fn check_rec(
        &self,
        page: PageId,
        levels: u32,
        seq: &mut Vec<(Value, Rid)>,
        entries: &mut u64,
        pages: &mut u64,
    ) -> Result<()> {
        let mut items = Vec::new(); // each (key, rid), and in an internal node its right child
        let first = {
            let guard = self.pool.fetch(page)?;
            let data = guard.read();
            let node = Node::new(&data, Some(levels > 1))?;
            let mut used = 0;
            for i in 0..node.count {
                let e = node.entry(i)?;
                used += e.bytes.len();
                items.push(((e.key.to_value()?, e.rid), e.child));
            }
            let frontier = node.frontier();
            if frontier < HEADER + SLOT * node.count || USABLE_PAGE_SIZE - frontier != used {
                return Err(corrupt("entries overlap the slots or leave holes"));
            }
            node.link
        };
        *pages += 1;
        if levels == 1 {
            *entries += items.len() as u64;
            seq.extend(items.into_iter().map(|(key, _)| key));
            return Ok(());
        }
        self.check_rec(first, levels - 1, seq, entries, pages)?;
        for (sep, child) in items {
            seq.push(sep);
            self.check_rec(child, levels - 1, seq, entries, pages)?;
        }
        Ok(())
    }
}

/// Iterator over `(key, rid)` pairs from a [`BTreeIndex::range`] call.
/// Buffers one leaf's in-range entries at a time; no pin between calls.
pub struct BTreeRangeScan {
    pool: Arc<BufferPool>,
    /// Leaf to read once `buffer` is spent; `INVALID_PAGE_ID` ends the scan.
    next_leaf: PageId,
    hops: Hops,
    buffer: std::vec::IntoIter<(Value, Rid)>,
    low: Bound<Value>,
    high: Bound<Value>,
}

impl BTreeRangeScan {
    /// Buffer the in-range entries of `leaf`, or of the first after it that
    /// has any (the low bound may lie past a leaf's end).
    fn fill(&mut self, leaf: PageGuard) -> Result<()> {
        let mut buffer = Vec::new();
        self.next_leaf = follow(
            &self.pool,
            leaf,
            &mut self.hops,
            self.low.as_ref(),
            self.high.as_ref(),
            |e| {
                buffer.push((e.key.to_value()?, e.rid));
                Ok(true)
            },
        )?;
        self.buffer = buffer.into_iter();
        Ok(())
    }
}

impl Iterator for BTreeRangeScan {
    type Item = Result<(Value, Rid)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffer.len() == 0 && self.next_leaf != INVALID_PAGE_ID {
            let leaf = self.hops.step(&self.pool, self.next_leaf);
            if let Err(e) = leaf.and_then(|leaf| self.fill(leaf)) {
                self.next_leaf = INVALID_PAGE_ID;
                return Some(Err(e));
            }
        }
        self.buffer.next().map(Ok)
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
        assert_eq!(t.shape(), (1, 1));
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
        assert!(t.shape().0 >= 3, "shape {:?}", t.shape());
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

    /// Keys just under `MAX_KEY_BYTES` beside tiny ones: cut at `len / 2`,
    /// the lower half of the leaf would not fit its page.
    #[test]
    fn split_of_long_keys_beside_short_ones_fits() {
        let t = mktree(32);
        for i in 0..20 {
            t.insert(&Value::Str(format!("z{i:02}")), rid(i)).unwrap();
        }
        for i in 0..12 {
            let long = format!("a{i:02}{}", "x".repeat(MAX_KEY_BYTES - 20));
            t.insert(&Value::Str(long), rid(100 + i)).unwrap();
        }
        assert_eq!(t.entry_count().unwrap(), 32);
        t.check_invariants().unwrap();
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

    /// The shape in memory is the meta page's after every insert while
    /// splits grow the tree to height 3, and again once the tree is opened
    /// from that page.
    #[test]
    fn shape_in_memory_is_the_meta_page() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        let on_page = |t: &BTreeIndex| {
            let meta = t.read_meta().unwrap();
            (meta.height, meta.page_count)
        };
        let mut order: Vec<i64> = (0..20_000).collect();
        order.shuffle(&mut StdRng::seed_from_u64(11));
        for &i in &order {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
            assert_eq!(t.shape(), on_page(&t), "after inserting {i}");
        }
        assert!(t.shape().0 >= 3, "shape {:?}", t.shape());
        let reopened = BTreeIndex::open(Arc::clone(&pool), t.meta_page()).unwrap();
        assert_eq!(reopened.shape(), on_page(&t));
        reopened.check_invariants().unwrap();
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
        let (height, pages) = t.shape();
        let height = height as u64;
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

    #[test]
    fn excluded_low_bound_skips_the_duplicates_by_descent() {
        // `k > 7` over 5 000 copies of 7 must not read the ~30 leaves that
        // hold them: the descent itself lands past the last copy.
        let disk = Arc::new(DiskManager::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        for i in 0..5_000u64 {
            t.insert(&Value::Int(7), rid(i)).unwrap();
        }
        for k in [6, 8, 9] {
            t.insert(&Value::Int(k), rid(0)).unwrap();
        }
        let (height, pages) = t.shape();
        assert!(pages > 20);
        let height = height as u64;
        let before = disk.snapshot();
        let got: Vec<i64> = t
            .range(Bound::Excluded(&Value::Int(7)), Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0.as_i64().unwrap())
            .collect();
        let delta = disk.snapshot().since(&before);
        assert_eq!(got, vec![8, 9]);
        assert!(
            delta.reads <= height + 3,
            "scan read {} pages, height {height}",
            delta.reads
        );
    }

    /// Shape pin: the page layout costs exactly the bytes the whole-node
    /// format (`bvtree01`) did and splits at the same points, so height and
    /// page count are the values that format produced for the same builds.
    #[test]
    fn tree_shapes_match_the_previous_format() {
        let t = mktree(256);
        for i in 0..100_000i64 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        assert_eq!(t.shape(), (3, 1140));

        let t = mktree(256);
        let mut order: Vec<i64> = (0..40_000).collect();
        order.shuffle(&mut StdRng::seed_from_u64(7));
        for &i in &order {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        assert_eq!(t.shape(), (3, 321));

        let t = mktree(256);
        for i in 0..20_000u64 {
            let n = i.wrapping_mul(2_654_435_761) % 1_000_003;
            let s = format!("{n:0width$}", width = 1 + (i % 97) as usize);
            t.insert(&Value::Str(s), rid(i)).unwrap();
        }
        assert_eq!(t.shape(), (3, 515));
        t.check_invariants().unwrap();
    }

    #[test]
    fn open_refuses_the_previous_format() {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 8);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        let meta = t.meta_page();
        pool.fetch(meta).unwrap().write()[0..8].copy_from_slice(&META_MAGIC_V1.to_le_bytes());
        match BTreeIndex::open(pool, meta).map(|_| ()) {
            Err(EvoptError::Storage(msg)) => {
                assert!(
                    msg.contains("bvtree01") && msg.contains("bvtree02"),
                    "{msg}"
                )
            }
            other => panic!("expected the typed refusal, got {other:?}"),
        }
    }

    /// One writer splits its way through 20 000 shuffled keys while two
    /// readers probe keys it has already published. Readers take no tree
    /// lock: a half-published split must never hide a published key.
    #[test]
    fn readers_find_published_keys_during_splits() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let t = mktree(512);
        let mut order: Vec<i64> = (0..20_000).collect();
        order.shuffle(&mut StdRng::seed_from_u64(11));
        let published = AtomicUsize::new(0); // order[..published] are in the tree
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for (i, &k) in order.iter().enumerate() {
                    t.insert(&Value::Int(k), rid(k as u64)).unwrap();
                    published.store(i + 1, SeqCst);
                }
            });
            for reader in 0..2u64 {
                let (t, order, published, start) = (&t, &order, &published, &start);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(reader);
                    start.wait();
                    let mut probes = 0u64;
                    loop {
                        let n = published.load(SeqCst);
                        if n > 0 {
                            let k = order[rng.random_range(0..n)];
                            assert_eq!(t.search_eq(&Value::Int(k)).unwrap(), vec![rid(k as u64)]);
                            probes += 1;
                        }
                        if n == order.len() {
                            break;
                        }
                    }
                    assert!(probes > 0);
                });
            }
        });
        assert!(t.shape().0 >= 3);
        assert_eq!(t.entry_count().unwrap(), 20_000);
        t.check_invariants().unwrap();
    }

    /// Every key class, the edges of each, and strings long enough that a
    /// few hundred entries make a tree of height ≥ 3, up to `MAX_KEY_BYTES`.
    fn arb_key() -> BoxedStrategy<Value> {
        let long = || {
            // The key's encoding adds 7 bytes to the string's.
            ".{140,505}".prop_map(|mut s: String| {
                while s.len() > MAX_KEY_BYTES - 7 {
                    s.pop();
                }
                Value::Str(s)
            })
        };
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-50i64..50).prop_map(Value::Int),
            prop_oneof![
                Just(-0.0),
                Just(0.0),
                Just(7.5),
                Just(f64::NAN),
                Just(f64::INFINITY)
            ]
            .prop_map(Value::Float),
            ".{0,40}".prop_map(Value::Str),
            long(),
            long(),
            long(),
            long(),
            long(),
            long(),
        ]
    }

    /// The comparator's whole domain, including the numeric pairs where
    /// `Int as f64` rounds (|x| > 2^53) and every special float.
    fn arb_any_value() -> BoxedStrategy<Value> {
        let ints = prop_oneof![
            any::<i64>(),
            -3i64..3,
            Just(i64::MIN),
            Just(i64::MAX),
            (1i64 << 53) - 2..(1i64 << 53) + 3,
            -(1i64 << 53) - 2..-(1i64 << 53) + 3,
        ];
        let floats = prop_oneof![
            any::<f64>(),
            Just(f64::NAN),
            Just(-0.0),
            Just(0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just((1u64 << 53) as f64),
            (-3i64..3).prop_map(|i| i as f64),
        ];
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            ints.prop_map(Value::Int),
            floats.prop_map(Value::Float),
            ".{0,3}".prop_map(Value::Str),
            ".{0,50}".prop_map(Value::Str), // up to 200 bytes: chars run to 4
        ]
    }

    /// Overwrite `page` and check that every operation comes back with `Ok`
    /// or a storage/internal error — hostile bytes must never panic.
    fn survives_corruption(t: &BTreeIndex, pool: &Arc<BufferPool>, page: PageId, bytes: &[u8]) {
        pool.fetch(page).unwrap().write()[..bytes.len()].copy_from_slice(bytes);
        let graceful = |r: Result<()>| match r {
            Ok(()) | Err(EvoptError::Storage(_) | EvoptError::Internal(_)) => {}
            Err(e) => panic!("unexpected error class: {e:?}"),
        };
        let all = || t.range(Bound::Unbounded, Bound::Unbounded);
        for k in [-1, 0, 150, 299, 1_000] {
            let key = Value::Int(k);
            graceful(t.search_eq(&key).map(|_| ()));
            graceful(all().and_then(|scan| scan.collect::<Result<Vec<_>>>().map(|_| ())));
            let from = t.range(Bound::Excluded(&key), Bound::Included(&Value::Int(k + 40)));
            graceful(from.and_then(|scan| scan.collect::<Result<Vec<_>>>().map(|_| ())));
            graceful(t.insert(&key, rid(9)));
            graceful(t.delete(&key, rid(k as u64)).map(|_| ()));
            graceful(t.check_invariants());
        }
    }

    /// A height-2 tree of 300 `Int` entries: `(tree, pool, root, a leaf)`.
    fn small_two_level_tree() -> (BTreeIndex, Arc<BufferPool>, PageId, PageId) {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 32);
        let t = BTreeIndex::create(Arc::clone(&pool)).unwrap();
        for i in 0..300 {
            t.insert(&Value::Int(i), rid(i as u64)).unwrap();
        }
        let meta = t.read_meta().unwrap();
        assert_eq!(meta.height, 2);
        let leaf = t
            .descend_to(Bound::Included(&Value::Int(150)))
            .unwrap()
            .0
            .id();
        (t, pool, meta.root, leaf)
    }

    /// A `link` that points back at an earlier leaf. The random hostile
    /// bytes below never build one (a random `link` misses every live
    /// page): every walk of the chain must come back with an error, not spin.
    #[test]
    fn a_cycle_in_the_leaf_chain_is_an_error() {
        let (t, pool, _, leaf) = small_two_level_tree();
        let first = t.descend_to(Bound::Unbounded).unwrap().0.id();
        pool.fetch(leaf).unwrap().write()[3..HEADER].copy_from_slice(&first.to_le_bytes());
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        for result in [
            t.entry_count().map(|_| ()),
            all.collect::<Result<Vec<_>>>().map(|_| ()),
            t.check_invariants(),
        ] {
            match result {
                Err(EvoptError::Storage(msg)) => {
                    assert_eq!(msg, "corrupt b-tree node: leaf chain longer than the tree")
                }
                other => panic!("expected the hop bound to trip, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Model-based test: tree contents always match a sorted reference
        /// vector under random insert/delete interleavings, over every key
        /// class, through splits at three levels.
        #[test]
        fn prop_matches_model(ops in prop::collection::vec(
            (0u8..4, arb_key(), 0u64..20), 1..1200)) {
            let t = mktree(64);
            let mut model: Vec<(Value, Rid)> = Vec::new();
            for (op, k, r) in ops {
                let entry = (k, rid(r));
                if op > 0 || model.is_empty() {
                    t.insert(&entry.0, entry.1).unwrap();
                    // Equal entries (`Int(7)` and `Float(7.0)` are equal)
                    // keep insertion order, in the tree as here.
                    let at = model.partition_point(|e| e <= &entry);
                    model.insert(at, entry);
                } else {
                    let at = model.partition_point(|e| e < &entry);
                    let present = model.get(at) == Some(&entry);
                    prop_assert_eq!(t.delete(&entry.0, entry.1).unwrap(), present);
                    if present {
                        model.remove(at);
                    }
                }
            }
            let got: Vec<(Value, Rid)> = t
                .range(Bound::Unbounded, Bound::Unbounded).unwrap()
                .map(|x| x.unwrap())
                .collect();
            // `Debug` tells the stored variant apart where `==` does not.
            prop_assert_eq!(format!("{got:?}"), format!("{model:?}"));
            prop_assert_eq!(t.entry_count().unwrap(), model.len() as u64);
            // Most cases get there: the splits above run at three levels.
            prop_assert!(model.len() < 600 || t.shape().0 >= 3);
            t.check_invariants().unwrap();
        }

        /// Range scans agree with filtering a full scan, for an included
        /// and an excluded low bound.
        #[test]
        fn prop_range_equals_filtered_full_scan(
            keys in prop::collection::vec(-100i64..100, 0..300),
            lo in -120i64..120, hi in -120i64..120) {
            let t = mktree(32);
            for (i, &k) in keys.iter().enumerate() {
                t.insert(&Value::Int(k), rid(i as u64)).unwrap();
            }
            let (vlo, vhi) = (Value::Int(lo), Value::Int(hi));
            for (low, first) in [(Bound::Included(&vlo), lo), (Bound::Excluded(&vlo), lo + 1)] {
                let got: Vec<i64> = t
                    .range(low, Bound::Excluded(&vhi)).unwrap()
                    .map(|x| x.unwrap().0.as_i64().unwrap())
                    .collect();
                let mut want: Vec<i64> = keys.iter().copied()
                    .filter(|&k| k >= first && k < hi).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }

        /// Hostile node bytes: a leaf and an internal page overwritten with
        /// arbitrary bytes, then with a plausible header over slots and
        /// counts that point anywhere.
        #[test]
        fn prop_hostile_node_bytes_never_panic(
            junk in prop::collection::vec(any::<u8>(), USABLE_PAGE_SIZE),
            count in prop_oneof![0usize..400, Just(2038usize), any::<u16>().prop_map(usize::from)],
            slots in prop::collection::vec(any::<u16>(), 0..400),
            hit_leaf in any::<bool>()) {
            let (t, pool, root, leaf) = small_two_level_tree();
            let page = if hit_leaf { leaf } else { root };
            survives_corruption(&t, &pool, page, &junk);

            let (t, pool, root, leaf) = small_two_level_tree();
            let page = if hit_leaf { leaf } else { root };
            let mut header = vec![u8::from(!hit_leaf)];
            header.extend_from_slice(&(count as u16).to_le_bytes());
            header.extend_from_slice(&pool.fetch(page).unwrap().read()[3..HEADER]);
            header.extend(slots.iter().flat_map(|s| s.to_le_bytes()));
            survives_corruption(&t, &pool, page, &header);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The in-page comparator is `Value::cmp`, then `Rid::cmp`.
        #[test]
        fn prop_comparator_equals_value_cmp(
            a in arb_any_value(), b in arb_any_value(),
            ra in (0u64..3, 0u16..3), rb in (0u64..3, 0u16..3)) {
            let (ra, rb) = (Rid::new(ra.0, ra.1), Rid::new(rb.0, rb.1));
            let mut stored = leaf_entry(&a, ra);
            let want = a.cmp(&b).then(ra.cmp(&rb));
            prop_assert_eq!(Entry::parse(&stored, false).unwrap().cmp(&b, rb), want);
            // The same key as a separator: the child bytes change nothing.
            stored.extend_from_slice(&77u64.to_le_bytes());
            let entry = Entry::parse(&stored, true).unwrap();
            prop_assert_eq!((entry.cmp(&b, rb), entry.child), (want, 77));
            prop_assert_eq!(format!("{:?}", entry.key.to_value().unwrap()), format!("{a:?}"));
        }
    }
}
