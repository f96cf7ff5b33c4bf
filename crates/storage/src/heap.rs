//! Heap files: unordered tuple storage.
//!
//! A heap file is a chain of slotted pages (linked through each page's
//! `next_page` header field). Inserts append to the tail page, allocating a
//! new page when the tuple doesn't fit — so a freshly-loaded table occupies
//! the minimal number of pages and `page_count` matches the `P(R)` the cost
//! model reasons about. Deletes are in-place tombstones, and an update
//! rewrites its tuple in the same slot, so a tuple keeps its [`Rid`] and
//! its place in chain order for as long as it fits on its page; space
//! from deleted tuples, and from updated tuples that grew, is not
//! reclaimed.
//!
//! A table's heap outlives every handle to it. A *scratch* heap
//! ([`HeapFile::scratch`]: an operator's sort run, join partition or
//! materialised inner) lives only as long as its handle: it records its
//! pages as it grows, they are invisible to the WAL's flush gate, and
//! dropping the handle discards them — no write-back, and the disk
//! releases them. Errors, governor kills and cancellations free a spill
//! the same way, by dropping the operator that owns it. A [`HeapScan`]
//! does not keep its heap alive: whoever scans a scratch heap holds it.

use std::sync::Arc;

use evopt_common::{lockorder, EvoptError, Result, Tuple};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, PageGuard};
use crate::page::{PageId, Rid, SlottedPage, SlottedPageView, INVALID_PAGE_ID};

struct HeapMeta {
    last_page: PageId,
    page_count: u64,
    tuple_count: u64,
    /// A scratch heap's pages, which `Drop` discards; `None` for a table's
    /// heap.
    scratch: Option<Vec<PageId>>,
}

impl HeapMeta {
    /// A fresh page for the chain, recorded if the heap is scratch.
    fn new_page(&mut self, pool: &Arc<BufferPool>) -> Result<PageGuard> {
        match &mut self.scratch {
            Some(pages) => {
                let guard = pool.new_scratch_page()?;
                pages.push(guard.id());
                Ok(guard)
            }
            None => pool.new_page(),
        }
    }
}

/// An unordered collection of tuples backed by a page chain.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first_page: PageId,
    /// Rank [`lockorder::HEAP_META`]: held across the tail-page fetch and
    /// fresh-page allocation on the insert path (both rank POOL, above).
    meta: Mutex<HeapMeta>,
}

impl HeapFile {
    /// Create an empty heap file (allocates its first page).
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        HeapFile::init(pool, None)
    }

    /// Create an empty scratch heap, whose pages are freed when it drops.
    pub fn scratch(pool: Arc<BufferPool>) -> Result<HeapFile> {
        HeapFile::init(pool, Some(Vec::new()))
    }

    fn init(pool: Arc<BufferPool>, scratch: Option<Vec<PageId>>) -> Result<HeapFile> {
        let mut meta = HeapMeta {
            last_page: INVALID_PAGE_ID,
            page_count: 1,
            tuple_count: 0,
            scratch,
        };
        let guard = meta.new_page(&pool)?;
        SlottedPage::init(&mut guard.write());
        meta.last_page = guard.id();
        drop(guard);
        Ok(HeapFile {
            pool,
            first_page: meta.last_page,
            meta: Mutex::new(meta),
        })
    }

    /// Re-open a heap file from its first page, walking the chain to
    /// recover the tail pointer and counts.
    pub fn open(pool: Arc<BufferPool>, first_page: PageId) -> Result<HeapFile> {
        let mut page_count = 0u64;
        let mut tuple_count = 0u64;
        let mut last = first_page;
        let mut cur = first_page;
        while cur != INVALID_PAGE_ID {
            let guard = pool.fetch(cur)?;
            let bytes = guard.read();
            let p = SlottedPageView::new(&bytes);
            page_count += 1;
            tuple_count += p.live_count() as u64;
            last = cur;
            cur = p.next_page();
        }
        Ok(HeapFile {
            pool,
            first_page,
            meta: Mutex::new(HeapMeta {
                last_page: last,
                page_count,
                tuple_count,
                scratch: None,
            }),
        })
    }

    /// Page id of the head of the chain (the file's stable identity).
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Number of pages in the chain — the `P(R)` of the cost model.
    pub fn page_count(&self) -> u64 {
        let _r = lockorder::acquire(lockorder::HEAP_META);
        self.meta.lock().page_count
    }

    /// Number of live tuples — the `|R|` of the cost model.
    pub fn tuple_count(&self) -> u64 {
        let _r = lockorder::acquire(lockorder::HEAP_META);
        self.meta.lock().tuple_count
    }

    /// Append a tuple, returning its record id.
    pub fn insert(&self, tuple: &Tuple) -> Result<Rid> {
        let record = tuple.encode();
        let _r = lockorder::acquire(lockorder::HEAP_META);
        let mut meta = self.meta.lock();
        let tail = self.pool.fetch(meta.last_page)?;
        {
            let mut bytes = tail.write();
            let mut page = SlottedPage::new(&mut bytes);
            if page.fits(record.len()) {
                let slot = page.insert(&record)?;
                meta.tuple_count += 1;
                return Ok(Rid::new(tail.id(), slot));
            }
        }
        // Tail is full: chain a new page.
        let fresh = meta.new_page(&self.pool)?;
        let slot = {
            let mut bytes = fresh.write();
            let mut page = SlottedPage::init(&mut bytes);
            page.insert(&record).map_err(|_| {
                EvoptError::Storage(format!(
                    "tuple of {} bytes does not fit in an empty page",
                    record.len()
                ))
            })?
        };
        {
            let mut bytes = tail.write();
            SlottedPage::new(&mut bytes).set_next_page(fresh.id());
        }
        meta.last_page = fresh.id();
        meta.page_count += 1;
        meta.tuple_count += 1;
        Ok(Rid::new(fresh.id(), slot))
    }

    /// Read the tuple at `rid`; `None` if it was deleted.
    pub fn get(&self, rid: Rid) -> Result<Option<Tuple>> {
        let guard = self.pool.fetch(rid.page)?;
        let bytes = guard.read();
        let page = SlottedPageView::new(&bytes);
        match page.get(rid.slot)? {
            Some(record) => Ok(Some(Tuple::decode(record)?)),
            None => Ok(None),
        }
    }

    /// Tombstone the tuple at `rid`. Returns whether it was live.
    pub fn delete(&self, rid: Rid) -> Result<bool> {
        let guard = self.pool.fetch(rid.page)?;
        let was_live = {
            let mut bytes = guard.write();
            let mut page = SlottedPage::new(&mut bytes);
            let was_live = page.get(rid.slot)?.is_some();
            if was_live {
                page.delete(rid.slot)?;
            }
            was_live
        };
        if was_live {
            let _r = lockorder::acquire(lockorder::HEAP_META);
            self.meta.lock().tuple_count -= 1;
        }
        Ok(was_live)
    }

    /// Rewrite the live tuple at `rid` in its own slot, keeping its `Rid`.
    /// Returns `false`, with the tuple unchanged, when the new one does not
    /// fit on that page; the caller then moves it (delete + insert).
    pub fn update(&self, rid: Rid, tuple: &Tuple) -> Result<bool> {
        let record = tuple.encode();
        let guard = self.pool.fetch(rid.page)?;
        let mut bytes = guard.write();
        SlottedPage::new(&mut bytes).replace(rid.slot, &record)
    }

    /// Full scan over live tuples, in chain order.
    pub fn scan(&self) -> HeapScan {
        HeapScan {
            pool: Arc::clone(&self.pool),
            next_page: self.first_page,
            buffer: Vec::new(),
            pos: 0,
            failed: false,
        }
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        for id in self.meta.get_mut().scratch.take().unwrap_or_default() {
            // A page that cannot be discarded (still pinned, or the disk
            // refused) is leaked, never freed under a reader.
            let _ = self.pool.discard(id);
        }
    }
}

/// Iterator over `(Rid, Tuple)` pairs of a heap file.
///
/// Processes one page at a time: the page is decoded in full, the pin is
/// released, then buffered tuples are yielded — so a scan never holds more
/// than one page pinned. Pages come through
/// [`BufferPool::fetch_sequential`], so a scan larger than the pool
/// recycles its own frames rather than flushing everyone else's.
pub struct HeapScan {
    pool: Arc<BufferPool>,
    next_page: PageId,
    buffer: Vec<(Rid, Tuple)>,
    pos: usize,
    failed: bool,
}

impl HeapScan {
    fn refill(&mut self) -> Result<bool> {
        while self.next_page != INVALID_PAGE_ID {
            let guard: PageGuard = self.pool.fetch_sequential(self.next_page)?;
            let page_id = guard.id();
            let bytes = guard.read();
            let page = SlottedPageView::new(&bytes);
            self.buffer.clear();
            for (slot, record) in page.records() {
                self.buffer
                    .push((Rid::new(page_id, slot), Tuple::decode(record)?));
            }
            self.pos = 0;
            self.next_page = page.next_page();
            if !self.buffer.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Iterator for HeapScan {
    type Item = Result<(Rid, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.pos >= self.buffer.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        let item = self.buffer[self.pos].clone();
        self.pos += 1;
        Some(Ok(item))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::disk::{DiskBackend, DiskManager};
    use evopt_common::Value;

    fn mkpool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(DiskManager::new()), frames)
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("name-{i}"))])
    }

    #[test]
    fn insert_get_roundtrip() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        let rid = heap.insert(&row(1)).unwrap();
        assert_eq!(heap.get(rid).unwrap(), Some(row(1)));
        assert_eq!(heap.tuple_count(), 1);
    }

    #[test]
    fn spans_many_pages_and_scans_in_order() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        let n = 2000;
        let mut rids = Vec::new();
        for i in 0..n {
            rids.push(heap.insert(&row(i)).unwrap());
        }
        assert!(heap.page_count() > 10, "pages: {}", heap.page_count());
        assert_eq!(heap.tuple_count(), n as u64);
        let scanned: Vec<_> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), n as usize);
        for (i, (rid, t)) in scanned.iter().enumerate() {
            assert_eq!(rid, &rids[i]);
            assert_eq!(t, &row(i as i64));
        }
    }

    #[test]
    fn scan_page_count_matches_file_page_count() {
        // Sequential scan I/O == page_count when the pool is cold.
        let disk = Arc::new(DiskManager::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 4);
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        for i in 0..1000 {
            heap.insert(&row(i)).unwrap();
        }
        pool.flush_all().unwrap();
        // Evict everything by scanning unrelated pages through the tiny pool.
        let other = HeapFile::create(Arc::clone(&pool)).unwrap();
        for i in 0..300 {
            other.insert(&row(i)).unwrap();
        }
        let before = disk.snapshot();
        let count = heap.scan().count();
        let delta = disk.snapshot().since(&before);
        assert_eq!(count, 1000);
        assert_eq!(delta.reads, heap.page_count());
    }

    #[test]
    fn delete_tombstones_and_scan_skips() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        let r0 = heap.insert(&row(0)).unwrap();
        let r1 = heap.insert(&row(1)).unwrap();
        assert!(heap.delete(r0).unwrap());
        assert!(!heap.delete(r0).unwrap(), "double delete reports false");
        assert_eq!(heap.get(r0).unwrap(), None);
        assert_eq!(heap.tuple_count(), 1);
        let scanned: Vec<_> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, vec![(r1, row(1))]);
    }

    #[test]
    fn update_keeps_the_rid_and_the_count() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        let rids: Vec<Rid> = (0..200).map(|i| heap.insert(&row(i)).unwrap()).collect();
        let (pages, tuples) = (heap.page_count(), heap.tuple_count());
        // Row 8 shrinks on a full page; row 199 grows on the tail page.
        let shorter = Tuple::new(vec![Value::Int(8)]);
        let longer = Tuple::new(vec![Value::Int(199), Value::Str("a longer name".into())]);
        assert!(heap.update(rids[8], &shorter).unwrap());
        assert!(heap.update(rids[199], &longer).unwrap());
        assert_eq!(heap.get(rids[199]).unwrap(), Some(longer.clone()));
        assert_eq!((heap.page_count(), heap.tuple_count()), (pages, tuples));
        let scanned: Vec<_> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), 200);
        assert_eq!(scanned[8], (rids[8], shorter));
        assert_eq!(scanned[199], (rids[199], longer));
        // A tuple that does not fit on its page is left as it was.
        let huge = Tuple::new(vec![Value::Str("x".repeat(3000))]);
        assert!(!heap.update(rids[0], &huge).unwrap());
        assert_eq!(heap.get(rids[0]).unwrap(), Some(row(0)));
        heap.delete(rids[1]).unwrap();
        assert!(heap.update(rids[1], &row(1)).is_err(), "a dead slot");
    }

    #[test]
    fn open_recovers_counts_and_tail() {
        let pool = mkpool(8);
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        for i in 0..500 {
            heap.insert(&row(i)).unwrap();
        }
        let r = heap.insert(&row(999)).unwrap();
        heap.delete(r).unwrap();
        let first = heap.first_page();
        let (pages, tuples) = (heap.page_count(), heap.tuple_count());
        drop(heap);
        let reopened = HeapFile::open(Arc::clone(&pool), first).unwrap();
        assert_eq!(reopened.page_count(), pages);
        assert_eq!(reopened.tuple_count(), tuples);
        // Tail pointer recovered: inserts continue without corruption.
        reopened.insert(&row(1000)).unwrap();
        assert_eq!(reopened.tuple_count(), tuples + 1);
    }

    #[test]
    fn oversized_tuple_is_an_error() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        let big = Tuple::new(vec![Value::Str("x".repeat(8000))]);
        let err = heap.insert(&big).unwrap_err();
        assert_eq!(err.kind(), "storage");
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let heap = HeapFile::create(mkpool(8)).unwrap();
        assert_eq!(heap.scan().count(), 0);
    }

    #[test]
    fn dropped_scratch_heap_releases_every_page() {
        // Spilled through 3 frames, so most pages were evicted (written
        // back) and some reloaded; dropping the heap releases all of them.
        let disk = Arc::new(DiskManager::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 3);
        let heap = HeapFile::scratch(Arc::clone(&pool)).unwrap();
        for i in 0..800 {
            heap.insert(&row(i)).unwrap();
        }
        assert_eq!(heap.scan().count(), 800);
        let mut chain = vec![heap.first_page()];
        loop {
            let next = SlottedPageView::new(&pool.fetch(chain[chain.len() - 1]).unwrap().read())
                .next_page();
            if next == INVALID_PAGE_ID {
                break;
            }
            chain.push(next);
        }
        assert_eq!(chain.len() as u64, heap.page_count());
        assert!(pool.stats().evictions > 0, "the heap spilled");
        drop(heap);
        let mut buf = [0u8; crate::page::PAGE_SIZE];
        for id in chain {
            assert!(
                disk.read_page(id, &mut buf).is_err(),
                "page {id} still live"
            );
        }
        // The frames it held are free again: three pins evict nothing.
        let before = pool.stats();
        let _pins: Vec<_> = (0..3).map(|_| pool.new_page().unwrap()).collect();
        assert_eq!(pool.stats().since(&before).evictions, 0);
    }

    #[test]
    fn works_with_tiny_buffer_pool() {
        // 3 frames force constant eviction during build + scan.
        let heap = HeapFile::create(mkpool(3)).unwrap();
        for i in 0..800 {
            heap.insert(&row(i)).unwrap();
        }
        let sum: i64 = heap
            .scan()
            .map(|r| r.unwrap().1.value(0).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(sum, (0..800).sum::<i64>());
    }
}
