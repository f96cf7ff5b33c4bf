//! Buffer pool: a pin-counted page cache with scan-resistant replacement.
//!
//! The pool owns `B` frames. Fetching a cached page is free (a *hit*);
//! fetching an uncached page costs one physical read, and may evict an
//! unpinned frame (plus one physical write if it was dirty). The optimizer's
//! cost model reasons about exactly this: e.g. block-nested-loop join cost
//! depends on how many outer pages fit in the pool at once
//! (`tests/plan_regret.rs` compares measured and predicted I/O on two
//! pool sizes).
//!
//! **Replacement.** Two segments, in the 2Q / LRU-K line (Johnson &
//! Shasha, VLDB 1994; O'Neil et al., SIGMOD 1993). A page that enters a
//! frame starts on *probation*; a [`BufferPool::fetch`] hit promotes it to
//! *protected*, and a hit on a protected page refreshes its recency. The
//! victim is the oldest evictable probationary frame while probation holds
//! more than a quarter of the frames, else the oldest evictable protected
//! one. A page thus earns its frame with a second reference, and a pass
//! over more pages than the pool (a large scan, an unclustered range)
//! cycles through probation instead of flushing the pool: the B+-trees'
//! upper levels stay resident. Under plain LRU each such pass evicted them.
//! A heap scan fetches with [`BufferPool::fetch_sequential`]: a miss
//! enters as the *oldest* probationary frame and a hit changes nothing, so
//! a scan recycles its own frames, and a rescanned loop inner keeps about
//! `B` pages between passes (the MRU rule Chou & DeWitt's DBMIN gives
//! loop-sequential access).
//!
//! **Integrity.** The pool stamps a CRC-32 checksum for every page it
//! flushes and verifies it on every physical fetch. A mismatch (torn write,
//! bit rot) triggers a bounded re-read — transient faults heal invisibly,
//! counted in [`PoolSnapshot::retries`] — and surfaces as a typed
//! [`EvoptError::Corruption`] once retries exhaust. Transient `Io` errors
//! from the backend get the same bounded-retry treatment.
//!
//! **Scratch pages.** An operator's spill pages come from
//! [`BufferPool::new_scratch_page`]. They live and die with one statement,
//! so recovery never needs them: the [`FlushGate`] never hears of them
//! (the pool remembers which pages are scratch across eviction and
//! reload), and [`BufferPool::discard`] frees one without writing it back.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use evopt_common::{lockorder, EvoptError, Result};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::checksum::crc32;
use crate::disk::{retry_io, DiskBackend};
use crate::page::{set_page_lsn, PageData, PageId, PAGE_SIZE};

/// Write-ahead gate: the durability layer's veto over dirty-page flushes.
///
/// When installed ([`BufferPool::set_flush_gate`], once per pool), the
/// pool reports every page dirtying via `on_dirty` and consults
/// `can_flush` before any dirty page reaches the disk (eviction,
/// `flush_all`, `evict_all`). The WAL implements this with one map of the
/// pages it holds back, enforcing log-before-data: a page may reach disk
/// only once its last change is on durable log, so no uncommitted bytes
/// ever overwrite committed on-disk state (no-steal).
///
/// Implementations must not call back into the pool — `can_flush` runs
/// under the pool lock.
pub trait FlushGate: Send + Sync {
    /// A resident page is about to be dirtied (or was created dirty).
    /// `data` is its frame's latch, not held by the caller: the gate may
    /// read the bytes as they stand before this write (the WAL keeps a
    /// before-image), but being a leaf the latch must not be held while
    /// the gate takes a ranked lock.
    fn on_dirty(&self, id: PageId, data: &RwLock<PageData>);
    /// Whether the dirty page may be written to disk right now.
    fn can_flush(&self, id: PageId) -> bool;
}

/// Victims come from probation first while it holds more than
/// `1 / PROBATION_SHARE` of the frames: 2Q's `Kin`, which Johnson & Shasha
/// set to a quarter of the pool. Smaller, and a page must be re-referenced
/// sooner to be promoted before it is evicted; larger, and fewer frames are
/// left to the protected pages.
const PROBATION_SHARE: usize = 4;

struct Frame {
    page_id: Option<PageId>,
    pin_count: u32,
    /// The resident page is a scratch page (see [`Inner::scratch`]).
    scratch: bool,
    /// The resident page's segment: protected once hit, on probation until
    /// then. Only resident frames (`page_id` set) are in a segment; every
    /// load resets this.
    protected: bool,
    /// [`Inner::tick`] at the page's last load or promoting hit; 0 for a
    /// sequential load, which makes it the oldest frame of its segment.
    last_used: u64,
    dirty: Arc<AtomicBool>,
    data: Arc<RwLock<PageData>>, // lockorder: leaf
}

/// A frame reserved for an incoming page (see [`BufferPool::reserve_frame`]).
/// `Flush` carries a dirty victim whose write-back is still owed; the
/// frame is unusable until [`BufferPool::settle_reservation`] performs it
/// off the pool lock.
enum Reserved {
    Clean(usize),
    Flush {
        victim: usize,
        old_id: PageId,
        data: Arc<RwLock<PageData>>,
    },
}

struct Inner {
    frames: Vec<Frame>,
    table: HashMap<PageId, usize>,
    free: Vec<usize>,
    /// Logical clock of the replacement policy, bumped by every load and
    /// promoting hit ([`Frame::last_used`]).
    tick: u64,
    /// Pages some thread is currently reading off-lock (miss in flight).
    /// Claiming an entry grants the exclusive right to load that page;
    /// other fetchers of the same page wait and re-check. This is what
    /// lets physical reads overlap across sessions: the pool lock is
    /// *not* held across the disk read.
    loading: HashSet<PageId>,
    /// Every live scratch page, resident or not: a scratch page reloaded
    /// after eviction must stay invisible to the [`FlushGate`].
    scratch: HashSet<PageId>,
}

impl Inner {
    /// A page was loaded into `frame`: it joins probation as its newest
    /// frame, or, for a sequential fetch, as its oldest.
    fn admit(&mut self, frame: usize, sequential: bool) {
        self.tick += 1;
        let f = &mut self.frames[frame];
        f.protected = false;
        f.last_used = if sequential { 0 } else { self.tick };
    }

    /// A non-sequential hit: the page is protected, as its newest frame.
    fn promote(&mut self, frame: usize) {
        self.tick += 1;
        let f = &mut self.frames[frame];
        f.protected = true;
        f.last_used = self.tick;
    }

    /// The frame to evict, in one pass: the oldest evictable probationary
    /// frame while probation holds more than `1 / PROBATION_SHARE` of the
    /// frames, else the oldest evictable protected one, and the other
    /// segment's oldest when the chosen segment has none. Evictable means
    /// resident, unpinned and, if dirty, not vetoed by `gate`. The gate is
    /// asked only about a frame older than its segment's candidate so far.
    fn victim(&self, gate: Option<&dyn FlushGate>) -> Option<usize> {
        let mut probation = 0;
        // (last_used, frame) of the oldest evictable frame: [probation, protected].
        let mut oldest: [Option<(u64, usize)>; 2] = [None, None];
        for (i, f) in self.frames.iter().enumerate() {
            let Some(id) = f.page_id else { continue };
            probation += usize::from(!f.protected);
            let best = &mut oldest[usize::from(f.protected)];
            if f.pin_count > 0 || best.is_some_and(|(t, _)| t <= f.last_used) {
                continue;
            }
            if gate.is_some_and(|g| f.dirty.load(Ordering::Relaxed) && !g.can_flush(id)) {
                continue;
            }
            *best = Some((f.last_used, i));
        }
        let [on_probation, protected] = oldest;
        let victim = if probation * PROBATION_SHARE > self.frames.len() {
            on_probation.or(protected)
        } else {
            protected.or(on_probation)
        };
        victim.map(|(_, i)| i)
    }
}

/// Point-in-time copy of the pool's hit/miss counters. Subtract two
/// snapshots ([`PoolSnapshot::since`]) to attribute pool traffic to a region
/// of code — per query, per operator, per experiment phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSnapshot {
    pub hits: u64,
    pub misses: u64,
    /// Frames reclaimed from a resident page to make room for another.
    pub evictions: u64,
    /// Physical page ops re-attempted after a transient fault (I/O error or
    /// checksum mismatch that healed on re-read).
    pub retries: u64,
    /// Checksum failures that survived every retry and surfaced as
    /// [`EvoptError::Corruption`].
    pub corruptions: u64,
}

impl PoolSnapshot {
    /// Pool accesses since `earlier`. Counters are monotonic (only ever
    /// incremented, while the pool lock is held), so `earlier` must be the
    /// older snapshot — debug builds assert that; release builds saturate
    /// rather than underflow.
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        debug_assert!(
            self.hits >= earlier.hits
                && self.misses >= earlier.misses
                && self.evictions >= earlier.evictions
                && self.retries >= earlier.retries
                && self.corruptions >= earlier.corruptions,
            "PoolSnapshot::since called with a newer `earlier`: {earlier:?} vs {self:?}"
        );
        PoolSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            retries: self.retries.saturating_sub(earlier.retries),
            corruptions: self.corruptions.saturating_sub(earlier.corruptions),
        }
    }

    /// Total page requests (hits + misses).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from memory; 1.0 for an idle pool.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// The buffer pool. Create with [`BufferPool::new`], share via `Arc`.
pub struct BufferPool {
    inner: Mutex<Inner>,
    disk: Arc<dyn DiskBackend>,
    capacity: usize,
    // Hit/miss counters live outside `inner` so metrics readers never take
    // the pool lock. Increments happen while the lock is held (so they are
    // serialized and strictly monotonic); reads are lock-free.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
    corruptions: AtomicU64,
    /// CRC-32 stamped at every flush, verified at every physical fetch.
    /// Absent entries (pages never flushed through this pool) skip
    /// verification.
    checksums: Mutex<HashMap<PageId, u32>>,
    /// Durability veto over dirty-page flushes (see [`FlushGate`]). Set
    /// at most once, so reading it takes no lock.
    gate: OnceLock<Arc<dyn FlushGate>>,
    /// Physical read + verify latency on a miss (the off-lock I/O).
    /// Recorded unconditionally, like the hit/miss counters: a miss
    /// already pays a disk read, so two clock reads are noise. The hit
    /// path records nothing.
    miss_io_us: evopt_obs::Histogram,
    /// Wall time a fetcher spent waiting on another thread's in-flight
    /// load of the same page (the single-flight spin/sleep loop).
    load_wait_us: evopt_obs::Histogram,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<dyn DiskBackend>, capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                page_id: None,
                pin_count: 0,
                scratch: false,
                protected: false,
                last_used: 0,
                dirty: Arc::new(AtomicBool::new(false)),
                data: Arc::new(RwLock::new([0u8; PAGE_SIZE])),
            })
            .collect();
        Arc::new(BufferPool {
            inner: Mutex::new(Inner {
                frames,
                table: HashMap::new(),
                free: (0..capacity).rev().collect(),
                tick: 0,
                loading: HashSet::new(),
                scratch: HashSet::new(),
            }),
            disk,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            checksums: Mutex::new(HashMap::new()),
            gate: OnceLock::new(),
            miss_io_us: evopt_obs::Histogram::new(evopt_obs::WAIT_BUCKETS_US),
            load_wait_us: evopt_obs::Histogram::new(evopt_obs::WAIT_BUCKETS_US),
        })
    }

    /// Install a [`FlushGate`]. Done once at database construction, before
    /// any write traffic, when durability is enabled. A second install is
    /// an `Internal` error and leaves the first gate in place.
    pub fn set_flush_gate(&self, gate: Arc<dyn FlushGate>) -> Result<()> {
        self.gate
            .set(gate)
            .map_err(|_| EvoptError::Internal("buffer pool already has a flush gate".into()))
    }

    fn flush_gate(&self) -> Option<&dyn FlushGate> {
        self.gate.get().map(|g| &**g)
    }

    fn notify_dirty(&self, id: PageId, data: &RwLock<PageData>) {
        if let Some(g) = self.flush_gate() {
            g.on_dirty(id, data);
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying disk (for I/O snapshots).
    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// (hits, misses) so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.stats();
        (s.hits, s.misses)
    }

    /// Latency of the off-lock physical read on a miss (µs).
    pub fn miss_io_histogram(&self) -> evopt_obs::HistogramSnapshot {
        self.miss_io_us.snapshot()
    }

    /// Single-flight wait latency: time fetchers spent parked behind
    /// another thread's in-flight load of the same page (µs).
    pub fn load_wait_histogram(&self) -> evopt_obs::HistogramSnapshot {
        self.load_wait_us.snapshot()
    }

    /// Lock-free snapshot of the hit/miss/retry counters.
    pub fn stats(&self) -> PoolSnapshot {
        PoolSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    /// Read a page with bounded retry and checksum verification. Transient
    /// `Io` errors and checksum mismatches trigger a re-read (counted in
    /// `retries`); a mismatch that survives every retry surfaces as
    /// [`EvoptError::Corruption`].
    fn read_page_verified(&self, id: PageId, buf: &mut PageData) -> Result<()> {
        let expected = {
            let _r = lockorder::acquire(lockorder::POOL_CHECKSUM);
            self.checksums.lock().get(&id).copied()
        };
        let mut attempts = 0;
        let read = retry_io(|| {
            attempts += 1;
            self.disk.read_page(id, buf)?;
            match expected {
                Some(crc) if crc32(buf) != crc => Err(EvoptError::Corruption(format!(
                    "page {id} failed checksum verification \
                     (expected {crc:#010x}, got {:#010x})",
                    crc32(buf)
                ))),
                _ => Ok(()),
            }
        });
        self.retries.fetch_add(attempts - 1, Ordering::Relaxed);
        if let Err(EvoptError::Corruption(_)) = read {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        read
    }

    /// Write a page with bounded retry, stamping its checksum on success.
    fn write_page_checksummed(&self, id: PageId, buf: &PageData) -> Result<()> {
        let crc = crc32(buf);
        let mut attempts = 0;
        let written = retry_io(|| {
            attempts += 1;
            self.disk.write_page(id, buf)
        });
        self.retries.fetch_add(attempts - 1, Ordering::Relaxed);
        written?;
        // The flush paths call this holding the page's read latch: the one
        // ranked lock taken under a latch (lockorder.rs, DESIGN.md §11.4).
        // Stamping before the latch drops keeps the checksum map in the
        // order of the page's writes to disk: an older flush cannot stamp
        // its checksum after a newer flush of the same page stamped its own.
        let _r = lockorder::acquire(lockorder::POOL_CHECKSUM);
        self.checksums.lock().insert(id, crc);
        Ok(())
    }

    /// Fetch a page, pinning it for the guard's lifetime.
    ///
    /// Misses read the disk **without** holding the pool lock: the fetcher
    /// claims the page in the `loading` set, releases the lock for the
    /// physical read, then re-locks to install the bytes into a frame.
    /// Concurrent fetchers of *other* pages proceed — miss I/O overlaps
    /// across sessions. Concurrent fetchers of the *same* page wait for
    /// the loader and then take the hit path (one physical read total).
    pub fn fetch(self: &Arc<Self>, page_id: PageId) -> Result<PageGuard> {
        self.fetch_page(page_id, false)
    }

    /// [`BufferPool::fetch`] for a page read once in a sequential pass (a
    /// heap scan). A miss loads the page as the oldest probationary frame,
    /// the next victim; a hit neither promotes it nor refreshes its
    /// recency. A scan over more pages than the pool thus recycles its own
    /// frames and leaves everyone else's resident.
    pub fn fetch_sequential(self: &Arc<Self>, page_id: PageId) -> Result<PageGuard> {
        self.fetch_page(page_id, true)
    }

    fn fetch_page(self: &Arc<Self>, page_id: PageId, sequential: bool) -> Result<PageGuard> {
        let mut spins = 0u32;
        // Lazily stamped on the first wait iteration, so the common case
        // (hit, or uncontended miss) never reads the clock here.
        let mut wait_start: Option<std::time::Instant> = None;
        let reserved = loop {
            {
                let _r = lockorder::acquire(lockorder::POOL);
                let mut inner = self.inner.lock();
                if let Some(&frame) = inner.table.get(&page_id) {
                    if let Some(t0) = wait_start {
                        self.load_wait_us.observe(t0.elapsed().as_micros() as u64);
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    inner.frames[frame].pin_count += 1;
                    if !sequential {
                        inner.promote(frame);
                    }
                    return Ok(self.guard(&inner, frame, page_id));
                }
                if inner.loading.insert(page_id) {
                    // Claimed: we are this page's loader. Reserve a frame
                    // under the same lock, so an exhausted pool fails
                    // here — before any disk traffic.
                    if let Some(t0) = wait_start {
                        self.load_wait_us.observe(t0.elapsed().as_micros() as u64);
                    }
                    match self.reserve_frame(&mut inner) {
                        Ok(r) => break r,
                        Err(e) => {
                            inner.loading.remove(&page_id);
                            return Err(e);
                        }
                    }
                }
                // Another thread is reading this page; wait off-lock and
                // re-check (it will appear in the table, or its loader
                // failed and we claim the load ourselves).
            }
            if wait_start.is_none() {
                wait_start = Some(std::time::Instant::now());
            }
            spins += 1;
            back_off(spins);
        };
        // If the victim was dirty, its write-back happens here — after the
        // pool lock is released.
        let frame = match self.settle_reservation(reserved) {
            Ok(f) => f,
            Err(e) => {
                let _r = lockorder::acquire(lockorder::POOL);
                self.inner.lock().loading.remove(&page_id);
                return Err(e);
            }
        };
        // The physical read, off-lock: concurrent misses on other pages
        // proceed. Nobody touches the reserved frame (not free, not in the
        // table) or loads this page (claimed in `loading`) meanwhile.
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let read = self
            .miss_io_us
            .time(|| self.read_page_verified(page_id, &mut buf));

        let _r = lockorder::acquire(lockorder::POOL);
        let mut inner = self.inner.lock();
        inner.loading.remove(&page_id);
        if let Err(e) = read {
            // Return the frame to the free list so a failed fetch
            // (I/O fault, corruption) leaves the pool fully usable.
            inner.free.push(frame);
            return Err(e);
        }
        let scratch = inner.scratch.contains(&page_id);
        {
            let f = &mut inner.frames[frame];
            *f.data.write() = *buf;
            f.page_id = Some(page_id);
            f.pin_count = 1;
            f.scratch = scratch;
            f.dirty.store(false, Ordering::Relaxed);
        }
        // Count the miss only once the physical read succeeded, so failed
        // fetches leave the hit/miss counters untouched.
        self.misses.fetch_add(1, Ordering::Relaxed);
        inner.table.insert(page_id, frame);
        inner.admit(frame, sequential);
        Ok(self.guard(&inner, frame, page_id))
    }

    /// A guard over `frame`, which the caller has just pinned.
    fn guard(self: &Arc<Self>, inner: &Inner, frame: usize, page_id: PageId) -> PageGuard {
        let f = &inner.frames[frame];
        PageGuard {
            pool: Arc::clone(self),
            frame,
            page_id,
            scratch: f.scratch,
            dirty: Arc::clone(&f.dirty),
            data: Arc::clone(&f.data),
        }
    }

    /// Allocate a fresh disk page, pin it, and return a guard over the
    /// zeroed frame. The page is marked dirty so it reaches disk on eviction
    /// or flush.
    pub fn new_page(self: &Arc<Self>) -> Result<PageGuard> {
        self.allocate(false)
    }

    /// [`BufferPool::new_page`] for a page that dies with its statement (an
    /// operator's spill). The [`FlushGate`] never hears of it, here or on
    /// any later write, and the owner frees it with
    /// [`BufferPool::discard`].
    pub fn new_scratch_page(self: &Arc<Self>) -> Result<PageGuard> {
        self.allocate(true)
    }

    fn allocate(self: &Arc<Self>, scratch: bool) -> Result<PageGuard> {
        let page_id = self.disk.allocate_page();
        let reserved = {
            let _r = lockorder::acquire(lockorder::POOL);
            let mut inner = self.inner.lock();
            self.reserve_frame(&mut inner)?
        };
        // Dirty-victim write-back runs off-lock; nobody else can reach the
        // fresh `page_id` yet (the id was just allocated), so no
        // single-flight claim is needed for it.
        let frame = self.settle_reservation(reserved)?;
        let _r = lockorder::acquire(lockorder::POOL);
        let mut inner = self.inner.lock();
        {
            let f = &mut inner.frames[frame];
            f.data.write().fill(0);
            f.page_id = Some(page_id);
            f.pin_count = 1;
            f.scratch = scratch;
            f.dirty.store(true, Ordering::Relaxed);
        }
        if scratch {
            inner.scratch.insert(page_id);
        } else {
            // Created dirty: the durability layer must know before any flush.
            self.notify_dirty(page_id, &inner.frames[frame].data);
        }
        inner.table.insert(page_id, frame);
        inner.admit(frame, false);
        Ok(self.guard(&inner, frame, page_id))
    }

    /// Free a scratch page for good. Its frame, if resident, goes back to
    /// the free list without a write-back, its checksum is forgotten, and
    /// the disk releases it — off the pool lock. A pinned or non-scratch
    /// page is an `Internal` error and stays as it was.
    pub fn discard(&self, id: PageId) -> Result<()> {
        let mut spins = 0u32;
        loop {
            {
                let _r = lockorder::acquire(lockorder::POOL);
                let mut inner = self.inner.lock();
                // A claim here is an eviction write-back of this page in
                // flight: wait for it, then free the page it wrote.
                if !inner.loading.contains(&id) {
                    if !inner.scratch.contains(&id) {
                        return Err(EvoptError::Internal(format!(
                            "discard of page {id}, which is not a scratch page"
                        )));
                    }
                    if let Some(&frame) = inner.table.get(&id) {
                        if inner.frames[frame].pin_count > 0 {
                            return Err(EvoptError::Internal(format!(
                                "discard of pinned page {id}"
                            )));
                        }
                        inner.table.remove(&id);
                        let f = &mut inner.frames[frame];
                        f.page_id = None;
                        f.dirty.store(false, Ordering::Relaxed);
                        inner.free.push(frame);
                    }
                    inner.scratch.remove(&id);
                    break;
                }
            }
            spins += 1;
            back_off(spins);
        }
        {
            let _r = lockorder::acquire(lockorder::POOL_CHECKSUM);
            self.checksums.lock().remove(&id);
        }
        self.disk.deallocate_page(id)
    }

    /// Find a frame for a new resident page: a free frame, else evict.
    /// Dirty frames the [`FlushGate`] vetoes are passed over — they must
    /// stay resident until the WAL logs them at commit.
    ///
    /// A dirty victim is **not** written back here (the pool lock is
    /// held): it is detached from the table, its id claimed in `loading`
    /// so concurrent fetchers of the evicted page park instead of reading
    /// stale bytes, and the write-back deferred to
    /// [`BufferPool::settle_reservation`], which runs off-lock.
    fn reserve_frame(&self, inner: &mut Inner) -> Result<Reserved> {
        if let Some(f) = inner.free.pop() {
            return Ok(Reserved::Clean(f));
        }
        let victim = inner.victim(self.flush_gate()).ok_or_else(|| {
            EvoptError::Storage(format!(
                "buffer pool exhausted: all {} frames pinned or write-gated",
                self.capacity
            ))
        })?;
        let old_id = inner.frames[victim]
            .page_id
            .ok_or_else(|| EvoptError::Internal("evicted frame has no page id".into()))?;
        inner.table.remove(&old_id);
        inner.frames[victim].page_id = None;
        if inner.frames[victim].dirty.swap(false, Ordering::Relaxed) {
            inner.loading.insert(old_id);
            Ok(Reserved::Flush {
                victim,
                old_id,
                data: Arc::clone(&inner.frames[victim].data),
            })
        } else {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            Ok(Reserved::Clean(victim))
        }
    }

    /// Complete a frame reservation. A dirty victim's bytes reach disk
    /// here, **without** the pool lock held — the frame is unreachable
    /// meanwhile (out of the table, out of the policy, not on the free
    /// list, pin count zero) and fetchers of the evicted page wait on its
    /// `loading` claim. On write failure the victim is restored intact
    /// (resident, dirty, evictable) so no data is silently dropped.
    fn settle_reservation(&self, reserved: Reserved) -> Result<usize> {
        match reserved {
            Reserved::Clean(frame) => Ok(frame),
            Reserved::Flush {
                victim,
                old_id,
                data,
            } => {
                let flushed = {
                    let d = data.read();
                    self.write_page_checksummed(old_id, &d)
                };
                let _r = lockorder::acquire(lockorder::POOL);
                let mut inner = self.inner.lock();
                inner.loading.remove(&old_id);
                match flushed {
                    Ok(()) => {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        Ok(victim)
                    }
                    Err(e) => {
                        let f = &mut inner.frames[victim];
                        f.page_id = Some(old_id);
                        f.dirty.store(true, Ordering::Relaxed);
                        inner.table.insert(old_id, victim);
                        Err(e)
                    }
                }
            }
        }
    }

    fn unpin(&self, frame: usize) {
        let _r = lockorder::acquire(lockorder::POOL);
        let mut inner = self.inner.lock();
        let f = &mut inner.frames[frame];
        debug_assert!(f.pin_count > 0, "unpin of unpinned frame");
        f.pin_count -= 1;
    }

    /// Evict every unpinned resident page (flushing dirty ones), leaving
    /// the cache cold. Experiment harness hook: guarantees the next query's
    /// reads are physical. Pinned frames — and dirty frames the
    /// [`FlushGate`] vetoes — are left in place.
    ///
    /// Two passes: [`BufferPool::flush_all`] writes every dirty flushable
    /// page back (off-lock), then one pool-lock pass drops the now-clean
    /// unpinned frames. A frame re-dirtied between the passes is left
    /// resident rather than evicted unflushed.
    pub fn evict_all(&self) -> Result<()> {
        self.flush_all()?;
        let _r = lockorder::acquire(lockorder::POOL);
        let mut inner = self.inner.lock();
        for frame in 0..inner.frames.len() {
            let page_id = {
                let f = &inner.frames[frame];
                match f.page_id {
                    Some(id) if f.pin_count == 0 && !f.dirty.load(Ordering::Relaxed) => id,
                    _ => continue,
                }
            };
            inner.table.remove(&page_id);
            inner.frames[frame].page_id = None;
            inner.free.push(frame);
        }
        Ok(())
    }

    /// Write every dirty resident page back to disk. Pages the
    /// [`FlushGate`] vetoes (dirty but not yet logged) stay dirty in the
    /// pool; they reach disk after the next commit logs them.
    ///
    /// The physical writes run **off** the pool lock: one locked pass
    /// selects the dirty flushable pages and pins them (so they stay
    /// resident), the writes happen lock-free against the per-frame page
    /// latches, and a final locked pass unpins. Fetches of unrelated pages
    /// proceed during the I/O.
    pub fn flush_all(&self) -> Result<()> {
        // Frame index, page, its latch, and its dirty flag — everything the
        // off-lock write pass needs from the locked selection pass.
        type FlushWork = Vec<(usize, PageId, Arc<RwLock<PageData>>, Arc<AtomicBool>)>;
        let gate = self.flush_gate();
        let mut work: FlushWork = Vec::new();
        {
            let _r = lockorder::acquire(lockorder::POOL);
            let mut inner = self.inner.lock();
            for frame in 0..inner.frames.len() {
                let Some(id) = inner.frames[frame].page_id else {
                    continue;
                };
                if gate.is_some_and(|g| !g.can_flush(id)) {
                    continue;
                }
                if inner.frames[frame].dirty.swap(false, Ordering::Relaxed) {
                    inner.frames[frame].pin_count += 1;
                    let f = &inner.frames[frame];
                    work.push((frame, id, Arc::clone(&f.data), Arc::clone(&f.dirty)));
                }
            }
        }
        let mut result = Ok(());
        for (i, (_, id, data, _)) in work.iter().enumerate() {
            let flushed = {
                let d = data.read();
                self.write_page_checksummed(*id, &d)
            };
            if let Err(e) = flushed {
                // Nothing from here on reached disk: restore the dirty
                // flags (including the failed page's) so no data is
                // silently dropped.
                for (_, _, _, d) in &work[i..] {
                    d.store(true, Ordering::Relaxed);
                }
                result = Err(e);
                break;
            }
        }
        let _r = lockorder::acquire(lockorder::POOL);
        let mut inner = self.inner.lock();
        for &(frame, ..) in &work {
            inner.frames[frame].pin_count -= 1;
        }
        result
    }

    /// Stamp `lsn` into a resident page's LSN trailer and hand the stamped
    /// bytes, in place, to `read` — the WAL diffs them into its redo
    /// record. The frame is marked dirty *without* notifying the
    /// [`FlushGate`]: this is the gate's own commit path. `read` runs under
    /// the frame's latch and must take no lock.
    ///
    /// Errors if the page is not resident. It always is on the commit
    /// path — gated pages cannot be evicted.
    pub fn stamp_lsn<R>(
        &self,
        id: PageId,
        lsn: u64,
        read: impl FnOnce(&PageData) -> R,
    ) -> Result<R> {
        let _r = lockorder::acquire(lockorder::POOL);
        let inner = self.inner.lock();
        let &frame = inner
            .table
            .get(&id)
            .ok_or_else(|| EvoptError::Internal(format!("commit of non-resident page {id}")))?;
        let f = &inner.frames[frame];
        let mut data = f.data.write();
        set_page_lsn(&mut data, lsn);
        f.dirty.store(true, Ordering::Relaxed);
        Ok(read(&data))
    }
}

/// Pinned handle to a resident page. Access the bytes with [`PageGuard::read`]
/// / [`PageGuard::write`] (writing marks the page dirty). Dropping unpins.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    frame: usize,
    page_id: PageId,
    scratch: bool,
    dirty: Arc<AtomicBool>,
    data: Arc<RwLock<PageData>>, // lockorder: leaf
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.page_id)
            .field("frame", &self.frame)
            .finish()
    }
}

impl PageGuard {
    pub fn id(&self) -> PageId {
        self.page_id
    }

    /// Shared access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, PageData> {
        self.data.read()
    }

    /// Exclusive access; marks the page dirty (and reports it to the
    /// pool's [`FlushGate`], when one is installed, unless it is scratch).
    pub fn write(&self) -> RwLockWriteGuard<'_, PageData> {
        self.dirty.store(true, Ordering::Relaxed);
        if !self.scratch {
            self.pool.notify_dirty(self.page_id, &self.data);
        }
        self.data.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

/// Wait out another thread's claim on a page: yield at first, then sleep.
fn back_off(spins: u32) {
    if spins < 16 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::disk::{DiskBackend, DiskManager, IO_RETRY_LIMIT};
    use crate::fault::{FaultConfig, FaultInjector};

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(DiskManager::new()), frames)
    }

    /// Toy gate: tracks dirtied pages; vetoes flushes while `strict`.
    struct TestGate {
        strict: AtomicBool,
        dirtied: std::sync::Mutex<HashSet<PageId>>,
    }

    impl TestGate {
        fn install(p: &BufferPool) -> Arc<TestGate> {
            let gate = Arc::new(TestGate {
                strict: AtomicBool::new(true),
                dirtied: std::sync::Mutex::new(HashSet::new()),
            });
            p.set_flush_gate(Arc::clone(&gate) as Arc<dyn FlushGate>)
                .unwrap();
            gate
        }
    }

    impl FlushGate for TestGate {
        fn on_dirty(&self, id: PageId, _data: &RwLock<PageData>) {
            self.dirtied.lock().unwrap().insert(id);
        }
        fn can_flush(&self, id: PageId) -> bool {
            !self.strict.load(Ordering::Relaxed) || !self.dirtied.lock().unwrap().contains(&id)
        }
    }

    #[test]
    fn new_page_write_read_roundtrip() {
        let p = pool(4);
        let g = p.new_page().unwrap();
        g.write()[0] = 0x5A;
        let id = g.id();
        drop(g);
        let g = p.fetch(id).unwrap();
        assert_eq!(g.read()[0], 0x5A);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let p = pool(2);
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let g = p.new_page().unwrap();
            g.write()[0] = i;
            ids.push(g.id());
        }
        // All ten pages round-trip even though only two frames exist.
        for (i, id) in ids.iter().enumerate() {
            let g = p.fetch(*id).unwrap();
            assert_eq!(g.read()[0], i as u8, "page {id}");
        }
    }

    #[test]
    fn pool_exhaustion_is_error_not_deadlock() {
        let p = pool(2);
        let _a = p.new_page().unwrap();
        let _b = p.new_page().unwrap();
        let err = p.new_page().unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(err.message().contains("pinned"));
    }

    #[test]
    fn unpinned_frames_become_reusable() {
        let p = pool(1);
        let a = p.new_page().unwrap();
        let a_id = a.id();
        drop(a);
        let b = p.new_page().unwrap(); // evicts a
        drop(b);
        let a = p.fetch(a_id).unwrap(); // reload from disk
        assert_eq!(a.id(), a_id);
    }

    #[test]
    fn hit_miss_accounting() {
        let p = pool(4);
        let g = p.new_page().unwrap();
        let id = g.id();
        drop(g);
        let _g1 = p.fetch(id).unwrap();
        let _g2 = p.fetch(id).unwrap();
        let (hits, misses) = p.hit_stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 0);
    }

    #[test]
    fn snapshots_are_monotonic_under_concurrent_traffic() {
        // Readers racing with fetches must never observe the counters go
        // backwards, and deltas between successive snapshots must be
        // non-negative (PoolSnapshot::since saturates by construction, so
        // check monotonicity on the raw fields).
        let p = pool(4);
        let id = p.new_page().unwrap().id();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut prev = p.stats();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let cur = p.stats();
                    assert!(cur.hits >= prev.hits, "hits went backwards");
                    assert!(cur.misses >= prev.misses, "misses went backwards");
                    prev = cur;
                }
                prev
            })
        };
        let before = p.stats();
        for _ in 0..5_000 {
            drop(p.fetch(id).unwrap());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
        let delta = p.stats().since(&before);
        assert_eq!(delta.hits, 5_000);
        assert_eq!(delta.misses, 0);
        assert!((delta.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 2);
        let a = p.new_page().unwrap();
        let a_id = a.id();
        drop(a);
        let b = p.new_page().unwrap();
        let b_id = b.id();
        drop(b);
        // Touch a so b is the LRU victim.
        drop(p.fetch(a_id).unwrap());
        let before = disk.snapshot();
        let c = p.new_page().unwrap(); // should evict b
        drop(c);
        drop(p.fetch(a_id).unwrap()); // a still resident: no read
        let delta = disk.snapshot().since(&before);
        assert_eq!(delta.reads, 0, "a was evicted but should not have been");
        drop(p.fetch(b_id).unwrap()); // b was evicted: one read
        let delta = disk.snapshot().since(&before);
        assert_eq!(delta.reads, 1);
    }

    /// `n` pages that live only on disk.
    fn cold_pages(p: &Arc<BufferPool>, n: usize) -> Vec<PageId> {
        let ids = (0..n).map(|_| p.new_page().unwrap().id()).collect();
        p.evict_all().unwrap();
        ids
    }

    /// Whether `id`, which must be resident, is in the protected segment.
    fn is_protected(p: &BufferPool, id: PageId) -> bool {
        let _r = lockorder::acquire(lockorder::POOL);
        let inner = p.inner.lock();
        inner.frames[inner.table[&id]].protected
    }

    #[test]
    fn sequential_sweep_recycles_its_own_frames() {
        // Four protected pages and three on probation share an 8-frame
        // pool with a sweep over four times its size. The sweep keeps
        // reusing one frame: neither segment loses a page.
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let swept = cold_pages(&p, 32);
        let hot = cold_pages(&p, 4);
        for _ in 0..2 {
            for &id in &hot {
                drop(p.fetch(id).unwrap());
            }
        }
        let warm: Vec<PageId> = (0..3).map(|_| p.new_page().unwrap().id()).collect();
        for &id in &swept {
            drop(p.fetch_sequential(id).unwrap());
        }
        let before = disk.snapshot();
        for &id in hot.iter().chain(&warm) {
            drop(p.fetch(id).unwrap());
        }
        assert_eq!(disk.snapshot().since(&before).reads, 0);
    }

    #[test]
    fn twice_fetched_page_survives_a_flood_of_once_fetched_pages() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 4);
        let ids = cold_pages(&p, 21);
        let (hot, flood) = ids.split_first().unwrap();
        drop(p.fetch(*hot).unwrap());
        drop(p.fetch(*hot).unwrap());
        for &id in flood {
            drop(p.fetch(id).unwrap());
        }
        let before = disk.snapshot();
        drop(p.fetch(*hot).unwrap());
        assert_eq!(disk.snapshot().since(&before).reads, 0);
    }

    #[test]
    fn all_protected_pool_still_admits_and_evicts() {
        let p = pool(4);
        let ids = cold_pages(&p, 12);
        let (old, new) = ids.split_at(4);
        for &id in old.iter().chain(old) {
            drop(p.fetch(id).unwrap());
        }
        assert!(old.iter().all(|&id| is_protected(&p, id)));
        let before = p.stats();
        for &id in new {
            let g = p.fetch(id).unwrap();
            assert_eq!(g.id(), id);
        }
        let delta = p.stats().since(&before);
        assert_eq!((delta.misses, delta.evictions), (8, 8));
    }

    #[test]
    fn sequential_hit_neither_promotes_nor_refreshes() {
        // `x` is loaded before `f1`; a sequential hit on `x` leaves it on
        // probation and older than `f1`, so it is the next victim.
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 4);
        let ids = cold_pages(&p, 5);
        let [x, f1, y, f2, f3] = ids[..] else {
            unreachable!()
        };
        drop(p.fetch(x).unwrap());
        drop(p.fetch(f1).unwrap());
        drop(p.fetch_sequential(x).unwrap());
        assert!(!is_protected(&p, x));
        drop(p.fetch(y).unwrap());
        drop(p.fetch(y).unwrap());
        drop(p.fetch(f2).unwrap());
        drop(p.fetch(f3).unwrap());
        let reads = |id| {
            let before = disk.snapshot();
            drop(p.fetch(id).unwrap());
            disk.snapshot().since(&before).reads
        };
        assert_eq!(reads(f1), 0, "f1 stays resident");
        assert_eq!(reads(x), 1, "x was evicted");
    }

    #[test]
    fn freed_frames_rejoin_on_probation() {
        // One frame, so each load reuses the frame just freed: by
        // `evict_all`, by `discard`, and by a failed read.
        let disk = Arc::new(DiskManager::new());
        let inj = Arc::new(FaultInjector::new(
            Arc::clone(&disk) as Arc<dyn DiskBackend>,
            FaultConfig {
                seed: 1,
                permanent_read_error: 1.0,
                ..Default::default()
            },
        ));
        inj.set_enabled(false);
        let p = BufferPool::new(Arc::clone(&inj) as Arc<dyn DiskBackend>, 1);
        let [a, b, c] = cold_pages(&p, 3)[..] else {
            unreachable!()
        };
        let protect = |id| {
            drop(p.fetch(id).unwrap());
            drop(p.fetch(id).unwrap());
            assert!(is_protected(&p, id));
        };
        let load_on_probation = |id| {
            drop(p.fetch(id).unwrap());
            assert!(!is_protected(&p, id));
        };

        protect(a);
        p.evict_all().unwrap();
        load_on_probation(b);

        let s = p.new_scratch_page().unwrap().id();
        protect(s);
        p.discard(s).unwrap();
        load_on_probation(b);

        protect(b);
        inj.set_enabled(true);
        assert_eq!(p.fetch(c).unwrap_err().kind(), "io");
        inj.set_enabled(false);
        load_on_probation(c);
    }

    #[test]
    fn smaller_pool_does_more_io_on_cyclic_scan() {
        // The pool-size effect in miniature: scanning N pages cyclically with a
        // pool smaller than N misses every time; a big pool misses once.
        let run = |frames: usize| -> u64 {
            let disk = Arc::new(DiskManager::new());
            let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, frames);
            let ids: Vec<_> = (0..8)
                .map(|_| {
                    let g = p.new_page().unwrap();
                    g.id()
                })
                .collect();
            let before = disk.snapshot();
            for _ in 0..3 {
                for &id in &ids {
                    drop(p.fetch(id).unwrap());
                }
            }
            disk.snapshot().since(&before).reads
        };
        let small = run(4);
        let large = run(16);
        assert!(small > large, "small pool {small} <= large pool {large}");
        assert_eq!(large, 0, "everything stays resident in the large pool");
    }

    #[test]
    fn evict_all_leaves_cache_cold_but_data_intact() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let g = p.new_page().unwrap();
        g.write()[3] = 0x77;
        let id = g.id();
        let pinned = p.new_page().unwrap(); // stays pinned through evict_all
        drop(g);
        p.evict_all().unwrap();
        let before = disk.snapshot();
        let g = p.fetch(id).unwrap();
        assert_eq!(g.read()[3], 0x77, "dirty page was flushed before eviction");
        assert_eq!(
            disk.snapshot().since(&before).reads,
            1,
            "fetch was physical"
        );
        // The pinned page survived and is still usable.
        pinned.write()[0] = 1;
        drop(pinned);
    }

    #[test]
    fn flush_all_writes_dirty_pages() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 4);
        let g = p.new_page().unwrap();
        g.write()[7] = 9;
        let id = g.id();
        drop(g);
        p.flush_all().unwrap();
        // Read directly from disk, bypassing the pool.
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut buf).unwrap();
        assert_eq!(buf[7], 9);
    }

    #[test]
    fn exhausted_pool_fetch_fails_clean_and_pool_stays_usable() {
        // Satellite: all frames pinned → fetch of a non-resident page must
        // return a clean Storage error, leave hit/miss counters untouched,
        // and leave the pool fully usable once a pin is released.
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 2);
        // A third page living only on disk.
        let evicted_id = {
            let g = p.new_page().unwrap();
            g.write()[0] = 0x42;
            g.id()
        };
        p.flush_all().unwrap();
        p.evict_all().unwrap();
        let g1 = p.new_page().unwrap();
        let g2 = p.new_page().unwrap();
        let before = p.stats();
        let io_before = disk.snapshot();
        let err = p.fetch(evicted_id).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(err.message().contains("pinned"), "{err}");
        assert_eq!(
            p.stats().since(&before),
            PoolSnapshot::default(),
            "failed fetch must not move the pool counters"
        );
        assert_eq!(
            disk.snapshot().since(&io_before).total(),
            0,
            "failed fetch must not touch the disk"
        );
        // Releasing one pin makes the same fetch succeed.
        drop(g1);
        let g = p.fetch(evicted_id).unwrap();
        assert_eq!(g.read()[0], 0x42);
        let delta = p.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (0, 1));
        drop(g);
        drop(g2);
    }

    #[test]
    fn failed_read_returns_frame_to_free_list() {
        // A fetch that dies on a permanent I/O fault must not leak its
        // frame: the pool retains full capacity afterwards.
        let disk = Arc::new(DiskManager::new());
        let inj = Arc::new(FaultInjector::new(
            Arc::clone(&disk) as Arc<dyn DiskBackend>,
            FaultConfig {
                seed: 1,
                permanent_read_error: 1.0,
                ..Default::default()
            },
        ));
        inj.set_enabled(false);
        let p = BufferPool::new(Arc::clone(&inj) as Arc<dyn DiskBackend>, 2);
        let id = {
            let g = p.new_page().unwrap();
            g.id()
        };
        p.evict_all().unwrap();
        inj.set_enabled(true);
        assert_eq!(p.fetch(id).unwrap_err().kind(), "io");
        inj.set_enabled(false);
        // Both frames still available: two concurrent pins succeed.
        let _a = p.new_page().unwrap();
        let _b = p.new_page().unwrap();
    }

    #[test]
    fn checksum_detects_torn_write_and_bit_flip() {
        let disk = Arc::new(DiskManager::new());
        let inj = Arc::new(FaultInjector::new(
            Arc::clone(&disk) as Arc<dyn DiskBackend>,
            FaultConfig::default(),
        ));
        let p = BufferPool::new(Arc::clone(&inj) as Arc<dyn DiskBackend>, 4);
        let make_page = |fill: u8| {
            let g = p.new_page().unwrap();
            for b in g.write().iter_mut() {
                *b = fill;
            }
            g.id()
        };
        let torn_id = make_page(0x11);
        let flip_id = make_page(0x22);
        p.flush_all().unwrap();
        p.evict_all().unwrap();
        inj.force_torn_write(torn_id).unwrap();
        inj.force_bit_flip(flip_id).unwrap();
        for id in [torn_id, flip_id] {
            let err = p.fetch(id).unwrap_err();
            assert_eq!(err.kind(), "corruption", "{err}");
            assert!(err.message().contains("checksum"), "{err}");
        }
        assert_eq!(p.stats().corruptions, 2);
        // Persistent corruption burned the full retry budget each time.
        assert_eq!(p.stats().retries, 2 * IO_RETRY_LIMIT as u64);
    }

    #[test]
    fn transient_faults_heal_via_bounded_retry() {
        let disk = Arc::new(DiskManager::new());
        let inj = Arc::new(FaultInjector::new(
            Arc::clone(&disk) as Arc<dyn DiskBackend>,
            FaultConfig {
                seed: 3,
                read_error: 1.0,
                bit_flip_read: 1.0,
                ..Default::default()
            },
        ));
        inj.set_enabled(false);
        let p = BufferPool::new(Arc::clone(&inj) as Arc<dyn DiskBackend>, 2);
        let id = {
            let g = p.new_page().unwrap();
            g.write()[7] = 0x77;
            g.id()
        };
        p.flush_all().unwrap();
        p.evict_all().unwrap();
        inj.set_enabled(true);
        // First attempt: injected transient error. Second: bit flip in the
        // returned buffer → checksum mismatch. Third: clean. The caller
        // sees none of it.
        let g = p.fetch(id).unwrap();
        assert_eq!(g.read()[7], 0x77);
        assert!(p.stats().retries >= 1, "retries: {}", p.stats().retries);
        assert_eq!(p.stats().corruptions, 0);
    }

    #[test]
    fn reflush_restamps_checksum_after_corruption() {
        // A corrupted page that the engine rewrites (dirty in the pool,
        // flushed again) verifies against the *new* checksum afterwards.
        let disk = Arc::new(DiskManager::new());
        let inj = Arc::new(FaultInjector::new(
            Arc::clone(&disk) as Arc<dyn DiskBackend>,
            FaultConfig::default(),
        ));
        let p = BufferPool::new(Arc::clone(&inj) as Arc<dyn DiskBackend>, 2);
        let g = p.new_page().unwrap();
        let id = g.id();
        g.write()[0] = 1;
        p.flush_all().unwrap();
        inj.force_bit_flip(id).unwrap();
        // The page is still resident and pinned: rewrite and reflush it.
        g.write()[0] = 2;
        p.flush_all().unwrap();
        drop(g);
        p.evict_all().unwrap();
        let g = p.fetch(id).unwrap();
        assert_eq!(g.read()[0], 2, "fresh flush restamped the checksum");
    }

    #[test]
    fn flush_gate_blocks_unlogged_pages_until_released() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 2);
        let gate = TestGate::install(&p);

        // Two dirty, unlogged, unpinned pages fill the pool.
        let a = p.new_page().unwrap();
        a.write()[0] = 1;
        let a_id = a.id();
        drop(a);
        let b = p.new_page().unwrap();
        b.write()[0] = 2;
        drop(b);
        assert!(gate.dirtied.lock().unwrap().contains(&a_id));

        // No victim is flushable: allocation fails clean, data stays put.
        let err = p.new_page().unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(err.message().contains("write-gated"), "{err}");
        // flush_all is a gated no-op: nothing reaches disk.
        let io_before = disk.snapshot();
        p.flush_all().unwrap();
        assert_eq!(disk.snapshot().since(&io_before).writes, 0);
        // evict_all leaves both resident.
        p.evict_all().unwrap();
        let g = p.fetch(a_id).unwrap();
        assert_eq!(g.read()[0], 1, "gated page stayed resident");
        drop(g);

        // stamp_lsn marks dirty without re-entering the gate, and the
        // bytes it lends carry the trailer.
        let lsn = p.stamp_lsn(a_id, 77, crate::page::page_lsn).unwrap();
        assert_eq!(lsn, 77);

        // "Commit": release the gate; eviction and flushes work again.
        gate.strict.store(false, Ordering::Relaxed);
        p.flush_all().unwrap();
        let c = p.new_page().unwrap();
        drop(c);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a_id, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "released page flushed with its data");
        assert_eq!(crate::page::page_lsn(&buf), 77);
    }

    #[test]
    fn a_second_flush_gate_is_refused_and_the_first_stays() {
        let p = pool(4);
        let first = TestGate::install(&p);
        let second = Arc::new(TestGate {
            strict: AtomicBool::new(false),
            dirtied: std::sync::Mutex::new(HashSet::new()),
        });
        let err = p
            .set_flush_gate(Arc::clone(&second) as Arc<dyn FlushGate>)
            .unwrap_err();
        assert_eq!(err.kind(), "internal", "{err}");

        // The first gate still hears of writes and still vetoes flushes.
        let g = p.new_page().unwrap();
        g.write()[0] = 0x3D;
        let id = g.id();
        drop(g);
        assert!(first.dirtied.lock().unwrap().contains(&id));
        assert!(second.dirtied.lock().unwrap().is_empty());
        let writes = p.disk().snapshot().writes;
        p.flush_all().unwrap();
        assert_eq!(p.disk().snapshot().writes, writes, "the first gate vetoes");
    }

    #[test]
    fn scratch_pages_never_reach_the_flush_gate() {
        // A strict gate vetoes every page it has heard of. Scratch pages,
        // written, evicted, reloaded and written again through two frames,
        // are never reported, so they stay evictable throughout.
        let p = pool(2);
        let gate = TestGate::install(&p);
        let ids: Vec<PageId> = (0..4u8)
            .map(|i| {
                let g = p.new_scratch_page().unwrap();
                g.write()[0] = i;
                g.id()
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let g = p.fetch(id).unwrap();
            assert_eq!(g.read()[0], i as u8, "scratch page {id} round-trips");
            g.write()[1] = 1;
        }
        assert!(p.stats().evictions >= 4, "the pages went through eviction");
        assert!(gate.dirtied.lock().unwrap().is_empty());
    }

    #[test]
    fn discard_frees_a_dirty_page_without_writing_it() {
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 2);
        let g = p.new_scratch_page().unwrap();
        g.write()[0] = 0x5A;
        let id = g.id();
        drop(g);
        let before = (disk.snapshot(), p.stats());
        p.discard(id).unwrap();
        // The freed frame is reused: two pins fit with nothing evicted.
        let _a = p.new_page().unwrap();
        let _b = p.new_page().unwrap();
        assert_eq!(disk.snapshot().since(&before.0).writes, 0);
        assert_eq!(p.stats().since(&before.1).evictions, 0);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read_page(id, &mut buf).is_err(), "page {id} released");
    }

    #[test]
    fn discard_refuses_pinned_and_table_pages() {
        let p = pool(2);
        let g = p.new_scratch_page().unwrap();
        g.write()[0] = 7;
        let id = g.id();
        assert_eq!(p.discard(id).unwrap_err().kind(), "internal");
        assert_eq!(g.read()[0], 7, "the pinned page is intact");
        drop(g);
        assert_eq!(p.fetch(id).unwrap().read()[0], 7);
        p.discard(id).unwrap();

        let table_page = p.new_page().unwrap().id();
        assert_eq!(p.discard(table_page).unwrap_err().kind(), "internal");
        assert!(p.fetch(table_page).is_ok());
    }

    #[test]
    fn concurrent_same_page_misses_read_disk_once() {
        // The loading set makes a miss single-flight: many threads racing
        // to fetch the same cold page cause exactly one physical read.
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let id = {
            let g = p.new_page().unwrap();
            g.write()[0] = 0x5C;
            g.id()
        };
        p.flush_all().unwrap();
        p.evict_all().unwrap();
        let before = disk.snapshot();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let g = p.fetch(id).unwrap();
                    assert_eq!(g.read()[0], 0x5C);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(disk.snapshot().since(&before).reads, 1);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn miss_io_overlaps_across_threads() {
        // With simulated disk latency, four threads fetching four distinct
        // cold pages must finish in much less than 4× the latency — the
        // pool lock is not held across the physical read. The sleep-based
        // latency overlaps even on one CPU, so the bound is robust.
        let disk = Arc::new(DiskManager::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        let ids: Vec<PageId> = (0..4)
            .map(|i| {
                let g = p.new_page().unwrap();
                g.write()[0] = i as u8;
                g.id()
            })
            .collect();
        p.flush_all().unwrap();
        p.evict_all().unwrap();
        disk.set_io_latency_micros(20_000); // 20ms per physical I/O
        let start = std::time::Instant::now();
        let threads: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let g = p.fetch(id).unwrap();
                    assert_eq!(g.read()[0], i as u8);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let elapsed = start.elapsed();
        disk.set_io_latency_micros(0);
        assert!(
            elapsed < std::time::Duration::from_millis(60),
            "4 × 20ms misses took {elapsed:?}: miss I/O did not overlap"
        );
    }

    #[test]
    fn concurrent_fetches_pin_same_page() {
        let p = pool(2);
        let g1 = p.new_page().unwrap();
        let id = g1.id();
        let g2 = p.fetch(id).unwrap();
        // Two pins on one frame; second frame still free for another page.
        let _other = p.new_page().unwrap();
        drop(g1);
        // Still pinned by g2: allocating two more pages must fail on the
        // second (only one evictable frame).
        drop(g2);
    }
}
