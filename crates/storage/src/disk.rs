//! Simulated disk with physical-I/O accounting.
//!
//! [`DiskBackend`] is the storage engine's view of a disk: page-granular
//! allocate/read/write with I/O counters. [`DiskManager`] is the in-memory
//! reference implementation; [`crate::fault::FaultInjector`] wraps any
//! backend and injects deterministic faults for robustness testing.
//!
//! Every `read_page`/`write_page` is a "physical" I/O and is counted. The
//! counters are the measured side of the cost-model validation experiments
//! (`tests/plan_regret.rs`): the optimizer *predicts* page fetches, the disk
//! *counts* them.

use std::sync::atomic::{AtomicU64, Ordering};

use evopt_common::{EvoptError, Result};
use parking_lot::Mutex;

use crate::page::{PageData, PageId, PAGE_SIZE};

/// Point-in-time copy of the I/O counters; subtract two to get the I/O a
/// region of code performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub allocations: u64,
    /// Durability barriers issued (`sync` calls). No-ops on the in-memory
    /// disk, but counted so WAL overhead experiments can report them.
    pub syncs: u64,
    /// Read faults injected/observed beneath this backend (0 on a healthy
    /// disk; counted by [`crate::fault::FaultInjector`]).
    pub read_faults: u64,
    /// Write faults injected/observed beneath this backend.
    pub write_faults: u64,
}

impl IoSnapshot {
    /// Physical I/Os since `earlier`. Counters are monotonic, so `earlier`
    /// must be the older snapshot — debug builds assert that; release
    /// builds saturate rather than underflow, matching
    /// `PoolSnapshot::since`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        debug_assert!(
            self.reads >= earlier.reads
                && self.writes >= earlier.writes
                && self.allocations >= earlier.allocations
                && self.syncs >= earlier.syncs
                && self.read_faults >= earlier.read_faults
                && self.write_faults >= earlier.write_faults,
            "IoSnapshot::since called with a newer `earlier`: {earlier:?} vs {self:?}"
        );
        IoSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            read_faults: self.read_faults.saturating_sub(earlier.read_faults),
            write_faults: self.write_faults.saturating_sub(earlier.write_faults),
        }
    }

    /// Total page transfers (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total injected/observed I/O faults (reads + writes).
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }
}

/// Page-granular disk abstraction beneath the buffer pool.
///
/// Implementations must be thread-safe; the pool issues single page ops and
/// never holds its own lock across a backend call's result processing.
pub trait DiskBackend: Send + Sync {
    /// Allocate a fresh zeroed page and return its id.
    fn allocate_page(&self) -> PageId;

    /// Release a page: its storage is freed, and a later read or write of
    /// `id` errors. Ids are never reused. The callers are the WAL, dropping
    /// its log chain before a checkpoint, and
    /// [`crate::buffer::BufferPool::discard`], freeing an operator's
    /// scratch page; neither holds the pool lock across the call.
    fn deallocate_page(&self, id: PageId) -> Result<()>;

    /// Physically read a page into `buf`.
    fn read_page(&self, id: PageId, buf: &mut PageData) -> Result<()>;

    /// Physically write a page from `buf`.
    fn write_page(&self, id: PageId, buf: &PageData) -> Result<()>;

    /// Durability barrier: all writes issued before `sync` returns are
    /// crash-durable. A no-op for the in-memory [`DiskManager`] (every
    /// write is already "durable" in the simulation), but counted, and the
    /// [`crate::fault::FaultInjector`] can make it fail.
    fn sync(&self) -> Result<()>;

    /// Number of pages ever allocated (live + dead).
    fn page_count(&self) -> u64;

    /// Current I/O counters.
    fn snapshot(&self) -> IoSnapshot;

    /// Reset the I/O counters to zero (experiment harness convenience).
    fn reset_stats(&self);
}

/// Re-attempts a physical page op gets after its first try before a fault
/// is declared permanent, in the buffer pool and the WAL alike.
pub(crate) const IO_RETRY_LIMIT: u32 = 3;

/// Run `op` until it succeeds, fails with an error that is not transient,
/// or has been re-attempted `IO_RETRY_LIMIT` times; returns its last
/// result. Transient means `Io` (the injector's faults heal on the next
/// attempt) or `Corruption` (a check the op made on the bytes, which a
/// re-read may pass).
pub(crate) fn retry_io<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut retries = 0;
    loop {
        match op() {
            Err(EvoptError::Io(_) | EvoptError::Corruption(_)) if retries < IO_RETRY_LIMIT => {
                retries += 1;
            }
            done => return done,
        }
    }
}

/// In-memory simulated disk.
///
/// Thread-safe; the page store sits behind a mutex (coarse, but the engine
/// issues single page ops, never holds the lock across work).
pub struct DiskManager {
    pages: Mutex<Vec<Option<Box<PageData>>>>, // lockorder: leaf
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    syncs: AtomicU64,
    /// Simulated per-op latency in microseconds (0 = instant). The sleep
    /// happens *outside* the page-store lock, so concurrent I/Os overlap —
    /// which is what `tests/session_scaling.rs` checks.
    latency_micros: AtomicU64,
}

impl DiskManager {
    pub fn new() -> Self {
        DiskManager {
            pages: Mutex::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            latency_micros: AtomicU64::new(0),
        }
    }

    /// Simulate spinning rust: every subsequent `read_page`/`write_page`
    /// takes at least `micros` microseconds of wall clock, spent with no
    /// lock held (so overlapped requests pay it concurrently).
    pub fn set_io_latency_micros(&self, micros: u64) {
        self.latency_micros.store(micros, Ordering::Relaxed);
    }

    fn simulate_latency(&self) {
        let us = self.latency_micros.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

impl DiskBackend for DiskManager {
    fn allocate_page(&self) -> PageId {
        let mut pages = self.pages.lock();
        let id = pages.len() as PageId;
        pages.push(Some(Box::new([0u8; PAGE_SIZE])));
        self.allocations.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Release a page. Its id is never reused (monotonic allocation keeps
    /// dangling-rid bugs loud instead of silently aliasing).
    fn deallocate_page(&self, id: PageId) -> Result<()> {
        let mut pages = self.pages.lock();
        match pages.get_mut(id as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                Ok(())
            }
            _ => Err(EvoptError::Storage(format!(
                "deallocate of invalid page {id}"
            ))),
        }
    }

    fn read_page(&self, id: PageId, buf: &mut PageData) -> Result<()> {
        self.simulate_latency();
        let pages = self.pages.lock();
        match pages.get(id as usize) {
            Some(Some(data)) => {
                buf.copy_from_slice(&data[..]);
                self.reads.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(EvoptError::Storage(format!("read of invalid page {id}"))),
        }
    }

    fn write_page(&self, id: PageId, buf: &PageData) -> Result<()> {
        self.simulate_latency();
        let mut pages = self.pages.lock();
        match pages.get_mut(id as usize) {
            Some(Some(data)) => {
                data.copy_from_slice(buf);
                self.writes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(EvoptError::Storage(format!("write of invalid page {id}"))),
        }
    }

    fn sync(&self) -> Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            read_faults: 0,
            write_faults: 0,
        }
    }

    fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
    }
}

impl Default for DiskManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let disk = DiskManager::new();
        let id = disk.allocate_page();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(id, &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
    }

    #[test]
    fn counters_track_physical_io() {
        let disk = DiskManager::new();
        let id = disk.allocate_page();
        let buf = [0u8; PAGE_SIZE];
        let mut out = [0u8; PAGE_SIZE];
        let before = disk.snapshot();
        disk.write_page(id, &buf).unwrap();
        disk.read_page(id, &mut out).unwrap();
        disk.read_page(id, &mut out).unwrap();
        let delta = disk.snapshot().since(&before);
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.total(), 3);
    }

    #[test]
    fn sync_is_a_counted_no_op() {
        let disk = DiskManager::new();
        let before = disk.snapshot();
        disk.sync().unwrap();
        disk.sync().unwrap();
        assert_eq!(disk.snapshot().since(&before).syncs, 2);
        disk.reset_stats();
        assert_eq!(disk.snapshot().syncs, 0);
    }

    #[test]
    fn invalid_page_access_errors() {
        let disk = DiskManager::new();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read_page(0, &mut buf).is_err());
        assert!(disk.write_page(99, &buf).is_err());
        assert!(disk.deallocate_page(0).is_err());
    }

    #[test]
    fn deallocated_page_stays_dead() {
        let disk = DiskManager::new();
        let a = disk.allocate_page();
        disk.deallocate_page(a).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read_page(a, &mut buf).is_err());
        assert!(disk.deallocate_page(a).is_err());
        // Ids are not reused.
        let b = disk.allocate_page();
        assert_ne!(a, b);
    }

    #[test]
    fn reset_stats_zeroes() {
        let disk = DiskManager::new();
        let id = disk.allocate_page();
        let buf = [0u8; PAGE_SIZE];
        disk.write_page(id, &buf).unwrap();
        disk.reset_stats();
        assert_eq!(disk.snapshot(), IoSnapshot::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "newer `earlier`")]
    fn since_with_newer_earlier_panics_in_debug() {
        // Misordered arguments (e.g. an "earlier" snapshot taken after a
        // reset) are a caller bug: debug builds assert; release builds
        // saturate to zero instead of underflowing.
        let disk = DiskManager::new();
        let id = disk.allocate_page();
        let buf = [0u8; PAGE_SIZE];
        disk.write_page(id, &buf).unwrap();
        let busy = disk.snapshot();
        disk.reset_stats();
        let idle = disk.snapshot();
        let _ = idle.since(&busy);
    }

    #[test]
    fn snapshots_are_monotonic_under_concurrent_traffic() {
        // Readers racing with writers must never observe counters going
        // backwards, and well-ordered deltas must add up.
        let disk = std::sync::Arc::new(DiskManager::new());
        let id = disk.allocate_page();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let disk = std::sync::Arc::clone(&disk);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut prev = disk.snapshot();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let cur = disk.snapshot();
                    assert!(cur.reads >= prev.reads, "reads went backwards");
                    assert!(cur.writes >= prev.writes, "writes went backwards");
                    let _ = cur.since(&prev);
                    prev = cur;
                }
            })
        };
        let before = disk.snapshot();
        let buf = [0u8; PAGE_SIZE];
        let mut out = [0u8; PAGE_SIZE];
        for _ in 0..2_000 {
            disk.write_page(id, &buf).unwrap();
            disk.read_page(id, &mut out).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
        let delta = disk.snapshot().since(&before);
        assert_eq!(delta.reads, 2_000);
        assert_eq!(delta.writes, 2_000);
    }
}
