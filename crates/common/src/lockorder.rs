//! Lock-ordering hierarchy with debug-build enforcement.
//!
//! The multi-session engine holds locks from several layers at once (a
//! commit walks engine → catalog → WAL → buffer pool). Deadlock freedom
//! comes from a total order over every long-lived lock in the system:
//! a thread may only acquire a lock whose rank is **strictly greater**
//! than every rank it already holds.
//!
//! The hierarchy (see DESIGN.md §11.4 for the derivation). The
//! *contention histogram* column names the `EngineMetrics` family that
//! times waits at that rank's acquisition site, where one exists
//! (DESIGN.md §12.3) — the timed wrapper lives next to the
//! `lockorder::acquire` call, so the rank table doubles as the map of
//! instrumented wait points.
//!
//! **This table is machine-readable.** `evopt-analyze` (DESIGN.md §13)
//! parses the `| rank `NAME` | … |` rows plus the `pub const` items
//! below as the source of truth for its whole-workspace lock-graph
//! verification: an `acquire` of a name missing here, a const without a
//! table row, or a histogram family with no timed acquisition site are
//! all findings. Keep the row format intact when adding a rank, and
//! keep the constants in sync (a self-test asserts the round-trip).
//!
//! | rank | lock | contention histogram |
//! |------|------|----------------------|
//! | 10 `COMMIT`        | engine commit lock (serializes write statements) | `evopt_commit_lock_wait_us` |
//! | 15 `CONFIG`        | engine session-default config | — |
//! | 20 `CATALOG`       | catalog current-version slot (snapshot, publish) | `evopt_snapshot_acquire_us` |
//! | 30 `WAL_STATE`     | WAL append state (tail buffer, LSNs) | `evopt_wal_sync_wait_us` |
//! | 32 `BTREE_WRITE`   | per-index coarse writer lock (insert/delete) | — |
//! | 33 `HEAP_META`     | per-heap tail pointer and row/page counts | — |
//! | 40 `POOL`          | buffer-pool frame table | `evopt_pool_miss_io_us`, `evopt_pool_load_wait_us` |
//! | 41 `POOL_CHECKSUM` | buffer-pool page-checksum map | — |
//! | 50 `WAL_GATE`      | WAL held-page map (no-steal flush gate) | — |
//! | 60 `OBS`           | observability (query log ring) | — |
//!
//! Note the perhaps surprising `WAL_STATE < POOL`: the WAL's commit path
//! holds its append state while stamping LSNs into resident pages
//! (`BufferPool::stamp_lsn`), while the pool's flush paths consult only the
//! WAL's *gate* map (rank 50), never its append state — so the order is
//! acyclic even though the two layers call into each other. The pool's
//! own gate slot takes no lock: it is set once, at database construction.
//!
//! Page latches (the per-frame `RwLock<PageData>`) are leaf locks: nothing
//! *ranked* is acquired while one is held, so they are exempt from
//! ranking. (Disk I/O under a page latch is fine and deliberate — the
//! flush paths read a latched frame while writing it back.) One exception:
//! a flush (eviction write-back, `flush_all`) stamps the page's checksum
//! under `POOL_CHECKSUM` while it still holds the page's read latch, so
//! the checksum map records a page's writes to disk in the order they
//! happened. Nothing takes a page latch while holding `POOL_CHECKSUM`, so
//! the exception cannot close a cycle. A leaf lock's
//! field declaration carries a `// lockorder: leaf` annotation, which
//! `evopt-analyze` both honours (no unranked-acquisition finding) and
//! polices (a `lockorder::acquire` inside a leaf's hold region is a
//! finding — a false leaf claim doesn't survive CI).
//!
//! Enforcement is debug-only and costs one thread-local compare per
//! acquisition; release builds compile [`acquire`] to a no-op.

/// Engine commit lock: serializes write statements end-to-end.
pub const COMMIT: u16 = 10;
/// Engine configuration defaults.
pub const CONFIG: u16 = 15;
/// Catalog current-version slot: held to clone the version a snapshot
/// pins, and to swap in the next one. Nothing else happens under it.
pub const CATALOG: u16 = 20;
/// WAL append state.
pub const WAL_STATE: u16 = 30;
/// Per-index coarse writer lock (B-tree insert/delete serialization).
pub const BTREE_WRITE: u16 = 32;
/// Per-heap-file metadata (tail page pointer, row/page counts).
pub const HEAP_META: u16 = 33;
/// Buffer-pool frame table.
pub const POOL: u16 = 40;
/// Buffer-pool checksum map.
pub const POOL_CHECKSUM: u16 = 41;
/// WAL held-page map: pages not yet logged, or logged but not yet
/// durable (the no-steal flush gate).
pub const WAL_GATE: u16 = 50;
/// Observability structures (query log ring).
pub const OBS: u16 = 60;

/// Every rank in the hierarchy as `(const name, rank)` pairs, in
/// ascending rank order. This is the runtime half of the machine-readable
/// rank table: `evopt-analyze` parses the doc table + constants from this
/// file's *source*, and a self-test asserts that parse round-trips
/// against this list — so the analyzer can never silently drift from the
/// hierarchy the debug-build enforcement uses.
pub fn all_ranks() -> &'static [(&'static str, u16)] {
    &[
        ("COMMIT", COMMIT),
        ("CONFIG", CONFIG),
        ("CATALOG", CATALOG),
        ("WAL_STATE", WAL_STATE),
        ("BTREE_WRITE", BTREE_WRITE),
        ("HEAP_META", HEAP_META),
        ("POOL", POOL),
        ("POOL_CHECKSUM", POOL_CHECKSUM),
        ("WAL_GATE", WAL_GATE),
        ("OBS", OBS),
    ]
}

#[cfg(debug_assertions)]
thread_local! {
    /// The highest rank this thread currently holds (0 = none).
    static HELD: std::cell::Cell<u16> = const { std::cell::Cell::new(0) };
}

/// Witness that a ranked lock acquisition respected the hierarchy. Hold it
/// for exactly as long as the lock guard it accompanies; dropping it
/// restores the thread's previous rank.
#[must_use = "the rank guard must live as long as the lock guard it ranks"]
pub struct RankGuard {
    #[cfg(debug_assertions)]
    prev: u16,
}

/// Record that the current thread is about to acquire a lock of `rank`.
/// Debug builds panic if the thread already holds an equal or higher rank —
/// the canonical deadlock precondition. Release builds are a no-op.
#[inline]
pub fn acquire(rank: u16) -> RankGuard {
    #[cfg(debug_assertions)]
    {
        let prev = HELD.with(|h| {
            let prev = h.get();
            assert!(
                prev < rank,
                "lock-order violation: acquiring rank {rank} while holding rank {prev} \
                 (hierarchy: commit < config < catalog < wal-state < pool < wal-gate < obs)"
            );
            h.set(rank);
            prev
        });
        RankGuard { prev }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = rank;
        RankGuard {}
    }
}

#[cfg(debug_assertions)]
impl Drop for RankGuard {
    fn drop(&mut self) {
        HELD.with(|h| h.set(self.prev));
    }
}

/// The rank the current thread holds right now (debug builds; always 0 in
/// release). Test hook.
pub fn current_rank() -> u16 {
    #[cfg(debug_assertions)]
    {
        HELD.with(|h| h.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_fine() {
        let a = acquire(COMMIT);
        let b = acquire(CATALOG);
        let c = acquire(POOL);
        assert_eq!(
            current_rank(),
            if cfg!(debug_assertions) { POOL } else { 0 }
        );
        drop(c);
        drop(b);
        drop(a);
        assert_eq!(current_rank(), 0);
    }

    #[test]
    fn release_restores_previous_rank() {
        let a = acquire(WAL_STATE);
        {
            let _b = acquire(WAL_GATE);
        }
        // After dropping the inner guard the thread may acquire anything
        // above WAL_STATE again.
        let _c = acquire(POOL);
        drop(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn descending_acquisition_panics_in_debug() {
        let _a = acquire(POOL);
        let _b = acquire(CATALOG);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_reacquisition_panics_in_debug() {
        let _a = acquire(WAL_STATE);
        let _b = acquire(WAL_STATE);
    }
}
