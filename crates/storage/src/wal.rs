//! Redo-only write-ahead log and crash recovery.
//!
//! The WAL makes statement-granularity commits crash-durable on top of the
//! simulated disk. It is written through [`DiskBackend`] like every other
//! page, so the [`crate::fault::FaultInjector`] perturbs it for free and
//! [`crate::fault::CrashingBackend`] can kill it mid-write.
//!
//! # On-disk layout
//!
//! Page 0 is the **master page**:
//!
//! ```text
//! 0   u64 magic            "evoptwal"
//! 8   u32 format version   (3)
//! 12  u32 reserved         (0)
//! 16  u64 scan_start       first log page of the current chain
//! 24  u64 checkpoint_lsn   LSN of the checkpoint record heading that chain
//! 32  u64 next_lsn hint    (advisory; recovery recomputes from the scan)
//! 40  u32 crc32            over bytes [0, 40)
//! ```
//!
//! A version-1 log logged each DDL as a delta record, and a version-2 log
//! a whole image of every page a commit dirtied; their masters are
//! refused as corruption rather than scanned.
//!
//! Log pages form a singly-linked chain: bytes `[0, 8)` hold the next page
//! id (`0` = none — page 0 is the master, never a log page, so fresh zeroed
//! pages read as end-of-chain), bytes `[8, PAGE_SIZE)` are a raw byte
//! stream. Records are framed in that stream, freely straddling pages:
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! payload = u8 kind | u64 lsn | body
//! ```
//!
//! Three kinds of record exist: a page record (redo), a commit, and a
//! *catalog record*. A page record's body is `u64 page | u64 base_lsn |
//! ranges`, each range `u16 offset | u16 len | bytes`: the bytes a commit
//! changed on the page as of `base_lsn`, or a *full image*, the one range
//! `[0, PAGE_SIZE)`. Every DDL statement logs the whole catalog version it
//! published as one catalog record, and a checkpoint logs the same under
//! its own kind, which is also a commit point. A catalog record's body is
//! opaque here: the catalog writes the bytes and reads them back, and the
//! log only frames them. Recovery hands back the last committed one it
//! passes.
//!
//! `payload_len == 0` marks the clean end of the log (fresh pages are
//! zeroed). A record whose CRC mismatches, whose LSN does not increase, or
//! that runs past the end of the chain is a **torn tail**: the scan stops
//! and everything from the last commit/checkpoint record onward is
//! truncated — torn records are never replayed.
//!
//! # Redo-only, no-steal
//!
//! Commit stamps the LSN trailer of every page the statement dirtied and
//! logs, per page, the bytes that differ from its *before-image* (the copy
//! the flush gate took when the page was first dirtied since it was last
//! logged), then a commit record, flushes the log tail and syncs. A page
//! at or below the last checkpoint's LSN (a fresh page's is 0), or whose
//! delta would outgrow the page, logs a full image instead: PostgreSQL's
//! full-page-write rule, so replay repairs a torn data page from the first
//! record after the checkpoint. There are no undo records because
//! uncommitted dirty pages never reach disk: the WAL registers itself as
//! the pool's [`FlushGate`] and vetoes flushing any page whose record is
//! not yet on durable log. One map holds each such page: `Unlogged` from
//! its first dirtying, `Logged` at its record's LSN once its commit
//! appends it, and released when a sync covers that LSN. A page dirtied
//! again while `Logged` goes back to `Unlogged`: its next record gets a
//! larger LSN. Recovery therefore only ever redoes committed work,
//! idempotently — a record is skipped when the on-disk page's LSN trailer
//! is already ≥ the record's, and a delta applies only over a page at its
//! `base_lsn` (any other is corruption).
//!
//! # Group commit
//!
//! Under the multi-session engine, commits split in two:
//! [`Wal::commit_grouped`] appends the statement's page records plus a
//! commit record to the in-memory log tail (turning its pages from
//! `Unlogged` to `Logged` in one step — no-steal holds throughout) and
//! returns the commit LSN; [`Wal::sync_through`] makes the log durable
//! through that LSN and releases the pages it covers. The sync
//! early-returns when a sibling session's sync already covered the LSN —
//! adjacent commits share one physical sync, which is the group-commit
//! win.
//!
//! # Checkpoints
//!
//! [`Wal::checkpoint`] bounds recovery work: flush all committed dirty
//! pages, seal the current chain, write a checkpoint record (carrying the
//! catalog's bytes) at the head of a fresh chain, atomically switch the
//! master page to it, then release the old chain. A crash at any point
//! leaves the master naming either the old or the new chain — both scans
//! converge, because replay is idempotent.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evopt_common::{lockorder, EvoptError, Result};
use parking_lot::{Mutex, RwLock};

use crate::buffer::{BufferPool, FlushGate};
use crate::checksum::crc32;
use crate::disk::{retry_io, DiskBackend};
use crate::page::{self, page_lsn, PageData, PageId, FULL_IMAGE_LEN, PAGE_SIZE};

/// WAL sequence number. Strictly increasing across records; 0 = "never
/// logged" in page trailers.
pub type Lsn = u64;

/// The master page's fixed location.
pub const WAL_MASTER_PAGE: PageId = 0;

const MASTER_MAGIC: u64 = 0x6576_6f70_7477_616c; // "evoptwal"
const MASTER_VERSION: u32 = 3;
const MASTER_LEN: usize = 44;

/// "No next log page" sentinel in the chain header (page 0 is the master,
/// so a zeroed fresh page unambiguously ends the chain).
const NO_NEXT: PageId = 0;
const LOG_PAGE_HDR: usize = 8;
const LOG_PAGE_PAYLOAD: usize = PAGE_SIZE - LOG_PAGE_HDR;

/// Upper bound on a record payload; a scanned length beyond this is
/// garbage (torn tail), not a record.
const MAX_RECORD_BYTES: usize = 16 << 20;

const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// The catalog version a DDL statement published.
const KIND_CATALOG: u8 = 3;
const KIND_CHECKPOINT: u8 = 6;

/// A parsed log record.
#[derive(Debug, Clone)]
enum WalRecord {
    /// `(lsn, page, base_lsn, ranges)`: the bytes a commit changed on a
    /// data page, as encoded ranges over the page at `base_lsn` (or a full
    /// image), applied during redo.
    Page(Lsn, PageId, Lsn, Vec<u8>),
    /// Everything logged since the previous commit record is durable.
    Commit { lsn: Lsn },
    /// The catalog version a DDL statement published, or a checkpoint's
    /// (`checkpoint`: also a commit point), as the bytes the catalog
    /// encoded it to.
    Catalog {
        lsn: Lsn,
        catalog: Vec<u8>,
        checkpoint: bool,
    },
}

impl WalRecord {
    fn lsn(&self) -> Lsn {
        match self {
            WalRecord::Page(lsn, ..)
            | WalRecord::Commit { lsn }
            | WalRecord::Catalog { lsn, .. } => *lsn,
        }
    }

    /// Whether this record makes the log prefix before it durable.
    fn is_commit_point(&self) -> bool {
        matches!(
            self,
            WalRecord::Commit { .. }
                | WalRecord::Catalog {
                    checkpoint: true,
                    ..
                }
        )
    }
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// The catalog's bytes as of the last committed catalog record, `None`
    /// when no committed record carries one.
    pub catalog: Option<Vec<u8>>,
    /// Records scanned with a valid CRC (committed or not).
    pub scanned_records: u64,
    /// Page records actually written back (LSN test passed).
    pub replayed_records: u64,
    /// CRC-valid records discarded because no commit record followed.
    pub discarded_records: u64,
    /// Whether the scan ended on damage (CRC mismatch, truncated frame,
    /// non-increasing LSN) rather than a clean end-of-log marker.
    pub torn_tail: bool,
}

/// Monotonic WAL counters (see also `IoSnapshot::syncs` on the disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    pub records_written: u64,
    pub bytes_written: u64,
    pub commits: u64,
    pub checkpoints: u64,
    pub recoveries: u64,
    pub replayed_records: u64,
    /// Syncs that early-returned because a sibling session's physical sync
    /// already covered their LSN (the group-commit win).
    pub coalesced_syncs: u64,
}

struct WalState {
    scan_start: PageId,
    next_lsn: Lsn,
    /// The chain's last page; appends accumulate here in memory and reach
    /// disk on commit (or when the page fills and the chain grows).
    tail_page: PageId,
    tail_buf: Box<PageData>,
    /// Payload bytes used in `tail_buf`.
    tail_used: usize,
    /// Where a written log page is read back to be verified.
    readback: Box<PageData>,
    /// Records appended since the last commit record (forces the next
    /// commit to write even if no pages are dirty — DDL).
    pending: u64,
    /// LSN of the last commit point appended (not necessarily synced).
    last_commit_lsn: Lsn,
    /// Set when an append died partway and the in-memory stream no longer
    /// matches the disk: all further writes fail typed. Recovery (reopen)
    /// is the way back.
    poisoned: Option<String>,
}

impl WalState {
    /// Refuse every write once an append has poisoned the log.
    fn usable(&self) -> Result<()> {
        match &self.poisoned {
            Some(msg) => Err(EvoptError::Io(format!("wal unusable after failure: {msg}"))),
            None => Ok(()),
        }
    }
}

/// Why the WAL holds a dirty page back from disk.
enum Held {
    /// Dirtied since its record was last appended, with its before-image
    /// when its commit will log a delta.
    Unlogged(Option<Box<PageData>>),
    /// Its last change is appended at this LSN, not yet durable.
    Logged(Lsn),
}

/// The write-ahead log. One per database; shared via `Arc` so it can also
/// serve as the pool's [`FlushGate`].
pub struct Wal {
    disk: Arc<dyn DiskBackend>,
    state: Mutex<WalState>,
    /// Every dirty page whose last change is not yet on durable log. The
    /// flush gate: these may not reach disk (no-steal).
    held: Mutex<HashMap<PageId, Held>>,
    /// LSN of the checkpoint record heading the chain recovery scans (0
    /// before the first): a page at or below it logs a full image.
    checkpoint_lsn: AtomicU64,
    /// Highest LSN known durable on disk.
    synced_lsn: AtomicU64,
    coalesced_syncs: AtomicU64,
    /// Wall time per [`Wal::sync_through`] call. Bimodal by design: the
    /// coalesced fast path (a sibling's fsync already covered our LSN)
    /// lands in the 1µs bucket, a physical flush+sync in the tail — the
    /// split *is* the group-commit win, made visible.
    sync_wait_us: evopt_obs::Histogram,
    records_written: AtomicU64,
    bytes_written: AtomicU64,
    commits: AtomicU64,
    checkpoints: AtomicU64,
    recoveries: AtomicU64,
    replayed_records: AtomicU64,
}

impl FlushGate for Wal {
    fn on_dirty(&self, id: PageId, data: &RwLock<PageData>) {
        let unlogged = |h: Option<&Held>| matches!(h, Some(Held::Unlogged(_)));
        {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            if unlogged(self.held.lock().get(&id)) {
                return;
            }
        }
        // The page's first dirtying since it was last logged: keep its
        // bytes, unless its commit logs it whole anyway. A `Logged` LSN is
        // dropped: the page's next record has a larger one.
        let before = {
            let page = data.read();
            (page_lsn(&page) > self.checkpoint_lsn.load(Ordering::Relaxed)).then(|| Box::new(*page))
        };
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        let mut held = self.held.lock();
        if !unlogged(held.get(&id)) {
            held.insert(id, Held::Unlogged(before));
        }
    }

    fn can_flush(&self, id: PageId) -> bool {
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        !self.held.lock().contains_key(&id)
    }
}

impl Wal {
    /// A WAL whose chain starts at `scan_start` and whose appends resume at
    /// `tail` (page, payload bytes used), everything through `last_lsn`
    /// durable.
    fn new(
        disk: Arc<dyn DiskBackend>,
        scan_start: PageId,
        (tail_page, tail_used): (PageId, usize),
        last_lsn: Lsn,
        checkpoint_lsn: Lsn,
    ) -> Wal {
        Wal {
            disk,
            state: Mutex::new(WalState {
                scan_start,
                next_lsn: last_lsn + 1,
                tail_page,
                tail_buf: Box::new([0u8; PAGE_SIZE]),
                tail_used,
                readback: Box::new([0u8; PAGE_SIZE]),
                pending: 0,
                last_commit_lsn: last_lsn,
                poisoned: None,
            }),
            held: Mutex::default(),
            checkpoint_lsn: AtomicU64::new(checkpoint_lsn),
            synced_lsn: AtomicU64::new(last_lsn),
            coalesced_syncs: AtomicU64::default(),
            sync_wait_us: evopt_obs::Histogram::new(evopt_obs::WAIT_BUCKETS_US),
            records_written: AtomicU64::default(),
            bytes_written: AtomicU64::default(),
            commits: AtomicU64::default(),
            checkpoints: AtomicU64::default(),
            recoveries: AtomicU64::default(),
            replayed_records: AtomicU64::default(),
        }
    }

    /// Initialise a WAL on a **fresh** disk (page 0 must be free — the
    /// master page's location is fixed).
    pub fn create(disk: Arc<dyn DiskBackend>) -> Result<Arc<Wal>> {
        let master = disk.allocate_page();
        if master != WAL_MASTER_PAGE {
            return Err(EvoptError::Storage(format!(
                "WAL requires a fresh disk: master page allocated at {master}, want {WAL_MASTER_PAGE}"
            )));
        }
        let first = disk.allocate_page();
        let wal = Wal::new(disk, first, (first, 0), 0, 0);
        // `wal` is exclusively owned here — no lock needed; the initial
        // master mirrors the state constructed above.
        write_page_verified(&wal.disk, first, &[0u8; PAGE_SIZE], &mut [0u8; PAGE_SIZE])?;
        wal.write_master(first, 0, 1)?;
        retry_io(|| wal.disk.sync())?;
        Ok(Arc::new(wal))
    }

    /// Open an existing WAL and run crash recovery: scan the log from the
    /// master's chain, truncate the torn/uncommitted tail, and replay the
    /// committed page records idempotently. Returns the WAL positioned for
    /// new appends plus what recovery found.
    pub fn open(disk: Arc<dyn DiskBackend>) -> Result<(Arc<Wal>, RecoveryInfo)> {
        let (scan_start, checkpoint_lsn) = Self::read_master(&disk)?;

        // Scan: collect CRC-valid, LSN-increasing records and the stream
        // position after each one, up to the end-of-log marker, a chain
        // that ends exactly on a frame boundary (a clean end too), or
        // damage: a torn tail.
        let mut records: Vec<(WalRecord, (PageId, usize))> = Vec::new();
        let mut cursor = LogCursor::load(&disk, scan_start)?;
        let mut last_lsn: Lsn = 0;
        let torn_tail = loop {
            let mut len = [0u8; 4];
            if cursor.read_exact(&mut len)?.is_none() || len == [0; 4] {
                break false;
            }
            let len = u32::from_le_bytes(len) as usize;
            let fits = len <= MAX_RECORD_BYTES;
            let (mut crc, mut payload) = ([0u8; 4], vec![0u8; if fits { len } else { 0 }]);
            let framed = fits
                && cursor.read_exact(&mut crc)?.is_some()
                && cursor.read_exact(&mut payload)?.is_some()
                && crc32(&payload) == u32::from_le_bytes(crc);
            // An LSN that does not increase is stale bytes from an earlier
            // chain incarnation.
            let record = framed.then(|| parse_record(&payload)).flatten();
            match record.filter(|r| r.lsn() > last_lsn) {
                Some(record) => {
                    last_lsn = record.lsn();
                    records.push((record, cursor.pos()));
                }
                None => break true,
            }
        };

        // The durable prefix ends at the last commit point; everything
        // after it was never acknowledged and is truncated.
        let committed_len = records
            .iter()
            .rposition(|(r, _)| r.is_commit_point())
            .map_or(0, |i| i + 1);
        let scanned_records = records.len() as u64;
        let discarded_records = (records.len() - committed_len) as u64;
        let tail = committed_len
            .checked_sub(1)
            .map_or((scan_start, 0), |i| records[i].1);
        records.truncate(committed_len);

        // Replay committed page records; the catalog is the last committed
        // catalog record. One page and one read-back buffer serve every
        // record.
        let mut wal = Wal::new(disk, scan_start, tail, last_lsn, checkpoint_lsn);
        let mut catalog = None;
        let mut replayed = 0u64;
        let (mut buf, mut back) = (Box::new([0u8; PAGE_SIZE]), Box::new([0u8; PAGE_SIZE]));
        for (record, _) in records {
            match record {
                WalRecord::Page(lsn, page, base_lsn, ranges) => {
                    let at = (page, lsn, base_lsn);
                    replayed += u64::from(wal.replay_page(at, &ranges, &mut buf, &mut back)?);
                }
                WalRecord::Commit { .. } => {}
                WalRecord::Catalog { catalog: c, .. } => catalog = Some(c),
            }
        }
        wal.replayed_records.store(replayed, Ordering::Relaxed);
        wal.recoveries.store(1, Ordering::Relaxed);

        // Truncate the tail in place: reload the page holding the end of
        // the committed prefix, zero the stream after it, and cut the
        // chain so stale continuation pages are orphaned rather than
        // rescanned. Idempotent — a crash here just repeats the work.
        // Recovery owns the WAL alone, so its state takes no lock yet.
        let state = wal.state.get_mut();
        retry_io(|| wal.disk.read_page(tail.0, &mut state.tail_buf))?;
        state.tail_buf[..LOG_PAGE_HDR].copy_from_slice(&NO_NEXT.to_le_bytes());
        state.tail_buf[LOG_PAGE_HDR + tail.1..].fill(0);
        write_page_verified(&wal.disk, tail.0, &state.tail_buf, &mut state.readback)?;
        retry_io(|| wal.disk.sync())?;

        let info = RecoveryInfo {
            catalog,
            scanned_records,
            replayed_records: replayed,
            discarded_records,
            torn_tail,
        };
        Ok((Arc::new(wal), info))
    }

    /// Apply one page record if the on-disk page is older, reading the
    /// page into `current`. Returns whether the page was written. A delta
    /// over a page not at its `base_lsn` is corruption, never applied.
    fn replay_page(
        &self,
        (page, lsn, base_lsn): (PageId, Lsn, Lsn),
        ranges: &[u8],
        current: &mut PageData,
        back: &mut PageData,
    ) -> Result<bool> {
        match retry_io(|| self.disk.read_page(page, current)) {
            Ok(()) if page_lsn(current) >= lsn => return Ok(false), // idempotent skip
            Ok(()) => {}
            // The page was deallocated after this record was logged (a
            // later committed DROP TABLE): nothing to redo.
            Err(EvoptError::Storage(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
        let on_disk = page_lsn(current);
        if on_disk != base_lsn && !page::is_full_image(ranges) {
            return Err(EvoptError::Corruption(format!(
                "wal record {lsn} changes page {page} as of lsn {base_lsn}, but the page is at lsn {on_disk}"
            )));
        }
        page::apply_ranges(current, ranges);
        write_page_verified(&self.disk, page, current, back)?;
        Ok(true)
    }

    /// First half of group commit: append the statement's page records plus
    /// a commit record to the in-memory log tail and return the commit
    /// record's LSN — **without** making it durable. The pages turn from
    /// `Unlogged` to `Logged`, held until a [`Wal::sync_through`] covering
    /// the returned LSN lands.
    ///
    /// Returns `Ok(None)` only when there is nothing to commit *and* no
    /// earlier grouped commit is still awaiting durability; otherwise a
    /// pending LSN is always handed back for the caller to sync.
    pub fn commit_grouped(&self, pool: &BufferPool) -> Result<Option<Lsn>> {
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        state.usable()?;
        // The pages stay held as `Unlogged`, their before-images taken,
        // until they turn `Logged`: no window lets one be evicted.
        let mut dirty: Vec<(PageId, Option<Box<PageData>>)> = {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            let mut held = self.held.lock();
            held.iter_mut()
                .filter_map(|(&id, h)| match h {
                    Held::Unlogged(before) => Some((id, before.take())),
                    Held::Logged(_) => None,
                })
                .collect()
        };
        dirty.sort_unstable_by_key(|&(id, _)| id);
        if dirty.is_empty() && state.pending == 0 {
            // Nothing new — but a sibling's grouped commit may still await
            // its sync; report its LSN so the caller syncs it too.
            let last = state.last_commit_lsn;
            if last > self.synced_lsn.load(Ordering::SeqCst) {
                return Ok(Some(last));
            }
            return Ok(None);
        }
        let committed = self.commit_locked(&mut state, pool, &dirty);
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        let mut held = self.held.lock();
        match committed {
            Ok(lsn) => {
                for &(p, _) in &dirty {
                    held.insert(p, Held::Logged(lsn));
                }
                self.commits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(lsn))
            }
            Err(e) => {
                // Records of a partial statement may sit in the stream,
                // where a later commit record would make them durable:
                // refuse further writes. The pages stay `Unlogged`
                // (no-steal) with their before-images back.
                state.poisoned.get_or_insert_with(|| e.to_string());
                held.extend(dirty.into_iter().map(|(p, b)| (p, Held::Unlogged(b))));
                Err(e)
            }
        }
    }

    /// Second half of group commit: make the log durable through `lsn`.
    /// Early-returns when a sibling session's physical sync already covered
    /// `lsn` — that coalescing is the group-commit win. On success every
    /// page `Logged` at a covered LSN is released.
    ///
    /// On failure the affected pages stay gated (no-steal holds) and the
    /// commit is *uncertain*: not acknowledged, but recovery may still
    /// replay it if the sync partially landed.
    pub fn sync_through(&self, lsn: Lsn) -> Result<()> {
        // The timed wrapper covers the whole call — coalesced fast path
        // and physical sync alike — so the histogram's bimodal shape
        // shows how often group commit spares a session the fsync.
        self.sync_wait_us.time(|| self.sync_through_inner(lsn))
    }

    fn sync_through_inner(&self, lsn: Lsn) -> Result<()> {
        if self.synced_lsn.load(Ordering::SeqCst) >= lsn {
            self.coalesced_syncs.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        if self.synced_lsn.load(Ordering::SeqCst) >= lsn {
            // A sibling synced while we waited for the state lock.
            self.coalesced_syncs.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        state.usable()?;
        self.flush_tail_and_sync(&mut state)?;
        self.mark_synced(&state);
        Ok(())
    }

    /// Everything appended so far just became durable: advance the synced
    /// horizon and release the pages `Logged` at or below it. Call with the
    /// state lock held, after a successful tail flush + sync.
    fn mark_synced(&self, state: &WalState) {
        let durable = state.next_lsn.saturating_sub(1);
        self.synced_lsn.store(durable, Ordering::SeqCst);
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        self.held
            .lock()
            .retain(|_, h| !matches!(h, Held::Logged(l) if *l <= durable));
    }

    /// Append a record per dirty page (a delta against its before-image, or
    /// a full image) plus a commit record; returns the commit LSN. No sync.
    fn commit_locked(
        &self,
        state: &mut WalState,
        pool: &BufferPool,
        dirty: &[(PageId, Option<Box<PageData>>)],
    ) -> Result<Lsn> {
        let mut payload = Vec::with_capacity(1 + 3 * 8 + FULL_IMAGE_LEN);
        for (page, before) in dirty {
            let lsn = state.next_lsn;
            state.next_lsn += 1;
            payload.clear();
            payload.push(KIND_PAGE);
            payload.extend_from_slice(&lsn.to_le_bytes());
            payload.extend_from_slice(&page.to_le_bytes());
            let before = before.as_deref();
            payload.extend_from_slice(&before.map_or(0, page_lsn).to_le_bytes());
            let head = payload.len();
            pool.stamp_lsn(*page, lsn, |after| {
                if !before.is_some_and(|b| page::put_page_delta(b, after, &mut payload)) {
                    payload.truncate(head);
                    page::put_full_image(after, &mut payload);
                }
            })?;
            self.append_record(state, &payload)?;
        }
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        let mut payload = Vec::with_capacity(9);
        payload.push(KIND_COMMIT);
        payload.extend_from_slice(&lsn.to_le_bytes());
        self.append_record(state, &payload)?;
        state.pending = 0;
        state.last_commit_lsn = lsn;
        Ok(lsn)
    }

    /// Log the catalog version a DDL statement published, as the bytes
    /// the catalog encoded it to (call before [`Wal::commit_grouped`] for
    /// the statement). Recovery hands back the last committed one, so this
    /// one record is the whole of the DDL's logical redo.
    pub fn log_ddl(&self, catalog: &[u8]) -> Result<()> {
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        state.usable()?;
        self.append_catalog(&mut state, KIND_CATALOG, catalog)?;
        state.pending += 1;
        Ok(())
    }

    /// Append `catalog` as one record of `kind`; returns its LSN.
    fn append_catalog(&self, state: &mut WalState, kind: u8, catalog: &[u8]) -> Result<Lsn> {
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        let payload = [&[kind][..], &lsn.to_le_bytes(), catalog].concat();
        self.append_record(state, &payload)?;
        Ok(lsn)
    }

    /// Fuzzy checkpoint: make all committed state durable as data pages,
    /// then start a fresh chain headed by a checkpoint record carrying
    /// `catalog`, switch the master to it, and release the old chain.
    ///
    /// Must run between statements (no uncommitted changes pending).
    pub fn checkpoint(&self, pool: &BufferPool, catalog: &[u8]) -> Result<()> {
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        state.usable()?;
        if state.pending > 0 || self.unlogged_pages() > 0 {
            return Err(EvoptError::Internal(
                "checkpoint with uncommitted changes pending".into(),
            ));
        }

        // 0. Drain any grouped commits still awaiting durability, releasing
        //    every `Logged` page so flush_all below can pass them all.
        if state.last_commit_lsn > self.synced_lsn.load(Ordering::SeqCst) {
            self.flush_tail_and_sync(&mut state)?;
            self.mark_synced(&state);
        }

        // 1. All committed dirty pages reach disk (the gate holds none
        //    of them now) and become durable.
        pool.flush_all()?;
        retry_io(|| self.disk.sync())?;

        // 2. Seal the current chain: link it to a fresh page and persist
        //    the old tail, then move appends to the fresh page.
        let cp_page = self.disk.allocate_page();
        state.tail_buf[..LOG_PAGE_HDR].copy_from_slice(&cp_page.to_le_bytes());
        self.flush_tail(&mut state)?;
        let old_start = state.scan_start;
        state.tail_page = cp_page;
        state.tail_buf.fill(0);
        state.tail_used = 0;

        // 3. The checkpoint record itself, durably. A page's next change
        //    logs a full image (safe even if the master switch fails).
        state.last_commit_lsn = self.append_catalog(&mut state, KIND_CHECKPOINT, catalog)?;
        self.checkpoint_lsn
            .store(state.last_commit_lsn, Ordering::Relaxed);
        self.flush_tail_and_sync(&mut state)?;
        self.mark_synced(&state);

        // 4. Atomic master switch: after this, recovery scans from the
        //    checkpoint record. Before it, recovery scans the old chain —
        //    which now *ends* at this same checkpoint record, so both
        //    sides of the switch converge.
        state.scan_start = cp_page;
        self.write_master(cp_page, state.last_commit_lsn, state.next_lsn)?;
        retry_io(|| self.disk.sync())?;

        // 5. Release the old chain (everything strictly before cp_page).
        let mut id = old_start;
        let bound = self.disk.page_count();
        let mut hops = 0u64;
        while id != cp_page && id != NO_NEXT && hops <= bound {
            hops += 1;
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            if retry_io(|| self.disk.read_page(id, &mut buf)).is_err() {
                break; // unreadable old chain: leak it, stay correct
            }
            let next = le_u64(&buf[..]);
            self.disk.deallocate_page(id)?;
            id = next;
        }

        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Monotonic WAL counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records_written: self.records_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            coalesced_syncs: self.coalesced_syncs.load(Ordering::Relaxed),
        }
    }

    /// Per-call [`Wal::sync_through`] latency (µs), coalesced fast path
    /// included.
    pub fn sync_wait_histogram(&self) -> evopt_obs::HistogramSnapshot {
        self.sync_wait_us.snapshot()
    }

    /// Number of dirty pages currently gated (not yet logged). Zero
    /// between statements.
    pub fn unlogged_pages(&self) -> usize {
        self.held_pages().0
    }

    /// Number of pages appended to the log but still awaiting a sync.
    pub fn unsynced_pages(&self) -> usize {
        self.held_pages().1
    }

    /// Pages held `Unlogged` and `Logged`.
    fn held_pages(&self) -> (usize, usize) {
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        let held = self.held.lock();
        let unlogged = held
            .values()
            .filter(|h| matches!(h, Held::Unlogged(_)))
            .count();
        (unlogged, held.len() - unlogged)
    }

    /// Highest LSN known durable on disk.
    pub fn synced_lsn(&self) -> Lsn {
        self.synced_lsn.load(Ordering::SeqCst)
    }

    // ---- append machinery ----------------------------------------------

    /// Append `payload` behind its header (u32 length, u32 CRC: one LE u64),
    /// not copied into a frame. A hard failure mid-append leaves the stream
    /// unlike the disk, so the WAL poisons itself: every later write fails
    /// typed and only a reopen (recovery) resumes service.
    fn append_record(&self, state: &mut WalState, payload: &[u8]) -> Result<()> {
        let header = (payload.len() as u64 | (u64::from(crc32(payload)) << 32)).to_le_bytes();
        let framed = self.write_stream(state, &header);
        if let Err(e) = framed.and_then(|()| self.write_stream(state, payload)) {
            state.poisoned = Some(e.to_string());
            return Err(e);
        }
        self.records_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(8 + payload.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Copy `bytes` into the tail, growing the chain as pages fill. Full
    /// pages are written (and read-back verified) immediately; the tail
    /// page itself only reaches disk on [`Self::flush_tail_and_sync`].
    fn write_stream(&self, state: &mut WalState, bytes: &[u8]) -> Result<()> {
        let mut off = 0;
        while off < bytes.len() {
            let room = LOG_PAGE_PAYLOAD - state.tail_used;
            if room == 0 {
                let next = self.disk.allocate_page();
                state.tail_buf[..LOG_PAGE_HDR].copy_from_slice(&next.to_le_bytes());
                self.flush_tail(state)?;
                state.tail_page = next;
                state.tail_buf.fill(0);
                state.tail_used = 0;
                continue;
            }
            let n = room.min(bytes.len() - off);
            let start = LOG_PAGE_HDR + state.tail_used;
            state.tail_buf[start..start + n].copy_from_slice(&bytes[off..off + n]);
            state.tail_used += n;
            off += n;
        }
        Ok(())
    }

    fn flush_tail(&self, state: &mut WalState) -> Result<()> {
        write_page_verified(
            &self.disk,
            state.tail_page,
            &state.tail_buf,
            &mut state.readback,
        )
    }

    fn flush_tail_and_sync(&self, state: &mut WalState) -> Result<()> {
        self.flush_tail(state)?;
        retry_io(|| self.disk.sync())
    }

    // ---- master page ----------------------------------------------------

    fn write_master(&self, scan_start: PageId, checkpoint_lsn: Lsn, next_lsn: Lsn) -> Result<()> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf[0..8].copy_from_slice(&MASTER_MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&MASTER_VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&0u32.to_le_bytes());
        buf[16..24].copy_from_slice(&scan_start.to_le_bytes());
        buf[24..32].copy_from_slice(&checkpoint_lsn.to_le_bytes());
        buf[32..40].copy_from_slice(&next_lsn.to_le_bytes());
        let crc = crc32(&buf[..MASTER_LEN - 4]);
        buf[MASTER_LEN - 4..MASTER_LEN].copy_from_slice(&crc.to_le_bytes());
        write_page_verified(&self.disk, WAL_MASTER_PAGE, &buf, &mut [0u8; PAGE_SIZE])
    }

    /// Read and validate the master page; returns `scan_start` and
    /// `checkpoint_lsn`.
    fn read_master(disk: &Arc<dyn DiskBackend>) -> Result<(PageId, Lsn)> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        retry_io(|| disk.read_page(WAL_MASTER_PAGE, &mut buf))?;
        let word = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        let (magic, version) = (le_u64(&buf[..]), word(8));
        let fault = if magic != MASTER_MAGIC {
            format!("has bad magic {magic:#018x}")
        } else if version != MASTER_VERSION {
            format!("has unsupported version {version}")
        } else if crc32(&buf[..MASTER_LEN - 4]) != word(MASTER_LEN - 4) {
            "failed checksum verification".into()
        } else {
            return Ok((le_u64(&buf[16..]), le_u64(&buf[24..])));
        };
        Err(EvoptError::Corruption(format!("wal master page {fault}")))
    }
}

/// Forward reader over the log-page chain's payload stream.
struct LogCursor<'a> {
    disk: &'a Arc<dyn DiskBackend>,
    page: PageId,
    buf: Box<PageData>,
    /// Offset into the payload area `[0, LOG_PAGE_PAYLOAD]`.
    off: usize,
}

impl<'a> LogCursor<'a> {
    fn load(disk: &'a Arc<dyn DiskBackend>, page: PageId) -> Result<Self> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        retry_io(|| disk.read_page(page, &mut buf))?;
        Ok(LogCursor {
            disk,
            page,
            buf,
            off: 0,
        })
    }

    /// `(page, payload_offset)` of the next unread byte.
    fn pos(&self) -> (PageId, usize) {
        (self.page, self.off)
    }

    /// Fill `out`, following the chain. `Ok(None)` when the chain ends
    /// first (a torn frame); hard read errors propagate.
    fn read_exact(&mut self, out: &mut [u8]) -> Result<Option<()>> {
        let mut done = 0;
        while done < out.len() {
            if self.off == LOG_PAGE_PAYLOAD {
                let next = le_u64(&self.buf[..]);
                if next == NO_NEXT {
                    return Ok(None);
                }
                retry_io(|| self.disk.read_page(next, &mut self.buf))?;
                self.page = next;
                self.off = 0;
            }
            let avail = LOG_PAGE_PAYLOAD - self.off;
            let n = avail.min(out.len() - done);
            let start = LOG_PAGE_HDR + self.off;
            out[done..done + n].copy_from_slice(&self.buf[start..start + n]);
            self.off += n;
            done += n;
        }
        Ok(Some(()))
    }
}

/// The little-endian `u64` in the first eight bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// Write a page directly (bypassing the pool) and read it back into
/// `back` to verify — bounded retry heals the injector's transient
/// errors, torn writes and bit flips on the log path, which carries no
/// page checksums of its own.
fn write_page_verified(
    disk: &Arc<dyn DiskBackend>,
    id: PageId,
    buf: &PageData,
    back: &mut PageData,
) -> Result<()> {
    retry_io(|| {
        disk.write_page(id, buf)?;
        disk.read_page(id, back)?;
        if *back == *buf {
            Ok(())
        } else {
            Err(EvoptError::Io(format!(
                "wal page {id} read back different bytes (torn write)"
            )))
        }
    })
}

/// Parse a CRC-validated payload, `u8 kind | u64 lsn | body`. `None`
/// means the bytes are not a record (treated as a torn tail by the scan).
/// A catalog record's body belongs to the catalog: it passes through
/// unread.
fn parse_record(payload: &[u8]) -> Option<WalRecord> {
    let (&kind, rest) = payload.split_first()?;
    let (lsn, body) = (le_u64(rest.get(..8)?), &rest[8..]);
    match kind {
        KIND_PAGE => {
            let (page, base_lsn) = (le_u64(body.get(..8)?), le_u64(body.get(8..16)?));
            let ranges = &body[16..];
            page::for_each_range(ranges, |_, _| ())
                .then(|| WalRecord::Page(lsn, page, base_lsn, ranges.to_vec()))
        }
        KIND_COMMIT => body.is_empty().then_some(WalRecord::Commit { lsn }),
        KIND_CATALOG | KIND_CHECKPOINT => Some(WalRecord::Catalog {
            lsn,
            catalog: body.to_vec(),
            checkpoint: kind == KIND_CHECKPOINT,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::disk::DiskManager;
    use crate::page::set_page_lsn;

    /// Fresh disk + pool + WAL wired together like the engine does it.
    fn setup(frames: usize) -> (Arc<DiskManager>, Arc<BufferPool>, Arc<Wal>) {
        let disk = Arc::new(DiskManager::new());
        let wal = Wal::create(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, frames);
        pool.set_flush_gate(Arc::clone(&wal) as Arc<dyn FlushGate>)
            .unwrap();
        (disk, pool, wal)
    }

    fn fill_page(pool: &Arc<BufferPool>, fill: u8) -> PageId {
        let g = pool.new_page().unwrap();
        for b in g.write().iter_mut() {
            *b = fill;
        }
        g.id()
    }

    /// Capture every page the last statement dirtied, append redo records
    /// plus a commit record, and make the log durable: a grouped commit
    /// synced at once.
    fn commit(wal: &Wal, pool: &BufferPool) {
        if let Some(lsn) = wal.commit_grouped(pool).unwrap() {
            wal.sync_through(lsn).unwrap();
        }
    }

    /// The bytes a catalog of one table `t` (one nullable `Int` column `c`,
    /// its heap at page 1, no index) encodes to.
    const ONE_TABLE: &[u8] = &[
        1, 0, 0, 0, // one table
        1, 0, 0, 0, b't', // named t
        1, 0, 0, 0, // one column
        1, 0, 0, 0, b'c', 1, 1, // named c, Int, nullable
        1, 0, 0, 0, 0, 0, 0, 0, // heap at page 1
        0, 0, 0, 0, // no index
    ];

    #[test]
    fn create_then_open_empty_log() {
        let (disk, _pool, wal) = setup(4);
        drop(wal);
        let (wal2, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.scanned_records, 0);
        assert_eq!(info.replayed_records, 0);
        assert!(!info.torn_tail);
        assert_eq!(info.catalog, None);
        assert_eq!(wal2.stats().recoveries, 1);
    }

    #[test]
    fn committed_pages_replay_after_losing_the_pool() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x11);
        let b = fill_page(&pool, 0x22);
        commit(&wal, &pool);
        // Simulate the crash: the pool's dirty frames are simply lost (we
        // never flushed). The disk holds only the log.
        drop(pool);
        let (_wal2, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.replayed_records, 2);
        assert!(!info.torn_tail);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        assert!(buf[..LOG_PAGE_HDR].iter().all(|&x| x == 0x11));
        disk.read_page(b, &mut buf).unwrap();
        assert_eq!(buf[100], 0x22);
    }

    #[test]
    fn replay_is_idempotent_across_reopens() {
        let (disk, pool, wal) = setup(8);
        fill_page(&pool, 0x33);
        commit(&wal, &pool);
        drop(pool);
        let (_w, info1) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info1.replayed_records, 1);
        // Second recovery: the page LSN trailer is already current.
        let (_w, info2) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info2.replayed_records, 0, "second replay must skip");
        assert_eq!(info2.scanned_records, info1.scanned_records);
    }

    #[test]
    fn uncommitted_tail_is_discarded_not_replayed() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x44);
        commit(&wal, &pool);
        // A logged-but-uncommitted statement: DDL record with no commit.
        wal.log_ddl(b"ghost").unwrap();
        // Flush the tail so the aborted record is actually on disk.
        {
            let mut state = wal.state.lock();
            wal.flush_tail_and_sync(&mut state).unwrap();
        }
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.discarded_records, 1, "aborted DDL must be discarded");
        assert_eq!(info.catalog, None, "aborted DDL's catalog kept");
        assert_eq!(info.replayed_records, 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[200], 0x44, "committed page still replayed");
        // And the discarded record does not resurface on the next commit
        // cycle: reopen again, still no ghost.
        let (_w, info2) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info2.discarded_records, 0, "tail was truncated in place");
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let (disk, pool, wal) = setup(8);
        fill_page(&pool, 0x55);
        commit(&wal, &pool);
        let committed_scan = {
            let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
            info.scanned_records
        };
        // Re-setup on the same disk is not possible (page 0 taken), so tear
        // bytes directly: find the current tail and scribble a garbage
        // frame (nonzero length, bogus CRC) right after the stream end.
        let (wal2, _info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        {
            let state = wal2.state.lock();
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(state.tail_page, &mut buf).unwrap();
            let at = LOG_PAGE_HDR + state.tail_used;
            if at + 12 <= PAGE_SIZE {
                buf[at..at + 4].copy_from_slice(&64u32.to_le_bytes());
                buf[at + 4..at + 12].fill(0xAB); // wrong CRC + garbage
            }
            disk.write_page(state.tail_page, &buf).unwrap();
        }
        drop(wal2);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert!(info.torn_tail, "scribbled frame must read as torn");
        assert_eq!(
            info.scanned_records, committed_scan,
            "torn frame contributes no records"
        );
        // Truncation repaired the tail: next open is clean.
        let (_w, info2) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert!(!info2.torn_tail);
    }

    /// The log frames a catalog record's bytes and never reads them: any
    /// payload, empty or not a catalog at all, comes back as it went in.
    #[test]
    fn last_committed_catalog_record_wins() {
        let (disk, pool, wal) = setup(8);
        wal.log_ddl(ONE_TABLE).unwrap();
        commit(&wal, &pool);
        let v2: Vec<u8> = (0..=255).collect();
        wal.log_ddl(&v2).unwrap();
        commit(&wal, &pool);
        // A third record reaches the disk, but its statement never commits.
        wal.log_ddl(&[]).unwrap();
        {
            let mut state = wal.state.lock();
            wal.flush_tail_and_sync(&mut state).unwrap();
        }
        drop(pool);

        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(
            info.catalog,
            Some(v2.clone()),
            "the last committed one, whole"
        );
        assert_eq!(info.discarded_records, 1, "the uncommitted record");
        // Truncated in place: the discarded record stays gone.
        let (wal, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.catalog, Some(v2));
        assert_eq!(info.discarded_records, 0);
        // An empty payload is a payload too.
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskBackend>, 8);
        wal.log_ddl(&[]).unwrap();
        commit(&wal, &pool);
        drop((pool, wal));
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.catalog, Some(Vec::new()));
    }

    #[test]
    fn checkpoint_bounds_recovery_and_survives_reopen() {
        let (disk, pool, wal) = setup(8);
        // A few committed pages, then a checkpoint.
        for fill in 1..=4u8 {
            fill_page(&pool, fill);
            commit(&wal, &pool);
        }
        let pages_before = disk.page_count();
        wal.checkpoint(&pool, ONE_TABLE).unwrap();
        assert!(
            disk.page_count() >= pages_before,
            "ids are never reused, count only grows"
        );
        // More work after the checkpoint.
        let e = fill_page(&pool, 0xEE);
        commit(&wal, &pool);
        drop(pool);

        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        // Scan starts at the checkpoint: it sees the checkpoint record and
        // the one commit after it, not the four earlier commits.
        assert!(
            info.scanned_records <= 3,
            "checkpoint must bound the scan, saw {}",
            info.scanned_records
        );
        assert_eq!(info.catalog.as_deref(), Some(ONE_TABLE));
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(e, &mut buf).unwrap();
        assert_eq!(buf[50], 0xEE, "post-checkpoint commit replayed");
    }

    #[test]
    fn commit_is_a_noop_without_changes() {
        let (_disk, pool, wal) = setup(4);
        let before = wal.stats();
        commit(&wal, &pool);
        commit(&wal, &pool);
        let after = wal.stats();
        assert_eq!(before.records_written, after.records_written);
        assert_eq!(after.commits, 0);
    }

    #[test]
    fn gate_blocks_uncommitted_flush_then_releases() {
        let (disk, pool, wal) = setup(4);
        let a = fill_page(&pool, 0x77);
        // Before commit: flush_all must not leak the page to disk.
        pool.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "uncommitted page leaked");
        assert_eq!(wal.unlogged_pages(), 1);
        commit(&wal, &pool);
        assert_eq!(wal.unlogged_pages(), 0);
        pool.flush_all().unwrap();
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[9], 0x77, "committed page flushes fine");
    }

    #[test]
    fn grouped_commit_defers_sync_and_coalesces() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x61);
        let l1 = wal.commit_grouped(&pool).unwrap().unwrap();
        let b = fill_page(&pool, 0x62);
        let l2 = wal.commit_grouped(&pool).unwrap().unwrap();
        assert!(l2 > l1);
        assert_eq!(wal.unsynced_pages(), 2);

        // Unsynced pages are gated: flush_all must not leak them to disk.
        pool.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "unsynced page leaked");

        // One physical sync covers both commits; the second request
        // coalesces onto it.
        wal.sync_through(l2).unwrap();
        assert_eq!(wal.unsynced_pages(), 0);
        assert!(wal.synced_lsn() >= l2);
        wal.sync_through(l1).unwrap();
        assert_eq!(wal.stats().coalesced_syncs, 1);

        // Gate released: the pages flush now.
        pool.flush_all().unwrap();
        disk.read_page(b, &mut buf).unwrap();
        assert_eq!(buf[77], 0x62);
    }

    #[test]
    fn grouped_then_synced_commits_replay_after_crash() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x71);
        let l1 = wal.commit_grouped(&pool).unwrap().unwrap();
        let b = fill_page(&pool, 0x72);
        let l2 = wal.commit_grouped(&pool).unwrap().unwrap();
        wal.sync_through(l1.max(l2)).unwrap();
        // Crash: dirty frames lost, only the log survives.
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.replayed_records, 2);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[10], 0x71);
        disk.read_page(b, &mut buf).unwrap();
        assert_eq!(buf[10], 0x72);
    }

    #[test]
    fn plain_commit_drains_leftover_grouped_commit() {
        let (_disk, pool, wal) = setup(8);
        fill_page(&pool, 0x81);
        let l1 = wal.commit_grouped(&pool).unwrap().unwrap();
        assert!(wal.synced_lsn() < l1);
        // A no-new-work commit must still sync the outstanding tail.
        commit(&wal, &pool);
        assert_eq!(wal.unsynced_pages(), 0);
        assert!(wal.synced_lsn() >= l1);
    }

    #[test]
    fn checkpoint_drains_unsynced_gate_first() {
        let (_disk, pool, wal) = setup(8);
        fill_page(&pool, 0x91);
        wal.commit_grouped(&pool).unwrap().unwrap();
        assert_eq!(wal.unsynced_pages(), 1);
        wal.checkpoint(&pool, &[]).unwrap();
        assert_eq!(wal.unsynced_pages(), 0);
    }

    /// A page dirtied again while its last commit is appended but not yet
    /// durable stays gated through a sync that covers only that commit, and
    /// its next commit's bytes are what recovery replays.
    #[test]
    fn a_page_dirtied_again_before_its_sync_stays_gated_until_logged_again() {
        let (disk, pool, wal) = setup(8);
        let p = fill_page(&pool, 0x41);
        let l1 = wal.commit_grouped(&pool).unwrap().unwrap();
        assert!(wal.synced_lsn() < l1);
        pool.fetch(p).unwrap().write()[200..260].fill(0x42);
        assert_eq!(wal.unlogged_pages(), 1);

        let mut on_disk = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut on_disk).unwrap();
        wal.sync_through(l1).unwrap();
        assert!(wal.synced_lsn() >= l1);
        pool.flush_all().unwrap();
        let mut after = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut after).unwrap();
        assert_eq!(
            after, on_disk,
            "a page with an unlogged change reached disk"
        );

        commit(&wal, &pool);
        let second = *pool.fetch(p).unwrap().read();
        assert_eq!(second[230], 0x42);
        // Crash: the dirty frame is lost, only the log survives.
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.replayed_records, 2, "the full image, then the delta");
        disk.read_page(p, &mut after).unwrap();
        assert_eq!(after, second);
    }

    #[test]
    fn master_page_corruption_is_typed() {
        let (disk, _pool, wal) = setup(4);
        drop(wal);
        let mut good = [0u8; PAGE_SIZE];
        disk.read_page(WAL_MASTER_PAGE, &mut good).unwrap();
        let open_err = |buf: &PageData| {
            disk.write_page(WAL_MASTER_PAGE, buf).unwrap();
            match Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>) {
                Ok(_) => panic!("open over a bad master must fail"),
                Err(e) => e,
            }
        };
        // A flipped bit fails the checksum.
        let mut torn = good;
        torn[20] ^= 0xFF;
        assert_eq!(open_err(&torn).kind(), "corruption");
        // A version-1 master (a log with per-DDL records) and a version-2
        // one (a whole image per dirtied page) are refused even with a
        // valid checksum, rather than scanned as a torn tail.
        for old in [1u32, 2] {
            let mut master = good;
            master[8..12].copy_from_slice(&old.to_le_bytes());
            let crc = crc32(&master[..MASTER_LEN - 4]);
            master[MASTER_LEN - 4..MASTER_LEN].copy_from_slice(&crc.to_le_bytes());
            let err = open_err(&master);
            assert_eq!(err.kind(), "corruption");
            assert!(err.message().contains(&format!("version {old}")), "{err}");
        }
        // The current version opens.
        disk.write_page(WAL_MASTER_PAGE, &good).unwrap();
        assert!(Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).is_ok());
    }

    /// Every disk page after a fixed script, and the byte and record
    /// counters: a change to how records are framed or encoded must leave
    /// all three as they were. The script's last commit edits part of a
    /// page first logged after the checkpoint, so it pins the delta
    /// encoding as well as the full image.
    #[test]
    fn log_pages_of_a_fixed_script_are_unchanged() {
        let (disk, pool, wal) = setup(16);
        for round in 0..3u8 {
            for i in 0..3 {
                fill_page(&pool, round * 16 + i);
            }
            commit(&wal, &pool);
            wal.log_ddl(ONE_TABLE).unwrap();
            commit(&wal, &pool);
        }
        wal.checkpoint(&pool, ONE_TABLE).unwrap();
        let edited = fill_page(&pool, 0xAB);
        commit(&wal, &pool);
        pool.fetch(edited).unwrap().write()[100..140].fill(0xCD);
        commit(&wal, &pool);
        let mut pages = Vec::new();
        let mut buf = [0u8; PAGE_SIZE];
        for id in 0..disk.page_count() {
            if disk.read_page(id, &mut buf).is_ok() {
                pages.extend_from_slice(&id.to_le_bytes());
                pages.extend_from_slice(&buf);
            }
        }
        let stats = wal.stats();
        let got = (crc32(&pages), stats.records_written, stats.bytes_written);
        assert_eq!(got, (2_863_634_162, 23, 41_744));
    }

    #[test]
    fn records_straddle_log_pages() {
        // Fresh pages log full images, each record > one log page of
        // payload, so every commit exercises the chain-growing path.
        let (disk, pool, wal) = setup(16);
        let ids: Vec<PageId> = (0..10u8).map(|i| fill_page(&pool, i + 1)).collect();
        commit(&wal, &pool);
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.replayed_records, 10);
        for (i, id) in ids.iter().enumerate() {
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(*id, &mut buf).unwrap();
            assert_eq!(buf[500], i as u8 + 1, "page {id}");
        }
    }

    #[test]
    fn replay_skips_pages_with_newer_lsn() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x10);
        commit(&wal, &pool);
        // Hand-advance the on-disk page to a far-future LSN with different
        // bytes: replay must leave it alone.
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut buf).unwrap();
        buf[0] = 0x99;
        set_page_lsn(&mut buf, u64::MAX / 2);
        disk.write_page(a, &buf).unwrap();
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.replayed_records, 0);
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 0x99, "newer page must not be overwritten");
    }

    /// Bytes a one-page commit logs besides its page record's payload: two
    /// 8-byte frame headers and the 9-byte commit record.
    const FRAMING: u64 = 8 + 8 + 9;
    /// A page record's payload before its ranges: kind, lsn, page, base.
    const PAGE_RECORD_HEAD: u64 = 1 + 3 * 8;

    fn row(i: i64) -> evopt_common::Tuple {
        evopt_common::Tuple::new(vec![
            evopt_common::Value::Int(i),
            evopt_common::Value::Str(format!("row-{i}")),
        ])
    }

    /// Commit, returning `(records, bytes)` the commit logged.
    fn logged(wal: &Wal, pool: &BufferPool) -> (u64, u64) {
        let before = wal.stats();
        commit(wal, pool);
        let after = wal.stats();
        (
            after.records_written - before.records_written,
            after.bytes_written - before.bytes_written,
        )
    }

    #[test]
    fn a_page_logs_whole_on_first_touch_after_a_checkpoint_then_deltas() {
        let (disk, pool, wal) = setup(16);
        let heap = crate::heap::HeapFile::create(Arc::clone(&pool)).unwrap();
        heap.insert(&row(0)).unwrap();
        let full = FRAMING + PAGE_RECORD_HEAD + FULL_IMAGE_LEN as u64;
        assert_eq!(logged(&wal, &pool), (2, full), "a fresh page logs whole");
        heap.insert(&row(1)).unwrap();
        let (records, bytes) = logged(&wal, &pool);
        assert_eq!(records, 2, "one record per dirtied page plus the commit");
        assert!(
            bytes - FRAMING < 256,
            "a one-row insert logged {bytes} bytes"
        );

        wal.checkpoint(&pool, &[]).unwrap();
        heap.insert(&row(2)).unwrap();
        let after_checkpoint = logged(&wal, &pool);
        assert_eq!(
            after_checkpoint,
            (2, full),
            "first touch after a checkpoint"
        );
        heap.insert(&row(3)).unwrap();
        let (records, bytes) = logged(&wal, &pool);
        assert_eq!(records, 2);
        let payload = bytes - FRAMING;
        assert!(
            payload < 256,
            "a one-row insert's page record is {payload} bytes"
        );

        // A page allocated inside the statement logs whole beside the
        // existing page's delta: still one record per page.
        heap.insert(&row(4)).unwrap();
        let fresh = fill_page(&pool, 0x3C);
        let (records, bytes) = logged(&wal, &pool);
        assert_eq!(records, 3);
        let delta = bytes - full - 8;
        assert!(delta < 256, "delta beside a full image: {delta}");
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(
            info.replayed_records, 4,
            "a full image, two deltas, a full image"
        );
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(fresh, &mut buf).unwrap();
        assert_eq!(buf[17], 0x3C);
    }

    #[test]
    fn torn_data_page_is_repaired_by_the_delta_chain_from_its_old_trailer() {
        use crate::fault::{FaultConfig, FaultInjector};
        let injector = Arc::new(FaultInjector::new(
            Arc::new(DiskManager::new()),
            FaultConfig {
                seed: 7,
                torn_write: 1.0,
                ..FaultConfig::default()
            },
        ));
        injector.set_enabled(false);
        let disk = Arc::clone(&injector) as Arc<dyn DiskBackend>;
        let wal = Wal::create(Arc::clone(&disk)).unwrap();
        let pool = BufferPool::new(Arc::clone(&disk), 16);
        pool.set_flush_gate(Arc::clone(&wal) as Arc<dyn FlushGate>)
            .unwrap();
        let heap = crate::heap::HeapFile::create(Arc::clone(&pool)).unwrap();
        heap.insert(&row(0)).unwrap();
        commit(&wal, &pool);
        wal.checkpoint(&pool, &[]).unwrap();
        let page = heap.first_page();

        // A full image (first touch after the checkpoint), flushed clean;
        // then two deltas, their page flushed torn.
        heap.insert(&row(1)).unwrap();
        let full = logged(&wal, &pool).1;
        assert_eq!(full, FRAMING + PAGE_RECORD_HEAD + FULL_IMAGE_LEN as u64);
        pool.flush_all().unwrap();
        let mut clean = [0u8; PAGE_SIZE];
        injector.inner().read_page(page, &mut clean).unwrap();
        for i in 2..4 {
            heap.insert(&row(i)).unwrap();
            assert!(logged(&wal, &pool).1 < full / 8, "row {i} logs a delta");
        }
        let committed = *pool.fetch(page).unwrap().read();
        injector.set_enabled(true);
        pool.flush_all().unwrap();
        injector.set_enabled(false);
        let mut torn = [0u8; PAGE_SIZE];
        injector.inner().read_page(page, &mut torn).unwrap();
        assert_eq!(injector.report().torn_writes, 1);
        assert_ne!(torn, committed, "the flush tore");
        assert_ne!(torn, clean, "the tear kept a new prefix");
        assert_eq!(page_lsn(&torn), page_lsn(&clean), "the trailer is old");

        drop((heap, pool, wal));
        let (_w, info) = Wal::open(Arc::clone(injector.inner())).unwrap();
        assert_eq!(info.replayed_records, 2, "both deltas, over the torn page");
        let mut recovered = [0u8; PAGE_SIZE];
        injector.inner().read_page(page, &mut recovered).unwrap();
        assert_eq!(recovered, committed);
    }

    #[test]
    fn a_delta_over_a_page_at_another_lsn_is_corruption() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x21);
        commit(&wal, &pool);
        pool.flush_all().unwrap();
        let mut on_disk = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut on_disk).unwrap();
        let base = page_lsn(&on_disk);
        pool.fetch(a).unwrap().write()[300] = 0x22;
        commit(&wal, &pool);
        let lsn = page_lsn(&pool.fetch(a).unwrap().read());
        assert!(lsn > base + 1, "room for an LSN between");
        // The page on disk claims an LSN no record left it at.
        set_page_lsn(&mut on_disk, base + 1);
        disk.write_page(a, &on_disk).unwrap();
        drop(pool);
        let err = match Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>) {
            Ok(_) => panic!("a delta applied over the wrong page"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "corruption", "{err}");
        // The on-disk page was left as it was.
        let mut after = [0u8; PAGE_SIZE];
        disk.read_page(a, &mut after).unwrap();
        assert_eq!(after, on_disk);
    }
}
