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
//! 8   u32 format version   (2)
//! 12  u32 reserved         (0)
//! 16  u64 scan_start       first log page of the current chain
//! 24  u64 checkpoint_lsn   LSN of the last completed checkpoint (not read)
//! 32  u64 next_lsn hint    (advisory; recovery recomputes from the scan)
//! 40  u32 crc32            over bytes [0, 40)
//! ```
//!
//! A version-1 log logged each DDL as a delta record; its master is
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
//! Three kinds of record exist: a page image (redo), a commit, and a
//! *catalog image*. Every DDL statement logs the whole catalog version it
//! published as one catalog record, and a checkpoint logs the same image
//! under its own kind, which is also a commit point. Replay keeps the last
//! committed image it passes.
//!
//! `payload_len == 0` marks the clean end of the log (fresh pages are
//! zeroed). A record whose CRC mismatches, whose LSN does not increase, or
//! that runs past the end of the chain is a **torn tail**: the scan stops
//! and everything from the last commit/checkpoint record onward is
//! truncated — torn records are never replayed.
//!
//! # Redo-only, no-steal
//!
//! Commit captures a full image of every page the statement dirtied
//! (stamping the page LSN trailer), appends the images plus a commit
//! record, flushes the log tail and syncs. There are no undo records
//! because uncommitted dirty pages never reach disk: the WAL registers
//! itself as the pool's [`FlushGate`] and vetoes flushing any page whose
//! image is not yet on the log (the *unlogged set*). Recovery therefore
//! only ever redoes committed work, idempotently — a redo record is
//! skipped when the on-disk page's LSN trailer is already ≥ the record's.
//!
//! # Group commit
//!
//! Under the multi-session engine, commits split in two:
//! [`Wal::commit_grouped`] appends the statement's page images plus a
//! commit record to the in-memory log tail (moving the pages from the
//! *unlogged* gate to a second *unsynced* gate — no-steal holds throughout)
//! and returns the commit LSN; [`Wal::sync_through`] makes the log durable
//! through that LSN. The sync early-returns when a sibling session's sync
//! already covered the LSN — adjacent commits share one physical sync,
//! which is the group-commit win. [`Wal::commit`] composes the two for the
//! single-caller case.
//!
//! # Checkpoints
//!
//! [`Wal::checkpoint`] bounds recovery work: flush all committed dirty
//! pages, seal the current chain, write a checkpoint record (carrying a
//! full catalog image) at the head of a fresh chain, atomically switch the
//! master page to it, then release the old chain. A crash at any point
//! leaves the master naming either the old or the new chain — both scans
//! converge, because replay is idempotent.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evopt_common::{lockorder, DataType, EvoptError, Result};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, FlushGate};
use crate::checksum::crc32;
use crate::disk::DiskBackend;
use crate::page::{page_lsn, PageData, PageId, PAGE_SIZE};

/// WAL sequence number. Strictly increasing across records; 0 = "never
/// logged" in page trailers.
pub type Lsn = u64;

/// The master page's fixed location.
pub const WAL_MASTER_PAGE: PageId = 0;

const MASTER_MAGIC: u64 = 0x6576_6f70_7477_616c; // "evoptwal"
const MASTER_VERSION: u32 = 2;
const MASTER_LEN: usize = 44;

/// "No next log page" sentinel in the chain header (page 0 is the master,
/// so a zeroed fresh page unambiguously ends the chain).
const NO_NEXT: PageId = 0;
const LOG_PAGE_HDR: usize = 8;
const LOG_PAGE_PAYLOAD: usize = PAGE_SIZE - LOG_PAGE_HDR;

/// Upper bound on a record payload; a scanned length beyond this is
/// garbage (torn tail), not a record.
const MAX_RECORD_BYTES: usize = 16 << 20;

/// Attempts per physical WAL page op before a fault is declared permanent
/// (mirrors the buffer pool's bounded retry).
const WAL_RETRY_LIMIT: u32 = 3;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// The catalog version a DDL statement published.
const KIND_CATALOG: u8 = 3;
const KIND_CHECKPOINT: u8 = 6;

/// One column of a logged table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnImage {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

/// One secondary index of a logged table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexImage {
    pub name: String,
    /// Column ordinal in the owning table's schema.
    pub column: u32,
    pub unique: bool,
    pub clustered: bool,
    /// The B+-tree's meta page — its stable identity on disk.
    pub meta_page: PageId,
}

/// One logged table: schema plus the storage roots recovery reopens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableImage {
    pub name: String,
    pub columns: Vec<ColumnImage>,
    /// First page of the heap-file chain.
    pub first_page: PageId,
    pub indexes: Vec<IndexImage>,
}

/// Everything recovery needs to rebuild the in-memory catalog: the logical
/// schema plus storage roots. Statistics are *not* carried — they are
/// advisory, and a recovered database re-ANALYZEs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CatalogImage {
    pub tables: Vec<TableImage>,
}

/// A parsed log record.
#[derive(Debug, Clone)]
enum WalRecord {
    /// Full after-image of a data page, applied during redo.
    PageImage {
        lsn: Lsn,
        page: PageId,
        image: Box<PageData>,
    },
    /// Everything logged since the previous commit record is durable.
    Commit { lsn: Lsn },
    /// The full catalog a DDL statement published, or a checkpoint's
    /// (`checkpoint`: also a commit point).
    Catalog {
        lsn: Lsn,
        catalog: CatalogImage,
        checkpoint: bool,
    },
}

impl WalRecord {
    fn lsn(&self) -> Lsn {
        match self {
            WalRecord::PageImage { lsn, .. }
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
    /// The catalog as of the last committed record.
    pub catalog: CatalogImage,
    /// Records scanned with a valid CRC (committed or not).
    pub scanned_records: u64,
    /// Page images actually written back (LSN test passed).
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

/// The write-ahead log. One per database; shared via `Arc` so it can also
/// serve as the pool's [`FlushGate`].
pub struct Wal {
    disk: Arc<dyn DiskBackend>,
    state: Mutex<WalState>,
    /// Dirty pages whose redo image is not yet on the log. The flush gate:
    /// these may not reach disk (no-steal).
    unlogged: Mutex<HashSet<PageId>>,
    /// Dirty pages whose redo image is appended but not yet durably synced
    /// (keyed by image LSN). The second half of the gate: grouped commits
    /// park pages here until some session's sync covers them.
    unsynced: Mutex<HashMap<PageId, Lsn>>,
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
    fn on_dirty(&self, id: PageId) {
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        self.unlogged.lock().insert(id);
    }

    fn can_flush(&self, id: PageId) -> bool {
        {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            if self.unlogged.lock().contains(&id) {
                return false;
            }
        }
        let _r = lockorder::acquire(lockorder::WAL_UNSYNCED);
        !self.unsynced.lock().contains_key(&id)
    }
}

impl Wal {
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
        let wal = Wal {
            disk,
            state: Mutex::new(WalState {
                scan_start: first,
                next_lsn: 1,
                tail_page: first,
                tail_buf: Box::new([0u8; PAGE_SIZE]),
                tail_used: 0,
                pending: 0,
                last_commit_lsn: 0,
                poisoned: None,
            }),
            unlogged: Mutex::new(HashSet::new()),
            unsynced: Mutex::new(HashMap::new()),
            synced_lsn: AtomicU64::new(0),
            coalesced_syncs: AtomicU64::new(0),
            sync_wait_us: evopt_obs::Histogram::new(evopt_obs::WAIT_BUCKETS_US),
            records_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
        };
        // `wal` is exclusively owned here — no lock needed; the initial
        // master mirrors the state constructed above.
        wal.write_page_verified(first, &[0u8; PAGE_SIZE])?;
        wal.write_master(first, 0, 1)?;
        wal.sync_retry()?;
        Ok(Arc::new(wal))
    }

    /// Open an existing WAL and run crash recovery: scan the log from the
    /// master's chain, truncate the torn/uncommitted tail, and replay the
    /// committed page images idempotently. Returns the WAL positioned for
    /// new appends plus what recovery found.
    pub fn open(disk: Arc<dyn DiskBackend>) -> Result<(Arc<Wal>, RecoveryInfo)> {
        let scan_start = Self::read_master(&disk)?;

        // Scan: collect CRC-valid, LSN-increasing records and the stream
        // position after each one.
        let mut records: Vec<(WalRecord, (PageId, usize))> = Vec::new();
        let mut torn_tail = false;
        let mut cursor = LogCursor::load(&disk, scan_start)?;
        let mut last_lsn: Lsn = 0;
        loop {
            let mut len_bytes = [0u8; 4];
            match cursor.read_exact(&mut len_bytes)? {
                Some(()) => {}
                None => break, // chain ended mid-frame: torn
            }
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len == 0 {
                break; // clean end-of-log marker
            }
            if len > MAX_RECORD_BYTES {
                torn_tail = true;
                break;
            }
            let mut crc_bytes = [0u8; 4];
            if cursor.read_exact(&mut crc_bytes)?.is_none() {
                torn_tail = true;
                break;
            }
            let mut payload = vec![0u8; len];
            if cursor.read_exact(&mut payload)?.is_none() {
                torn_tail = true;
                break;
            }
            if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
                torn_tail = true;
                break;
            }
            let Some(record) = parse_record(&payload) else {
                torn_tail = true;
                break;
            };
            if record.lsn() <= last_lsn {
                // Stale bytes from an earlier chain incarnation.
                torn_tail = true;
                break;
            }
            last_lsn = record.lsn();
            records.push((record, cursor.pos()));
        }
        // Reached on damage (torn_tail), on the end-of-log marker, or when
        // the chain ended exactly on a frame boundary with no room for an
        // end marker — which is a clean end too.
        Self::finish_open(disk, records, last_lsn, scan_start, torn_tail)
    }

    fn finish_open(
        disk: Arc<dyn DiskBackend>,
        mut records: Vec<(WalRecord, (PageId, usize))>,
        max_lsn: Lsn,
        scan_start: PageId,
        torn_tail: bool,
    ) -> Result<(Arc<Wal>, RecoveryInfo)> {
        // The durable prefix ends at the last commit point; everything
        // after it was never acknowledged and is truncated.
        let committed_len = records
            .iter()
            .rposition(|(r, _)| r.is_commit_point())
            .map(|i| i + 1)
            .unwrap_or(0);
        let scanned_records = records.len() as u64;
        let discarded_records = (records.len() - committed_len) as u64;
        let (tail_page, tail_used) = records
            .get(committed_len.checked_sub(1).unwrap_or(usize::MAX))
            .map(|(_, pos)| *pos)
            .unwrap_or((scan_start, 0));

        // Replay committed page images; the catalog is the last committed
        // image.
        let wal = Wal {
            disk,
            state: Mutex::new(WalState {
                scan_start,
                next_lsn: max_lsn + 1,
                tail_page,
                tail_buf: Box::new([0u8; PAGE_SIZE]),
                tail_used,
                pending: 0,
                // Everything recovery kept is durable on disk already.
                last_commit_lsn: max_lsn,
                poisoned: None,
            }),
            unlogged: Mutex::new(HashSet::new()),
            unsynced: Mutex::new(HashMap::new()),
            synced_lsn: AtomicU64::new(max_lsn),
            coalesced_syncs: AtomicU64::new(0),
            sync_wait_us: evopt_obs::Histogram::new(evopt_obs::WAIT_BUCKETS_US),
            records_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            recoveries: AtomicU64::new(1),
            replayed_records: AtomicU64::new(0),
        };

        let mut catalog = CatalogImage::default();
        let mut replayed = 0u64;
        records.truncate(committed_len);
        for (record, _) in records {
            match record {
                WalRecord::PageImage { lsn, page, image } => {
                    if wal.replay_page(page, lsn, &image)? {
                        replayed += 1;
                    }
                }
                WalRecord::Commit { .. } => {}
                WalRecord::Catalog { catalog: c, .. } => catalog = c,
            }
        }
        wal.replayed_records.store(replayed, Ordering::Relaxed);

        // Truncate the tail in place: reload the page holding the end of
        // the committed prefix, zero the stream after it, and cut the
        // chain so stale continuation pages are orphaned rather than
        // rescanned. Idempotent — a crash here just repeats the work.
        let (tail, used) = {
            let _rs = lockorder::acquire(lockorder::WAL_STATE);
            let state = wal.state.lock();
            (state.tail_page, state.tail_used)
        };
        // Recovery is single-threaded: the truncation I/O runs off the
        // state lock, which is retaken only to install the rebuilt tail.
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        read_page_retry(&wal.disk, tail, &mut buf)?;
        buf[..LOG_PAGE_HDR].copy_from_slice(&NO_NEXT.to_le_bytes());
        buf[LOG_PAGE_HDR + used..].fill(0);
        wal.write_page_verified(tail, &buf)?;
        {
            let _rs = lockorder::acquire(lockorder::WAL_STATE);
            wal.state.lock().tail_buf = buf;
        }
        wal.sync_retry()?;

        let info = RecoveryInfo {
            catalog,
            scanned_records,
            replayed_records: replayed,
            discarded_records,
            torn_tail,
        };
        Ok((Arc::new(wal), info))
    }

    /// Apply one redo record if the on-disk page is older. Returns whether
    /// the image was written.
    fn replay_page(&self, page: PageId, lsn: Lsn, image: &PageData) -> Result<bool> {
        let mut current = Box::new([0u8; PAGE_SIZE]);
        match read_page_retry(&self.disk, page, &mut current) {
            Ok(()) => {
                if page_lsn(&current) >= lsn {
                    return Ok(false); // already there: idempotent skip
                }
            }
            // The page was deallocated after this record was logged (a
            // later committed DROP TABLE): nothing to redo.
            Err(EvoptError::Storage(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
        self.write_page_verified(page, image)?;
        Ok(true)
    }

    /// Capture every page the last statement dirtied, append redo records
    /// plus a commit record, and make the log durable. No-op when nothing
    /// was dirtied or logged since the previous commit.
    pub fn commit(&self, pool: &BufferPool) -> Result<()> {
        match self.commit_grouped(pool)? {
            Some(lsn) => self.sync_through(lsn),
            None => Ok(()),
        }
    }

    /// First half of group commit: append the statement's page images plus
    /// a commit record to the in-memory log tail and return the commit
    /// record's LSN — **without** making it durable. The pages move from
    /// the unlogged gate to the unsynced gate, so no-steal holds until a
    /// [`Wal::sync_through`] covering the returned LSN lands.
    ///
    /// Returns `Ok(None)` only when there is nothing to commit *and* no
    /// earlier grouped commit is still awaiting durability; otherwise a
    /// pending LSN is always handed back for the caller to sync.
    pub fn commit_grouped(&self, pool: &BufferPool) -> Result<Option<Lsn>> {
        let dirty: Vec<PageId> = {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            let mut unlogged = self.unlogged.lock();
            let mut v: Vec<PageId> = unlogged.iter().copied().collect();
            unlogged.clear();
            v.sort_unstable();
            v
        };
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        if let Err(e) = state.usable() {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            self.unlogged.lock().extend(dirty.iter().copied());
            return Err(e);
        }
        if dirty.is_empty() && state.pending == 0 {
            // Nothing new — but a sibling's grouped commit may still await
            // its sync; report its LSN so `commit` callers stay durable.
            let last = state.last_commit_lsn;
            if last > self.synced_lsn.load(Ordering::SeqCst) {
                return Ok(Some(last));
            }
            return Ok(None);
        }
        match self.commit_locked(&mut state, pool, &dirty) {
            Ok(lsn) => {
                {
                    let _r = lockorder::acquire(lockorder::WAL_UNSYNCED);
                    let mut unsynced = self.unsynced.lock();
                    for &p in &dirty {
                        unsynced.insert(p, lsn);
                    }
                }
                self.commits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(lsn))
            }
            Err(e) => {
                // The statement's pages are not durably logged: re-gate
                // them so the no-steal invariant holds for a retry/crash.
                let _r = lockorder::acquire(lockorder::WAL_GATE);
                self.unlogged.lock().extend(dirty.iter().copied());
                Err(e)
            }
        }
    }

    /// Second half of group commit: make the log durable through `lsn`.
    /// Early-returns when a sibling session's physical sync already covered
    /// `lsn` — that coalescing is the group-commit win. On success every
    /// page parked behind a covered commit leaves the unsynced gate.
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
    /// horizon and release covered pages from the unsynced gate. Call with
    /// the state lock held, after a successful tail flush + sync.
    fn mark_synced(&self, state: &WalState) {
        let durable = state.next_lsn.saturating_sub(1);
        self.synced_lsn.store(durable, Ordering::SeqCst);
        let _r = lockorder::acquire(lockorder::WAL_UNSYNCED);
        self.unsynced.lock().retain(|_, l| *l > durable);
    }

    /// Append `dirty`'s images plus a commit record; returns the commit
    /// record's LSN. Does not sync.
    fn commit_locked(
        &self,
        state: &mut WalState,
        pool: &BufferPool,
        dirty: &[PageId],
    ) -> Result<Lsn> {
        for &page in dirty {
            let lsn = state.next_lsn;
            state.next_lsn += 1;
            let image = pool.stamp_lsn(page, lsn)?;
            let mut payload = Vec::with_capacity(1 + 8 + 8 + PAGE_SIZE);
            payload.push(KIND_PAGE_IMAGE);
            payload.extend_from_slice(&lsn.to_le_bytes());
            payload.extend_from_slice(&page.to_le_bytes());
            payload.extend_from_slice(&image[..]);
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

    /// Log the catalog version a DDL statement published (call before
    /// [`Wal::commit`] for the statement). Recovery keeps the last
    /// committed image, so this one record is the whole of the DDL's
    /// logical redo.
    pub fn log_ddl(&self, catalog: &CatalogImage) -> Result<()> {
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        state.usable()?;
        self.append_catalog(&mut state, KIND_CATALOG, catalog)?;
        state.pending += 1;
        Ok(())
    }

    /// Append `catalog` as one record of `kind`; returns its LSN.
    fn append_catalog(
        &self,
        state: &mut WalState,
        kind: u8,
        catalog: &CatalogImage,
    ) -> Result<Lsn> {
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        let mut payload = vec![kind];
        payload.extend_from_slice(&lsn.to_le_bytes());
        put_catalog_image(&mut payload, catalog);
        self.append_record(state, &payload)?;
        Ok(lsn)
    }

    /// Fuzzy checkpoint: make all committed state durable as data pages,
    /// then start a fresh chain headed by a checkpoint record carrying
    /// `catalog`, switch the master to it, and release the old chain.
    ///
    /// Must run between statements (no uncommitted changes pending).
    pub fn checkpoint(&self, pool: &BufferPool, catalog: &CatalogImage) -> Result<()> {
        let _rs = lockorder::acquire(lockorder::WAL_STATE);
        let mut state = self.state.lock();
        state.usable()?;
        {
            let _r = lockorder::acquire(lockorder::WAL_GATE);
            if state.pending > 0 || !self.unlogged.lock().is_empty() {
                return Err(EvoptError::Internal(
                    "checkpoint with uncommitted changes pending".into(),
                ));
            }
        }

        // 0. Drain any grouped commits still awaiting durability, emptying
        //    the unsynced gate so flush_all below can pass every page.
        if state.last_commit_lsn > self.synced_lsn.load(Ordering::SeqCst) {
            self.flush_tail_and_sync(&mut state)?;
            self.mark_synced(&state);
        }

        // 1. All committed dirty pages reach disk (the gates pass them —
        //    both gate sets are empty) and become durable.
        pool.flush_all()?;
        self.sync_retry()?;

        // 2. Seal the current chain: link it to a fresh page and persist
        //    the old tail, then move appends to the fresh page.
        let cp_page = self.disk.allocate_page();
        state.tail_buf[..LOG_PAGE_HDR].copy_from_slice(&cp_page.to_le_bytes());
        self.write_page_verified(state.tail_page, &state.tail_buf)?;
        let old_start = state.scan_start;
        state.tail_page = cp_page;
        state.tail_buf.fill(0);
        state.tail_used = 0;

        // 3. The checkpoint record itself, durably.
        state.last_commit_lsn = self.append_catalog(&mut state, KIND_CHECKPOINT, catalog)?;
        self.flush_tail_and_sync(&mut state)?;
        self.mark_synced(&state);

        // 4. Atomic master switch: after this, recovery scans from the
        //    checkpoint record. Before it, recovery scans the old chain —
        //    which now *ends* at this same checkpoint record, so both
        //    sides of the switch converge.
        state.scan_start = cp_page;
        self.write_master(cp_page, state.last_commit_lsn, state.next_lsn)?;
        self.sync_retry()?;

        // 5. Release the old chain (everything strictly before cp_page).
        let mut id = old_start;
        let bound = self.disk.page_count();
        let mut hops = 0u64;
        while id != cp_page && id != NO_NEXT && hops <= bound {
            hops += 1;
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            if read_page_retry(&self.disk, id, &mut buf).is_err() {
                break; // unreadable old chain: leak it, stay correct
            }
            let next = PageId::from_le_bytes([
                buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7],
            ]);
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
        let _r = lockorder::acquire(lockorder::WAL_GATE);
        self.unlogged.lock().len()
    }

    /// Number of pages appended to the log but still awaiting a sync.
    pub fn unsynced_pages(&self) -> usize {
        let _r = lockorder::acquire(lockorder::WAL_UNSYNCED);
        self.unsynced.lock().len()
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
                self.write_page_verified(state.tail_page, &state.tail_buf)?;
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

    fn flush_tail_and_sync(&self, state: &mut WalState) -> Result<()> {
        self.write_page_verified(state.tail_page, &state.tail_buf)?;
        self.sync_retry()
    }

    /// Write a page directly (bypassing the pool) and read it back to
    /// verify — bounded retry heals the injector's transient errors, torn
    /// writes and bit flips on the log path, which carries no page
    /// checksums of its own.
    fn write_page_verified(&self, id: PageId, buf: &PageData) -> Result<()> {
        let mut last_err = EvoptError::Io(format!("write of wal page {id} never attempted"));
        for _ in 0..=WAL_RETRY_LIMIT {
            match self.disk.write_page(id, buf) {
                Ok(()) => {
                    let mut back = Box::new([0u8; PAGE_SIZE]);
                    match self.disk.read_page(id, &mut back) {
                        Ok(()) if *back == *buf => return Ok(()),
                        Ok(()) => {
                            last_err = EvoptError::Io(format!(
                                "wal page {id} read back different bytes (torn write)"
                            ));
                        }
                        Err(e) => last_err = e,
                    }
                }
                Err(e @ EvoptError::Io(_)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// `sync` with bounded retry (the injector's sync faults are
    /// transient and heal on the next attempt).
    fn sync_retry(&self) -> Result<()> {
        let mut last_err = EvoptError::Io("sync never attempted".into());
        for _ in 0..=WAL_RETRY_LIMIT {
            match self.disk.sync() {
                Ok(()) => return Ok(()),
                Err(e @ EvoptError::Io(_)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
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
        self.write_page_verified(WAL_MASTER_PAGE, &buf)
    }

    /// Read and validate the master page; returns `scan_start`.
    fn read_master(disk: &Arc<dyn DiskBackend>) -> Result<PageId> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        read_page_retry(disk, WAL_MASTER_PAGE, &mut buf)?;
        let magic = u64::from_le_bytes([
            buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7],
        ]);
        if magic != MASTER_MAGIC {
            return Err(EvoptError::Corruption(format!(
                "wal master page has bad magic {magic:#018x}"
            )));
        }
        let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        if version != MASTER_VERSION {
            return Err(EvoptError::Corruption(format!(
                "wal master page has unsupported version {version}"
            )));
        }
        let stored_crc = u32::from_le_bytes([
            buf[MASTER_LEN - 4],
            buf[MASTER_LEN - 3],
            buf[MASTER_LEN - 2],
            buf[MASTER_LEN - 1],
        ]);
        if crc32(&buf[..MASTER_LEN - 4]) != stored_crc {
            return Err(EvoptError::Corruption(
                "wal master page failed checksum verification".into(),
            ));
        }
        Ok(u64::from_le_bytes([
            buf[16], buf[17], buf[18], buf[19], buf[20], buf[21], buf[22], buf[23],
        ]))
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
        read_page_retry(disk, page, &mut buf)?;
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
                let next = PageId::from_le_bytes([
                    self.buf[0],
                    self.buf[1],
                    self.buf[2],
                    self.buf[3],
                    self.buf[4],
                    self.buf[5],
                    self.buf[6],
                    self.buf[7],
                ]);
                if next == NO_NEXT {
                    return Ok(None);
                }
                read_page_retry(self.disk, next, &mut self.buf)?;
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

fn read_page_retry(disk: &Arc<dyn DiskBackend>, id: PageId, buf: &mut PageData) -> Result<()> {
    let mut last_err = EvoptError::Io(format!("read of wal page {id} never attempted"));
    for _ in 0..=WAL_RETRY_LIMIT {
        match disk.read_page(id, buf) {
            Ok(()) => return Ok(()),
            Err(e @ EvoptError::Io(_)) => last_err = e,
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

// ---- record body (de)serialisation --------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_index_image(out: &mut Vec<u8>, idx: &IndexImage) {
    put_str(out, &idx.name);
    out.extend_from_slice(&idx.column.to_le_bytes());
    out.push(idx.unique as u8);
    out.push(idx.clustered as u8);
    out.extend_from_slice(&idx.meta_page.to_le_bytes());
}

fn put_table_image(out: &mut Vec<u8>, t: &TableImage) {
    put_str(out, &t.name);
    out.extend_from_slice(&(t.columns.len() as u32).to_le_bytes());
    for c in &t.columns {
        put_str(out, &c.name);
        out.push(match c.dtype {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
        });
        out.push(c.nullable as u8);
    }
    out.extend_from_slice(&t.first_page.to_le_bytes());
    out.extend_from_slice(&(t.indexes.len() as u32).to_le_bytes());
    for idx in &t.indexes {
        put_index_image(out, idx);
    }
}

fn put_catalog_image(out: &mut Vec<u8>, c: &CatalogImage) {
    out.extend_from_slice(&(c.tables.len() as u32).to_le_bytes());
    for t in &c.tables {
        put_table_image(out, t);
    }
}

/// Bounds-checked little-endian reader over a record body.
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn get_index_image(r: &mut BodyReader<'_>) -> Option<IndexImage> {
    Some(IndexImage {
        name: r.string()?,
        column: r.u32()?,
        unique: r.u8()? != 0,
        clustered: r.u8()? != 0,
        meta_page: r.u64()?,
    })
}

fn get_table_image(r: &mut BodyReader<'_>) -> Option<TableImage> {
    let name = r.string()?;
    let ncols = r.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        let cname = r.string()?;
        let dtype = match r.u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            _ => return None,
        };
        let nullable = r.u8()? != 0;
        columns.push(ColumnImage {
            name: cname,
            dtype,
            nullable,
        });
    }
    let first_page = r.u64()?;
    let nidx = r.u32()? as usize;
    let mut indexes = Vec::with_capacity(nidx.min(1024));
    for _ in 0..nidx {
        indexes.push(get_index_image(r)?);
    }
    Some(TableImage {
        name,
        columns,
        first_page,
        indexes,
    })
}

fn get_catalog_image(r: &mut BodyReader<'_>) -> Option<CatalogImage> {
    let n = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        tables.push(get_table_image(r)?);
    }
    Some(CatalogImage { tables })
}

/// Parse a CRC-validated payload. `None` means the bytes are not a record
/// (treated as a torn tail by the scan).
fn parse_record(payload: &[u8]) -> Option<WalRecord> {
    let mut r = BodyReader::new(payload);
    let kind = r.u8()?;
    let lsn = r.u64()?;
    let rec = match kind {
        KIND_PAGE_IMAGE => {
            let page = r.u64()?;
            let bytes = r.take(PAGE_SIZE)?;
            let mut image = Box::new([0u8; PAGE_SIZE]);
            image.copy_from_slice(bytes);
            WalRecord::PageImage { lsn, page, image }
        }
        KIND_COMMIT => WalRecord::Commit { lsn },
        KIND_CATALOG | KIND_CHECKPOINT => WalRecord::Catalog {
            lsn,
            catalog: get_catalog_image(&mut r)?,
            checkpoint: kind == KIND_CHECKPOINT,
        },
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(rec)
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
        pool.set_flush_gate(Arc::clone(&wal) as Arc<dyn FlushGate>);
        (disk, pool, wal)
    }

    fn fill_page(pool: &Arc<BufferPool>, fill: u8) -> PageId {
        let g = pool.new_page().unwrap();
        for b in g.write().iter_mut() {
            *b = fill;
        }
        g.id()
    }

    /// A one-table catalog image, its single column typed `dtype`.
    fn one_table(name: &str, dtype: DataType, first_page: PageId) -> TableImage {
        TableImage {
            name: name.into(),
            columns: vec![ColumnImage {
                name: "c".into(),
                dtype,
                nullable: true,
            }],
            first_page,
            indexes: vec![],
        }
    }

    #[test]
    fn create_then_open_empty_log() {
        let (disk, _pool, wal) = setup(4);
        drop(wal);
        let (wal2, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.scanned_records, 0);
        assert_eq!(info.replayed_records, 0);
        assert!(!info.torn_tail);
        assert!(info.catalog.tables.is_empty());
        assert_eq!(wal2.stats().recoveries, 1);
    }

    #[test]
    fn committed_pages_replay_after_losing_the_pool() {
        let (disk, pool, wal) = setup(8);
        let a = fill_page(&pool, 0x11);
        let b = fill_page(&pool, 0x22);
        wal.commit(&pool).unwrap();
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
        wal.commit(&pool).unwrap();
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
        wal.commit(&pool).unwrap();
        // A logged-but-uncommitted statement: DDL record with no commit.
        let ghost = CatalogImage {
            tables: vec![one_table("ghost", DataType::Int, 3)],
        };
        wal.log_ddl(&ghost).unwrap();
        // Flush the tail so the aborted record is actually on disk.
        {
            let mut state = wal.state.lock();
            wal.flush_tail_and_sync(&mut state).unwrap();
        }
        drop(pool);
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.discarded_records, 1, "aborted DDL must be discarded");
        assert!(info.catalog.tables.is_empty(), "aborted DDL's image kept");
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
        wal.commit(&pool).unwrap();
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

    #[test]
    fn last_committed_catalog_record_wins() {
        let (disk, pool, wal) = setup(8);
        let mut users = one_table("users", DataType::Int, 7);
        users.columns.push(ColumnImage {
            name: "email".into(),
            dtype: DataType::Str,
            nullable: false,
        });
        let v1 = CatalogImage {
            tables: vec![users.clone()],
        };
        wal.log_ddl(&v1).unwrap();
        wal.commit(&pool).unwrap();
        users.indexes.push(IndexImage {
            name: "users_id".into(),
            column: 0,
            unique: true,
            clustered: false,
            meta_page: 9,
        });
        let v2 = CatalogImage {
            tables: vec![one_table("tmp", DataType::Float, 11), users],
        };
        wal.log_ddl(&v2).unwrap();
        wal.commit(&pool).unwrap();
        // A third image reaches the disk, but its statement never commits.
        wal.log_ddl(&CatalogImage::default()).unwrap();
        {
            let mut state = wal.state.lock();
            wal.flush_tail_and_sync(&mut state).unwrap();
        }
        drop(pool);

        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.catalog, v2, "the last committed image, whole");
        assert_eq!(info.discarded_records, 1, "the uncommitted image");
        // Truncated in place: the discarded image stays gone.
        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        assert_eq!(info.catalog, v2);
        assert_eq!(info.discarded_records, 0);
    }

    #[test]
    fn checkpoint_bounds_recovery_and_survives_reopen() {
        let (disk, pool, wal) = setup(8);
        let catalog = CatalogImage {
            tables: vec![one_table("t", DataType::Int, 5)],
        };
        // A few committed pages, then a checkpoint.
        for fill in 1..=4u8 {
            fill_page(&pool, fill);
            wal.commit(&pool).unwrap();
        }
        let pages_before = disk.page_count();
        wal.checkpoint(&pool, &catalog).unwrap();
        assert!(
            disk.page_count() >= pages_before,
            "ids are never reused, count only grows"
        );
        // More work after the checkpoint.
        let e = fill_page(&pool, 0xEE);
        wal.commit(&pool).unwrap();
        drop(pool);

        let (_w, info) = Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).unwrap();
        // Scan starts at the checkpoint: it sees the checkpoint record and
        // the one commit after it, not the four earlier commits.
        assert!(
            info.scanned_records <= 3,
            "checkpoint must bound the scan, saw {}",
            info.scanned_records
        );
        assert_eq!(info.catalog.tables[0].name, "t");
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(e, &mut buf).unwrap();
        assert_eq!(buf[50], 0xEE, "post-checkpoint commit replayed");
    }

    #[test]
    fn commit_is_a_noop_without_changes() {
        let (_disk, pool, wal) = setup(4);
        let before = wal.stats();
        wal.commit(&pool).unwrap();
        wal.commit(&pool).unwrap();
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
        wal.commit(&pool).unwrap();
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
        wal.commit(&pool).unwrap();
        assert_eq!(wal.unsynced_pages(), 0);
        assert!(wal.synced_lsn() >= l1);
    }

    #[test]
    fn checkpoint_drains_unsynced_gate_first() {
        let (_disk, pool, wal) = setup(8);
        fill_page(&pool, 0x91);
        wal.commit_grouped(&pool).unwrap().unwrap();
        assert_eq!(wal.unsynced_pages(), 1);
        wal.checkpoint(&pool, &CatalogImage::default()).unwrap();
        assert_eq!(wal.unsynced_pages(), 0);
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
        // A version-1 master (a log with per-DDL records) is refused even
        // with a valid checksum, rather than scanned as a torn tail.
        let mut v1 = good;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1[..MASTER_LEN - 4]);
        v1[MASTER_LEN - 4..MASTER_LEN].copy_from_slice(&crc.to_le_bytes());
        let err = open_err(&v1);
        assert_eq!(err.kind(), "corruption");
        assert!(err.message().contains("version 1"), "{err}");
        // The current version opens.
        disk.write_page(WAL_MASTER_PAGE, &good).unwrap();
        assert!(Wal::open(Arc::clone(&disk) as Arc<dyn DiskBackend>).is_ok());
    }

    /// Every disk page after a fixed script, and the byte and record
    /// counters: a change to how records are framed must leave all three
    /// as they were.
    #[test]
    fn log_pages_of_a_fixed_script_are_unchanged() {
        let (disk, pool, wal) = setup(16);
        let catalog = CatalogImage {
            tables: vec![one_table("t", DataType::Int, 1)],
        };
        for round in 0..3u8 {
            for i in 0..3 {
                fill_page(&pool, round * 16 + i);
            }
            wal.commit(&pool).unwrap();
            wal.log_ddl(&catalog).unwrap();
            wal.commit(&pool).unwrap();
        }
        wal.checkpoint(&pool, &catalog).unwrap();
        fill_page(&pool, 0xAB);
        wal.commit(&pool).unwrap();
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
        assert_eq!(got, (2_857_087_497, 21, 41_525));
    }

    #[test]
    fn records_straddle_log_pages() {
        // Each page image record is > one log page of payload, so every
        // commit exercises the chain-growing path.
        let (disk, pool, wal) = setup(16);
        let ids: Vec<PageId> = (0..10u8).map(|i| fill_page(&pool, i + 1)).collect();
        wal.commit(&pool).unwrap();
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
        wal.commit(&pool).unwrap();
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

    #[test]
    fn catalog_image_roundtrips_through_bytes() {
        let img = CatalogImage {
            tables: vec![
                TableImage {
                    name: "α-table".into(),
                    columns: vec![ColumnImage {
                        name: "k".into(),
                        dtype: DataType::Bool,
                        nullable: false,
                    }],
                    first_page: 3,
                    indexes: vec![IndexImage {
                        name: "i1".into(),
                        column: 0,
                        unique: false,
                        clustered: true,
                        meta_page: 12,
                    }],
                },
                TableImage {
                    name: "empty".into(),
                    columns: vec![],
                    first_page: 99,
                    indexes: vec![],
                },
            ],
        };
        let mut bytes = Vec::new();
        put_catalog_image(&mut bytes, &img);
        let mut r = BodyReader::new(&bytes);
        let back = get_catalog_image(&mut r).unwrap();
        assert!(r.done());
        assert_eq!(back, img);
    }
}
