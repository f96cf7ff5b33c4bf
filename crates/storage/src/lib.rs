//! # evopt-storage
//!
//! The paged storage engine beneath the `evopt` query engine.
//!
//! The 1977-era optimization problem is fundamentally about **page
//! fetches**: the cost model predicts how many pages a plan touches, and the
//! whole point of this crate is to make those predictions *checkable*. Every
//! component therefore accounts for its I/O:
//!
//! * [`disk::DiskManager`] — a simulated disk (in-memory page array) that
//!   counts physical reads/writes. Substitutes for 1977 spinning rust; the
//!   optimization problem is invariant to the absolute latency constant
//!   (see DESIGN.md §5).
//! * [`page`] — 4 KiB slotted pages storing variable-length records.
//! * [`buffer::BufferPool`] — a pin-counted frame cache over the disk with
//!   scan-resistant two-segment replacement (probation and protected).
//!   Cache hits cost no physical I/O, so measured I/O depends on pool size —
//!   exactly the effect `tests/plan_regret.rs` checks across its two pools.
//! * [`heap::HeapFile`] — unordered tuple storage, the base for every table.
//! * [`btree::BTreeIndex`] — a paged B+-tree mapping single-column keys to
//!   [`page::Rid`]s, supporting duplicates, equality and range scans; its
//!   height feeds the optimizer's index-probe cost.

//! * [`fault::FaultInjector`] — a deterministic fault-injecting
//!   [`disk::DiskBackend`] wrapper (I/O errors, torn writes, bit flips)
//!   used by the chaos suite; page CRC-32 checksums ([`checksum`]) stamped
//!   and verified by the buffer pool turn silent corruption into typed
//!   `Corruption` errors.
//! * [`wal::Wal`] — a redo-only write-ahead log (the bytes each commit
//!   changed per page, a full image on a page's first change after a
//!   checkpoint; CRC-32 per record, torn-tail truncation) with fuzzy
//!   checkpoints and idempotent crash recovery; it enforces
//!   log-before-data through the pool's [`buffer::FlushGate`]. A catalog
//!   version is logged as opaque bytes the catalog crate writes and reads:
//!   this crate frames them and hands the last committed ones back, and
//!   knows nothing of tables or SQL types. [`fault::CrashingBackend`]
//!   models process death for the crash-point torture suite.

// Library code must not panic on fault paths: unwrap/expect are banned
// outside tests (each test module opts back in locally).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod btree;
pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod page;
pub mod wal;

pub use btree::BTreeIndex;
pub use buffer::{BufferPool, FlushGate, PoolSnapshot};
pub use checksum::crc32;
pub use disk::{DiskBackend, DiskManager, IoSnapshot};
pub use fault::{CrashingBackend, FaultConfig, FaultInjector, FaultReport};
pub use heap::HeapFile;
pub use page::{PageId, Rid, INVALID_PAGE_ID, PAGE_SIZE, USABLE_PAGE_BYTES, USABLE_PAGE_SIZE};
pub use wal::{Lsn, RecoveryInfo, Wal, WalStats};
