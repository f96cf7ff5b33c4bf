//! Slotted pages.
//!
//! Every page is [`PAGE_SIZE`] bytes. A slotted page stores variable-length
//! records with this layout:
//!
//! ```text
//! offset 0   [u16] slot count
//! offset 2   [u16] free-space pointer (data grows down from USABLE_PAGE_SIZE)
//! offset 4   [u64] next page id (heap-file chaining; INVALID_PAGE_ID = none)
//! offset 12  slot array, 4 bytes each: [u16 record offset][u16 record len]
//! ...        free space
//! free_ptr.. record data, packed towards the end of the page
//! ```
//!
//! A deleted record's slot keeps its index (so [`Rid`]s of other records stay
//! stable) with offset = `DEAD_SLOT`.
//!
//! The last eight bytes of *every* page are reserved for the page LSN
//! trailer (see [`page_lsn`]): the WAL sequence number of the last logged
//! write that covered this page. Recovery replays a redo record only when
//! the on-disk page's LSN is older, which makes replay idempotent. Page
//! payloads therefore end at [`USABLE_PAGE_SIZE`], not [`PAGE_SIZE`].

use evopt_common::{EvoptError, Result};

/// Size of every page, in bytes. 4 KiB mirrors the classic DBMS setting and
/// gives ~60 Wisconsin-style tuples per page.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of a page the cost model and the operators' memory grants count
/// as holding rows: the page less its slotted-page header (4 084).
pub const USABLE_PAGE_BYTES: usize = PAGE_SIZE - HEADER_SIZE;

/// Byte offset of the 8-byte page LSN trailer (little-endian u64 in the
/// last eight bytes of the page).
pub const PAGE_LSN_OFFSET: usize = PAGE_SIZE - 8;

/// Bytes usable by page payloads: everything before the LSN trailer.
pub const USABLE_PAGE_SIZE: usize = PAGE_LSN_OFFSET;

/// Identifies a page on the disk.
pub type PageId = u64;

/// Sentinel for "no page".
pub const INVALID_PAGE_ID: PageId = u64::MAX;

/// Raw page bytes.
pub type PageData = [u8; PAGE_SIZE];

/// Read the page LSN trailer: sequence number of the last WAL record that
/// covered this page (0 = never logged; fresh pages are zeroed).
pub fn page_lsn(data: &PageData) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&data[PAGE_LSN_OFFSET..]);
    u64::from_le_bytes(bytes)
}

/// Stamp the page LSN trailer. Called by the WAL at commit, just before the
/// page's changed bytes are captured into a redo record.
pub fn set_page_lsn(data: &mut PageData, lsn: u64) {
    data[PAGE_LSN_OFFSET..].copy_from_slice(&lsn.to_le_bytes());
}

/// Bytes of a logged range's header: `u16 offset | u16 len`.
const RANGE_HDR: usize = 4;

/// Equal bytes a range spans rather than end there and start another: a
/// range header costs four bytes, and fewer ranges diff and apply faster.
const RANGE_MERGE_GAP: usize = 8;

/// The encoded size of a full image: one range covering the page.
pub(crate) const FULL_IMAGE_LEN: usize = RANGE_HDR + PAGE_SIZE;

fn put_range(out: &mut Vec<u8>, off: usize, bytes: &[u8]) {
    out.extend_from_slice(&(off as u16).to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Append `page` whole, as the one range `[0, PAGE_SIZE)`.
pub(crate) fn put_full_image(page: &PageData, out: &mut Vec<u8>) {
    put_range(out, 0, page);
}

/// Whether encoded `ranges` are a full image (they replace the page).
pub(crate) fn is_full_image(ranges: &[u8]) -> bool {
    let [lo, hi] = (PAGE_SIZE as u16).to_le_bytes();
    ranges.len() == FULL_IMAGE_LEN && ranges[..RANGE_HDR] == [0, 0, lo, hi]
}

/// Offset of the first byte at or after `from` where `a` and `b` differ,
/// compared eight bytes at a time.
fn first_difference(a: &PageData, b: &PageData, from: usize) -> Option<usize> {
    let mut i = from;
    while i + 8 <= PAGE_SIZE {
        let word = |p: &PageData| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&p[i..i + 8]);
            u64::from_le_bytes(w)
        };
        let x = word(a) ^ word(b);
        if x != 0 {
            return Some(i + x.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    (i..PAGE_SIZE).find(|&k| a[k] != b[k])
}

/// Append the byte ranges where `after` differs from `before` to `out`,
/// each as `u16 offset | u16 len | bytes`; ranges at most
/// `RANGE_MERGE_GAP` equal bytes apart are one range. Returns `false`, with
/// `out` partly written, once the ranges would be no smaller than a full
/// image.
pub(crate) fn put_page_delta(before: &PageData, after: &PageData, out: &mut Vec<u8>) -> bool {
    let limit = out.len() + FULL_IMAGE_LEN;
    let mut next = first_difference(before, after, 0);
    while let Some(start) = next {
        let mut end = start + 1;
        next = first_difference(before, after, end);
        while let Some(d) = next.filter(|&d| d - end <= RANGE_MERGE_GAP) {
            end = d + 1;
            next = first_difference(before, after, end);
        }
        if out.len() + RANGE_HDR + (end - start) >= limit {
            return false;
        }
        put_range(out, start, &after[start..end]);
    }
    true
}

/// Walk encoded `ranges`, calling `f(offset, bytes)` for each. `false` when
/// they are malformed: a truncated range, or one past the page's end.
pub(crate) fn for_each_range(ranges: &[u8], mut f: impl FnMut(usize, &[u8])) -> bool {
    let mut rest = ranges;
    while !rest.is_empty() {
        if rest.len() < RANGE_HDR {
            return false;
        }
        let off = usize::from(u16::from_le_bytes([rest[0], rest[1]]));
        let len = usize::from(u16::from_le_bytes([rest[2], rest[3]]));
        if off + len > PAGE_SIZE || rest.len() < RANGE_HDR + len {
            return false;
        }
        f(off, &rest[RANGE_HDR..RANGE_HDR + len]);
        rest = &rest[RANGE_HDR + len..];
    }
    true
}

/// Write encoded `ranges` over `page`. `false`, with `page` partly written,
/// when they are malformed.
pub(crate) fn apply_ranges(page: &mut PageData, ranges: &[u8]) -> bool {
    for_each_range(ranges, |off, bytes| {
        page[off..off + bytes.len()].copy_from_slice(bytes)
    })
}

/// A record id: which page, which slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

impl Rid {
    pub fn new(page: PageId, slot: u16) -> Self {
        Rid { page, slot }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}:{})", self.page, self.slot)
    }
}

const HEADER_SIZE: usize = 12;
const SLOT_SIZE: usize = 4;
const DEAD_SLOT: u16 = u16::MAX;

/// Mutable slotted-page view over raw page bytes.
///
/// The view is a thin wrapper — all state lives in the page bytes, so a view
/// can be re-created freely from buffer-pool frames.
pub struct SlottedPage<'a> {
    data: &'a mut PageData,
}

impl<'a> SlottedPage<'a> {
    /// Wrap existing page bytes (must already be initialised).
    pub fn new(data: &'a mut PageData) -> Self {
        SlottedPage { data }
    }

    /// Initialise fresh page bytes as an empty slotted page.
    pub fn init(data: &'a mut PageData) -> Self {
        data[..HEADER_SIZE].fill(0);
        let mut p = SlottedPage { data };
        p.set_slot_count(0);
        p.set_free_ptr(USABLE_PAGE_SIZE as u16);
        p.set_next_page(INVALID_PAGE_ID);
        p
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16_at(0, v);
    }

    fn free_ptr(&self) -> u16 {
        self.u16_at(2)
    }

    fn set_free_ptr(&mut self, v: u16) {
        self.set_u16_at(2, v);
    }

    /// Next page in the heap-file chain.
    pub fn next_page(&self) -> PageId {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.data[4..12]);
        u64::from_le_bytes(bytes)
    }

    pub fn set_next_page(&mut self, id: PageId) {
        self.data[4..12].copy_from_slice(&id.to_le_bytes());
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let off = HEADER_SIZE + idx as usize * SLOT_SIZE;
        (self.u16_at(off), self.u16_at(off + 2))
    }

    fn set_slot(&mut self, idx: u16, offset: u16, len: u16) {
        let off = HEADER_SIZE + idx as usize * SLOT_SIZE;
        self.set_u16_at(off, offset);
        self.set_u16_at(off + 2, len);
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        let used_by_slots = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.free_ptr() as usize).saturating_sub(used_by_slots)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Insert a record, returning its slot index.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > u16::MAX as usize {
            return Err(EvoptError::Storage(format!(
                "record of {} bytes exceeds maximum",
                record.len()
            )));
        }
        if !self.fits(record.len()) {
            return Err(EvoptError::Storage("page full".into()));
        }
        let slot = self.slot_count();
        let new_free = self.free_ptr() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_ptr(new_free as u16);
        self.set_slot(slot, new_free as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        Ok(slot)
    }

    /// Read the record in `slot`; `None` if the slot was deleted.
    pub fn get(&self, slot: u16) -> Result<Option<&[u8]>> {
        if slot >= self.slot_count() {
            return Err(EvoptError::Storage(format!(
                "slot {slot} out of range (page has {})",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(slot);
        if off == DEAD_SLOT {
            return Ok(None);
        }
        Ok(Some(&self.data[off as usize..off as usize + len as usize]))
    }

    /// Mark the record in `slot` deleted. Its bytes are not reclaimed.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(EvoptError::Storage(format!("slot {slot} out of range")));
        }
        self.set_slot(slot, DEAD_SLOT, 0);
        Ok(())
    }

    /// Rewrite the live record in `slot`, keeping the slot. A record no
    /// longer than the old one overwrites it; a longer one goes into the
    /// free area and the slot is repointed (the old bytes are not
    /// reclaimed). Returns `false`, leaving the page untouched, when
    /// neither fits; a dead or out-of-range slot is an error.
    pub fn replace(&mut self, slot: u16, record: &[u8]) -> Result<bool> {
        if self.get(slot)?.is_none() {
            return Err(EvoptError::Storage(format!("slot {slot} is dead")));
        }
        let (off, len) = self.slot(slot);
        let at = if record.len() <= len as usize {
            off as usize
        } else if record.len() <= self.free_space() {
            let at = self.free_ptr() as usize - record.len();
            self.set_free_ptr(at as u16);
            at
        } else {
            return Ok(false);
        };
        self.data[at..at + record.len()].copy_from_slice(record);
        self.set_slot(slot, at as u16, record.len() as u16);
        Ok(true)
    }

    /// Iterate live (slot, record) pairs.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot(s);
            if off == DEAD_SLOT {
                None
            } else {
                Some((s, &self.data[off as usize..off as usize + len as usize]))
            }
        })
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).0 != DEAD_SLOT)
            .count()
    }
}

/// Read-only view over slotted-page bytes.
///
/// [`SlottedPage`] requires `&mut PageData`, which forces callers through
/// [`crate::buffer::PageGuard::write`] — and *that* marks the page dirty.
/// Read paths (scans, point lookups) going through the mutable view
/// therefore dirtied every page they touched, turning clean evictions into
/// physical write-backs. This view borrows the bytes immutably so read
/// paths compose with [`crate::buffer::PageGuard::read`] and leave the
/// dirty bit alone.
pub struct SlottedPageView<'a> {
    data: &'a PageData,
}

impl<'a> SlottedPageView<'a> {
    /// Wrap existing page bytes (must already be initialised).
    pub fn new(data: &'a PageData) -> Self {
        SlottedPageView { data }
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    /// Next page in the heap-file chain.
    pub fn next_page(&self) -> PageId {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.data[4..12]);
        u64::from_le_bytes(bytes)
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let off = HEADER_SIZE + idx as usize * SLOT_SIZE;
        (self.u16_at(off), self.u16_at(off + 2))
    }

    /// Read the record in `slot`; `None` if the slot was deleted.
    pub fn get(&self, slot: u16) -> Result<Option<&'a [u8]>> {
        if slot >= self.slot_count() {
            return Err(EvoptError::Storage(format!(
                "slot {slot} out of range (page has {})",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(slot);
        if off == DEAD_SLOT {
            return Ok(None);
        }
        Ok(Some(&self.data[off as usize..off as usize + len as usize]))
    }

    /// Iterate live (slot, record) pairs.
    pub fn records(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot(s);
            if off == DEAD_SLOT {
                None
            } else {
                Some((s, &self.data[off as usize..off as usize + len as usize]))
            }
        })
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).0 != DEAD_SLOT)
            .count()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proptest::prelude::*;

    fn fresh() -> Box<PageData> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_and_get() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0).unwrap(), Some(&b"hello"[..]));
        assert_eq!(p.get(1).unwrap(), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_keeps_other_slots_stable() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        p.insert(b"c").unwrap();
        p.delete(1).unwrap();
        assert_eq!(p.get(0).unwrap(), Some(&b"a"[..]));
        assert_eq!(p.get(1).unwrap(), None);
        assert_eq!(p.get(2).unwrap(), Some(&b"c"[..]));
        assert_eq!(p.live_count(), 2);
        let collected: Vec<_> = p.records().map(|(s, _)| s).collect();
        assert_eq!(collected, vec![0, 2]);
    }

    #[test]
    fn out_of_range_slot_errors() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        assert!(p.get(0).is_err());
        assert!(p.delete(0).is_err());
    }

    #[test]
    fn replace_shrinks_in_place_and_grows_into_free_space() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        p.insert(b"first").unwrap();
        p.insert(b"second").unwrap();
        let free = p.free_space();
        assert!(p.replace(0, b"1st").unwrap());
        assert_eq!(p.get(0).unwrap(), Some(&b"1st"[..]));
        assert_eq!(p.free_space(), free, "a shorter record stays where it was");
        assert!(p.replace(0, b"the first record").unwrap());
        assert_eq!(p.get(0).unwrap(), Some(&b"the first record"[..]));
        assert_eq!(p.free_space(), free - 16, "a longer one takes free space");
        assert_eq!(p.get(1).unwrap(), Some(&b"second"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn replace_on_a_full_page_returns_false_and_changes_nothing() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        let rec = [7u8; 100];
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
        }
        let before = *p.data;
        let grown = vec![9u8; 100 + p.free_space() + 1];
        assert!(!p.replace(3, &grown).unwrap());
        assert_eq!(&before[..], &p.data[..]);
        // Shrinking still works on a full page.
        assert!(p.replace(3, b"small").unwrap());
        assert_eq!(p.get(3).unwrap(), Some(&b"small"[..]));
    }

    #[test]
    fn replace_of_a_dead_or_missing_slot_errors() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        p.insert(b"a").unwrap();
        p.delete(0).unwrap();
        assert!(p.replace(0, b"b").is_err());
        assert!(p.replace(1, b"b").is_err());
        assert_eq!(p.get(0).unwrap(), None);
    }

    #[test]
    fn delta_covers_changed_bytes_and_merges_small_gaps() {
        let before = fresh();
        let mut after = before.clone();
        after[10] = 1;
        after[15] = 2; // 4 equal bytes apart: merged into [10, 16)
        after[100] = 3; // far: its own range
        set_page_lsn(&mut after, 7);
        let mut out = Vec::new();
        assert!(put_page_delta(&before, &after, &mut out));
        let mut ranges = Vec::new();
        assert!(for_each_range(&out, |off, b| ranges.push((off, b.len()))));
        assert_eq!(ranges, vec![(10, 6), (100, 1), (PAGE_LSN_OFFSET, 1)]);
        assert!(!is_full_image(&out));
        let mut replayed = before.clone();
        assert!(apply_ranges(&mut replayed, &out));
        assert_eq!(&replayed[..], &after[..]);
        // Nothing changed, nothing logged.
        let mut empty = Vec::new();
        assert!(put_page_delta(&after, &after, &mut empty));
        assert!(empty.is_empty());
    }

    #[test]
    fn delta_larger_than_the_page_is_refused_and_a_full_image_replaces() {
        // Single changed bytes never outgrow the page (at most 5 bytes
        // logged per 10 of page); a page changed throughout does.
        let before = fresh();
        let mut sparse = fresh();
        for b in sparse.iter_mut().step_by(RANGE_MERGE_GAP + 2) {
            *b = 1;
        }
        let mut out = Vec::new();
        assert!(put_page_delta(&before, &sparse, &mut out));
        assert!(out.len() < FULL_IMAGE_LEN);
        let after = Box::new([1u8; PAGE_SIZE]);
        out.clear();
        assert!(!put_page_delta(&before, &after, &mut out));
        out.clear();
        put_full_image(&after, &mut out);
        assert_eq!(out.len(), FULL_IMAGE_LEN);
        assert!(is_full_image(&out));
        let mut replayed = Box::new([0xEEu8; PAGE_SIZE]);
        assert!(apply_ranges(&mut replayed, &out));
        assert_eq!(&replayed[..], &after[..]);
    }

    #[test]
    fn malformed_ranges_are_refused() {
        let mut page = fresh();
        assert!(!apply_ranges(&mut page, &[0, 0, 1])); // truncated header
        assert!(!apply_ranges(&mut page, &[0, 0, 4, 0, 1, 2])); // short bytes
        let past_end = [0xFF, 0x0F, 2, 0, 1, 2]; // offset 4095, len 2
        assert!(!apply_ranges(&mut page, &past_end));
        assert!(apply_ranges(&mut page, &[]));
    }

    proptest! {
        #[test]
        fn prop_delta_replays_to_the_after_image(
            edits in proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..64)
        ) {
            let before = fresh();
            let mut after = before.clone();
            for (at, b) in edits {
                after[at] = b;
            }
            let mut out = Vec::new();
            if !put_page_delta(&before, &after, &mut out) {
                out.clear();
                put_full_image(&after, &mut out);
            }
            let mut replayed = before.clone();
            prop_assert!(apply_ranges(&mut replayed, &out));
            prop_assert_eq!(&replayed[..], &after[..]);
        }
    }

    #[test]
    fn page_fills_up_then_rejects() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        // 100-byte records + 4-byte slots: ~39 fit in 4076 usable bytes.
        assert!(n >= 35, "expected dozens of records, got {n}");
        assert!(p.insert(&rec).is_err());
        // Everything is still readable after filling.
        for s in 0..p.slot_count() {
            assert_eq!(p.get(s).unwrap(), Some(&rec[..]));
        }
    }

    #[test]
    fn lsn_trailer_roundtrips_and_survives_records() {
        let mut data = fresh();
        assert_eq!(page_lsn(&data), 0);
        set_page_lsn(&mut data, 0xDEAD_BEEF_0042);
        let mut p = SlottedPage::init(&mut data);
        // Fill the page completely; no record may clobber the trailer.
        let rec = [0xFFu8; 64];
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
        }
        assert_eq!(page_lsn(&data), 0xDEAD_BEEF_0042);
        set_page_lsn(&mut data, u64::MAX);
        assert_eq!(page_lsn(&data), u64::MAX);
        // And the trailer write did not disturb the last record.
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(0).unwrap(), Some(&rec[..]));
    }

    #[test]
    fn next_page_chain_roundtrips() {
        let mut data = fresh();
        let mut p = SlottedPage::init(&mut data);
        assert_eq!(p.next_page(), INVALID_PAGE_ID);
        p.set_next_page(42);
        assert_eq!(p.next_page(), 42);
    }

    #[test]
    fn view_recreated_from_bytes_sees_same_state() {
        let mut data = fresh();
        {
            let mut p = SlottedPage::init(&mut data);
            p.insert(b"persist").unwrap();
        }
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(0).unwrap(), Some(&b"persist"[..]));
        assert_eq!(p.slot_count(), 1);
    }

    proptest! {
        /// Insert random records until full; every record must read back
        /// bit-exactly and free_space must never underflow.
        #[test]
        fn prop_insert_readback(records in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..512), 1..80)) {
            let mut data = fresh();
            let mut p = SlottedPage::init(&mut data);
            let mut stored = Vec::new();
            for r in &records {
                if p.fits(r.len()) {
                    let s = p.insert(r).unwrap();
                    stored.push((s, r.clone()));
                } else {
                    prop_assert!(p.insert(r).is_err());
                }
            }
            for (s, r) in &stored {
                prop_assert_eq!(p.get(*s).unwrap(), Some(&r[..]));
            }
        }

        /// Random interleaving of inserts, deletes and replaces preserves
        /// the live set; a replace that does not fit changes no byte.
        #[test]
        fn prop_insert_delete_model(ops in prop::collection::vec(
            (0..3u8, prop::collection::vec(any::<u8>(), 1..200)), 1..160)) {
            let mut data = fresh();
            let mut p = SlottedPage::init(&mut data);
            let mut model: Vec<Option<Vec<u8>>> = Vec::new();
            for (op, bytes) in ops {
                let idx = (bytes[0] as usize) % model.len().max(1);
                if op == 1 && !model.is_empty() {
                    p.delete(idx as u16).unwrap();
                    model[idx] = None;
                } else if op == 2 && !model.is_empty() {
                    let Some(old) = &model[idx] else {
                        prop_assert!(p.replace(idx as u16, &bytes).is_err());
                        continue;
                    };
                    let fits = bytes.len() <= old.len() || bytes.len() <= p.free_space();
                    let before = *p.data;
                    prop_assert_eq!(p.replace(idx as u16, &bytes).unwrap(), fits);
                    if fits {
                        model[idx] = Some(bytes);
                    } else {
                        prop_assert_eq!(&before[..], &p.data[..]);
                    }
                } else if p.fits(bytes.len()) {
                    let s = p.insert(&bytes).unwrap();
                    prop_assert_eq!(s as usize, model.len());
                    model.push(Some(bytes));
                }
            }
            prop_assert_eq!(p.live_count(), model.iter().flatten().count());
            for (i, m) in model.iter().enumerate() {
                prop_assert_eq!(p.get(i as u16).unwrap(), m.as_deref());
            }
        }
    }
}
