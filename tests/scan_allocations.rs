//! Allocation budget of a filtered heap scan.
//!
//! `HeapScan` decodes each record into one reused row and tests the filter
//! there: the row's string buffers are overwritten in place, and the filter
//! compares borrowed operands, so a rejected row allocates nothing. Only a
//! row that passes is moved out (and a fresh row started in its place). A
//! counting global allocator holds the scan to that: a small constant per
//! survivor and per page, never one per row. The counter is per
//! thread, so the test harness's own threads do not show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use evopt::common::expr::{col, lit};
use evopt::common::Expr;
use evopt::storage::{BufferPool, DiskManager, HeapFile};
use evopt::{Tuple, Value};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which itself allocates nothing (`const`
// initialised `Cell`, and `try_with` declines quietly during thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ROWS: i64 = 10_000;

/// `(i INT, s STRING, note STRING)`: `s` is `'x'` on every 100th row and a
/// string of 5 to 9 bytes elsewhere; `note` is as long as 40 bytes.
fn table() -> HeapFile {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), 1024);
    let heap = HeapFile::create(pool).expect("create heap");
    for i in 0..ROWS {
        let s = if i % 100 == 0 {
            "x".to_string()
        } else {
            format!("row-{i}")
        };
        let note = "n".repeat((i % 41) as usize);
        heap.insert(&Tuple::new(vec![
            Value::Int(i),
            Value::Str(s),
            Value::Str(note),
        ]))
        .expect("insert");
    }
    heap
}

/// Allocations per survivor and per page the scan may make: the fresh row
/// that replaces a survivor, its two strings and a regrowth as a longer
/// string lands in one; and a page's own bookkeeping. At 3 or more per
/// row, a scan that builds a `Value` or copies a column per rejected row
/// is far past this (about 40 000 here against a budget of 662).
const PER_SURVIVOR: u64 = 4;
const PER_PAGE: u64 = 2;

fn assert_rejected_rows_allocate_nothing(cols: Option<Vec<usize>>, s_at: usize) {
    let heap = table();
    let filter = Expr::eq(col(s_at), lit("x"));
    // Warm the pool: every page resident before the counted scan.
    assert_eq!(heap.scan().count(), ROWS as usize);
    let scan = heap.scan_columns(cols.clone(), Some(filter));
    let (survivors, allocations) = allocations_in(|| {
        let mut survivors = 0;
        for item in scan {
            item.expect("scan");
            survivors += 1;
        }
        survivors
    });
    assert_eq!(survivors, (ROWS / 100) as usize);
    let pages = heap.page_count();
    let budget = PER_SURVIVOR * survivors as u64 + PER_PAGE * pages;
    assert!(
        allocations <= budget,
        "cols {cols:?}: {allocations} allocations for {survivors} survivors of {ROWS} rows \
         over {pages} pages (budget {budget}, {:.2} per row)",
        allocations as f64 / ROWS as f64
    );
}

#[test]
fn a_filtered_scan_allocates_per_survivor_not_per_row() {
    assert_rejected_rows_allocate_nothing(None, 1);
}

#[test]
fn a_narrowed_filtered_scan_allocates_per_survivor_not_per_row() {
    assert_rejected_rows_allocate_nothing(Some(vec![1, 2]), 0);
}
