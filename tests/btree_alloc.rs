//! Allocation budget of a B+-tree probe.
//!
//! Descent searches the pinned pages in place, so `search_eq` should
//! allocate its result vector and nothing per level, per slot or per
//! comparison. A counting global allocator holds it to that: at most two
//! allocations for an `Int` probe of a height-3 tree (the issue's budget:
//! the result `Vec` and a scan's yield buffer), and for a `Str` probe no
//! more than that plus one per returned key. The counter is per thread, so
//! the test harness's own threads do not show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use evopt::storage::{BTreeIndex, BufferPool, DiskManager, Rid};
use evopt::Value;

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

fn tree() -> BTreeIndex {
    let pool = BufferPool::new(Arc::new(DiskManager::new()), 1024);
    BTreeIndex::create(pool).expect("create tree")
}

#[test]
fn an_int_probe_of_a_height_3_tree_allocates_its_result_and_no_more() {
    let t = tree();
    for i in 0..30_000i64 {
        t.insert(&Value::Int(i), Rid::new(i as u64, 0))
            .expect("insert");
    }
    assert_eq!(t.shape().0, 3);
    for k in [0, 1, 29_999] {
        t.search_eq(&Value::Int(k)).expect("warm-up probe");
    }
    for k in (0..30_000).step_by(997) {
        let (hits, allocations) = allocations_in(|| t.search_eq(&Value::Int(k)));
        assert_eq!(hits.expect("probe"), vec![Rid::new(k as u64, 0)]);
        assert!(
            allocations <= 2,
            "probe of {k} allocated {allocations} times"
        );
    }
    // A miss returns an empty vector: nothing at all.
    let (hits, allocations) = allocations_in(|| t.search_eq(&Value::Int(-1)));
    assert!(hits.expect("probe").is_empty());
    assert_eq!(allocations, 0);
}

#[test]
fn a_string_probe_allocates_no_more_than_its_result_and_one_per_key() {
    let t = tree();
    let key = |i: u64| Value::Str(format!("key-{i:08}-{}", "x".repeat((i % 40) as usize)));
    for i in 0..30_000u64 {
        t.insert(&key(i), Rid::new(i, 0)).expect("insert");
        if i % 1_000 == 0 {
            // Three more rids under the same key.
            for slot in 1..4 {
                t.insert(&key(i), Rid::new(i, slot)).expect("insert");
            }
        }
    }
    assert!(t.shape().0 >= 3);
    t.search_eq(&key(0)).expect("warm-up probe");
    for i in [1, 5_000, 17_001, 29_000] {
        let probe = key(i);
        let (hits, allocations) = allocations_in(|| t.search_eq(&probe));
        let hits = hits.expect("probe").len() as u64;
        assert_eq!(hits, if i % 1_000 == 0 { 4 } else { 1 });
        assert!(
            allocations <= 2 + hits,
            "probe allocated {allocations} times for {hits} keys"
        );
    }
}
