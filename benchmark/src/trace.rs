//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, and the timing disk backend that sits under the engine in
//! the traced run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use evopt_common::Result;
use evopt_storage::page::PageData;
use evopt_storage::{DiskBackend, DiskManager, IoSnapshot, PageId};

use crate::json::Json;

/// One timed interval. Spans of one statement share `stmt_id`; `parent`
/// is the `id` of the span that caused this one (0 = none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub stmt_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-thread span buffer and the statement the thread is working for.
/// The buffer empties into the shared sink when the thread ends, so spans
/// recorded on threads the engine owns are kept too.
struct ThreadTrace {
    spans: Vec<Span>,
    stmt_id: u64,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<u64>,
}

impl ThreadTrace {
    fn flush(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.spans);
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace { spans: Vec::new(), stmt_id: 0, open: Vec::new() })
    };
}

/// Statement the calling thread works for from now on.
pub fn set_stmt(stmt_id: u64) {
    TRACE.with(|t| t.borrow_mut().stmt_id = stmt_id);
}

/// Time `f` as a span named `name`, child of the innermost open span of
/// this thread. Returns `f`'s value and the span's duration in ns.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, stmt_id) = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.open.last().copied().unwrap_or(0);
        t.open.push(id);
        (parent, t.stmt_id)
    });
    let start_ns = now_ns();
    let value = f();
    let end_ns = now_ns();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.open.pop();
        t.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            stmt_id,
        });
    });
    (value, end_ns - start_ns)
}

/// Move this thread's spans to the shared sink.
pub fn flush_thread() {
    TRACE.with(|t| t.borrow_mut().flush());
}

/// Every span flushed so far, leaving the sink empty.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    SINK.lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are not counted twice,
/// and a child is counted only where it lies inside its parent.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (lo, hi) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if lo < hi {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = 0;
                for &(lo, hi) in intervals.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per statement, the sum of the self times of the spans below a span
/// named `root`: the root itself left out, and with it every span named in
/// `skip` and all below it. Held against the time of the whole statement,
/// this says how much of it the layers account for.
pub fn self_time_below(spans: &[Span], root: &str, skip: &[&str]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let self_ns = self_times(spans);
    spans
        .iter()
        .filter(|s| {
            let mut at: &Span = s;
            loop {
                if skip.contains(&at.name) {
                    return false;
                }
                match by_id.get(&at.parent) {
                    Some(parent) if parent.name == root => return true,
                    Some(parent) => at = parent,
                    None => return false,
                }
            }
        })
        .fold(HashMap::new(), |mut per_stmt, s| {
            *per_stmt.entry(s.stmt_id).or_default() += self_ns[&s.id];
            per_stmt
        })
}

/// At most this many spans go to the trace file; all are kept in memory
/// for the metrics. A 10 s traced run of a 20 µs statement makes ≈10⁶.
pub const TRACE_FILE_SPAN_CAP: usize = 50_000;

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::obj([
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("truncated", Json::Bool(spans.len() > TRACE_FILE_SPAN_CAP)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(TRACE_FILE_SPAN_CAP)
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("stmt_id", Json::Num(s.stmt_id as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Totals of the timing disk since it was made.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskTotals {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub busy_ns: u64,
}

/// A `DiskBackend` that forwards to a `DiskManager` and, while `timing` is
/// on, records a span and busy time for every read, write and sync. It is
/// passed to `Database::create_on` in the traced run, so the numbers come
/// from outside the engine.
///
/// It is also the simulated device of `larger_than_pool`, traced or not:
/// with a latency set, every page transfer takes at least that long. The
/// wait spins on the clock. `DiskManager::set_io_latency_micros` sleeps
/// instead, and in this sandbox a 50 µs sleep takes 100 to 250 µs from
/// one run to the next, which made every latency of the workload spread
/// by 30 to 40 %.
pub struct TimingDisk {
    inner: Arc<DiskManager>,
    timing: AtomicBool,
    latency_ns: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimingDisk {
    pub fn new(inner: Arc<DiskManager>) -> TimingDisk {
        TimingDisk {
            inner,
            timing: AtomicBool::new(false),
            latency_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// From now on every page read and write takes at least this long.
    pub fn set_latency(&self, latency: Duration) {
        self.latency_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A page transfer: `f`, then the rest of the device's latency.
    fn transfer<T>(&self, f: impl FnOnce() -> T) -> T {
        let latency = Duration::from_nanos(self.latency_ns.load(Ordering::Relaxed));
        let started = Instant::now();
        let value = f();
        while started.elapsed() < latency {
            std::hint::spin_loop();
        }
        value
    }

    pub fn totals(&self) -> DiskTotals {
        DiskTotals {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, name: &'static str, count: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.timing.load(Ordering::Relaxed) {
            return f();
        }
        let (value, ns) = span(name, f);
        count.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        value
    }
}

impl DiskBackend for TimingDisk {
    fn allocate_page(&self) -> PageId {
        self.inner.allocate_page()
    }

    fn deallocate_page(&self, id: PageId) -> Result<()> {
        self.inner.deallocate_page(id)
    }

    fn read_page(&self, id: PageId, buf: &mut PageData) -> Result<()> {
        self.timed("storage.disk.read", &self.reads, || {
            self.transfer(|| self.inner.read_page(id, buf))
        })
    }

    fn write_page(&self, id: PageId, buf: &PageData) -> Result<()> {
        self.timed("storage.disk.write", &self.writes, || {
            self.transfer(|| self.inner.write_page(id, buf))
        })
    }

    fn sync(&self) -> Result<()> {
        self.timed("storage.disk.sync", &self.syncs, || self.inner.sync())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            stmt_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = [
            s(1, 0, 0, 100),
            s(2, 1, 10, 40),
            s(3, 2, 20, 30),
            s(4, 1, 50, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 30 - 20);
        assert_eq!(t[&2], 30 - 10);
        assert_eq!(t[&3], 10);
        assert_eq!(t[&4], 20);
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        // Children 10..50 and 30..70 overlap on 30..50; a third runs past
        // the parent's end (90..120) and counts only up to 100.
        let spans = [
            s(1, 0, 0, 100),
            s(2, 1, 10, 50),
            s(3, 1, 30, 70),
            s(4, 1, 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 60 - 10);
        // A span whose parent was not recorded keeps its whole duration.
        let orphan = [s(9, 5, 0, 7)];
        assert_eq!(self_times(&orphan)[&9], 7);
    }

    #[test]
    fn self_time_below_a_root_skips_named_subtrees() {
        let named = |id, parent, start_ns, end_ns, name| Span {
            name,
            ..s(id, parent, start_ns, end_ns)
        };
        let spans = [
            named(1, 0, 0, 100, "root"),
            named(2, 1, 0, 40, "stage"),
            named(3, 2, 10, 20, "io"),
            named(4, 1, 50, 90, "extra"),
            named(5, 4, 60, 70, "io"),
            named(6, 0, 0, 500, "elsewhere"),
            Span {
                stmt_id: 2,
                ..named(7, 0, 0, 50, "root")
            },
            Span {
                stmt_id: 2,
                ..named(8, 7, 5, 25, "stage")
            },
        ];
        // stage (30 self) + its io (10); "extra" and the io below it are
        // skipped; the root and the unrelated span never count.
        let skipped = self_time_below(&spans, "root", &["extra"]);
        assert_eq!((skipped[&1], skipped[&2]), (40, 20));
        assert_eq!(self_time_below(&spans, "root", &[])[&1], 40 + 30 + 10);
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        std::thread::spawn(|| {
            set_stmt(42);
            let ((), _) = span("outer", || {
                let ((), _) = span("inner", || ());
            });
            flush_thread();
        })
        .join()
        .unwrap();
        let spans: Vec<Span> = take_all().into_iter().filter(|s| s.stmt_id == 42).collect();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn timing_disk_counts_only_while_timing_is_on() {
        let disk = TimingDisk::new(Arc::new(DiskManager::new()));
        let id = disk.allocate_page();
        let mut buf = [0u8; evopt_storage::PAGE_SIZE];
        disk.read_page(id, &mut buf).unwrap();
        assert_eq!(disk.totals(), DiskTotals::default());
        disk.set_timing(true);
        disk.read_page(id, &mut buf).unwrap();
        disk.write_page(id, &buf).unwrap();
        disk.sync().unwrap();
        let t = disk.totals();
        assert_eq!((t.reads, t.writes, t.syncs), (1, 1, 1));
        // The wrapped disk counted all four transfers itself.
        assert_eq!(disk.snapshot().reads, 2);
    }

    #[test]
    fn a_latency_makes_every_transfer_take_at_least_that_long() {
        let disk = TimingDisk::new(Arc::new(DiskManager::new()));
        let id = disk.allocate_page();
        let mut buf = [0u8; evopt_storage::PAGE_SIZE];
        disk.set_latency(Duration::from_micros(200));
        let started = Instant::now();
        for _ in 0..5 {
            disk.read_page(id, &mut buf).unwrap();
        }
        assert!(started.elapsed() >= Duration::from_micros(1_000));
    }
}
