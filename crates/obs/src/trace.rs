//! The optimizer search trace.
//!
//! A [`TraceSink`] is handed (by reference) to one enumeration run. The
//! enumerator calls `&self` methods — the sink is interior-mutable via
//! `Cell`/`RefCell`, because the enumeration API threads a shared context —
//! to record every candidate it considers, every plan dominance kills, and
//! the growth of the memo table per enumeration level. Counters always
//! accumulate; the event journal is bounded by `cap` (a sink built with
//! [`TraceSink::counts_only`] keeps no events at all, which is what the
//! always-on metrics path uses).
//!
//! The invariant the DP enumerators maintain — and `EXPLAIN TRACE` tests
//! assert — is `considered == pruned + retained`, with `retained` equal to
//! the final dominance-table size: every candidate either enters the memo,
//! is rejected by an incumbent (pruned, dominated), or evicts an incumbent
//! (which is then pruned, superseded).

use std::cell::{Cell, RefCell};

/// Default cap on journal events kept by `EXPLAIN TRACE`.
pub const DEFAULT_TRACE_EVENTS: usize = 512;

/// Why a subplan left the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Rejected on arrival: an incumbent with the same (mask, order) was
    /// already at least as cheap.
    Dominated,
    /// Was the incumbent; a cheaper plan for the same (mask, order) arrived.
    Superseded,
    /// A greedy-family strategy evaluated it but chose a sibling.
    NotChosen,
}

impl PruneReason {
    pub fn label(&self) -> &'static str {
        match self {
            PruneReason::Dominated => "dominated",
            PruneReason::Superseded => "superseded",
            PruneReason::NotChosen => "not-chosen",
        }
    }
}

/// One structured search event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A join/access candidate was generated and costed.
    Considered {
        mask: u64,
        method: &'static str,
        io: f64,
        cpu: f64,
        rows: f64,
        order: Option<usize>,
    },
    /// A candidate (or incumbent) left the search.
    Pruned {
        mask: u64,
        method: &'static str,
        reason: PruneReason,
    },
    /// An admitted plan carries an interesting order worth keeping.
    OrderKept {
        mask: u64,
        method: &'static str,
        order: usize,
    },
}

/// Per-enumeration-level statistics (DP `size` loop, or one entry for the
/// whole run in single-pass strategies).
#[derive(Debug, Clone)]
pub struct LevelStat {
    pub level: u32,
    /// Dominance-table entries alive after the level completed.
    pub table_entries: usize,
    pub micros: u128,
}

/// The recording half: interior-mutable so `&self` callers can record.
#[derive(Debug, Default)]
pub struct TraceSink {
    cap: usize,
    considered: Cell<u64>,
    pruned: Cell<u64>,
    dropped: Cell<u64>,
    memo_entries: Cell<usize>,
    strategy: Cell<&'static str>,
    total_micros: Cell<u128>,
    events: RefCell<Vec<TraceEvent>>,
    levels: RefCell<Vec<LevelStat>>,
}

impl TraceSink {
    /// A sink keeping at most `cap` journal events (counters are exact
    /// regardless).
    pub fn bounded(cap: usize) -> Self {
        TraceSink {
            cap,
            strategy: Cell::new(""),
            ..TraceSink::default()
        }
    }

    /// A sink keeping counters only — the always-on metrics configuration,
    /// cheap enough to leave enabled for every `optimize()` call.
    pub fn counts_only() -> Self {
        Self::bounded(0)
    }

    fn push(&self, ev: TraceEvent) {
        let mut events = self.events.borrow_mut();
        if events.len() < self.cap {
            events.push(ev);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Record a candidate being generated and costed.
    pub fn consider(
        &self,
        mask: u64,
        method: &'static str,
        io: f64,
        cpu: f64,
        rows: f64,
        order: Option<usize>,
    ) {
        self.considered.set(self.considered.get() + 1);
        self.push(TraceEvent::Considered {
            mask,
            method,
            io,
            cpu,
            rows,
            order,
        });
    }

    /// Record a plan leaving the search.
    pub fn prune(&self, mask: u64, method: &'static str, reason: PruneReason) {
        self.pruned.set(self.pruned.get() + 1);
        self.push(TraceEvent::Pruned {
            mask,
            method,
            reason,
        });
    }

    /// Record an admitted plan keeping an interesting order.
    pub fn order_kept(&self, mask: u64, method: &'static str, order: usize) {
        self.push(TraceEvent::OrderKept {
            mask,
            method,
            order,
        });
    }

    /// Record one completed enumeration level.
    pub fn level(&self, level: u32, table_entries: usize, micros: u128) {
        self.levels.borrow_mut().push(LevelStat {
            level,
            table_entries,
            micros,
        });
    }

    /// Final dominance-table size (DP strategies only).
    pub fn set_memo_entries(&self, n: usize) {
        self.memo_entries.set(n);
    }

    pub fn set_strategy(&self, name: &'static str) {
        self.strategy.set(name);
    }

    pub fn set_total_micros(&self, micros: u128) {
        self.total_micros.set(micros);
    }

    /// Freeze into the immutable result.
    pub fn into_trace(self) -> SearchTrace {
        SearchTrace {
            strategy: self.strategy.get(),
            considered: self.considered.get(),
            pruned: self.pruned.get(),
            memo_entries: self.memo_entries.get(),
            dropped: self.dropped.get(),
            total_micros: self.total_micros.get(),
            levels: self.levels.into_inner(),
            events: self.events.into_inner(),
        }
    }
}

/// An immutable, renderable record of one enumeration run.
#[derive(Debug, Clone)]
pub struct SearchTrace {
    pub strategy: &'static str,
    pub considered: u64,
    pub pruned: u64,
    /// Final dominance-table size; 0 for non-memoizing strategies.
    pub memo_entries: usize,
    /// Journal events discarded once the cap was hit.
    pub dropped: u64,
    pub total_micros: u128,
    pub levels: Vec<LevelStat>,
    pub events: Vec<TraceEvent>,
}

fn mask_str(mask: u64) -> String {
    let rels: Vec<String> = (0..64)
        .filter(|r| mask & (1u64 << r) != 0)
        .map(|r| r.to_string())
        .collect();
    format!("{{{}}}", rels.join(","))
}

impl SearchTrace {
    /// Plans still alive when enumeration finished.
    pub fn retained(&self) -> u64 {
        self.considered.saturating_sub(self.pruned)
    }

    /// The human-readable search journal appended by `EXPLAIN TRACE`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plans considered: {}, pruned: {}, retained: {}\n",
            self.considered,
            self.pruned,
            self.retained()
        );
        out.push_str(&format!(
            "memo entries: {}, enumeration time: {}µs\n",
            self.memo_entries, self.total_micros
        ));
        for l in &self.levels {
            out.push_str(&format!(
                "level {}: table={} entries, {}µs\n",
                l.level, l.table_entries, l.micros
            ));
        }
        if self.events.is_empty() {
            out.push_str("journal: (no events recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "journal ({} events{}):\n",
            self.events.len(),
            if self.dropped > 0 {
                format!(", {} dropped at cap", self.dropped)
            } else {
                String::new()
            }
        ));
        for ev in &self.events {
            match ev {
                TraceEvent::Considered {
                    mask,
                    method,
                    io,
                    cpu,
                    rows,
                    order,
                } => {
                    out.push_str(&format!(
                        "  + consider {} {}  rows={rows:.0} io={io:.1} cpu={cpu:.1}{}\n",
                        mask_str(*mask),
                        method,
                        order.map(|o| format!(" order=c{o}")).unwrap_or_default()
                    ));
                }
                TraceEvent::Pruned {
                    mask,
                    method,
                    reason,
                } => {
                    out.push_str(&format!(
                        "  - prune    {} {}  {}\n",
                        mask_str(*mask),
                        method,
                        reason.label()
                    ));
                }
                TraceEvent::OrderKept {
                    mask,
                    method,
                    order,
                } => {
                    out.push_str(&format!(
                        "  ~ order    {} {}  keeps interesting order c{order}\n",
                        mask_str(*mask),
                        method,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_survive_event_cap() {
        let sink = TraceSink::bounded(2);
        for i in 0..5 {
            sink.consider(1 << i, "HashJoin", 1.0, 2.0, 10.0, None);
        }
        sink.prune(1, "HashJoin", PruneReason::Dominated);
        let trace = sink.into_trace();
        assert_eq!(trace.considered, 5);
        assert_eq!(trace.pruned, 1);
        assert_eq!(trace.retained(), 4);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 4);
    }

    #[test]
    fn counts_only_keeps_no_events() {
        let sink = TraceSink::counts_only();
        sink.consider(3, "SortMergeJoin", 1.0, 1.0, 1.0, Some(0));
        let trace = sink.into_trace();
        assert_eq!(trace.considered, 1);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn render_mentions_counts_levels_and_events() {
        let sink = TraceSink::bounded(16);
        sink.set_strategy("system-r");
        sink.consider(0b11, "HashJoin", 4.0, 2.0, 100.0, None);
        sink.order_kept(0b11, "SortMergeJoin", 2);
        sink.prune(0b11, "BlockNestedLoopJoin", PruneReason::Dominated);
        sink.level(2, 7, 42);
        sink.set_memo_entries(7);
        let text = sink.into_trace().render();
        assert!(text.contains("plans considered: 1"));
        assert!(text.contains("pruned: 1"));
        assert!(text.contains("memo entries: 7"));
        assert!(text.contains("level 2: table=7"));
        assert!(text.contains("+ consider {0,1} HashJoin"));
        assert!(text.contains("keeps interesting order c2"));
        assert!(text.contains("dominated"));
    }
}
