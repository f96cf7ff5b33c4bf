//! Physical plans: the optimizer's output, the executor's input.
//!
//! A [`PhysicalPlan`] is an operator ([`PhysOp`]) plus the annotations the
//! optimizer computed for it: output schema, estimated rows, estimated
//! [`Cost`], and (when known) the sort order its output satisfies. The
//! executor ignores the estimates; the experiment harness compares them
//! against measured truth.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use evopt_common::{AggFunc, Expr, Schema, Value};

use crate::cost::Cost;

/// Key range for an index scan (bounds on the indexed column).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    pub low: Bound<Value>,
    pub high: Bound<Value>,
}

impl KeyRange {
    pub fn all() -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    pub fn eq(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(v.clone()),
            high: Bound::Included(v),
        }
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.low {
            Bound::Unbounded => write!(f, "(-inf")?,
            Bound::Included(v) => write!(f, "[{v}")?,
            Bound::Excluded(v) => write!(f, "({v}")?,
        }
        f.write_str(", ")?;
        match &self.high {
            Bound::Unbounded => write!(f, "+inf)"),
            Bound::Included(v) => write!(f, "{v}]"),
            Bound::Excluded(v) => write!(f, "{v})"),
        }
    }
}

/// One aggregate computation in a physical aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAgg {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

/// Physical operators. All expressions use the operator's **input** ordinal
/// space (joins: left ++ right).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Full heap scan with an optional pushed-down filter.
    SeqScan {
        table: String,
        /// The table columns each row is decoded to, strictly increasing
        /// (the scan's output ordinals, which `filter` reads); `None` for
        /// every column. Shared, so the enumerator's many clones of a leaf
        /// do not copy it.
        cols: Option<Arc<[usize]>>,
        filter: Option<Expr>,
    },
    /// B+-tree driven scan: fetch rids in `range`, then heap lookups, then
    /// the residual filter.
    IndexScan {
        table: String,
        index: String,
        range: KeyRange,
        /// As for `SeqScan`; always includes the indexed column.
        cols: Option<Arc<[usize]>>,
        residual: Option<Expr>,
        clustered: bool,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
    },
    /// Tuple-at-a-time nested loops; the right side is re-opened per outer
    /// row (only used over cheap inners; the optimizer prefers BNL).
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        predicate: Option<Expr>,
    },
    /// Block nested loops: materialise the right side once, stream the left
    /// in blocks of `block_pages` buffer pages.
    BlockNestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        predicate: Option<Expr>,
        block_pages: usize,
    },
    /// For each outer row, probe `index` on the inner base table.
    IndexNestedLoopJoin {
        outer: Box<PhysicalPlan>,
        inner_table: String,
        index: String,
        /// Ordinal in the outer output whose value keys the probe.
        outer_key: usize,
        /// Residual predicate over outer ++ inner.
        residual: Option<Expr>,
    },
    /// Merge join on single equality keys; inputs must arrive sorted.
    SortMergeJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
    },
    /// Hash join: build on the right input, probe with the left.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        residual: Option<Expr>,
    },
    /// External merge sort.
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(usize, bool)>,
    },
    /// Hash aggregation (no input order required).
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<PhysAgg>,
    },
    /// Streaming aggregation over an input already sorted by the group
    /// columns: O(1) state, emits each group as it closes, preserves the
    /// group order. The interesting-orders payoff for GROUP BY.
    SortAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<PhysAgg>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        limit: usize,
    },
}

/// An annotated physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    pub schema: Schema,
    /// Optimizer's row estimate.
    pub est_rows: f64,
    /// Optimizer's cumulative cost estimate (this operator and below).
    pub est_cost: Cost,
    /// Output column whose ascending order the output satisfies, when
    /// known. Used for interesting-order reasoning while planning (the
    /// enumerator tracks orders by global ordinal in its `SubPlan`s); the
    /// verifier derives order from structure instead of trusting it.
    pub output_order: Option<usize>,
}

impl PhysicalPlan {
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } => vec![],
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::HashAggregate { input, .. }
            | PhysOp::SortAggregate { input, .. }
            | PhysOp::Limit { input, .. } => vec![input],
            PhysOp::IndexNestedLoopJoin { outer, .. } => vec![outer],
            PhysOp::NestedLoopJoin { left, right, .. }
            | PhysOp::BlockNestedLoopJoin { left, right, .. }
            | PhysOp::SortMergeJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Operator name for EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match &self.op {
            PhysOp::SeqScan { .. } => "SeqScan",
            PhysOp::IndexScan { .. } => "IndexScan",
            PhysOp::Filter { .. } => "Filter",
            PhysOp::Project { .. } => "Project",
            PhysOp::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysOp::BlockNestedLoopJoin { .. } => "BlockNestedLoopJoin",
            PhysOp::IndexNestedLoopJoin { .. } => "IndexNestedLoopJoin",
            PhysOp::SortMergeJoin { .. } => "SortMergeJoin",
            PhysOp::HashJoin { .. } => "HashJoin",
            PhysOp::Sort { .. } => "Sort",
            PhysOp::HashAggregate { .. } => "HashAggregate",
            PhysOp::SortAggregate { .. } => "SortAggregate",
            PhysOp::Limit { .. } => "Limit",
        }
    }

    /// Number of operators in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// All join operators in the tree, pre-order.
    pub fn join_methods(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        fn walk(p: &PhysicalPlan, out: &mut Vec<&'static str>) {
            match &p.op {
                PhysOp::NestedLoopJoin { .. }
                | PhysOp::BlockNestedLoopJoin { .. }
                | PhysOp::IndexNestedLoopJoin { .. }
                | PhysOp::SortMergeJoin { .. }
                | PhysOp::HashJoin { .. } => out.push(p.op_name()),
                _ => {}
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Base tables scanned, left-to-right (the join order for left-deep
    /// trees).
    pub fn scan_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(p: &PhysicalPlan, out: &mut Vec<String>) {
            match &p.op {
                PhysOp::SeqScan { table, .. } | PhysOp::IndexScan { table, .. } => {
                    out.push(table.clone());
                }
                PhysOp::IndexNestedLoopJoin {
                    outer, inner_table, ..
                } => {
                    walk(outer, out);
                    out.push(inner_table.clone());
                }
                _ => {
                    for c in p.children() {
                        walk(c, out);
                    }
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// All nodes of the tree in pre-order, each with its depth. Index `i` of
    /// this list is the node's *pre-order id* — the correlation key between
    /// plan nodes and runtime metrics (`evopt_exec` instruments operators in
    /// the same order).
    pub fn pre_order(&self) -> Vec<(usize, &PhysicalPlan)> {
        let mut out = Vec::with_capacity(self.node_count());
        fn walk<'p>(p: &'p PhysicalPlan, depth: usize, out: &mut Vec<(usize, &'p PhysicalPlan)>) {
            out.push((depth, p));
            for c in p.children() {
                walk(c, depth + 1, out);
            }
        }
        walk(self, 0, &mut out);
        out
    }

    /// Stable digest of the plan's *shape*: every operator's detail line,
    /// hashed in pre-order. Two plans with the same operators, tables,
    /// predicates and structure share a digest; estimates don't contribute.
    /// This is the correlation key between the query log, `EXPLAIN ANALYZE`
    /// and `EXPLAIN TRACE` output for one query.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash_shape(0, &mut h);
        h.finish()
    }

    /// Feed `h` what hashing `(depth, op_detail())` of this node and then of
    /// each child would, without building the strings: a `str` hashes as
    /// its bytes, in any number of writes, then `0xff`.
    fn hash_shape(&self, depth: usize, h: &mut DefaultHasher) {
        struct Bytes<'h>(&'h mut DefaultHasher);
        impl fmt::Write for Bytes<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        depth.hash(h);
        // Writing into the hasher cannot fail.
        let _ = self.write_detail(&mut Bytes(h));
        h.write_u8(0xff);
        for c in self.children() {
            c.hash_shape(depth + 1, h);
        }
    }

    /// [`PhysicalPlan::digest`] as the fixed-width hex string the query log
    /// and EXPLAIN surfaces print.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// One-line operator description (the EXPLAIN line minus estimates).
    pub fn op_detail(&self) -> String {
        let mut s = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_detail(&mut s);
        s
    }

    /// Write [`PhysicalPlan::op_detail`] into `out`.
    fn write_detail(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.op {
            PhysOp::SeqScan {
                table,
                cols,
                filter,
            } => {
                write!(out, "SeqScan: {table}")?;
                write_cols(out, cols)?;
                filter.iter().try_for_each(|f| write!(out, " filter={f}"))
            }
            PhysOp::IndexScan {
                table,
                index,
                range,
                cols,
                residual,
                clustered,
            } => {
                let c = if *clustered { " clustered" } else { "" };
                write!(out, "IndexScan: {table} via {index}{c} range={range}")?;
                write_cols(out, cols)?;
                residual
                    .iter()
                    .try_for_each(|e| write!(out, " residual={e}"))
            }
            PhysOp::Filter { predicate, .. } => write!(out, "Filter: {predicate}"),
            PhysOp::Project { exprs, .. } => {
                out.write_str("Project: ")?;
                write_list(out, exprs, |out, e| write!(out, "{e}"))
            }
            PhysOp::NestedLoopJoin { predicate, .. } => match predicate {
                Some(e) => write!(out, "NestedLoopJoin: {e}"),
                None => out.write_str("NestedLoopJoin: cross"),
            },
            PhysOp::BlockNestedLoopJoin {
                predicate,
                block_pages,
                ..
            } => match predicate {
                Some(e) => write!(out, "BlockNestedLoopJoin(B={block_pages}): {e}"),
                None => write!(out, "BlockNestedLoopJoin(B={block_pages}): cross"),
            },
            PhysOp::IndexNestedLoopJoin {
                inner_table,
                index,
                outer_key,
                ..
            } => write!(
                out,
                "IndexNestedLoopJoin: probe {inner_table}.{index} with #{outer_key}"
            ),
            PhysOp::SortMergeJoin {
                left_key,
                right_key,
                ..
            } => write!(out, "SortMergeJoin: #{left_key} = #{right_key}"),
            PhysOp::HashJoin {
                left_key,
                right_key,
                ..
            } => write!(out, "HashJoin: #{left_key} = #{right_key}"),
            PhysOp::Sort { keys, .. } => {
                out.write_str("Sort: ")?;
                write_list(out, keys, |out, (c, asc)| {
                    write!(out, "#{c}{}", if *asc { "" } else { " DESC" })
                })
            }
            PhysOp::HashAggregate { group_by, aggs, .. }
            | PhysOp::SortAggregate { group_by, aggs, .. } => {
                write!(out, "{}: group_by={group_by:?} aggs=[", self.op_name())?;
                write_list(out, aggs, |out, a| match &a.arg {
                    Some(e) => write!(out, "{}({e})", a.func),
                    None => write!(out, "{}", a.func),
                })?;
                out.write_str("]")
            }
            PhysOp::Limit { limit, .. } => write!(out, "Limit: {limit}"),
        }
    }

    /// EXPLAIN-style indented rendering with estimates.
    pub fn display_indent(&self) -> String {
        let mut s = String::new();
        for (depth, p) in self.pre_order() {
            for _ in 0..depth {
                s.push_str("  ");
            }
            s.push_str(&format!(
                "{}  (rows={:.0}, cost={:.1})\n",
                p.op_detail(),
                p.est_rows,
                p.est_cost.io + p.est_cost.cpu
            ));
        }
        s
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

/// Where table column `column` sits in the output of a scan decoding
/// `cols` (`None`: every column); `None` when the scan does not decode it.
pub fn scan_ordinal(cols: Option<&[usize]>, column: usize) -> Option<usize> {
    match cols {
        Some(cols) => cols.iter().position(|&c| c == column),
        None => Some(column),
    }
}

/// A narrowed scan's ` cols=[..]`; nothing for one that decodes every
/// column, so its detail line and digest stay as they were.
fn write_cols(out: &mut impl fmt::Write, cols: &Option<Arc<[usize]>>) -> fmt::Result {
    match cols {
        Some(cols) => write!(out, " cols={cols:?}"),
        None => Ok(()),
    }
}

/// Write each of `items` with `item`, separated by `", "`.
fn write_list<W: fmt::Write, T>(
    out: &mut W,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    items.into_iter().enumerate().try_for_each(|(i, x)| {
        if i > 0 {
            out.write_str(", ")?;
        }
        item(out, x)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_common::{Column, DataType};

    fn leaf(table: &str) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::SeqScan {
                table: table.into(),
                cols: None,
                filter: None,
            },
            schema: Schema::new(vec![Column::new("a", DataType::Int).with_table(table)]),
            est_rows: 100.0,
            est_cost: Cost {
                io: 10.0,
                cpu: 100.0,
            },
            output_order: None,
        }
    }

    #[test]
    fn tree_introspection() {
        let join = PhysicalPlan {
            schema: leaf("t").schema.join(&leaf("u").schema),
            op: PhysOp::HashJoin {
                left: Box::new(leaf("t")),
                right: Box::new(leaf("u")),
                left_key: 0,
                right_key: 0,
                residual: None,
            },
            est_rows: 100.0,
            est_cost: Cost {
                io: 20.0,
                cpu: 400.0,
            },
            output_order: None,
        };
        assert_eq!(join.node_count(), 3);
        assert_eq!(join.join_methods(), vec!["HashJoin"]);
        assert_eq!(join.scan_order(), vec!["t", "u"]);
        let text = join.display_indent();
        assert!(text.contains("HashJoin: #0 = #0"));
        assert!(text.contains("  SeqScan: t"));
    }

    #[test]
    fn inl_scan_order_includes_inner_table() {
        let inl = PhysicalPlan {
            schema: leaf("t").schema.clone(),
            op: PhysOp::IndexNestedLoopJoin {
                outer: Box::new(leaf("t")),
                inner_table: "u".into(),
                index: "u_idx".into(),
                outer_key: 0,
                residual: None,
            },
            est_rows: 50.0,
            est_cost: Cost::ZERO,
            output_order: None,
        };
        assert_eq!(inl.scan_order(), vec!["t", "u"]);
        assert_eq!(inl.join_methods(), vec!["IndexNestedLoopJoin"]);
    }

    #[test]
    fn key_range_display() {
        assert_eq!(KeyRange::all().to_string(), "(-inf, +inf)");
        assert_eq!(KeyRange::eq(Value::Int(5)).to_string(), "[5, 5]");
        let r = KeyRange {
            low: Bound::Excluded(Value::Int(1)),
            high: Bound::Included(Value::Int(9)),
        };
        assert_eq!(r.to_string(), "(1, 9]");
    }
}
