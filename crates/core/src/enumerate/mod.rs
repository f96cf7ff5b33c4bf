//! Join-order enumeration.
//!
//! All strategies share one plan space, defined here:
//!
//! * a [`SubPlan`] is a costed physical plan covering a subset of the join
//!   graph's relations (a [`RelMask`]), carrying the map from *global*
//!   column ordinals to its output positions and the order it produces;
//! * [`JoinContext::base_subplans`] turns access-path choices into leaf
//!   subplans, built once per enumeration, each scan decoding only the
//!   columns read above it ([`BaseRel::read`], its own filter or residual,
//!   an index scan's key), so every plan above is built narrow;
//! * [`JoinContext::join_candidates`] prices the join of two subplans with
//!   every applicable join method (NL, block-NL, index-NL, sort-merge,
//!   hash), applying exactly the predicates that first become evaluable at
//!   that join. A [`Candidate`] is a price, not a plan: only one the search
//!   keeps is built ([`Candidate::into_subplan`]).
//!
//! The strategies ([`Strategy`]) then differ only in *which* combinations
//! they explore: exhaustive left-deep DP with interesting orders (System R),
//! exhaustive bushy DP, greedy left-deep, greedy operator ordering, random
//! sampling, or the unoptimized syntactic baseline.

pub mod dp_bushy;
pub mod dp_ccp;
pub mod dp_sysr;
pub mod goo;
pub mod greedy;
pub mod quickpick;
pub mod syntactic;

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use evopt_common::{EvoptError, Expr, Result, Schema};
use evopt_obs::{PruneReason, TraceSink};
use evopt_plan::join_graph::{JoinGraph, RelMask};
use evopt_storage::USABLE_PAGE_BYTES;

use crate::access_path::{IndexMeta, PathChoice, PathKind};
use crate::cost::{Cost, CostModel};
use crate::optimizer::{mark, ColMap};
use crate::physical::{PhysOp, PhysicalPlan};
use crate::selectivity::EstimationContext;

/// Which enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// System R: dynamic programming over left-deep trees with interesting
    /// orders and deferred cross products. The default.
    SystemR,
    /// Dynamic programming over all bushy trees (naive partition
    /// enumeration, O(3ⁿ)).
    BushyDp,
    /// Bushy DP over connected-subgraph/complement pairs (DPccp): no cross
    /// product, so a smaller space than `BushyDp`'s and an optimum never
    /// cheaper; effort proportional to the number of *connected* pairs.
    DpCcp,
    /// Left-deep greedy: repeatedly join in the neighbour producing the
    /// smallest intermediate result.
    Greedy,
    /// Greedy operator ordering: repeatedly merge the *pair* of subplans
    /// with the smallest join result (produces bushy trees).
    Goo,
    /// Sample `samples` random join orders, keep the cheapest.
    QuickPick { samples: usize, seed: u64 },
    /// No optimization: syntactic order, sequential scans, block nested
    /// loops. The 1977 "unoptimized" baseline.
    Syntactic,
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::SystemR => "system-r",
            Strategy::BushyDp => "bushy-dp",
            Strategy::DpCcp => "dpccp",
            Strategy::Greedy => "greedy",
            Strategy::Goo => "goo",
            Strategy::QuickPick { .. } => "quickpick",
            Strategy::Syntactic => "syntactic",
        }
    }
}

/// One relation of the join graph, with everything the enumerator needs.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// Base-table name (`None` for opaque leaves like aggregates-in-FROM).
    pub table: Option<String>,
    /// Rows before local predicates.
    pub rows_raw: f64,
    /// Heap pages.
    pub pages_raw: f64,
    /// Mean tuple bytes.
    pub width: f64,
    /// Combined selectivity of the relation's local predicates.
    pub local_sel: f64,
    /// Local predicates in **global** ordinals (for index-NL residuals).
    pub local_preds_global: Vec<Expr>,
    /// Access-path candidates (table-local ordinals).
    pub paths: Vec<PathChoice>,
    /// Indexes (table-local column ordinals), for index nested loops.
    pub indexes: Vec<IndexMeta>,
    /// Which of the relation's columns are read above its scan: by the
    /// query above the join, or by a predicate joining it to another
    /// relation (table-local ordinals).
    pub read: Vec<bool>,
    /// Pre-built physical plan for opaque leaves, with where each of the
    /// leaf's columns went in it.
    pub opaque_plan: Option<(PhysicalPlan, ColMap)>,
}

/// Shared state for one enumeration run.
pub struct JoinContext<'a> {
    pub graph: &'a JoinGraph<'a>,
    /// Global-ordinal statistics.
    pub est: EstimationContext<'a>,
    pub model: &'a CostModel,
    pub rels: Vec<BaseRel>,
    /// Global ordinal the final output should be ordered by, if any.
    pub required_order: Option<usize>,
    /// When false, produced orders are discarded (an ablation, `tests/plan_regret.rs`).
    track_orders: bool,
    /// Search-trace sink; `None` disables all recording.
    pub trace: Option<&'a TraceSink>,
    /// Each relation's leaf subplans, one per access path.
    leaves: Vec<Vec<SubPlan>>,
}

/// A costed plan covering `mask`'s relations.
#[derive(Debug, Clone)]
pub struct SubPlan {
    pub mask: RelMask,
    pub plan: PhysicalPlan,
    pub rows: f64,
    pub width: f64,
    pub cost: Cost,
    /// Global ordinal → position in this plan's output (`None`: a column of
    /// another relation, or one no scan below decodes because nothing above
    /// reads it).
    pub col_map: ColMap,
    /// Global ordinal whose ascending order the output satisfies.
    pub order: Option<usize>,
}

impl SubPlan {
    /// Estimated materialised size in pages.
    pub fn pages(&self) -> f64 {
        ((self.rows * self.width) / USABLE_PAGE_BYTES as f64)
            .ceil()
            .max(1.0)
    }
}

/// How a [`Candidate`] produces its rows. A keyed method carries its
/// equi-join key, (left, right) global ordinals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// An existing subplan (a leaf), admitted as it is.
    Built,
    BlockNestedLoop,
    NestedLoop,
    Hash {
        key: (usize, usize),
    },
    SortMerge {
        key: (usize, usize),
    },
    /// Index nested loops through the inner relation's `index`th index.
    IndexNestedLoop {
        key: (usize, usize),
        index: usize,
    },
}

/// A plan the search compares before it exists: a join of two subplans,
/// priced by [`JoinContext::join_candidates`] with the formulas its built
/// plan carries, or an existing subplan ([`Candidate::built`]). Only a
/// candidate the search keeps is built.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'p> {
    pub mask: RelMask,
    pub method: Method,
    pub cost: Cost,
    pub rows: f64,
    pub width: f64,
    /// Global ordinal whose ascending order the output will satisfy.
    pub order: Option<usize>,
    left: &'p SubPlan,
    /// The inner input; the subplan itself for [`Method::Built`].
    right: &'p SubPlan,
}

impl<'p> Candidate<'p> {
    /// `sp` as a candidate: built already, at its own price.
    pub fn built(sp: &'p SubPlan) -> Self {
        Candidate {
            mask: sp.mask,
            method: Method::Built,
            cost: sp.cost,
            rows: sp.rows,
            width: sp.width,
            order: sp.order,
            left: sp,
            right: sp,
        }
    }

    /// The operator name the built plan's root will carry.
    pub fn op_name(&self) -> &'static str {
        match self.method {
            Method::Built => self.left.plan.op_name(),
            Method::BlockNestedLoop => "BlockNestedLoopJoin",
            Method::NestedLoop => "NestedLoopJoin",
            Method::Hash { .. } => "HashJoin",
            Method::SortMerge { .. } => "SortMergeJoin",
            Method::IndexNestedLoop { .. } => "IndexNestedLoopJoin",
        }
    }

    /// The plan this candidate priced, with the same cost, rows, width and
    /// order.
    pub fn into_subplan(self, ctx: &JoinContext) -> Result<SubPlan> {
        let (left, right) = (self.left, self.right);
        let key = match self.method {
            Method::Built => return Ok(left.clone()),
            Method::Hash { key }
            | Method::SortMerge { key }
            | Method::IndexNestedLoop { key, .. } => Some((key.0.min(key.1), key.0.max(key.1))),
            _ => None,
        };
        let preds = ctx.graph.join_predicates(left.mask, right.mask);
        // The conjunction of the join's predicates but its key, and
        // `extra`, remapped through `map`.
        let predicate = |map: &ColMap, extra: &[Expr]| {
            let unkeyed = preds
                .iter()
                .filter(|p| key.is_none() || p.as_equi_join() != key);
            let rest: Vec<Expr> = unkeyed
                .map(|p| p.expr.clone())
                .chain(extra.iter().cloned())
                .collect();
            (!rest.is_empty())
                .then(|| map.remap(Expr::conjunction(rest)))
                .transpose()
        };
        let left_cols = left.plan.schema.len();
        let (op, schema, col_map) = if let Method::IndexNestedLoop { key, index } = self.method {
            // The probe fetches inner rows whole: the output is the outer's
            // columns and every inner column.
            let r = right.mask.trailing_zeros() as usize;
            let (rel, offset) = (&ctx.rels[r], ctx.graph.offsets[r]);
            let inner = offset..offset + ctx.graph.schemas[r].len();
            let to = |g| match inner.contains(&g) {
                true => Some(left_cols + g - offset),
                false => left.col_map.moved(g),
            };
            let col_map = ColMap::new((0..ctx.total_cols()).map(to).collect());
            let no_table = || EvoptError::Internal(format!("relation {r} has no table"));
            let op = PhysOp::IndexNestedLoopJoin {
                outer: Box::new(left.plan.clone()),
                inner_table: rel.table.clone().ok_or_else(no_table)?,
                index: rel.indexes[index].name.clone(),
                outer_key: left.col_map.at(key.0)?,
                // The probe bypasses access paths: the inner's local
                // predicates join the residual.
                residual: predicate(&col_map, &rel.local_preds_global)?,
            };
            (op, left.plan.schema.join(&ctx.graph.schemas[r]), col_map)
        } else {
            let to = |g| {
                left.col_map
                    .moved(g)
                    .or_else(|| Some(left_cols + right.col_map.moved(g)?))
            };
            let col_map = ColMap::new((0..ctx.total_cols()).map(to).collect());
            let (l, r) = match self.method {
                Method::SortMerge { key: (ga, gb) } => {
                    (ctx.sorted_input(left, ga)?, ctx.sorted_input(right, gb)?)
                }
                _ => (left.plan.clone(), right.plan.clone()),
            };
            let (l, r, predicate) = (Box::new(l), Box::new(r), predicate(&col_map, &[])?);
            let op = match self.method {
                Method::Hash { key: (ga, gb) } => PhysOp::HashJoin {
                    left: l,
                    right: r,
                    left_key: left.col_map.at(ga)?,
                    right_key: right.col_map.at(gb)?,
                    residual: predicate,
                },
                Method::SortMerge { key: (ga, gb) } => PhysOp::SortMergeJoin {
                    left: l,
                    right: r,
                    left_key: left.col_map.at(ga)?,
                    right_key: right.col_map.at(gb)?,
                    residual: predicate,
                },
                Method::NestedLoop => PhysOp::NestedLoopJoin {
                    left: l,
                    right: r,
                    predicate,
                },
                _ => PhysOp::BlockNestedLoopJoin {
                    left: l,
                    right: r,
                    predicate,
                    block_pages: ctx.model.buffer_pages,
                },
            };
            (op, left.plan.schema.join(&right.plan.schema), col_map)
        };
        Ok(SubPlan {
            mask: self.mask,
            plan: PhysicalPlan {
                op,
                schema,
                est_rows: self.rows,
                est_cost: self.cost,
                output_order: self.order.and_then(|g| col_map.moved(g)),
            },
            rows: self.rows,
            width: self.width,
            cost: self.cost,
            col_map,
            order: self.order,
        })
    }
}

/// The scan `path` of `table` (columns `schema`), decoding the columns
/// `read` marks, those its own filter or residual reads and, for an index
/// scan, its key column (the re-key check). A scan that needs every column
/// decodes whole rows (`cols: None`). Returns the scan and where each table
/// column went.
pub(crate) fn scan_path(
    table: &str,
    schema: &Schema,
    path: PathChoice,
    read: &[bool],
    indexes: &[IndexMeta],
    track_orders: bool,
) -> Result<(PhysicalPlan, ColMap)> {
    let (filter, key) = match &path.kind {
        PathKind::SeqScan { filter } => (filter, None),
        PathKind::IndexScan {
            index, residual, ..
        } => (residual, indexes.iter().find(|i| &i.name == index)),
    };
    let mut cols: Option<Vec<usize>> = None;
    if read.contains(&false) {
        let mut keep = read.to_vec();
        filter.iter().for_each(|f| mark(&mut keep, f));
        if let Some(k) = key.and_then(|i| keep.get_mut(i.column)) {
            *k = true;
        }
        if keep.contains(&false) {
            cols = Some((0..keep.len()).filter(|&c| keep[c]).collect());
        }
    }
    let map = match &cols {
        Some(c) => ColMap::keeping(c, read.len()),
        None => ColMap::IDENTITY,
    };
    let cols = cols.map(Arc::from);
    let op = match path.kind {
        PathKind::SeqScan { filter } => PhysOp::SeqScan {
            table: table.to_string(),
            cols,
            filter: filter.map(|f| map.remap(f)).transpose()?,
        },
        PathKind::IndexScan {
            index,
            range,
            residual,
            clustered,
        } => PhysOp::IndexScan {
            table: table.to_string(),
            index,
            range,
            cols,
            residual: residual.map(|r| map.remap(r)).transpose()?,
            clustered,
        },
    };
    let order = path.order.filter(|_| track_orders);
    let plan = PhysicalPlan {
        op,
        schema: map.narrowed(schema),
        est_rows: path.rows,
        est_cost: path.cost,
        output_order: order.and_then(|o| map.moved(o)),
    };
    Ok((plan, map))
}

impl<'a> JoinContext<'a> {
    /// A context over `rels` with no required order and no trace; builds
    /// every relation's leaves.
    pub fn new(
        graph: &'a JoinGraph<'a>,
        est: EstimationContext<'a>,
        model: &'a CostModel,
        rels: Vec<BaseRel>,
        track_orders: bool,
    ) -> Result<Self> {
        let mut ctx = JoinContext {
            graph,
            est,
            model,
            rels,
            required_order: None,
            track_orders,
            trace: None,
            leaves: Vec::new(),
        };
        ctx.leaves = (0..ctx.rels.len())
            .map(|r| ctx.build_leaves(r))
            .collect::<Result<_>>()?;
        Ok(ctx)
    }

    /// Total number of global columns.
    pub fn total_cols(&self) -> usize {
        self.graph.offsets.last().map_or(0, |&o| o)
            + self.graph.schemas.last().map_or(0, |s| s.len())
    }

    fn bit(r: usize) -> RelMask {
        1u64 << r
    }

    /// Leaf subplans for relation `r`, one per surviving access path.
    pub fn base_subplans(&self, r: usize) -> &[SubPlan] {
        &self.leaves[r]
    }

    fn build_leaves(&self, r: usize) -> Result<Vec<SubPlan>> {
        let rel = &self.rels[r];
        let offset = self.graph.offsets[r];
        let total = self.total_cols();
        let leaf = |plan: PhysicalPlan, map: &ColMap, order: Option<usize>| {
            let mut col_map = vec![None; total];
            for c in 0..rel.read.len() {
                col_map[offset + c] = map.moved(c);
            }
            SubPlan {
                mask: Self::bit(r),
                rows: plan.est_rows,
                width: rel.width,
                cost: plan.est_cost,
                plan,
                col_map: ColMap::new(col_map),
                order,
            }
        };
        if let Some((plan, map)) = &rel.opaque_plan {
            return Ok(vec![leaf(plan.clone(), map, None)]);
        }
        // A non-opaque leaf always names a table; if that invariant ever
        // breaks, return no paths and let the caller surface the error.
        let Some(table) = &rel.table else {
            return Ok(Vec::new());
        };
        let schema = &self.graph.schemas[r];
        rel.paths
            .iter()
            .map(|p| {
                let (plan, map) = scan_path(
                    table,
                    schema,
                    p.clone(),
                    &rel.read,
                    &rel.indexes,
                    self.track_orders,
                )?;
                let order = p.order.filter(|_| self.track_orders).map(|c| c + offset);
                Ok(leaf(plan, &map, order))
            })
            .collect()
    }

    /// The cheapest leaf subplan for `r` (by total cost).
    pub fn cheapest_base(&self, r: usize) -> Result<SubPlan> {
        self.base_subplans(r)
            .iter()
            .min_by(|a, b| {
                self.model
                    .total(a.cost)
                    .total_cmp(&self.model.total(b.cost))
            })
            .cloned()
            .ok_or_else(|| EvoptError::Internal(format!("relation {r} has no access path")))
    }

    /// The sequential-scan leaf for `r` (the baseline's only choice).
    pub fn seq_base(&self, r: usize) -> Result<SubPlan> {
        self.base_subplans(r)
            .iter()
            .find(|sp| {
                matches!(sp.plan.op, PhysOp::SeqScan { .. }) || self.rels[r].opaque_plan.is_some()
            })
            .cloned()
            .ok_or_else(|| EvoptError::Internal(format!("relation {r} has no seq-scan path")))
    }

    /// Every applicable join method for `left ⋈ right`, priced, in the
    /// order the search admits them. Empty when the pair is unconnected and
    /// `allow_cross` is false.
    pub fn join_candidates<'p>(
        &self,
        left: &'p SubPlan,
        right: &'p SubPlan,
        allow_cross: bool,
    ) -> Vec<Candidate<'p>> {
        debug_assert_eq!(left.mask & right.mask, 0, "overlapping subplans");
        let preds = self.graph.join_predicates(left.mask, right.mask);
        if preds.is_empty() && !allow_cross {
            return vec![];
        }
        let sel: f64 = preds
            .iter()
            .map(|p| self.est.selectivity(&p.expr))
            .product();
        let rows = (left.rows * right.rows * sel).max(1e-6);

        // Pick the first usable equi-join predicate as the physical key.
        let keyed = |&(a, b): &(usize, usize)| {
            left.col_map.moved(a).is_some() && right.col_map.moved(b).is_some()
        };
        let equi = preds.iter().filter_map(|p| p.as_equi_join());
        let key = equi.flat_map(|(a, b)| [(a, b), (b, a)]).find(keyed);
        let priced = |method, cost, order: Option<usize>| Candidate {
            mask: left.mask | right.mask,
            method,
            cost,
            rows,
            width: left.width + right.width,
            order: order.filter(|_| self.track_orders),
            left,
            right,
        };

        // Block nested loops: always applicable. Does NOT preserve the
        // outer order (the executor loops inner-tuple-over-block).
        let bnl = self
            .model
            .bnl_join(left.rows, left.pages(), right.rows, right.pages());
        let mut out = vec![priced(
            Method::BlockNestedLoop,
            left.cost + right.cost + bnl,
            None,
        )];

        // Tuple nested loops: right side re-run per outer row; only offered
        // when the right side is a single relation (re-running a deep tree
        // is never competitive and bloats the search).
        let single = right.mask.count_ones() == 1;
        if single {
            let nl = self.model.nl_join(left.rows, right.cost, right.rows);
            out.push(priced(Method::NestedLoop, left.cost + nl, left.order));
        }

        let Some(key @ (ga, gb)) = key else {
            return out;
        };
        // Hash join (build right, probe left; probe order preserved).
        let hj = self
            .model
            .hash_join(left.rows, left.pages(), right.rows, right.pages());
        out.push(priced(
            Method::Hash { key },
            left.cost + right.cost + hj,
            left.order,
        ));

        // Sort-merge join: sort whichever inputs aren't already ordered.
        let smj_cost = left.cost
            + right.cost
            + self.merge_sort(left, ga)
            + self.merge_sort(right, gb)
            + self.model.merge_join(left.rows, right.rows);
        out.push(priced(Method::SortMerge { key }, smj_cost, Some(ga)));

        // Index nested loops: right must be one base relation with an
        // index on the join column.
        let r = right.mask.trailing_zeros() as usize;
        let rel = &self.rels[r];
        if !single || rel.table.is_none() {
            return out;
        }
        let local_col = gb - self.graph.offsets[r];
        let matches_per_probe = rel.rows_raw * self.est.join_eq_selectivity(ga, gb);
        for (index, idx) in rel.indexes.iter().enumerate() {
            if idx.column == local_col {
                let inl = self.model.inl_join(
                    left.rows,
                    idx.height,
                    matches_per_probe,
                    idx.clustered,
                    rel.pages_raw,
                    rel.rows_raw,
                );
                let method = Method::IndexNestedLoop { key, index };
                out.push(priced(method, left.cost + inl, left.order));
            }
        }
        out
    }

    /// The sort a merge join keyed on global column `g` adds to `sp`: none
    /// when `sp` is already in that order.
    fn merge_sort(&self, sp: &SubPlan, g: usize) -> Cost {
        match self.track_orders && sp.order == Some(g) {
            true => Cost::ZERO,
            false => self.model.sort(sp.rows, sp.pages()),
        }
    }

    /// `sp`'s plan as a merge-join input keyed on global column `g`.
    fn sorted_input(&self, sp: &SubPlan, g: usize) -> Result<PhysicalPlan> {
        match self.track_orders && sp.order == Some(g) {
            true => Ok(sp.plan.clone()),
            false => Ok(self.enforce_order(sp, g)?.plan),
        }
    }

    /// Wrap `sp` in an explicit sort on global column `g`.
    pub fn enforce_order(&self, sp: &SubPlan, g: usize) -> Result<SubPlan> {
        let local = sp.col_map.at(g)?;
        let sort_cost = self.model.sort(sp.rows, sp.pages());
        let plan = PhysicalPlan {
            schema: sp.plan.schema.clone(),
            est_rows: sp.rows,
            est_cost: sp.cost + sort_cost,
            output_order: Some(local),
            op: PhysOp::Sort {
                input: Box::new(sp.plan.clone()),
                keys: vec![(local, true)],
            },
        };
        Ok(SubPlan {
            mask: sp.mask,
            plan,
            rows: sp.rows,
            width: sp.width,
            cost: sp.cost + sort_cost,
            col_map: sp.col_map.clone(),
            order: Some(g),
        })
    }

    /// From complete candidates, the one of least total cost once each has
    /// the required order: an already-ordered plan competes against
    /// cheapest-plus-sort. The plan returned is the plan priced: its
    /// columns stay in the order its joins built them, and whatever sits
    /// above remaps through its column map.
    pub fn pick_final(&self, candidates: Vec<SubPlan>) -> Result<SubPlan> {
        let total = |p: &SubPlan| self.model.total(p.cost);
        let mut best: Option<SubPlan> = None;
        for sp in candidates {
            let sp = match self.required_order {
                Some(g) if sp.order != Some(g) => self.enforce_order(&sp, g)?,
                _ => sp,
            };
            if best.as_ref().is_none_or(|b| total(&sp) < total(b)) {
                best = Some(sp);
            }
        }
        best.ok_or_else(|| EvoptError::Plan("enumeration produced no plan".into()))
    }

    /// Whether joining `left` to `right` is connected (has a predicate).
    pub fn is_connected(&self, left: RelMask, right: RelMask) -> bool {
        self.graph.connected(left, right)
    }

    // -- search-trace recording ---------------------------------------------
    //
    // The DP invariant `considered == pruned + retained` (retained = final
    // table size) holds because every candidate routed through
    // [`JoinContext::admit`] is counted considered exactly once, and leaves
    // the search exactly once: rejected on arrival (dominated), or evicted
    // later by a cheaper arrival (superseded).

    /// Admit `cand` into `table` if it beats the incumbent for its (mask,
    /// order), recording the trace events for the candidate and for
    /// whichever plan the dominance test kills. Only a candidate that
    /// enters the table is built.
    pub fn admit(&self, table: &mut PlanTable, cand: Candidate) -> Result<()> {
        self.trace_consider(&cand);
        if !table.beaten_by(&cand, self) {
            self.trace_prune(&cand, PruneReason::Dominated);
            return Ok(());
        }
        let (mask, method, order) = (cand.mask, cand.op_name(), cand.order);
        let old = table
            .plans
            .insert((mask, order), Rc::new(cand.into_subplan(self)?));
        if let Some(t) = self.trace {
            if let Some(old) = old {
                t.prune(old.mask, old.plan.op_name(), PruneReason::Superseded);
            }
            if let Some(o) = order {
                t.order_kept(mask, method, o);
            }
        }
        Ok(())
    }

    /// Record a candidate being priced.
    pub fn trace_consider(&self, c: &Candidate) {
        if let Some(t) = self.trace {
            t.consider(c.mask, c.op_name(), c.cost.io, c.cost.cpu, c.rows, c.order);
        }
    }

    /// Record a candidate leaving the search unbuilt.
    pub fn trace_prune(&self, c: &Candidate, reason: PruneReason) {
        if let Some(t) = self.trace {
            t.prune(c.mask, c.op_name(), reason);
        }
    }

    /// Record one completed enumeration level.
    pub fn trace_level(&self, level: u32, table_entries: usize, started: Instant) {
        if let Some(t) = self.trace {
            t.level(level, table_entries, started.elapsed().as_micros());
        }
    }

    /// Record the final dominance-table size.
    pub fn trace_memo(&self, entries: usize) {
        if let Some(t) = self.trace {
            t.set_memo_entries(entries);
        }
    }
}

/// Dominance table keyed by `(mask, order)`; admits a plan only if it is
/// strictly cheaper than the incumbent, so of two plans that tie exactly
/// the first admitted stays. BTreeMap (not HashMap) so iteration — and
/// therefore which plan is admitted first — is deterministic run to run.
/// Plans are shared, so the search holds the inputs it joins while it
/// admits their joins into the table.
#[derive(Default)]
pub struct PlanTable {
    plans: BTreeMap<(RelMask, Option<usize>), Rc<SubPlan>>,
}

impl PlanTable {
    pub fn new() -> Self {
        PlanTable::default()
    }

    /// Whether `cand` is strictly cheaper than the incumbent for its (mask,
    /// order), or there is none.
    fn beaten_by(&self, cand: &Candidate, ctx: &JoinContext) -> bool {
        let Some(cur) = self.plans.get(&(cand.mask, cand.order)) else {
            return true;
        };
        ctx.model.total(cand.cost) < ctx.model.total(cur.cost)
    }

    /// All retained plans for `mask`.
    pub fn plans_for(&self, mask: RelMask) -> Vec<Rc<SubPlan>> {
        let entries = self.plans.range((mask, None)..=(mask, Some(usize::MAX)));
        entries.map(|(_, p)| Rc::clone(p)).collect()
    }

    /// The retained plans for `mask`, out of the table.
    pub fn into_plans(self, mask: RelMask) -> Vec<SubPlan> {
        let entries = self.plans.into_iter().filter(|((m, _), _)| *m == mask);
        entries.map(|(_, p)| Rc::unwrap_or_clone(p)).collect()
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Run the chosen strategy.
pub fn enumerate(ctx: &JoinContext, strategy: Strategy) -> Result<SubPlan> {
    let started = Instant::now();
    let result = match strategy {
        Strategy::SystemR => dp_sysr::run(ctx),
        Strategy::BushyDp => dp_bushy::run(ctx),
        Strategy::DpCcp => dp_ccp::run(ctx),
        Strategy::Greedy => greedy::run(ctx),
        Strategy::Goo => goo::run(ctx),
        Strategy::QuickPick { samples, seed } => quickpick::run(ctx, samples, seed),
        Strategy::Syntactic => syntactic::run(ctx),
    };
    if let Some(t) = ctx.trace {
        t.set_strategy(strategy.name());
        t.set_total_micros(started.elapsed().as_micros());
    }
    result
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Synthetic join graphs + contexts for strategy tests, built without a
    //! real catalog.

    use super::*;
    use crate::selectivity::ColumnInfo;
    use evopt_catalog::ColumnStats;
    use evopt_common::expr::col;
    use evopt_common::{Column, DataType, Schema, Value};
    use evopt_plan::LogicalPlan;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Specification of one synthetic relation.
    pub struct RelSpec {
        pub name: &'static str,
        pub rows: f64,
        /// NDV of each of the relation's 2 int columns (c0 = key, c1 = fk).
        pub ndv: [u64; 2],
        pub indexed: bool,
    }

    pub struct Fixture {
        pub graph: JoinGraph<'static>,
        /// Each global column's statistics and its relation's row count.
        pub columns: Vec<(ColumnStats, u64)>,
        pub model: CostModel,
        pub rels: Vec<BaseRel>,
    }

    /// An estimation context borrowing `columns`.
    fn estimation(columns: &[(ColumnStats, u64)]) -> EstimationContext<'_> {
        let info = columns.iter().map(|(stats, rows)| ColumnInfo {
            stats: Some(stats),
            table_rows: *rows,
        });
        EstimationContext::new(info.collect())
    }

    impl Fixture {
        pub fn ctx(&self) -> JoinContext<'_> {
            self.ctx_tracking(true)
        }

        pub fn ctx_tracking(&self, track_orders: bool) -> JoinContext<'_> {
            let est = estimation(&self.columns);
            JoinContext::new(
                &self.graph,
                est,
                &self.model,
                self.rels.clone(),
                track_orders,
            )
            .unwrap()
        }
    }

    /// Build a fixture: relations with 2 int columns each, joined by the
    /// given edges `(rel_a, col_a, rel_b, col_b)` (column 0 or 1, local).
    pub fn build(specs: &[RelSpec], edges: &[(usize, usize, usize, usize)]) -> Fixture {
        let model = CostModel::default();
        // Logical scans.
        let scans: Vec<LogicalPlan> = specs
            .iter()
            .map(|s| LogicalPlan::Scan {
                table: s.name.to_string(),
                schema: Schema::new(vec![
                    Column::new("c0", DataType::Int).with_table(s.name),
                    Column::new("c1", DataType::Int).with_table(s.name),
                ]),
            })
            .collect();
        // Fold into a left-deep cross join, then a filter with the edges.
        let mut plan = scans[0].clone();
        for s in &scans[1..] {
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(s.clone()),
                predicate: None,
            };
        }
        let mut conjuncts = Vec::new();
        for &(ra, ca, rb, cb) in edges {
            conjuncts.push(Expr::eq(col(ra * 2 + ca), col(rb * 2 + cb)));
        }
        if !conjuncts.is_empty() {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: Expr::conjunction(conjuncts),
            };
        }
        // The graph borrows its leaves; the fixture lives for the test.
        let plan: &'static LogicalPlan = Box::leak(Box::new(plan));
        let graph = JoinGraph::extract(plan).expect("fixture is a join");

        // Stats: uniform ints, no histograms (NDV-only estimation).
        let mut columns = Vec::new();
        for s in specs {
            for c in 0..2 {
                let stats = ColumnStats {
                    null_count: 0,
                    ndv: s.ndv[c],
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(s.ndv[c] as i64 - 1)),
                    mcvs: vec![],
                    histogram: None,
                };
                columns.push((stats, s.rows as u64));
            }
        }

        // Base relations: 40-byte tuples, ~100/page.
        let mut rels = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let pages = (s.rows / 100.0).ceil().max(1.0);
            let indexes = if s.indexed {
                vec![IndexMeta {
                    name: format!("{}_c0", s.name),
                    column: 0,
                    height: 2.0,
                    pages: (s.rows / 300.0).ceil().max(1.0),
                    clustered: false,
                    unique: false,
                }]
            } else {
                vec![]
            };
            // Local estimation context (table-local ordinals).
            let local_est = estimation(&columns[i * 2..i * 2 + 2]);
            let rel_meta = crate::access_path::RelMeta {
                table: s.name.to_string(),
                rows: s.rows,
                pages,
                indexes: indexes.clone(),
            };
            let paths = crate::access_path::access_paths(&rel_meta, &[], &local_est, &model);
            rels.push(BaseRel {
                table: Some(s.name.to_string()),
                rows_raw: s.rows,
                pages_raw: pages,
                width: 40.0,
                local_sel: 1.0,
                local_preds_global: vec![],
                paths,
                indexes,
                read: vec![true; 2],
                opaque_plan: None,
            });
        }
        Fixture {
            graph,
            columns,
            model,
            rels,
        }
    }

    /// A 3-relation chain: t(1k) — u(10k) — v(100k), keys indexed on v.
    pub fn chain3() -> Fixture {
        build(
            &[
                RelSpec {
                    name: "t",
                    rows: 1_000.0,
                    ndv: [1_000, 100],
                    indexed: false,
                },
                RelSpec {
                    name: "u",
                    rows: 10_000.0,
                    ndv: [10_000, 1_000],
                    indexed: false,
                },
                RelSpec {
                    name: "v",
                    rows: 100_000.0,
                    ndv: [100_000, 10_000],
                    indexed: true,
                },
            ],
            // t.c0 = u.c1, u.c0 = v.c1
            &[(0, 0, 1, 1), (1, 0, 2, 1)],
        )
    }

    /// A star: fact f(100k) joined to 3 dimensions (100, 1k, 10k rows).
    pub fn star4() -> Fixture {
        build(
            &[
                RelSpec {
                    name: "f",
                    rows: 100_000.0,
                    ndv: [100_000, 100],
                    indexed: false,
                },
                RelSpec {
                    name: "d1",
                    rows: 100.0,
                    ndv: [100, 10],
                    indexed: false,
                },
                RelSpec {
                    name: "d2",
                    rows: 1_000.0,
                    ndv: [1_000, 10],
                    indexed: false,
                },
                RelSpec {
                    name: "d3",
                    rows: 10_000.0,
                    ndv: [10_000, 10],
                    indexed: true,
                },
            ],
            // f.c1 = d1.c0; f.c0 = d2.c0 (abusing c0 as another fk); f.c0 = d3.c0
            &[(0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 3, 0)],
        )
    }

    /// The shape of a random fixture's join graph.
    #[derive(Debug, Clone, Copy)]
    pub enum Shape {
        Chain,
        Star,
        Cycle,
        Clique,
    }

    /// `n` relations of 10 to 100 000 rows, each column with an NDV drawn
    /// log-uniformly up to the rows (so some joins multiply rows and some
    /// shrink them) and each relation indexed on `c0` or not at random,
    /// joined as `shape` says on random columns.
    pub fn random(shape: Shape, n: usize, seed: u64) -> Fixture {
        const NAMES: [&str; 4] = ["r0", "r1", "r2", "r3"];
        let mut rng = StdRng::seed_from_u64(seed);
        let specs: Vec<RelSpec> = NAMES[..n]
            .iter()
            .map(|&name| {
                let rows = 10f64.powf(rng.random_range(1.0..5.0)).round();
                let mut ndv = || rows.powf(rng.random_range(0.0..1.0)).round() as u64;
                RelSpec {
                    name,
                    rows,
                    ndv: [ndv(), ndv()],
                    indexed: rng.random_bool(0.5),
                }
            })
            .collect();
        let pairs: Vec<(usize, usize)> = match shape {
            Shape::Chain => (1..n).map(|i| (i - 1, i)).collect(),
            Shape::Star => (1..n).map(|i| (0, i)).collect(),
            Shape::Cycle => (1..n).map(|i| (i - 1, i)).chain([(n - 1, 0)]).collect(),
            Shape::Clique => (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .collect(),
        };
        let edges: Vec<_> = pairs
            .into_iter()
            .map(|(a, b)| (a, rng.random_range(0..2), b, rng.random_range(0..2)))
            .collect();
        build(&specs, &edges)
    }

    /// Runs `check` on the oracle's cases: chain, star, cycle and clique
    /// graphs of 3 and 4 relations, four seeds each, each with no required
    /// order and with a random one.
    pub fn for_each_oracle_case(check: impl Fn(&JoinContext, &str)) {
        for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
            for (n, seed) in [3, 4].into_iter().flat_map(|n| (0..4).map(move |s| (n, s))) {
                let f = random(shape, n, seed);
                let order = StdRng::seed_from_u64(seed).random_range(0..2 * n);
                for required_order in [None, Some(order)] {
                    let mut ctx = f.ctx();
                    ctx.required_order = required_order;
                    check(
                        &ctx,
                        &format!("{shape:?} n={n} seed={seed} order={required_order:?}"),
                    );
                }
            }
        }
    }

    /// The ordered `(outer, inner)` splits a DP strategy joins a relation
    /// set from: its plan space.
    #[derive(Debug, Clone, Copy)]
    pub enum Space {
        /// System R: a plan of all but one relation joined to that one as
        /// its inner, by a predicate when any such split has one.
        LeftDeep,
        /// BushyDp: any two halves, by a predicate when any split has one.
        Bushy,
        /// DPccp on a connected graph: any two halves a predicate joins.
        Connected,
    }

    impl Space {
        /// The space `strategy` searches on `ctx`'s graph.
        pub fn of(strategy: Strategy, ctx: &JoinContext) -> Space {
            match strategy {
                Strategy::SystemR => Space::LeftDeep,
                Strategy::DpCcp if ctx.graph.subgraph_connected(ctx.graph.all_mask()) => {
                    Space::Connected
                }
                _ => Space::Bushy,
            }
        }

        fn splits(self, ctx: &JoinContext, mask: RelMask) -> Vec<(RelMask, RelMask)> {
            let halves = (1..mask).filter(|s| s & mask == *s).map(|s| (s, mask ^ s));
            let splits: Vec<_> = match self {
                Space::LeftDeep => halves
                    .filter(|(_, inner)| inner.count_ones() == 1)
                    .collect(),
                _ => halves.collect(),
            };
            let joined = |&(a, b): &(RelMask, RelMask)| ctx.is_connected(a, b);
            let forced = !matches!(self, Space::Connected) && !splits.iter().any(joined);
            splits.into_iter().filter(|s| forced || joined(s)).collect()
        }
    }

    /// The least total cost over every complete plan in `space`, each with
    /// a sort on top when it misses `ctx.required_order`: every split, every
    /// plan of each side, every join method, none pruned. Plans are built
    /// with [`JoinContext::join_candidates`] and [`Candidate::into_subplan`]
    /// only, never through a [`PlanTable`].
    pub fn least_cost(ctx: &JoinContext, space: Space) -> f64 {
        let all = ctx.graph.all_mask();
        let mut masks: Vec<RelMask> = (1..=all).collect();
        masks.sort_by_key(|m| m.count_ones());
        let mut plans: BTreeMap<RelMask, Vec<SubPlan>> = BTreeMap::new();
        let mut least = f64::INFINITY;
        for mask in masks {
            if mask.count_ones() == 1 {
                let leaves = ctx.base_subplans(mask.trailing_zeros() as usize).to_vec();
                plans.insert(mask, leaves);
                continue;
            }
            let mut built = Vec::new();
            for (outer, inner) in space.splits(ctx, mask) {
                let cross = !ctx.is_connected(outer, inner);
                for l in &plans[&outer] {
                    for r in &plans[&inner] {
                        for cand in ctx.join_candidates(l, r, cross) {
                            // A sort only adds cost: a complete plan that
                            // costs no less than the least needs no building.
                            if mask != all {
                                built.push(cand.into_subplan(ctx).unwrap());
                            } else if ctx.model.total(cand.cost) < least {
                                let sp = cand.into_subplan(ctx).unwrap();
                                let sp = match ctx.required_order {
                                    Some(g) if sp.order != Some(g) => {
                                        ctx.enforce_order(&sp, g).unwrap()
                                    }
                                    _ => sp,
                                };
                                least = least.min(ctx.model.total(sp.cost));
                            }
                        }
                    }
                }
            }
            plans.insert(mask, built);
        }
        least
    }

    /// Asserts that `strategy` picks a plan costing [`least_cost`] over
    /// its own space: the principle of optimality, checked exhaustively.
    pub fn assert_optimal(ctx: &JoinContext, strategy: Strategy, case: &str) {
        let pick = enumerate(ctx, strategy).unwrap();
        let got = ctx.model.total(pick.cost);
        let least = least_cost(ctx, Space::of(strategy, ctx));
        assert!(
            (got - least).abs() <= 1e-9 * least,
            "{} on {case}: {got} against {least}:\n{}",
            strategy.name(),
            pick.plan
        );
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn base_subplans_have_global_col_maps() {
        let f = chain3();
        let ctx = f.ctx();
        assert_eq!(ctx.total_cols(), 6);
        let t = ctx.base_subplans(1);
        assert!(!t.is_empty());
        let sp = &t[0];
        assert_eq!(sp.mask, 0b010);
        assert_eq!(sp.col_map.moved(2), Some(0));
        assert_eq!(sp.col_map.moved(3), Some(1));
        assert_eq!(sp.col_map.moved(0), None);
    }

    #[test]
    fn join_candidates_produce_all_methods_with_key() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let u = ctx.cheapest_base(1).unwrap();
        let cands = ctx.join_candidates(&t, &u, false);
        let names: Vec<_> = cands.iter().map(|c| c.op_name()).collect();
        assert!(names.contains(&"BlockNestedLoopJoin"));
        assert!(names.contains(&"NestedLoopJoin"));
        assert!(names.contains(&"HashJoin"));
        assert!(names.contains(&"SortMergeJoin"));
        // No index on u → no INL.
        assert!(!names.contains(&"IndexNestedLoopJoin"));
        // Rows: |t| × |u| / max(ndv) = 1k × 10k / 10^3... edge t.c0=u.c1
        // (ndv 1000 both) → 10k rows.
        for c in &cands {
            assert!(
                (c.rows - 10_000.0).abs() / 10_000.0 < 0.01,
                "rows {}",
                c.rows
            );
        }
    }

    #[test]
    fn inl_offered_against_indexed_inner() {
        let f = chain3();
        let ctx = f.ctx();
        // u joined to v (v has index on c0; edge is u.c0 = v.c1 → the index
        // is NOT on the join column, so still no INL).
        let u = ctx.cheapest_base(1).unwrap();
        let v = ctx.cheapest_base(2).unwrap();
        let cands = ctx.join_candidates(&u, &v, false);
        assert!(!cands.iter().any(|c| c.op_name() == "IndexNestedLoopJoin"));
        // Star fixture: f.c0 = d3.c0 and d3 has an index on c0 → INL exists.
        let s = star4();
        let sctx = s.ctx();
        let fact = sctx.cheapest_base(0).unwrap();
        let d3 = sctx.cheapest_base(3).unwrap();
        let cands = sctx.join_candidates(&fact, &d3, false);
        assert!(
            cands.iter().any(|c| c.op_name() == "IndexNestedLoopJoin"),
            "methods: {:?}",
            cands.iter().map(|c| c.op_name()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unconnected_pair_requires_allow_cross() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let v = ctx.cheapest_base(2).unwrap();
        assert!(ctx.join_candidates(&t, &v, false).is_empty());
        let crossed = ctx.join_candidates(&t, &v, true);
        assert!(!crossed.is_empty());
        // Cross product cardinality.
        assert!((crossed[0].rows - 1_000.0 * 100_000.0).abs() < 1.0);
    }

    #[test]
    fn smj_output_is_ordered_and_reuses_sorted_inputs() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let u = ctx.cheapest_base(1).unwrap();
        let cands = ctx.join_candidates(&t, &u, false);
        let smj = cands
            .into_iter()
            .find(|c| matches!(c.method, Method::SortMerge { .. }))
            .unwrap()
            .into_subplan(&ctx)
            .unwrap();
        // Key is t.c0 (global 0).
        assert_eq!(smj.order, Some(0));
        // Both inputs unsorted → two Sort children.
        match &smj.plan.op {
            PhysOp::SortMergeJoin { left, right, .. } => {
                assert_eq!(left.op_name(), "Sort");
                assert_eq!(right.op_name(), "Sort");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_built_candidate_carries_its_price() {
        // Every method, on leaves and on a join of joins: the built plan
        // has the cost, rows, width, order and root operator it was priced
        // with, and an output order where the column map puts it.
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let n = ctx.rels.len();
            let leaves: Vec<&SubPlan> = (0..n).flat_map(|r| ctx.base_subplans(r)).collect();
            let mut joined = Vec::new();
            let mut methods = std::collections::BTreeSet::new();
            for (a, b) in leaves
                .iter()
                .flat_map(|a| leaves.iter().map(move |b| (a, b)))
            {
                if a.mask & b.mask != 0 {
                    continue;
                }
                for c in ctx.join_candidates(a, b, true) {
                    let sp = c.into_subplan(&ctx).unwrap();
                    assert_eq!((sp.mask, sp.order), (c.mask, c.order));
                    assert_eq!((sp.cost, sp.rows, sp.width), (c.cost, c.rows, c.width));
                    assert_eq!((sp.plan.est_cost, sp.plan.est_rows), (c.cost, c.rows));
                    assert_eq!(sp.plan.op_name(), c.op_name());
                    assert_eq!(
                        sp.plan.output_order,
                        c.order.and_then(|g| sp.col_map.moved(g))
                    );
                    methods.insert(c.op_name());
                    joined.push(sp);
                }
            }
            let (x, y) = (
                &joined[0],
                joined.iter().find(|j| j.mask & joined[0].mask == 0),
            );
            for c in y.map_or(vec![], |y| ctx.join_candidates(x, y, true)) {
                let sp = c.into_subplan(&ctx).unwrap();
                assert_eq!((sp.cost, sp.rows, sp.order), (c.cost, c.rows, c.order));
                assert_eq!(sp.plan.op_name(), c.op_name());
            }
            assert!(methods.len() >= 4, "{methods:?}");
        }
    }

    #[test]
    fn plan_table_dominance() {
        let f = chain3();
        let ctx = f.ctx();
        let model = ctx.model;
        let mut table = PlanTable::new();
        let cheap = ctx.cheapest_base(0).unwrap();
        let mut pricey = cheap.clone();
        pricey.cost = Cost::new(cheap.cost.io + 1000.0, cheap.cost.cpu);
        for sp in [&pricey, &cheap, &pricey] {
            ctx.admit(&mut table, Candidate::built(sp)).unwrap();
        }
        let kept = table.plans_for(cheap.mask);
        assert_eq!(kept.len(), 1);
        assert_eq!(model.total(kept[0].cost), model.total(cheap.cost));
    }

    #[test]
    fn dp_trace_invariant_considered_equals_pruned_plus_memo() {
        // Every candidate routed through ctx.admit either lives in the memo
        // or was pruned exactly once — for all three DP strategies.
        for strategy in [Strategy::SystemR, Strategy::BushyDp, Strategy::DpCcp] {
            for f in [chain3(), star4()] {
                let sink = TraceSink::counts_only();
                let mut ctx = f.ctx();
                ctx.trace = Some(&sink);
                enumerate(&ctx, strategy).unwrap();
                drop(ctx);
                let trace = sink.into_trace();
                assert!(trace.memo_entries > 0, "{}", strategy.name());
                assert_eq!(
                    trace.considered,
                    trace.pruned + trace.memo_entries as u64,
                    "{}: considered {} != pruned {} + memo {}",
                    strategy.name(),
                    trace.considered,
                    trace.pruned,
                    trace.memo_entries
                );
            }
        }
    }

    #[test]
    fn dp_considers_strictly_more_plans_than_greedy() {
        let f = star4();
        let count = |strategy: Strategy| {
            let sink = TraceSink::counts_only();
            let mut ctx = f.ctx();
            ctx.trace = Some(&sink);
            enumerate(&ctx, strategy).unwrap();
            drop(ctx);
            sink.into_trace().considered
        };
        let dp = count(Strategy::SystemR);
        let greedy = count(Strategy::Greedy);
        assert!(
            dp > greedy,
            "dp_sysr considered {dp} plans, greedy {greedy} — expected strictly more"
        );
    }

    #[test]
    fn trace_is_observation_only_and_never_changes_the_plan() {
        for strategy in [
            Strategy::SystemR,
            Strategy::BushyDp,
            Strategy::DpCcp,
            Strategy::Greedy,
            Strategy::Goo,
            Strategy::QuickPick {
                samples: 8,
                seed: 5,
            },
            Strategy::Syntactic,
        ] {
            let f = star4();
            let plain = enumerate(&f.ctx(), strategy).unwrap();
            let sink = TraceSink::bounded(1024);
            let mut ctx = f.ctx();
            ctx.trace = Some(&sink);
            let traced = enumerate(&ctx, strategy).unwrap();
            drop(ctx);
            assert_eq!(
                plain.plan.digest(),
                traced.plan.digest(),
                "{}: tracing changed the chosen plan",
                strategy.name()
            );
            let trace = sink.into_trace();
            assert_eq!(trace.strategy, strategy.name());
            assert!(trace.considered > 0);
        }
    }

    #[test]
    fn enforce_order_adds_sort_once() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let sorted = ctx.enforce_order(&t, 1).unwrap();
        assert_eq!(sorted.order, Some(1));
        assert_eq!(sorted.plan.op_name(), "Sort");
        assert!(ctx.model.total(sorted.cost) >= ctx.model.total(t.cost));
    }
}
