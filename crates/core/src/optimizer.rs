//! The optimizer facade.
//!
//! [`Optimizer::optimize`] turns a bound [`LogicalPlan`] into an annotated
//! [`PhysicalPlan`], planning the plan it is handed as it is: the binder has
//! already run the rewrites (`evopt_plan::rewrite_all`).
//!
//! 1. for join subtrees: extract the join graph, build per-relation access
//!    paths and statistics, run the configured enumeration [`Strategy`];
//! 2. for everything else (aggregate, sort, limit, projection): recurse and
//!    stack the physical operator, exploiting input orders where possible
//!    (a sort is skipped when the child already delivers the order).
//!
//! Plans are built narrow: every node hands its child the child's columns
//! it reads (those its parent reads that it passes through, plus its own
//! predicates, keys, group columns, aggregate arguments and projections),
//! and a scan decodes only those, its own filter's, and an index scan's key
//! column. Each node gets back where its child's columns went and remaps
//! its own ordinals once, as it builds. Estimates still price whole rows,
//! so no choice depends on what a scan decodes.

use evopt_catalog::{Catalog, TableInfo};
use evopt_common::{EvoptError, Expr, Result, Schema};
use evopt_obs::TraceSink;
use evopt_plan::join_graph::JoinGraph;
use evopt_plan::{LogicalPlan, SortKey};
use evopt_storage::USABLE_PAGE_BYTES;

use crate::access_path::{self, IndexMeta, PathChoice, RelMeta};
use crate::cost::CostModel;
use crate::enumerate::{enumerate, scan_path, BaseRel, JoinContext, Strategy};
use crate::physical::{PhysAgg, PhysOp, PhysicalPlan};
use crate::selectivity::{ColumnInfo, EstimationContext};
use crate::verify;

/// Fallback tuple width when a relation has no statistics.
const DEFAULT_WIDTH: f64 = 64.0;
/// Fallback grouping-reduction ratio when group-column NDVs are unknown.
const DEFAULT_GROUP_RATIO: f64 = 0.1;

/// Pages `rows` rows of [`DEFAULT_WIDTH`] bytes fill.
fn default_pages(rows: f64) -> f64 {
    (rows * DEFAULT_WIDTH / USABLE_PAGE_BYTES as f64)
        .ceil()
        .max(1.0)
}

/// Where each logical column went in a plan as built: column `c` to
/// `to[c]`, `None` if not produced (nothing above reads it or, in the
/// enumerator, it belongs to a relation the plan does not cover); no `to`
/// when every column stayed where it was. The optimizer's arms and the
/// enumerator's subplans share it.
#[derive(Debug, Clone)]
pub struct ColMap(Option<Vec<Option<usize>>>);

impl ColMap {
    /// The map of a plan that keeps every column where it is.
    pub const IDENTITY: ColMap = ColMap(None);

    /// Column `c` went to `to[c]`.
    pub fn new(to: Vec<Option<usize>>) -> Self {
        ColMap(Some(to))
    }

    /// The map of a node that keeps the output columns `kept` (increasing)
    /// of `width`.
    pub fn keeping(kept: &[usize], width: usize) -> Self {
        if kept.len() == width {
            return ColMap::IDENTITY;
        }
        let mut to = vec![None; width];
        for (new, &old) in kept.iter().enumerate() {
            to[old] = Some(new);
        }
        ColMap::new(to)
    }

    /// Where column `c` went.
    pub fn moved(&self, c: usize) -> Option<usize> {
        match &self.0 {
            Some(to) => to.get(c).copied().flatten(),
            None => Some(c),
        }
    }

    /// [`ColMap::moved`], for a column that is read.
    pub fn at(&self, c: usize) -> Result<usize> {
        self.moved(c)
            .ok_or_else(|| EvoptError::Internal(format!("column #{c} is read but was not kept")))
    }

    /// `e` with its ordinals moved.
    pub fn remap(&self, e: Expr) -> Result<Expr> {
        match self.0 {
            Some(_) => e.try_remap_columns(&|c| self.moved(c)),
            None => Ok(e),
        }
    }

    /// The columns of `schema` the map keeps, in order.
    pub fn narrowed(&self, schema: &Schema) -> Schema {
        match &self.0 {
            Some(to) => {
                let kept = schema.columns().iter().zip(to).filter(|(_, t)| t.is_some());
                Schema::new(kept.map(|(c, _)| c.clone()).collect())
            }
            None => schema.clone(),
        }
    }
}

/// Mark column `c` as read.
fn mark_column(read: &mut [bool], c: usize) {
    if let Some(r) = read.get_mut(c) {
        *r = true;
    }
}

/// Mark every column `e` reads.
pub(crate) fn mark(read: &mut [bool], e: &Expr) {
    e.visit_columns(&mut |c| mark_column(read, c));
}

/// Whether `plan`, whose columns moved as `map` says, delivers logical
/// column `c` ascending.
fn delivers(plan: &PhysicalPlan, map: &ColMap, c: usize) -> bool {
    plan.output_order.is_some() && plan.output_order == map.moved(c)
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub strategy: Strategy,
    pub cost_model: CostModel,
    /// Track interesting orders during enumeration (off: an ablation, `tests/plan_regret.rs`).
    pub track_interesting_orders: bool,
    /// Run the static plan verifier ([`crate::verify`]) after every phase
    /// (post-enumeration, post-physical); the engine's binder reads the
    /// same flag for its post-bind check. Always on in debug builds; this
    /// flag opts release builds in, and it is the only switch. A violation
    /// aborts the statement with a structured [`EvoptError::Plan`] — never
    /// a panic.
    pub verify: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            strategy: Strategy::SystemR,
            cost_model: CostModel::default(),
            track_interesting_orders: true,
            verify: false,
        }
    }
}

/// The cost-based optimizer.
pub struct Optimizer {
    pub config: OptimizerConfig,
    /// Search-trace sink ([`Optimizer::with_trace`]). Interior-mutable, so
    /// `optimize(&self)` can record into it; events accumulate across every
    /// enumeration one `optimize` call performs (a query that plans a join
    /// subtree twice — e.g. the aggregate order-hint probe — counts both).
    trace: Option<TraceSink>,
}

impl Optimizer {
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer {
            config,
            trace: None,
        }
    }

    /// Optimizer with all defaults (System R strategy).
    pub fn default_system_r() -> Self {
        Optimizer::new(OptimizerConfig::default())
    }

    /// Attach a search-trace sink; every enumeration records into it.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Detach the sink (freeze it with [`TraceSink::into_trace`] afterward).
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// The attached sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Whether the per-phase verifier hooks fire: unconditional in debug
    /// builds (the `debug_assert` analogue, minus the panic), opt-in via
    /// [`OptimizerConfig::verify`] everywhere else.
    fn verifying(&self) -> bool {
        cfg!(debug_assertions) || self.config.verify
    }

    /// Optimize a bound logical plan against `catalog`: the plan the cost
    /// model chose, each scan decoding only the columns the plan reads, its
    /// output in the logical plan's column order. A join's plan keeps the
    /// column order it was built in and every arm above remaps through its
    /// map, so only a root whose map moved a column (a bare join) gets a
    /// `Project` that puts them back.
    pub fn optimize(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan> {
        let width = plan.width();
        let (mut phys, map) = self.optimize_rec(plan, catalog, &vec![true; width], None)?;
        if (0..width).any(|c| map.moved(c) != Some(c)) {
            let exprs = (0..width).map(|c| Ok(Expr::Column(map.at(c)?)));
            let order = phys.output_order;
            phys = PhysicalPlan {
                schema: plan.schema(),
                est_rows: phys.est_rows,
                est_cost: phys.est_cost + self.config.cost_model.per_tuple(phys.est_rows),
                output_order: order.and_then(|o| (0..width).find(|&c| map.moved(c) == Some(o))),
                op: PhysOp::Project {
                    exprs: exprs.collect::<Result<_>>()?,
                    input: Box::new(phys),
                },
            };
        }
        if self.verifying() {
            verify::verify_physical(&phys, Some(catalog), verify::VerifyPhase::PostPhysical)
                .into_result()?;
        }
        Ok(phys)
    }

    /// `need`: which of `plan`'s output columns the parent reads.
    /// `required`: output column the parent would like ascending. Returns
    /// the plan and where each of `plan`'s output columns went in it.
    fn optimize_rec(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        need: &[bool],
        required: Option<usize>,
    ) -> Result<(PhysicalPlan, ColMap)> {
        let model = &self.config.cost_model;
        match plan {
            LogicalPlan::Scan { table, .. } => {
                self.plan_single_table(catalog, table, &[], need, required)
            }
            LogicalPlan::Filter { input, predicate } => match &**input {
                LogicalPlan::Scan { table, .. } => {
                    let preds = predicate.split_conjuncts();
                    self.plan_single_table(catalog, table, &preds, need, required)
                }
                LogicalPlan::Join { .. } => self.plan_joins(plan, catalog, need, required),
                _ => {
                    let mut read = need.to_vec();
                    mark(&mut read, predicate);
                    let (child, map) = self.optimize_rec(input, catalog, &read, required)?;
                    let filter = filter_over(model, child, predicate, need.len(), &map)?;
                    Ok((filter, map))
                }
            },
            LogicalPlan::Join { .. } => self.plan_joins(plan, catalog, need, required),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                // Propagate the order requirement through pure column refs.
                let child_required = required.and_then(|k| match exprs.get(k) {
                    Some(Expr::Column(j)) => Some(*j),
                    _ => None,
                });
                // A column the parent does not read is dropped; a computed
                // one stays, so an expression that fails still fails.
                let kept: Vec<usize> = (0..exprs.len())
                    .filter(|&i| need.get(i) == Some(&true) || !matches!(exprs[i], Expr::Column(_)))
                    .collect();
                let mut read = vec![false; input.width()];
                kept.iter().for_each(|&i| mark(&mut read, &exprs[i]));
                let (child, cmap) = self.optimize_rec(input, catalog, &read, child_required)?;
                let output_order = child.output_order.and_then(|o| {
                    exprs
                        .iter()
                        .position(|e| matches!(e, Expr::Column(c) if cmap.moved(*c) == Some(o)))
                });
                let map = ColMap::keeping(&kept, exprs.len());
                // Remapped only when the child moved a column: a `Result`
                // per expression costs a `SELECT *` plan a tenth of its time.
                let mut moved_exprs: Vec<Expr> = kept.iter().map(|&i| exprs[i].clone()).collect();
                if cmap.0.is_some() {
                    for e in &mut moved_exprs {
                        *e = cmap.remap(e.clone())?;
                    }
                }
                let cost = child.est_cost + model.per_tuple(child.est_rows);
                let plan = PhysicalPlan {
                    schema: map.narrowed(schema),
                    est_rows: child.est_rows,
                    est_cost: cost,
                    output_order: output_order.and_then(|o| map.moved(o)),
                    op: PhysOp::Project {
                        input: Box::new(child),
                        exprs: moved_exprs,
                    },
                };
                Ok((plan, map))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                // Reads its group columns and arguments; its output is
                // never narrowed.
                let mut read = vec![false; input.width()];
                group_by.iter().for_each(|&g| mark_column(&mut read, g));
                aggs.iter()
                    .flat_map(|a| a.arg.iter())
                    .for_each(|e| mark(&mut read, e));
                // Two candidate shapes: an order-seeking child feeding a
                // streaming sort-aggregate, vs an unconstrained child
                // feeding a hash aggregate. The order hint is an option,
                // not a requirement — plan both and keep the cheaper
                // (a forced sort usually loses; a free order usually wins).
                let hint = match group_by.as_slice() {
                    [g] if self.config.track_interesting_orders => Some(*g),
                    _ => None,
                };
                let plain = self.optimize_rec(input, catalog, &read, None)?;
                let (child, cmap) = match hint {
                    Some(g) => {
                        let ordered = self.optimize_rec(input, catalog, &read, hint)?;
                        if delivers(&ordered.0, &ordered.1, g)
                            && model.total(ordered.0.est_cost) <= model.total(plain.0.est_cost)
                        {
                            ordered
                        } else {
                            plain
                        }
                    }
                    None => plain,
                };
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    (child.est_rows * DEFAULT_GROUP_RATIO).max(1.0)
                };
                let cost = child.est_cost + model.hash_aggregate(child.est_rows);
                let phys_aggs = aggs
                    .iter()
                    .map(|a| {
                        let arg = a.arg.clone().map(|e| cmap.remap(e)).transpose()?;
                        Ok(PhysAgg { func: a.func, arg })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let streaming = self.config.track_interesting_orders
                    && group_by.len() == 1
                    && delivers(&child, &cmap, group_by[0]);
                let group_by = group_by
                    .iter()
                    .map(|&g| cmap.at(g))
                    .collect::<Result<Vec<_>>>()?;
                let input = Box::new(child);
                let (op, output_order) = if streaming {
                    let op = PhysOp::SortAggregate {
                        input,
                        group_by,
                        aggs: phys_aggs,
                    };
                    // Output column 0 is the group column, still sorted.
                    (op, Some(0))
                } else {
                    let op = PhysOp::HashAggregate {
                        input,
                        group_by,
                        aggs: phys_aggs,
                    };
                    (op, None)
                };
                let plan = PhysicalPlan {
                    schema: schema.clone(),
                    est_rows: rows,
                    est_cost: cost,
                    output_order,
                    op,
                };
                Ok((plan, ColMap::IDENTITY))
            }
            LogicalPlan::Sort { input, keys } => {
                let hint = match keys.as_slice() {
                    [SortKey {
                        column,
                        ascending: true,
                    }, ..] => Some(*column),
                    _ => None,
                };
                let mut read = need.to_vec();
                keys.iter().for_each(|k| mark_column(&mut read, k.column));
                let (child, map) = self.optimize_rec(input, catalog, &read, hint)?;
                // A single ascending key already satisfied → no sort node.
                if let (1, Some(k)) = (keys.len(), hint) {
                    if delivers(&child, &map, k) {
                        return Ok((child, map));
                    }
                }
                let rows = child.est_rows;
                let cost = child.est_cost + model.sort(rows, default_pages(rows));
                let output_order = match keys.first() {
                    Some(SortKey {
                        column,
                        ascending: true,
                    }) => map.moved(*column),
                    _ => None,
                };
                let keys = keys
                    .iter()
                    .map(|k| Ok((map.at(k.column)?, k.ascending)))
                    .collect::<Result<_>>()?;
                let plan = PhysicalPlan {
                    schema: child.schema.clone(),
                    est_rows: rows,
                    est_cost: cost,
                    output_order,
                    op: PhysOp::Sort {
                        input: Box::new(child),
                        keys,
                    },
                };
                Ok((plan, map))
            }
            LogicalPlan::Limit { input, limit } => {
                let (child, map) = self.optimize_rec(input, catalog, need, required)?;
                let plan = PhysicalPlan {
                    schema: child.schema.clone(),
                    est_rows: child.est_rows.min(*limit as f64),
                    est_cost: child.est_cost,
                    output_order: child.output_order,
                    op: PhysOp::Limit {
                        input: Box::new(child),
                        limit: *limit,
                    },
                };
                Ok((plan, map))
            }
        }
    }

    /// Single base relation with local predicates: pure access-path choice.
    fn plan_single_table(
        &self,
        catalog: &Catalog,
        table: &str,
        preds: &[Expr],
        need: &[bool],
        required: Option<usize>,
    ) -> Result<(PhysicalPlan, ColMap)> {
        let info = catalog.table(table)?;
        let (rel_meta, est) = table_meta(&info);
        let model = &self.config.cost_model;
        let track = self.config.track_interesting_orders;
        // With a required order, an ordered path competes against
        // cheapest-plus-sort; the Sort node itself is added by the caller,
        // so here we just bias the choice by charging the virtual sort.
        let penalty = |p: &PathChoice| match required {
            Some(k) if p.order.filter(|_| track) != Some(k) => {
                model.total(model.sort(p.rows, default_pages(p.rows)))
            }
            _ => 0.0,
        };
        let chosen = access_path::access_paths(&rel_meta, preds, &est, model)
            .into_iter()
            .min_by(|a, b| {
                (model.total(a.cost) + penalty(a)).total_cmp(&(model.total(b.cost) + penalty(b)))
            })
            .ok_or_else(|| EvoptError::Internal("no access path produced".into()))?;
        scan_path(
            &info.name,
            &info.schema,
            chosen,
            need,
            &rel_meta.indexes,
            track,
        )
    }

    /// Join subtree: extract the graph and enumerate.
    fn plan_joins(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        need: &[bool],
        required: Option<usize>,
    ) -> Result<(PhysicalPlan, ColMap)> {
        let graph = JoinGraph::extract(plan)
            .ok_or_else(|| EvoptError::Internal("plan_joins called on a non-join".into()))?;
        let model = self.config.cost_model;
        // Read above each relation's scan: what the parent reads, and every
        // column of a predicate joining two or more relations.
        let mut read = need.to_vec();
        graph
            .predicates
            .iter()
            .filter(|p| p.relations.count_ones() > 1)
            .for_each(|p| mark(&mut read, &p.expr));

        // Build per-relation info + the global estimation context, which
        // borrows its statistics from the base tables' catalog entries.
        let infos = graph
            .relations
            .iter()
            .map(|leaf| match leaf {
                LogicalPlan::Scan { table, .. } => catalog.table(table).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        let mut rels = Vec::with_capacity(graph.relations.len());
        let mut global_cols: Vec<ColumnInfo> = Vec::new();
        for (r, (leaf, info)) in graph.relations.iter().zip(&infos).enumerate() {
            let offset = graph.offsets[r];
            let rel_read = read[offset..offset + graph.schemas[r].len()].to_vec();
            let local_preds_global: Vec<Expr> = graph
                .local_predicates(r)
                .into_iter()
                .map(|p| p.expr.clone())
                .collect();
            let local_preds: Vec<Expr> = local_preds_global
                .iter()
                .map(|e| e.remap_columns(&|g| g - offset))
                .collect();
            match info {
                Some(info) => {
                    let (rel_meta, local_est) = table_meta(info);
                    let paths =
                        access_path::access_paths(&rel_meta, &local_preds, &local_est, &model);
                    let local_sel: f64 = local_preds
                        .iter()
                        .map(|p| local_est.selectivity(p))
                        .product();
                    let width = info
                        .stats()
                        .map(|s| s.avg_tuple_bytes.max(8.0))
                        .unwrap_or(DEFAULT_WIDTH);
                    global_cols.extend_from_slice(&local_est.columns);
                    rels.push(BaseRel {
                        table: Some(info.name.clone()),
                        rows_raw: rel_meta.rows,
                        pages_raw: rel_meta.pages,
                        width,
                        local_sel,
                        local_preds_global,
                        paths,
                        indexes: rel_meta.indexes,
                        read: rel_read,
                        opaque_plan: None,
                    });
                }
                None => {
                    // Opaque leaf: optimize recursively; local predicates
                    // (if any) become a physical filter on top.
                    let mut leaf_read = rel_read;
                    local_preds.iter().for_each(|p| mark(&mut leaf_read, p));
                    let (mut inner, map) = self.optimize_rec(leaf, catalog, &leaf_read, None)?;
                    if !local_preds.is_empty() {
                        let predicate = Expr::conjunction(local_preds.clone());
                        inner = filter_over(&model, inner, &predicate, leaf_read.len(), &map)?;
                    }
                    global_cols.extend((0..leaf_read.len()).map(|_| ColumnInfo {
                        stats: None,
                        table_rows: inner.est_rows as u64,
                    }));
                    rels.push(BaseRel {
                        table: None,
                        rows_raw: inner.est_rows,
                        pages_raw: default_pages(inner.est_rows),
                        width: DEFAULT_WIDTH,
                        local_sel: 1.0,
                        local_preds_global: vec![],
                        paths: vec![],
                        indexes: vec![],
                        read: leaf_read,
                        opaque_plan: Some((inner, map)),
                    });
                }
            }
        }
        let est = EstimationContext::new(global_cols);
        let track = self.config.track_interesting_orders;
        let mut ctx = JoinContext::new(&graph, est, &model, rels, track)?;
        ctx.required_order = required;
        ctx.trace = self.trace.as_ref();
        let sub = enumerate(&ctx, self.config.strategy)?;
        let (mut phys, map) = (sub.plan, sub.col_map);
        // A conjunct that names no relation (a folded constant) is in no
        // join's or relation's predicate set: it filters the whole join.
        let constant: Vec<Expr> = graph
            .predicates
            .iter()
            .filter(|p| p.relations == 0)
            .map(|p| p.expr.clone())
            .collect();
        if !constant.is_empty() {
            let predicate = Expr::conjunction(constant);
            phys = filter_over(&model, phys, &predicate, need.len(), &map)?;
        }
        if self.verifying() {
            verify::verify_physical(&phys, Some(catalog), verify::VerifyPhase::PostEnumeration)
                .into_result()?;
        }
        Ok((phys, map))
    }
}

/// `predicate`, over the `width` columns of the logical input, as a filter
/// over `input`, whose columns moved as `map` says; estimated without
/// statistics.
fn filter_over(
    model: &CostModel,
    input: PhysicalPlan,
    predicate: &Expr,
    width: usize,
    map: &ColMap,
) -> Result<PhysicalPlan> {
    let sel = EstimationContext::unknown(width).selectivity(predicate);
    Ok(PhysicalPlan {
        schema: input.schema.clone(),
        est_rows: (input.est_rows * sel).max(1e-6),
        est_cost: input.est_cost + model.per_tuple(input.est_rows),
        output_order: input.output_order,
        op: PhysOp::Filter {
            predicate: map.remap(predicate.clone())?,
            input: Box::new(input),
        },
    })
}

/// Convert a catalog table into the access-path inputs: its statistics
/// borrowed, each index's shape read from memory. Reads no page.
fn table_meta(info: &TableInfo) -> (RelMeta, EstimationContext<'_>) {
    let stats = info.stats();
    let (rows, pages) = match stats {
        Some(s) => (s.row_count as f64, s.page_count as f64),
        None => (
            info.heap.tuple_count() as f64,
            info.heap.page_count() as f64,
        ),
    };
    let mut indexes = Vec::new();
    for idx in info.indexes() {
        let (height, pages) = idx.btree.shape();
        indexes.push(IndexMeta {
            name: idx.name.clone(),
            column: idx.column,
            height: height as f64,
            pages: pages as f64,
            clustered: idx.clustered,
            unique: idx.unique,
        });
    }
    let columns = (0..info.schema.len())
        .map(|c| ColumnInfo {
            stats: stats.and_then(|s| s.column(c)),
            table_rows: rows as u64,
        })
        .collect();
    (
        RelMeta {
            table: info.name.clone(),
            rows,
            pages,
            indexes,
        },
        EstimationContext::new(columns),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_catalog::{analyze_table, AnalyzeConfig};
    use evopt_common::expr::{col, lit};
    use evopt_common::{Column, DataType, Tuple, Value};
    use evopt_storage::{BufferPool, DiskManager};
    use std::sync::Arc;

    /// Catalog with customers(1k), orders(10k, fk customer), both analyzed;
    /// index on orders.customer_id and customers.id.
    fn setup() -> Catalog {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 256);
        let cat = Catalog::new(pool);
        let customers = cat
            .create_table(
                "customers",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("name", DataType::Str),
                    Column::new("region", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..1000i64 {
            customers
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("cust{i}")),
                    Value::Int(i % 10),
                ]))
                .unwrap();
        }
        let orders = cat
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("customer_id", DataType::Int),
                    Column::new("amount", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..10_000i64 {
            orders
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 1000),
                    Value::Int(i % 500),
                ]))
                .unwrap();
        }
        // Data was loaded in id order, so the index is clustered: the heap
        // scan itself delivers id-order for free.
        cat.create_index("customers_id", "customers", "id", true, true)
            .unwrap();
        cat.create_index("orders_cust", "orders", "customer_id", false, false)
            .unwrap();
        analyze_table(&cat, "customers", &AnalyzeConfig::default()).unwrap();
        analyze_table(&cat, "orders", &AnalyzeConfig::default()).unwrap();
        cat
    }

    fn scan(cat: &Catalog, t: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: t.into(),
            schema: cat.table(t).unwrap().schema.clone(),
        }
    }

    #[test]
    fn point_query_uses_index() {
        let cat = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&cat, "customers")),
            predicate: Expr::eq(col(0), lit(42i64)),
        };
        let opt = Optimizer::default_system_r();
        let phys = opt.optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "IndexScan", "plan:\n{phys}");
        assert!(phys.est_rows < 5.0);
    }

    #[test]
    fn wide_filter_uses_seq_scan() {
        let cat = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&cat, "customers")),
            predicate: Expr::binary(evopt_common::BinOp::Gt, col(0), lit(10i64)),
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "SeqScan", "plan:\n{phys}");
    }

    const STRATEGIES: [Strategy; 7] = [
        Strategy::SystemR,
        Strategy::BushyDp,
        Strategy::DpCcp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 8,
            seed: 1,
        },
        Strategy::Syntactic,
    ];

    #[test]
    fn join_produces_covering_plan_with_restored_order() {
        let cat = setup();
        // orders ⋈ customers ON orders.customer_id = customers.id — written
        // big-table-first so the optimizer has something to fix.
        let join = LogicalPlan::Join {
            left: Box::new(scan(&cat, "orders")),
            right: Box::new(scan(&cat, "customers")),
            predicate: Some(Expr::eq(col(1), col(3))),
        };
        for strategy in STRATEGIES {
            let phys = Optimizer::new(OptimizerConfig {
                strategy,
                ..Default::default()
            })
            .optimize(&join, &cat)
            .unwrap();
            // Output schema must match the logical join schema (6 cols,
            // syntactic order), regardless of the join order chosen.
            let name = strategy.name();
            assert_eq!(phys.schema.len(), 6, "{name}");
            assert_eq!(phys.schema.resolve(Some("orders"), "id").unwrap(), 0);
            assert_eq!(phys.schema.resolve(Some("customers"), "id").unwrap(), 3);
            assert_eq!(phys.schema, join.schema(), "{name}:\n{phys}");
            // ~10k output rows (every order matches one customer).
            assert!(
                (phys.est_rows - 10_000.0).abs() / 10_000.0 < 0.2,
                "{name}: est {}",
                phys.est_rows
            );
            assert!(!phys.join_methods().is_empty(), "{name}");
        }
    }

    #[test]
    fn optimizer_beats_syntactic_baseline() {
        let cat = setup();
        let join = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan(&cat, "orders")),
                right: Box::new(scan(&cat, "customers")),
                predicate: Some(Expr::eq(col(1), col(3))),
            }),
            // region = 3: selective filter on customers.
            predicate: Expr::eq(col(5), lit(3i64)),
        };
        let model = CostModel::default();
        let opt = Optimizer::new(OptimizerConfig {
            strategy: Strategy::SystemR,
            ..Default::default()
        })
        .optimize(&join, &cat)
        .unwrap();
        let base = Optimizer::new(OptimizerConfig {
            strategy: Strategy::Syntactic,
            ..Default::default()
        })
        .optimize(&join, &cat)
        .unwrap();
        assert!(
            model.total(opt.est_cost) < model.total(base.est_cost),
            "optimized {} !< baseline {}",
            model.total(opt.est_cost),
            model.total(base.est_cost)
        );
    }

    #[test]
    fn sort_skipped_when_index_provides_order() {
        let cat = setup();
        let plan = LogicalPlan::Sort {
            input: Box::new(scan(&cat, "customers")),
            keys: vec![SortKey {
                column: 0,
                ascending: true,
            }],
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        // The clustered heap/index provides the order; the plan must
        // satisfy it one way or another (ordered scan or explicit sort).
        match phys.op_name() {
            "Sort" | "IndexScan" | "SeqScan" => {}
            other => panic!("expected ordered plan at root, got {other}:\n{phys}"),
        }
        assert_eq!(phys.output_order, Some(0));
    }

    #[test]
    fn streaming_aggregate_used_when_order_is_free() {
        let cat = setup();
        // customers has an ordered path on id (customers_id index); group
        // by id → the optimizer should pick the streaming aggregate.
        let agg = LogicalPlan::aggregate(
            scan(&cat, "customers"),
            vec![0],
            vec![evopt_plan::AggExpr {
                func: evopt_common::AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            }],
        )
        .unwrap();
        let phys = Optimizer::default_system_r().optimize(&agg, &cat).unwrap();
        assert_eq!(phys.op_name(), "SortAggregate", "plan:\n{phys}");
        assert_eq!(phys.output_order, Some(0));
        // The ordered input comes free: clustered heap order or index scan.
        assert!(matches!(
            phys.children()[0].op_name(),
            "SeqScan" | "IndexScan"
        ));
        // Grouping by a non-indexed column falls back to hashing.
        let agg = LogicalPlan::aggregate(scan(&cat, "customers"), vec![2], vec![]).unwrap();
        let phys = Optimizer::default_system_r().optimize(&agg, &cat).unwrap();
        assert_eq!(phys.op_name(), "HashAggregate", "plan:\n{phys}");
    }

    #[test]
    fn aggregate_and_limit_stack() {
        let cat = setup();
        let agg = LogicalPlan::aggregate(
            scan(&cat, "orders"),
            vec![1],
            vec![evopt_plan::AggExpr {
                func: evopt_common::AggFunc::Sum,
                arg: Some(col(2)),
                name: "total".into(),
            }],
        )
        .unwrap();
        let plan = LogicalPlan::Limit {
            input: Box::new(agg),
            limit: 5,
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "Limit");
        assert_eq!(phys.children()[0].op_name(), "HashAggregate");
        assert!(phys.est_rows <= 5.0);
    }

    #[test]
    fn projection_passes_order_requirement_through() {
        let cat = setup();
        let proj = LogicalPlan::project(
            scan(&cat, "customers"),
            vec![col(0), col(1)],
            vec![None, None],
        )
        .unwrap();
        let plan = LogicalPlan::Sort {
            input: Box::new(proj),
            keys: vec![SortKey {
                column: 0,
                ascending: true,
            }],
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.output_order, Some(0), "plan:\n{phys}");
    }

    #[test]
    fn all_strategies_produce_plans_for_three_way_join() {
        let cat = setup();
        // Third table to make it interesting.
        let regions = cat
            .create_table(
                "regions",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("label", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..10i64 {
            regions
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("r{i}")),
                ]))
                .unwrap();
        }
        analyze_table(&cat, "regions", &AnalyzeConfig::default()).unwrap();
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Join {
                left: Box::new(scan(&cat, "orders")),
                right: Box::new(scan(&cat, "customers")),
                predicate: Some(Expr::eq(col(1), col(3))),
            }),
            right: Box::new(scan(&cat, "regions")),
            predicate: Some(Expr::eq(col(5), col(6))),
        };
        let model = CostModel::default();
        let mut costs = Vec::new();
        for strategy in STRATEGIES {
            let phys = Optimizer::new(OptimizerConfig {
                strategy,
                ..Default::default()
            })
            .optimize(&join, &cat)
            .unwrap();
            assert_eq!(phys.schema.len(), 8, "{}", strategy.name());
            assert_eq!(phys.scan_order().len(), 3, "{}", strategy.name());
            costs.push((strategy.name(), model.total(phys.est_cost)));
        }
        // DP strategies are never beaten.
        let dp = costs.iter().find(|(n, _)| *n == "bushy-dp").unwrap().1;
        for (name, c) in &costs {
            assert!(dp <= c + 1e-6, "bushy-dp {dp} beaten by {name} {c}");
        }
    }
}
