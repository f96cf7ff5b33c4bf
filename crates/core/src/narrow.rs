//! Scan narrowing: each base-table scan decodes only the columns the plan
//! reads.
//!
//! One top-down walk over the finished physical plan, from "the root needs
//! all its outputs". Every node hands each child the child's columns it
//! needs: those its parent needs that the node passes through, plus those
//! it reads itself (predicates, join and sort keys, group columns,
//! aggregate arguments, projections). A projection drops the columns its
//! parent does not read. A scan decodes what it is asked for, plus what its
//! own filter reads and an index scan's key column (the re-key check). On
//! the way back up, every node remaps its ordinals once through its
//! children's old → new column maps. The inner table of an index nested
//! loops join is fetched whole.
//!
//! The pass runs after enumeration and leaves every estimate alone: join
//! order, join methods and access paths are what the cost model chose over
//! full rows. A scan that needs every column keeps `cols: None`, so
//! `SELECT *` and the row-finders of UPDATE/DELETE are untouched.

use evopt_catalog::Catalog;
use evopt_common::{EvoptError, Expr, Result, Schema};

use crate::physical::{PhysOp, PhysicalPlan};

/// Old output ordinal → new output ordinal (`None`: no longer produced);
/// `None` for a node whose columns all stay where they were.
type ColMap = Option<Vec<Option<usize>>>;

/// Narrow every scan in `plan` to the columns read above it.
pub(crate) fn narrow_scans(mut plan: PhysicalPlan, catalog: &Catalog) -> Result<PhysicalPlan> {
    let all = vec![true; plan.schema.len()];
    narrow(&mut plan, all, catalog)?;
    Ok(plan)
}

/// Narrow `plan` to produce at least the output columns `need` marks (one
/// flag per output column); returns where each old output column went.
fn narrow(plan: &mut PhysicalPlan, mut need: Vec<bool>, catalog: &Catalog) -> Result<ColMap> {
    let width = plan.schema.len();
    let map = match &mut plan.op {
        PhysOp::SeqScan { cols, filter, .. } => {
            filter.iter().for_each(|f| mark(&mut need, f));
            let map = scan_cols(cols, &need);
            remap_opt(filter, &map)?;
            map
        }
        PhysOp::IndexScan {
            table,
            index,
            cols,
            residual,
            ..
        } => {
            residual.iter().for_each(|r| mark(&mut need, r));
            if need.contains(&false) {
                let key = index_column(catalog, table, index)?;
                need.get_mut(key).into_iter().for_each(|n| *n = true);
            }
            let map = scan_cols(cols, &need);
            remap_opt(residual, &map)?;
            map
        }
        PhysOp::Filter { input, predicate } => {
            mark(&mut need, predicate);
            let map = narrow(input, need, catalog)?;
            remap(predicate, &map)?;
            map
        }
        PhysOp::Limit { input, .. } => narrow(input, need, catalog)?,
        PhysOp::Sort { input, keys } => {
            keys.iter().for_each(|&(k, _)| mark_column(&mut need, k));
            let map = narrow(input, need, catalog)?;
            for (k, _) in keys {
                *k = at(&map, *k)?;
            }
            map
        }
        PhysOp::Project { input, exprs } => {
            // A column the parent does not read is dropped (a join's
            // reorder under an aggregate); a computed one stays, so an
            // expression that fails still fails.
            let unread =
                |i: usize, e: &Expr| need.get(i) != Some(&true) && matches!(e, Expr::Column(_));
            let map = if exprs.iter().enumerate().any(|(i, e)| unread(i, e)) {
                let mut map = vec![None; width];
                let (mut i, mut kept) = (0, 0);
                exprs.retain(|e| {
                    let keep = !unread(i, e);
                    if let (true, Some(slot)) = (keep, map.get_mut(i)) {
                        *slot = Some(kept);
                        kept += 1;
                    }
                    i += 1;
                    keep
                });
                Some(map)
            } else {
                None
            };
            let mut reads = vec![false; input.schema.len()];
            exprs.iter().for_each(|e| mark(&mut reads, e));
            let m = narrow(input, reads, catalog)?;
            for e in exprs.iter_mut() {
                remap(e, &m)?;
            }
            map
        }
        PhysOp::HashAggregate {
            input,
            group_by,
            aggs,
        }
        | PhysOp::SortAggregate {
            input,
            group_by,
            aggs,
        } => {
            // Reads its group columns and arguments; its output never
            // narrows.
            let mut reads = vec![false; input.schema.len()];
            group_by.iter().for_each(|&g| mark_column(&mut reads, g));
            aggs.iter()
                .flat_map(|a| a.arg.iter())
                .for_each(|e| mark(&mut reads, e));
            let map = narrow(input, reads, catalog)?;
            for g in group_by {
                *g = at(&map, *g)?;
            }
            for a in aggs {
                remap_opt(&mut a.arg, &map)?;
            }
            None
        }
        PhysOp::NestedLoopJoin {
            left,
            right,
            predicate,
        }
        | PhysOp::BlockNestedLoopJoin {
            left,
            right,
            predicate,
            ..
        } => {
            predicate.iter().for_each(|p| mark(&mut need, p));
            let map = narrow_pair(left, right, need, catalog)?;
            remap_opt(predicate, &map)?;
            map
        }
        PhysOp::SortMergeJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        }
        | PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let right_key_out = left.schema.len() + *right_key;
            mark_column(&mut need, *left_key);
            mark_column(&mut need, right_key_out);
            residual.iter().for_each(|r| mark(&mut need, r));
            let map = narrow_pair(left, right, need, catalog)?;
            *left_key = at(&map, *left_key)?;
            *right_key = at(&map, right_key_out)? - left.schema.len();
            remap_opt(residual, &map)?;
            map
        }
        PhysOp::IndexNestedLoopJoin {
            outer,
            outer_key,
            residual,
            ..
        } => {
            // The probe fetches inner rows whole: only the outer narrows.
            let ow = outer.schema.len();
            mark_column(&mut need, *outer_key);
            residual.iter().for_each(|r| mark(&mut need, r));
            need.truncate(ow);
            let map = narrow(outer, need, catalog)?.map(|mut m| {
                let shift = outer.schema.len();
                m.extend((0..width.saturating_sub(ow)).map(|i| Some(shift + i)));
                m
            });
            *outer_key = at(&map, *outer_key)?;
            remap_opt(residual, &map)?;
            map
        }
    };
    if let Some(m) = &map {
        // Every map is monotone, so the surviving columns keep their order.
        let kept = plan.schema.columns().iter().zip(m);
        plan.schema = Schema::new(
            kept.filter(|(_, new)| new.is_some())
                .map(|(c, _)| c.clone())
                .collect(),
        );
        plan.output_order = plan.output_order.and_then(|o| get(&map, o));
    }
    Ok(map)
}

/// Narrow both inputs of a join whose output is `left ++ right`, given the
/// output columns `need`ed; returns the combined map.
fn narrow_pair(
    left: &mut PhysicalPlan,
    right: &mut PhysicalPlan,
    mut need: Vec<bool>,
    catalog: &Catalog,
) -> Result<ColMap> {
    let (lw, rw) = (left.schema.len(), right.schema.len());
    let right_need = need.split_off(lw.min(need.len()));
    let left_map = narrow(left, need, catalog)?;
    let right_map = narrow(right, right_need, catalog)?;
    if left_map.is_none() && right_map.is_none() {
        return Ok(None);
    }
    let shift = left.schema.len();
    let left_cols = (0..lw).map(|c| get(&left_map, c));
    let right_cols = (0..rw).map(|c| get(&right_map, c).map(|c| c + shift));
    Ok(Some(left_cols.chain(right_cols).collect()))
}

/// Set a scan's `cols` to the table columns `need` marks, `None` when that
/// is every column; returns the scan's map.
fn scan_cols(cols: &mut Option<Vec<usize>>, need: &[bool]) -> ColMap {
    if !need.contains(&false) {
        return None;
    }
    let kept: Vec<usize> = (0..need.len()).filter(|&c| need[c]).collect();
    let mut map = vec![None; need.len()];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    *cols = Some(kept);
    Some(map)
}

/// Mark column `c` as read; an ordinal past the output is left for the
/// remap above to reject.
fn mark_column(need: &mut [bool], c: usize) {
    if let Some(n) = need.get_mut(c) {
        *n = true;
    }
}

/// Mark every column `e` reads.
fn mark(need: &mut [bool], e: &Expr) {
    e.visit_columns(&mut |c| mark_column(need, c));
}

/// The table ordinal of `index`'s key column.
fn index_column(catalog: &Catalog, table: &str, index: &str) -> Result<usize> {
    let info = catalog.table(table)?;
    let column = info
        .indexes()
        .iter()
        .find(|i| i.name == index)
        .map(|i| i.column);
    column.ok_or_else(|| EvoptError::Plan(format!("index '{index}' does not exist on '{table}'")))
}

/// Where old output column `c` went.
fn get(map: &ColMap, c: usize) -> Option<usize> {
    match map {
        Some(m) => m.get(c).copied().flatten(),
        None => Some(c),
    }
}

fn at(map: &ColMap, c: usize) -> Result<usize> {
    get(map, c).ok_or_else(|| {
        EvoptError::Internal(format!("narrowing dropped column #{c}, which is read"))
    })
}

/// Rewrite `e`'s ordinals through `map`.
fn remap(e: &mut Expr, map: &ColMap) -> Result<()> {
    if map.is_some() {
        *e = e.try_remap_columns(&|c| get(map, c))?;
    }
    Ok(())
}

fn remap_opt(e: &mut Option<Expr>, map: &ColMap) -> Result<()> {
    e.iter_mut().try_for_each(|e| remap(e, map))
}
