//! DPccp: bushy dynamic programming over **connected subgraph /
//! complement pairs** (Moerkotte & Neumann, "Analysis of Two Existing and
//! One New Dynamic Programming Algorithm", VLDB 2006 — a later-era
//! refinement included here as the natural "future work" of the 1977
//! enumeration story).
//!
//! Naive bushy DP (`dp_bushy`) enumerates *every* partition of every
//! subset — O(3ⁿ) — and discards the disconnected ones. DPccp walks the
//! predicate graph so that each connected-subgraph/connected-complement
//! pair is emitted exactly once, making enumeration cost proportional to
//! the number of *valid* joins: O(n²) on chains, O(n·2ⁿ) on stars, equal
//! to naive only on cliques, so far less work on sparse graphs.
//!
//! The plan space is smaller than naive bushy DP's, not the same: DPccp
//! never joins a half that is itself a cross product, while `dp_bushy`
//! defers cross products and may still use one inside a connected set (on
//! a chain a–b–c–d, `((a × d) ⋈ b) ⋈ c`). Its optimum is therefore never
//! cheaper than naive bushy DP's and sometimes dearer.
//!
//! On a disconnected predicate graph (cartesian products required) DPccp's
//! preconditions fail; we fall back to naive bushy DP.

use evopt_common::Result;
use evopt_plan::join_graph::RelMask;

use super::{dp_bushy, Candidate, JoinContext, PlanTable, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<SubPlan> {
    let n = ctx.rels.len();
    let all = ctx.graph.all_mask();
    if n > 1 && !ctx.graph.subgraph_connected(all) {
        // Cross products needed: DPccp doesn't apply, use naive bushy.
        return dp_bushy::run(ctx);
    }
    let mut table = PlanTable::new();
    let level_started = std::time::Instant::now();
    for r in 0..n {
        for sp in ctx.base_subplans(r) {
            ctx.admit(&mut table, Candidate::built(sp))?;
        }
    }
    ctx.trace_level(1, table.len(), level_started);

    // Emit all csg-cmp pairs; for each, join best plans both ways.
    let mut pairs: Vec<(RelMask, RelMask)> = Vec::new();
    enumerate_csg(ctx, &mut pairs);
    // Sort by combined size so sub-plans exist before they're needed.
    pairs.sort_by_key(|(a, b)| (a | b).count_ones());
    for (s1, s2) in pairs {
        for l in table.plans_for(s1) {
            for r in table.plans_for(s2) {
                for cand in ctx.join_candidates(&l, &r, false) {
                    ctx.admit(&mut table, cand)?;
                }
                for cand in ctx.join_candidates(&r, &l, false) {
                    ctx.admit(&mut table, cand)?;
                }
            }
        }
    }
    ctx.trace_memo(table.len());
    ctx.pick_final(table.into_plans(all))
}

/// Bits strictly below `i`, plus `i` itself: the canonical "forbidden"
/// prefix that makes every subgraph enumerate exactly once.
fn b_set(i: usize) -> RelMask {
    (1u64 << i) | ((1u64 << i) - 1)
}

fn lowest(mask: RelMask) -> usize {
    mask.trailing_zeros() as usize
}

/// Iterate all non-empty subsets of `mask`.
fn subsets(mask: RelMask) -> Vec<RelMask> {
    let mut out = Vec::new();
    let mut s = mask;
    while s != 0 {
        out.push(s);
        s = (s - 1) & mask;
    }
    out
}

fn enumerate_csg(ctx: &JoinContext, pairs: &mut Vec<(RelMask, RelMask)>) {
    let n = ctx.rels.len();
    for i in (0..n).rev() {
        let s = 1u64 << i;
        enumerate_cmp(ctx, s, pairs);
        enumerate_csg_rec(ctx, s, b_set(i), pairs);
    }
}

fn enumerate_csg_rec(
    ctx: &JoinContext,
    s: RelMask,
    x: RelMask,
    pairs: &mut Vec<(RelMask, RelMask)>,
) {
    let neighbours = ctx.graph.neighbours(s) & !x;
    if neighbours == 0 {
        return;
    }
    for sub in subsets(neighbours) {
        let grown = s | sub;
        enumerate_cmp(ctx, grown, pairs);
    }
    for sub in subsets(neighbours) {
        enumerate_csg_rec(ctx, s | sub, x | neighbours, pairs);
    }
}

fn enumerate_cmp(ctx: &JoinContext, s1: RelMask, pairs: &mut Vec<(RelMask, RelMask)>) {
    let x = b_set(lowest(s1)) | s1;
    let neighbours = ctx.graph.neighbours(s1) & !x;
    if neighbours == 0 {
        return;
    }
    // Descending start nodes, same once-only discipline as csg.
    let mut starts: Vec<usize> = (0..64).filter(|&i| neighbours & (1u64 << i) != 0).collect();
    starts.reverse();
    for i in starts {
        let s2 = 1u64 << i;
        pairs.push((s1, s2));
        // Grow s2 avoiding x, s1, and neighbours below i (handled by their
        // own start).
        let forbidden = x | (b_set(i) & neighbours);
        enumerate_cmp_rec(ctx, s1, s2, forbidden, pairs);
    }
}

fn enumerate_cmp_rec(
    ctx: &JoinContext,
    s1: RelMask,
    s2: RelMask,
    x: RelMask,
    pairs: &mut Vec<(RelMask, RelMask)>,
) {
    let neighbours = ctx.graph.neighbours(s2) & !x;
    if neighbours == 0 {
        return;
    }
    for sub in subsets(neighbours) {
        let grown = s2 | sub;
        if ctx.graph.subgraph_connected(grown) && ctx.graph.connected(s1, grown) {
            pairs.push((s1, grown));
        }
    }
    for sub in subsets(neighbours) {
        enumerate_cmp_rec(ctx, s1, s2 | sub, x | neighbours, pairs);
    }
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{
        assert_optimal, build, chain3, for_each_oracle_case, random, star4, RelSpec, Shape,
    };
    use crate::enumerate::{enumerate, JoinContext, Strategy};

    #[test]
    fn matches_the_exhaustive_oracle() {
        for_each_oracle_case(|ctx, case| assert_optimal(ctx, Strategy::DpCcp, case));
    }

    /// BushyDp's deferred cross products reach plans DPccp never builds
    /// (on a chain a–b–c–d, `((a × d) ⋈ b) ⋈ c`), so BushyDp's optimum is
    /// never dearer than DPccp's and sometimes cheaper.
    #[test]
    fn bushy_dp_never_costs_more_and_sometimes_less() {
        let total =
            |ctx: &JoinContext, strategy| ctx.model.total(enumerate(ctx, strategy).unwrap().cost);
        for_each_oracle_case(|ctx, case| {
            let (bushy, ccp) = (total(ctx, Strategy::BushyDp), total(ctx, Strategy::DpCcp));
            assert!(
                bushy <= ccp * (1.0 + 1e-9),
                "{case}: BushyDp {bushy} against DPccp {ccp}"
            );
        });
        let star = random(Shape::Star, 4, 24);
        let ctx = star.ctx();
        let (bushy, ccp) = (total(&ctx, Strategy::BushyDp), total(&ctx, Strategy::DpCcp));
        assert_eq!((bushy.round(), ccp.round()), (54_467.0, 137_860.0));
    }

    #[test]
    fn matches_naive_bushy_dp_exactly() {
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let ccp = enumerate(&ctx, Strategy::DpCcp).unwrap();
            let naive = enumerate(&ctx, Strategy::BushyDp).unwrap();
            let (a, b) = (ctx.model.total(ccp.cost), ctx.model.total(naive.cost));
            assert!(
                (a - b).abs() <= 1e-6 * b.max(1.0),
                "DPccp {a} != naive bushy {b}"
            );
            assert_eq!(ccp.mask, ctx.graph.all_mask());
        }
    }

    #[test]
    fn handles_cycles_and_cliques() {
        // Cycle: a-b, b-c, c-a.
        let f = build(
            &[
                RelSpec {
                    name: "a",
                    rows: 100.0,
                    ndv: [100, 50],
                    indexed: false,
                },
                RelSpec {
                    name: "b",
                    rows: 200.0,
                    ndv: [200, 50],
                    indexed: false,
                },
                RelSpec {
                    name: "c",
                    rows: 400.0,
                    ndv: [400, 50],
                    indexed: false,
                },
            ],
            &[(0, 0, 1, 0), (1, 1, 2, 1), (2, 0, 0, 1)],
        );
        let ctx = f.ctx();
        let ccp = enumerate(&ctx, Strategy::DpCcp).unwrap();
        let naive = enumerate(&ctx, Strategy::BushyDp).unwrap();
        assert!((ctx.model.total(ccp.cost) - ctx.model.total(naive.cost)).abs() < 1e-6);
    }

    #[test]
    fn disconnected_graph_falls_back_to_naive() {
        let f = build(
            &[
                RelSpec {
                    name: "a",
                    rows: 10.0,
                    ndv: [10, 10],
                    indexed: false,
                },
                RelSpec {
                    name: "b",
                    rows: 20.0,
                    ndv: [20, 20],
                    indexed: false,
                },
            ],
            &[],
        );
        let plan = enumerate(&f.ctx(), Strategy::DpCcp).unwrap();
        assert_eq!(plan.mask, 0b11);
        assert!((plan.rows - 200.0).abs() < 1.0);
    }
}
