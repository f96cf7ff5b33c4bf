//! DPccp's plan space: each **connected subgraph / connected complement
//! pair** of the predicate graph, emitted exactly once (Moerkotte &
//! Neumann, VLDB 2006 — a later-era refinement included here as the natural
//! "future work" of the 1977 enumeration story). BushyDp's space lists
//! every partition of every set, O(3ⁿ), and the driver drops the
//! unconnected ones; this listing is proportional to the *valid* joins:
//! O(n²) on chains, O(n·2ⁿ) on stars, as many only on cliques. On a
//! disconnected graph, where cross products are required, DPccp searches
//! BushyDp's space instead.

use std::collections::BTreeMap;

use evopt_plan::join_graph::RelMask;

use super::dp::{subsets, Space, Split};
use super::JoinContext;

/// DPccp's space on `ctx`'s graph: each csg–cmp pair, both ways round, in
/// the order it is emitted.
pub fn space(ctx: &JoinContext) -> Space {
    if !ctx.graph.subgraph_connected(ctx.graph.all_mask()) {
        return Space::Bushy;
    }
    let mut pairs = BTreeMap::new();
    enumerate_csg(ctx, &mut |csg| enumerate_cmp(ctx, csg, &mut pairs));
    Space::Connected(pairs)
}

/// Visits each connected subgraph once: from each start node, highest
/// first, grown only into nodes above it.
fn enumerate_csg(ctx: &JoinContext, visit: &mut impl FnMut(RelMask)) {
    for i in (0..ctx.rels.len()).rev() {
        visit(1u64 << i);
        grow(ctx, 1u64 << i, b_set(i), visit);
    }
}

/// Bits strictly below `i`, plus `i` itself: the canonical "forbidden"
/// prefix that makes every subgraph enumerate exactly once.
fn b_set(i: usize) -> RelMask {
    (1u64 << i) | ((1u64 << i) - 1)
}

/// Visits every connected growth of `s` that avoids `x`: first `s` plus
/// each set of its neighbours, then the growths of each of those.
fn grow(ctx: &JoinContext, s: RelMask, x: RelMask, visit: &mut impl FnMut(RelMask)) {
    let neighbours = ctx.graph.neighbours(s) & !x;
    if neighbours == 0 {
        return;
    }
    for sub in subsets(neighbours) {
        visit(s | sub);
    }
    for sub in subsets(neighbours) {
        grow(ctx, s | sub, x | neighbours, visit);
    }
}

/// Emits each connected complement of the connected set `s1` joined to it.
/// A complement grows from a neighbour of `s1`, so each one is connected to
/// `s1`.
fn enumerate_cmp(ctx: &JoinContext, s1: RelMask, pairs: &mut BTreeMap<RelMask, Vec<Split>>) {
    let x = b_set(s1.trailing_zeros() as usize) | s1;
    let neighbours = ctx.graph.neighbours(s1) & !x;
    let mut emit = |s2: RelMask| {
        let splits = pairs.entry(s1 | s2).or_default();
        splits.extend([(s1, s2), (s2, s1)]);
    };
    // Descending start nodes, same once-only discipline as csg.
    for i in (0..64).rev().filter(|&i| neighbours & (1u64 << i) != 0) {
        emit(1u64 << i);
        // Grow it avoiding x, s1, and neighbours below i (handled by their
        // own start).
        grow(ctx, 1u64 << i, x | (b_set(i) & neighbours), &mut emit);
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
