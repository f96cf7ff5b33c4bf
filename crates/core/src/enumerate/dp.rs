//! Dynamic programming over relation sets: one driver over three plan
//! spaces that differ only in their splits, as DPsize, DPsub and DPccp do in
//! Moerkotte & Neumann ("Analysis of Two Existing and One New Dynamic
//! Programming Algorithm", VLDB 2006).
//!
//! [`run`] builds each relation set's plans, smallest sets first, from the
//! plans of each `(outer, inner)` split its [`Space`] declares. Plans are
//! kept per `(set, produced order)`, so a costlier plan with a useful order
//! survives to compete where the order pays off (a merge join above, or the
//! query's ORDER BY). Cross products are deferred in every space: a set's
//! unconnected splits are joined only when none of its splits is connected.

use std::collections::BTreeMap;
use std::time::Instant;

use evopt_common::Result;
use evopt_plan::join_graph::RelMask;

use super::{Candidate, JoinContext, PlanTable, SubPlan};

/// An ordered `(outer, inner)` split of a relation set.
pub type Split = (RelMask, RelMask);

/// The splits a DP joins each relation set from.
pub enum Space {
    /// System R: `(S \ {r}, {r})`, left-deep trees (n·2ⁿ splits).
    LeftDeep,
    /// BushyDp: every two halves of `S`, both ways round (~3ⁿ splits). A
    /// half may itself be a cross product (on a chain a–b–c–d,
    /// `((a × d) ⋈ b) ⋈ c`).
    Bushy,
    /// DPccp: each connected subgraph and connected complement a predicate
    /// joins, both ways round, listed by [`super::dp_ccp::space`]. No half
    /// is a cross product, so its optimum is never cheaper than BushyDp's.
    Connected(BTreeMap<RelMask, Vec<Split>>),
}

/// `mask` and its non-empty subsets, in descending order.
pub(super) fn subsets(mask: RelMask) -> impl Iterator<Item = RelMask> {
    std::iter::successors(Some(mask), move |&s| {
        Some((s - 1) & mask).filter(|&s| s != 0)
    })
}

impl Space {
    fn splits(&self, mask: RelMask) -> Vec<Split> {
        let low = mask & mask.wrapping_neg();
        match self {
            Space::LeftDeep => (0..64 - mask.leading_zeros())
                .map(|r| 1u64 << r)
                .filter(|&bit| mask & bit != 0)
                .map(|bit| (mask ^ bit, bit))
                .collect(),
            Space::Bushy => subsets(mask)
                .skip(1)
                .filter(|&s| s & low != 0)
                .flat_map(|s| [(s, mask ^ s), (mask ^ s, s)])
                .collect(),
            Space::Connected(splits) => splits.get(&mask).cloned().unwrap_or_default(),
        }
    }
}

/// The splits of `mask` the search joins, each with whether it is a cross
/// product: the connected ones, or every one when none is connected.
pub(super) fn joined_splits(ctx: &JoinContext, space: &Space, mask: RelMask) -> Vec<(Split, bool)> {
    let splits = space.splits(mask).into_iter();
    let mut joined: Vec<_> = splits
        .map(|(outer, inner)| ((outer, inner), !ctx.graph.connected(outer, inner)))
        .collect();
    if joined.iter().any(|&(_, cross)| !cross) {
        joined.retain(|&(_, cross)| !cross);
    }
    joined
}

/// The cheapest plan over every relation of `ctx` in `space`.
pub fn run(ctx: &JoinContext, space: &Space) -> Result<SubPlan> {
    let all = ctx.graph.all_mask();
    let mut table = PlanTable::new();
    let mut level_started = Instant::now();
    for r in 0..ctx.rels.len() {
        for sp in ctx.base_subplans(r) {
            ctx.admit(&mut table, Candidate::built(sp))?;
        }
    }
    ctx.trace_level(1, table.len(), level_started);

    for size in 2..=ctx.rels.len() as u32 {
        level_started = Instant::now();
        for mask in (1..=all).filter(|m| m.count_ones() == size) {
            for ((outer, inner), cross) in joined_splits(ctx, space, mask) {
                let inners = table.plans_for(inner);
                for l in &table.plans_for(outer) {
                    for r in &inners {
                        for cand in ctx.join_candidates(l, r, cross) {
                            ctx.admit(&mut table, cand)?;
                        }
                    }
                }
            }
        }
        ctx.trace_level(size, table.len(), level_started);
    }

    ctx.trace_memo(table.len());
    ctx.pick_final(table.into_plans(all))
}

#[cfg(test)]
mod tests {
    use super::{joined_splits, Space};
    use crate::enumerate::fixtures::{self, for_each_oracle_case, random, Shape};
    use crate::enumerate::{dp_ccp, JoinContext, Strategy};

    /// Each DP joins, per relation set, exactly the splits the oracle's own
    /// brute-force listing gives its space, each once: on every oracle case,
    /// and on chain, star, cycle and clique graphs of 5 and 6 relations.
    #[test]
    fn splits_match_the_oracles_spaces() {
        let check = |ctx: &JoinContext, case: &str| {
            for strategy in [Strategy::SystemR, Strategy::BushyDp, Strategy::DpCcp] {
                let space = match strategy {
                    Strategy::SystemR => Space::LeftDeep,
                    Strategy::BushyDp => Space::Bushy,
                    _ => dp_ccp::space(ctx),
                };
                let oracle = fixtures::Space::of(strategy, ctx);
                for mask in (1..=ctx.graph.all_mask()).filter(|m| m.count_ones() > 1) {
                    let joined = joined_splits(ctx, &space, mask).into_iter();
                    let mut got: Vec<_> = joined.map(|(split, _)| split).collect();
                    let mut want = oracle.splits(ctx, mask);
                    got.sort_unstable();
                    want.sort_unstable();
                    let name = strategy.name();
                    assert_eq!(got, want, "{name} on {case}, set {mask:#b}");
                }
            }
        };
        for_each_oracle_case(check);
        for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
            for (n, seed) in [5, 6].into_iter().flat_map(|n| (0..4).map(move |s| (n, s))) {
                check(
                    &random(shape, n, seed).ctx(),
                    &format!("{shape:?} n={n} seed={seed}"),
                );
            }
        }
    }

    /// System R's space: its tests.
    mod system_r {
        use crate::enumerate::fixtures::{
            assert_optimal, build, chain3, for_each_oracle_case, star4, RelSpec,
        };
        use crate::enumerate::{enumerate, Strategy};
        use crate::physical::PhysOp;

        #[test]
        fn covers_all_relations() {
            let f = chain3();
            let ctx = f.ctx();
            let plan = enumerate(&ctx, Strategy::SystemR).unwrap();
            assert_eq!(plan.mask, ctx.graph.all_mask());
            let order = plan.plan.scan_order();
            assert_eq!(order.len(), 3);
        }

        #[test]
        fn chain_builds_every_hash_join_on_its_smaller_input() {
            // t(1k) — u(10k) — v(100k). A build row costs more than a probe
            // row, so the cheapest left-deep plan probes with the large side
            // and builds on the small one, whichever end it starts from; and
            // it is the cheapest of every left-deep plan there is.
            let f = chain3();
            let ctx = f.ctx();
            let plan = enumerate(&ctx, Strategy::SystemR).unwrap();
            let mut hash_joins = 0;
            for (_, node) in plan.plan.pre_order() {
                if let PhysOp::HashJoin { left, right, .. } = &node.op {
                    hash_joins += 1;
                    assert!(right.est_rows <= left.est_rows, "plan:\n{}", plan.plan);
                }
            }
            assert!(hash_joins > 0, "plan:\n{}", plan.plan);
            assert_optimal(&ctx, Strategy::SystemR, "chain3");
        }

        #[test]
        fn matches_the_exhaustive_oracle() {
            for_each_oracle_case(|ctx, case| assert_optimal(ctx, Strategy::SystemR, case));
        }

        #[test]
        fn star_avoids_cartesian_when_connected() {
            let f = star4();
            let plan = enumerate(&f.ctx(), Strategy::SystemR).unwrap();
            // The fact table joins each dimension directly; with deferred cross
            // products the plan contains no cross join (every join has a
            // predicate or key).
            fn no_pure_cross(p: &crate::physical::PhysicalPlan) -> bool {
                use crate::physical::PhysOp;
                let ok = match &p.op {
                    PhysOp::BlockNestedLoopJoin { predicate, .. }
                    | PhysOp::NestedLoopJoin { predicate, .. } => predicate.is_some(),
                    _ => true,
                };
                ok && p.children().iter().all(|c| no_pure_cross(c))
            }
            assert!(no_pure_cross(&plan.plan), "plan:\n{}", plan.plan);
        }

        #[test]
        fn disconnected_graph_still_plans_via_cross() {
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
                &[], // no edges: forced cartesian
            );
            let plan = enumerate(&f.ctx(), Strategy::SystemR).unwrap();
            assert_eq!(plan.mask, 0b11);
            assert!((plan.rows - 200.0).abs() < 1.0);
        }

        #[test]
        fn required_order_prefers_order_producing_plan_or_sorts() {
            let f = chain3();
            let mut ctx = f.ctx();
            ctx.required_order = Some(4); // v.c0 (indexed on v)
            let plan = enumerate(&ctx, Strategy::SystemR).unwrap();
            assert_eq!(plan.order, Some(4));
        }

        #[test]
        fn interesting_orders_never_hurt() {
            // With order tracking off the final cost can only be >= (it's a
            // strict subset of the tracked search space) for an ordered query.
            let f = chain3();
            let mut with = f.ctx();
            with.required_order = Some(0);
            let mut without = f.ctx_tracking(false);
            without.required_order = Some(0);
            let p_with = enumerate(&with, Strategy::SystemR).unwrap();
            let p_without = enumerate(&without, Strategy::SystemR).unwrap();
            assert!(
                with.model.total(p_with.cost) <= without.model.total(p_without.cost) + 1e-6,
                "tracked {} > untracked {}",
                with.model.total(p_with.cost),
                without.model.total(p_without.cost)
            );
        }

        #[test]
        fn two_relation_join() {
            let f = build(
                &[
                    RelSpec {
                        name: "a",
                        rows: 1000.0,
                        ndv: [1000, 100],
                        indexed: false,
                    },
                    RelSpec {
                        name: "b",
                        rows: 1000.0,
                        ndv: [1000, 100],
                        indexed: false,
                    },
                ],
                &[(0, 0, 1, 0)],
            );
            let plan = enumerate(&f.ctx(), Strategy::SystemR).unwrap();
            assert_eq!(plan.mask, 0b11);
            // |a ⋈ b| on ndv-1000 keys ≈ 1000.
            assert!((plan.rows - 1000.0).abs() / 1000.0 < 0.01);
        }
    }

    /// BushyDp's space: its tests.
    mod bushy {
        use crate::enumerate::fixtures::{
            assert_optimal, build, chain3, for_each_oracle_case, RelSpec,
        };
        use crate::enumerate::{enumerate, Strategy};

        #[test]
        fn matches_the_exhaustive_oracle() {
            for_each_oracle_case(|ctx, case| assert_optimal(ctx, Strategy::BushyDp, case));
        }

        #[test]
        fn matches_or_beats_left_deep() {
            let f = chain3();
            let ctx = f.ctx();
            let bushy = enumerate(&ctx, Strategy::BushyDp).unwrap();
            let leftdeep = enumerate(&ctx, Strategy::SystemR).unwrap();
            assert!(
                ctx.model.total(bushy.cost) <= ctx.model.total(leftdeep.cost) + 1e-6,
                "bushy {} > left-deep {}",
                ctx.model.total(bushy.cost),
                ctx.model.total(leftdeep.cost)
            );
        }

        #[test]
        fn finds_bushy_shape_when_it_wins() {
            // Two heavy chains meeting in the middle: a(10k)—b(10) and
            // c(10)—d(10k), linked b—c. Joining the two small middles first on
            // each side (bushy) beats any left-deep order... at minimum bushy
            // must still cover everything and cost no more than left-deep.
            let f = build(
                &[
                    RelSpec {
                        name: "a",
                        rows: 10_000.0,
                        ndv: [10_000, 10],
                        indexed: false,
                    },
                    RelSpec {
                        name: "b",
                        rows: 10.0,
                        ndv: [10, 10],
                        indexed: false,
                    },
                    RelSpec {
                        name: "c",
                        rows: 10.0,
                        ndv: [10, 10],
                        indexed: false,
                    },
                    RelSpec {
                        name: "d",
                        rows: 10_000.0,
                        ndv: [10_000, 10],
                        indexed: false,
                    },
                ],
                // a.c1=b.c0, b.c1=c.c0, c.c1=d.c1
                &[(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 3, 1)],
            );
            let ctx = f.ctx();
            let bushy = enumerate(&ctx, Strategy::BushyDp).unwrap();
            let leftdeep = enumerate(&ctx, Strategy::SystemR).unwrap();
            assert_eq!(bushy.mask, ctx.graph.all_mask());
            assert!(ctx.model.total(bushy.cost) <= ctx.model.total(leftdeep.cost) + 1e-6);
        }

        #[test]
        fn two_relations_degenerate_to_single_join() {
            let f = build(
                &[
                    RelSpec {
                        name: "a",
                        rows: 100.0,
                        ndv: [100, 10],
                        indexed: false,
                    },
                    RelSpec {
                        name: "b",
                        rows: 100.0,
                        ndv: [100, 10],
                        indexed: false,
                    },
                ],
                &[(0, 0, 1, 0)],
            );
            let plan = enumerate(&f.ctx(), Strategy::BushyDp).unwrap();
            assert_eq!(plan.plan.join_methods().len(), 1);
        }
    }
}
