//! System R dynamic programming: optimal left-deep trees with interesting
//! orders and deferred cross products.
//!
//! `best(S)` for every relation subset `S` is built by extending every
//! `best(S \ {r})` with relation `r` as the inner (right) input. Plans are
//! kept per `(subset, produced order)` equivalence class, so a costlier plan
//! that delivers a useful sort order survives to compete where the order
//! pays off (a merge join above, or the query's ORDER BY). Cartesian
//! products are considered only for subsets with no connected split.

use evopt_common::Result;

use super::{Candidate, JoinContext, PlanTable, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<SubPlan> {
    let n = ctx.rels.len();
    let all = ctx.graph.all_mask();
    let mut table = PlanTable::new();

    let mut level_started = std::time::Instant::now();
    for r in 0..n {
        for sp in ctx.base_subplans(r) {
            ctx.admit(&mut table, Candidate::built(sp))?;
        }
    }
    ctx.trace_level(1, table.len(), level_started);

    for size in 2..=n as u32 {
        level_started = std::time::Instant::now();
        for mask in 1..=all {
            if mask.count_ones() != size {
                continue;
            }
            // Deferred cross products: if any split (S \ r, r) is connected,
            // only connected splits are considered.
            let rels: Vec<usize> = (0..n).filter(|&r| mask & (1u64 << r) != 0).collect();
            let has_connected = rels
                .iter()
                .any(|&r| ctx.is_connected(mask ^ (1u64 << r), 1u64 << r));
            for &r in &rels {
                let rbit = 1u64 << r;
                let left_mask = mask ^ rbit;
                let connected = ctx.is_connected(left_mask, rbit);
                if has_connected && !connected {
                    continue;
                }
                for left in table.plans_for(left_mask) {
                    for right in ctx.base_subplans(r) {
                        for cand in ctx.join_candidates(&left, right, !connected) {
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
    use crate::enumerate::fixtures::{build, chain3, star4, RelSpec};
    use crate::enumerate::{enumerate, JoinContext, Strategy, SubPlan};
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

    /// Every left-deep plan of `ctx`'s relations: each order, each access
    /// path of each relation, each join method of each step.
    fn every_left_deep_plan(ctx: &JoinContext) -> Vec<SubPlan> {
        fn extend(ctx: &JoinContext, left: SubPlan, out: &mut Vec<SubPlan>) {
            let rest = ctx.graph.all_mask() & !left.mask;
            if rest == 0 {
                return out.push(left);
            }
            for r in (0..ctx.rels.len()).filter(|r| rest & (1u64 << r) != 0) {
                for right in ctx.base_subplans(r) {
                    let cross = !ctx.is_connected(left.mask, right.mask);
                    for cand in ctx.join_candidates(&left, right, cross) {
                        extend(ctx, cand.into_subplan(ctx).unwrap(), out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for r in 0..ctx.rels.len() {
            for leaf in ctx.base_subplans(r) {
                extend(ctx, leaf.clone(), &mut out);
            }
        }
        out
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
        let total = |sp: &SubPlan| ctx.model.total(sp.cost);
        let every = every_left_deep_plan(&ctx);
        let least = every.iter().map(total).fold(f64::INFINITY, f64::min);
        let got = total(&plan);
        assert!(
            (got - least).abs() <= 1e-9 * least,
            "{got} against {least}:\n{}",
            plan.plan
        );
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
