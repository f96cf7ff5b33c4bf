//! Bushy dynamic programming: exhaustive over all tree shapes.
//!
//! For every subset, every partition into two non-empty halves is tried
//! (each counted once via the lowest-bit convention), so bushy trees —
//! e.g. `(a ⋈ b) ⋈ (c ⋈ d)` — are reachable. Strictly more general than
//! left-deep DP, and strictly more expensive: the partition count is
//! 3^n-ish versus n·2^n.

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
            let low = 1u64 << mask.trailing_zeros();
            // Does any partition have a connecting predicate?
            let mut has_connected = false;
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                if sub & low != 0 && ctx.is_connected(sub, mask ^ sub) {
                    has_connected = true;
                    break;
                }
                sub = (sub - 1) & mask;
            }
            // Enumerate partitions (sub ∋ lowest bit ⇒ each pair once).
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                if sub & low != 0 {
                    let other = mask ^ sub;
                    let connected = ctx.is_connected(sub, other);
                    if !has_connected || connected {
                        for l in table.plans_for(sub) {
                            for r in table.plans_for(other) {
                                for cand in ctx.join_candidates(&l, &r, !connected) {
                                    ctx.admit(&mut table, cand)?;
                                }
                                for cand in ctx.join_candidates(&r, &l, !connected) {
                                    ctx.admit(&mut table, cand)?;
                                }
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
        ctx.trace_level(size, table.len(), level_started);
    }

    ctx.trace_memo(table.len());
    ctx.pick_final(table.into_plans(all))
}

#[cfg(test)]
mod tests {
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
