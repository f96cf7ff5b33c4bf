//! Left-deep greedy enumeration (minimum intermediate result).
//!
//! Start from the smallest filtered relation; at every step join in the
//! connected neighbour whose join yields the fewest rows (cost as the
//! tiebreak). Polynomial — O(n²) join evaluations — and good on chains, but
//! blind to globally-better orders; experiment F2 quantifies the regret
//! against DP.

use evopt_common::{EvoptError, Result};
use evopt_obs::PruneReason;

use super::{Candidate, JoinContext, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<SubPlan> {
    let n = ctx.rels.len();
    let all = ctx.graph.all_mask();

    // Seed: smallest relation by filtered rows (cheapest path as tiebreak).
    let mut current: Option<SubPlan> = None;
    for r in 0..n {
        let cand = ctx.cheapest_base(r)?;
        let better = match &current {
            None => true,
            Some(cur) => (cand.rows.total_cmp(&cur.rows))
                .then(
                    ctx.model
                        .total(cand.cost)
                        .total_cmp(&ctx.model.total(cur.cost)),
                )
                .is_lt(),
        };
        if better {
            current = Some(cand);
        }
    }
    let mut current =
        current.ok_or_else(|| EvoptError::Plan("greedy: no relations to enumerate".into()))?;

    while current.mask != all {
        let remaining: Vec<usize> = (0..n)
            .filter(|&r| current.mask & (1u64 << r) == 0)
            .collect();
        let any_connected = remaining
            .iter()
            .any(|&r| ctx.is_connected(current.mask, 1u64 << r));
        let mut best: Option<Candidate> = None;
        for &r in &remaining {
            let connected = ctx.is_connected(current.mask, 1u64 << r);
            if any_connected && !connected {
                continue;
            }
            for base in ctx.base_subplans(r) {
                for cand in ctx.join_candidates(&current, base, !connected) {
                    ctx.trace_consider(&cand);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            (cand.rows, ctx.model.total(cand.cost))
                                < (b.rows, ctx.model.total(b.cost))
                        }
                    };
                    if better {
                        if let Some(prev) = best.take() {
                            ctx.trace_prune(&prev, PruneReason::NotChosen);
                        }
                        best = Some(cand);
                    } else {
                        ctx.trace_prune(&cand, PruneReason::NotChosen);
                    }
                }
            }
        }
        current = best
            .ok_or_else(|| {
                EvoptError::Internal(
                    "greedy: no join candidate (cross join should be a fallback)".into(),
                )
            })?
            .into_subplan(ctx)?;
    }

    ctx.pick_final(vec![current])
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn covers_all_and_is_left_deep() {
        let f = chain3();
        let plan = enumerate(&f.ctx(), Strategy::Greedy).unwrap();
        assert_eq!(plan.mask, f.ctx().graph.all_mask());
        assert_eq!(plan.plan.scan_order().len(), 3);
    }

    #[test]
    fn starts_from_smallest_relation() {
        let f = chain3();
        let plan = enumerate(&f.ctx(), Strategy::Greedy).unwrap();
        assert_eq!(plan.plan.scan_order()[0], "t");
    }

    #[test]
    fn never_better_than_dp() {
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let dp = enumerate(&ctx, Strategy::SystemR).unwrap();
            let gr = enumerate(&ctx, Strategy::Greedy).unwrap();
            assert!(
                ctx.model.total(dp.cost) <= ctx.model.total(gr.cost) + 1e-6,
                "dp {} > greedy {}",
                ctx.model.total(dp.cost),
                ctx.model.total(gr.cost)
            );
        }
    }
}
