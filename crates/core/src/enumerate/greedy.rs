//! Left-deep greedy enumeration (minimum intermediate result).
//!
//! Start from the smallest filtered relation; at every step join in the
//! connected neighbour whose join yields the fewest rows (cost as the
//! tiebreak). Polynomial — O(n²) join evaluations — and good on chains, but
//! blind to globally-better orders; the plan-regret test holds it to
//! never beating DP.

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
            .any(|&r| ctx.graph.connected(current.mask, 1u64 << r));
        let joined = &current;
        let candidates = remaining
            .iter()
            .map(|&r| (r, ctx.graph.connected(joined.mask, 1u64 << r)))
            .filter(|&(_, connected)| connected || !any_connected)
            .flat_map(|(r, connected)| {
                let bases = ctx.base_subplans(r).iter();
                bases.flat_map(move |base| ctx.join_candidates(joined, base, !connected))
            })
            .map(|cand| ((), cand));
        let best = keep_least(ctx, candidates, |c| (c.rows, ctx.model.total(c.cost)));
        current = best
            .map(|((), cand)| cand)
            .ok_or_else(|| {
                EvoptError::Internal(
                    "greedy: no join candidate (cross join should be a fallback)".into(),
                )
            })?
            .into_subplan(ctx)?;
    }

    ctx.pick_final(vec![current])
}

/// The candidate a heuristic keeps of those it considers: the first whose
/// `key` is least. Each is traced as considered and, once it loses a
/// comparison, as pruned (not chosen). Greedy, GOO and QuickPick choose
/// through this; the tag carries what a caller needs beside the winner.
pub(super) fn keep_least<'p, T, K: PartialOrd>(
    ctx: &JoinContext,
    candidates: impl IntoIterator<Item = (T, Candidate<'p>)>,
    key: impl Fn(&Candidate<'p>) -> K,
) -> Option<(T, Candidate<'p>)> {
    let mut best: Option<(T, Candidate<'p>)> = None;
    for (tag, cand) in candidates {
        ctx.trace_consider(&cand);
        if best.as_ref().is_none_or(|(_, b)| key(&cand) < key(b)) {
            if let Some((_, prev)) = best.replace((tag, cand)) {
                ctx.trace_prune(&prev, PruneReason::NotChosen);
            }
        } else {
            ctx.trace_prune(&cand, PruneReason::NotChosen);
        }
    }
    best
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
