//! Greedy Operator Ordering (GOO).
//!
//! Unlike left-deep greedy, GOO maintains a *forest* of subplans and
//! repeatedly merges the pair whose join result is smallest — so it can
//! produce bushy shapes that left-deep greedy cannot. Still polynomial
//! (O(n³) pair evaluations), still heuristic.

use evopt_common::{EvoptError, Result};

use super::greedy::keep_least;
use super::{JoinContext, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<SubPlan> {
    let n = ctx.rels.len();
    let mut forest: Vec<SubPlan> = (0..n)
        .map(|r| ctx.cheapest_base(r))
        .collect::<Result<_>>()?;

    while forest.len() > 1 {
        let any_connected =
            pairs(forest.len()).any(|(i, j)| ctx.is_connected(forest[i].mask, forest[j].mask));
        let trees = &forest;
        let candidates = pairs(trees.len())
            .map(|(i, j)| (i, j, ctx.is_connected(trees[i].mask, trees[j].mask)))
            .filter(|&(_, _, connected)| connected || !any_connected)
            .flat_map(|(i, j, connected)| {
                [(i, j), (j, i)].into_iter().flat_map(move |(a, b)| {
                    let joins = ctx.join_candidates(&trees[a], &trees[b], !connected);
                    joins.into_iter().map(move |cand| ((i, j), cand))
                })
            });
        let best = keep_least(ctx, candidates, |c| (c.rows, ctx.model.total(c.cost)));
        let ((i, j), merged) = best.ok_or_else(|| {
            EvoptError::Internal("goo: no join candidate (cross join should be a fallback)".into())
        })?;
        let merged = merged.into_subplan(ctx)?;
        // Remove the higher index first to keep the lower index valid.
        let (hi, lo) = (i.max(j), i.min(j));
        forest.swap_remove(hi);
        forest.swap_remove(lo);
        forest.push(merged);
    }

    let last = forest
        .pop()
        .ok_or_else(|| EvoptError::Plan("goo: no relations to enumerate".into()))?;
    ctx.pick_final(vec![last])
}

fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn covers_all_relations() {
        let f = star4();
        let plan = enumerate(&f.ctx(), Strategy::Goo).unwrap();
        assert_eq!(plan.mask, f.ctx().graph.all_mask());
        assert_eq!(plan.plan.scan_order().len(), 4);
    }

    #[test]
    fn bushy_dp_never_loses_to_goo() {
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let dp = enumerate(&ctx, Strategy::BushyDp).unwrap();
            let goo = enumerate(&ctx, Strategy::Goo).unwrap();
            assert!(
                ctx.model.total(dp.cost) <= ctx.model.total(goo.cost) + 1e-6,
                "bushy dp {} > goo {}",
                ctx.model.total(dp.cost),
                ctx.model.total(goo.cost)
            );
        }
    }
}
