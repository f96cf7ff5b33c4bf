//! QuickPick: random sampling of join orders.
//!
//! Draw `samples` random left-deep orders (seeded, reproducible), build each
//! with the cheapest method per step, keep the best. A baseline between
//! "no optimization" and exhaustive search: quality improves with samples,
//! never reaches DP reliably on hard graphs.

use evopt_common::{EvoptError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::greedy::keep_least;
use super::{JoinContext, SubPlan};

pub fn run(ctx: &JoinContext, samples: usize, seed: u64) -> Result<SubPlan> {
    if samples == 0 {
        return Err(EvoptError::Plan(
            "QuickPick needs at least one sample".into(),
        ));
    }
    let n = ctx.rels.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut finals: Vec<SubPlan> = Vec::with_capacity(samples);

    for _ in 0..samples {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut current = ctx.cheapest_base(order[0])?;
        for &r in &order[1..] {
            // Random orders may force cross products; always allowed.
            let joined = &current;
            let joins = ctx.base_subplans(r).iter();
            let joins = joins.flat_map(|base| ctx.join_candidates(joined, base, true));
            let best = keep_least(ctx, joins.map(|cand| ((), cand)), |c| {
                ctx.model.total(c.cost)
            });
            current = best
                .map(|((), cand)| cand)
                .ok_or_else(|| {
                    EvoptError::Internal(
                        "quickpick: no join candidate (cross join should be a fallback)".into(),
                    )
                })?
                .into_subplan(ctx)?;
        }
        finals.push(current);
    }

    ctx.pick_final(finals)
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn deterministic_for_same_seed() {
        let f = chain3();
        let ctx = f.ctx();
        let a = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 8,
                seed: 7,
            },
        )
        .unwrap();
        let b = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 8,
                seed: 7,
            },
        )
        .unwrap();
        assert_eq!(ctx.model.total(a.cost), ctx.model.total(b.cost));
        assert_eq!(a.plan.scan_order(), b.plan.scan_order());
    }

    #[test]
    fn more_samples_never_worse() {
        let f = star4();
        let ctx = f.ctx();
        let few = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 1,
                seed: 3,
            },
        )
        .unwrap();
        let many = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 32,
                seed: 3,
            },
        )
        .unwrap();
        assert!(
            ctx.model.total(many.cost) <= ctx.model.total(few.cost) + 1e-6,
            "32 samples {} > 1 sample {}",
            ctx.model.total(many.cost),
            ctx.model.total(few.cost)
        );
    }

    #[test]
    fn dp_never_loses_to_quickpick() {
        let f = star4();
        let ctx = f.ctx();
        let dp = enumerate(&ctx, Strategy::SystemR).unwrap();
        let qp = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 16,
                seed: 1,
            },
        )
        .unwrap();
        assert!(ctx.model.total(dp.cost) <= ctx.model.total(qp.cost) + 1e-6);
    }

    #[test]
    fn zero_samples_is_an_error() {
        let f = chain3();
        assert!(enumerate(
            &f.ctx(),
            Strategy::QuickPick {
                samples: 0,
                seed: 0
            }
        )
        .is_err());
    }
}
