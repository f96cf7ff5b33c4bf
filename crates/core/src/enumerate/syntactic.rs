//! The unoptimized baseline: syntactic join order, sequential scans, block
//! nested loops.
//!
//! This is what "no optimizer" meant in the foundational era: evaluate the
//! FROM clause left to right, scan every relation sequentially, nested-loop
//! every join. The `baseline` class of `tests/plan_regret.rs` measures
//! System R's plan against this one.

use evopt_common::{EvoptError, Result};
use evopt_obs::PruneReason;

use super::{Candidate, JoinContext, Method, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<SubPlan> {
    let n = ctx.rels.len();
    let mut current = ctx.seq_base(0)?;
    for r in 1..n {
        let right = ctx.seq_base(r)?;
        let mut chosen: Option<Candidate> = None;
        for c in ctx.join_candidates(&current, &right, true) {
            ctx.trace_consider(&c);
            if chosen.is_none() && c.method == Method::BlockNestedLoop {
                chosen = Some(c);
            } else {
                ctx.trace_prune(&c, PruneReason::NotChosen);
            }
        }
        current = chosen
            .ok_or_else(|| EvoptError::Internal("BNL candidate always generated".into()))?
            .into_subplan(ctx)?;
    }
    ctx.pick_final(vec![current])
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn preserves_syntactic_order_and_uses_bnl_only() {
        let f = chain3();
        let plan = enumerate(&f.ctx(), Strategy::Syntactic).unwrap();
        assert_eq!(plan.plan.scan_order(), vec!["t", "u", "v"]);
        assert!(plan
            .plan
            .join_methods()
            .iter()
            .all(|m| *m == "BlockNestedLoopJoin"));
    }

    #[test]
    fn optimizer_beats_baseline_substantially() {
        // The syntactic baseline's claim in miniature.
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let base = enumerate(&ctx, Strategy::Syntactic).unwrap();
            let opt = enumerate(&ctx, Strategy::SystemR).unwrap();
            let ratio = ctx.model.total(base.cost) / ctx.model.total(opt.cost);
            assert!(ratio > 2.0, "only {ratio:.1}x better than baseline");
        }
    }
}
