//! Join-graph extraction.
//!
//! Flattens a (filter-over-)join subtree into:
//!
//! * an ordered list of **relations** (the join's leaf plans, in syntactic
//!   order), each with its global column offset, and
//! * a list of **predicates**, each tagged with the bitmask of relations it
//!   touches.
//!
//! Predicates are expressed over the *global* ordinal space — the
//! concatenation of all relation schemas in syntactic order — so the
//! enumerator can reorder relations freely and remap ordinals at the end.
//! Relation count is capped at 64 (one bit each), far beyond what the
//! exponential enumerators can chew anyway.

use evopt_common::{BinOp, Expr, Schema};

use crate::logical::LogicalPlan;

/// Bitmask over relation indices.
pub type RelMask = u64;

/// Number of set bits.
pub fn mask_len(m: RelMask) -> u32 {
    m.count_ones()
}

/// A predicate over the global ordinal space plus the set of relations it
/// references.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPredicate {
    pub expr: Expr,
    pub relations: RelMask,
}

impl GraphPredicate {
    /// If this is a two-relation equi-join `Col(i) = Col(j)`, return the two
    /// global column ordinals `(lower, higher)`.
    pub fn as_equi_join(&self) -> Option<(usize, usize)> {
        if mask_len(self.relations) != 2 {
            return None;
        }
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &self.expr
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
                return Some((*a.min(b), *a.max(b)));
            }
        }
        None
    }
}

/// A flattened join query, borrowing its leaves from the plan it came from.
#[derive(Debug, Clone)]
pub struct JoinGraph<'p> {
    /// Leaf plans in syntactic order: bare `Scan`s, or any other non-join
    /// node as an opaque leaf.
    pub relations: Vec<&'p LogicalPlan>,
    /// Cached schema of each relation.
    pub schemas: Vec<Schema>,
    /// Global column offset of each relation.
    pub offsets: Vec<usize>,
    /// All predicates from the join tree and any filters above it.
    pub predicates: Vec<GraphPredicate>,
}

impl<'p> JoinGraph<'p> {
    /// Flatten `plan`. Returns `None` if the root is not a join (single
    /// relation queries don't need enumeration).
    ///
    /// The walk descends through `Join` nodes and absorbs `Filter`s sitting
    /// on them; anything else becomes a leaf relation.
    pub fn extract(plan: &'p LogicalPlan) -> Option<JoinGraph<'p>> {
        if !matches!(plan, LogicalPlan::Join { .. } | LogicalPlan::Filter { .. }) {
            return None;
        }
        let mut relations = Vec::new();
        let mut raw_preds: Vec<(Expr, usize)> = Vec::new(); // (expr in subtree-local ords, subtree base offset)
        collect(plan, 0, &mut relations, &mut raw_preds)?;
        if relations.len() < 2 || relations.len() > 64 {
            return None;
        }
        let schemas: Vec<Schema> = relations.iter().map(|r| r.schema()).collect();
        let mut offsets = Vec::with_capacity(relations.len());
        let mut acc = 0usize;
        for s in &schemas {
            offsets.push(acc);
            acc += s.len();
        }
        let total = acc;
        // Raw predicates are already in global ordinals (collect tracks the
        // running offset); tag each with its relation mask.
        let col_to_rel = |c: usize| -> Option<usize> {
            (0..relations.len())
                .rev()
                .find(|&r| offsets[r] <= c)
                .filter(|&r| c < offsets[r] + schemas[r].len())
        };
        let mut predicates = Vec::with_capacity(raw_preds.len());
        for (expr, _) in raw_preds {
            let mut mask: RelMask = 0;
            let mut ok = true;
            for c in expr.referenced_columns() {
                if c >= total {
                    ok = false;
                    break;
                }
                match col_to_rel(c) {
                    Some(r) => mask |= 1u64 << r,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                return None;
            }
            predicates.push(GraphPredicate {
                expr,
                relations: mask,
            });
        }
        Some(JoinGraph {
            relations,
            schemas,
            offsets,
            predicates,
        })
    }

    /// Mask with every relation set.
    pub fn all_mask(&self) -> RelMask {
        if self.relations.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.relations.len()) - 1
        }
    }

    /// Predicates whose relations are fully contained in `mask` **and**
    /// reference relations on both sides of (`left`, `right`) — i.e. the
    /// predicates applicable when joining those two subsets.
    pub fn join_predicates(&self, left: RelMask, right: RelMask) -> Vec<&GraphPredicate> {
        self.predicates
            .iter()
            .filter(|p| {
                p.relations & !(left | right) == 0
                    && p.relations & left != 0
                    && p.relations & right != 0
            })
            .collect()
    }

    /// Single-relation predicates on relation `r` (pushed-down filters).
    pub fn local_predicates(&self, r: usize) -> Vec<&GraphPredicate> {
        let bit = 1u64 << r;
        self.predicates
            .iter()
            .filter(|p| p.relations == bit)
            .collect()
    }

    /// Whether two subsets are connected by at least one predicate.
    pub fn connected(&self, a: RelMask, b: RelMask) -> bool {
        self.predicates
            .iter()
            .any(|p| p.relations & a != 0 && p.relations & b != 0 && p.relations & !(a | b) == 0)
    }

    /// Neighbour relations of subset `s`: relations outside `s` that share a
    /// predicate with it.
    pub fn neighbours(&self, s: RelMask) -> RelMask {
        let mut n = 0;
        for p in &self.predicates {
            if p.relations & s != 0 {
                n |= p.relations & !s;
            }
        }
        n
    }

    /// Whether the relations in `mask` form one connected component of the
    /// predicate graph. Singletons are connected; the empty set is not.
    pub fn subgraph_connected(&self, mask: RelMask) -> bool {
        if mask == 0 {
            return false;
        }
        let start = 1u64 << mask.trailing_zeros();
        let mut seen = start;
        loop {
            let grow = self.neighbours(seen) & mask;
            if grow & !seen == 0 {
                break;
            }
            seen |= grow;
        }
        seen == mask
    }
}

/// Recursive worker: appends leaves and predicates (rebased to global
/// ordinals via `offset`). Returns the subtree's column width.
fn collect<'p>(
    plan: &'p LogicalPlan,
    offset: usize,
    relations: &mut Vec<&'p LogicalPlan>,
    preds: &mut Vec<(Expr, usize)>,
) -> Option<usize> {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let lw = collect(left, offset, relations, preds)?;
            let rw = collect(right, offset + lw, relations, preds)?;
            if let Some(p) = predicate {
                for c in p.split_conjuncts() {
                    preds.push((c.remap_columns(&|i| i + offset), offset));
                }
            }
            Some(lw + rw)
        }
        LogicalPlan::Filter { input, predicate } => {
            let w = collect(input, offset, relations, preds)?;
            for c in predicate.split_conjuncts() {
                preds.push((c.remap_columns(&|i| i + offset), offset));
            }
            Some(w)
        }
        leaf => {
            let w = leaf.schema().len();
            relations.push(leaf);
            Some(w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::test_helpers::scan;
    use evopt_common::expr::{col, lit};

    fn join(l: LogicalPlan, r: LogicalPlan, p: Option<Expr>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            predicate: p,
        }
    }

    /// t ⋈ u ⋈ v as a left-deep chain: (t ⋈_{t.a=u.a} u) ⋈_{u.b=v.b} v.
    fn chain3() -> LogicalPlan {
        let tu = join(scan("t"), scan("u"), Some(Expr::eq(col(0), col(3))));
        join(tu, scan("v"), Some(Expr::eq(col(4), col(7))))
    }

    #[test]
    fn extract_chain() {
        let plan = chain3();
        let g = JoinGraph::extract(&plan).unwrap();
        assert_eq!(g.relations.len(), 3);
        assert_eq!(g.offsets, vec![0, 3, 6]);
        assert_eq!(g.predicates.len(), 2);
        assert_eq!(g.predicates[0].relations, 0b011);
        assert_eq!(g.predicates[1].relations, 0b110);
        assert_eq!(g.predicates[0].as_equi_join(), Some((0, 3)));
        assert_eq!(g.predicates[1].as_equi_join(), Some((4, 7)));
    }

    #[test]
    fn extract_absorbs_filters() {
        // WHERE t.a = 1 sits above the join, as the binder puts it.
        let p = LogicalPlan::Filter {
            input: Box::new(chain3()),
            predicate: Expr::eq(col(0), lit(1i64)),
        };
        let g = JoinGraph::extract(&p).unwrap();
        assert_eq!(g.predicates.len(), 3);
        let local: Vec<_> = g.local_predicates(0);
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].expr, Expr::eq(col(0), lit(1i64)));
    }

    #[test]
    fn filters_on_leaves_stay_local_with_global_ordinals() {
        // (t WHERE t.b = 9) ⋈ u: the filter is under the join, so its
        // column must be rebased into the global space (still #1 here).
        let t_f = LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: Expr::eq(col(1), lit(9i64)),
        };
        let u_f = LogicalPlan::Filter {
            input: Box::new(scan("u")),
            predicate: Expr::eq(col(1), lit(7i64)),
        };
        let j = join(t_f, u_f, Some(Expr::eq(col(0), col(3))));
        let g = JoinGraph::extract(&j).unwrap();
        assert_eq!(g.relations.len(), 2);
        assert_eq!(g.predicates.len(), 3);
        // u's local filter on its column 1 → global 4.
        let u_local = g.local_predicates(1);
        assert_eq!(u_local.len(), 1);
        assert_eq!(u_local[0].expr, Expr::eq(col(4), lit(7i64)));
    }

    #[test]
    fn non_join_root_returns_none() {
        assert!(JoinGraph::extract(&scan("t")).is_none());
        let f = LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: Expr::eq(col(0), lit(1i64)),
        };
        assert!(JoinGraph::extract(&f).is_none(), "single relation");
    }

    #[test]
    fn cross_join_has_no_predicates() {
        let plan = join(scan("t"), scan("u"), None);
        let g = JoinGraph::extract(&plan).unwrap();
        assert!(g.predicates.is_empty());
        assert!(!g.connected(0b01, 0b10));
        assert_eq!(g.neighbours(0b01), 0);
    }

    #[test]
    fn connectivity_and_neighbours() {
        let plan = chain3();
        let g = JoinGraph::extract(&plan).unwrap();
        assert!(g.connected(0b001, 0b010)); // t-u
        assert!(g.connected(0b010, 0b100)); // u-v
        assert!(!g.connected(0b001, 0b100)); // t-v not directly
        assert!(g.connected(0b011, 0b100)); // {t,u}-v
        assert_eq!(g.neighbours(0b001), 0b010);
        assert_eq!(g.neighbours(0b010), 0b101);
        assert_eq!(g.all_mask(), 0b111);
    }

    #[test]
    fn join_predicates_for_subset_pair() {
        let plan = chain3();
        let g = JoinGraph::extract(&plan).unwrap();
        let ps = g.join_predicates(0b001, 0b010);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].as_equi_join(), Some((0, 3)));
        // Joining {t} with {v}: no applicable predicate (u not included).
        assert!(g.join_predicates(0b001, 0b100).is_empty());
        // Joining {t,u} with {v}: the u-v predicate applies.
        assert_eq!(g.join_predicates(0b011, 0b100).len(), 1);
    }

    #[test]
    fn opaque_leaves_allowed() {
        // An aggregate as a join input becomes an opaque relation.
        let agg = LogicalPlan::aggregate(scan("t"), vec![0], vec![]).unwrap();
        let j = join(agg.clone(), scan("u"), Some(Expr::eq(col(0), col(1))));
        let g = JoinGraph::extract(&j).unwrap();
        assert_eq!(g.relations.len(), 2);
        assert_eq!(g.relations[0], &agg);
        assert_eq!(g.schemas[0].len(), 1);
        assert_eq!(g.offsets, vec![0, 1]);
    }

    #[test]
    fn bushy_shape_flattens_in_syntactic_order() {
        // (t ⋈ u) ⋈ (v ⋈ w)
        let tu = join(scan("t"), scan("u"), Some(Expr::eq(col(0), col(3))));
        let vw = join(scan("v"), scan("w"), Some(Expr::eq(col(0), col(3))));
        let root = join(tu, vw, Some(Expr::eq(col(1), col(7))));
        let g = JoinGraph::extract(&root).unwrap();
        assert_eq!(g.relations.len(), 4);
        assert_eq!(g.offsets, vec![0, 3, 6, 9]);
        // v-w predicate was local ordinals 0=3 within the right subtree →
        // global 6 = 9.
        let vw_pred = g.predicates.iter().find(|p| p.relations == 0b1100).unwrap();
        assert_eq!(vw_pred.as_equi_join(), Some((6, 9)));
        // Root predicate: t.b (#1) = w.b (#10)... col(7) in the root's frame
        // is the 8th column of tu++vw = v.b? Root frame: tu (6 cols) ++ vw
        // (6 cols); col(7) → global 7 = v.b. Mask = {t, v}.
        let root_pred = g.predicates.iter().find(|p| p.relations == 0b0101).unwrap();
        assert_eq!(root_pred.as_equi_join(), Some((1, 7)));
    }
}
