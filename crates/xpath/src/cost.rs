//! A coarse cost model of the former node-at-a-time walker.
//!
//! **Stale by design:** [`eval_from`](crate::eval_from) is now
//! set-at-a-time and linear in the tree, but this estimate still prices
//! the quadratic recursion it replaced, so the `twq-index` planner's
//! walk-vs-index decisions stay where they were. Recalibrating it to the
//! linear walker is ROADMAP item 3.
//!
//! That walker's dominant expense was its descendant handling: every
//! `Descendant`/`FromDesc` step scanned all `n` arena ids and performed
//! a parent-climbing ancestor test per id, i.e. ~`n · depth/2` link
//! follows *per context node*, before recursing into roughly one subtree's
//! worth of nodes. [`walk_cost`] mirrors that recursion symbolically over
//! a handful of tree statistics, returning an estimated node-visit count
//! and output cardinality. The `twq-index` planner multiplies the visit
//! count by a measured per-visit cost to weigh walking against an index
//! plan; the estimate only needs to be *rankable*, not tight.

use crate::ast::{Pred, XPath};

/// Tree statistics the estimate is computed against (the index layer
/// derives them from its build-time stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkParams {
    /// Node count `n`.
    pub nodes: f64,
    /// Mean node depth (root = 0).
    pub avg_depth: f64,
    /// Mean children per internal node.
    pub fanout: f64,
    /// Mean subtree size (`avg_depth + 1` by the depth-sum identity).
    pub avg_subtree: f64,
}

/// The symbolic mirror of one `eval_from` call from a single context node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkEstimate {
    /// Estimated node visits (subexpression evaluations + ancestor-test
    /// link follows), the quantity a per-visit cost multiplies.
    pub visits: f64,
    /// Estimated result cardinality, capped at `n`.
    pub out_card: f64,
}

/// Estimate the walking evaluator's cost for `path` from one context node.
pub fn walk_cost(path: &XPath, p: &WalkParams) -> WalkEstimate {
    let (visits, out_card) = rec(path, p);
    WalkEstimate { visits, out_card }
}

fn rec(path: &XPath, p: &WalkParams) -> (f64, f64) {
    let n = p.nodes;
    // Cost of one full-arena descendant scan: n ancestor tests, each a
    // parent climb of half the mean depth (at least one link follow).
    let desc_scan = n * (p.avg_depth * 0.5).max(1.0);
    match path {
        XPath::Name(_) | XPath::Wild => (1.0, 1.0),
        XPath::Child(p1, p2) => {
            let (c1, k1) = rec(p1, p);
            let (c2, k2) = rec(p2, p);
            (c1 + k1 * p.fanout * c2, (k1 * p.fanout * k2).min(n))
        }
        XPath::Descendant(p1, p2) => {
            let (c1, k1) = rec(p1, p);
            let (c2, k2) = rec(p2, p);
            (
                c1 + k1 * (desc_scan + p.avg_subtree * c2),
                (k1 * p.avg_subtree * k2).min(n),
            )
        }
        XPath::FromRoot(q) => rec(q, p),
        XPath::FromDesc(q) => {
            let (c, k) = rec(q, p);
            (desc_scan + p.avg_subtree * c, (p.avg_subtree * k).min(n))
        }
        XPath::FromChild(q) => {
            let (c, k) = rec(q, p);
            (p.fanout * c, (p.fanout * k).min(n))
        }
        XPath::Filter(q, pred) => {
            let (c, k) = rec(q, p);
            let per_test = match pred.as_ref() {
                Pred::Path(r) => rec(r, p).0,
                Pred::AttrEqConst(..) | Pred::AttrEqAttr(..) => 1.0,
            };
            // Selectivity guess: a filter keeps half its input.
            (c + k * per_test, (k * 0.5).min(n))
        }
        XPath::Union(p1, p2) => {
            let (c1, k1) = rec(p1, p);
            let (c2, k2) = rec(p2, p);
            (c1 + c2, (k1 + k2).min(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::xb;
    use twq_tree::Vocab;

    fn params() -> WalkParams {
        WalkParams {
            nodes: 1000.0,
            avg_depth: 6.0,
            fanout: 3.0,
            avg_subtree: 7.0,
        }
    }

    #[test]
    fn descendant_steps_dominate() {
        let mut v = Vocab::new();
        let s = v.sym("s");
        let p = params();
        let shallow = walk_cost(&xb::from_child(xb::name(s)), &p);
        let deep = walk_cost(&xb::from_desc(xb::name(s)), &p);
        // One descendant step costs at least one full-arena scan; a child
        // step touches only the fanout.
        assert!(deep.visits >= p.nodes);
        assert!(shallow.visits < 10.0);
        assert!(deep.visits > 50.0 * shallow.visits);
    }

    #[test]
    fn cards_are_capped_at_n() {
        let mut v = Vocab::new();
        v.sym("s");
        let p = params();
        // Stacked descendant steps inflate the cardinality product far
        // beyond n; the estimate must stay within the tree.
        let q = xb::from_desc(xb::from_desc(xb::from_desc(xb::wild())));
        let e = walk_cost(&q, &p);
        assert!(e.out_card <= p.nodes);
        assert!(e.visits.is_finite());
    }
}
