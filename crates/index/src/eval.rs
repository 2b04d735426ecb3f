//! Evaluation of index plans over pre-order bitsets.
//!
//! Everything inside [`eval_plan_pre`] lives in pre-order space: a set bit
//! `j` means "the node at pre-order position `j`". The tree is only
//! touched for link-following expansions (child/parent/ancestor);
//! descendant expansion is pure range arithmetic over the interval
//! encoding. [`eval_plan_from`] converts a single arena context in and the
//! result back out.

use twq_logic::ExistsFormula;
use twq_tree::{AttrId, NodeId, NodeSet, Tree};

use crate::build::TreeIndex;
use crate::compile::compile_exists;
use crate::plan::{Axis, IxPlan};

/// Every pre-order position of the indexed tree.
fn all_pre(idx: &TreeIndex) -> NodeSet {
    let n = idx.len();
    let mut s = NodeSet::with_capacity(n);
    s.insert_range(NodeId(0), NodeId(n as u32 - 1));
    s
}

/// Evaluate `plan` against the context set `ctx` (both in pre-order
/// space). An empty `Intersect` denotes `All`, an empty `Union` denotes
/// `Empty` (the usual neutral elements).
pub fn eval_plan_pre(tree: &Tree, idx: &TreeIndex, plan: &IxPlan, ctx: &NodeSet) -> NodeSet {
    match plan {
        IxPlan::Context => ctx.clone(),
        IxPlan::Root => NodeSet::from([NodeId(0)]),
        IxPlan::All => all_pre(idx),
        IxPlan::Empty => NodeSet::new(),
        IxPlan::ScanLabel(s) => idx.label_posting(*s).cloned().unwrap_or_default(),
        IxPlan::ScanValue(a, v) => idx.value_posting(*a, *v).cloned().unwrap_or_default(),
        IxPlan::ScanAttrBot(a) => {
            let mut s = all_pre(idx);
            if let Some(h) = idx.has_attr(*a) {
                s.difference_with(h);
            }
            s
        }
        IxPlan::ScanAttrPair(a, b) => scan_attr_pair(idx, *a, *b),
        IxPlan::ScanLeaf => idx.leaves().clone(),
        IxPlan::ScanFirst => idx.firsts().clone(),
        IxPlan::ScanLast => idx.lasts().clone(),
        IxPlan::Intersect(ps) => {
            let mut iter = ps.iter();
            let mut acc = match iter.next() {
                Some(p) => eval_plan_pre(tree, idx, p, ctx),
                None => return all_pre(idx),
            };
            for p in iter {
                if acc.is_empty() {
                    break;
                }
                acc.intersect_with(&eval_plan_pre(tree, idx, p, ctx));
            }
            acc
        }
        IxPlan::Union(ps) => {
            let mut acc = NodeSet::new();
            for p in ps {
                acc.union_with(&eval_plan_pre(tree, idx, p, ctx));
            }
            acc
        }
        IxPlan::Expand(ax, p) => expand(tree, idx, *ax, &eval_plan_pre(tree, idx, p, ctx)),
        IxPlan::IfNonEmpty(cond, body) => {
            if eval_plan_pre(tree, idx, cond, ctx).is_empty() {
                NodeSet::new()
            } else {
                eval_plan_pre(tree, idx, body, ctx)
            }
        }
    }
}

/// `{y : val_a(y) = val_b(y)}` — matching value groups pairwise, plus the
/// nodes where both columns are `⊥` (equal by totality of `attr`).
fn scan_attr_pair(idx: &TreeIndex, a: AttrId, b: AttrId) -> NodeSet {
    if a == b {
        return all_pre(idx);
    }
    let mut out = NodeSet::with_capacity(idx.len());
    let (ga, gb) = (idx.value_groups(a), idx.value_groups(b));
    let (mut i, mut j) = (0, 0);
    while i < ga.len() && j < gb.len() {
        match ga[i].0.cmp(&gb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut both = ga[i].1.clone();
                both.intersect_with(&gb[j].1);
                out.union_with(&both);
                i += 1;
                j += 1;
            }
        }
    }
    let mut bots = all_pre(idx);
    if let Some(h) = idx.has_attr(a) {
        bots.difference_with(h);
    }
    if let Some(h) = idx.has_attr(b) {
        bots.difference_with(h);
    }
    out.union_with(&bots);
    out
}

fn expand(tree: &Tree, idx: &TreeIndex, axis: Axis, inner: &NodeSet) -> NodeSet {
    let iv = idx.intervals();
    let mut out = NodeSet::with_capacity(idx.len());
    match axis {
        Axis::Child => {
            for p in inner {
                for c in tree.children(iv.node_at(p.0)) {
                    out.insert(NodeId(iv.begin(c)));
                }
            }
        }
        Axis::Parent => {
            for p in inner {
                if let Some(q) = tree.parent(iv.node_at(p.0)) {
                    out.insert(NodeId(iv.begin(q)));
                }
            }
        }
        Axis::Descendant => {
            // Subtree intervals of an ascending pre-order scan are nested
            // or disjoint, so one high-water cursor merges them: a position
            // at or below the cursor is already covered in full.
            let mut cur_hi: i64 = -1;
            for p in inner {
                let pre = p.0;
                if i64::from(pre) <= cur_hi {
                    continue;
                }
                let e = idx.end_of_pre(pre);
                if pre < e {
                    out.insert_range(NodeId(pre + 1), NodeId(e));
                }
                cur_hi = i64::from(e);
            }
        }
        Axis::Ancestor => {
            // Climb, stopping as soon as an ancestor is already present —
            // the output is ancestor-closed at every point.
            for p in inner {
                let mut cur = tree.parent(iv.node_at(p.0));
                while let Some(q) = cur {
                    if !out.insert(NodeId(iv.begin(q))) {
                        break;
                    }
                    cur = tree.parent(q);
                }
            }
        }
    }
    out
}

/// Evaluate a plan from one arena context node, returning an arena-space
/// result — the indexed counterpart of `eval_from(tree, path, x)` when
/// `plan = compile_xpath(path)`.
pub fn eval_plan_from(tree: &Tree, idx: &TreeIndex, plan: &IxPlan, x: NodeId) -> NodeSet {
    debug_assert_eq!(idx.len(), tree.len(), "index built for another tree");
    let ctx = NodeSet::from([NodeId(idx.intervals().begin(x))]);
    let pre = eval_plan_pre(tree, idx, plan, &ctx);
    let mut out = NodeSet::with_capacity(tree.len());
    for p in &pre {
        out.insert(idx.intervals().node_at(p.0));
    }
    out
}

/// [`ExistsFormula::select`] routed by fragment: formulas in the
/// positive two-variable fragment run as a compiled index plan, the rest
/// on the backtracking evaluator. Reports whether the index (`true`) or
/// the backtracking evaluator (`false`) produced the result.
pub fn fo_select_routed(
    tree: &Tree,
    idx: &TreeIndex,
    phi: &ExistsFormula,
    u: NodeId,
) -> (NodeSet, bool) {
    match compile_exists(phi) {
        Some(plan) => (eval_plan_from(tree, idx, &plan, u), true),
        None => (phi.select(tree, u), false),
    }
}
