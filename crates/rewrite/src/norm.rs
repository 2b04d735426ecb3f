//! The rewrite engine: drives the [`crate::rules`] catalog bottom-up to a
//! fixpoint, producing the canonical normal form.
//!
//! Children (including filter-predicate paths) are normalized first; then
//! rules are applied at the node until none fires, re-normalizing any
//! subterm a top-level fire rearranged (for `step-assoc`, only the step
//! spine it rebuilt: see `renest`). Every rule strictly simplifies or
//! canonically reorders, so the loop converges; a generous fuel bound
//! makes termination unconditional regardless (idempotence and
//! confluence-on-samples are asserted in `tests/rewrite.rs`).

use std::collections::BTreeMap;

use twq_xpath::{Pred, XPath};

use crate::contain::RewriteCtx;
use crate::rules::{spine_len, RwRule, CATALOG};

/// Per-run rule accounting.
#[derive(Debug, Default)]
pub(crate) struct EngineStats {
    /// Rule name → number of fires.
    pub fired: BTreeMap<&'static str, u64>,
    /// Union branches deleted (dedupe + emptiness + subsumption).
    pub pruned: u64,
}

/// Rebuild `p` with every direct subterm (including the predicate path of
/// a filter) passed through `f`.
fn map_children(p: XPath, f: &mut impl FnMut(XPath) -> XPath) -> XPath {
    match p {
        XPath::Name(_) | XPath::Wild => p,
        XPath::Child(a, b) => XPath::Child(Box::new(f(*a)), Box::new(f(*b))),
        XPath::Descendant(a, b) => XPath::Descendant(Box::new(f(*a)), Box::new(f(*b))),
        XPath::Union(a, b) => XPath::Union(Box::new(f(*a)), Box::new(f(*b))),
        XPath::FromRoot(q) => XPath::FromRoot(Box::new(f(*q))),
        XPath::FromDesc(q) => XPath::FromDesc(Box::new(f(*q))),
        XPath::FromChild(q) => XPath::FromChild(Box::new(f(*q))),
        XPath::Filter(q, pred) => {
            let pred = match *pred {
                Pred::Path(inner) => Pred::Path(f(inner)),
                other => other,
            };
            XPath::Filter(Box::new(f(*q)), Box::new(pred))
        }
    }
}

fn prunes_branches(rule: &RwRule) -> bool {
    matches!(rule.name, "union-canon" | "empty-prune" | "union-subsume")
}

fn norm_rec(p: XPath, ctx: &RewriteCtx, order: &[usize], st: &mut EngineStats) -> XPath {
    let cur = map_children(p, &mut |c| norm_rec(c, ctx, order, st));
    fix(cur, ctx, order, st)
}

/// Apply rules at the root of `cur`, whose children are already normal,
/// until none fires.
fn fix(mut cur: XPath, ctx: &RewriteCtx, order: &[usize], st: &mut EngineStats) -> XPath {
    // Fuel bounds top-level fires at this node; each fire either shrinks
    // the term or canonically reorders it, so the bound is generous. It
    // is sized on the first fire: most nodes fire nothing.
    let mut fuel = None;
    'fix: loop {
        for &ri in order {
            let rule = &CATALOG[ri];
            if let Some(next) = (rule.apply)(&cur, ctx) {
                debug_assert_ne!(next, cur, "rule {} fired without changing", rule.name);
                let fuel = fuel.get_or_insert_with(|| 16 + 4 * cur.size());
                if *fuel == 0 {
                    break 'fix;
                }
                *fuel -= 1;
                *st.fired.entry(rule.name).or_insert(0) += 1;
                if prunes_branches(rule) {
                    st.pruned += spine_len(&cur).saturating_sub(spine_len(&next));
                }
                cur = if rule.name == "step-assoc" {
                    map_step(next, |b| renest(b, ctx, order, st))
                } else {
                    map_children(next, &mut |c| norm_rec(c, ctx, order, st))
                };
                continue 'fix;
            }
        }
        break;
    }
    cur
}

/// Rebuild a step `a ∘ b` as `a ∘ f(b)`.
fn map_step(p: XPath, f: impl FnOnce(XPath) -> XPath) -> XPath {
    match p {
        XPath::Child(a, b) => XPath::Child(a, Box::new(f(*b))),
        XPath::Descendant(a, b) => XPath::Descendant(a, Box::new(f(*b))),
        other => unreachable!("step-assoc yields a step, got {other:?}"),
    }
}

/// Finish one `step-assoc` fire. The fire turned `(a ∘ b) ∘' c` into
/// `a ∘ (b ∘' c)` with `a`, `b` and `c` normal, so `a` stays as it is and
/// `b ∘' c` is normalized here. While `b` is itself a step `y ∘ z`, the
/// rule would fire again at once, so the chain is re-nested within the
/// same fire — `y ∘ (z ∘' c)`, down `b`'s right spine — and only the
/// rebuilt spine nodes are fixed, bottom-up. A left-deep chain of `n`
/// names thus right-associates in `n − 2` fires, each touching only the
/// spine it rebuilds; firing once per level of the spine would take
/// `(n−1)(n−2)/2`.
fn renest(p: XPath, ctx: &RewriteCtx, order: &[usize], st: &mut EngineStats) -> XPath {
    let (child, l, c) = match p {
        XPath::Child(l, c) => (true, l, c),
        XPath::Descendant(l, c) => (false, l, c),
        other => unreachable!("step-assoc yields a step, got {other:?}"),
    };
    let step = |a, b| {
        if child {
            XPath::Child(a, b)
        } else {
            XPath::Descendant(a, b)
        }
    };
    let rotated = match *l {
        XPath::Child(y, z) => XPath::Child(y, Box::new(renest(step(z, c), ctx, order, st))),
        XPath::Descendant(y, z) => {
            XPath::Descendant(y, Box::new(renest(step(z, c), ctx, order, st)))
        }
        b => step(Box::new(b), c),
    };
    fix(rotated, ctx, order, st)
}

pub(crate) fn normalize_stats(p: &XPath, ctx: &RewriteCtx) -> (XPath, EngineStats) {
    let order: Vec<usize> = (0..CATALOG.len()).collect();
    let mut st = EngineStats::default();
    let out = norm_rec(p.clone(), ctx, &order, &mut st);
    (out, st)
}

/// Normalize under the default (assumption-free) context.
pub fn normalize(p: &XPath) -> XPath {
    normalize_in(p, &RewriteCtx::unconstrained())
}

/// Normalize under `ctx` (alphabet/depth facts enable emptiness pruning).
pub fn normalize_in(p: &XPath, ctx: &RewriteCtx) -> XPath {
    normalize_stats(p, ctx).0
}

/// Normalize with a seed-shuffled rule application order. The result must
/// not depend on the order — `tests/rewrite.rs` asserts this confluence
/// property on samples.
pub fn normalize_seeded(p: &XPath, ctx: &RewriteCtx, seed: u64) -> XPath {
    let mut order: Vec<usize> = (0..CATALOG.len()).collect();
    // Fisher–Yates on a splitmix64 stream: deterministic per seed.
    let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut st = EngineStats::default();
    norm_rec(p.clone(), ctx, &order, &mut st)
}

/// Apply one rule everywhere it matches, once, bottom-up — the shape the
/// per-rule proptest obligations exercise (`None` if it fired nowhere).
pub fn apply_rule_deep(rule: &RwRule, p: &XPath, ctx: &RewriteCtx) -> Option<XPath> {
    let mut fired = false;
    fn go(rule: &RwRule, p: XPath, ctx: &RewriteCtx, fired: &mut bool) -> XPath {
        let cur = map_children(p, &mut |c| go(rule, c, ctx, fired));
        match (rule.apply)(&cur, ctx) {
            Some(next) => {
                *fired = true;
                next
            }
            None => cur,
        }
    }
    let out = go(rule, p.clone(), ctx, &mut fired);
    fired.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    #[test]
    fn normal_form_examples() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let c = xb::name(v.sym("c"));
        // Left-nested steps right-associate.
        let p = xb::child(xb::child(a.clone(), b.clone()), c.clone());
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::child(b.clone(), c.clone()))
        );
        // `a//(*/b)` = `a/(*//b)` = `a/descendant-or-deeper b`.
        let p = xb::desc(a.clone(), xb::from_child(b.clone()));
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::from_desc(b.clone()))
        );
        // Wildcard left factors vanish.
        let p = xb::child(xb::wild(), b.clone());
        assert_eq!(normalize(&p), xb::from_child(b.clone()));
        // Filters land on the element test.
        let k = v.attr("k");
        let one = v.val_int(1);
        let p = xb::filter_attr_const(xb::child(a.clone(), b.clone()), k, one);
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::filter_attr_const(b.clone(), k, one))
        );
        // Idempotent on its own output.
        let q = normalize(&p);
        assert_eq!(normalize(&q), q);
    }

    #[test]
    fn union_pruning_counts() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let p = xb::union(
            xb::child(a.clone(), b.clone()),
            xb::union(
                xb::desc(a.clone(), b.clone()),
                xb::child(a.clone(), b.clone()),
            ),
        );
        let (out, st) = normalize_stats(&p, &RewriteCtx::unconstrained());
        assert_eq!(out, xb::desc(a.clone(), b.clone()));
        assert!(st.pruned >= 2, "pruned {} branches", st.pruned);
        assert!(st.fired.contains_key("union-subsume"));
    }
}
