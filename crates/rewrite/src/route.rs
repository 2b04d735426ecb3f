//! The query planner: one [`QueryPlan`] per query, built by
//! [`plan_query`] and run by [`execute_plan`].
//!
//! Planning rewrites the query once (DESIGN §15) and then picks one of four
//! physical evaluators from the certificate and, when the tree is
//! indexed, from the cost model:
//!
//! | index | certificate | evaluator |
//! |-------|-------------|-----------|
//! | any | `Empty` | [`Evaluator::EmptyShortCircuit`] (no compile, no estimate) |
//! | `Some` | non-empty | `model.choose(..)`: [`Evaluator::Indexed`] or [`Evaluator::Walking`] |
//! | `None` | `Streamable` | [`Evaluator::Streaming`] on the normal form |
//! | `None` | `NotStreamable` | [`Evaluator::Walking`] |
//!
//! Every walk evaluates the query *as given*, not the normal form: the
//! normal form is tuned for the index algebra and the streaming
//! evaluator, and can carry worse walking constants (filter pushdown
//! trades one filtered scan for a per-descendant evaluation).

use twq_index::{
    compile_xpath, eval_plan_from, Choice, CostModel, Estimate, Force, IxPlan, TreeIndex,
};
use twq_tree::{NodeSet, Tree};
use twq_xpath::{eval_from, XPath};

use crate::contain::RewriteCtx;
use crate::stream::{stream_select, Certificate};
use crate::{rewrite_in, Rewritten};

/// The physical evaluator a [`QueryPlan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluator {
    /// Provably empty after rewriting: no evaluation at all.
    EmptyShortCircuit,
    /// Certified streamable: the one-pass evaluator on the normal form.
    Streaming,
    /// The bitset evaluator over the compiled index plan.
    Indexed,
    /// The walking evaluator on the query as given.
    Walking,
}

/// The name the benchmark in `perfbench/` matches on; kept until the
/// next change to that benchmark.
pub use self::Evaluator as IndexedEvaluator;

/// A rewritten query plus the evaluator chosen for it.
#[derive(Debug)]
pub struct QueryPlan {
    /// The rewrite record (input, normal form, certificate, diagnostics).
    pub rewritten: Rewritten,
    /// The chosen evaluator.
    pub evaluator: Evaluator,
    /// The compiled index plan (planned with an index and a non-empty
    /// certificate only).
    pub plan: Option<IxPlan>,
    /// Both sides of the cost comparison (same condition as `plan`).
    pub estimate: Option<Estimate>,
}

/// Rewrite `q` under `ctx` and choose its evaluator. With an `index`,
/// the normal form is compiled into the index algebra and `model` prices
/// it against a walk (`force` overrides the verdict); without one, the
/// certificate decides and `model`/`force` are not read.
pub fn plan_query(
    q: &XPath,
    ctx: &RewriteCtx,
    index: Option<&TreeIndex>,
    model: &CostModel,
    force: Force,
) -> QueryPlan {
    let rewritten = rewrite_in(q, ctx);
    let (evaluator, plan, estimate) = match (&rewritten.certificate, index) {
        (Certificate::Empty, _) => (Evaluator::EmptyShortCircuit, None, None),
        (_, Some(index)) => {
            let plan = compile_xpath(&rewritten.output);
            let estimate = model.estimate(index, &plan, &rewritten.output);
            let evaluator = match model.choose(&estimate, plan.size(), force) {
                Choice::Index => Evaluator::Indexed,
                Choice::Walk => Evaluator::Walking,
            };
            (evaluator, Some(plan), Some(estimate))
        }
        (Certificate::Streamable { .. }, None) => (Evaluator::Streaming, None, None),
        (Certificate::NotStreamable { .. }, None) => (Evaluator::Walking, None, None),
    };
    QueryPlan {
        rewritten,
        evaluator,
        plan,
        estimate,
    }
}

/// Run `plan` from the root of `tree`. Equal to
/// `eval_from(tree, q, tree.root())` whichever evaluator runs (the fuzz
/// oracle and `experiments --index` enforce this). `index` must be the
/// one the plan was made with.
pub fn execute_plan(tree: &Tree, index: Option<&TreeIndex>, plan: &QueryPlan) -> NodeSet {
    match plan.evaluator {
        Evaluator::EmptyShortCircuit => NodeSet::new(),
        Evaluator::Streaming => {
            stream_select(tree, &plan.rewritten.output)
                .expect("certified streamable")
                .0
        }
        Evaluator::Indexed => eval_plan_from(
            tree,
            index.expect("an indexed plan runs on its index"),
            plan.plan.as_ref().expect("indexed plan present"),
            tree.root(),
        ),
        Evaluator::Walking => eval_from(tree, &plan.rewritten.input, tree.root()),
    }
}

/// [`plan_query`] with an index. Kept only because `perfbench/` calls
/// it; fold it into `plan_query` at the next change to that benchmark.
pub fn plan_indexed(
    q: &XPath,
    ctx: &RewriteCtx,
    index: &TreeIndex,
    model: &CostModel,
    force: Force,
) -> QueryPlan {
    plan_query(q, ctx, Some(index), model, force)
}

/// [`plan_query`] + [`execute_plan`] with an index. Kept only because
/// `perfbench/` calls it; fold it into those two at the next change to
/// that benchmark.
pub fn run_query_indexed(
    tree: &Tree,
    index: &TreeIndex,
    q: &XPath,
    ctx: &RewriteCtx,
    model: &CostModel,
    force: Force,
) -> (NodeSet, QueryPlan) {
    let plan = plan_query(q, ctx, Some(index), model, force);
    (execute_plan(tree, Some(index), &plan), plan)
}

/// [`plan_query`] + [`execute_plan`] without an index. Kept only because
/// `perfbench/` calls it; fold it into those two at the next change to
/// that benchmark.
pub fn run_query_planned(tree: &Tree, q: &XPath, ctx: &RewriteCtx) -> (NodeSet, QueryPlan) {
    let plan = plan_query(q, ctx, None, &CostModel::default(), Force::Auto);
    (execute_plan(tree, None, &plan), plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::{parse_tree, Vocab};
    use twq_xpath::ast::xb;

    /// The decision table of the module docs: every certificate, with and
    /// without an index, under every `Force`; every plan answers like the
    /// walk.
    #[test]
    fn decision_table() {
        let mut v = Vocab::new();
        let t = parse_tree(
            "lib(book[y=1999](title,author,author),book[y=2001](title,author))",
            &mut v,
        )
        .unwrap();
        let idx = TreeIndex::build(&t);
        let [lib, book, author, ghost] = ["lib", "book", "author", "ghost"].map(|s| v.sym(s));
        let ctx = RewriteCtx::unconstrained().with_alphabet([lib, book, author]);
        let model = CostModel::default();
        let queries = [
            xb::name(ghost),
            xb::from_desc(xb::name(author)),
            xb::filter(xb::from_desc(xb::name(book)), xb::name(author)),
        ];
        let certificates = queries.each_ref().map(|q| rewrite_in(q, &ctx).certificate);
        assert!(matches!(
            certificates,
            [
                Certificate::Empty,
                Certificate::Streamable { .. },
                Certificate::NotStreamable { .. }
            ]
        ));
        use Evaluator::*;
        for (q, certificate) in queries.iter().zip(&certificates) {
            for (index, force) in [None, Some(&idx)]
                .into_iter()
                .flat_map(|i| [Force::Auto, Force::Index, Force::Walk].map(|f| (i, f)))
            {
                let plan = plan_query(q, &ctx, index, &model, force);
                let want = match (certificate, index, force) {
                    (Certificate::Empty, _, _) => EmptyShortCircuit,
                    (_, Some(_), Force::Index) => Indexed,
                    (_, Some(_), Force::Walk) => Walking,
                    (_, Some(_), Force::Auto) => {
                        let est = plan.estimate.expect("an indexed plan is priced");
                        let size = plan.plan.as_ref().expect("and compiled").size();
                        match model.choose(&est, size, force) {
                            Choice::Index => Indexed,
                            Choice::Walk => Walking,
                        }
                    }
                    (Certificate::Streamable { .. }, None, _) => Streaming,
                    (Certificate::NotStreamable { .. }, None, _) => Walking,
                };
                let row = format!("`{}` index={} {force:?}", q.display(&v), index.is_some());
                assert_eq!(plan.evaluator, want, "{row}");
                let compiled = index.is_some() && want != EmptyShortCircuit;
                assert_eq!(plan.plan.is_some(), compiled, "{row}");
                assert_eq!(plan.estimate.is_some(), compiled, "{row}");
                assert_eq!(
                    execute_plan(&t, index, &plan),
                    eval_from(&t, q, t.root()),
                    "{row}"
                );
            }
        }
    }
}
