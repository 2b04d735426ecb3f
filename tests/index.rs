//! Indexed-vs-walked equivalence on hostile trees.
//!
//! The index layer promises *identical* answers to the walking
//! evaluators on every tree and every query; these tests push on the
//! shapes where the interval encoding and the word-packed postings have
//! the least slack — deep chains (interval nesting at maximum depth),
//! wide fans (one giant child range), collision-heavy values (few, huge
//! value groups), and node counts straddling the 64-bit word boundaries
//! of `NodeSet`.

use proptest::prelude::*;

use twq::exec::Pool;
use twq::index::{
    build_indexes, compile_exists, compile_xpath, eval_plan_from, fo_select_routed, CostModel,
    Force, TreeIndex,
};
use twq::logic::fo::build as fb;
use twq::logic::{ExistsFormula, Var};
use twq::rw::{execute_plan, plan_query, Evaluator, RewriteCtx};
use twq::tree::generate::{
    chain_tree, comb_tree, perfect_tree, random_tree, star_tree, TreeGenConfig,
};
use twq::tree::{Label, NodeSet, Tree, Vocab};
use twq::xpath::{eval_from, random_xpath, XPath, XPathGenConfig};

fn hostile_cfg(vocab: &mut Vocab, nodes: usize, collisions: Option<usize>) -> TreeGenConfig {
    let mut cfg = TreeGenConfig::example32(vocab, nodes, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let b = vocab.attr("b");
    let pool = (10..18).map(|i| vocab.val_int(i)).collect();
    cfg.attributes.push((b, pool));
    cfg.collision_pool = collisions;
    cfg
}

fn xcfg(cfg: &TreeGenConfig) -> XPathGenConfig {
    XPathGenConfig {
        symbols: cfg.symbols.clone(),
        attrs: cfg.attributes.iter().map(|(a, _)| *a).collect(),
        values: cfg.attributes.iter().flat_map(|(_, p)| p.clone()).collect(),
        max_depth: 4,
    }
}

/// Every context node, indexed vs walked, exact set equality.
fn assert_index_twins(tree: &Tree, path: &XPath) {
    let idx = TreeIndex::build(tree);
    let plan = compile_xpath(path);
    for u in tree.node_ids() {
        assert_eq!(
            eval_plan_from(tree, &idx, &plan, u),
            eval_from(tree, path, u),
            "context {u:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random queries over collision-heavy random trees: the worst case
    /// for value postings (few groups, each nearly whole-tree).
    #[test]
    fn indexed_matches_walked_on_collision_heavy_trees(
        tree_seed in 0u64..400,
        path_seed in 0u64..400,
        nodes in 2usize..80,
        collisions in 1usize..3,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(collisions));
        let t = random_tree(&cfg, tree_seed);
        let p = random_xpath(&xcfg(&cfg), path_seed);
        assert_index_twins(&t, &p);
    }

    /// The planner is transparent without an index and, with one, under
    /// every override.
    #[test]
    fn planner_is_transparent_under_every_force(
        tree_seed in 0u64..200,
        path_seed in 0u64..200,
        nodes in 2usize..60,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(2));
        let t = random_tree(&cfg, tree_seed);
        let p = random_xpath(&xcfg(&cfg), path_seed);
        let idx = TreeIndex::build(&t);
        let ctx = RewriteCtx::unconstrained();
        let model = CostModel::default();
        let want = eval_from(&t, &p, t.root());
        for (index, force) in [
            (None, Force::Auto),
            (None, Force::Index),
            (Some(&idx), Force::Auto),
            (Some(&idx), Force::Index),
            (Some(&idx), Force::Walk),
        ] {
            let plan = plan_query(&p, &ctx, index, &model, force);
            let got = execute_plan(&t, index, &plan);
            prop_assert_eq!(&got, &want, "force {:?} via {:?}", force, plan.evaluator);
            if plan.evaluator != Evaluator::EmptyShortCircuit {
                match (index, force) {
                    // Without an index the certificate decides; `force` is
                    // not read.
                    (None, _) => prop_assert_ne!(plan.evaluator, Evaluator::Indexed),
                    (Some(_), Force::Index) => prop_assert_eq!(plan.evaluator, Evaluator::Indexed),
                    (Some(_), Force::Walk) => prop_assert_eq!(plan.evaluator, Evaluator::Walking),
                    (Some(_), Force::Auto) => prop_assert_ne!(plan.evaluator, Evaluator::Streaming),
                }
            }
        }
    }

    /// FO(∃*) routing: in-fragment formulas take the index, everything
    /// agrees with the backtracking selector from every context node.
    #[test]
    fn fo_routing_agrees_with_backtracking(
        tree_seed in 0u64..200,
        nodes in 2usize..50,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(2));
        let t = random_tree(&cfg, tree_seed);
        let idx = TreeIndex::build(&t);
        let (x, y) = (Var(0), Var(1));
        let s0 = cfg.symbols[0];
        let (a, b) = (cfg.attributes[0].0, cfg.attributes[1].0);
        let in_fragment = ExistsFormula::new(
            x,
            y,
            vec![],
            fb::and(vec![
                fb::desc(x, y),
                fb::or(vec![
                    fb::lab(Label::Sym(s0), y),
                    fb::val_eq(a, y, b, y),
                ]),
            ]),
        )
        .unwrap();
        prop_assert!(compile_exists(&in_fragment).is_some());
        let out_of_fragment = ExistsFormula::new(x, y, vec![], fb::succ(x, y)).unwrap();
        prop_assert!(compile_exists(&out_of_fragment).is_none());
        for phi in [&in_fragment, &out_of_fragment] {
            for u in t.node_ids() {
                let (got, _) = fo_select_routed(&t, &idx, phi, u);
                prop_assert_eq!(got, phi.select(&t, u), "context {:?}", u);
            }
        }
    }
}

/// Shaped trees at the extremes: depth, width, balance.
#[test]
fn shaped_trees_agree_on_axis_heavy_queries() {
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let t0 = vocab.sym("t");
    let trees = [
        chain_tree(s, 200),
        comb_tree(s, 120),
        star_tree(s, 300),
        perfect_tree(s, 3, 5),
    ];
    let queries = [
        twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(s)),
        twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(t0)),
        twq::xpath::ast::xb::filter(
            twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::wild()),
            twq::xpath::ast::xb::name(s),
        ),
        twq::xpath::ast::xb::from_root(twq::xpath::ast::xb::desc(
            twq::xpath::ast::xb::wild(),
            twq::xpath::ast::xb::name(s),
        )),
    ];
    for t in &trees {
        for q in &queries {
            assert_index_twins(t, q);
        }
    }
}

/// Node counts straddling the `NodeSet` word boundaries: postings and
/// insert_range must be exact at 63/64/65 and 127/128/129 bits.
#[test]
fn word_boundary_sizes_are_exact() {
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let q_all = twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::wild());
    let q_s = twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(s));
    for n in [63usize, 64, 65, 127, 128, 129] {
        // Chain (deepest) and star (widest) at exactly n nodes.
        for t in [chain_tree(s, n - 1), star_tree(s, n - 1)] {
            assert_eq!(t.len(), n, "generator size contract");
            let idx = TreeIndex::build(&t);
            // Whole-tree postings: every node is an s-node.
            let posting = idx.label_posting(s).expect("all nodes labelled s");
            assert_eq!(posting.len(), n);
            // Empty postings: a symbol that never occurs.
            let ghost = vocab.sym("ghost");
            assert!(idx.label_posting(ghost).is_none());
            assert_index_twins(&t, &q_all);
            assert_index_twins(&t, &q_s);
        }
    }
}

/// Batch index builds across a pool are identical to serial builds.
#[test]
fn batch_builds_are_deterministic() {
    let mut vocab = Vocab::new();
    let cfg = hostile_cfg(&mut vocab, 150, Some(2));
    let trees: Vec<Tree> = (0..6).map(|seed| random_tree(&cfg, seed)).collect();
    let q = random_xpath(&xcfg(&cfg), 7);
    let plan = compile_xpath(&q);
    let serial: Vec<NodeSet> = trees
        .iter()
        .map(|t| eval_plan_from(t, &TreeIndex::build(t), &plan, t.root()))
        .collect();
    for workers in [1, 4] {
        let built = build_indexes(&trees, &Pool::new(workers));
        let batch: Vec<NodeSet> = trees
            .iter()
            .zip(&built)
            .map(|(t, idx)| eval_plan_from(t, idx, &plan, t.root()))
            .collect();
        assert_eq!(batch, serial, "workers={workers}");
    }
}
