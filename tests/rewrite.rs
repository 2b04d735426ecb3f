//! The `twq-rw` obligation suite: per-rule proptest equivalence (every
//! shipped rewrite rule must preserve the binary relation on random
//! trees), normal-form idempotence and confluence-on-samples, the
//! containment/emptiness checkers against brute-force evaluation on
//! bounded random trees, and empirical validation of streamability
//! certificates with a `MemGauge` on the active set.

use proptest::prelude::*;

use twq::guard::{GaugeKind, MemGauge};
use twq::logic::fo::build as fb;
use twq::logic::{eval_sentence, select};
use twq::rw::{
    apply_rule_deep, contains, normalize, normalize_formula, normalize_seeded, provably_empty,
    rewrite, rule, stream_select_gauged, Certificate, RewriteCtx, CATALOG,
};
use twq::tree::generate::{chain_tree, random_tree, TreeGenConfig};
use twq::tree::{Tree, Vocab};
use twq::xpath::{
    ast::xb, compile, eval_from, eval_pairs, random_xpath_shaped, XPathGenConfig, XPathShape,
};

/// The shared fixture: the Example 3.2 `{σ, δ}` vocabulary, a tree
/// generator over it, and an XPath generator speaking the same names.
fn setup() -> (Vocab, TreeGenConfig, XPathGenConfig) {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 12, &[1, 2]);
    let a = vocab.attr_opt("a").unwrap();
    let one = vocab.val_int_opt(1).unwrap();
    let xcfg = XPathGenConfig {
        symbols: cfg.symbols.clone(),
        attrs: vec![a],
        values: vec![one],
        max_depth: 3,
    };
    (vocab, cfg, xcfg)
}

/// Like [`setup`], but the *query* alphabet carries an extra `ghost`
/// symbol that trees (and the rewrite context) never speak — the fuel for
/// alphabet-based emptiness pruning.
fn setup_ghost() -> (Vocab, TreeGenConfig, XPathGenConfig, RewriteCtx) {
    let (mut vocab, cfg, mut xcfg) = setup();
    let ghost = vocab.sym("ghost");
    xcfg.symbols.push(ghost);
    let ctx = RewriteCtx::unconstrained().with_alphabet(cfg.symbols.iter().copied());
    (vocab, cfg, xcfg, ctx)
}

fn tree_for(cfg: &TreeGenConfig, seed: u64, nodes: usize) -> Tree {
    let mut c = cfg.clone();
    c.nodes = nodes.max(1);
    random_tree(&c, seed)
}

/// Each rule's equivalence obligation: wherever the rule matches, the
/// rewritten query selects exactly the same binary relation as the
/// original, on (at least) 4 random trees per sampled query — 64 cases ×
/// 4 trees ≥ 256 tree evaluations per rule.
macro_rules! rule_obligation {
    ($test:ident, $name:literal, $shape:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn $test(path_seed in 0u64..1_000_000, tree_seed in 0u64..1_000_000) {
                let (_vocab, cfg, xcfg) = setup();
                let r = rule($name).expect("rule is in the catalog");
                let ctx = RewriteCtx::unconstrained();
                let p = random_xpath_shaped(&xcfg, path_seed, $shape);
                if let Some(q) = apply_rule_deep(r, &p, &ctx) {
                    for k in 0..4u64 {
                        let nodes = 2 + ((tree_seed + k) % 14) as usize;
                        let t = tree_for(&cfg, tree_seed.wrapping_add(k), nodes);
                        prop_assert_eq!(
                            eval_pairs(&t, &p),
                            eval_pairs(&t, &q),
                            "rule {} changed semantics (path seed {}, tree seed {})",
                            $name, path_seed, tree_seed
                        );
                    }
                }
            }
        }
    };
}

rule_obligation!(rw_union_canon_equiv, "union-canon", XPathShape::UnionHeavy);
rule_obligation!(rw_filter_true_equiv, "filter-true", XPathShape::FilterHeavy);
rule_obligation!(
    rw_filter_canon_equiv,
    "filter-canon",
    XPathShape::FilterHeavy
);
rule_obligation!(
    rw_filter_pushdown_equiv,
    "filter-pushdown",
    XPathShape::FilterHeavy
);
rule_obligation!(rw_wild_fuse_equiv, "wild-fuse", XPathShape::Uniform);
rule_obligation!(rw_step_assoc_equiv, "step-assoc", XPathShape::Uniform);
rule_obligation!(rw_axis_fuse_equiv, "axis-fuse", XPathShape::Uniform);
rule_obligation!(rw_root_canon_equiv, "root-canon", XPathShape::Uniform);
rule_obligation!(
    rw_union_subsume_equiv,
    "union-subsume",
    XPathShape::UnionHeavy
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `empty-prune` obligation needs a context with assumptions:
    /// queries speak `{σ, δ, ghost}` but trees and the declared alphabet
    /// only `{σ, δ}`, so `ghost` branches are provably empty — and
    /// deleting them must not change the relation on conforming trees.
    #[test]
    fn rw_empty_prune_equiv(path_seed in 0u64..1_000_000, tree_seed in 0u64..1_000_000) {
        let (_vocab, cfg, xcfg, ctx) = setup_ghost();
        let r = rule("empty-prune").expect("rule is in the catalog");
        let p = random_xpath_shaped(&xcfg, path_seed, XPathShape::UnionHeavy);
        if let Some(q) = apply_rule_deep(r, &p, &ctx) {
            for k in 0..4u64 {
                let nodes = 2 + ((tree_seed + k) % 14) as usize;
                let t = tree_for(&cfg, tree_seed.wrapping_add(k), nodes);
                prop_assert_eq!(eval_pairs(&t, &p), eval_pairs(&t, &q));
            }
        }
    }

    /// The full engine: the normal form is equivalent to the input, and a
    /// provably-empty verdict means the relation really is empty.
    #[test]
    fn normal_form_is_equivalent(
        path_seed in 0u64..1_000_000,
        tree_seed in 0u64..1_000_000,
        shape_roll in 0u32..3,
    ) {
        let (_vocab, cfg, xcfg) = setup();
        let shape = [XPathShape::Uniform, XPathShape::UnionHeavy, XPathShape::FilterHeavy]
            [shape_roll as usize];
        let p = random_xpath_shaped(&xcfg, path_seed, shape);
        let n = normalize(&p);
        for k in 0..4u64 {
            let nodes = 2 + ((tree_seed + k) % 14) as usize;
            let t = tree_for(&cfg, tree_seed.wrapping_add(k), nodes);
            let direct = eval_pairs(&t, &p);
            prop_assert_eq!(&direct, &eval_pairs(&t, &n));
            if rewrite(&p).provably_empty {
                prop_assert!(direct.is_empty(), "provably-empty query selected pairs");
            }
        }
    }

    /// Normalization is idempotent, and (on samples) confluent: shuffling
    /// the rule application order reaches the same normal form.
    #[test]
    fn normalization_idempotent_and_confluent(
        path_seed in 0u64..1_000_000,
        shape_roll in 0u32..3,
    ) {
        let (_vocab, _cfg, xcfg) = setup();
        let shape = [XPathShape::Uniform, XPathShape::UnionHeavy, XPathShape::FilterHeavy]
            [shape_roll as usize];
        let p = random_xpath_shaped(&xcfg, path_seed, shape);
        let ctx = RewriteCtx::unconstrained();
        let n = normalize(&p);
        prop_assert_eq!(&normalize(&n), &n, "normal form not a fixpoint");
        for order_seed in [1u64, 7, 1729] {
            prop_assert_eq!(
                &normalize_seeded(&p, &ctx, order_seed),
                &n,
                "rule order {} reached a different normal form",
                order_seed
            );
        }
    }

    /// Containment is sound: whenever the checker says `p ⊑ q`, brute
    /// force on bounded random trees finds the relation of `p` inside the
    /// relation of `q`.
    #[test]
    fn containment_is_sound(
        p_seed in 0u64..1_000_000,
        q_seed in 0u64..1_000_000,
        tree_seed in 0u64..1_000_000,
    ) {
        let (_vocab, cfg, xcfg) = setup();
        let p = random_xpath_shaped(&xcfg, p_seed, XPathShape::Uniform);
        let q = random_xpath_shaped(&xcfg, q_seed, XPathShape::UnionHeavy);
        // Exercise both orientations plus guaranteed-positive instances.
        let claims = [
            (p.clone(), q.clone(), contains(&p, &q)),
            (q.clone(), p.clone(), contains(&q, &p)),
            (p.clone(), xb::union(p.clone(), q.clone()), true),
        ];
        prop_assert!(contains(&p, &xb::union(p.clone(), q.clone())), "p ⊑ p | q must hold");
        for (lo, hi, claimed) in claims {
            if !claimed {
                continue; // the checker is incomplete by design; only soundness is testable
            }
            for k in 0..6u64 {
                let nodes = 2 + ((tree_seed + k) % 12) as usize;
                let t = tree_for(&cfg, tree_seed.wrapping_add(k), nodes);
                let (lp, hp) = (eval_pairs(&t, &lo), eval_pairs(&t, &hi));
                prop_assert!(
                    lp.is_subset(&hp),
                    "claimed containment refuted on tree seed {}",
                    tree_seed.wrapping_add(k)
                );
            }
        }
    }

    /// Emptiness is sound under alphabet + depth assumptions: a
    /// provably-empty verdict means no conforming tree yields a pair.
    #[test]
    fn emptiness_is_sound(
        path_seed in 0u64..1_000_000,
        tree_seed in 0u64..1_000_000,
        shape_roll in 0u32..3,
    ) {
        let (_vocab, cfg, xcfg, ctx) = setup_ghost();
        let max_depth = 3usize;
        let ctx = ctx.with_max_depth(max_depth);
        let shape = [XPathShape::Uniform, XPathShape::UnionHeavy, XPathShape::FilterHeavy]
            [shape_roll as usize];
        let p = random_xpath_shaped(&xcfg, path_seed, shape);
        if provably_empty(&p, &ctx) {
            for k in 0..8u64 {
                let nodes = 2 + ((tree_seed + k) % 12) as usize;
                let t = tree_for(&cfg, tree_seed.wrapping_add(k), nodes);
                if t.node_ids().map(|u| t.depth(u)).max().unwrap_or(0) > max_depth {
                    continue; // not a conforming tree
                }
                prop_assert!(
                    eval_pairs(&t, &p).is_empty(),
                    "provably-empty query selected pairs on a conforming tree"
                );
            }
        }
    }

    /// FO normalization preserves both sentence truth and per-context
    /// selection, and is idempotent.
    #[test]
    fn fo_normal_form_is_equivalent(path_seed in 0u64..1_000_000, tree_seed in 0u64..1_000_000) {
        let (_vocab, cfg, xcfg) = setup();
        let phi = compile(&random_xpath_shaped(&xcfg, path_seed, XPathShape::FilterHeavy));
        // Keep the naive O(n^q) evaluator affordable.
        prop_assume!(phi.quantified().len() <= 4);
        let formula = phi.to_formula();
        let sentence = fb::exists(phi.x(), fb::exists(phi.y(), formula.clone()));
        prop_assert_eq!(&normalize_formula(&normalize_formula(&sentence)),
                        &normalize_formula(&sentence));
        let t = tree_for(&cfg, tree_seed, 2 + (tree_seed % 6) as usize);
        prop_assert_eq!(
            eval_sentence(&t, &sentence).unwrap(),
            eval_sentence(&t, &normalize_formula(&sentence)).unwrap()
        );
        let formula_norm = normalize_formula(&formula);
        for u in t.node_ids() {
            prop_assert_eq!(
                select(&t, &formula, phi.x(), u, phi.y()).unwrap(),
                select(&t, &formula_norm, phi.x(), u, phi.y()).unwrap()
            );
        }
    }
}

/// Every rule in the catalog actually fires somewhere on the shaped
/// corpus — the per-rule obligations above are not vacuously true.
#[test]
fn every_rule_fires_on_the_shaped_corpus() {
    let (_vocab, _cfg, xcfg) = setup();
    let (_gv, _gcfg, gxcfg, gctx) = setup_ghost();
    let shapes = [
        XPathShape::Uniform,
        XPathShape::UnionHeavy,
        XPathShape::FilterHeavy,
    ];
    for r in CATALOG {
        let (cfg_ref, ctx) = if r.name == "empty-prune" {
            (&gxcfg, gctx.clone())
        } else {
            (&xcfg, RewriteCtx::unconstrained())
        };
        let mut fired = 0usize;
        'seeds: for seed in 0..2_000u64 {
            for shape in shapes {
                let p = random_xpath_shaped(cfg_ref, seed, shape);
                if apply_rule_deep(r, &p, &ctx).is_some() {
                    fired += 1;
                    if fired >= 5 {
                        break 'seeds;
                    }
                }
            }
        }
        assert!(
            fired >= 5,
            "rule {} fired only {fired} time(s) in 2000 seeds — obligation is vacuous",
            r.name
        );
    }
}

/// Streamability certificates hold empirically: on deep chains and random
/// trees, the one-pass evaluator reproduces `eval_from(root)` while a
/// `MemGauge` capped at `max_depth_state` never trips — the active set
/// stays within the certified per-level bound no matter the tree size.
#[test]
fn streamability_certificates_hold_under_memgauge() {
    let (_vocab, cfg, xcfg) = setup();
    let mut certified = 0usize;
    for path_seed in 0..160u64 {
        let shape = [
            XPathShape::Uniform,
            XPathShape::UnionHeavy,
            XPathShape::FilterHeavy,
        ][(path_seed % 3) as usize];
        let p = random_xpath_shaped(&xcfg, path_seed, shape);
        let rw = rewrite(&p);
        let Certificate::Streamable { max_depth_state } = rw.certificate else {
            continue;
        };
        certified += 1;
        let mut trees = vec![
            chain_tree(cfg.symbols[0], 64),
            tree_for(&cfg, path_seed, 40),
            tree_for(&cfg, path_seed.wrapping_add(1), 7),
        ];
        for t in trees.drain(..) {
            let mut gauge = MemGauge::unlimited().with_limit(GaugeKind::Relation, max_depth_state);
            let streamed = stream_select_gauged(&t, &rw.output, &mut gauge)
                .expect("certified query exceeded its own max_depth_state")
                .expect("certified query must be streamable");
            let (got, stats) = streamed;
            let want = eval_from(&t, &p, t.root());
            assert_eq!(got, want, "stream pass diverged (path seed {path_seed})");
            assert!(stats.max_active <= max_depth_state);
            assert!(gauge.high_water(GaugeKind::Relation) <= max_depth_state);
        }
    }
    assert!(
        certified >= 40,
        "only {certified}/160 sampled queries certified streamable — corpus too weak"
    );
}

/// The certificate-vs-evaluator contract from the other side: a
/// `NotStreamable` witness never stops the relational twins from agreeing
/// (spot check that `rewrite` + naive evaluation round-trips for every
/// certificate variant).
#[test]
fn certificates_partition_the_corpus() {
    let (_vocab, cfg, xcfg, ctx) = setup_ghost();
    let (mut empty, mut stream, mut relational) = (0usize, 0usize, 0usize);
    for seed in 0..300u64 {
        let shape = [
            XPathShape::Uniform,
            XPathShape::UnionHeavy,
            XPathShape::FilterHeavy,
        ][(seed % 3) as usize];
        let p = random_xpath_shaped(&xcfg, seed, shape);
        let rw = twq::rw::rewrite_in(&p, &ctx);
        let t = tree_for(&cfg, seed, 9);
        match rw.certificate {
            Certificate::Empty => {
                empty += 1;
                assert!(eval_pairs(&t, &p).is_empty(), "seed {seed}");
            }
            Certificate::Streamable { .. } => stream += 1,
            Certificate::NotStreamable { ref witness } => {
                relational += 1;
                assert!(!witness.is_empty());
            }
        }
        assert_eq!(
            eval_pairs(&t, &p),
            eval_pairs(&t, &rw.output),
            "seed {seed}"
        );
    }
    assert!(empty > 0, "no Empty certificates in 300 seeds");
    assert!(stream > 0, "no Streamable certificates in 300 seeds");
    assert!(relational > 0, "no NotStreamable certificates in 300 seeds");
}
