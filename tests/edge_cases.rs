//! Edge-case and failure-injection tests: resource limits, degenerate
//! inputs, and error paths that the per-module suites don't reach.

use twq::automata::twir::{Cond, Instr, Source, WalkerBuilder};
use twq::automata::{examples, run_on_tree, Action, Dir, Halt, Limits, TwProgramBuilder};
use twq::guard::ResourceGuard;
use twq::logic::exists::selectors;
use twq::logic::store::sbuild::*;
use twq::logic::{eval_sentence, parse_fo, MAX_NESTING};
use twq::obs::NullCollector;
use twq::rw::{certify, normalize_formula, rewrite, rewrite_in, RewriteCtx};
use twq::tree::{parse_tree, tree_to_string, Label, Tree, Vocab};
use twq::xpath::{ast::xb, compile, eval_from, eval_from_in, parse_xpath, XPath};

/// `atp` self-recursion exhausts the nesting budget and reports it.
#[test]
fn atp_depth_limit_reported() {
    let mut vocab = Vocab::new();
    let t = parse_tree("a", &mut vocab).unwrap();
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    let r = b.unary_register();
    // ▽ starts a subcomputation at itself in q0: infinite nesting.
    b.rule_true(
        Label::DelimRoot,
        q0,
        Action::Atp(qf, selectors::self_node(), q0, r),
    );
    let p = b.build().unwrap();
    let report = run_on_tree(
        &p,
        &t,
        Limits {
            max_steps: 10_000,
            max_atp_depth: 8,
            cycle_check_interval: 1,
        },
    );
    assert_eq!(report.halt, Halt::AtpDepthLimit);
}

/// Overlapping store guards that are satisfied simultaneously are a
/// runtime determinism violation, exactly per Definition 3.1's proviso.
#[test]
fn overlapping_guards_fault_at_runtime() {
    let mut vocab = Vocab::new();
    let one = vocab.val_int(1);
    let t = parse_tree("a", &mut vocab).unwrap();
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    let r = b.register(1, twq::logic::Relation::singleton(one));
    // Both guards hold for X₁ = {1}.
    b.rule(
        Label::DelimRoot,
        q0,
        rel(r, [cst(one)]),
        Action::Move(qf, Dir::Stay),
    );
    b.rule(
        Label::DelimRoot,
        q0,
        SFormulaExists(r),
        Action::Move(qf, Dir::Down),
    );
    let p = b.build().unwrap();
    let report = run_on_tree(&p, &t, Limits::default());
    assert_eq!(report.halt, Halt::Nondeterministic);
}

#[allow(non_snake_case)]
fn SFormulaExists(r: twq::logic::RegId) -> twq::logic::SFormula {
    twq::logic::SFormula::Exists(twq::logic::Var(0), Box::new(rel(r, [v(0)])))
}

/// Sparse cycle sampling still catches cycles, just later.
#[test]
fn sparse_cycle_sampling_catches_cycles() {
    let mut vocab = Vocab::new();
    let t = parse_tree("a", &mut vocab).unwrap();
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
    b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Up));
    let p = b.build().unwrap();
    let report = run_on_tree(
        &p,
        &t,
        Limits {
            max_steps: 1_000_000,
            max_atp_depth: 4,
            cycle_check_interval: 64,
        },
    );
    assert_eq!(report.halt, Halt::Cycle);
    // With detection off, the step budget is the only stop.
    let report_off = run_on_tree(
        &p,
        &t,
        Limits {
            max_steps: 5_000,
            max_atp_depth: 4,
            cycle_check_interval: 0,
        },
    );
    assert_eq!(report_off.halt, Halt::StepLimit);
}

/// Mixed label/store conditions in the walker IR partial-evaluate
/// correctly through `All` and `Any`.
#[test]
fn twir_mixed_conditions() {
    let mut vocab = Vocab::new();
    let t = parse_tree("s[a=1](s[a=2])", &mut vocab).unwrap();
    let syms = vec![vocab.sym_opt("s").unwrap()];
    let a = vocab.attr_opt("a").unwrap();
    let one = vocab.val_int_opt(1).unwrap();
    let mut w = WalkerBuilder::new(&syms);
    let r = w.register(None);
    let s_label = Label::Sym(syms[0]);
    let body = vec![
        Instr::Move(Dir::Down),  // ⊳
        Instr::Move(Dir::Right), // root
        Instr::Set(r, Source::Attr(a)),
        // All[label is s, register = 1] → accept; Any[...] fallback → fail.
        Instr::If(
            Cond::All(vec![
                Cond::LabelIs(s_label),
                Cond::RegEq(r, Source::Const(one)),
            ]),
            vec![Instr::Accept],
            vec![Instr::If(
                Cond::Any(vec![Cond::LabelIs(Label::DelimLeaf), Cond::RegEmpty(r)]),
                vec![Instr::Fail],
                vec![Instr::Fail],
            )],
        ),
    ];
    let p = w.compile(&body).unwrap();
    assert!(run_on_tree(&p, &t, Limits::default()).accepted());
}

/// Example 3.2 on a single-node tree (the degenerate boundary).
#[test]
fn example_32_single_node() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    // A lone σ: no δ at all → accept. A lone δ: no leaf-descendants → accept.
    for src in ["sigma[a=1]", "delta[a=1]"] {
        let t = parse_tree(src, &mut vocab).unwrap();
        let report = run_on_tree(&ex.program, &t, Limits::default());
        assert!(report.accepted(), "{src}: {:?}", report.halt);
    }
}

/// Deep chains neither overflow the engine nor the delimiter machinery.
#[test]
fn deep_chain_traversal() {
    let mut vocab = Vocab::new();
    let s = vocab.sym("sigma");
    let a = vocab.attr("a");
    let one = vocab.val_int(1);
    let t = twq::tree::generate::monadic_tree(s, a, &vec![one; 400]);
    let p = examples::traversal_program(&[s]);
    let report = run_on_tree(&p, &t, Limits::default());
    assert!(report.accepted());
    assert!(report.steps as usize >= 2 * t.len());
}

/// The graph evaluator respects its step budget.
#[test]
fn graph_evaluator_step_limit() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = twq::tree::generate::TreeGenConfig::example32(&mut vocab, 60, &[1]);
    let t = twq::tree::generate::random_tree(&cfg, 0);
    let dt = twq::tree::DelimTree::build(&t);
    let report = twq::automata::run_graph(
        &ex.program,
        &dt,
        Limits {
            max_steps: 5,
            max_atp_depth: 8,
            cycle_check_interval: 1,
        },
    );
    assert!(report.halt.is_limit(), "{:?}", report.halt);
}

/// A million-deep chain survives the text format both ways: parsing and
/// printing keep their nesting on the heap, not on the call stack.
#[test]
fn million_deep_chain_round_trips_through_text() {
    let n = 1_000_000;
    let src = format!("{}a[k=1]{}", "a(".repeat(n - 1), ")".repeat(n - 1));
    let mut vocab = Vocab::new();
    let t = parse_tree(&src, &mut vocab).unwrap();
    assert_eq!(t.len(), n);
    let leaf = t.node_ids().last().unwrap();
    assert!(t.is_leaf(leaf));
    let (mut u, mut depth) = (leaf, 0);
    while let Some(p) = t.parent(u) {
        (u, depth) = (p, depth + 1);
    }
    assert_eq!(depth, n - 1);
    assert_eq!(tree_to_string(&t, &vocab), src);
}

/// Query text nested far past [`MAX_NESTING`] is a parse error at the
/// byte where the limit is crossed — not a stack overflow.
#[test]
fn deep_query_text_is_a_positioned_parse_error() {
    let mut vocab = Vocab::new();
    let deep = 20_000;
    let q = format!("{}a{}", "a[".repeat(deep), "]".repeat(deep));
    let err = parse_xpath(&q, &mut vocab).unwrap_err();
    // The `[` that opens filter number MAX_NESTING + 1 is the culprit.
    assert_eq!(err.at, 2 * (MAX_NESTING + 1), "{err}");
    assert!(err.msg.contains("nested deeper"), "{err}");

    let f = format!("{}true", "!".repeat(40_000));
    let err = parse_fo(&f, &mut vocab).unwrap_err();
    assert_eq!(err.at, MAX_NESTING + 1, "{err}");
    assert!(err.msg.contains("nesting deeper"), "{err}");
    let f = format!("{}true{}", "(".repeat(40_000), ")".repeat(40_000));
    assert!(parse_fo(&f, &mut vocab).is_err());
}

/// Query text exactly [`MAX_NESTING`] deep parses, and the passes behind
/// it — normalize, certify, compile, evaluate, drop — fit on a 2 MiB
/// stack, the size of a pool worker's.
#[test]
fn query_at_the_nesting_limit_runs_on_a_worker_stack() {
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let run = worker
        .spawn(|| {
            let mut vocab = Vocab::new();
            let t = parse_tree("a(a(a,b),a)", &mut vocab).unwrap();
            let d = MAX_NESTING;
            let q = format!("{}a{}", "a[".repeat(d), "]".repeat(d));
            let path = parse_xpath(&q, &mut vocab).unwrap();
            let rw = rewrite_in(&path, &RewriteCtx::unconstrained());
            let _ = certify(&path);
            let phi = compile(&path);
            let direct = eval_from(&t, &path, t.root());
            assert_eq!(phi.select(&t, t.root()), direct);
            assert_eq!(eval_from(&t, &rw.output, t.root()), direct);

            let f = format!("{}true", "!".repeat(d));
            let f = parse_fo(&f, &mut vocab).unwrap().formula;
            let nf = normalize_formula(&f);
            assert_eq!(eval_sentence(&t, &f), eval_sentence(&t, &nf));
            let f = format!("{}true", "E x. ".repeat(d));
            let f = parse_fo(&f, &mut vocab).unwrap().formula;
            assert_eq!(eval_sentence(&t, &normalize_formula(&f)), Ok(true));
        })
        .unwrap();
    run.join().expect("the pipeline fits on a worker stack");
}

/// `lint` reports over-deep query text as a usage error (exit 2).
#[test]
fn lint_rejects_over_deep_query_text() {
    let lint = env!("CARGO_BIN_EXE_lint");
    let q = format!("{}a{}", "a[".repeat(20_000), "]".repeat(20_000));
    let f = format!("{}true", "!".repeat(40_000));
    for args in [["--query", q.as_str()], ["--fo", f.as_str()]] {
        let out = std::process::Command::new(lint)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{}", args[0]);
        assert!(String::from_utf8_lossy(&out.stderr).contains("parse error at byte"));
    }
}

/// A left-deep step chain `((a/a)/…)/a` right-associates in one
/// `step-assoc` fire per step at most, not one per pair of steps (44 551
/// for this chain, the super-cubic normalize this guards against).
#[test]
fn left_deep_chain_right_associates_in_linear_fires() {
    let mut vocab = Vocab::new();
    let a = xb::name(vocab.sym("a"));
    let n = 300;
    let left_deep = (1..n).fold(a.clone(), |acc, _| xb::child(acc, a.clone()));
    let rw = rewrite(&left_deep);
    let fires = rw
        .fired
        .iter()
        .find(|(rule, _)| *rule == "step-assoc")
        .map_or(0, |&(_, k)| k);
    assert!(fires <= 299, "step-assoc fired {fires} times");
    let right_nested = (1..n).fold(a.clone(), |acc, _| xb::child(a.clone(), acc));
    assert_eq!(rw.output, right_nested);
}

/// A chain (or, with `fan`, a root with `n − 1` leaf children) of `n`
/// nodes: the root and every even-numbered node are labelled `a`, the odd
/// ones `b`; node `i` carries `@x = i mod 2` and `@y = i mod 3`, so the
/// two collide on every node with `i mod 6 ∈ {0, 1}`.
fn walk_shape(vocab: &mut Vocab, fan: bool, n: usize) -> Tree {
    let (a, b) = (vocab.sym("a"), vocab.sym("b"));
    let (x, y) = (vocab.attr("x"), vocab.attr("y"));
    let vals: Vec<_> = (0..3).map(|i| vocab.val_int(i)).collect();
    let mut t = Tree::leaf(a);
    let mut cur = t.root();
    for i in 1..n {
        let parent = if fan { t.root() } else { cur };
        cur = t.add_sym_child(parent, if i % 2 == 0 { a } else { b });
        t.set_attr(cur, x, vals[i % 2]);
        t.set_attr(cur, y, vals[i % 3]);
    }
    t
}

/// The walker's work is linear in the tree, counted rather than timed:
/// the fuel a guarded walk spends — one unit per AST node visit plus
/// every node a kernel or filter touches — grows at most 2.5× when a
/// chain or a fan doubles from 10⁵ to 2·10⁵ nodes.
#[test]
fn walk_fuel_doubles_at_most_2_5x_with_the_tree() {
    let mut vocab = Vocab::new();
    let queries: Vec<XPath> = ["//a", "//a[b]", "a//b[@x=@y]"]
        .iter()
        .map(|q| parse_xpath(q, &mut vocab).unwrap())
        .collect();
    for fan in [false, true] {
        let mut fuel = |n| {
            let t = walk_shape(&mut vocab, fan, n);
            queries
                .iter()
                .map(|q| {
                    let mut g = ResourceGuard::unlimited();
                    eval_from_in(&t, q, t.root(), &mut NullCollector, &mut g).unwrap();
                    g.stats().ticks
                })
                .collect::<Vec<_>>()
        };
        let (small, large) = (fuel(100_000), fuel(200_000));
        for (i, (s, l)) in small.iter().zip(&large).enumerate() {
            // Every query reads the whole tree at least once.
            assert!(*s >= 100_000, "fan={fan} query {i}: fuel {s}");
            assert!(
                *l as f64 <= 2.5 * *s as f64,
                "fan={fan} query {i}: fuel {s} at n, {l} at 2n"
            );
        }
    }
}

/// A million-node chain and fan walk to completion with exact counts —
/// the walk half of the deep-shapes suite.
#[test]
fn million_node_chain_and_fan_walk() {
    let n = 1_000_000;
    let mut vocab = Vocab::new();
    let all_a = parse_xpath("//a", &mut vocab).unwrap();
    let a_over_b = parse_xpath("//a[b]", &mut vocab).unwrap();
    let join = parse_xpath("a//b[@x=@y]", &mut vocab).unwrap();
    let joined = (1..n).filter(|i| i % 6 == 1).count();
    for fan in [false, true] {
        let t = walk_shape(&mut vocab, fan, n);
        let count = |q| eval_from(&t, q, t.root()).len();
        assert_eq!(count(&all_a), (n - 1) / 2, "fan={fan}");
        // In the chain every non-root `a` has a `b` child; fan leaves have
        // no children at all.
        assert_eq!(count(&a_over_b), if fan { 0 } else { (n - 1) / 2 });
        assert_eq!(count(&join), joined, "fan={fan}");
    }
}
