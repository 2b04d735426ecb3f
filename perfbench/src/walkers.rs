//! The `walkers` workload: the `automata::examples` roster run with
//! `run_batch` over batches of small documents. It is the one workload
//! that runs the engine, FO(∃*) look-ahead selection and the pool.
//!
//! The timed ops use the serial pool. On a 2-vCPU host a 2-worker batch
//! waits for whichever vCPU other load holds, and alternating runs of the
//! two set-ups measured 400–683 ops/s with 2 workers against 303–363 ops/s
//! with one: the end-to-end figures would follow the host, not the program.
//! The traced run times the same batches on `Pool::new(2)` as well, for
//! `exec.speedup`.
//!
//! `setup_s` times `parse_tree` and `DelimTree::build` of every document,
//! as the walker path's loading; `run_batch` takes plain trees and builds
//! each document's `DelimTree` again inside every op. The set-up's
//! `DelimTree`s serve the traced run's counting pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use twq_automata::examples::{
    all_leaves_equal_program, distinct_values_at_least, even_leaves_program, example_32,
    parent_child_match_program, traversal_program,
};
use twq_automata::{run_batch, run_with, Limits, RunReport, TwProgram};
use twq_exec::Pool;
use twq_obs::{FoEval, MetricsCollector};
use twq_tree::{parse_tree, DelimTree, Tree, Vocab};

use crate::gen::{Doc, Rng, Shape};
use crate::reference::Walker;
use crate::trace::Tracer;
use crate::{Layers, OpResult, SetupTimes, Workload};

const BATCHES: usize = 192;
const BATCH: usize = 8;

/// One period of the mix: each batch is run by the roster program of every
/// slot. Seven equal shares (traversal twice) put the median op in the
/// middle of one share and the p99 op inside the slowest share, never on
/// the boundary between two programs.
const SLOTS: [usize; 7] = [0, 1, 2, 3, 4, 5, 0];

/// Per-pass counts from the first traced pass.
#[derive(Default)]
struct Counts {
    selects: u64,
    atoms: u64,
    steps: u64,
    atp_calls: u64,
    max_store_tuples: usize,
    /// Serial batch time and steps of the programs without look-ahead.
    engine_ns: u64,
    engine_steps: u64,
}

pub struct WalkersWorkload {
    names: Vec<String>,
    docs: Vec<Doc>,
    texts: Vec<String>,
    roster: Vec<(Walker, TwProgram)>,
    /// `expected[p][d]`: whether program `p` accepts document `d`.
    expected: Vec<Vec<bool>>,
    base_vocab: Vocab,
    // Program-side state, rebuilt by every set-up.
    vocab: Vocab,
    trees: Vec<Tree>,
    delims: Vec<DelimTree>,
    counts: Counts,
    counted_ops: usize,
}

impl WalkersWorkload {
    pub fn new(seed: u64) -> WalkersWorkload {
        let mut vocab = Vocab::new();
        let ex = example_32(&mut vocab);
        let alphabet = [ex.sigma, ex.delta];
        let roster = vec![
            (Walker::Traversal, traversal_program(&alphabet)),
            (Walker::EvenLeaves, even_leaves_program(&alphabet)),
            (
                Walker::AllLeavesEqual,
                all_leaves_equal_program(&alphabet, ex.attr),
            ),
            (
                Walker::ParentChildMatch,
                parent_child_match_program(&alphabet, ex.attr),
            ),
            (
                Walker::DistinctValues(3),
                distinct_values_at_least(&alphabet, ex.attr, 3),
            ),
            (Walker::Example32, ex.program),
        ];
        let names = vec!["sigma".to_owned(), "delta".to_owned()];
        let mut rng = Rng::fork(seed, 6);
        // Sizes are fixed for every seed: a ladder over 32..=96 in a
        // scrambled order.
        let docs: Vec<Doc> = (0..BATCHES * BATCH)
            .map(|i| {
                let n = 32 + (i * 389 % (BATCHES * BATCH)) * 64 / (BATCHES * BATCH - 1);
                Doc::generate(&mut rng, Shape::Random { max_fanout: 3 }, n, 2, 4)
            })
            .collect();
        let expected = roster
            .iter()
            .map(|(w, _)| docs.iter().map(|d| w.verdict(d, 1)).collect())
            .collect();
        WalkersWorkload {
            texts: docs.iter().map(|d| d.text(&names)).collect(),
            names,
            docs,
            roster,
            expected,
            vocab: vocab.clone(),
            base_vocab: vocab,
            trees: Vec::new(),
            delims: Vec::new(),
            counts: Counts::default(),
            counted_ops: 0,
        }
    }

    /// Op `i` runs the program of slot `i % 7` over batch `i / 7`.
    fn decode(&self, i: usize) -> (usize, std::ops::Range<usize>) {
        let b = i / SLOTS.len();
        (SLOTS[i % SLOTS.len()], b * BATCH..(b + 1) * BATCH)
    }

    fn check(
        &self,
        p: usize,
        docs: std::ops::Range<usize>,
        reports: &[RunReport],
    ) -> Result<(), String> {
        for (d, r) in docs.zip(reports) {
            if r.halt.is_limit() || r.accepted() != self.expected[p][d] {
                return Err(format!(
                    "{} on document {d}: {:?}, expected {}",
                    self.roster[p].0.name(),
                    r.halt,
                    if self.expected[p][d] {
                        "accept"
                    } else {
                        "reject"
                    }
                ));
            }
        }
        Ok(())
    }
}

impl Workload for WalkersWorkload {
    fn pass_len(&self) -> usize {
        BATCHES * SLOTS.len()
    }

    fn period(&self) -> usize {
        SLOTS.len()
    }

    fn unload(&mut self) {
        self.trees.clear();
        self.delims.clear();
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.vocab = self.base_vocab.clone();
        let vocab = &mut self.vocab;
        for text in &self.texts {
            let tree = tr
                .span("tree", "parse_tree", || parse_tree(text, vocab))
                .map_err(|e| e.to_string())?;
            self.delims
                .push(tr.span("tree", "DelimTree::build", || DelimTree::build(&tree)));
            self.trees.push(tree);
        }
        Ok(())
    }

    fn after_setup(&mut self) -> Result<(), String> {
        for (d, (tree, doc)) in self.trees.iter().zip(&self.docs).enumerate() {
            crate::queries::check_loaded(tree, &self.vocab, doc, &self.names)
                .map_err(|e| format!("document {d}: {e}"))?;
        }
        Ok(())
    }

    fn op(&mut self, i: usize) -> OpResult {
        let (p, docs) = self.decode(i);
        let prog = &self.roster[p].1;
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_batch(
                prog,
                &self.trees[docs.clone()],
                Limits::default(),
                &Pool::serial(),
            )
        }));
        let ns = t0.elapsed().as_nanos() as u64;
        OpResult {
            ns,
            outcome: match res {
                Ok(reports) => self.check(p, docs, &reports),
                Err(e) => Err(format!("panic: {}", crate::panic_message(&e))),
            },
        }
    }

    /// A traced op: the op itself (`run_batch` on the serial pool), then the
    /// same batch on a 2-worker pool for `exec.speedup`. The first pass also
    /// counts look-ahead work with a metrics collector, outside every span.
    fn op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let (p, docs) = self.decode(i);
        let (walker, prog) = (self.roster[p].0, &self.roster[p].1);
        let (trees, limits) = (&self.trees[docs.clone()], Limits::default());
        let root = tr.begin("bench", "op");
        let serial = catch_unwind(AssertUnwindSafe(|| {
            tr.span("automata", "run_batch", || {
                run_batch(prog, trees, limits, &Pool::serial())
            })
        }));
        tr.end(root);
        let ns = tr.spans[root as usize].ns();
        let pooled = catch_unwind(AssertUnwindSafe(|| {
            tr.span("exec", "run_batch_2", || {
                run_batch(prog, trees, limits, &Pool::new(2))
            })
        }));
        let outcome = match (serial, pooled) {
            (Ok(a), Ok(b)) => {
                if matches!(
                    walker,
                    Walker::Traversal | Walker::EvenLeaves | Walker::AllLeavesEqual
                ) {
                    self.counts.engine_ns += ns;
                    self.counts.engine_steps += a.iter().map(|r| r.steps).sum::<u64>();
                }
                self.check(p, docs.clone(), &a)
                    .and_then(|()| self.check(p, docs.clone(), &b))
            }
            (Err(e), _) | (_, Err(e)) => Err(format!("panic: {}", crate::panic_message(&e))),
        };
        if self.counted_ops < self.pass_len() {
            self.counted_ops += 1;
            for d in docs {
                let mut mc = MetricsCollector::new();
                let r = run_with(prog, &self.delims[d], limits, &mut mc);
                let c = &mut self.counts;
                c.selects += mc.metrics.fo(FoEval::Select);
                c.atoms += mc.metrics.fo(FoEval::Atom);
                c.steps += r.steps;
                c.atp_calls += r.atp_calls;
                c.max_store_tuples = c.max_store_tuples.max(r.max_store_tuples);
            }
        }
        OpResult { ns, outcome }
    }

    fn layers(&self, tr: &Tracer, setup: &SetupTimes, out: &mut Layers) {
        let c = &self.counts;
        let nodes: usize = self.trees.iter().map(Tree::len).sum();
        out.set("tree.parse_ns_per_node", setup.parse_ns / nodes as f64);
        out.set("tree.delim_ns", setup.build_ns);
        out.set("logic.selects", c.selects as f64);
        out.set("logic.atoms", c.atoms as f64);
        out.set("automata.steps", c.steps as f64);
        out.set("automata.atp_calls", c.atp_calls as f64);
        out.set("automata.max_store_tuples", c.max_store_tuples as f64);
        if c.engine_steps > 0 {
            out.set(
                "automata.ns_per_step",
                c.engine_ns as f64 / c.engine_steps as f64,
            );
        }
        let (serial_ns, _) = tr.total("run_batch");
        let (pooled_ns, _) = tr.total("run_batch_2");
        if pooled_ns > 0 {
            out.set("exec.speedup", serial_ns as f64 / pooled_ns as f64);
        }
    }
}
