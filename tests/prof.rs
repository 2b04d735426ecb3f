//! Property-based tests for the `twq-prof` observability layer:
//! histogram algebra, quantile accuracy, pool-telemetry determinism
//! across worker counts, registry snapshot round-trips, and flame/guard
//! profile determinism.

use proptest::prelude::*;

use twq::automata::{examples, run_in, run_with, Limits};
use twq::exec::Pool;
use twq::guard::{GuardStats, ResourceGuard};
use twq::obs::{
    Histogram, MetricsCollector, NullCollector, Registry, RunMetrics, Snapshot, Trace,
    TraceCollector,
};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Tree, Vocab};

/// A deterministic value stream (splitmix64) — the vendored proptest
/// shim has no collection strategies, so sample vectors derive from a
/// seed. Mixing wide and narrow ranges exercises many log2 buckets.
fn values(seed: u64, len: usize) -> Vec<u64> {
    let mut s = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|i| match i % 3 {
            0 => next() % 50,
            1 => next() % 100_000,
            _ => next() % (u64::MAX / 2),
        })
        .collect()
}

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// The log2 bucket a value falls in — the resolution [`Histogram`]
/// quantiles are allowed to be off by.
fn bucket_of(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// A small batch of example-3.2 trees for the pool-determinism tests.
fn batch(seed: u64, n: usize) -> (Vocab, Vec<Tree>) {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 24, &[1, 2]);
    let trees = (0..n).map(|i| random_tree(&cfg, seed + i as u64)).collect();
    (vocab, trees)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Histogram merge is commutative: a+b and b+a agree exactly.
    #[test]
    fn hist_merge_commutes(sa in 0u64..1_000, sb in 0u64..1_000, la in 0usize..60, lb in 0usize..60) {
        let (a, b) = (values(sa, la), values(sb, lb));
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    /// Histogram merge is associative: (a+b)+c = a+(b+c), and both equal
    /// the histogram of the concatenated samples.
    #[test]
    fn hist_merge_is_associative(sa in 0u64..1_000, sb in 0u64..1_000, sc in 0u64..1_000, len in 0usize..50) {
        let (a, b, c) = (values(sa, len), values(sb, len / 2 + 1), values(sc, len / 3 + 2));
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right = hb.clone();
        right.merge(&hc);
        let mut right_total = ha.clone();
        right_total.merge(&right);
        prop_assert_eq!(&left, &right_total);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist_of(&all));
    }

    /// Quantile estimates land within one log2 bucket of the exact
    /// order statistic, and q=0 / q=1 are exactly min / max.
    #[test]
    fn quantiles_are_bucket_accurate(seed in 0u64..1_000, len in 1usize..80, qm in 0u64..=1_000) {
        let vals = values(seed, len);
        let q = qm as f64 / 1_000.0;
        let h = hist_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.quantile(0.0), Some(sorted[0]));
        prop_assert_eq!(h.quantile(1.0), Some(*sorted.last().unwrap()));
        let est = h.quantile(q).unwrap();
        let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
        let exact = sorted[rank - 1];
        prop_assert!(
            bucket_of(est).abs_diff(bucket_of(exact)) <= 1,
            "q={q} est={est} exact={exact}"
        );
    }

    /// Registry snapshots survive the JSONL round trip exactly, both
    /// cumulative and delta.
    #[test]
    fn registry_snapshot_round_trips_as_jsonl(seed in 0u64..1_000, n in 0usize..40) {
        let vals = values(seed, n);
        let mut reg = Registry::new();
        for (i, &v) in vals.iter().enumerate() {
            match i % 4 {
                // Realistic magnitudes: the JSON layer stores integers as
                // i64, so astronomically large sums (> i64::MAX) would
                // degrade to floats and fail the exact round trip.
                0 => reg.counter_add(&format!("pool/c{}", v % 5), v % 1_000_000),
                1 => reg.gauge_set(&format!("g{}", v % 3), (v % 1_000) as i64 - 500),
                _ => reg.hist_record("latency/E1", v % 100_000_000_000),
            }
        }
        for snap in [reg.snapshot(), reg.delta_snapshot()] {
            let line = snap.to_jsonl();
            prop_assert!(!line.contains('\n'), "JSONL must be one line: {}", line);
            let parsed = twq::obs::Json::parse(&line).expect("snapshot renders valid JSON");
            let back = Snapshot::from_json(&parsed).expect("snapshot parses back");
            prop_assert_eq!(&back, &snap);
        }
    }

    /// Merged pool telemetry is worker-count independent in its totals:
    /// a 4-worker batch accounts for exactly the same tasks and run
    /// results as the serial batch, and the merged metrics agree exactly.
    #[test]
    fn pool_telemetry_totals_match_across_worker_counts(seed in 0u64..200) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let (_, trees) = batch(seed, 7);
        // A metered batch: one collector per item, merged in input order.
        let metered = |pool: &Pool| {
            let (runs, stats) = pool.scoped_with_stats(trees.len(), |i| {
                let mut mc = MetricsCollector::new();
                let dt = DelimTree::build(&trees[i]);
                let r = run_with(&ex.program, &dt, Limits::default(), &mut mc);
                (r, mc.into_metrics())
            });
            let mut merged = RunMetrics::new();
            for (_, m) in &runs {
                merged.merge(m);
            }
            (runs, merged, stats)
        };
        let (r1, m1, s1) = metered(&Pool::new(1));
        let (r4, m4, s4) = metered(&Pool::new(4));
        prop_assert_eq!(r1.len(), r4.len());
        for ((a, _), (b, _)) in r1.iter().zip(&r4) {
            prop_assert_eq!(a.accepted(), b.accepted());
            prop_assert_eq!(a.steps, b.steps);
        }
        prop_assert_eq!(m1.steps, m4.steps);
        prop_assert_eq!(m1.halt, m4.halt);
        let (t1, t4) = (s1.totals(), s4.totals());
        prop_assert_eq!(t1.tasks, trees.len() as u64);
        prop_assert_eq!(t4.tasks, trees.len() as u64);
        // Serial execution neither steals nor spins.
        prop_assert_eq!(t1.steals, 0);
        prop_assert_eq!(t1.idle_spins, 0);
    }

    /// Guard statistics from a governed batch are deterministic and
    /// worker-count independent: same trips, same fuel, any pool.
    #[test]
    fn guard_stats_are_worker_count_independent(seed in 0u64..200, budget in 1u64..400) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let (_, trees) = batch(seed, 6);
        // A governed batch: a fresh guard per item, stats merged in input
        // order.
        let governed = |pool: &Pool| {
            let runs = pool.scoped(trees.len(), |i| {
                let mut g = ResourceGuard::unlimited().with_budget(budget);
                let dt = DelimTree::build(&trees[i]);
                let r = run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, &mut g);
                (r, g.stats())
            });
            let mut merged = GuardStats::default();
            for (_, s) in &runs {
                merged.merge(s);
            }
            let verdicts: Vec<_> = runs.into_iter().map(|(r, _)| r).collect();
            (verdicts, merged)
        };
        let (r1, g1) = governed(&Pool::new(1));
        let (r4, g4) = governed(&Pool::new(4));
        prop_assert_eq!(&g1, &g4);
        prop_assert_eq!(g1.budget_trips, r1.iter().filter(|r| r.is_err()).count() as u64);
        for (a, b) in r1.iter().zip(&r4) {
            prop_assert_eq!(a.is_ok(), b.is_ok());
        }
    }

    /// The flame profile — a fold over the run's causal trace — is
    /// deterministic: tracing the same run twice yields byte-identical
    /// collapsed stacks, and its total weight covers at least one sample
    /// per interpreter step.
    #[test]
    fn flame_profile_is_deterministic(seed in 0u64..200) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let cfg = TreeGenConfig::example32(&mut vocab, 30, &[1, 2]);
        let t = random_tree(&cfg, seed);
        let dt = twq::tree::DelimTree::build(&t);
        let collapse = || {
            let (r, trace) = TraceCollector::record("run", |c| {
                run_with(&ex.program, &dt, Limits::default(), c)
            });
            let plain = |q: u32| format!("state{q}");
            (trace.collapsed_with("", plain), trace.total_weight(), r.steps)
        };
        let (c1, w1, steps) = collapse();
        let (c2, w2, _) = collapse();
        prop_assert_eq!(&c1, &c2);
        prop_assert_eq!(w1, w2);
        prop_assert!(w1 >= steps, "every step is sampled: {} < {}", w1, steps);
        prop_assert!(!c1.is_empty());
    }
}

/// The flame fold of a traced batch — one trace per document, merged in
/// input order — is the same whether 1 or 4 workers ran the batch, and
/// its weight is the batch's steps plus FO primitives.
#[test]
fn flame_fold_is_the_same_at_any_worker_count() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 24, &[1, 2]);
    let dts: Vec<DelimTree> = (0..12)
        .map(|seed| DelimTree::build(&random_tree(&cfg, seed)))
        .collect();
    let profile = |workers: usize| {
        let (metrics, traces): (Vec<RunMetrics>, Vec<Trace>) = Pool::new(workers)
            .scoped(dts.len(), |i| {
                let mut pair = (MetricsCollector::new(), TraceCollector::new());
                run_with(&ex.program, &dts[i], Limits::default(), &mut pair);
                let (mc, tc) = pair;
                (mc.into_metrics(), tc.finish("run"))
            })
            .into_iter()
            .unzip();
        let mut m = RunMetrics::new();
        for one in &metrics {
            m.merge(one);
        }
        (Trace::merge_batch("run_batch", traces), m)
    };
    let (t1, m1) = profile(1);
    let (t4, _) = profile(4);
    let plain = |q: u32| format!("state{q}");
    let c1 = t1.collapsed_with("E1", plain);
    assert!(!c1.is_empty());
    assert_eq!(c1, t4.collapsed_with("E1", plain));
    assert_eq!(t1.top_self(5, plain), t4.top_self(5, plain));
    assert_eq!(
        t1.total_weight(),
        m1.steps + m1.fo_evals.iter().sum::<u64>()
    );
}
