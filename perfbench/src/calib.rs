//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: a
//! fixed computation can take anywhere from 1× to 1.7× its best time,
//! changing over seconds and over minutes. A median over runs cannot remove
//! a drift that lasts longer than a run. So every run also times, between
//! ops, a fixed kernel of the benchmark's own, and scales each measured time
//! by `REF_NS` divided by the kernel time measured around it. The kernel
//! calls no program code and is the same for every seed. It has two parts,
//! because cache-resident and memory-bound work slow by different amounts
//! when the host is busy: printing a 2048-node document and answering four
//! queries on it with the reference evaluator, and AND-ing 64 pairs of
//! 4 KiB blocks drawn from a 16 MiB pool, as bitset postings are
//! intersected. Measured per second within 45-second runs, the sum tracked
//! the op speed of `doc64k`, `deep` and `corpus` better than the first part
//! alone, and that of `walkers` about as well. The end-to-end times are
//! therefore reported at the host speed at which the kernel takes `REF_NS`;
//! the report prints the wall-clock figures and the scale factors beside
//! them.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::{label_names, Doc, Rng, Shape};
use crate::reference::{Attr, Axis, Lead, Model, Pred, Query, Seq, Step};

/// The kernel's time at the reference host speed, in ns: about its median
/// on a 2-vCPU 2.1 GHz Xeon virtual machine.
pub const REF_NS: f64 = 250_000.0;

/// Words in the block pool: 16 MiB, eight times a core's L2 cache on that
/// host.
pub const POOL_WORDS: usize = 2 << 20;

/// Words in a block.
const BLOCK: usize = 512;

/// Block pairs AND-ed by one kernel call.
const PAIRS: usize = 64;

/// Kernel timings per calibration sample; the sample is their minimum.
const REPS: usize = 3;

/// Samples on each side of a moment that set the host speed there.
const WINDOW: usize = 2;

pub struct Calib {
    epoch: Instant,
    doc: Doc,
    names: Vec<String>,
    queries: Vec<Query>,
    /// (ns since `epoch`, kernel ns), in time order.
    samples: Vec<(u64, f64)>,
    pool: Vec<u64>,
    /// Generator state choosing the blocks, so that calls read different
    /// blocks.
    cursor: u64,
}

impl Calib {
    pub fn new() -> Calib {
        let labels = 8;
        let mut rng = Rng::fork(0x5eed, 9);
        let doc = Doc::generate(&mut rng, Shape::Random { max_fanout: 4 }, 2048, labels, 64);
        let step = |l: u16, preds: Vec<Pred>| Step {
            test: Some(l),
            preds,
        };
        let desc = |first: Step, rest: Vec<(Axis, Step)>| {
            Query(vec![Seq {
                lead: Lead::Desc,
                first,
                rest,
            }])
        };
        let child = Query(vec![Seq {
            lead: Lead::Bare,
            first: step(2, vec![]),
            rest: vec![],
        }]);
        let queries = vec![
            desc(step(1, vec![]), vec![(Axis::Child, step(3, vec![]))]),
            desc(step(4, vec![Pred::Path(child)]), vec![]),
            desc(step(5, vec![]), vec![(Axis::Desc, step(6, vec![]))]),
            desc(
                Step {
                    test: None,
                    preds: vec![Pred::AttrAttr(Attr::A, Attr::B)],
                },
                vec![],
            ),
        ];
        Calib {
            epoch: Instant::now(),
            doc,
            names: label_names("s", labels),
            queries,
            samples: Vec::new(),
            pool: (0..POOL_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            cursor: 1,
        }
    }

    /// Nanoseconds since the calibration's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn kernel(&mut self) -> usize {
        let text = self.doc.text(&self.names);
        let model = Model::new(&self.doc, self.names.len());
        let answers: usize = self.queries.iter().map(|q| model.answer(q).len()).sum();
        let blocks = (POOL_WORDS / BLOCK) as u64;
        let mut bits = 0;
        for _ in 0..PAIRS {
            self.cursor = self
                .cursor
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = ((self.cursor >> 33) % blocks) as usize * BLOCK;
            let y = ((self.cursor >> 13) % blocks) as usize * BLOCK;
            let (x, y) = (&self.pool[x..x + BLOCK], &self.pool[y..y + BLOCK]);
            bits += x
                .iter()
                .zip(y)
                .map(|(a, b)| (a & b).count_ones() as usize)
                .sum::<usize>();
        }
        text.len() + answers + bits
    }

    /// Time the kernel now and keep the sample.
    pub fn sample(&mut self) {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            black_box(self.kernel());
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        let t = self.now();
        self.samples.push((t, best));
    }

    /// Time of the latest sample, if any.
    pub fn last(&self) -> Option<u64> {
        self.samples.last().map(|&(t, _)| t)
    }

    /// The factor that scales a time measured at moment `t` (ns since the
    /// epoch) to the reference host speed: `REF_NS` over the median kernel
    /// time of the `WINDOW` samples before `t` and the `WINDOW` after it.
    pub fn factor_at(&self, t: u64) -> f64 {
        let i = self.samples.partition_point(|&(s, _)| s < t);
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, k)| k).collect();
        assert!(!near.is_empty(), "calibrated before timing");
        REF_NS / crate::median(near)
    }

    /// All kernel times so far.
    pub fn kernel_ns(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, k)| k).collect()
    }
}
