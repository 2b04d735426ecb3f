//! End-to-end and per-layer benchmark of the twq query and walker paths.
//!
//! ```text
//! twq-perfbench --workload doc64k|deep|corpus|walkers --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its documents and query text from the seed, loads them
//! through the public entry points (`parse_tree`, `TreeIndex::build`,
//! `DelimTree::build`), then runs one closed-loop client for `S` seconds
//! and checks every answer against the benchmark's own reference outside
//! the timed calls. Op and set-up times are scaled to a reference host
//! speed measured between ops (see `calib`). With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it spends half the time
//! untraced and half calling each layer's public functions one by one
//! inside spans, and reports the per-layer metrics and the tracing
//! overhead. The last line of standard output is one JSON object; the
//! lines before it are the human report.

mod calib;
mod gen;
mod queries;
mod reference;
mod trace;
mod walkers;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use calib::Calib;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Least time between two host-speed samples of an op loop, in ns.
const CALIB_GAP_NS: u64 = 50_000_000;

/// Depth of the document the `deep` robustness op loads in a child process.
const PROBE_DEPTH: usize = 65_536;

/// The end-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run. A workload that does not run a
/// layer reports 0 for its metrics and the report marks them `n/a`.
const PER_LAYER: [(&str, &str); 31] = [
    ("tree.parse_ns_per_node", "ns"),
    ("tree.delim_ns", "ns"),
    ("xpath.parse_ns", "ns"),
    ("xpath.walk_ns", "ns"),
    ("xpath.walk_share", "ratio"),
    ("rewrite.ns", "ns"),
    ("rewrite.rules_fired", "count"),
    ("rewrite.streamable_frac", "ratio"),
    ("rewrite.empty_frac", "ratio"),
    ("rewrite.stream_ns", "ns"),
    ("rewrite.relational_ns", "ns"),
    ("index.build_ns", "ns"),
    ("index.postings_bytes", "bytes"),
    ("index.plan_ns", "ns"),
    ("index.eval_ns", "ns"),
    ("index.chosen_frac", "ratio"),
    ("index.cost_err_log2", "log2"),
    ("logic.selects", "count"),
    ("logic.atoms", "count"),
    ("automata.steps", "count"),
    ("automata.atp_calls", "count"),
    ("automata.max_store_tuples", "count"),
    ("automata.ns_per_step", "ns"),
    ("exec.speedup", "ratio"),
    ("ref.scan_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("xpath.self_ns_per_op", "ns"),
    ("rewrite.self_ns_per_op", "ns"),
    ("index.self_ns_per_op", "ns"),
    ("automata.self_ns_per_op", "ns"),
    ("exec.self_ns_per_op", "ns"),
];

/// A metric for the JSON line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// One op's program-side time and whether its answer checked out.
pub struct OpResult {
    pub ns: u64,
    pub outcome: Result<(), String>,
}

/// Medians over the set-ups of one run.
pub struct SetupTimes {
    pub parse_ns: f64,
    /// `TreeIndex::build` or `DelimTree::build`, summed over documents.
    pub build_ns: f64,
}

/// Per-layer metric values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// A workload: generated inputs, a program-side load, and a pass of ops.
pub trait Workload {
    /// Ops in one pass; ops cycle through the pass.
    fn pass_len(&self) -> usize;
    /// Ops in one period of the mix; runs stop only at period boundaries,
    /// so that every run sees the same class shares.
    fn period(&self) -> usize;
    /// Drop what the last set-up loaded (not timed).
    fn unload(&mut self);
    /// Load every document through the program (timed as `setup_s`).
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Check what set-up loaded (not timed).
    fn after_setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Op `i` of the pass through the public entry point.
    fn op(&mut self, i: usize) -> OpResult;
    /// Op `i` of the pass, its stages called one by one inside spans.
    fn op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpResult;
    /// Per-layer metrics from the traced ops.
    fn layers(&self, tr: &Tracer, setup: &SetupTimes, out: &mut Layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    out: PathBuf,
    probe: Option<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: twq-perfbench --workload doc64k|deep|corpus|walkers --seed N --seconds S \
         --trace 0|1 [--commit ID] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit: "unknown".to_owned(),
        out: PathBuf::from("perfbench/out"),
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--commit" => args.commit = val(),
            "--out" => args.out = PathBuf::from(val()),
            "--deep-probe" => {
                args.probe = Some(val().parse().unwrap_or_else(|_| usage("bad --deep-probe")))
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.probe.is_none() && (args.seconds.is_nan() || args.seconds <= 0.0) {
        usage("--seconds must be positive");
    }
    args
}

pub fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples, and how many lie beyond it.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Peak resident set of this process, in MiB, less the benchmark's own
/// fixed-size buffers: the calibration pool and one execution log.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let own_mb = (calib::POOL_WORDS * 8 + LOG_CAP * 8) as f64 / (1 << 20) as f64;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0 - own_mb)
}

/// Executions a loop's log holds before it grows: 16 MiB of records.
const LOG_CAP: usize = 2 << 20;

/// The executions of a loop.
struct Samples {
    /// (start in µs since the calibration epoch, ns) of every execution.
    /// The log is written in full when it is made, so that its resident
    /// size does not depend on how many ops a run completes.
    log: Vec<(u32, u32)>,
    n: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            log: vec![(u32::MAX, u32::MAX); LOG_CAP],
            n: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn record(&mut self, i: usize, start_ns: u64, r: OpResult) {
        self.push(
            (start_ns / 1000) as u32,
            r.ns.min(u64::from(u32::MAX)) as u32,
        );
        if let Err(e) = r.outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("op {i}: {e}"));
            }
        }
    }

    fn push(&mut self, start_us: u32, ns: u32) {
        match self.log.get_mut(self.n) {
            Some(slot) => *slot = (start_us, ns),
            None => self.log.push((start_us, ns)),
        }
        self.n += 1;
    }

    /// Append another loop's executions and failures.
    fn absorb(&mut self, other: Samples) {
        for &(t, ns) in other.execs() {
            self.push(t, ns);
        }
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    fn execs(&self) -> &[(u32, u32)] {
        &self.log[..self.n]
    }

    /// Every execution's time scaled to the reference host speed, in ns.
    fn scaled(&self, cal: &Calib) -> Vec<f64> {
        self.execs()
            .iter()
            .map(|&(t, ns)| f64::from(ns) * cal.factor_at(u64::from(t) * 1000 + u64::from(ns) / 2))
            .collect()
    }

    /// Every execution's wall-clock time, in ns.
    fn wall(&self) -> Vec<f64> {
        self.execs().iter().map(|&(_, ns)| f64::from(ns)).collect()
    }
}

/// A workload and the timings of its set-ups.
struct Bench {
    w: Box<dyn Workload>,
    cal: Calib,
    /// Set-up times scaled to the reference host speed, and wall-clock.
    setup_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    parse_ns: Vec<f64>,
    build_ns: Vec<f64>,
    /// Spans of the latest set-up.
    setup_tr: Tracer,
}

impl Bench {
    /// Drop the loaded state, then load every document again (timed, with
    /// a calibration sample on each side).
    fn load(&mut self) -> Result<(), String> {
        self.w.unload();
        let mut tr = Tracer::new();
        self.cal.sample();
        let start = self.cal.now();
        let t0 = Instant::now();
        let loaded = self.w.setup(&mut tr);
        let ns = t0.elapsed().as_nanos() as u64;
        self.cal.sample();
        self.setup_wall_s.push(ns as f64 / 1e9);
        self.setup_s
            .push(ns as f64 * self.cal.factor_at(start + ns / 2) / 1e9);
        loaded.and_then(|()| self.w.after_setup())?;
        self.parse_ns.push(tr.total("parse_tree").0 as f64);
        let build = tr.total("TreeIndex::build").0 + tr.total("DelimTree::build").0;
        self.build_ns.push(build as f64);
        self.setup_tr = tr;
        Ok(())
    }

    /// Closed loop, one client: ops back to back, cycling through the pass,
    /// until one pass is done, `seconds` have passed and a period of the mix
    /// is complete. The host speed is sampled between periods, at most every
    /// `CALIB_GAP_NS`. `reloads` further set-ups run at evenly spaced times,
    /// so that the set-ups of a run sample the whole run.
    fn run_loop(
        &mut self,
        seconds: f64,
        reloads: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Result<Samples, String> {
        let (len, period) = (self.w.pass_len(), self.w.period());
        let mut s = Samples::new();
        let start = Instant::now();
        let (mut i, mut reloaded) = (0, 0);
        loop {
            if i % period == 0 {
                if self
                    .cal
                    .last()
                    .is_none_or(|t| self.cal.now() >= t + CALIB_GAP_NS)
                {
                    self.cal.sample();
                }
                let t = start.elapsed().as_secs_f64();
                if i >= len && t >= seconds {
                    return Ok(s);
                }
                if reloaded < reloads && t >= seconds * (reloaded + 1) as f64 / (reloads + 1) as f64
                {
                    self.load()?;
                    reloaded += 1;
                }
            }
            let at = self.cal.now();
            let r = match tr.as_deref_mut() {
                Some(tr) => self.w.op_traced(i % len, tr),
                None => self.w.op(i % len),
            };
            s.record(i % len, at, r);
            i += 1;
        }
    }
}

/// The `deep` robustness op: load a `PROBE_DEPTH`-deep chain in a child
/// process, so that a stack overflow ends the child and not the run.
fn deep_probe(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {:?}: {e}", args.out))?;
    let err_path = args.out.join(format!("deep-probe-{}.stderr", args.seed));
    let err_file = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args([
            "--deep-probe",
            &PROBE_DEPTH.to_string(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(s) => break s,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("child still loading after 60 s; killed".to_owned());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read as _;
        let _ = out.read_to_string(&mut stdout);
    }
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let _ = std::fs::remove_file(&err_path);
    if status.success() && stdout.trim() == format!("loaded {PROBE_DEPTH}") {
        return Ok(());
    }
    let how = {
        use std::os::unix::process::ExitStatusExt as _;
        match (status.code(), status.signal()) {
            (_, Some(sig)) => format!("killed by signal {sig}"),
            (Some(code), _) => format!("exit code {code}"),
            _ => "ended".to_owned(),
        }
    };
    let last = stderr
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let first = stderr.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    Err(format!(
        "{how}: {first}{}",
        if last != first {
            format!(" / {last}")
        } else {
            String::new()
        }
    ))
}

/// The child side of [`deep_probe`]: generate the chain, parse it on the
/// main thread, report the node count.
fn deep_probe_child(seed: u64, depth: usize) -> ! {
    let mut rng = gen::Rng::fork(seed, 7);
    let doc = gen::Doc::generate(&mut rng, gen::Shape::Chain, depth, 4, 4096);
    let text = doc.text(&gen::label_names("s", 4));
    let mut vocab = twq_tree::Vocab::new();
    match twq_tree::parse_tree(&text, &mut vocab) {
        Ok(t) => {
            println!("loaded {}", t.len());
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1)
        }
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = parse_args();
    if let Some(depth) = args.probe {
        deep_probe_child(args.seed, depth);
    }
    let w: Box<dyn Workload> = match args.workload.as_str() {
        "doc64k" => Box::new(queries::QueryWorkload::doc64k(args.seed)),
        "deep" => Box::new(queries::QueryWorkload::deep(args.seed)),
        "corpus" => Box::new(queries::QueryWorkload::corpus(args.seed)),
        "walkers" => Box::new(walkers::WalkersWorkload::new(args.seed)),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# twq perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# available_parallelism={cores} build={profile} commit={} client=closed-loop/1",
        args.commit
    );

    let mut bench = Bench {
        w,
        cal: Calib::new(),
        setup_s: Vec::new(),
        setup_wall_s: Vec::new(),
        parse_ns: Vec::new(),
        build_ns: Vec::new(),
        setup_tr: Tracer::new(),
    };
    let robustness = (args.workload == "deep").then(|| deep_probe(&args));
    let (stats, metrics) = match measure(&mut bench, &args) {
        Ok(r) => r,
        Err(e) => {
            println!("# set-up failed: {e}");
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            return;
        }
    };
    let attempted = stats.n;
    println!(
        "{:<26} {:>16.6} {:<6} {}/{} ops",
        "failed_frac",
        stats.failed as f64 / attempted as f64,
        "ratio",
        stats.failed,
        attempted
    );
    for f in &stats.failures {
        println!("# failed {f}");
    }
    if let Some(r) = &robustness {
        match r {
            Ok(()) => println!("robustness deep-load depth={PROBE_DEPTH}: ok"),
            Err(cause) => println!("robustness deep-load depth={PROBE_DEPTH}: FAILED ({cause})"),
        }
        let with_probe = stats.failed + usize::from(r.is_err());
        println!(
            "{:<26} {:>16.6} {:<6} {}/{} ops with the robustness op",
            "failed_frac_with_probe",
            with_probe as f64 / (attempted + 1) as f64,
            "ratio",
            with_probe,
            attempted + 1
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_num(*v)))
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {}, "metrics": {{{}}}}}"#,
        stats.failed == 0,
        stats.failed,
        body.join(", ")
    );
}

/// Set up and run the loops of one run; returns the checked executions and
/// the metrics for the JSON line.
fn measure(bench: &mut Bench, args: &Args) -> Result<(Samples, Vec<Metric>), String> {
    let mut metrics = Vec::new();
    if !args.trace {
        bench.load()?;
        let stats = bench.run_loop(args.seconds, SETUP_REPS - 1, None)?;
        let rss = peak_rss_mb();
        let mut lat = stats.scaled(&bench.cal);
        let mut wall = stats.wall();
        lat.sort_by(f64::total_cmp);
        wall.sort_by(f64::total_cmp);
        let n = lat.len();
        let busy_s = lat.iter().sum::<f64>() / 1e9;
        let wall_s = wall.iter().sum::<f64>() / 1e9;
        let (p50, _) = percentile(&lat, 0.50);
        let (p99, beyond) = percentile(&lat, 0.99);
        let values = [
            median(bench.setup_s.clone()),
            n as f64 / busy_s,
            p50 / 1e3,
            p99 / 1e3,
            rss,
        ];
        let notes = [
            format!(
                "median of {} set-ups spread over the run; wall-clock {:.4} s",
                bench.setup_s.len(),
                median(bench.setup_wall_s.clone())
            ),
            format!(
                "{n} executions / {busy_s:.4} s of scaled op time; wall-clock {:.2} ops/s",
                n as f64 / wall_s
            ),
            format!(
                "n={n} executions; wall-clock {:.4} us",
                percentile(&wall, 0.50).0 / 1e3
            ),
            format!(
                "n={n} executions, {beyond} beyond ({}); wall-clock {:.4} us",
                if beyond >= 10 {
                    "valid"
                } else {
                    "too few samples"
                },
                percentile(&wall, 0.99).0 / 1e3
            ),
            "VmHWM after the op loop, less the calibration pool and the execution log".to_owned(),
        ];
        for (((name, unit), v), note) in END_TO_END.iter().zip(values).zip(&notes) {
            println!("{name:<26} {v:>16.4} {unit:<6} {note}");
            metrics.push((*name, v, *unit));
        }
        let mut kernel = bench.cal.kernel_ns();
        kernel.sort_by(f64::total_cmp);
        println!(
            "# times scaled to the reference host speed: kernel {:.0} ns there, here median {:.0} ns \
             (min {:.0}, max {:.0}) over {} samples",
            calib::REF_NS,
            median(kernel.clone()),
            kernel[0],
            kernel[kernel.len() - 1],
            kernel.len()
        );
        return Ok((stats, metrics));
    }

    for _ in 0..SETUP_REPS {
        bench.load()?;
    }
    let setup = SetupTimes {
        parse_ns: median(bench.parse_ns.clone()),
        build_ns: median(bench.build_ns.clone()),
    };
    let mut untraced = bench.run_loop(args.seconds / 2.0, 0, None)?;
    let mut tr = Tracer::new();
    let traced = bench.run_loop(args.seconds / 2.0, 0, Some(&mut tr))?;
    let mut layers = Layers::default();
    let mean = |s: &Samples| {
        let v = s.scaled(&bench.cal);
        v.iter().sum::<f64>() / v.len() as f64
    };
    layers.set("trace.overhead_frac", mean(&traced) / mean(&untraced) - 1.0);
    let ops = tr.total("op").1 as f64;
    for (layer, ns) in tr.self_time_by_layer() {
        let name = match layer {
            "xpath" => "xpath.self_ns_per_op",
            "rewrite" => "rewrite.self_ns_per_op",
            "index" => "index.self_ns_per_op",
            "automata" => "automata.self_ns_per_op",
            "exec" => "exec.self_ns_per_op",
            _ => continue,
        };
        layers.set(name, ns as f64 / ops);
    }
    bench.w.layers(&tr, &setup, &mut layers);
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| trace::write_jsonl(&[&bench.setup_tr, &tr], &path));
    match written {
        Ok(()) => println!(
            "# spans: {} written to {}",
            bench.setup_tr.spans.len() + tr.spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
    println!(
        "# traced executions {} / untraced {}; overhead compares their mean scaled op times",
        traced.n, untraced.n
    );
    report_layers(&layers);
    for (name, unit) in PER_LAYER {
        metrics.push((name, layers.0.get(name).copied().unwrap_or(0.0), unit));
    }
    untraced.absorb(traced);
    Ok((untraced, metrics))
}

fn report_layers(layers: &Layers) {
    for (name, unit) in PER_LAYER {
        match layers.0.get(name) {
            Some(v) => println!("{name:<26} {v:>16.4} {unit}"),
            None => println!("{name:<26} {:>16} {unit}", "n/a"),
        }
    }
}
