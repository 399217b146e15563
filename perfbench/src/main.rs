//! The polca benchmark: four workloads, end-to-end metrics with
//! observation off, pinned digests of every simulated result, and a
//! separate traced run that reports per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig17_week --seed 17 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root (the `site_observed` workload reads
//! `tests/golden/sample_trace.csv`). `--workload all` runs every
//! workload, each in its own process so that one workload's peak memory
//! cannot mask another's. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/NOTES.md` for what each workload and metric means.

mod clock;
mod digest;
mod fig17;
mod pinned;
mod serve;
mod site;
mod tracer;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use polca_obs::{ObsLevel, ProfCounter, Recorder};
use polca_sim::{EventQueue, SimRng, SimTime};

use clock::Clock;
use digest::Op;
use fig17::Fig17;
use serve::Serve;
use site::{Observe, SiteMonitored, SiteObserved};
use tracer::Tracer;

const WORKLOADS: [&str; 4] = [
    "fig17_week",
    "serve_kv_tight",
    "site_monitored",
    "site_observed",
];

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more while they
/// have taken less than `SETUP_MIN_S` in total (up to
/// `SETUP_MAX_REPS`); `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 0.5;
/// Fewest timed repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Scratch output (artifacts, the Perfetto trace), relative to the
/// checkout root.
const OUT_DIR: &str = ".bench_out";

/// Every per-layer metric, in report order. A traced run measures each
/// one on the workload where that layer does most of its work.
const LAYER_METRICS: &[&str] = &[
    "sim.queue_ns_per_op",
    "sim.events",
    "sim.ns_per_event",
    "trace.synthesis_s",
    "ingest.parse_s",
    "ingest.rows_per_s",
    "core.threshold_training_s",
    "core.reference_run_s",
    "core.cell_run_s.median",
    "core.cell_run_s.max",
    "core.sweep_parallel_efficiency",
    "cluster.peak_queue_depth",
    "cluster.brakes",
    "telemetry.commands_issued",
    "telemetry.delivered_ratio",
    "serve.mean_batch",
    "serve.peak_batch",
    "serve.kv_peak_occupancy",
    "serve.preemptions",
    "serve.recompute_token_ratio",
    "site.run_s_threads_1",
    "site.parallel_efficiency",
    "site.row_window_occupancy",
    "site.brake_windows",
    "obs.overhead_pct.metrics",
    "obs.overhead_pct.events",
    "obs.overhead_pct.full",
    "obs.export_s",
    "obs.events_recorded",
    "energy.overhead_pct",
    "req.overhead_pct",
    "watch.overhead_pct",
    "watch.alerts",
    "watch.incidents",
    "bench.tracing_overhead_pct",
    "bench.self_s.sim",
    "bench.self_s.core",
    "bench.self_s.trace",
    "bench.self_s.ingest",
    "bench.self_s.cluster",
    "bench.self_s.telemetry",
    "bench.self_s.obs",
    "bench.self_s.watch",
    "bench.self_s.bench",
];

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Layers(Vec<(String, f64, &'static str)>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }
}

/// A workload's regime check: lines printed beside the numbers, and
/// whether the workload ran in the regime it exists to measure.
pub struct Regime {
    pub lines: Vec<String>,
    pub ok: bool,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pinned::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !Path::new(site::SAMPLE_TRACE).is_file() {
        eprintln!(
            "error: {} not found; run from the repository root",
            site::SAMPLE_TRACE
        );
        return ExitCode::FAILURE;
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} threads {threads} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    let result = if args.trace {
        traced(&args, threads)
    } else {
        end_to_end(&args, threads)
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Marks every op whose digest differs from the first repetition's op
/// in the same position, or from the pinned digest when this seed has
/// one, and prints the first repetition's digests.
fn check_digests(workload: &str, seed: u64, reps: &mut [Vec<Op>]) {
    let pinned = pinned::lookup(workload, seed);
    let first: Vec<u64> = reps
        .first()
        .map(|ops| ops.iter().map(|op| op.digest).collect())
        .unwrap_or_default();
    for ops in reps.iter_mut() {
        for (i, op) in ops.iter_mut().enumerate() {
            if op.digest != first[i] {
                op.broken
                    .push("digest differs from the first repetition".into());
            }
            if let Some(want) = pinned.and_then(|p| p.get(i)) {
                if op.digest != *want {
                    op.broken
                        .push(format!("digest {:016x} != pinned {want:016x}", op.digest));
                }
            }
        }
    }
    let digests: Vec<String> = first.iter().map(|d| format!("0x{d:016x}")).collect();
    println!(
        "digests {workload} seed {seed} ({}): [{}]",
        match pinned {
            Some(_) => "checked against pinned",
            None => "seed not pinned; checked for repeatability",
        },
        digests.join(", ")
    );
}

/// Counts, and reports on stderr, the ops with a broken check.
fn count_failed<'a>(workload: &str, ops: impl IntoIterator<Item = &'a Op>) -> u64 {
    let mut failed = 0;
    for op in ops.into_iter().filter(|op| !op.broken.is_empty()) {
        failed += 1;
        eprintln!("FAILED {workload} {}: {}", op.label, op.broken.join("; "));
    }
    failed
}

/// One workload's set-up state.
enum State {
    Fig17(Box<Fig17>),
    Serve(Serve),
    Monitored(SiteMonitored),
    Observed(SiteObserved),
}

fn setup(workload: &str, seed: u64, t: &Tracer) -> State {
    match workload {
        "fig17_week" => State::Fig17(Box::new(Fig17::setup(seed, t))),
        "serve_kv_tight" => State::Serve(Serve::setup(seed, t)),
        "site_monitored" => State::Monitored(SiteMonitored::setup(seed, t)),
        "site_observed" => State::Observed(SiteObserved::setup(seed, t)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The output of one timed repetition, kept for the regime check.
enum Output {
    Fig17(Vec<polca::PolicyOutcome>),
    Serve(polca_cluster::SimReport),
    Monitored(polca_cluster::SiteReport),
    Observed(site::Observed),
}

impl State {
    fn sim_row_s(&self) -> f64 {
        match self {
            State::Fig17(w) => w.sim_row_s(),
            State::Serve(w) => w.sim_row_s(),
            State::Monitored(w) => w.sim_row_s(),
            State::Observed(w) => w.sim_row_s(),
        }
    }

    /// One repetition of the timed operation.
    fn run(&self, threads: usize, t: &Tracer) -> Output {
        match self {
            State::Fig17(w) => Output::Fig17(w.run(threads, t)),
            State::Serve(w) => Output::Serve(w.run(t)),
            State::Monitored(w) => Output::Monitored(w.run(threads, Recorder::disabled(), t)),
            State::Observed(w) => {
                let dir = Path::new(OUT_DIR).join("site_observed");
                Output::Observed(w.run(threads, Observe::ALL, Some(&dir), t))
            }
        }
    }

    fn ops(&self, out: &Output) -> Vec<Op> {
        match (self, out) {
            (State::Fig17(w), Output::Fig17(o)) => w.ops(o),
            (State::Serve(w), Output::Serve(o)) => w.ops(o),
            (State::Monitored(w), Output::Monitored(o)) => w.ops(o),
            (State::Observed(w), Output::Observed(o)) => vec![w.op(o, "site run + artifacts")],
            _ => unreachable!("output comes from the same workload"),
        }
    }

    /// The regime check after the timed region, with any extra
    /// verification ops it ran. Fills the layer metrics it measures.
    fn regime(
        &self,
        last: &Output,
        rep_s: &[f64],
        threads: usize,
        t: &Tracer,
        m: &mut Layers,
    ) -> (Regime, Vec<Op>) {
        match (self, last) {
            (State::Fig17(w), Output::Fig17(o)) => (w.regime(o), Vec::new()),
            (State::Serve(w), Output::Serve(o)) => {
                let (regime, op) = w.regime(o, t, m);
                (regime, vec![op])
            }
            (State::Monitored(w), Output::Monitored(o)) => {
                w.regime(o, median(rep_s), threads, t, m)
            }
            (State::Observed(w), Output::Observed(o)) => (w.regime(o), Vec::new()),
            _ => unreachable!("output comes from the same workload"),
        }
    }
}

/// Timed repetitions until `seconds` have passed (at least
/// [`MIN_REPS`]), each measured on `clock` in series [`REPS`]. A
/// panicking repetition counts all of its ops failed.
struct Timed {
    rep_s: Vec<f64>,
    rss_mib: Vec<f64>,
    reps: Vec<Vec<Op>>,
    last: Option<Output>,
    panicked_ops: u64,
}

/// Clock series of the end-to-end run.
const SETUPS: usize = 0;
const REPS: usize = 1;

fn timed(state: &State, threads: usize, seconds: f64, clock: &mut Clock) -> Result<Timed, String> {
    let off = Tracer::new(false);
    let mut out = Timed {
        rep_s: Vec::new(),
        rss_mib: Vec::new(),
        reps: Vec::new(),
        last: None,
        panicked_ops: 0,
    };
    let region = Instant::now();
    while out.rep_s.len() < MIN_REPS || region.elapsed().as_secs_f64() < seconds {
        let (result, secs) = clock.measure(REPS, || {
            reset_peak_rss();
            catch_unwind(AssertUnwindSafe(|| state.run(threads, &off)))
        });
        match result {
            Ok(output) => {
                out.rep_s.push(secs);
                out.rss_mib.push(peak_rss_mib()?);
                out.reps.push(state.ops(&output));
                out.last = Some(output);
            }
            Err(_) => {
                // A panicking operation fails the run; stop timing it.
                out.panicked_ops += out.reps.first().map_or(1, |ops| ops.len() as u64);
                return Ok(out);
            }
        }
    }
    Ok(out)
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], from the kernel.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Restarts the kernel's peak-RSS counter at the current RSS, so each
/// set-up and repetition gets its own peak. Without permission the
/// counter keeps running and the peaks are cumulative.
fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_regime(workload: &str, regime: &Regime) {
    for line in &regime.lines {
        println!("regime {workload}: {line}");
    }
    println!(
        "regime {workload}: {}",
        if regime.ok { "ok" } else { "FAILED" }
    );
}

fn end_to_end(args: &Args, threads: usize) -> Result<String, String> {
    let off = Tracer::new(false);
    // Calibrate on as many threads as the timed operation keeps busy.
    let width = if args.workload == "serve_kv_tight" {
        1
    } else {
        threads
    };
    let mut clock = Clock::new(width);
    let mut setup_raw = Vec::new();
    let mut setup_rss = Vec::new();
    let mut state = None;
    while setup_raw.len() < SETUP_MIN_REPS
        || (setup_raw.len() < SETUP_MAX_REPS && setup_raw.iter().sum::<f64>() < SETUP_MIN_S)
    {
        // Drop the previous set-up first, so peak memory holds one.
        drop(state.take());
        let (built, secs) = clock.measure(SETUPS, || {
            reset_peak_rss();
            catch_unwind(AssertUnwindSafe(|| setup(&args.workload, args.seed, &off)))
        });
        state = Some(built.map_err(|_| "set-up panicked".to_string())?);
        setup_raw.push(secs);
        setup_rss.push(peak_rss_mib()?);
    }
    let state = state.expect("at least one set-up");
    let run = timed(&state, threads, args.seconds, &mut clock)?;
    clock.close();
    let last = run.last.as_ref().ok_or("every repetition panicked")?;
    // Memory: the larger of the median set-up peak and the median
    // repetition peak (which includes the set-up state held for it).
    let peak_rss = median(&setup_rss).max(median(&run.rss_mib));
    let mut layers = Layers::default();
    let (regime, extra) = catch_unwind(AssertUnwindSafe(|| {
        state.regime(last, &run.rep_s, threads, &off, &mut layers)
    }))
    .map_err(|_| "regime check panicked".to_string())?;
    let mut reps = run.reps;
    let ops_per_rep = reps[0].len() as u64;
    check_digests(&args.workload, args.seed, &mut reps);
    reps.push(extra);
    let mut failed = count_failed(&args.workload, reps.iter().flatten()) + run.panicked_ops;
    let mut attempted = reps.iter().map(|ops| ops.len() as u64).sum::<u64>() + run.panicked_ops;
    print_regime(&args.workload, &regime);
    if !regime.ok {
        // A run outside its regime measures the wrong thing: every
        // timed op counts as failed.
        failed = failed.max(ops_per_rep * run.rep_s.len() as u64);
        attempted = attempted.max(failed);
    }
    let _ = fs::remove_dir_all(OUT_DIR);

    let rep_cal = clock.calibrated(REPS);
    let setup_cal = clock.calibrated(SETUPS);
    let metrics = vec![
        (
            "sim_s_per_s".to_string(),
            state.sim_row_s() / median(&rep_cal),
            "1/s",
        ),
        ("setup_s".to_string(), median(&setup_cal), "s"),
        ("peak_rss_mib".to_string(), peak_rss, "MiB"),
    ];
    for (name, value, unit) in &metrics {
        println!("{name:<14} {value:>16.4} {unit}");
    }
    println!(
        "repetitions {} of {:.1} simulated row-s: calibrated median {:.4} s; \
         raw fastest {:.4} s, raw median {:.4} s",
        run.rep_s.len(),
        state.sim_row_s(),
        median(&rep_cal),
        run.rep_s.iter().cloned().fold(f64::INFINITY, f64::min),
        median(&run.rep_s)
    );
    println!(
        "set-ups {}: calibrated median {:.4} s, raw median {:.4} s; host kernel median \
         {:.4} s on {width} thread(s) (nominal {})",
        setup_raw.len(),
        median(&setup_cal),
        median(&setup_raw),
        clock.kernel_median(),
        clock::NOMINAL_S
    );
    println!("failed {failed} of {attempted} ops");
    Ok(json(failed == 0, attempted, failed, &metrics))
}

/// `EventQueue` schedule + pop at the depth a row reaches (~42): keep
/// the heap at that depth and time one schedule and one pop per step.
fn queue_microbench(t: &Tracer) -> f64 {
    const DEPTH: usize = 42;
    const STEPS: usize = 2_000_000;
    t.span("sim", "EventQueue::schedule+pop", || {
        let mut rng = SimRng::from_seed_stream(1, 0x0E0E);
        let mut queue = EventQueue::new();
        for i in 0..DEPTH {
            queue.schedule(SimTime::from_secs(rng.uniform(0.0, 10.0)), i);
        }
        let start = Instant::now();
        let mut checksum = 0usize;
        for _ in 0..STEPS {
            let (at, ev) = queue.pop().expect("queue is never empty");
            checksum = checksum.wrapping_add(ev);
            queue.schedule(at + SimTime::from_secs(rng.uniform(0.0, 10.0)), ev);
        }
        std::hint::black_box(checksum);
        start.elapsed().as_nanos() as f64 / (2 * STEPS) as f64
    })
}

/// The `site_observed` observation ladder: the same site run at each
/// level and with each add-on, interleaved round by round so drift hits
/// every configuration alike (the time includes dropping the run's
/// recorders). Every overhead is relative to the
/// observation-off run; the watch, energy and request-trace increments
/// are each measured on top of `Full`.
fn obs_ladder(w: &SiteObserved, threads: usize, t: &Tracer, m: &mut Layers) {
    const ROUNDS: usize = 3;
    let full_with = |f: fn(&mut Observe)| {
        let mut obs = Observe::level(ObsLevel::Full);
        f(&mut obs);
        obs
    };
    let ladder = [
        Observe::level(ObsLevel::Off),
        Observe::level(ObsLevel::Metrics),
        Observe::level(ObsLevel::Events),
        Observe::level(ObsLevel::Full),
        full_with(|o| o.watch = true),
        full_with(|o| o.energy = true),
        full_with(|o| o.req = true),
    ];
    let mut secs = vec![Vec::new(); ladder.len()];
    for round in 0..ROUNDS {
        // Rotate the order each round so no configuration always
        // follows the same one.
        for k in 0..ladder.len() {
            let i = (round + k) % ladder.len();
            let start = Instant::now();
            let run = t.span("bench", "site run (obs ladder)", || {
                w.run(threads, ladder[i], None, t)
            });
            drop(run);
            secs[i].push(start.elapsed().as_secs_f64());
        }
    }
    let s: Vec<f64> = secs.iter().map(|v| median(v)).collect();
    let pct = |x: f64, base: f64| (x - base) / s[0] * 100.0;
    m.put("obs.overhead_pct.metrics", pct(s[1], s[0]), "%");
    m.put("obs.overhead_pct.events", pct(s[2], s[0]), "%");
    m.put("obs.overhead_pct.full", pct(s[3], s[0]), "%");
    m.put("watch.overhead_pct", pct(s[4], s[3]), "%");
    m.put("energy.overhead_pct", pct(s[5], s[3]), "%");
    m.put("req.overhead_pct", pct(s[6], s[3]), "%");
    println!(
        "obs ladder (site_observed, median of {ROUNDS}, s): off {:.3} metrics {:.3} \
         events {:.3} full {:.3} | full+watch {:.3} full+energy {:.3} full+req {:.3}",
        s[0], s[1], s[2], s[3], s[4], s[5], s[6]
    );
}

/// The traced run: every workload's set-up, operation and layer
/// measurements with spans around each call into a crate, plus the
/// traced-vs-untraced wall time of the chosen workload's operation.
fn traced(args: &Args, threads: usize) -> Result<String, String> {
    let t = Tracer::new(true);
    let off = Tracer::new(false);
    let mut m = Layers::default();
    let mut ops: Vec<Op> = Vec::new();
    t.begin_run("EventQueue microbenchmark".into());
    m.put("sim.queue_ns_per_op", queue_microbench(&t), "ns");
    for workload in WORKLOADS {
        let chosen = workload == args.workload;
        let result = catch_unwind(AssertUnwindSafe(|| {
            traced_workload(workload, args, threads, chosen, &t, &off, &mut m)
        }));
        match result {
            Ok(mut more) => ops.append(&mut more),
            Err(_) => ops.push(Op {
                label: format!("{workload} traced run"),
                digest: 0,
                broken: vec!["panicked".into()],
            }),
        }
    }
    for (layer, secs) in t.self_seconds(None) {
        m.put(&format!("bench.self_s.{layer}"), secs, "s");
    }
    for (run, label) in t.runs().iter().enumerate() {
        let own: Vec<String> = t
            .self_seconds(Some(run as u32 + 1))
            .iter()
            .map(|(layer, secs)| format!("{layer} {secs:.3}"))
            .collect();
        println!("self time (s), {label}: {}", own.join(", "));
    }
    fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let _ = fs::remove_dir_all(Path::new(OUT_DIR).join("site_observed"));
    let trace_path =
        Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    fs::write(&trace_path, t.perfetto_json()).map_err(|e| e.to_string())?;
    println!(
        "spans: {} (Chrome trace-event JSON; opens in Perfetto)",
        trace_path.display()
    );

    let failed = count_failed(&args.workload, &ops);
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &name in LAYER_METRICS {
        let (value, unit) = m.get(name).unwrap_or_else(|| {
            missing.push(name);
            (0.0, "s")
        });
        println!("{name:<34} {value:>18.6} {unit}");
        metrics.push((name.to_string(), value, unit));
    }
    if !missing.is_empty() {
        println!("not measured (reported as 0): {}", missing.join(", "));
    }
    println!(
        "not driven on a hot path by the benchmark (covered only through the workloads): \
         polca-gpu, polca-llm, polca-stats, polca-cli"
    );
    Ok(json(failed == 0, ops.len() as u64, failed, &metrics))
}

fn traced_workload(
    workload: &str,
    args: &Args,
    threads: usize,
    chosen: bool,
    t: &Tracer,
    off: &Tracer,
    m: &mut Layers,
) -> Vec<Op> {
    t.begin_run(format!(
        "{workload} seed {}: set-up and operation",
        args.seed
    ));
    let state = t.span("bench", "setup", || setup(workload, args.seed, t));
    let mut reps = Vec::new();
    let mut rep_s = Vec::new();
    let mut last = None;
    if chosen {
        // Alternate untraced and traced repetitions of the operation:
        // at least two pairs, more while they fit in a quarter of
        // --seconds.
        let mut traced_s = Vec::new();
        let region = Instant::now();
        while traced_s.len() < 2
            || (traced_s.len() < 10 && region.elapsed().as_secs_f64() < args.seconds / 4.0)
        {
            let start = Instant::now();
            let out = state.run(threads, off);
            rep_s.push(start.elapsed().as_secs_f64());
            reps.push(state.ops(&out));
            let start = Instant::now();
            let out = t.span("bench", "operation", || state.run(threads, t));
            traced_s.push(start.elapsed().as_secs_f64());
            reps.push(state.ops(&out));
            last = Some(out);
        }
        let (plain, traced) = (median(&rep_s), median(&traced_s));
        m.put(
            "bench.tracing_overhead_pct",
            (traced - plain) / plain * 100.0,
            "%",
        );
        println!(
            "tracing: untraced {plain:.4} s, traced {traced:.4} s (median of {} each)",
            rep_s.len()
        );
    }
    let last = last.unwrap_or_else(|| {
        let start = Instant::now();
        let out = t.span("bench", "operation", || state.run(threads, t));
        rep_s.push(start.elapsed().as_secs_f64());
        reps.push(state.ops(&out));
        out
    });
    check_digests(workload, args.seed, &mut reps);
    let reference = reps[0][0].digest;
    let mut ops: Vec<Op> = reps.into_iter().flatten().collect();

    t.begin_run(format!("{workload} seed {}: layer measurements", args.seed));
    let (regime, extra) = state.regime(&last, &rep_s, threads, t, m);
    print_regime(workload, &regime);
    if !regime.ok {
        ops.push(Op {
            label: format!("{workload} regime"),
            digest: 0,
            broken: vec!["regime check failed".into()],
        });
    }
    ops.extend(extra);
    match (&state, &last) {
        (State::Fig17(w), Output::Fig17(outs)) => {
            ops.extend(w.layers(outs, median(&rep_s), threads, t, m));
        }
        (State::Observed(w), Output::Observed(o)) => {
            let start = Instant::now();
            let rows = SiteObserved::parse(t);
            let parse = start.elapsed().as_secs_f64();
            m.put("ingest.parse_s", parse, "s");
            m.put("ingest.rows_per_s", rows as f64 / parse, "1/s");
            m.put("obs.export_s", o.export_s, "s");
            let recorded = o
                .recorder
                .prof()
                .snapshot()
                .counter(ProfCounter::EventsRecorded);
            m.put("obs.events_recorded", recorded as f64, "count");
            let braked = SiteObserved::brake_windows(&o.recorder);
            m.put("site.brake_windows", braked as f64, "count");
            let alerts: usize = o.watch.iter().map(|w| w.alerts().len()).sum();
            let incidents: usize = o.watch.iter().map(|w| w.incidents().len()).sum();
            m.put("watch.alerts", alerts as f64, "count");
            m.put("watch.incidents", incidents as f64, "count");
            // One thread must reproduce the threaded run byte for byte.
            let dir = Path::new(OUT_DIR).join("site_observed");
            let one = w.run(1, Observe::ALL, Some(&dir), t);
            let mut op = w.op(&one, "site run + artifacts (threads=1)");
            if op.digest != reference {
                op.broken
                    .push(format!("threads=1 and threads={threads} digests differ"));
            }
            ops.push(op);
            obs_ladder(w, threads, t, m);
        }
        _ => {}
    }
    ops
}

/// `--workload all`: each workload in its own process (so peak memory
/// is per workload), then a summary table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success() && stdout.contains("\"correct\": true");
                rows.push((workload, stdout.lines().last().unwrap_or("").to_string()));
            }
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    println!("\nsummary (seed {}):", args.seed);
    for (workload, last) in rows {
        println!("{workload:<16} {last}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
