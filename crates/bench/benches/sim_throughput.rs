//! `sim_throughput`: wall-clock throughput of the simulation engine and
//! the parallel sweep runner.
//!
//! The offline criterion stand-in has no `Throughput` API, so this
//! bench prints its own rate lines next to the timing output:
//!
//! * `row_engine` / `fleet_engine` — simulated-seconds/sec and
//!   events/sec of one row and of a 4-row fleet (the
//!   `SimReport::events_processed` counter divided by wall time),
//! * `sweep` — a multi-policy `OversubscriptionStudy` sweep at
//!   `jobs=1` vs `jobs=4`, with the speedup factor.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::{OversubscriptionStudy, PolicyKind};
use polca_cluster::{
    ClusterSim, NoopController, RowConfig, SimConfig, SimReport, SiteConfig, SiteReport, SiteSim,
};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

/// A dense half hour on a small row (same shape as the
/// `cluster_sim_event_kernel` bench, kept separate so rate lines and
/// timings stay comparable across runs).
fn run_row() -> SimReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let config = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.12);
    ClusterSim::new(row, SimConfig::default(), NoopController)
        .run(ArrivalGenerator::new(&config), SimTime::from_mins(30.0))
}

/// The same half hour across a 4-row fleet (2 rows per PDU), budgets
/// monitored.
fn run_fleet() -> SiteReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let config = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.48);
    let site = SiteConfig {
        rows_per_datacenter: 4,
        rows_per_pdu: 2,
        ..SiteConfig::default()
    };
    SiteSim::new(
        row,
        site,
        |_, _| NoopController,
        ArrivalGenerator::new(&config),
        SimTime::from_mins(30.0),
    )
    .run()
}

fn print_rate(name: &str, simulated_s: f64, events: u64, wall_s: f64) {
    println!(
        "throughput {name:<24} {:>12.0} simulated-seconds/sec  {:>12.0} events/sec  \
         ({events} events over {simulated_s:.0} simulated s in {wall_s:.3} s)",
        simulated_s / wall_s,
        events as f64 / wall_s,
    );
}

fn row_engine(c: &mut Criterion) {
    let start = Instant::now();
    let report = run_row();
    let wall = start.elapsed().as_secs_f64();
    print_rate(
        "row_engine",
        report.duration.as_secs(),
        report.events_processed,
        wall,
    );
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("row_engine_30min", |b| {
        b.iter(|| black_box(run_row().completed))
    });
    group.finish();
}

fn fleet_engine(c: &mut Criterion) {
    let start = Instant::now();
    let report = run_fleet();
    let wall = start.elapsed().as_secs_f64();
    print_rate(
        "fleet_engine_4rows",
        report.duration.as_secs(),
        report.events_processed(),
        wall,
    );
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("fleet_engine_4rows_30min", |b| {
        b.iter(|| black_box(run_fleet().completed()))
    });
    group.finish();
}

fn sweep_scaling(c: &mut Criterion) {
    // A multi-policy study: all four Figure 17 policies at two
    // oversubscription levels. The first sweep warms the per-level
    // trace cache and the un-capped reference so both timed runs
    // measure simulation work, not synthesis.
    let study = OversubscriptionStudy::quick_demo(7);
    let cells: Vec<(PolicyKind, f64, f64)> = PolicyKind::all()
        .iter()
        .flat_map(|&kind| [(kind, 0.20, 1.0), (kind, 0.30, 1.0)])
        .collect();
    black_box(study.sweep(&cells, 1));
    let start = Instant::now();
    black_box(study.sweep(&cells, 1));
    let seq = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(study.sweep(&cells, 4));
    let par = start.elapsed().as_secs_f64();
    println!(
        "throughput sweep ({} cells)      jobs=1 {seq:.3} s  jobs=4 {par:.3} s  speedup {:.2}x",
        cells.len(),
        seq / par,
    );
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("sweep_8cells_jobs4", |b| {
        b.iter(|| black_box(study.sweep(&cells, 4).len()))
    });
    group.finish();
}

criterion_group!(sim_throughput, row_engine, fleet_engine, sweep_scaling);
criterion_main!(sim_throughput);
