//! `serve_throughput`: wall-clock throughput of the continuous-batching
//! serving engine (`polca-serve`) driven through `EngineKind::Batched`.
//!
//! Mirrors `sim_throughput`'s dense half hour on a small row so the
//! two engines' rate lines are directly comparable, and adds the
//! split-pool topology (disaggregated prefill/decode with KV transfer
//! over the interconnect).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::DisaggregationConfig;
use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig, SimReport};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

/// The `sim_throughput` half hour, served by the batched engine
/// (aggregated pools or split prefill/decode).
fn run_row(split: bool) -> SimReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let config = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.12);
    let sim_config = SimConfig {
        engine: DisaggregationConfig::default().batched_engine(split),
        ..SimConfig::default()
    };
    ClusterSim::new(row, sim_config, NoopController)
        .run(ArrivalGenerator::new(&config), SimTime::from_mins(30.0))
}

fn print_rate(name: &str, simulated_s: f64, events: u64, wall_s: f64) {
    println!(
        "throughput {name:<24} {:>12.0} simulated-seconds/sec  {:>12.0} events/sec  \
         ({events} events over {simulated_s:.0} simulated s in {wall_s:.3} s)",
        simulated_s / wall_s,
        events as f64 / wall_s,
    );
}

fn batched_engine(c: &mut Criterion) {
    let start = Instant::now();
    let report = run_row(false);
    let wall = start.elapsed().as_secs_f64();
    print_rate(
        "serve_batched",
        report.duration.as_secs(),
        report.events_processed,
        wall,
    );
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("batched_row_30min", |b| {
        b.iter(|| black_box(run_row(false).completed))
    });
    group.finish();
}

fn split_pools(c: &mut Criterion) {
    let start = Instant::now();
    let report = run_row(true);
    let wall = start.elapsed().as_secs_f64();
    print_rate(
        "serve_split_pools",
        report.duration.as_secs(),
        report.events_processed,
        wall,
    );
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("split_pools_row_30min", |b| {
        b.iter(|| black_box(run_row(true).completed))
    });
    group.finish();
}

criterion_group!(serve_throughput, batched_engine, split_pools);
criterion_main!(serve_throughput);
