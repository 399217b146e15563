//! `fleet_throughput`: wall-clock throughput of the multi-datacenter
//! site simulator, sequential vs parallel row stepping.
//!
//! The workload is a 100-row site (25 datacenters × 4 rows behind
//! 2-row PDUs) of small rows over a short horizon. The offline
//! criterion stand-in has no `Throughput` API, so the bench prints its
//! own rate lines:
//!
//! * `site_100rows` — simulated-seconds/sec and events/sec at
//!   `threads = 1`,
//! * the `threads = max` pass and the parallel speedup (≈1.0 on a
//!   single-core runner — the determinism contract guarantees the
//!   artifacts match either way, so the speedup is pure upside).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca_cluster::{NoopController, Request, RowConfig, SiteConfig, SiteReport, SiteSim};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

const DATACENTERS: usize = 25;
const ROWS_PER_DC: usize = 4;
const HORIZON_S: f64 = 864.0;

/// The arrival stream, materialized once: synthesis is not what this
/// bench measures.
fn bench_arrivals() -> Vec<Request> {
    let config = TraceConfig::paper_mix(5, SimTime::from_secs(HORIZON_S)).scaled(2.0);
    ArrivalGenerator::new(&config).collect()
}

/// One site run at `threads` workers.
fn run_site(requests: &[Request], threads: usize) -> SiteReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let site = SiteConfig {
        datacenters: DATACENTERS,
        rows_per_datacenter: ROWS_PER_DC,
        rows_per_pdu: 2,
        threads,
        ..SiteConfig::default()
    };
    SiteSim::new(
        row,
        site,
        |_, _| NoopController,
        requests.iter().copied(),
        SimTime::from_secs(HORIZON_S),
    )
    .run()
}

fn fleet_throughput(c: &mut Criterion) {
    let requests = bench_arrivals();
    let threads_max = std::thread::available_parallelism().map_or(1, usize::from);

    let start = Instant::now();
    let report = run_site(&requests, 1);
    let seq = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let par_report = run_site(&requests, threads_max);
    let par = start.elapsed().as_secs_f64();
    assert_eq!(report.completed(), par_report.completed());
    println!(
        "throughput site_100rows          {:>12.0} simulated-seconds/sec  {:>12.0} events/sec  \
         ({} events over {HORIZON_S:.0} simulated s in {seq:.3} s)",
        HORIZON_S / seq,
        report.events_processed() as f64 / seq,
        report.events_processed(),
    );
    println!(
        "throughput site_100rows threads=1 {seq:.3} s  threads={threads_max} {par:.3} s  \
         speedup {:.2}x",
        seq / par,
    );
    let mut group = c.benchmark_group("fleet_throughput");
    group.sample_size(10);
    group.bench_function("site_100rows_threads1", |b| {
        b.iter(|| black_box(run_site(&requests, 1).completed()))
    });
    if threads_max > 1 {
        group.bench_function("site_100rows_threads_max", |b| {
            b.iter(|| black_box(run_site(&requests, threads_max).completed()))
        });
    }
    group.finish();
}

criterion_group!(fleet_throughput_group, fleet_throughput);
criterion_main!(fleet_throughput_group);
