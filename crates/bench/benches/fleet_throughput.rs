//! `fleet_throughput`: wall-clock throughput of the multi-datacenter
//! site simulator, sequential vs parallel row stepping, with budgets
//! monitored and enforced.
//!
//! The workload is a 100-row site (25 datacenters × 4 rows behind
//! 2-row PDUs) of small rows over a short horizon. The offline
//! criterion stand-in has no `Throughput` API, so the bench prints its
//! own rate lines:
//!
//! * `site_100rows` — simulated-seconds/sec and events/sec at
//!   `threads = 1` with monitored budgets,
//! * for each budget mode, the `threads = 1` and `threads = max` times
//!   and the parallel speedup. Monitored budgets let rows run 256
//!   windows between rendezvous; enforced budgets meet at every 2 s
//!   window, so the pool pays two barrier waits per window. On a
//!   2-core host, single runs of about 10 ms each measured 1.2–1.6×
//!   monitored and 0.5–0.9× enforced. Artifacts match at any thread
//!   count either way; only a speedup above 1.0 is a gain.

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

/// One site run at `threads` workers, with budgets monitored or
/// enforced.
fn run_site(requests: &[Request], threads: usize, enforce_budgets: bool) -> SiteReport {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let site = SiteConfig {
        datacenters: DATACENTERS,
        rows_per_datacenter: ROWS_PER_DC,
        rows_per_pdu: 2,
        enforce_budgets,
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

    for (budgets, enforce) in [("monitored", false), ("enforced", true)] {
        let start = Instant::now();
        let report = run_site(&requests, 1, enforce);
        let seq = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let par_report = run_site(&requests, threads_max, enforce);
        let par = start.elapsed().as_secs_f64();
        assert_eq!(report.completed(), par_report.completed());
        if !enforce {
            println!(
                "throughput site_100rows          {:>12.0} simulated-seconds/sec  {:>12.0} events/sec  \
                 ({} events over {HORIZON_S:.0} simulated s in {seq:.3} s)",
                HORIZON_S / seq,
                report.events_processed() as f64 / seq,
                report.events_processed(),
            );
        }
        println!(
            "throughput site_100rows {budgets:<9} threads=1 {seq:.3} s  \
             threads={threads_max} {par:.3} s  speedup {:.2}x",
            seq / par,
        );
    }
    let mut group = c.benchmark_group("fleet_throughput");
    group.sample_size(10);
    group.bench_function("site_100rows_threads1", |b| {
        b.iter(|| black_box(run_site(&requests, 1, false).completed()))
    });
    if threads_max > 1 {
        group.bench_function("site_100rows_threads_max", |b| {
            b.iter(|| black_box(run_site(&requests, threads_max, false).completed()))
        });
    }
    group.finish();
}

criterion_group!(fleet_throughput_group, fleet_throughput);
criterion_main!(fleet_throughput_group);
