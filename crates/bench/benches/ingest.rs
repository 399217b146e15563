//! Criterion benches for the trace-ingestion pipeline: CSV parsing,
//! the statistics pass, calibration, and replay materialization.
//!
//! The corpus is a one-hour synthetic trace exported through the same
//! CSV path users ingest, so the parse bench sees realistic row shapes
//! (full-precision timestamps, four columns, ~5k rows).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca_ingest::{
    requests_to_csv, IngestedTrace, ReplayOptions, TraceCalibration, TraceReplay, TraceStats,
};
use polca_sim::{SimRng, SimTime};
use polca_trace::{ArrivalGenerator, DiurnalPattern, TraceConfig, WorkloadClass};

fn corpus() -> String {
    let pattern = DiurnalPattern {
        base_rate: 1.5,
        ..DiurnalPattern::default()
    };
    let horizon_s = 3_600.0;
    let mut rng = SimRng::from_seed_stream(42, 0xBE7C);
    let config = TraceConfig {
        seed: 42,
        horizon: SimTime::from_secs(horizon_s),
        schedule: pattern.schedule(horizon_s, 60.0, &mut rng),
        mix: WorkloadClass::table6(),
    };
    let requests: Vec<_> = ArrivalGenerator::new(&config).collect();
    requests_to_csv(&requests)
}

fn ingest_parse(c: &mut Criterion) {
    let csv = corpus();
    c.bench_function("ingest_parse_1h_trace", |b| {
        b.iter(|| black_box(IngestedTrace::from_reader(csv.as_bytes()).unwrap()))
    });
}

fn ingest_stats(c: &mut Criterion) {
    let csv = corpus();
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    c.bench_function("ingest_stats_pass", |b| {
        b.iter(|| black_box(TraceStats::from_trace(&trace).unwrap()))
    });
}

fn ingest_calibrate(c: &mut Criterion) {
    let csv = corpus();
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    c.bench_function("ingest_calibrate_fit", |b| {
        b.iter(|| black_box(TraceCalibration::fit(&trace).unwrap()))
    });
}

fn ingest_replay(c: &mut Criterion) {
    let csv = corpus();
    let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
    c.bench_function("ingest_replay_materialize", |b| {
        b.iter(|| {
            let replay = TraceReplay::with_options(
                &trace,
                ReplayOptions {
                    rate_scale: 1.3,
                    ..ReplayOptions::default()
                },
            );
            black_box(replay.count())
        })
    });
}

criterion_group!(
    benches,
    ingest_parse,
    ingest_stats,
    ingest_calibrate,
    ingest_replay
);
criterion_main!(benches);
