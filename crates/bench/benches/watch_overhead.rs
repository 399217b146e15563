//! Criterion bench for the watch-plane attach cost (ISSUE 3: the
//! online alerting plane must stay well under 5 % overhead on top of a
//! fully-instrumented run).
//!
//! Two pairs of arms, each comparing `ObsLevel::Full` alone against
//! `ObsLevel::Full` plus an attached [`WatchPlane`] (default rules,
//! both feeds, artifacts rendered):
//!
//! * `study_*` — the representative workload: the quick-demo
//!   oversubscription study under the POLCA policy, i.e. exactly what
//!   `polca-cli evaluate --watch --obs-out` runs. This is the pair the
//!   <5 % target is judged on.
//! * `kernel_*` — a worst-case microkernel: a dense half hour on a
//!   4-server row with a no-op controller, where the simulator itself
//!   does almost no work per event and the fixed per-tick watch cost is
//!   maximally visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::{OversubscriptionStudy, PolcaPolicy, PolicyKind};
use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig};
use polca_obs::{ObsLevel, Recorder};
use polca_sim::SimTime;
use polca_telemetry::RowPowerTaps;
use polca_trace::{ArrivalGenerator, TraceConfig};
use polca_watch::{WatchConfig, WatchPlane};

/// Finalizes the plane and returns the rendered artifact size, so the
/// bench includes the full attach-to-report cost.
fn drain(plane: WatchPlane, t_end: SimTime) -> usize {
    let artifacts = plane.finalize(t_end);
    artifacts.incidents_jsonl().len() + artifacts.report_md().len()
}

/// One timed iteration over a pre-built study: attach a fresh recorder
/// (and optionally a fresh watch plane), run the policy, drain
/// artifacts. Workload synthesis stays outside the measurement.
fn study_iter(study: &mut OversubscriptionStudy, watch: bool) -> (f64, usize) {
    let recorder = Recorder::new(ObsLevel::Full);
    study.set_recorder(recorder.clone());
    let plane = if watch {
        let plane = WatchPlane::new(WatchConfig::new(study.row().provisioned_watts()));
        let mut taps = RowPowerTaps::new();
        plane.attach(&mut taps, &recorder);
        study.set_oob_taps(taps);
        Some(plane)
    } else {
        study.set_oob_taps(RowPowerTaps::new());
        None
    };
    let days = study.days();
    let outcome = study.run(PolicyKind::Polca, 0.30, 1.0);
    recorder.clear_tap();
    let rendered = plane.map_or(0, |p| drain(p, SimTime::from_days(days)));
    (outcome.peak_utilization, rendered)
}

/// The paper inference row (40 DGX-A100 servers) over a couple of
/// simulated hours — the row `polca-cli evaluate --watch` runs on.
fn paper_study() -> OversubscriptionStudy {
    let mut study = OversubscriptionStudy::new(
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        0.1,
        7,
    );
    // Materialize the cached reference run outside the measurement.
    let _ = study.run(PolicyKind::Polca, 0.30, 1.0);
    study
}

fn kernel_run(watch: bool) -> (u64, usize) {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let recorder = Recorder::new(ObsLevel::Full);
    let mut config = SimConfig {
        recorder: recorder.clone(),
        ..SimConfig::default()
    };
    let plane = if watch {
        let plane = WatchPlane::new(WatchConfig::new(row.provisioned_watts()));
        plane.attach(&mut config.oob_taps, &recorder);
        Some(plane)
    } else {
        None
    };
    let trace = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.12);
    let report = ClusterSim::new(row, config, NoopController)
        .run(ArrivalGenerator::new(&trace), SimTime::from_mins(30.0));
    recorder.clear_tap();
    let rendered = plane.map_or(0, |p| drain(p, SimTime::from_mins(30.0)));
    (report.completed, rendered)
}

fn watch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("watch");
    group.sample_size(30);
    group.bench_function("study_obs_full_baseline", |b| {
        let mut study = paper_study();
        b.iter(|| black_box(study_iter(&mut study, false)))
    });
    group.bench_function("study_obs_full_plus_watch", |b| {
        let mut study = paper_study();
        b.iter(|| black_box(study_iter(&mut study, true)))
    });
    group.bench_function("kernel_obs_full_baseline", |b| {
        b.iter(|| black_box(kernel_run(false)))
    });
    group.bench_function("kernel_obs_full_plus_watch", |b| {
        b.iter(|| black_box(kernel_run(true)))
    });
    group.finish();
}

criterion_group!(watch, watch_overhead);
criterion_main!(watch);
