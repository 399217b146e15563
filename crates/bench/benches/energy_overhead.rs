//! Criterion bench for the energy-ledger attach cost (ISSUE 10: the
//! hierarchical energy/carbon accounting plane must stay under 5 %
//! overhead on `sim_throughput`-style runs).
//!
//! Two pairs of arms, each comparing a metrics-level run against the
//! same run with an [`EnergyPlan`] attached (trapezoidal integration on
//! every telemetry window, busy-energy cache maintenance on every
//! event, ledger assembly and JSON/CSV/Prometheus rendering at the
//! end):
//!
//! * `study_*` — the representative workload: the quick-demo
//!   oversubscription study under the POLCA policy, i.e. exactly what
//!   `polca-cli evaluate --carbon-diurnal` runs. This is the pair the
//!   <5 % target is judged on.
//! * `kernel_*` — a worst-case microkernel: a dense half hour on a
//!   4-server row with a no-op controller, where the simulator itself
//!   does almost no work per event and the fixed per-window ledger
//!   cost is maximally visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use polca::{OversubscriptionStudy, PolcaPolicy, PolicyKind};
use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig};
use polca_obs::{CarbonSignal, EnergyPlan, ObsLevel, Recorder};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

/// A fresh recorder, with the diurnal-default energy plan attached when
/// `energy` is set.
fn recorder(energy: bool) -> Recorder {
    let rec = Recorder::new(ObsLevel::Metrics);
    if energy {
        rec.with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()))
    } else {
        rec
    }
}

/// Renders every ledger artifact so the bench covers the full
/// attach-to-export cost, and returns the rendered size.
fn drain(rec: &Recorder) -> usize {
    let ledger = rec.artifacts().energy_ledger();
    ledger.to_json().len() + ledger.series_csv().len() + ledger.prometheus().len()
}

/// One timed iteration over a pre-built study: attach a fresh recorder
/// (with or without the energy plan), run the policy, render the
/// ledger. Workload synthesis stays outside the measurement.
fn study_iter(study: &mut OversubscriptionStudy, energy: bool) -> (f64, usize) {
    let rec = recorder(energy);
    study.set_recorder(rec.clone());
    let outcome = study.run(PolicyKind::Polca, 0.30, 1.0);
    (outcome.peak_utilization, drain(&rec))
}

/// The paper inference row (40 DGX-A100 servers) over a couple of
/// simulated hours — the row `polca-cli evaluate --carbon-diurnal`
/// runs on.
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

fn kernel_run(energy: bool) -> (u64, usize) {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 4;
    let rec = recorder(energy);
    let config = SimConfig {
        recorder: rec.clone(),
        ..SimConfig::default()
    };
    let trace = TraceConfig::paper_mix(5, SimTime::from_mins(30.0)).scaled(0.12);
    let report = ClusterSim::new(row, config, NoopController)
        .run(ArrivalGenerator::new(&trace), SimTime::from_mins(30.0));
    (report.completed, drain(&rec))
}

fn energy_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy");
    group.sample_size(30);
    group.bench_function("study_obs_metrics_baseline", |b| {
        let mut study = paper_study();
        b.iter(|| black_box(study_iter(&mut study, false)))
    });
    group.bench_function("study_obs_metrics_plus_energy", |b| {
        let mut study = paper_study();
        b.iter(|| black_box(study_iter(&mut study, true)))
    });
    group.bench_function("kernel_obs_metrics_baseline", |b| {
        b.iter(|| black_box(kernel_run(false)))
    });
    group.bench_function("kernel_obs_metrics_plus_energy", |b| {
        b.iter(|| black_box(kernel_run(true)))
    });
    group.finish();
}

criterion_group!(energy, energy_overhead);
criterion_main!(energy);
