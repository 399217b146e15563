//! Policy evaluation on a replayed (ingested) request stream.
//!
//! [`OversubscriptionStudy`](crate::experiment::OversubscriptionStudy)
//! synthesizes its workload; [`TraceEvaluation`] instead takes an
//! explicit request stream — typically `polca-ingest`'s `TraceReplay`
//! of a production CSV — and runs the Figure 17 policy comparison on
//! it verbatim. The reference for latency normalization is the same
//! stream through an un-capped row (`NoopController`), cached across
//! policy runs so the four policies share one reference.

use std::sync::OnceLock;

use polca_cluster::{ClusterSim, EngineKind, NoopController, Request, RowConfig, SimConfig};
use polca_obs::Recorder;
use polca_sim::SimTime;
use polca_stats::Quantiles;
use polca_telemetry::RowPowerTaps;

use crate::experiment::PolicyKind;
use crate::policy::PolcaPolicy;

/// Drain time appended after the last arrival so in-flight requests
/// finish inside the simulation horizon.
const DRAIN_S: f64 = 1800.0;

/// What one policy produced on the replayed stream.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplayOutcome {
    /// The policy that ran.
    pub kind: PolicyKind,
    /// Raw low-priority latency quantiles in seconds.
    pub low_raw: Quantiles,
    /// Raw high-priority latency quantiles in seconds.
    pub high_raw: Quantiles,
    /// Low-priority quantiles normalized to the un-capped reference.
    pub low_normalized: Quantiles,
    /// High-priority quantiles normalized to the un-capped reference.
    pub high_normalized: Quantiles,
    /// Power-brake events during the run.
    pub brake_engagements: u64,
    /// Peak row power over provisioned power.
    pub peak_utilization: f64,
    /// Mean row power over provisioned power.
    pub mean_utilization: f64,
    /// Requests offered / completed / rejected.
    pub counts: (u64, u64, u64),
    /// OOB control commands issued.
    pub commands_issued: u64,
}

/// Runs the Figure 17 policy comparison on a fixed request stream.
#[derive(Debug, Clone)]
pub struct TraceEvaluation {
    row: RowConfig,
    policy: PolcaPolicy,
    seed: u64,
    until: SimTime,
    requests: Vec<Request>,
    record_power: bool,
    engine: EngineKind,
    recorder: Recorder,
    oob_taps: RowPowerTaps,
    reference: OnceLock<(Quantiles, Quantiles)>,
}

impl TraceEvaluation {
    /// Builds an evaluation of `requests` on `row`. The horizon is the
    /// last arrival plus a 30-minute drain window (override with
    /// [`set_horizon`](TraceEvaluation::set_horizon)).
    pub fn new(row: RowConfig, policy: PolcaPolicy, requests: Vec<Request>, seed: u64) -> Self {
        let last_arrival = requests.last().map(|r| r.arrival.as_secs()).unwrap_or(0.0);
        TraceEvaluation {
            row,
            policy,
            seed,
            until: SimTime::from_secs(last_arrival + DRAIN_S),
            requests,
            record_power: false,
            engine: EngineKind::Legacy,
            recorder: Recorder::disabled(),
            oob_taps: RowPowerTaps::new(),
            reference: OnceLock::new(),
        }
    }

    /// Overrides the simulation horizon.
    pub fn set_horizon(&mut self, until: SimTime) {
        self.until = until;
    }

    /// Enables/disables the row-power timeseries in reports.
    pub fn set_record_power(&mut self, record: bool) {
        self.record_power = record;
    }

    /// Selects the row serving engine for every subsequent run,
    /// including the cached un-capped reference — normalization always
    /// compares like with like. Call before the first run: a reference
    /// cached under another engine is not invalidated.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// The serving engine runs execute on.
    pub fn engine(&self) -> &EngineKind {
        &self.engine
    }

    /// Attaches an observability recorder to subsequent policy runs
    /// (the cached reference run stays un-instrumented, like the
    /// synthetic study).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Attaches delayed-telemetry subscribers (the online watch plane)
    /// to subsequent policy runs; the cached reference run stays
    /// un-instrumented.
    pub fn set_oob_taps(&mut self, taps: RowPowerTaps) {
        self.oob_taps = taps;
    }

    /// Number of requests in the replayed stream.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.until
    }

    fn sim_config(&self, recorder: Recorder) -> SimConfig {
        SimConfig {
            seed: self.seed,
            record_power_series: self.record_power,
            engine: self.engine.clone(),
            recorder,
            ..SimConfig::default()
        }
    }

    fn quantiles_or_unit(samples: &[f64]) -> Quantiles {
        Quantiles::from_samples(samples).unwrap_or(Quantiles {
            p50: 1.0,
            p90: 1.0,
            p99: 1.0,
            max: 1.0,
            min: 1.0,
            mean: 1.0,
            count: 0,
        })
    }

    /// Runs (and caches) the un-capped reference on the same stream.
    fn reference(&self) -> (Quantiles, Quantiles) {
        *self.reference.get_or_init(|| {
            let sim = ClusterSim::new(
                self.row.clone(),
                self.sim_config(Recorder::disabled()),
                NoopController,
            );
            let report = sim.run(self.requests.clone(), self.until);
            (
                Self::quantiles_or_unit(&report.low_latencies_s),
                Self::quantiles_or_unit(&report.high_latencies_s),
            )
        })
    }

    /// Replays the stream under `kind` and normalizes against the
    /// cached un-capped reference.
    pub fn run(&mut self, kind: PolicyKind) -> ReplayOutcome {
        let obs = self.recorder.clone();
        let taps = self.oob_taps.clone();
        self.run_cell(kind, &obs, &taps)
    }

    /// One pure comparison cell: replays the stream under `kind`,
    /// recording into `obs` and publishing telemetry to `taps`. Takes
    /// `&self` (only the interior-mutable reference cache is touched)
    /// so [`run_all`](TraceEvaluation::run_all) can execute policies on
    /// worker threads.
    pub fn run_cell(&self, kind: PolicyKind, obs: &Recorder, taps: &RowPowerTaps) -> ReplayOutcome {
        let (ref_low, ref_high) = self.reference();
        let controller = kind.controller(&self.policy, obs);
        let provisioned = self.row.provisioned_watts();
        let mut config = self.sim_config(obs.clone());
        config.oob_taps = taps.clone();
        let sim = ClusterSim::new(self.row.clone(), config, controller);
        let report = sim.run(self.requests.clone(), self.until);
        let low_raw = Self::quantiles_or_unit(&report.low_latencies_s);
        let high_raw = Self::quantiles_or_unit(&report.high_latencies_s);
        ReplayOutcome {
            kind,
            low_normalized: low_raw.normalized_to(&ref_low),
            high_normalized: high_raw.normalized_to(&ref_high),
            low_raw,
            high_raw,
            brake_engagements: report.brake_engagements,
            peak_utilization: report.peak_row_watts / provisioned,
            mean_utilization: report.mean_row_watts / provisioned,
            counts: (report.offered, report.completed, report.rejected),
            commands_issued: report.commands_issued,
        }
    }

    /// Runs the full Figure 17 policy panel on `jobs` worker threads
    /// and returns outcomes in figure order. Per-policy recorders are
    /// absorbed into the attached recorder in that same canonical
    /// order, so artifacts are byte-identical whatever `jobs` is.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn run_all(&self, jobs: usize) -> Vec<ReplayOutcome> {
        let kinds = PolicyKind::all();
        let results = crate::sweep::run_parallel(jobs, kinds.len(), |i| {
            let cell_obs = self.recorder.fresh_cell();
            let outcome = self.run_cell(kinds[i], &cell_obs, &self.oob_taps);
            (outcome, cell_obs)
        });
        results
            .into_iter()
            .map(|(outcome, cell_obs)| {
                self.recorder.absorb(&cell_obs);
                outcome
            })
            .collect()
    }

    /// The row configuration the stream replays on.
    pub fn row(&self) -> &RowConfig {
        &self.row
    }

    /// The replayed request stream, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The experiment seed (OOB latency draws).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_cluster::Priority;

    fn burst_requests(n: u64, gap_s: f64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i,
                    SimTime::from_secs(i as f64 * gap_s),
                    1200,
                    400,
                    if i % 2 == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    },
                )
            })
            .collect()
    }

    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 20;
        row
    }

    #[test]
    fn nocap_on_reference_stream_normalizes_to_unity() {
        let requests = burst_requests(400, 2.0);
        let mut eval = TraceEvaluation::new(small_row(), PolcaPolicy::default(), requests, 3);
        let outcome = eval.run(PolicyKind::NoCap);
        assert_eq!(outcome.counts.0, 400);
        assert!((outcome.low_normalized.p99 - 1.0).abs() < 1e-9);
        assert!((outcome.high_normalized.p99 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_policies_run_on_the_same_stream() {
        let requests = burst_requests(300, 1.5);
        let mut eval = TraceEvaluation::new(small_row(), PolcaPolicy::default(), requests, 3);
        for kind in PolicyKind::all() {
            let outcome = eval.run(kind);
            assert_eq!(outcome.kind, kind);
            assert_eq!(outcome.counts.0, 300);
            assert!(outcome.counts.1 > 0, "{kind:?} completed nothing");
        }
    }

    #[test]
    fn parallel_policy_panel_matches_sequential_runs() {
        let requests = burst_requests(300, 1.5);
        let eval = TraceEvaluation::new(small_row(), PolcaPolicy::default(), requests.clone(), 3);
        let outcomes = eval.run_all(4);
        let mut seq = TraceEvaluation::new(small_row(), PolcaPolicy::default(), requests, 3);
        assert_eq!(outcomes.len(), PolicyKind::all().len());
        for (got, kind) in outcomes.iter().zip(PolicyKind::all()) {
            let want = seq.run(kind);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.commands_issued, want.commands_issued);
            assert_eq!(got.low_normalized.p99, want.low_normalized.p99);
            assert_eq!(got.high_normalized.p99, want.high_normalized.p99);
        }
    }

    #[test]
    fn horizon_covers_the_drain_window() {
        let requests = burst_requests(10, 60.0);
        let eval = TraceEvaluation::new(small_row(), PolcaPolicy::default(), requests, 1);
        assert!(eval.horizon().as_secs() >= 9.0 * 60.0 + 1800.0);
        assert_eq!(eval.len(), 10);
    }
}
