//! Fleet-scale refactor guarantees (ISSUE 4 acceptance criteria):
//!
//! * a default (1-row) [`SiteSim`] is a *bit-identical* re-packaging
//!   of the single-row `ClusterSim` path — same report, same
//!   `events.jsonl` bytes — at any seed,
//! * the deterministic sweep runner produces byte-identical artifacts
//!   (`events.jsonl`, `metrics.json`) and identical outcomes whether
//!   it runs on 1 worker thread or 4.

use polca::{OversubscriptionStudy, PolcaController, PolcaPolicy, PolicyKind};
use polca_cluster::{ClusterSim, Request, RowConfig, SimConfig, SiteConfig, SiteSim};
use polca_obs::{ObsLevel, Recorder};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};
use proptest::prelude::*;

/// A small row so the proptest cases stay fast.
fn small_row() -> RowConfig {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 6;
    row
}

/// A dense 20-minute synthetic arrival stream.
fn arrivals(seed: u64) -> Vec<Request> {
    let config = TraceConfig::paper_mix(seed, SimTime::from_mins(20.0)).scaled(0.1);
    ArrivalGenerator::new(&config).collect()
}

const HORIZON: f64 = 20.0 * 60.0 + 600.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Wrapping the row engine in a default 1-row site changes
    /// nothing — not the report, not a single event byte.
    #[test]
    fn one_row_fleet_reproduces_the_legacy_path_bit_for_bit(seed in 0u64..500) {
        let requests = arrivals(seed);
        let until = SimTime::from_secs(HORIZON);
        let policy = PolcaPolicy::default();

        let solo_rec = Recorder::new(ObsLevel::Events);
        let solo_cfg = SimConfig {
            seed,
            recorder: solo_rec.clone(),
            ..SimConfig::default()
        };
        let solo_controller =
            PolcaController::new(policy.clone()).with_recorder(solo_rec.clone());
        let solo = ClusterSim::new(small_row(), solo_cfg, solo_controller)
            .run(requests.clone(), until);

        let mut site = SiteConfig::default();
        site.base.seed = seed;
        site.base.recorder = Recorder::new(ObsLevel::Events);
        let fleet = SiteSim::new(
            small_row(),
            site,
            |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
            requests.into_iter(),
            until,
        )
        .run();

        let row = &fleet.rows[0];
        prop_assert_eq!(row.offered, solo.offered);
        prop_assert_eq!(row.completed, solo.completed);
        prop_assert_eq!(row.rejected, solo.rejected);
        prop_assert_eq!(&row.low_latencies_s, &solo.low_latencies_s);
        prop_assert_eq!(&row.high_latencies_s, &solo.high_latencies_s);
        prop_assert_eq!(row.peak_row_watts, solo.peak_row_watts);
        prop_assert_eq!(row.mean_row_watts, solo.mean_row_watts);
        prop_assert_eq!(row.brake_engagements, solo.brake_engagements);
        prop_assert_eq!(row.commands_issued, solo.commands_issued);
        prop_assert_eq!(row.events_processed, solo.events_processed);
        // The per-row event log is byte-identical to the solo run's.
        let fleet_events = fleet.row_recorders[0].artifacts().events_jsonl();
        let solo_events = solo_rec.artifacts().events_jsonl();
        prop_assert!(!fleet_events.is_empty());
        prop_assert_eq!(fleet_events, solo_events);
    }

    /// Sweep-runner invariant: `--jobs 4` and `--jobs 1` produce the
    /// same outcomes and byte-identical absorbed artifacts.
    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential(seed in 0u64..500) {
        let cells: Vec<(PolicyKind, f64, f64)> = PolicyKind::all()
            .iter()
            .map(|&kind| (kind, 0.30, 1.0))
            .collect();

        let run = |jobs: usize| {
            let study = OversubscriptionStudy::quick_demo(seed);
            let rec = Recorder::new(ObsLevel::Events);
            let mut study = study;
            study.set_recorder(rec.clone());
            (study.sweep(&cells, jobs), rec)
        };
        let (seq, seq_rec) = run(1);
        let (par, par_rec) = run(4);

        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.counts, b.counts);
            prop_assert_eq!(a.brake_engagements, b.brake_engagements);
            prop_assert_eq!(a.commands_issued, b.commands_issued);
            prop_assert_eq!(a.low_normalized.p99, b.low_normalized.p99);
            prop_assert_eq!(a.high_normalized.p99, b.high_normalized.p99);
        }
        let (a, b) = (seq_rec.artifacts(), par_rec.artifacts());
        prop_assert!(!a.events.is_empty());
        prop_assert_eq!(a.events_jsonl(), b.events_jsonl());
        prop_assert_eq!(a.metrics_json(), b.metrics_json());
    }
}
