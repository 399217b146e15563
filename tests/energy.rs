//! polca-energy guarantees (ISSUE 10 acceptance criteria):
//!
//! * the energy/carbon ledger is observation, not intervention:
//!   attaching an [`EnergyPlan`] leaves outcomes and `events.jsonl`
//!   byte-identical on both engines, at any seed,
//! * `energy.json` and `energy.csv` are byte-identical at
//!   `--fleet-threads 1` and `K`: rows accumulate on their own
//!   telemetry grids and the ledger assembles in canonical row order,
//! * conservation: site busy energy upper-bounds the sum of joules
//!   attributed to individual requests, on both engines,
//! * the bundled 24 h grid-intensity trace round-trips exactly
//!   through `CarbonTrace::{from_csv_str, to_csv}` and samples with
//!   hold-and-wrap semantics, and the CSV reader never panics on
//!   arbitrary bytes,
//! * the `energy_*` / `carbon_*` Prometheus exposition of a known
//!   ledger is pinned byte-for-byte against a golden file.

use polca::{
    DisaggregationConfig, OversubscriptionStudy, PolcaController, PolcaPolicy, PolicyKind,
};
use polca_cluster::{EngineKind, Request, RowConfig, SiteConfig, SiteSim};
use polca_obs::{
    CarbonSignal, CarbonTrace, EnergyLedger, EnergyPlan, ObsLevel, Recorder, ReqTraceConfig,
    RowEnergy,
};
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};
use proptest::prelude::*;

/// The aggregated batched engine built from the §5.2 constants.
fn batched() -> EngineKind {
    DisaggregationConfig::default().batched_engine(false)
}

/// Runs the quick-demo study under POLCA on the given engine, with or
/// without the energy/carbon ledger attached.
fn run_quick(seed: u64, engine: EngineKind, energy: bool) -> (polca::PolicyOutcome, Recorder) {
    let mut recorder = Recorder::new(ObsLevel::Full);
    if energy {
        recorder = recorder.with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()));
    }
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    study.set_engine(engine);
    (study.run(PolicyKind::Polca, 0.30, 1.0), recorder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tentpole invariant: energy accounting on/off is invisible to
    /// the simulation — same outcomes, byte-identical event log, on
    /// both engines. The accumulator only reads telemetry the sim
    /// already produces.
    #[test]
    fn energy_ledger_is_outcome_and_event_invariant(seed in 0u64..1000) {
        for engine in [EngineKind::Legacy, batched()] {
            let (off, rec_off) = run_quick(seed, engine.clone(), false);
            let (on, rec_on) = run_quick(seed, engine.clone(), true);
            prop_assert_eq!(off.counts, on.counts);
            prop_assert_eq!(off.brake_engagements, on.brake_engagements);
            prop_assert_eq!(off.peak_utilization, on.peak_utilization);
            prop_assert_eq!(off.low_normalized.p99, on.low_normalized.p99);
            prop_assert_eq!(off.high_normalized.p99, on.high_normalized.p99);
            let (a, b) = (rec_off.artifacts(), rec_on.artifacts());
            prop_assert!(!a.events.is_empty());
            prop_assert_eq!(a.events_jsonl(), b.events_jsonl());
            // The ledger actually accumulated something.
            prop_assert!(a.energy_ledger().is_empty());
            let ledger = b.energy_ledger();
            prop_assert!(!ledger.is_empty());
            prop_assert!(ledger.site.it_wh > 0.0);
            prop_assert!(ledger.site.co2e_g > 0.0);
        }
    }
}

/// A dense 20-minute synthetic arrival stream over a small row.
fn arrivals(seed: u64) -> Vec<Request> {
    let config = TraceConfig::paper_mix(seed, SimTime::from_mins(20.0)).scaled(0.1);
    ArrivalGenerator::new(&config).collect()
}

/// One full 2 × 2-datacenter site run at `threads` workers with the
/// energy ledger attached (per-datacenter PUEs, tight enforced budgets
/// so brakes fire mid-run), absorbed in canonical row order exactly as
/// the CLI fleet path does.
fn run_energy_site(seed: u64, threads: usize) -> EnergyLedger {
    let plan = EnergyPlan::new(CarbonSignal::diurnal_default()).with_pue(&[1.2, 1.4]);
    let recorder = Recorder::new(ObsLevel::Metrics).with_energy(plan);
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = 6;
    let mut site = SiteConfig {
        datacenters: 2,
        rows_per_datacenter: 2,
        rows_per_pdu: 2,
        pdu_budget_watts: Some(row.provisioned_watts() * 1.1),
        datacenter_budget_watts: Some(row.provisioned_watts() * 1.4),
        site_budget_watts: Some(row.provisioned_watts() * 2.6),
        enforce_budgets: true,
        threads,
        ..SiteConfig::default()
    };
    site.base.seed = seed;
    site.base.recorder = recorder.clone();
    let policy = PolcaPolicy::default();
    let report = SiteSim::new(
        row,
        site,
        |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
        arrivals(seed).into_iter(),
        SimTime::from_secs(20.0 * 60.0 + 600.0),
    )
    .run();
    for rec in &report.row_recorders {
        recorder.absorb_energy(rec);
    }
    recorder.artifacts().energy_ledger()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The worker-pool schedule is invisible in the energy artifacts:
    /// `energy.json` and `energy.csv` are byte-identical between
    /// sequential and 3-thread stepping, at any seed.
    #[test]
    fn energy_artifacts_are_thread_invariant(seed in 0u64..500) {
        let (a, b) = (run_energy_site(seed, 1), run_energy_site(seed, 3));
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.series_csv(), b.series_csv());
        // Shape sanity: 4 rows rolled up into 2 datacenters with the
        // configured per-datacenter PUEs.
        prop_assert_eq!(a.rows.len(), 4);
        prop_assert_eq!(a.datacenters.len(), 2);
        prop_assert_eq!(a.datacenters[0].2, 1.2);
        prop_assert_eq!(a.datacenters[1].2, 1.4);
        prop_assert!(a.site.facility_wh > a.site.it_wh);
    }
}

/// Conservation, on both engines: the site's busy energy (exact
/// event-resolution integral of busy server draw) upper-bounds the sum
/// of joules attributed to individual requests — attribution divides
/// busy watts among resident requests and unattributed busy time
/// (draining batches, idle-but-hot servers) only adds to the left side.
#[test]
fn busy_energy_bounds_attributed_request_joules() {
    for engine in [EngineKind::Legacy, batched()] {
        let recorder = Recorder::new(ObsLevel::Full)
            .with_req_trace(ReqTraceConfig { sample: 1 })
            .with_energy(EnergyPlan::new(CarbonSignal::Constant(400.0)));
        let mut study = OversubscriptionStudy::quick_demo(11);
        study.set_recorder(recorder.clone());
        study.set_engine(engine.clone());
        let outcome = study.run(PolicyKind::Polca, 0.30, 1.0);
        assert!(outcome.counts.1 > 0);

        let run = recorder.artifacts();
        let attributed_j: f64 = run.requests.iter().map(|r| r.joules).sum();
        assert!(attributed_j > 0.0, "{engine:?}: no joules attributed");
        let busy_j = run.energy_ledger().site.busy_wh * 3600.0;
        assert!(
            attributed_j <= busy_j * (1.0 + 1e-9),
            "{engine:?}: attributed {attributed_j} J > busy {busy_j} J"
        );
        // And busy energy is itself bounded by the IT account.
        assert!(busy_j <= run.energy_ledger().site.it_wh * 3600.0 * (1.0 + 1e-9));
    }
}

/// The bundled 24 h grid-intensity trace round-trips byte-for-byte,
/// and samples with the documented hold-and-wrap semantics.
#[test]
fn golden_carbon_trace_round_trips() {
    let csv = include_str!("golden/carbon_intensity_24h.csv");
    let trace = CarbonTrace::from_csv_str(csv).expect("golden trace parses");
    assert_eq!(trace.len(), 24);
    assert_eq!(trace.to_csv(), csv);
    assert_eq!(trace.span_s(), 86_400.0);
    // Sample-and-hold within the hour, wrap across the day boundary.
    assert_eq!(trace.g_per_kwh(0.0), 352.0);
    assert_eq!(trace.g_per_kwh(1800.0), 352.0);
    assert_eq!(trace.g_per_kwh(19.0 * 3600.0 + 60.0), 482.0);
    assert_eq!(trace.g_per_kwh(86_400.0 + 3600.5), 344.0);
}

/// A ledger with known contents, covering two datacenters with
/// distinct PUEs, both priority classes, and both pools.
fn known_ledger() -> EnergyLedger {
    let row0 = RowEnergy {
        row: 0,
        pdu: 0,
        dc: 0,
        pue: 1.2,
        horizon_s: 3600.0,
        it_wh: 100.0,
        busy_wh: 80.0,
        facility_wh: 120.0,
        co2e_g: 48.0,
        wh_low: 40.0,
        wh_high: 60.0,
        pool_wh: vec![("decode", 70.0), ("prefill", 30.0)],
        tokens_low: 1000,
        tokens_high: 3000,
        samples: Vec::new(),
    };
    let row1 = RowEnergy {
        row: 1,
        pdu: 1,
        dc: 1,
        pue: 1.5,
        horizon_s: 3600.0,
        it_wh: 200.0,
        busy_wh: 150.0,
        facility_wh: 300.0,
        co2e_g: 120.0,
        wh_low: 120.0,
        wh_high: 80.0,
        pool_wh: vec![("decode", 140.0), ("prefill", 60.0)],
        tokens_low: 5000,
        tokens_high: 1000,
        samples: Vec::new(),
    };
    // Deliberately out of order: assembly sorts into canonical order.
    EnergyLedger::from_rows(&[row1, row0])
}

/// The `energy_*` / `carbon_*` Prometheus exposition is pinned
/// byte-for-byte, so dashboards never silently drift.
#[test]
fn energy_prometheus_matches_golden() {
    let actual = known_ledger().prometheus();
    let golden = include_str!("golden/energy_metrics.prom");
    assert_eq!(
        actual, golden,
        "energy Prometheus exposition drifted from tests/golden/energy_metrics.prom;\nactual:\n{actual}"
    );
}

/// Rollup arithmetic of the known ledger: site totals are the sums,
/// per-token rates divide through, and the class/pool splits survive
/// assembly.
#[test]
fn known_ledger_rolls_up_exactly() {
    let ledger = known_ledger();
    assert_eq!(ledger.rows.len(), 2);
    assert_eq!(ledger.rows[0].row, 0, "rows not in canonical order");
    assert_eq!(ledger.site.it_wh, 300.0);
    assert_eq!(ledger.site.busy_wh, 230.0);
    assert_eq!(ledger.site.facility_wh, 420.0);
    assert_eq!(ledger.site.co2e_g, 168.0);
    assert_eq!(ledger.site.tokens, 10_000);
    assert_eq!(ledger.site.joules_per_token(), 300.0 * 3600.0 / 10_000.0);
    assert_eq!(ledger.site.co2e_g_per_token(), 168.0 / 10_000.0);
    assert_eq!(ledger.wh_low, 160.0);
    assert_eq!(ledger.wh_high, 140.0);
    assert_eq!(ledger.pool_wh, vec![("decode", 210.0), ("prefill", 90.0)]);
    assert_eq!(ledger.datacenters.len(), 2);
    assert_eq!(ledger.datacenters[0].1.facility_wh, 120.0);
    assert_eq!(ledger.datacenters[1].1.facility_wh, 300.0);
}

/// Pieces of a carbon CSV — header names, separators, quotes, line
/// ends, hours and intensities in and out of range, non-finite
/// spellings — that the fuzz input mixes with arbitrary single bytes.
const CARBON_FRAGMENTS: &[&str] = &[
    "hour",
    "carbon_g_per_kwh",
    ",",
    "\n",
    "\r\n",
    "\"",
    " ",
    "0",
    "1",
    "23",
    "-1",
    "0.5",
    "1e305",
    "1e309",
    "nan",
    "0,100\n",
    "2,400\n",
    "7.5,250\n",
    "23,0\n",
];

/// Arbitrary bytes (ASCII-only in half the inputs), mixed one to seven
/// with fragments, half the time behind a valid header.
fn carbon_csv_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = (any::<u8>(), 0..CARBON_FRAGMENTS.len(), 0u8..8);
    let pieces = prop::collection::vec(piece, 0..32);
    (any::<bool>(), any::<bool>(), pieces).prop_map(|(header, ascii, pieces)| {
        let mut out = if header {
            b"hour,carbon_g_per_kwh\n".to_vec()
        } else {
            Vec::new()
        };
        for (byte, fragment, pick) in pieces {
            match pick {
                0 if ascii => out.push(byte & 0x7f),
                0 => out.push(byte),
                _ => out.extend_from_slice(CARBON_FRAGMENTS[fragment].as_bytes()),
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The carbon reader never panics: arbitrary bytes parse into a
    /// trace whose lookups are finite and non-negative at any time, or
    /// fail with an error naming the offending line (or, for a trace
    /// that parsed but is unusable, the offending point).
    #[test]
    fn arbitrary_bytes_parse_or_fail_with_a_line(
        bytes in carbon_csv_bytes(),
        t_s in -1e9..1e9f64,
    ) {
        let text = String::from_utf8_lossy(&bytes);
        match CarbonTrace::from_csv_str(&text) {
            Ok(trace) => {
                for t in [0.0, t_s, f64::MAX] {
                    let g = trace.g_per_kwh(t);
                    prop_assert!(g.is_finite() && g >= 0.0, "g_per_kwh({}) = {}", t, g);
                }
            }
            Err(e) => {
                let line = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse::<usize>().ok());
                let lines = text.lines().count();
                prop_assert!(
                    line.is_some_and(|l| (1..=lines).contains(&l)) || e.starts_with("carbon csv: "),
                    "{}",
                    e
                );
            }
        }
    }
}
