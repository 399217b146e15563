//! Observability-layer guarantees (ISSUE 1 acceptance criteria):
//!
//! * recording is *passive* — attaching a recorder at any level must
//!   not perturb simulation results (same seed ⇒ same
//!   `PolicyOutcome`),
//! * the event log is *deterministic* — with a fixed seed, two runs
//!   emit byte-identical `events.jsonl` and Perfetto traces,
//! * the Chrome trace-event rendering has a stable, golden-file-pinned
//!   shape.

use polca::{OversubscriptionStudy, PolicyKind, PolicyOutcome};
use polca_obs::{Event, ObsLevel, Recorder};
use proptest::prelude::*;

/// Runs the quick-demo study under `kind` with the given recorder.
fn run_with(seed: u64, kind: PolicyKind, recorder: Recorder) -> (PolicyOutcome, Recorder) {
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    (study.run(kind, 0.30, 1.0), recorder)
}

fn assert_outcomes_identical(a: &PolicyOutcome, b: &PolicyOutcome) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.brake_engagements, b.brake_engagements);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.commands_issued, b.commands_issued);
    for (qa, qb) in [
        (&a.low_normalized, &b.low_normalized),
        (&a.high_normalized, &b.high_normalized),
        (&a.low_raw, &b.low_raw),
        (&a.high_raw, &b.high_raw),
    ] {
        assert_eq!(qa.count, qb.count);
        assert_eq!(qa.p50, qb.p50);
        assert_eq!(qa.p90, qb.p90);
        assert_eq!(qa.p99, qb.p99);
        assert_eq!(qa.min, qb.min);
        assert_eq!(qa.max, qb.max);
        assert_eq!(qa.mean, qb.mean);
    }
    assert_eq!(a.peak_utilization, b.peak_utilization);
    assert_eq!(a.mean_utilization, b.mean_utilization);
    assert_eq!(a.low_throughput_norm, b.low_throughput_norm);
    assert_eq!(a.high_throughput_norm, b.high_throughput_norm);
    assert_eq!(a.slo.met, b.slo.met);
    assert_eq!(a.row_power.values(), b.row_power.values());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Observation is passive: a fully-instrumented run and an
    /// uninstrumented run of the same seeded study are outcome-equal.
    #[test]
    fn recording_never_perturbs_outcomes(seed in 0u64..1000) {
        let (off, _) = run_with(seed, PolicyKind::Polca, Recorder::disabled());
        let (on, rec) = run_with(seed, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
        assert_outcomes_identical(&off, &on);
        // And the instrumented run actually observed something.
        let artifacts = rec.artifacts();
        prop_assert!(!artifacts.events.is_empty());
        prop_assert!(!artifacts.metrics.is_empty());
    }
}

#[test]
fn event_log_is_byte_identical_across_runs() {
    let (_, rec1) = run_with(11, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
    let (_, rec2) = run_with(11, PolicyKind::Polca, Recorder::new(ObsLevel::Full));
    let (a, b) = (rec1.artifacts(), rec2.artifacts());
    assert!(!a.events.is_empty());
    assert_eq!(a.events_jsonl(), b.events_jsonl());
    assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(a.power_csv(), b.power_csv());
    assert_eq!(a.latency_csv(), b.latency_csv());
}

#[test]
fn instrumented_run_emits_the_advertised_event_taxonomy() {
    let (outcome, rec) = run_with(7, PolicyKind::NoCap, Recorder::new(ObsLevel::Events));
    let kinds: std::collections::BTreeSet<&str> =
        rec.artifacts().events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains("request_dispatched"), "kinds: {kinds:?}");
    assert!(kinds.contains("request_completed"), "kinds: {kinds:?}");
    assert!(kinds.contains("power_sample"), "kinds: {kinds:?}");
    // The power series in the artifacts matches the outcome's record.
    let csv_lines = rec.artifacts().power_csv().lines().count() - 1;
    assert_eq!(csv_lines, outcome.row_power.len());
}

/// Golden-file pin of the Chrome trace-event JSON shape: a hand-built
/// event list must render exactly as `tests/golden/chrome_trace.json`.
/// Regenerate deliberately (and review the diff in Perfetto) if the
/// format changes.
#[test]
fn chrome_trace_matches_golden_file() {
    let events = vec![
        Event::PowerSample {
            t: 0.0,
            watts: 100_000.0,
        },
        Event::RequestDispatched {
            t: 0.5,
            server: 0,
            request: 1,
            priority: "high",
        },
        Event::CapApplied {
            t: 1.0,
            server: 0,
            mhz: 1110.0,
        },
        Event::RequestCompleted {
            t: 1.5,
            server: 0,
            request: 1,
            priority: "high",
            latency_s: 1.0,
        },
        Event::BrakeEngaged {
            t: 2.0,
            server: 1,
            on: true,
        },
        Event::BrakeEngaged {
            t: 2.5,
            server: 1,
            on: false,
        },
        Event::Uncap { t: 3.0, server: 0 },
    ];
    let rendered = polca_obs::chrome::trace_json(&events);
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(rendered, golden);
}

/// FNV-1a over a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Byte pin of every deterministic export surface. A small enforced
/// site (2 datacenters × 2 rows, Full recorder with request tracing at
/// sample 1 and the diurnal energy ledger, a buffering watch tap)
/// writes the site directory, one directory per row and one watch
/// directory per datacenter — the `evaluate --obs-out` site layout —
/// plus the site `trace.json` annotated with datacenter 0's watch
/// markers, as the single-row `--watch` path writes it. Every file
/// except the wall-clock `prof.*` is pinned, in `write_dir`'s order.
#[test]
fn export_bytes_are_pinned() {
    use polca::{PolcaController, PolcaPolicy};
    use polca_cluster::{RowConfig, SiteConfig, SiteSim};
    use polca_obs::{CarbonSignal, EnergyPlan, ReqTraceConfig};
    use polca_sim::SimTime;
    use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
    use polca_trace::{ArrivalGenerator, TraceConfig};
    use polca_watch::{WatchConfig, WatchPlane};
    use std::path::Path;

    let recorder = Recorder::new(ObsLevel::Full)
        .with_req_trace(ReqTraceConfig { sample: 1 })
        .with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()));
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
        threads: 2,
        ..SiteConfig::default()
    };
    site.base.seed = 5;
    site.base.recorder = recorder.clone();
    let buffer = RowTickBuffer::new(4);
    let mut taps = RowPowerTaps::new();
    taps.subscribe(buffer.clone());
    site.base.oob_taps = taps;
    let policy = PolcaPolicy::default();
    let until = SimTime::from_secs(20.0 * 60.0 + 600.0);
    let arrivals =
        ArrivalGenerator::new(&TraceConfig::paper_mix(5, SimTime::from_mins(20.0)).scaled(0.1));
    let report = SiteSim::new(
        row.clone(),
        site,
        |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
        arrivals,
        until,
    )
    .run();
    let watch: Vec<_> = (0..report.datacenters)
        .map(|d| {
            let columns: Vec<_> = report
                .rows_in_datacenter(d)
                .map(|r| buffer.take_row(r))
                .collect();
            let plane = WatchPlane::new(WatchConfig::new(row.provisioned_watts()));
            let sub = plane.subscriber();
            for tick in merge_tick_columns(&columns) {
                sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
            }
            plane.finalize(until)
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("polca-export-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for rec in &report.row_recorders {
        recorder.absorb_energy(rec);
        recorder.absorb_profiling(rec);
    }
    let mut files = recorder.write_dir(&dir).unwrap();
    for (i, rec) in report.row_recorders.iter().enumerate() {
        files.extend(rec.write_dir(&dir.join(format!("row{i}"))).unwrap());
    }
    for (d, w) in watch.iter().enumerate() {
        files.extend(w.write_dir(&dir.join(format!("dc{d}"))).unwrap());
    }
    let annotated = recorder
        .write_dir_annotated(&dir.join("annotated"), &watch[0].annotations())
        .unwrap();
    files.extend(annotated.into_iter().filter(|p| p.ends_with("trace.json")));

    let got: Vec<(String, u64)> = files
        .iter()
        .map(|p| p.strip_prefix(&dir).unwrap())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            !name.starts_with("prof.")
        })
        .map(|p: &Path| {
            let body = std::fs::read(dir.join(p)).unwrap();
            (p.display().to_string(), fnv1a(&body))
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!watch[0].alerts().is_empty(), "no alert to annotate");
    // Recorded before the renderers were rewritten to stream.
    let want: &[(&str, u64)] = &[
        ("metrics.json", 0xf4615c32047da0dd),
        ("metrics.prom", 0x21864d622e6e31b3),
        ("energy.json", 0x8842af8a84ed1fbf),
        ("energy.csv", 0xc9e19d5a98d2e5c9),
        ("events.jsonl", 0x390385a76944fdfe),
        ("requests.jsonl", 0xcbf29ce484222325),
        ("power.csv", 0x3c75fe2996fd477a),
        ("latency.csv", 0x28f9ca2165cbad9a),
        ("trace.json", 0x4f5866e007584a86),
        ("row0/metrics.json", 0x59a377eb41e39c97),
        ("row0/metrics.prom", 0x67bcfa21287dece6),
        ("row0/energy.json", 0x608a9ae681ad92dd),
        ("row0/energy.csv", 0x78a5e02202029d83),
        ("row0/events.jsonl", 0x824c8a7b2a8d02d7),
        ("row0/requests.jsonl", 0x6eade69779f484d2),
        ("row0/power.csv", 0x4d4b8c9ee54fb985),
        ("row0/latency.csv", 0x55823e52ce2b8a6e),
        ("row0/trace.json", 0x666a174e5deedb42),
        ("row1/metrics.json", 0x2787ec8930cf63bc),
        ("row1/metrics.prom", 0x25762ac12393e6d8),
        ("row1/energy.json", 0xa9f7425e6200932e),
        ("row1/energy.csv", 0xe9826f8af402787c),
        ("row1/events.jsonl", 0x1eb9ce8a3c03d666),
        ("row1/requests.jsonl", 0x3fd5889800ec200d),
        ("row1/power.csv", 0x0976ddead6797ec4),
        ("row1/latency.csv", 0x38eeb924598b7534),
        ("row1/trace.json", 0x06191f06868bff16),
        ("row2/metrics.json", 0x4c6f35c3be9099f5),
        ("row2/metrics.prom", 0xc6cf400e0f154a49),
        ("row2/energy.json", 0xc584300a4d1fa818),
        ("row2/energy.csv", 0xa2c39e4bcb8a6e45),
        ("row2/events.jsonl", 0xdd8cc652b5478655),
        ("row2/requests.jsonl", 0xc3bb87f717986920),
        ("row2/power.csv", 0x91fc47b9e57739d9),
        ("row2/latency.csv", 0x23f5f3fd3f31e46f),
        ("row2/trace.json", 0x5c872a6c249dc1ea),
        ("row3/metrics.json", 0x45411e9aba47e558),
        ("row3/metrics.prom", 0x6756fdca01e92118),
        ("row3/energy.json", 0x5f76f215649e2869),
        ("row3/energy.csv", 0xbfc470165d4ad355),
        ("row3/events.jsonl", 0xaab1501fb8820ce4),
        ("row3/requests.jsonl", 0x4e70a389e9be42cf),
        ("row3/power.csv", 0x901112d8ee569998),
        ("row3/latency.csv", 0xc6e6584a6f6ac96f),
        ("row3/trace.json", 0x28d5d259e4abfb62),
        ("dc0/incidents.jsonl", 0x8fee48ef3b4d4b7d),
        ("dc0/report.md", 0xf106f1907c428133),
        ("dc1/incidents.jsonl", 0x97412b368f052c72),
        ("dc1/report.md", 0x3e265a91bac6131c),
        ("annotated/trace.json", 0xcce5326420849404),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, want);
}
