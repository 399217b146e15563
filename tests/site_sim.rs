//! Site-simulator refactor guarantees (ISSUE 9 acceptance criteria):
//!
//! * `--fleet-threads K` is invisible in every artifact: a site
//!   stepped on 4 worker threads produces byte-identical
//!   `events.jsonl`, `requests.jsonl`, `metrics.prom`, and
//!   `incidents.jsonl` to the same site stepped sequentially, at any
//!   seed — both with budget enforcement injecting brake commands
//!   mid-run (one-window epochs) and with monitored budgets (rows run
//!   whole multi-window epochs between rendezvous),
//! * hierarchy budget math: a parent-level `BudgetViolation` is never
//!   emitted unless the sum of its children's powers at that sample
//!   actually exceeds the parent cap, and every budget follows the
//!   absolute-over-fraction precedence, for randomized site shapes
//!   and budget knobs.

use polca::{PolcaController, PolcaPolicy};
use polca_cluster::{Request, RowConfig, SiteConfig, SiteSim};
use polca_obs::{Event, ObsLevel, Recorder, ReqTraceConfig};
use polca_sim::SimTime;
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::{ArrivalGenerator, TraceConfig};
use polca_watch::{WatchConfig, WatchPlane};
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

/// One full site run at `threads` workers: a 2 × 2 site with tight
/// budgets (when `enforce`d, OOB brake commands are injected mid-run)
/// and a buffering watch tap. Returns every artifact surface the
/// determinism contract covers.
struct SiteRun {
    site_events: String,
    site_prom: String,
    row_events: Vec<String>,
    row_requests: Vec<String>,
    incidents: Vec<String>,
}

fn run_site(seed: u64, threads: usize, enforce: bool) -> SiteRun {
    let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig { sample: 1 });
    let row = small_row();
    let mut site = SiteConfig {
        datacenters: 2,
        rows_per_datacenter: 2,
        rows_per_pdu: 2,
        // Tight caps at every level so enforcement engages and
        // releases repeatedly during the run, and monitoring records
        // violations.
        pdu_budget_watts: Some(row.provisioned_watts() * 1.1),
        datacenter_budget_watts: Some(row.provisioned_watts() * 1.4),
        site_budget_watts: Some(row.provisioned_watts() * 2.6),
        enforce_budgets: enforce,
        threads,
        ..SiteConfig::default()
    };
    site.base.seed = seed;
    site.base.recorder = recorder.clone();
    let buffer = RowTickBuffer::new(4);
    let mut taps = RowPowerTaps::new();
    taps.subscribe(buffer.clone());
    site.base.oob_taps = taps;
    let policy = PolcaPolicy::default();
    let until = SimTime::from_secs(HORIZON);
    let report = SiteSim::new(
        row.clone(),
        site,
        |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
        arrivals(seed).into_iter(),
        until,
    )
    .run();

    // Per-datacenter watch replay in canonical row order (what the
    // CLI's `--watch` fleet path does).
    let incidents = (0..report.datacenters)
        .map(|d| {
            let columns: Vec<_> = report
                .rows_in_datacenter(d)
                .map(|r| buffer.take_row(r))
                .collect();
            let plane = WatchPlane::new(WatchConfig::new(2.0 * row.provisioned_watts()));
            let sub = plane.subscriber();
            for tick in merge_tick_columns(&columns) {
                sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
            }
            plane.finalize(until).incidents_jsonl()
        })
        .collect();

    SiteRun {
        site_events: recorder.artifacts().events_jsonl(),
        site_prom: recorder.artifacts().metrics_prometheus(),
        row_events: report
            .row_recorders
            .iter()
            .map(|r| r.artifacts().events_jsonl())
            .collect(),
        row_requests: report
            .row_recorders
            .iter()
            .map(|r| r.artifacts().requests_jsonl())
            .collect(),
        incidents,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tentpole invariant: the worker-pool schedule is invisible —
    /// every artifact byte matches between sequential and 4-thread
    /// stepping, with enforcement brakes firing mid-run and with
    /// monitored budgets stepped in multi-window epochs.
    #[test]
    fn parallel_site_artifacts_are_byte_identical(seed in 0u64..500) {
        for enforce in [true, false] {
            let seq = run_site(seed, 1, enforce);
            let par = run_site(seed, 4, enforce);
            prop_assert!(!seq.site_events.is_empty());
            prop_assert_eq!(&seq.site_events, &par.site_events);
            prop_assert_eq!(&seq.site_prom, &par.site_prom);
            for i in 0..seq.row_events.len() {
                prop_assert!(!seq.row_events[i].is_empty());
                prop_assert_eq!(&seq.row_events[i], &par.row_events[i]);
                prop_assert_eq!(&seq.row_requests[i], &par.row_requests[i]);
            }
            prop_assert_eq!(&seq.incidents, &par.incidents);
        }
    }

    /// Hierarchy budget math: a parent violation is only ever emitted
    /// when its children's summed power at that sample exceeds the
    /// parent cap — across randomized site shapes.
    #[test]
    fn parent_violations_require_child_sums_over_cap(
        seed in 0u64..500,
        datacenters in 1usize..4,
        rows_per_dc in 1usize..4,
        rows_per_pdu in 1usize..3,
        knob in 0usize..3,
    ) {
        let recorder = Recorder::new(ObsLevel::Events);
        let row = small_row();
        // Caps at half the provisioned power beneath each node, far
        // below what even lightly loaded rows draw, so violations occur
        // at every shape. `knob` sets them through the absolute
        // overrides (0), oversubscription fractions f = 1 (1), or both
        // with a looser fraction the absolute override must beat (2).
        let half = |rows: usize| row.provisioned_watts() * 0.5 * rows as f64;
        let absolute = knob != 1;
        let fraction = [None, Some(1.0), Some(0.25)][knob];
        let mut site = SiteConfig {
            datacenters,
            rows_per_datacenter: rows_per_dc,
            rows_per_pdu,
            pdu_budget_watts: absolute.then(|| half(1)),
            datacenter_budget_watts: absolute.then(|| half(rows_per_dc)),
            site_budget_watts: absolute.then(|| half(rows_per_dc * datacenters)),
            pdu_oversubscription: fraction,
            datacenter_oversubscription: fraction,
            site_oversubscription: fraction,
            ..SiteConfig::default()
        };
        site.base.seed = seed;
        site.base.recorder = recorder.clone();
        let policy = PolcaPolicy::default();
        let report = SiteSim::new(
            row.clone(),
            site,
            |_, rec| PolcaController::new(policy.clone()).with_recorder(rec.clone()),
            arrivals(seed).into_iter(),
            SimTime::from_secs(HORIZON),
        )
        .run();
        prop_assert_eq!(report.rows.len(), datacenters * rows_per_dc);

        // Global PDU `p` is local PDU `p % pdus_per_dc` of datacenter
        // `p / pdus_per_dc`; the last PDU of a datacenter may be partial.
        let pdus_per_dc = rows_per_dc.div_ceil(rows_per_pdu);
        let pdu_rows = |p: usize| {
            let dc = report.rows_in_datacenter(p / pdus_per_dc);
            let start = dc.start + (p % pdus_per_dc) * rows_per_pdu;
            start..(start + rows_per_pdu).min(dc.end)
        };
        // Budget precedence at every level: the absolute override, else
        // provisioned / (1 + f).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
        prop_assert_eq!(report.pdu_budget_watts.len(), datacenters * pdus_per_dc);
        for (p, &budget) in report.pdu_budget_watts.iter().enumerate() {
            let want = if absolute { half(1) } else { half(pdu_rows(p).len()) };
            prop_assert!(close(budget, want), "pdu {} budget {} != {}", p, budget, want);
        }
        prop_assert!(close(report.datacenter_budget_watts, half(rows_per_dc)));
        prop_assert!(close(report.site_budget_watts, half(rows_per_dc * datacenters)));

        // Reconstruct each boundary sample's per-row powers from the
        // event stream, then check every violation's roll-up.
        let events = recorder.artifacts().events;
        let mut row_watts = vec![0.0f64; datacenters * rows_per_dc];
        let mut sample_t = f64::NAN;
        let mut violations = 0u64;
        for event in &events {
            match event {
                Event::FleetPowerSample { t, row, watts } => {
                    sample_t = *t;
                    row_watts[*row] = *watts;
                }
                Event::BudgetViolation { t, scope, unit, watts, budget_watts } => {
                    prop_assert_eq!(*t, sample_t, "violation outside a boundary sample");
                    let dc_sum =
                        |d: usize| -> f64 { report.rows_in_datacenter(d).map(|r| row_watts[r]).sum() };
                    let child_sum: f64 = match *scope {
                        "pdu" => pdu_rows(*unit).map(|r| row_watts[r]).sum(),
                        "datacenter" => dc_sum(*unit),
                        "site" => (0..datacenters).map(dc_sum).sum(),
                        other => {
                            prop_assert!(false, "unknown scope {}", other);
                            unreachable!()
                        }
                    };
                    prop_assert!(
                        child_sum > *budget_watts,
                        "{scope} {unit} violation at t={t}: child sum {child_sum} \
                         within cap {budget_watts}"
                    );
                    // The reported watts are exactly the child roll-up.
                    prop_assert!((child_sum - watts).abs() <= f64::EPSILON * watts.abs());
                    violations += 1;
                }
                _ => {}
            }
        }
        prop_assert!(violations > 0, "caps this low must be violated");
    }
}
