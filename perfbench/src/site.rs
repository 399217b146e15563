//! The two site workloads.
//!
//! `site_monitored`: 25 datacenters × 4 small rows behind 2-row PDUs,
//! budgets monitored only, POLCA on every row, rows stepped on every
//! core with observation off. The lockstep windows and barriers of
//! `SiteSim` dominate; this is the feedback-free path.
//!
//! `site_observed`: the `evaluate --trace-csv … --obs-out` user path.
//! The bundled sample trace is read by the ingest reader and replayed
//! into 3 datacenters × 4 rows × 10 servers (+30 %) under enforced,
//! tight datacenter budgets, with the recorder at `Full`, the watch
//! plane, request tracing and the diurnal energy ledger, and every
//! artifact rendered and written. Obs, watch, energy and ingest do
//! most of the work, and the site layer runs with brake feedback and
//! per-row recorder merges.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use polca::{PolcaController, PolcaPolicy};
use polca_cluster::{Request, RowConfig, SiteConfig, SiteReport, SiteSim};
use polca_ingest::{IngestedTrace, ReplayOptions, TraceReplay};
use polca_obs::{CarbonSignal, EnergyPlan, Event, ObsLevel, ProfCounter, Recorder, ReqTraceConfig};
use polca_sim::{SimRng, SimTime};
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::{ArrivalGenerator, DiurnalPattern, TraceConfig, WorkloadClass};
use polca_watch::{WatchArtifacts, WatchConfig, WatchPlane};

use crate::digest::{row_invariants, row_report, Digest, Op};
use crate::tracer::Tracer;
use crate::{median, Layers, Regime};

/// Row telemetry interval, which is also the site's lockstep window.
const WINDOW_S: f64 = 2.0;

fn polca(recorder: &Recorder) -> PolcaController {
    PolcaController::new(PolcaPolicy::default()).with_recorder(recorder.clone())
}

/// Digest of a whole site run: every row, then the hierarchy peaks,
/// violation counts and brakes.
fn site_digest(d: &mut Digest, report: &SiteReport) {
    for row in &report.rows {
        row_report(d, row);
    }
    for w in report
        .pdu_peak_watts
        .iter()
        .chain(&report.datacenter_peak_watts)
    {
        d.f64(*w);
    }
    d.f64(report.site_peak_watts)
        .u64(report.pdu_violation_samples)
        .u64(report.datacenter_violation_samples)
        .u64(report.site_violation_samples)
        .u64(report.fleet_brake_engagements);
}

fn site_invariants(report: &SiteReport, broken: &mut Vec<String>) {
    for (i, row) in report.rows.iter().enumerate() {
        let mut row_broken = Vec::new();
        row_invariants(row, &mut row_broken);
        broken.extend(row_broken.into_iter().map(|b| format!("row {i}: {b}")));
    }
}

// ---------------------------------------------------------------- monitored

const MON_DATACENTERS: usize = 25;
const MON_ROWS_PER_DC: usize = 4;
const MON_SERVERS: usize = 4;
const MON_HORIZON_S: f64 = 8640.0;
/// Diurnal base rate for the whole site, high enough that nearly every
/// row has an event due in nearly every window.
const MON_BASE_RATE: f64 = 20.0;
/// RNG stream for the monitored site's arrival schedule.
const MON_STREAM: u64 = 0xF1EE;

pub struct SiteMonitored {
    seed: u64,
    arrivals: Vec<Request>,
}

impl SiteMonitored {
    pub fn setup(seed: u64, t: &Tracer) -> Self {
        let pattern = DiurnalPattern {
            base_rate: MON_BASE_RATE,
            ..DiurnalPattern::default()
        };
        let mut rng = SimRng::from_seed_stream(seed, MON_STREAM);
        let config = TraceConfig {
            seed,
            horizon: SimTime::from_secs(MON_HORIZON_S),
            schedule: pattern.schedule(MON_HORIZON_S, 60.0, &mut rng),
            mix: WorkloadClass::table6(),
        };
        let arrivals = t.span("trace", "ArrivalGenerator::collect", || {
            ArrivalGenerator::new(&config).collect()
        });
        SiteMonitored { seed, arrivals }
    }

    pub fn run(&self, threads: usize, recorder: Recorder, t: &Tracer) -> SiteReport {
        let mut site = SiteConfig {
            datacenters: MON_DATACENTERS,
            rows_per_datacenter: MON_ROWS_PER_DC,
            rows_per_pdu: 2,
            threads,
            ..SiteConfig::default()
        };
        site.base.seed = self.seed;
        site.base.record_power_series = false;
        site.base.recorder = recorder;
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = MON_SERVERS;
        let sim = t.span("cluster", "SiteSim::new", || {
            SiteSim::new(
                row,
                site,
                |_, rec| polca(rec),
                self.arrivals.iter().copied(),
                SimTime::from_secs(MON_HORIZON_S),
            )
        });
        t.span("cluster", "SiteSim::run", || sim.run())
    }

    pub fn sim_row_s(&self) -> f64 {
        (MON_DATACENTERS * MON_ROWS_PER_DC) as f64 * MON_HORIZON_S
    }

    pub fn ops(&self, report: &SiteReport) -> Vec<Op> {
        let mut d = Digest::new();
        site_digest(&mut d, report);
        let mut broken = Vec::new();
        site_invariants(report, &mut broken);
        vec![Op {
            label: "site run".into(),
            digest: d.finish(),
            broken,
        }]
    }

    /// Times the same site on one thread and re-runs it instrumented:
    /// both must reproduce `plain` exactly. Row-window occupancy (rows
    /// stepped ÷ windows × rows) must be at least 0.9; parallel
    /// efficiency T₁ ÷ (threads · Tₙ) is printed beside it.
    pub fn regime(
        &self,
        plain: &SiteReport,
        tn: f64,
        threads: usize,
        t: &Tracer,
        m: &mut Layers,
    ) -> (Regime, Vec<Op>) {
        let want = self.ops(plain)[0].digest;
        let mut ops = Vec::new();
        let mut t1s = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let one = self.run(1, Recorder::disabled(), t);
            t1s.push(start.elapsed().as_secs_f64());
            let mut op = self.ops(&one).remove(0);
            op.label = "site run (threads=1)".into();
            if op.digest != want {
                op.broken
                    .push(format!("threads=1 and threads={threads} digests differ"));
            }
            ops.push(op);
        }
        let recorder = Recorder::new(ObsLevel::Full);
        let observed = self.run(threads, recorder.clone(), t);
        let mut op = self.ops(&observed).remove(0);
        op.label = "site run (obs full)".into();
        if op.digest != want {
            op.broken
                .push("ObsLevel::Full changed the simulated outcome".into());
        }
        ops.push(op);
        let snap = recorder.prof().snapshot();
        let windows = snap.counter(ProfCounter::FleetWindows);
        let stepped = snap.counter(ProfCounter::FleetRowWindows);
        let occupancy = stepped as f64 / (windows * observed.rows.len() as u64).max(1) as f64;
        let t1 = median(&t1s);
        let efficiency = t1 / (threads as f64 * tn);
        m.put("site.run_s_threads_1", t1, "s");
        m.put("site.parallel_efficiency", efficiency, "ratio");
        m.put("site.row_window_occupancy", occupancy, "ratio");
        let regime = Regime {
            lines: vec![format!(
                "row-window occupancy {occupancy:.3}, parallel efficiency {efficiency:.3} \
                 (T1 {t1:.4} s, T{threads} {tn:.4} s, {threads} threads)"
            )],
            ok: occupancy >= 0.9,
        };
        (regime, ops)
    }
}

// ---------------------------------------------------------------- observed

/// The bundled request log, relative to the checkout root.
pub const SAMPLE_TRACE: &str = "tests/golden/sample_trace.csv";
const OBS_DATACENTERS: usize = 3;
const OBS_ROWS_PER_DC: usize = 4;
const OBS_SERVERS: usize = 10;
const OBS_ADDED: f64 = 0.30;
/// Datacenter oversubscription: budget = provisioned ÷ (1 + f), tight
/// enough that the brake fires in a small share of windows.
const OBS_DC_OVERSUB: f64 = 0.15;
/// Drain window after the last replayed arrival (as the CLI uses).
const OBS_DRAIN_S: f64 = 1800.0;

/// What a `site_observed` run turns on above the plain site run.
#[derive(Debug, Clone, Copy)]
pub struct Observe {
    pub level: ObsLevel,
    pub watch: bool,
    pub req: bool,
    pub energy: bool,
}

impl Observe {
    /// The user path: everything on.
    pub const ALL: Observe = Observe {
        level: ObsLevel::Full,
        watch: true,
        req: true,
        energy: true,
    };

    pub const fn level(level: ObsLevel) -> Observe {
        Observe {
            level,
            watch: false,
            req: false,
            energy: false,
        }
    }
}

pub struct Observed {
    pub report: SiteReport,
    pub recorder: Recorder,
    pub watch: Vec<WatchArtifacts>,
    pub files: Vec<PathBuf>,
    pub export_s: f64,
}

pub struct SiteObserved {
    seed: u64,
    requests: Vec<Request>,
    rows_parsed: usize,
    horizon: SimTime,
}

impl SiteObserved {
    pub fn setup(seed: u64, t: &Tracer) -> Self {
        let trace = t
            .span("ingest", "IngestedTrace::from_csv_path", || {
                IngestedTrace::from_csv_path(Path::new(SAMPLE_TRACE))
            })
            .unwrap_or_else(|e| panic!("cannot ingest {SAMPLE_TRACE}: {e}"));
        let options = ReplayOptions {
            seed,
            ..ReplayOptions::default()
        };
        let requests: Vec<Request> = t.span("ingest", "TraceReplay::with_options", || {
            TraceReplay::with_options(&trace, options).collect()
        });
        let last = requests.last().map_or(0.0, |r| r.arrival.as_secs());
        SiteObserved {
            seed,
            rows_parsed: trace.len(),
            requests,
            horizon: SimTime::from_secs(last + OBS_DRAIN_S),
        }
    }

    /// Parses the bundled trace again, for the ingest layer metrics.
    pub fn parse(t: &Tracer) -> usize {
        t.span("ingest", "IngestedTrace::from_csv_path", || {
            IngestedTrace::from_csv_path(Path::new(SAMPLE_TRACE))
        })
        .map_or(0, |trace| trace.len())
    }

    fn row(&self) -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = OBS_SERVERS;
        row.with_added_servers(OBS_ADDED)
    }

    pub fn sim_row_s(&self) -> f64 {
        (OBS_DATACENTERS * OBS_ROWS_PER_DC) as f64 * self.horizon.as_secs()
    }

    /// One site run under `obs`; artifacts are written under `out`
    /// when given (site level in `out`, rows in `out/rowN`, each
    /// datacenter's watch report in `out/dcD`).
    pub fn run(&self, threads: usize, obs: Observe, out: Option<&Path>, t: &Tracer) -> Observed {
        let mut recorder = Recorder::new(obs.level);
        if obs.req {
            recorder = recorder.with_req_trace(ReqTraceConfig { sample: 1 });
        }
        if obs.energy {
            recorder = recorder.with_energy(EnergyPlan::new(CarbonSignal::diurnal_default()));
        }
        let n_rows = OBS_DATACENTERS * OBS_ROWS_PER_DC;
        let mut site = SiteConfig {
            datacenters: OBS_DATACENTERS,
            rows_per_datacenter: OBS_ROWS_PER_DC,
            rows_per_pdu: 2,
            enforce_budgets: true,
            datacenter_oversubscription: Some(OBS_DC_OVERSUB),
            threads,
            ..SiteConfig::default()
        };
        site.base.seed = self.seed;
        site.base.record_power_series = false;
        site.base.recorder = recorder.clone();
        let buffer = obs.watch.then(|| {
            let buffer = RowTickBuffer::new(n_rows);
            let mut taps = RowPowerTaps::new();
            taps.subscribe(buffer.clone());
            site.base.oob_taps = taps;
            buffer
        });
        let row = self.row();
        let dc_provisioned = OBS_ROWS_PER_DC as f64 * row.provisioned_watts();
        let sim = t.span("cluster", "SiteSim::new", || {
            SiteSim::new(
                row,
                site,
                |_, rec| polca(rec),
                self.requests.iter().copied(),
                self.horizon,
            )
        });
        let report = t.span("cluster", "SiteSim::run", || sim.run());
        if obs.energy {
            t.span("obs", "Recorder::absorb_energy", || {
                for rec in &report.row_recorders {
                    recorder.absorb_energy(rec);
                }
            });
        }
        let watch = match &buffer {
            Some(buffer) => (0..report.datacenters)
                .map(|d| self.watch_datacenter(buffer, &report, d, dc_provisioned, t))
                .collect(),
            None => Vec::new(),
        };
        let start = Instant::now();
        let files = match out {
            Some(dir) => t.span("obs", "Recorder::write_dir (site, rows, watch)", || {
                write_artifacts(&recorder, &report, &watch, dir)
            }),
            None => Vec::new(),
        };
        Observed {
            report,
            recorder,
            watch,
            files,
            export_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Replays datacenter `d`'s buffered power telemetry, merged in
    /// canonical row order, through its own watch plane.
    fn watch_datacenter(
        &self,
        buffer: &Arc<RowTickBuffer>,
        report: &SiteReport,
        d: usize,
        provisioned: f64,
        t: &Tracer,
    ) -> WatchArtifacts {
        let merged = t.span("telemetry", "merge_tick_columns", || {
            let columns: Vec<_> = report
                .rows_in_datacenter(d)
                .map(|row| buffer.take_row(row))
                .collect();
            merge_tick_columns(&columns)
        });
        t.span("watch", "WatchPlane feed + finalize", || {
            let plane = WatchPlane::new(WatchConfig::new(provisioned));
            let sub = plane.subscriber();
            for tick in &merged {
                sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
            }
            plane.finalize(self.horizon)
        })
    }

    /// Windows in which some budget was violated (and the enforcer
    /// braked), from the site recorder's event log.
    pub fn brake_windows(recorder: &Recorder) -> u64 {
        let mut times: Vec<u64> = recorder
            .artifacts()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::BudgetViolation { t, .. } => Some(t.to_bits()),
                _ => None,
            })
            .collect();
        times.dedup();
        times.len() as u64
    }

    fn windows(&self) -> u64 {
        (self.horizon.as_secs() / WINDOW_S).ceil() as u64
    }

    /// Digest of a full run: the site statistics, the energy ledger,
    /// the watch plane's counts, and the bytes of every deterministic
    /// artifact (wall-clock profiles excluded). Checks request
    /// conservation and that busy energy covers the joules attributed
    /// to requests, row by row.
    pub fn op(&self, run: &Observed, label: &str) -> Op {
        let mut d = Digest::new();
        site_digest(&mut d, &run.report);
        let mut broken = Vec::new();
        site_invariants(&run.report, &mut broken);
        let ledger = run.recorder.artifacts().energy_ledger();
        let site = &ledger.site;
        d.f64(site.it_wh)
            .f64(site.busy_wh)
            .f64(site.facility_wh)
            .f64(site.co2e_g)
            .u64(site.tokens);
        for energy in &ledger.rows {
            let attributed: f64 = run.report.row_recorders[energy.row]
                .artifacts()
                .requests
                .iter()
                .map(|r| r.joules)
                .sum();
            let busy_j = energy.busy_wh * 3600.0;
            if attributed > busy_j * (1.0 + 1e-9) {
                broken.push(format!(
                    "row {}: attributed {attributed:.1} J > busy {busy_j:.1} J",
                    energy.row
                ));
            }
        }
        for w in &run.watch {
            d.u64(w.alerts().len() as u64)
                .u64(w.incidents().len() as u64);
        }
        let mut bytes = 0u64;
        for path in run.files.iter().filter(|p| is_deterministic(p)) {
            match fs::read(path) {
                Ok(body) => {
                    bytes += body.len() as u64;
                    d.bytes(&body);
                }
                Err(e) => broken.push(format!("{}: {e}", path.display())),
            }
        }
        d.u64(bytes);
        Op {
            label: label.into(),
            digest: d.finish(),
            broken,
        }
    }

    /// Share of windows braked must be small but nonzero.
    pub fn regime(&self, run: &Observed) -> Regime {
        let braked = Self::brake_windows(&run.recorder);
        let share = braked as f64 / self.windows() as f64;
        let alerts: usize = run.watch.iter().map(|w| w.alerts().len()).sum();
        Regime {
            lines: vec![format!(
                "braked windows {braked} of {} ({:.2}%), {} brake engagements, \
                 {alerts} watch alerts, {} requests from {} ingested rows",
                self.windows(),
                share * 100.0,
                run.report.fleet_brake_engagements,
                self.requests.len(),
                self.rows_parsed
            )],
            ok: braked > 0 && share <= 0.10,
        }
    }
}

/// Wall-clock profiles differ run to run; everything else is a pure
/// function of the inputs.
fn is_deterministic(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    !matches!(
        name,
        "profile.json" | "prof.json" | "prof.folded" | "prof.trace.json"
    )
}

fn write_artifacts(
    recorder: &Recorder,
    report: &SiteReport,
    watch: &[WatchArtifacts],
    dir: &Path,
) -> Vec<PathBuf> {
    let io = |r: std::io::Result<Vec<PathBuf>>| {
        r.unwrap_or_else(|e| panic!("cannot write artifacts under {}: {e}", dir.display()))
    };
    for rec in &report.row_recorders {
        recorder.absorb_profiling(rec);
    }
    let mut files = io(recorder.write_dir(dir));
    for (i, rec) in report.row_recorders.iter().enumerate() {
        files.extend(io(rec.write_dir(&dir.join(format!("row{i}")))));
    }
    for (d, w) in watch.iter().enumerate() {
        files.extend(io(w.write_dir(&dir.join(format!("dc{d}")))));
    }
    files
}
