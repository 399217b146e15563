//! Command-line interface for the polca toolkit.
//!
//! Six subcommands cover the workflows a capacity engineer needs:
//!
//! * `characterize` — profile one model/request shape on a simulated
//!   A100 group, optionally under a frequency lock or power cap (§4.2),
//! * `trace` — synthesize and summarize a production-shaped power trace
//!   (§6.4), optionally exporting the request stream as Azure-schema
//!   CSV,
//! * `ingest` — read an Azure-2024-style request log, report its
//!   statistics, and fit the generator's diurnal model to it,
//! * `evaluate` — run one policy at one oversubscription level and
//!   report latency/brake/SLO outcomes (§6.5–6.6), on one row or a
//!   multi-datacenter site, or replay an ingested trace through all four
//!   Figure 17 policies (`--trace-csv`),
//! * `plan` — sweep oversubscription levels and report the SLO-safe
//!   maximum (Figure 13's workflow),
//! * `profile` — self-profile the simulator with polca-prof on the
//!   quick-demo study and print the per-component attribution table.
//!
//! Every subcommand's flags live in one table (`flags.rs`): the parser
//! rejects undeclared flags and out-of-range values before anything
//! runs, and the help text is generated from the same table.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use polca::{
    CostModel, DisaggregationConfig, NoCapController, OversubscriptionStudy, PolcaController,
    PolcaPolicy, PolicyKind, ReplayOutcome, SingleThresholdController, TraceEvaluation,
};
use polca_cluster::{
    EngineKind, PowerController, Request, RowConfig, SiteConfig, SiteReport, SiteSim,
};
use polca_gpu::{Gpu, GpuSpec};
use polca_ingest::{
    requests_to_csv, IngestedTrace, ReplayOptions, TraceCalibration, TraceReplay, TraceStats,
};
use polca_llm::{InferenceConfig, InferenceModel, ModelSpec};
use polca_obs::{
    CarbonSignal, CarbonTrace, EnergyPlan, ObsLevel, ProfCounter, Recorder, ReqTraceConfig,
};
use polca_sim::{SimRng, SimTime};
use polca_telemetry::{merge_tick_columns, RowPowerTaps, RowTickBuffer};
use polca_trace::replicate::production_reference;
use polca_trace::{ArrivalGenerator, DiurnalPattern, TraceConfig, WorkloadClass};
use polca_watch::{
    IncidentState, RuleSet, WatchArtifacts, WatchConfig, WatchEnergyConfig, WatchPlane,
};

mod flags;

pub use flags::{help, parse_args, Invocation};

/// Errors surfaced to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag the subcommand does not declare.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag, without the leading `--`.
        flag: String,
    },
    /// A `--flag` had no value.
    MissingValue(String),
    /// A value failed to parse or lies outside the flag's range.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// Unknown model name.
    UnknownModel(String),
    /// Writing observability artifacts failed.
    Io(String),
    /// Reading, calibrating, or replaying a trace CSV failed.
    Ingest(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand; try `polca-cli help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "unknown flag `--{flag}` for `{command}`")
            }
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
            CliError::UnknownModel(m) => write!(f, "unknown model `{m}`; see `tab03_model_zoo`"),
            CliError::Io(e) => write!(f, "cannot write artifacts: {e}"),
            CliError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Resolves a model by (case-insensitive) name.
pub fn find_model(name: &str) -> Result<ModelSpec, CliError> {
    ModelSpec::all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::UnknownModel(name.to_string()))
}

/// Parses `--engine legacy|batched` plus `--split-pools` into the row
/// serving engine. The batched configuration reuses the §5.2
/// disaggregation constants (interconnect bandwidth, token-pool
/// clock) from [`DisaggregationConfig`].
fn parse_engine(inv: &Invocation) -> Result<EngineKind, CliError> {
    let split = inv.has("split-pools");
    match (inv.get::<String>("engine").as_str(), split) {
        ("batched", _) => Ok(DisaggregationConfig::default().batched_engine(split)),
        (_, true) => Err(CliError::BadValue {
            flag: "split-pools".into(),
            value: "requires --engine batched".into(),
        }),
        _ => Ok(EngineKind::Legacy),
    }
}

/// Human-readable tag for the engine in run headers.
fn engine_tag(engine: &EngineKind) -> &'static str {
    match engine {
        EngineKind::Legacy => "legacy",
        EngineKind::Batched(cfg) if cfg.pools.is_split() => "batched/split-pools",
        EngineKind::Batched(_) => "batched",
    }
}

/// Resolves a policy by name.
pub fn find_policy(name: &str) -> Result<PolicyKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "polca" => Ok(PolicyKind::Polca),
        "1t-lp" | "one-thresh-low-pri" => Ok(PolicyKind::OneThreshLowPri),
        "1t-all" | "one-thresh-all" => Ok(PolicyKind::OneThreshAll),
        "nocap" | "no-cap" => Ok(PolicyKind::NoCap),
        other => Err(CliError::BadValue {
            flag: "policy".into(),
            value: other.to_string(),
        }),
    }
}

/// Runs an invocation, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands or malformed values.
pub fn run(inv: &Invocation) -> Result<(), CliError> {
    match inv.command() {
        "help" => {
            print!("{}", help(None));
            Ok(())
        }
        "characterize" => characterize(inv),
        "trace" => trace(inv),
        "ingest" => ingest(inv),
        "evaluate" => evaluate(inv),
        "plan" => plan(inv),
        "profile" => profile(inv),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn characterize(inv: &Invocation) -> Result<(), CliError> {
    let model = find_model(&inv.get::<String>("model"))?;
    let input: u32 = inv.get("input");
    let output: u32 = inv.get("output");
    let batch: u32 = inv.get("batch");
    let lock: Option<f64> = inv.opt("lock");
    let cap: Option<f64> = inv.opt("cap");

    let deployment = InferenceModel::new(model, GpuSpec::a100_80gb())
        .expect("zoo models fit their Table 3 allocations");
    let cfg = InferenceConfig::new(input, output, batch);
    let profile = deployment.profile(&cfg);
    let mut gpu = Gpu::new(GpuSpec::a100_80gb());
    if let Some(mhz) = lock {
        gpu.lock_clock(mhz).map_err(|_| CliError::BadValue {
            flag: "lock".into(),
            value: mhz.to_string(),
        })?;
    }
    if let Some(watts) = cap {
        gpu.set_power_cap(watts).map_err(|_| CliError::BadValue {
            flag: "cap".into(),
            value: watts.to_string(),
        })?;
    }
    let series = deployment.power_series(&cfg, 1, &mut gpu, 0.05);
    let tdp = gpu.spec().tdp_watts;
    println!(
        "{} on {} × {}:",
        deployment.model().name,
        deployment.n_gpus(),
        gpu.spec().name
    );
    println!(
        "  prompt {:>6.2}s at {:.2}/TDP | token {:>7.2}s at {:.2}/TDP",
        profile.prompt.duration_s,
        gpu.power_at(profile.prompt.intensity) / tdp,
        profile.token.duration_s,
        gpu.power_at(profile.token.intensity) / tdp
    );
    println!(
        "  run {:.1}s  peak {:.2}/TDP  mean {:.2}/TDP",
        series.times().last().unwrap_or(&0.0),
        series.peak().unwrap_or(0.0) / tdp,
        series.mean().unwrap_or(0.0) / tdp
    );
    Ok(())
}

fn trace(inv: &Invocation) -> Result<(), CliError> {
    let days: f64 = inv.get("days");
    let seed: u64 = inv.get("seed");
    if let Some(path) = inv.opt::<String>("csv-out") {
        return trace_csv_out(inv, &path, days, seed);
    }
    let row = RowConfig::paper_inference_row();
    let profile = production_reference(&row, days, 2.0, seed);
    let provisioned = row.provisioned_watts();
    println!("production-shaped trace, {days} day(s), seed {seed}:");
    println!(
        "  peak {:.1}%  mean {:.1}%  trough {:.1}% of {:.0} kW provisioned",
        profile.peak().unwrap() / provisioned * 100.0,
        profile.mean().unwrap() / provisioned * 100.0,
        profile.trough().unwrap() / provisioned * 100.0,
        provisioned / 1000.0
    );
    println!(
        "  max rise in 2s {:.1}%, in 40s {:.1}%",
        profile.max_rise_within(2.0).unwrap() / provisioned * 100.0,
        profile.max_rise_within(40.0).unwrap() / provisioned * 100.0
    );
    Ok(())
}

/// RNG stream for the `trace --csv-out` schedule synthesis; fixed so a
/// given seed always exports the same CSV (this is how the bundled
/// `tests/golden/sample_trace.csv` was produced).
const CSV_OUT_STREAM: u64 = 0xC5F0;

fn trace_csv_out(inv: &Invocation, path: &str, days: f64, seed: u64) -> Result<(), CliError> {
    let pattern = DiurnalPattern {
        base_rate: inv.get("rate"),
        daily_amplitude: inv.get("amplitude"),
        peak_hour: inv.get("peak-hour"),
        short_term_noise: inv.get("noise"),
        bursts_per_day: inv.get("bursts-per-day"),
        ..DiurnalPattern::default()
    };
    let horizon = SimTime::from_days(days);
    let mut rng = SimRng::from_seed_stream(seed, CSV_OUT_STREAM);
    let config = TraceConfig {
        seed,
        horizon,
        schedule: pattern.schedule(horizon.as_secs(), 60.0, &mut rng),
        mix: WorkloadClass::table6(),
    };
    let requests: Vec<_> = ArrivalGenerator::new(&config).collect();
    let csv = requests_to_csv(&requests);
    std::fs::write(path, &csv).map_err(|e| CliError::Io(e.to_string()))?;
    println!(
        "wrote {} requests over {days} day(s) (seed {seed}, base rate {:.2} req/s) to {path}",
        requests.len(),
        pattern.base_rate
    );
    Ok(())
}

fn ingest(inv: &Invocation) -> Result<(), CliError> {
    let path = inv
        .positionals()
        .first()
        .cloned()
        .or_else(|| inv.opt("csv"))
        .ok_or_else(|| CliError::Ingest("usage: polca-cli ingest <trace.csv>".into()))?;
    let seed: u64 = inv.get("seed");
    let days: f64 = inv.get("extrapolate-days");
    let trace = IngestedTrace::from_csv_path(Path::new(&path))
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    println!("ingested {path}:");
    if trace.skipped_rows() > 0 {
        println!(
            "  skipped {} malformed row(s); first: {}",
            trace.skipped_rows(),
            trace
                .row_errors()
                .first()
                .map(String::as_str)
                .unwrap_or("?")
        );
    }
    let stats = TraceStats::from_trace(&trace).map_err(|e| CliError::Ingest(e.to_string()))?;
    print!("{}", stats.report());
    let calibration = TraceCalibration::fit_with_stats(&trace, &stats)
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    print!("{}", calibration.report());
    let config = calibration.trace_config(seed, SimTime::from_days(days));
    println!(
        "  extrapolated schedule: {days:.1} day(s), mean {:.3} req/s, max {:.3} req/s",
        config.schedule.mean_rate(),
        config.schedule.max_rate()
    );
    Ok(())
}

/// Parses `--req-trace` / `--req-sample N` into the polca-req
/// configuration. `--req-sample` alone implies tracing; the stride is
/// floored at 1 so `--req-sample 0` means "keep everything".
fn parse_req_trace(inv: &Invocation) -> Option<ReqTraceConfig> {
    let sample: Option<u64> = inv.opt("req-sample");
    if !inv.has("req-trace") && sample.is_none() {
        return None;
    }
    Some(ReqTraceConfig {
        sample: sample.unwrap_or(1).max(1),
    })
}

/// Parses `--carbon-trace CSV | --carbon-diurnal [--pue X[,Y,…]]` into
/// the polca-energy plan. `--pue` alone implies the built-in diurnal
/// grid signal (like `--req-sample` implies `--req-trace`); a
/// comma-separated `--pue` list sets per-datacenter PUEs, clamped to
/// the last entry for higher datacenter indices.
fn parse_energy(inv: &Invocation) -> Result<Option<EnergyPlan>, CliError> {
    let trace_path: Option<String> = inv.opt("carbon-trace");
    let diurnal = inv.has("carbon-diurnal");
    let pue_raw: Option<String> = inv.opt("pue");
    if trace_path.is_none() && !diurnal && pue_raw.is_none() {
        return Ok(None);
    }
    let signal = match trace_path {
        Some(path) => {
            if diurnal {
                return Err(CliError::BadValue {
                    flag: "carbon-diurnal".into(),
                    value: "conflicts with --carbon-trace".into(),
                });
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let trace = CarbonTrace::from_csv_str(&text).map_err(|e| CliError::BadValue {
                flag: "carbon-trace".into(),
                value: e.to_string(),
            })?;
            CarbonSignal::Trace(trace)
        }
        None => CarbonSignal::diurnal_default(),
    };
    let mut plan = EnergyPlan::new(signal);
    if let Some(raw) = pue_raw {
        let valid = |p: &str| {
            p.trim()
                .parse()
                .ok()
                .filter(|p: &f64| p.is_finite() && *p >= 1.0)
        };
        let pue: Option<Vec<f64>> = raw.split(',').map(valid).collect();
        let pue = pue.ok_or(CliError::BadValue {
            flag: "pue".into(),
            value: raw,
        })?;
        plan = plan.with_pue(&pue);
    }
    Ok(Some(plan))
}

/// Prints the per-datacenter energy/carbon ledger table for a finished
/// run, if an energy plan was attached and produced any rows.
fn print_energy_summary(recorder: &Recorder, completed: u64, indent: &str) {
    let ledger = recorder.artifacts().energy_ledger();
    if ledger.is_empty() {
        return;
    }
    println!(
        "{indent}energy ledger (grid mean {:.0} gCO2e/kWh):",
        ledger.mean_g_per_kwh()
    );
    println!(
        "{indent}  {:<6} {:>5} {:>10} {:>12} {:>10} {:>10}",
        "dc", "pue", "IT Wh", "facility Wh", "gCO2e", "rows"
    );
    for &(dc, ref level, pue) in &ledger.datacenters {
        let rows = ledger.rows.iter().filter(|r| r.dc == dc).count();
        println!(
            "{indent}  {:<6} {:>5.2} {:>10.1} {:>12.1} {:>10.1} {:>10}",
            dc, pue, level.it_wh, level.facility_wh, level.co2e_g, rows
        );
    }
    let site = &ledger.site;
    println!(
        "{indent}  site: {:.1} IT Wh ({:.1} busy), {:.1} facility Wh, {:.1} gCO2e",
        site.it_wh, site.busy_wh, site.facility_wh, site.co2e_g
    );
    if site.tokens > 0 {
        println!(
            "{indent}  per token: {:.2} J (busy {:.2} J), {:.4} gCO2e over {} token(s)",
            site.joules_per_token(),
            site.busy_wh * 3600.0 / site.tokens as f64,
            site.co2e_g_per_token(),
            site.tokens
        );
    }
    if completed > 0 {
        println!(
            "{indent}  per request: {:.2} Wh facility (measured, supersedes the \
             utilization-model estimate) over {completed} completed",
            // A non-empty ledger always yields the measured value, so
            // the estimator inputs (utilization, row, days) go unused.
            CostModel::default()
                .energy_per_request_wh(
                    Some(&ledger),
                    0.0,
                    completed,
                    &RowConfig::paper_inference_row(),
                    0.0
                )
                .unwrap_or(0.0)
        );
    }
}

/// One-line digest of a finished req-trace run.
fn print_req_summary(recorder: &Recorder, indent: &str) {
    let run = recorder.artifacts();
    if !run.req_trace {
        return;
    }
    let n = run.requests.len();
    if n == 0 {
        println!("{indent}req-trace: 0 request record(s) sampled");
        return;
    }
    let joules: f64 = run.requests.iter().map(|r| r.joules).sum();
    let tokens: f64 = run
        .requests
        .iter()
        .map(|r| f64::from(r.output_tokens.max(1)))
        .sum();
    println!(
        "{indent}req-trace: {n} request record(s) sampled, \
         {:.1} J/request, {:.2} J/token (busy power, sampled set)",
        joules / n as f64,
        joules / tokens
    );
}

/// Builds the watch plane when `--watch` was given, loading
/// `--watch-rules` if present. When an energy plan is active and a
/// carbon threshold (`--carbon-budget` gCO2e/h or `--carbon-per-token`
/// gCO2e) was supplied, the built-in carbon rules ride along on the
/// same delayed OOB feed.
fn build_watch_plane(
    inv: &Invocation,
    provisioned_watts: f64,
    energy: Option<&EnergyPlan>,
) -> Result<Option<WatchPlane>, CliError> {
    if !inv.has("watch") {
        return Ok(None);
    }
    let mut cfg = WatchConfig::new(provisioned_watts);
    if let Some(path) = inv.opt::<String>("watch-rules") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        cfg.rules = RuleSet::parse(&text).map_err(|e| CliError::BadValue {
            flag: "watch-rules".into(),
            value: e.to_string(),
        })?;
    }
    if let Some(plan) = energy {
        let budget: Option<f64> = inv.opt("carbon-budget");
        let per_token: Option<f64> = inv.opt("carbon-per-token");
        if budget.is_some() || per_token.is_some() {
            cfg = cfg.with_energy(WatchEnergyConfig {
                signal: plan.signal.clone(),
                pue: plan.pue_for_dc(),
                budget_g_per_h: budget.unwrap_or(f64::INFINITY),
                co2e_per_token_g: per_token.unwrap_or(f64::INFINITY),
                window_s: 600.0,
            });
        }
    }
    Ok(Some(WatchPlane::new(cfg)))
}

/// One-line digest of a finished watch run, plus a line per incident.
fn print_watch_summary(artifacts: &WatchArtifacts, indent: &str) {
    let unresolved = artifacts
        .incidents()
        .iter()
        .filter(|i| i.state != IncidentState::Resolved)
        .count();
    println!(
        "{indent}watch: {} alert(s), {} incident(s) ({unresolved} unresolved at end of run)",
        artifacts.alerts().len(),
        artifacts.incidents().len(),
    );
    for inc in artifacts.incidents() {
        let lag = match inc.detection_lag_s {
            Some(lag) => format!("{lag:.1}s detection lag"),
            None => "onset unknown".to_string(),
        };
        println!(
            "{indent}  #{} {} [{}] {} — {lag}",
            inc.id,
            inc.rule,
            inc.severity,
            inc.state.tag(),
        );
    }
}

/// Writes `incidents.jsonl` + `report.md` into `dir` and re-renders
/// `trace.json` with the watch plane's alert/incident instant markers.
fn write_watch_artifacts(
    recorder: &Recorder,
    artifacts: &WatchArtifacts,
    dir: &str,
) -> Result<(), CliError> {
    let dir_path = Path::new(dir);
    let files = artifacts
        .write_dir(dir_path)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let run = recorder.artifacts();
    let annotated = run.level.events_enabled();
    if annotated {
        std::fs::write(
            dir_path.join("trace.json"),
            run.chrome_trace_json_with(&artifacts.annotations()),
        )
        .map_err(|e| CliError::Io(e.to_string()))?;
    }
    println!(
        "  watch artifacts: {} file(s) in {}/{}",
        files.len(),
        dir.trim_end_matches('/'),
        if annotated {
            " (alert markers merged into trace.json)"
        } else {
            ""
        }
    );
    Ok(())
}

/// The per-row policy controller for the fleet paths, mirroring the
/// Figure 17 panel construction.
fn fleet_controller(
    kind: PolicyKind,
    policy: &PolcaPolicy,
    obs: &Recorder,
) -> Box<dyn PowerController> {
    match kind {
        PolicyKind::Polca => {
            Box::new(PolcaController::new(policy.clone()).with_recorder(obs.clone()))
        }
        PolicyKind::OneThreshLowPri => Box::new(
            SingleThresholdController::low_priority_only(policy.clone()).with_recorder(obs.clone()),
        ),
        PolicyKind::OneThreshAll => Box::new(
            SingleThresholdController::all_workloads(policy.clone()).with_recorder(obs.clone()),
        ),
        PolicyKind::NoCap => {
            Box::new(NoCapController::new(policy.clone()).with_recorder(obs.clone()))
        }
    }
}

/// Builds the site shape, budgets, and threading from the site flags
/// (the caller fills `base`). `--fleet-threads 0` means "all cores".
fn site_config(inv: &Invocation, rows: usize, datacenters: usize) -> SiteConfig {
    let threads: usize = inv.get("fleet-threads");
    let site = SiteConfig {
        datacenters,
        rows_per_datacenter: rows,
        rows_per_pdu: inv.get("rows-per-pdu"),
        enforce_budgets: inv.has("enforce-budgets"),
        threads: if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        },
        site_budget_watts: inv.opt("site-budget-mw").map(|mw: f64| mw * 1e6),
        datacenter_oversubscription: inv.opt("oversub-dc").map(|pct: f64| pct / 100.0),
        site_oversubscription: inv.opt("oversub-site").map(|pct: f64| pct / 100.0),
        ..SiteConfig::default()
    };
    let site_aware = [
        "datacenters",
        "fleet-threads",
        "site-budget-mw",
        "oversub-dc",
        "oversub-site",
    ]
    .iter()
    .any(|f| inv.has(f));
    if rows > 1 && datacenters == 1 && !site_aware {
        println!(
            "note: --rows now sizes one datacenter, not the whole hierarchy; \
             defaulting to a 1-datacenter site (add --datacenters N to scale out)"
        );
    }
    site
}

/// Prints the site table: one line per row, an aggregate line, the
/// PDU budget summary, and one line per datacenter (plus the site
/// line when the site level is active).
fn print_site_table(report: &SiteReport, site_active: bool) {
    println!(
        "  {:<6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "row", "offered", "completed", "rejected", "peak kW", "mean kW", "brakes"
    );
    for (i, r) in report.rows.iter().enumerate() {
        println!(
            "  {:<6} {:>8} {:>10} {:>9} {:>9.1} {:>9.1} {:>7}",
            i,
            r.offered,
            r.completed,
            r.rejected,
            r.peak_row_watts / 1000.0,
            r.mean_row_watts / 1000.0,
            r.brake_engagements
        );
    }
    println!(
        "  {:<6} {:>8} {:>10} {:>9} {:>9.1} {:>9.1} {:>7}",
        "fleet",
        report.offered(),
        report.completed(),
        report.rejected(),
        report.site_peak_watts / 1000.0,
        report.mean_site_watts() / 1000.0,
        report.fleet_brake_engagements
    );
    for (pdu, (&peak, &budget)) in report
        .pdu_peak_watts
        .iter()
        .zip(&report.pdu_budget_watts)
        .enumerate()
    {
        println!(
            "  PDU {pdu}: peak {:.1} kW / budget {:.1} kW",
            peak / 1000.0,
            budget / 1000.0
        );
    }
    if report.datacenters == 1 {
        println!(
            "  datacenter: peak {:.1} kW / budget {:.1} kW (util {:.1}%), \
             {} PDU / {} datacenter violation sample(s)",
            report.datacenter_peak_watts[0] / 1000.0,
            report.datacenter_budget_watts / 1000.0,
            report.datacenter_peak_utilization(0) * 100.0,
            report.pdu_violation_samples,
            report.datacenter_violation_samples
        );
    } else {
        for d in 0..report.datacenters {
            println!(
                "  datacenter {d}: peak {:.1} kW / budget {:.1} kW (util {:.1}%)",
                report.datacenter_peak_watts[d] / 1000.0,
                report.datacenter_budget_watts / 1000.0,
                report.datacenter_peak_utilization(d) * 100.0
            );
        }
    }
    if site_active {
        println!(
            "  site: peak {:.2} MW / budget {:.2} MW (util {:.1}%), \
             {} PDU / {} datacenter / {} site violation sample(s)",
            report.site_peak_watts / 1e6,
            report.site_budget_watts / 1e6,
            report.site_peak_utilization() * 100.0,
            report.pdu_violation_samples,
            report.datacenter_violation_samples,
            report.site_violation_samples
        );
    }
}

/// The observability set-up of one `evaluate` run, resolved once for
/// every shape.
struct Obs {
    /// The `--obs-out` directory.
    out: Option<String>,
    /// The recorder level after the per-shape escalations.
    level: ObsLevel,
    /// The polca-energy plan, when a ledger is attached.
    energy: Option<EnergyPlan>,
    /// The run recorder.
    recorder: Recorder,
}

impl Obs {
    /// Resolves `--obs-out`/`--obs-level` (`--obs-out` alone means
    /// full), then raises the level to what the attached planes need:
    /// polca-req and the watch plane's count rules and burn tracker
    /// ride the event stream, the energy ledger records through the
    /// metrics gate, and polca-prof accumulators exist only at the full
    /// level. Site watch planes replay buffered power only, so `--watch`
    /// leaves the synthetic site shape's level alone; the replay site
    /// shape is raised all the same, as it always was, which keeps its
    /// artifacts unchanged. `--profile` raises only the single-row
    /// synthetic shape, the one that prints the attribution table.
    fn resolve(inv: &Invocation, synthetic: bool, site: bool) -> Result<Obs, CliError> {
        let out: Option<String> = inv.opt("obs-out");
        let mut level = match inv.opt::<String>("obs-level") {
            Some(name) => name.parse().expect("the table lists the ObsLevel names"),
            None if out.is_some() => ObsLevel::Full,
            None => ObsLevel::Off,
        };
        let req = parse_req_trace(inv);
        let energy = parse_energy(inv)?;
        if req.is_some() || (inv.has("watch") && !(synthetic && site)) {
            level = level.max(ObsLevel::Events);
        }
        if energy.is_some() {
            level = level.max(ObsLevel::Metrics);
        }
        if inv.has("profile") && synthetic && !site {
            level = level.max(ObsLevel::Full);
        }
        let mut recorder = Recorder::new(level);
        if let Some(cfg) = req {
            recorder = recorder.with_req_trace(cfg);
        }
        if let Some(plan) = &energy {
            recorder = recorder.with_energy(plan.clone());
        }
        Ok(Obs {
            out,
            level,
            energy,
            recorder,
        })
    }

    /// Writes the recorder's artifacts into `--obs-out`, if given. A
    /// site run also writes each row's artifacts into `DIR/rowN/`
    /// (global row index, flat across datacenters), and the site-level
    /// `prof.json` aggregates every row's profile (plus the window
    /// loop's own merge and power-aggregation phases) so one file
    /// answers "where did the whole site run spend its time".
    fn write(&self, site: Option<&SiteReport>) -> Result<(), CliError> {
        let Some(dir) = &self.out else {
            return Ok(());
        };
        let rows = site.map_or(&[][..], |report| &report.row_recorders[..]);
        for rec in rows {
            self.recorder.absorb_profiling(rec);
        }
        let mut total = self
            .recorder
            .write_dir(Path::new(dir))
            .map_err(|e| CliError::Io(e.to_string()))?
            .len();
        for (i, rec) in rows.iter().enumerate() {
            total += rec
                .write_dir(&Path::new(dir).join(format!("row{i}")))
                .map_err(|e| CliError::Io(e.to_string()))?
                .len();
        }
        let row_dirs =
            site.map(|report| format!(" (site level) and row0..row{}/", report.rows.len() - 1));
        println!(
            "  obs artifacts ({}): {total} file(s) in {}/{}",
            self.level,
            dir.trim_end_matches('/'),
            row_dirs.unwrap_or_default()
        );
        Ok(())
    }
}

/// The `--policy` of a one-policy run (POLCA when absent).
fn policy(inv: &Invocation) -> Result<PolicyKind, CliError> {
    inv.opt::<String>("policy")
        .map_or(Ok(PolicyKind::Polca), |name| find_policy(&name))
}

/// `evaluate` has four shapes: the synthetic workload or a `--trace-csv`
/// replay, each on one row or on a site (`--rows`/`--datacenters`).
fn evaluate(inv: &Invocation) -> Result<(), CliError> {
    let rows: usize = inv.get("rows");
    let datacenters: usize = inv.get("datacenters");
    let site = (rows > 1 || datacenters > 1).then(|| site_config(inv, rows, datacenters));
    let replay: Option<String> = inv.opt("trace-csv");
    let obs = Obs::resolve(inv, replay.is_none(), site.is_some())?;
    match (replay, site) {
        (None, None) => evaluate_row(inv, obs),
        (None, Some(site)) => evaluate_site(inv, obs, site),
        (Some(path), site) => evaluate_trace(inv, obs, &path, site),
    }
}

/// The single-row synthetic shape: the oversubscription study under
/// one policy.
fn evaluate_row(inv: &Invocation, obs: Obs) -> Result<(), CliError> {
    let kind = policy(inv)?;
    let added: f64 = inv.get("added");
    let days: f64 = inv.get("days");
    let power_scale: f64 = inv.get("power-scale");
    let recorder = &obs.recorder;
    let mut study = OversubscriptionStudy::new(
        RowConfig::paper_inference_row(),
        PolcaPolicy::default(),
        days,
        inv.get("seed"),
    );
    study.set_record_power(false);
    study.set_recorder(recorder.clone());
    let engine = parse_engine(inv)?;
    study.set_engine(engine.clone());
    let watch = build_watch_plane(inv, study.row().provisioned_watts(), obs.energy.as_ref())?;
    if let Some(plane) = &watch {
        let mut taps = RowPowerTaps::new();
        plane.attach(&mut taps, recorder);
        study.set_oob_taps(taps);
    }
    let run_start = Instant::now();
    let o = study.run(kind, added / 100.0, power_scale);
    let run_wall_ns = run_start.elapsed().as_nanos() as u64;
    println!(
        "{} at +{added:.0}% servers, power×{power_scale}, {days} day(s), engine {}:",
        kind.name(),
        engine_tag(&engine)
    );
    println!(
        "  normalized latency  LP p50 {:.3} p99 {:.3} | HP p50 {:.3} p99 {:.3}",
        o.low_normalized.p50, o.low_normalized.p99, o.high_normalized.p50, o.high_normalized.p99
    );
    println!(
        "  peak util {:.1}%  brakes {}  SLO {}",
        o.peak_utilization * 100.0,
        o.brake_engagements,
        if o.slo.met { "met" } else { "MISSED" }
    );
    let cost = CostModel::default();
    let value = cost.oversubscription_value(study.row(), added / 100.0);
    println!(
        "  capacity value: {} extra servers ≈ ${:.2}M of avoided datacenter build-out",
        value.extra_servers,
        value.avoided_capex_usd / 1e6
    );
    print_req_summary(recorder, "  ");
    print_energy_summary(recorder, o.counts.1, "  ");
    if inv.has("profile") {
        // Snapshot before artifact I/O so the table accounts against
        // the run's wall time only.
        let snap = recorder.prof().snapshot();
        println!("  self-profile (polca-prof):");
        for line in snap.attribution_table(run_wall_ns).lines() {
            println!("    {line}");
        }
    }
    obs.write(None)?;
    if let Some(plane) = &watch {
        recorder.clear_tap();
        let artifacts = plane.finalize(SimTime::from_days(days));
        print_watch_summary(&artifacts, "  ");
        if let Some(dir) = &obs.out {
            write_watch_artifacts(recorder, &artifacts, dir)?;
        }
    }
    Ok(())
}

/// The synthetic site shape: the production-shaped workload,
/// dispatched round-robin across all rows.
fn evaluate_site(inv: &Invocation, obs: Obs, site: SiteConfig) -> Result<(), CliError> {
    let added: f64 = inv.get("added");
    let days: f64 = inv.get("days");
    let seed: u64 = inv.get("seed");
    let (rows, datacenters) = (site.rows_per_datacenter, site.datacenters);
    // The site serves the same production-shaped workload as the
    // single-row study, scaled so each of the rows sees the
    // oversubscribed per-row offered load after round-robin dispatch.
    let base_row = RowConfig::paper_inference_row();
    let study = OversubscriptionStudy::new(base_row.clone(), PolcaPolicy::default(), days, seed);
    let horizon = SimTime::from_days(days);
    let config = TraceConfig {
        seed,
        horizon,
        schedule: study
            .base_schedule()
            .scaled((1.0 + added / 100.0) * (rows * datacenters) as f64),
        mix: WorkloadClass::table6(),
    };
    run_site(
        inv,
        &obs,
        site,
        base_row.with_added_servers(added / 100.0),
        ArrivalGenerator::new(&config),
        horizon,
        |pdus, engine| {
            let scope = if datacenters > 1 {
                format!("site: {datacenters} datacenters × {rows} rows")
            } else {
                format!("fleet: {rows} rows")
            };
            format!(
                "{scope} (+{added:.0}% servers each), {pdus} PDU(s), {days} day(s), engine {engine}"
            )
        },
    )
}

/// The one site run behind both site shapes, which differ only in the
/// request source, the row, the horizon and the header line (`header`
/// gets the PDU count and the engine tag).
fn run_site(
    inv: &Invocation,
    obs: &Obs,
    mut site: SiteConfig,
    row: RowConfig,
    requests: impl Iterator<Item = Request>,
    horizon: SimTime,
    header: impl FnOnce(usize, &str) -> String,
) -> Result<(), CliError> {
    let kind = policy(inv)?;
    let engine = parse_engine(inv)?;
    let rows = site.rows_per_datacenter;
    site.base.seed = inv.get("seed");
    site.base.power_scale = inv.get("power-scale");
    site.base.record_power_series = false;
    site.base.recorder = obs.recorder.clone();
    site.base.engine = engine.clone();
    let watch_buffer = inv.has("watch").then(|| {
        let buffer = RowTickBuffer::new(rows * site.datacenters);
        site.base.oob_taps.subscribe(buffer.clone());
        buffer
    });
    let site_active = site.site_active();
    let budgets = if site.enforce_budgets {
        "enforced"
    } else {
        "monitored"
    };
    let policy = PolcaPolicy::default();
    let controller = |_, rec: &Recorder| fleet_controller(kind, &policy, rec);
    let report = SiteSim::new(row.clone(), site, controller, requests, horizon).run();
    println!(
        "{} {}, budgets {budgets}:",
        kind.name(),
        header(report.pdu_budget_watts.len(), engine_tag(&engine))
    );
    print_site_table(&report, site_active);
    if obs.energy.is_some() {
        // Row energy accounts live in the row-private recorders; merge
        // them into the site recorder in canonical row order so the
        // site-level ledger (table, energy.json) covers the fleet.
        for rec in &report.row_recorders {
            obs.recorder.absorb_energy(rec);
        }
        print_energy_summary(&obs.recorder, report.completed(), "  ");
    }
    obs.write(Some(&report))?;
    // Each datacenter's buffered, canonically-merged OOB power stream
    // replays through its own watch plane, in global row order within
    // the datacenter, so the incident set is byte-identical whatever
    // `--fleet-threads` was. Site watch planes ride the power telemetry
    // only: row event logs are per-recorder and would interleave across
    // datacenters.
    let Some(buffer) = watch_buffer else {
        return Ok(());
    };
    let dc_watts = rows as f64 * row.provisioned_watts();
    for d in 0..report.datacenters {
        let columns: Vec<_> = report
            .rows_in_datacenter(d)
            .map(|row| buffer.take_row(row))
            .collect();
        let plane = build_watch_plane(inv, dc_watts, obs.energy.as_ref())?.expect("--watch given");
        let sub = plane.subscriber();
        for tick in &merge_tick_columns(&columns) {
            sub.on_tick(tick.t, tick.truth_watts, tick.observed_watts);
        }
        let artifacts = plane.finalize(horizon);
        println!("  datacenter {d}:");
        print_watch_summary(&artifacts, "    ");
        if let Some(dir) = &obs.out {
            let files = artifacts
                .write_dir(&Path::new(dir).join(format!("dc{d}")))
                .map_err(|e| CliError::Io(e.to_string()))?;
            println!(
                "    watch artifacts: {} file(s) in {}/dc{d}/",
                files.len(),
                dir.trim_end_matches('/')
            );
        }
    }
    Ok(())
}

/// Drain window appended after the last replayed arrival in the site
/// replay shape, matching `TraceEvaluation`'s horizon rule.
const FLEET_DRAIN_S: f64 = 1800.0;

/// The `--trace-csv` shapes: the ingested stream replayed through the
/// Figure 17 panel on one row, or fanned out across a site under one
/// policy.
fn evaluate_trace(
    inv: &Invocation,
    obs: Obs,
    path: &str,
    site: Option<SiteConfig>,
) -> Result<(), CliError> {
    let seed: u64 = inv.get("seed");
    let rate_scale: f64 = inv.get("rate-scale");
    let time_scale: f64 = inv.get("time-scale");
    let added: f64 = inv.get("added");
    let power_scale: f64 = inv.get("power-scale");
    if site.is_none() && power_scale != 1.0 {
        // `TraceEvaluation` has no power scale: every panel cell runs
        // at the row's nominal power.
        return Err(CliError::BadValue {
            flag: "power-scale".into(),
            value: power_scale.to_string(),
        });
    }
    let recorder = &obs.recorder;
    let trace = IngestedTrace::from_csv_path_observed(Path::new(path), recorder)
        .map_err(|e| CliError::Ingest(e.to_string()))?;
    let replay = TraceReplay::with_options(
        &trace,
        ReplayOptions {
            time_scale,
            rate_scale,
            seed,
        },
    );
    let requests: Vec<_> = replay.collect();
    let n = requests.len();
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = inv.get("servers");
    let row = row.with_added_servers(added / 100.0);
    let deployed = row.total_servers();
    let hours = trace.duration_s() * time_scale / 3600.0;

    if let Some(site) = site {
        let total_rows = site.rows_per_datacenter * site.datacenters;
        let last_arrival = requests.last().map(|r| r.arrival.as_secs()).unwrap_or(0.0);
        println!(
            "replaying {path} across {total_rows} rows: {n} requests over {hours:.1} h on \
             {deployed} servers/row (+{added:.0}% oversubscribed, rate ×{rate_scale}, \
             time ×{time_scale})"
        );
        return run_site(
            inv,
            &obs,
            site,
            row,
            requests.into_iter(),
            SimTime::from_secs(last_arrival + FLEET_DRAIN_S),
            |pdus, _| format!("fleet: {pdus} PDU(s)"),
        );
    }

    let provisioned = row.provisioned_watts();
    let engine = parse_engine(inv)?;
    let mut eval = TraceEvaluation::new(row, PolcaPolicy::default(), requests, seed);
    eval.set_recorder(recorder.clone());
    eval.set_engine(engine.clone());
    println!(
        "replaying {path}: {n} requests over {hours:.1} h on {deployed} servers \
         (+{added:.0}% oversubscribed, rate ×{rate_scale}, time ×{time_scale}, engine {})",
        engine_tag(&engine)
    );
    let kinds: Vec<PolicyKind> = match inv.opt::<String>("policy") {
        Some(name) => vec![find_policy(&name)?],
        None => PolicyKind::all().to_vec(),
    };
    println!(
        "  {:<18} {:>8} {:>8} {:>10} {:>7}",
        "policy", "LP p99", "HP p99", "peak util", "brakes"
    );
    let print_row = |o: &ReplayOutcome| {
        println!(
            "  {:<18} {:>8.3} {:>8.3} {:>9.1}% {:>7}",
            o.kind.name(),
            o.low_normalized.p99,
            o.high_normalized.p99,
            o.peak_utilization * 100.0,
            o.brake_engagements
        )
    };
    let jobs: usize = inv.get("jobs");
    let watch_on = inv.has("watch");
    let mut first_watch: Option<(PolicyKind, WatchArtifacts)> = None;
    if !watch_on && kinds.len() > 1 {
        // Full Figure 17 panel with no watch plane: every cell is
        // pure, so run them on `--jobs` worker threads. Outcomes and
        // per-cell recorders come back in canonical panel order, so
        // the table and the absorbed artifacts are byte-identical to
        // a sequential run whatever `jobs` is.
        eval.run_all(jobs).iter().for_each(print_row);
    } else {
        if jobs > 1 {
            println!("  note: --watch and single-policy runs are sequential; ignoring --jobs");
        }
        // Each policy run gets its own watch plane: the replay clock
        // restarts per run, and a shared engine would see time jump
        // backwards. The obs-out incident artifacts come from the
        // first policy's plane (POLCA when running the full
        // comparison).
        for kind in kinds {
            let watch = build_watch_plane(inv, provisioned, obs.energy.as_ref())?;
            if let Some(plane) = &watch {
                let mut taps = RowPowerTaps::new();
                plane.attach(&mut taps, recorder);
                eval.set_oob_taps(taps);
            }
            print_row(&eval.run(kind));
            if let Some(plane) = watch {
                recorder.clear_tap();
                let artifacts = plane.finalize(eval.horizon());
                print_watch_summary(&artifacts, "    ");
                if first_watch.is_none() {
                    first_watch = Some((kind, artifacts));
                }
            }
        }
    }
    print_req_summary(recorder, "  ");
    // On the multi-policy panel the ledger aggregates every cell (each
    // run contributes one row-0 account, merged in canonical order).
    print_energy_summary(recorder, 0, "  ");
    obs.write(None)?;
    if let (Some(dir), Some((kind, artifacts))) = (&obs.out, &first_watch) {
        println!("  watch artifacts below are from the {} run", kind.name());
        write_watch_artifacts(recorder, artifacts, dir)?;
    }
    Ok(())
}

fn plan(inv: &Invocation) -> Result<(), CliError> {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = inv.get("servers");
    let mut study = OversubscriptionStudy::new(
        row,
        PolcaPolicy::default(),
        inv.get("days"),
        inv.get("seed"),
    );
    study.set_record_power(false);
    let trainer = study.trained_thresholds();
    study.set_policy(trainer.train());
    println!(
        "trained thresholds: T1 {:.0}% T2 {:.0}% (40s spike {:.1}%)",
        trainer.t1() * 100.0,
        trainer.t2() * 100.0,
        trainer.max_spike_40s_frac * 100.0
    );
    // The sweep runner executes the levels on `--jobs` worker threads
    // and hands back outcomes in level order, so the printed table is
    // byte-identical whatever `jobs` is.
    const LEVELS: [u32; 7] = [0, 10, 20, 25, 30, 35, 40];
    let cells: Vec<(PolicyKind, f64, f64)> = LEVELS
        .iter()
        .map(|&pct| (PolicyKind::Polca, pct as f64 / 100.0, 1.0))
        .collect();
    let outcomes = study.sweep(&cells, inv.get("jobs"));
    let mut best = 0.0;
    for (&pct, o) in LEVELS.iter().zip(&outcomes) {
        let added = pct as f64 / 100.0;
        let ok = o.slo.met;
        println!(
            "  +{pct:>2}%: brakes {:>4}, LP p99 {:.3}, HP p99 {:.3} — {}",
            o.brake_engagements,
            o.low_normalized.p99,
            o.high_normalized.p99,
            if ok { "SLO met" } else { "SLO MISSED" }
        );
        if ok && added > best {
            best = added;
        }
    }
    println!("plan: deploy up to +{:.0}% servers.", best * 100.0);
    Ok(())
}

/// The `profile` subcommand: self-profiles the simulator with
/// polca-prof on the quick-demo oversubscription study, prints the
/// per-component attribution table, and (on request) writes the
/// profiling artifact set.
///
/// The reference run and the arrival-trace cache are warmed by an
/// un-instrumented run first, so the profiled repetitions measure
/// simulation work rather than one-off synthesis, and the attribution
/// table can account for ≥90 % of the measured wall time.
fn profile(inv: &Invocation) -> Result<(), CliError> {
    let seed: u64 = inv.get("seed");
    let reps: usize = inv.get("reps");
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_record_power(false);
    let _ = study.run(PolicyKind::Polca, 0.30, 1.0); // warm caches
    let recorder = Recorder::new(ObsLevel::Full);
    study.set_recorder(recorder.clone());
    let start = Instant::now();
    for _ in 0..reps {
        let _ = study.run(PolicyKind::Polca, 0.30, 1.0);
    }
    let wall = start.elapsed();
    let wall_ns = wall.as_nanos() as u64;
    let snap = recorder.prof().snapshot();
    let sim_s = study.days() * 86_400.0 * reps as f64;
    let events = snap.counter(ProfCounter::EventsPopped);
    let wall_s = wall.as_secs_f64();
    println!(
        "profiled quick-demo study (seed {seed}, {reps} rep(s)): \
         {sim_s:.0} simulated s, {events} events in {wall_s:.3} s wall"
    );
    println!(
        "  {:.0} simulated-seconds/sec  {:.0} events/sec  peak queue depth {}",
        sim_s / wall_s,
        events as f64 / wall_s,
        snap.counter(ProfCounter::PeakQueueDepth)
    );
    print!("{}", snap.attribution_table(wall_ns));
    if let Some(dir) = inv.opt::<String>("out") {
        let files = recorder
            .write_dir(Path::new(&dir))
            .map_err(|e| CliError::Io(e.to_string()))?;
        println!(
            "profiling artifacts: {} file(s) in {}/ (prof.json, prof.folded, prof.trace.json, …)",
            files.len(),
            dir.trim_end_matches('/')
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_defaults_and_positionals() {
        let inv = parse_args(args(&["evaluate", "--added", "25", "--policy", "NoCap"])).unwrap();
        assert_eq!(inv.command(), "evaluate");
        assert_eq!(inv.get::<f64>("added"), 25.0);
        // Enum values match case-insensitively and come back as listed.
        assert_eq!(inv.opt::<String>("policy").as_deref(), Some("nocap"));
        // Absent flags read their table default, or nothing.
        assert_eq!(inv.get::<usize>("jobs"), 1);
        assert_eq!(inv.opt::<String>("obs-out"), None);
        assert!(!inv.has("jobs"));
        let inv = parse_args(args(&["ingest", "trace.csv", "--seed", "3"])).unwrap();
        assert_eq!(inv.positionals(), ["trace.csv".to_string()]);
        assert_eq!(inv.get::<u64>("seed"), 3);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // Every Bool flag consumes no value, mid-argv or trailing.
        for cmd in flags::COMMANDS {
            for flag in cmd.flags().filter(|f| f.kind == flags::Kind::Bool) {
                let name = format!("--{}", flag.name);
                let inv = parse_args(args(&[cmd.name, &name, "--seed", "4"])).unwrap();
                assert!(inv.has(flag.name));
                assert_eq!(inv.get::<u64>("seed"), 4);
                assert!(parse_args(args(&[cmd.name, &name])).unwrap().has(flag.name));
            }
        }
    }

    #[test]
    fn model_lookup_is_case_insensitive() {
        assert_eq!(find_model("bloom").unwrap().name, "BLOOM");
        assert_eq!(find_model("flan-t5").unwrap().name, "Flan-T5");
        assert!(find_model("gpt5").is_err());
    }

    #[test]
    fn policy_aliases_resolve() {
        assert_eq!(find_policy("POLCA").unwrap(), PolicyKind::Polca);
        assert_eq!(find_policy("1t-lp").unwrap(), PolicyKind::OneThreshLowPri);
        assert_eq!(find_policy("no-cap").unwrap(), PolicyKind::NoCap);
        assert!(find_policy("magic").is_err());
    }

    #[test]
    fn characterize_runs_end_to_end() {
        let inv = parse_args(args(&[
            "characterize",
            "--model",
            "GPT-NeoX",
            "--input",
            "512",
            "--output",
            "32",
        ]))
        .unwrap();
        assert!(run(&inv).is_ok());
    }

    #[test]
    fn help_prints() {
        let inv = parse_args(args(&["help"])).unwrap();
        assert!(run(&inv).is_ok());
        let text = help(None);
        assert!(text.contains("characterize"));
        assert!(text.contains("ingest"));
        assert!(text.contains("--trace-csv"));
        assert!(text.contains("--datacenters"));
        assert!(text.contains("--fleet-threads"));
    }

    #[test]
    fn generated_help_keeps_every_flag_of_the_handwritten_help() {
        // Every flag the hand-written help text listed, per subcommand.
        #[rustfmt::skip]
        let listed = [
            ("characterize", "model input output batch lock cap"),
            ("trace", "days seed csv-out rate amplitude peak-hour noise bursts-per-day"),
            ("ingest", "csv seed extrapolate-days"),
            ("evaluate", "policy added days seed power-scale obs-out obs-level engine split-pools \
                          profile req-trace req-sample carbon-trace carbon-diurnal pue carbon-budget \
                          carbon-per-token watch watch-rules rows datacenters rows-per-pdu \
                          enforce-budgets fleet-threads site-budget-mw oversub-dc oversub-site jobs \
                          trace-csv rate-scale time-scale servers"),
            ("plan", "days seed servers jobs"),
            ("profile", "seed reps out"),
        ];
        for (command, flags) in listed {
            let text = help(Some(command));
            let tokens: Vec<&str> = text.split_whitespace().collect();
            for flag in flags.split_whitespace() {
                let flag = format!("--{flag}");
                assert!(
                    tokens.contains(&flag.as_str()),
                    "{command} help lacks {flag}"
                );
            }
        }
    }

    #[test]
    fn trace_export_defaults_are_the_diurnal_pattern() {
        let inv = parse_args(args(&["trace"])).unwrap();
        let d = DiurnalPattern::default();
        assert_eq!(inv.get::<f64>("rate"), d.base_rate);
        assert_eq!(inv.get::<f64>("amplitude"), d.daily_amplitude);
        assert_eq!(inv.get::<f64>("peak-hour"), d.peak_hour);
        assert_eq!(inv.get::<f64>("noise"), d.short_term_noise);
        assert_eq!(inv.get::<f64>("bursts-per-day"), d.bursts_per_day);
    }

    #[test]
    fn parse_errors_are_typed() {
        let unknown_flag = |command: &str, flag: &str| CliError::UnknownFlag {
            command: command.into(),
            flag: flag.into(),
        };
        let cases: [(&[&str], CliError); 7] = [
            (&[], CliError::MissingCommand),
            (
                &["frobnicate"],
                CliError::UnknownCommand("frobnicate".into()),
            ),
            (&["plan", "--days"], CliError::MissingValue("days".into())),
            (
                &["trace", "--days", "soon"],
                CliError::BadValue {
                    flag: "days".into(),
                    value: "soon".into(),
                },
            ),
            (
                &["evaluate", "--dayz", "1"],
                unknown_flag("evaluate", "dayz"),
            ),
            (
                &["evaluate", "--polcy", "nocap"],
                unknown_flag("evaluate", "polcy"),
            ),
            // A flag of another subcommand is unknown here.
            (&["profile", "--days", "1"], unknown_flag("profile", "days")),
        ];
        for (argv, err) in cases {
            assert_eq!(parse_args(args(argv)), Err(err), "{argv:?}");
        }
    }

    #[test]
    fn out_of_range_values_fail_before_running_naming_the_flag() {
        let csv = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/sample_trace.csv"
        );
        let cases: &[&[&str]] = &[
            // Each of these panicked inside the simulator.
            &["evaluate", "--days", "-1"],
            &["evaluate", "--days", "nan"],
            &["evaluate", "--added", "nan"],
            &["evaluate", "--added", "-200"],
            &["evaluate", "--power-scale", "nan"],
            &["plan", "--servers", "0"],
            &["plan", "--jobs", "0"],
            &["trace", "--days", "0"],
            &["trace", "--days", "-1"],
            &["characterize", "--input", "0"],
            &["characterize", "--batch", "0"],
            &["evaluate", "--trace-csv", csv, "--time-scale", "0"],
            &["evaluate", "--trace-csv", csv, "--rate-scale", "-1"],
            &["evaluate", "--trace-csv", csv, "--jobs", "0"],
            // This one ran and printed NaN%.
            &["evaluate", "--trace-csv", csv, "--servers", "0"],
            // The four-policy panel has no power scale.
            &["evaluate", "--trace-csv", csv, "--power-scale", "1.05"],
            // Site shapes and budgets the power tree cannot take.
            &["evaluate", "--rows", "0"],
            &["evaluate", "--datacenters", "0"],
            &["evaluate", "--rows", "2", "--rows-per-pdu", "0"],
            &["evaluate", "--rows", "2", "--oversub-dc", "-10"],
            &["evaluate", "--rows", "2", "--oversub-dc", "inf"],
            &["evaluate", "--rows", "2", "--oversub-site", "nan"],
            &["evaluate", "--rows", "2", "--oversub-site", "-1"],
            &["evaluate", "--rows", "2", "--site-budget-mw", "nan"],
            &["evaluate", "--rows", "2", "--site-budget-mw", "-2"],
            &["evaluate", "--rows", "2", "--site-budget-mw", "inf"],
        ];
        for argv in cases {
            let flag = argv[argv.len() - 2].trim_start_matches("--");
            let result = parse_args(args(argv)).and_then(|inv| run(&inv));
            assert!(
                matches!(&result, Err(CliError::BadValue { flag: f, .. }) if f == flag),
                "{argv:?}: {result:?}"
            );
        }
    }

    #[test]
    fn site_flags_parse_into_the_site_config() {
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "3",
            "--datacenters",
            "4",
            "--fleet-threads",
            "2",
            "--site-budget-mw",
            "1.5",
            "--oversub-dc",
            "25",
            "--oversub-site",
            "10",
            "--enforce-budgets",
        ]))
        .unwrap();
        let site = site_config(&inv, 3, 4);
        assert_eq!(site.datacenters, 4);
        assert_eq!(site.rows_per_datacenter, 3);
        assert_eq!(site.threads, 2);
        assert_eq!(site.site_budget_watts, Some(1.5e6));
        assert_eq!(site.datacenter_oversubscription, Some(0.25));
        assert_eq!(site.site_oversubscription, Some(0.10));
        assert!(site.enforce_budgets);
        assert!(site.site_active());
        // --fleet-threads 0 means "all cores" (at least one).
        let inv = parse_args(args(&["evaluate", "--rows", "2", "--fleet-threads", "0"])).unwrap();
        assert!(site_config(&inv, 2, 1).threads >= 1);
    }

    #[test]
    fn ingest_without_a_path_is_an_error() {
        let inv = parse_args(args(&["ingest"])).unwrap();
        assert_eq!(
            run(&inv),
            Err(CliError::Ingest(
                "usage: polca-cli ingest <trace.csv>".into()
            ))
        );
    }

    #[test]
    fn ingest_reports_missing_files_cleanly() {
        let inv = parse_args(args(&["ingest", "/nonexistent/trace.csv"])).unwrap();
        assert!(matches!(run(&inv), Err(CliError::Ingest(_))));
    }

    #[test]
    fn evaluate_with_watch_writes_incident_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-watch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--days",
            "0.05",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        for file in ["incidents.jsonl", "report.md", "metrics.prom", "trace.json"] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        let report = std::fs::read_to_string(dir.join("report.md")).unwrap();
        assert!(report.contains("# Watch report"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_watch_rules_file_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("polca-cli-rules-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.txt");
        std::fs::write(&rules, "bad nonsense x=1\n").unwrap();
        let rules_str = rules.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--watch-rules",
            &rules_str,
            "--days",
            "0.05",
        ]))
        .unwrap();
        assert!(matches!(run(&inv), Err(CliError::BadValue { .. })));
        let inv = parse_args(args(&[
            "evaluate",
            "--watch",
            "--watch-rules",
            "/nonexistent/rules.txt",
            "--days",
            "0.05",
        ]))
        .unwrap();
        assert!(matches!(run(&inv), Err(CliError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn req_trace_is_a_boolean_flag() {
        // --req-sample alone implies tracing; bare --req-trace samples
        // every request.
        let inv = parse_args(args(&["evaluate", "--req-sample", "4"])).unwrap();
        assert_eq!(parse_req_trace(&inv).unwrap().sample, 4);
        let inv = parse_args(args(&["evaluate", "--req-trace"])).unwrap();
        assert_eq!(parse_req_trace(&inv).unwrap().sample, 1);
        let inv = parse_args(args(&["evaluate"])).unwrap();
        assert!(parse_req_trace(&inv).is_none());
    }

    #[test]
    fn evaluate_req_trace_writes_requests_jsonl() {
        let dir = std::env::temp_dir().join(format!("polca-cli-req-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--engine",
            "batched",
            "--req-trace",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        let body = std::fs::read_to_string(dir.join("requests.jsonl")).unwrap();
        let first = body.lines().next().expect("at least one record");
        for field in ["\"ttft_s\":", "\"tbt_mean_s\":", "\"joules_per_token\":"] {
            assert!(first.contains(field), "{field} missing from {first}");
        }
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("req_ttft_s"), "TTFT histogram missing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_fleet_writes_per_row_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-fleet-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "3",
            "--rows-per-pdu",
            "2",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        assert!(dir.join("metrics.json").exists(), "fleet metrics missing");
        for row in 0..3 {
            let row_dir = dir.join(format!("row{row}"));
            for file in ["events.jsonl", "metrics.json", "prof.json", "prof.folded"] {
                assert!(row_dir.join(file).exists(), "row{row}/{file} missing");
            }
        }
        // The fleet-level prof.json aggregates the absorbed per-row
        // profiles (row phases present) on top of the fleet recorder's
        // own aggregation phase and occupancy gauge.
        let fleet_prof = std::fs::read_to_string(dir.join("prof.json")).unwrap();
        assert!(fleet_prof.contains("\"row.step\""), "{fleet_prof}");
        assert!(
            fleet_prof.contains("\"fleet.power_aggregation\""),
            "{fleet_prof}"
        );
        assert!(
            fleet_prof.contains("\"batched_tick_occupancy\""),
            "{fleet_prof}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_site_writes_per_datacenter_artifacts() {
        let dir = std::env::temp_dir().join(format!("polca-cli-site-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "evaluate",
            "--rows",
            "2",
            "--datacenters",
            "2",
            "--fleet-threads",
            "2",
            "--watch",
            "--days",
            "0.02",
            "--added",
            "30",
            "--obs-out",
            &out,
        ]))
        .unwrap();
        run(&inv).unwrap();
        assert!(dir.join("metrics.json").exists(), "site metrics missing");
        for row in 0..4 {
            assert!(
                dir.join(format!("row{row}/events.jsonl")).exists(),
                "row{row} artifacts missing"
            );
        }
        for d in 0..2 {
            for file in ["incidents.jsonl", "report.md"] {
                assert!(
                    dir.join(format!("dc{d}/{file}")).exists(),
                    "dc{d}/{file} missing"
                );
            }
        }
        // The site-level prom export partitions datacenter gauges.
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("datacenter=\"1\""), "{prom}");
        assert!(prom.contains("site_power_w"), "{prom}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_export_then_ingest_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("polca-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("exported.csv");
        let csv_str = csv.to_string_lossy().to_string();
        let inv = parse_args(args(&[
            "trace",
            "--csv-out",
            &csv_str,
            "--days",
            "0.02",
            "--rate",
            "1.0",
            "--seed",
            "5",
        ]))
        .unwrap();
        run(&inv).unwrap();
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("timestamp_s,context_tokens,generated_tokens,priority\n"));
        assert!(body.lines().count() > 100);
        // The exported file ingests back without losing a single row.
        let trace = IngestedTrace::from_csv_path(&csv).unwrap();
        assert_eq!(trace.len(), body.lines().count() - 1);
        assert_eq!(trace.skipped_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
