//! polca-energy: a hierarchical energy & carbon ledger.
//!
//! The power plane answers "how many watts right now"; this module
//! answers the questions operators actually bill and report on:
//! watt-hours and grams of CO2-equivalent, per level of the site
//! hierarchy (row → PDU → datacenter → site), per priority class, and
//! per prefill/decode pool, down to joules/token and gCO2e/token.
//!
//! Accounting model:
//!
//! - **IT energy** is the trapezoidal integral of ground-truth
//!   per-server power over the existing telemetry windows (the same
//!   2 s grid every other ground-truth consumer uses), accumulated
//!   row-locally by [`EnergyAccum`] so parallel row execution stays
//!   byte-identical at any thread count.
//! - **Busy energy** is exact, not trapezoidal: the cluster sim
//!   maintains an event-level integral of power drawn by servers that
//!   are actively serving. It upper-bounds the per-request joules
//!   attributed by polca-req on both engines, which is pinned by test.
//! - **Facility energy** applies a per-datacenter PUE multiplier
//!   (defaulting to the [`CostModel`](https://example.invalid) constant
//!   `1.25` absorbed from `polca::cost`).
//! - **Carbon** multiplies facility energy by a grid carbon-intensity
//!   signal — a constant, a built-in synthetic diurnal curve, or a CSV
//!   trace read by a dependency-free ingest-style reader — sampled at
//!   each window's midpoint.
//!
//! Everything here is plain accumulation over values the simulator
//! already computes; the ledger is assembled once, on the main thread,
//! from per-row [`RowEnergy`] results in canonical row order, so the
//! exported artifacts obey the repo's determinism contract.

use crate::chrome::TraceEvents;
use crate::json::{render, Esc, Num};
use std::fmt::{self, Write as _};
use std::io;
use std::sync::Arc;

/// Default power-usage-effectiveness multiplier, absorbed from the
/// `polca::cost::CostModel` default so the two planes agree out of the
/// box.
pub const DEFAULT_PUE: f64 = 1.25;

/// Default spacing of the exported energy timeseries samples, in
/// simulated seconds (15 min).
pub const DEFAULT_SERIES_STRIDE_S: f64 = 900.0;

// ---------------------------------------------------------------------------
// Carbon-intensity signals
// ---------------------------------------------------------------------------

/// A grid carbon-intensity trace: step-wise `(t_s, gCO2e/kWh)` points
/// that wrap modulo the trace span, so a 24 h trace drives a 6-week
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonTrace {
    /// `(time in seconds, grams CO2e per kWh)`, strictly increasing in
    /// time.
    points: Vec<(f64, f64)>,
    /// Period after which the trace repeats, in seconds.
    span_s: f64,
}

impl CarbonTrace {
    /// Build a trace from explicit points. Returns an error when the
    /// points are empty, non-finite, negative, or not strictly
    /// increasing in time.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("carbon trace has no points".into());
        }
        for (i, (t, g)) in points.iter().enumerate() {
            if !t.is_finite() || !g.is_finite() || *t < 0.0 || *g < 0.0 {
                return Err(format!(
                    "carbon trace point {i} is not a finite non-negative pair"
                ));
            }
            if i > 0 && *t <= points[i - 1].0 {
                return Err(format!(
                    "carbon trace time not strictly increasing at point {i}"
                ));
            }
        }
        let span_s = if points.len() >= 2 {
            let last = points[points.len() - 1].0;
            let step = last - points[points.len() - 2].0;
            last + step
        } else {
            points[0].0 + 3600.0
        };
        Ok(Self { points, span_s })
    }

    /// Parse a carbon-intensity CSV with header `hour,carbon_g_per_kwh`
    /// (times in hours). RFC-4180 quoting is honoured; blank lines are
    /// skipped; errors carry 1-based line numbers. Dependency-free, in
    /// the style of `polca-ingest`.
    pub fn from_csv_str(text: &str) -> Result<Self, String> {
        let mut points = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_csv_line(line);
            if fields.len() < 2 {
                return Err(format!(
                    "line {line_no}: expected 2 columns, got {}",
                    fields.len()
                ));
            }
            let (h, g) = (fields[0].trim(), fields[1].trim());
            if points.is_empty() && h.parse::<f64>().is_err() {
                // Header row: accept any header whose first cell is
                // non-numeric (canonically `hour,carbon_g_per_kwh`).
                continue;
            }
            let hour: f64 = h
                .parse()
                .map_err(|_| format!("line {line_no}: bad hour value {h:?}"))?;
            let gpk: f64 = g
                .parse()
                .map_err(|_| format!("line {line_no}: bad carbon_g_per_kwh value {g:?}"))?;
            points.push((hour * 3600.0, gpk));
        }
        Self::new(points).map_err(|e| format!("carbon csv: {e}"))
    }

    /// Render the trace back to the canonical CSV form it is parsed
    /// from (round-trip exact for golden-file tests).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("hour,carbon_g_per_kwh\n");
        for (t, g) in &self.points {
            let _ = writeln!(out, "{},{}", Num(t / 3600.0), Num(*g));
        }
        out
    }

    /// Number of points in the trace.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the trace holds no points (unreachable for
    /// constructed traces; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Period after which the trace repeats, in seconds.
    pub fn span_s(&self) -> f64 {
        self.span_s
    }

    /// Sample-and-hold lookup at simulated time `t_s`, wrapping modulo
    /// the trace span. Times before the first point (after wrapping)
    /// hold the last point's value, as a cyclic signal should.
    pub fn g_per_kwh(&self, t_s: f64) -> f64 {
        let tw = t_s.rem_euclid(self.span_s.max(f64::MIN_POSITIVE));
        match self.points.partition_point(|(t, _)| *t <= tw) {
            0 => self.points[self.points.len() - 1].1,
            n => self.points[n - 1].1,
        }
    }
}

/// Minimal RFC-4180 field splitter (quotes, escaped quotes, commas
/// inside quotes), mirroring the ingest reader's behaviour.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    cur.push('"');
                }
                '"' => in_quotes = false,
                _ => cur.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

/// A grid carbon-intensity signal in gCO2e per kWh.
#[derive(Debug, Clone, PartialEq)]
pub enum CarbonSignal {
    /// A flat intensity (e.g. a fixed regional annual average).
    Constant(f64),
    /// A synthetic diurnal cosine:
    /// `mean * (1 + amplitude * cos(2π (hour − peak_hour) / 24))`.
    Diurnal {
        /// Daily mean intensity in gCO2e/kWh.
        mean_g_per_kwh: f64,
        /// Relative swing around the mean (0.25 → ±25 %).
        amplitude: f64,
        /// Hour of day (0–24) at which intensity peaks.
        peak_hour: f64,
    },
    /// A CSV-ingested trace, wrapped modulo its span.
    Trace(CarbonTrace),
}

impl CarbonSignal {
    /// The built-in synthetic diurnal signal used by
    /// `evaluate --carbon-diurnal`: 400 gCO2e/kWh mean, ±25 % swing,
    /// peaking at 19:00 (evening fossil ramp).
    pub fn diurnal_default() -> Self {
        CarbonSignal::Diurnal {
            mean_g_per_kwh: 400.0,
            amplitude: 0.25,
            peak_hour: 19.0,
        }
    }

    /// Intensity at simulated time `t_s`, in gCO2e/kWh.
    pub fn g_per_kwh(&self, t_s: f64) -> f64 {
        match self {
            CarbonSignal::Constant(g) => *g,
            CarbonSignal::Diurnal {
                mean_g_per_kwh,
                amplitude,
                peak_hour,
            } => {
                let hour = (t_s / 3600.0).rem_euclid(24.0);
                let phase = 2.0 * std::f64::consts::PI * (hour - peak_hour) / 24.0;
                mean_g_per_kwh * (1.0 + amplitude * phase.cos())
            }
            CarbonSignal::Trace(trace) => trace.g_per_kwh(t_s),
        }
    }
}

// ---------------------------------------------------------------------------
// Plan: what a recorder hands each row
// ---------------------------------------------------------------------------

/// Configuration for energy/carbon accounting, attached to a
/// [`Recorder`](crate::Recorder) handle. Cheap to clone (the signal and
/// PUE table are shared); `at_location` stamps per-row hierarchy
/// coordinates onto fresh per-row cells.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyPlan {
    /// Grid carbon-intensity signal shared by every row.
    pub signal: Arc<CarbonSignal>,
    /// Per-datacenter PUE table; datacenters beyond the last entry
    /// clamp to it, and an empty table means [`DEFAULT_PUE`].
    pub pue: Arc<[f64]>,
    /// Spacing of exported timeseries samples in simulated seconds.
    pub series_stride_s: f64,
    /// Global row index of the row this plan instance accounts for.
    pub row: usize,
    /// Global PDU index of that row.
    pub pdu: usize,
    /// Datacenter index of that row.
    pub dc: usize,
}

impl EnergyPlan {
    /// A plan with the given signal, the default PUE, the default
    /// series stride, and location (0, 0, 0).
    pub fn new(signal: CarbonSignal) -> Self {
        Self {
            signal: Arc::new(signal),
            pue: Arc::from(vec![DEFAULT_PUE]),
            series_stride_s: DEFAULT_SERIES_STRIDE_S,
            row: 0,
            pdu: 0,
            dc: 0,
        }
    }

    /// Replace the per-datacenter PUE table. Non-finite or sub-1.0
    /// entries are clamped to 1.0 (a facility cannot use less energy
    /// than its IT load).
    pub fn with_pue(mut self, pue: &[f64]) -> Self {
        let cleaned: Vec<f64> = pue
            .iter()
            .map(|p| if p.is_finite() && *p >= 1.0 { *p } else { 1.0 })
            .collect();
        self.pue = Arc::from(cleaned);
        self
    }

    /// A copy of this plan stamped with a row's hierarchy coordinates.
    pub fn at_location(&self, row: usize, pdu: usize, dc: usize) -> Self {
        let mut plan = self.clone();
        plan.row = row;
        plan.pdu = pdu;
        plan.dc = dc;
        plan
    }

    /// The PUE applied to this plan's datacenter (clamped to the last
    /// table entry; [`DEFAULT_PUE`] when the table is empty).
    pub fn pue_for_dc(&self) -> f64 {
        match self.pue.len() {
            0 => DEFAULT_PUE,
            n => self.pue[self.dc.min(n - 1)],
        }
    }
}

// ---------------------------------------------------------------------------
// Per-row accumulation
// ---------------------------------------------------------------------------

/// One point of a row's cumulative energy timeseries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySample {
    /// Simulated time of the sample, seconds.
    pub t_s: f64,
    /// Cumulative IT energy at `t_s`, watt-hours.
    pub it_wh: f64,
    /// Cumulative emissions at `t_s`, grams CO2e.
    pub co2e_g: f64,
    /// Instantaneous grid carbon intensity at `t_s`, gCO2e/kWh.
    pub g_per_kwh: f64,
}

/// Row-local energy/carbon accumulator, ticked by the cluster sim on
/// the row's own telemetry grid so parallel execution never interleaves
/// float additions across rows.
#[derive(Debug, Clone)]
pub struct EnergyAccum {
    plan: EnergyPlan,
    prev_t: f64,
    prev_low_w: f64,
    prev_high_w: f64,
    prev_pool_w: Vec<(&'static str, f64)>,
    it_wh: f64,
    wh_low: f64,
    wh_high: f64,
    pool_wh: Vec<(&'static str, f64)>,
    co2e_g: f64,
    tokens_low: u64,
    tokens_high: u64,
    samples: Vec<EnergySample>,
    next_sample_t: f64,
}

impl EnergyAccum {
    /// Start accumulating at `t0_s` with the given per-bucket power
    /// draw: priority-class sums plus per-pool `(tag, watts)` sums.
    /// The bucket layout is static for the life of the accumulator —
    /// class membership and pool roles never change mid-run, so the
    /// caller maintains these sums incrementally (O(1) per power
    /// change) and each tick costs O(pools), not O(servers).
    pub fn new(
        plan: EnergyPlan,
        t0_s: f64,
        low_w: f64,
        high_w: f64,
        pool_w: &[(&'static str, f64)],
    ) -> Self {
        let next_sample_t = t0_s + plan.series_stride_s.max(1.0);
        Self {
            plan,
            prev_t: t0_s,
            prev_low_w: low_w,
            prev_high_w: high_w,
            prev_pool_w: pool_w.to_vec(),
            it_wh: 0.0,
            wh_low: 0.0,
            wh_high: 0.0,
            pool_wh: Vec::new(),
            co2e_g: 0.0,
            tokens_low: 0,
            tokens_high: 0,
            samples: Vec::new(),
            next_sample_t,
        }
    }

    /// Advance to `t_s` with the current per-bucket power sums, adding
    /// one trapezoid per priority class and pool bucket and converting
    /// the window's facility energy to grams via the signal sampled at
    /// the window midpoint. `pool_w` must keep the layout the
    /// accumulator was built with.
    pub fn tick(&mut self, t_s: f64, low_w: f64, high_w: f64, pool_w: &[(&'static str, f64)]) {
        debug_assert_eq!(pool_w.len(), self.prev_pool_w.len());
        let dt = t_s - self.prev_t;
        if dt > 0.0 {
            let h = 0.5 * dt / 3600.0;
            let low_wh = (self.prev_low_w + low_w) * h;
            let high_wh = (self.prev_high_w + high_w) * h;
            self.wh_low += low_wh;
            self.wh_high += high_wh;
            for (i, &(tag, w)) in pool_w.iter().enumerate() {
                debug_assert_eq!(tag, self.prev_pool_w[i].0, "pool layout changed mid-run");
                let wh = (self.prev_pool_w[i].1 + w) * h;
                match self.pool_wh.iter_mut().find(|(t, _)| *t == tag) {
                    Some((_, acc)) => *acc += wh,
                    None => self.pool_wh.push((tag, wh)),
                }
            }
            let window_wh = low_wh + high_wh;
            self.it_wh += window_wh;
            let intensity = self.plan.signal.g_per_kwh(self.prev_t + 0.5 * dt);
            self.co2e_g += window_wh * self.plan.pue_for_dc() / 1000.0 * intensity;
            self.prev_t = t_s;
        }
        self.prev_low_w = low_w;
        self.prev_high_w = high_w;
        for (prev, cur) in self.prev_pool_w.iter_mut().zip(pool_w) {
            prev.1 = cur.1;
        }
        if t_s + 1e-9 >= self.next_sample_t {
            self.push_sample(t_s);
            self.next_sample_t = t_s + self.plan.series_stride_s.max(1.0);
        }
    }

    /// Count completed output tokens for a priority class (high when
    /// `high` is true), feeding the joules/token denominators.
    pub fn add_tokens(&mut self, high: bool, n: u64) {
        if high {
            self.tokens_high += n;
        } else {
            self.tokens_low += n;
        }
    }

    /// Grid carbon intensity at `t_s` under this accumulator's signal.
    pub fn g_per_kwh(&self, t_s: f64) -> f64 {
        self.plan.signal.g_per_kwh(t_s)
    }

    /// The PUE this accumulator applies.
    pub fn pue(&self) -> f64 {
        self.plan.pue_for_dc()
    }

    fn push_sample(&mut self, t_s: f64) {
        self.samples.push(EnergySample {
            t_s,
            it_wh: self.it_wh,
            co2e_g: self.co2e_g,
            g_per_kwh: self.plan.signal.g_per_kwh(t_s),
        });
    }

    /// Seal the accumulator at the horizon (the caller must have
    /// ticked to the horizon first) and fold in the sim's exact busy
    /// integral, in joules.
    pub fn finish(mut self, horizon_s: f64, busy_joules: f64) -> RowEnergy {
        if self.samples.last().map(|s| s.t_s) != Some(horizon_s) {
            self.push_sample(horizon_s);
        }
        let pue = self.plan.pue_for_dc();
        let mut pool_wh = self.pool_wh;
        pool_wh.sort_by(|a, b| a.0.cmp(b.0));
        RowEnergy {
            row: self.plan.row,
            pdu: self.plan.pdu,
            dc: self.plan.dc,
            pue,
            horizon_s,
            it_wh: self.it_wh,
            busy_wh: busy_joules / 3600.0,
            facility_wh: self.it_wh * pue,
            co2e_g: self.co2e_g,
            wh_low: self.wh_low,
            wh_high: self.wh_high,
            pool_wh,
            tokens_low: self.tokens_low,
            tokens_high: self.tokens_high,
            samples: self.samples,
        }
    }
}

/// A finished row's energy/carbon account, recorded into the shared
/// observability core when the row seals.
#[derive(Debug, Clone, PartialEq)]
pub struct RowEnergy {
    /// Global row index.
    pub row: usize,
    /// Global PDU index of the row.
    pub pdu: usize,
    /// Datacenter index of the row.
    pub dc: usize,
    /// PUE applied to this row's datacenter.
    pub pue: f64,
    /// Simulated horizon the account covers, seconds.
    pub horizon_s: f64,
    /// IT energy (trapezoidal over telemetry windows), watt-hours.
    pub it_wh: f64,
    /// Exact busy energy (servers actively serving), watt-hours.
    pub busy_wh: f64,
    /// Facility energy = IT × PUE, watt-hours.
    pub facility_wh: f64,
    /// Emissions = facility kWh × grid intensity, grams CO2e.
    pub co2e_g: f64,
    /// IT energy drawn by low-priority servers, watt-hours.
    pub wh_low: f64,
    /// IT energy drawn by high-priority servers, watt-hours.
    pub wh_high: f64,
    /// IT energy per pool tag (`aggregated` / `prefill` / `decode`),
    /// sorted by tag.
    pub pool_wh: Vec<(&'static str, f64)>,
    /// Output tokens completed on low-priority servers.
    pub tokens_low: u64,
    /// Output tokens completed on high-priority servers.
    pub tokens_high: u64,
    /// Cumulative timeseries at the plan's stride.
    pub samples: Vec<EnergySample>,
}

impl RowEnergy {
    /// Total output tokens across both classes.
    pub fn tokens(&self) -> u64 {
        self.tokens_low + self.tokens_high
    }
}

// ---------------------------------------------------------------------------
// Ledger: main-thread rollups + exporters
// ---------------------------------------------------------------------------

/// Energy totals for one node of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelEnergy {
    /// IT energy, watt-hours.
    pub it_wh: f64,
    /// Exact busy energy, watt-hours.
    pub busy_wh: f64,
    /// Facility energy (IT × PUE), watt-hours.
    pub facility_wh: f64,
    /// Emissions, grams CO2e.
    pub co2e_g: f64,
    /// Output tokens completed.
    pub tokens: u64,
}

impl LevelEnergy {
    fn add(&mut self, r: &RowEnergy) {
        self.it_wh += r.it_wh;
        self.busy_wh += r.busy_wh;
        self.facility_wh += r.facility_wh;
        self.co2e_g += r.co2e_g;
        self.tokens += r.tokens();
    }

    /// Joules per output token (IT energy basis); 0 when no tokens.
    pub fn joules_per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.it_wh * 3600.0 / self.tokens as f64
        }
    }

    /// Grams CO2e per output token; 0 when no tokens.
    pub fn co2e_g_per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.co2e_g / self.tokens as f64
        }
    }
}

/// The assembled site-wide ledger: deterministic rollups of per-row
/// accounts across every hierarchy level, priority class, and pool,
/// plus the exporters (`energy.json`, `energy.csv`, Prometheus lines,
/// Chrome-trace counter lanes).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    /// Site-level totals.
    pub site: LevelEnergy,
    /// `(datacenter index, totals, pue)` sorted by index.
    pub datacenters: Vec<(usize, LevelEnergy, f64)>,
    /// `(global PDU index, totals)` sorted by index.
    pub pdus: Vec<(usize, LevelEnergy)>,
    /// Per-row accounts in canonical row order.
    pub rows: Vec<RowEnergy>,
    /// IT watt-hours drawn by low-priority servers.
    pub wh_low: f64,
    /// IT watt-hours drawn by high-priority servers.
    pub wh_high: f64,
    /// Output tokens completed on low-priority servers.
    pub tokens_low: u64,
    /// Output tokens completed on high-priority servers.
    pub tokens_high: u64,
    /// IT watt-hours per pool tag, sorted by tag.
    pub pool_wh: Vec<(&'static str, f64)>,
}

impl EnergyLedger {
    /// Assemble the ledger from finished row accounts. Rows are sorted
    /// into canonical row order, so the result is identical for any
    /// execution interleaving that recorded the same rows.
    pub fn from_rows(rows: &[RowEnergy]) -> Self {
        let mut rows: Vec<RowEnergy> = rows.to_vec();
        rows.sort_by_key(|r| r.row);
        let mut site = LevelEnergy::default();
        let mut dcs: Vec<(usize, LevelEnergy, f64)> = Vec::new();
        let mut pdus: Vec<(usize, LevelEnergy)> = Vec::new();
        let mut wh_low = 0.0;
        let mut wh_high = 0.0;
        let mut tokens_low = 0;
        let mut tokens_high = 0;
        let mut pool_wh: Vec<(&'static str, f64)> = Vec::new();
        for r in &rows {
            site.add(r);
            match dcs.iter_mut().find(|(d, _, _)| *d == r.dc) {
                Some((_, lvl, _)) => lvl.add(r),
                None => {
                    let mut lvl = LevelEnergy::default();
                    lvl.add(r);
                    dcs.push((r.dc, lvl, r.pue));
                }
            }
            match pdus.iter_mut().find(|(p, _)| *p == r.pdu) {
                Some((_, lvl)) => lvl.add(r),
                None => {
                    let mut lvl = LevelEnergy::default();
                    lvl.add(r);
                    pdus.push((r.pdu, lvl));
                }
            }
            wh_low += r.wh_low;
            wh_high += r.wh_high;
            tokens_low += r.tokens_low;
            tokens_high += r.tokens_high;
            for (tag, wh) in &r.pool_wh {
                match pool_wh.iter_mut().find(|(t, _)| t == tag) {
                    Some((_, acc)) => *acc += wh,
                    None => pool_wh.push((tag, *wh)),
                }
            }
        }
        dcs.sort_by_key(|(d, _, _)| *d);
        pdus.sort_by_key(|(p, _)| *p);
        pool_wh.sort_by(|a, b| a.0.cmp(b.0));
        Self {
            site,
            datacenters: dcs,
            pdus,
            rows,
            wh_low,
            wh_high,
            tokens_low,
            tokens_high,
            pool_wh,
        }
    }

    /// True when the ledger covers no rows (nothing to export).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Emissions-weighted mean grid intensity actually paid, in
    /// gCO2e/kWh; 0 when no facility energy was drawn.
    pub fn mean_g_per_kwh(&self) -> f64 {
        let kwh = self.site.facility_wh / 1000.0;
        if kwh > 0.0 {
            self.site.co2e_g / kwh
        } else {
            0.0
        }
    }

    /// Joules per token for one priority class (IT energy basis).
    pub fn class_joules_per_token(&self, high: bool) -> f64 {
        let (wh, tokens) = if high {
            (self.wh_high, self.tokens_high)
        } else {
            (self.wh_low, self.tokens_low)
        };
        if tokens == 0 {
            0.0
        } else {
            wh * 3600.0 / tokens as f64
        }
    }

    /// The site-wide cumulative timeseries: per-sample-time sums of
    /// the rows' cumulative series (rows tick in lockstep windows, so
    /// sample times coincide). Each entry is
    /// `(t_s, it_wh, facility_wh, co2e_g, g_per_kwh)`; the intensity
    /// is taken from the lowest-indexed row sampling at that time.
    pub fn merged_series(&self) -> Vec<(f64, f64, f64, f64, f64)> {
        use std::collections::BTreeMap;
        // Key by the bit pattern of the (non-negative) sample time for
        // a total, exact ordering.
        let mut merged: BTreeMap<u64, (f64, f64, f64, f64, f64)> = BTreeMap::new();
        for r in &self.rows {
            for s in &r.samples {
                let e = merged.entry(s.t_s.max(0.0).to_bits()).or_insert((
                    s.t_s,
                    0.0,
                    0.0,
                    0.0,
                    s.g_per_kwh,
                ));
                e.1 += s.it_wh;
                e.2 += s.it_wh * r.pue;
                e.3 += s.co2e_g;
            }
        }
        merged.into_values().collect()
    }

    /// Render `energy.csv`: the merged site timeseries with header
    /// `t_s,it_wh,facility_wh,co2e_g,g_per_kwh`.
    pub fn series_csv(&self) -> String {
        render(|w| self.write_series_csv(w))
    }

    /// Writes `energy.csv` (see [`series_csv`](Self::series_csv)) into
    /// `w`.
    pub fn write_series_csv(&self, w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(b"t_s,it_wh,facility_wh,co2e_g,g_per_kwh\n")?;
        for (t, it, fac, co2, gpk) in self.merged_series() {
            writeln!(
                w,
                "{},{},{},{},{}",
                Num(t),
                Num(it),
                Num(fac),
                Num(co2),
                Num(gpk)
            )?;
        }
        Ok(())
    }

    /// Render the `energy.json` ledger artifact.
    pub fn to_json(&self) -> String {
        render(|w| self.write_json(w))
    }

    /// Writes the `energy.json` ledger artifact into `w`.
    pub fn write_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        write!(
            w,
            "{{\n  \"site\": {{{}}},\n  \"mean_g_per_kwh\": {},\n  \"datacenters\": [",
            LevelFields(&self.site),
            Num(self.mean_g_per_kwh())
        )?;
        for (i, (d, lvl, pue)) in self.datacenters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n    {{\"datacenter\": {d}, \"pue\": {}, {}}}",
                Num(*pue),
                LevelFields(lvl)
            )?;
        }
        w.write_all(b"\n  ],\n  \"pdus\": [")?;
        for (i, (p, lvl)) in self.pdus.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(w, "{sep}\n    {{\"pdu\": {p}, {}}}", LevelFields(lvl))?;
        }
        w.write_all(b"\n  ],\n  \"rows\": [")?;
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n    {{\"row\": {}, \"pdu\": {}, \"datacenter\": {}, \"pue\": {}, \"it_wh\": {}, \"busy_wh\": {}, \"facility_wh\": {}, \"co2e_g\": {}, \"tokens\": {}}}",
                r.row,
                r.pdu,
                r.dc,
                Num(r.pue),
                Num(r.it_wh),
                Num(r.busy_wh),
                Num(r.facility_wh),
                Num(r.co2e_g),
                r.tokens()
            )?;
        }
        write!(
            w,
            "\n  ],\n  \"classes\": {{\"low\": {{\"wh\": {}, \"tokens\": {}, \"joules_per_token\": {}}}, \"high\": {{\"wh\": {}, \"tokens\": {}, \"joules_per_token\": {}}}}},\n  \"pools\": [",
            Num(self.wh_low),
            self.tokens_low,
            Num(self.class_joules_per_token(false)),
            Num(self.wh_high),
            self.tokens_high,
            Num(self.class_joules_per_token(true))
        )?;
        for (i, (tag, wh)) in self.pool_wh.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n    {{\"pool\": \"{}\", \"wh\": {}}}",
                Esc(tag),
                Num(*wh)
            )?;
        }
        w.write_all(b"\n  ]\n}\n")
    }

    /// Render the `energy_*` / `carbon_*` Prometheus lines appended to
    /// `metrics.prom`. Empty string when the ledger covers no rows.
    pub fn prometheus(&self) -> String {
        render(|w| self.write_prometheus(w))
    }

    /// Writes the `energy_*` / `carbon_*` Prometheus lines into `w`
    /// (nothing when the ledger covers no rows).
    pub fn write_prometheus(&self, w: &mut impl io::Write) -> io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        fn gauge<'a>(
            w: &mut impl io::Write,
            name: &str,
            lines: impl IntoIterator<Item = (PromLabel<'a>, f64)>,
        ) -> io::Result<()> {
            writeln!(w, "# TYPE {name} gauge")?;
            for (label, v) in lines {
                writeln!(w, "{name}{label} {}", Num(v))?;
            }
            Ok(())
        }
        use PromLabel::{Datacenter, Pdu, Row, Site, Tag};
        gauge(w, "energy_site_wh", [(Site, self.site.it_wh)])?;
        gauge(w, "energy_site_busy_wh", [(Site, self.site.busy_wh)])?;
        gauge(w, "energy_facility_wh", [(Site, self.site.facility_wh)])?;
        gauge(
            w,
            "energy_datacenter_wh",
            self.datacenters
                .iter()
                .map(|(d, lvl, _)| (Datacenter(*d), lvl.it_wh)),
        )?;
        gauge(
            w,
            "energy_pdu_wh",
            self.pdus.iter().map(|(p, lvl)| (Pdu(*p), lvl.it_wh)),
        )?;
        gauge(
            w,
            "energy_row_wh",
            self.rows.iter().map(|r| (Row(r.row), r.it_wh)),
        )?;
        gauge(
            w,
            "energy_class_wh",
            [(Tag("high"), self.wh_high), (Tag("low"), self.wh_low)],
        )?;
        gauge(
            w,
            "energy_pool_wh",
            self.pool_wh.iter().map(|(tag, wh)| (Tag(tag), *wh)),
        )?;
        gauge(
            w,
            "energy_joules_per_token",
            [(Site, self.site.joules_per_token())],
        )?;
        gauge(
            w,
            "energy_class_joules_per_token",
            [
                (Tag("high"), self.class_joules_per_token(true)),
                (Tag("low"), self.class_joules_per_token(false)),
            ],
        )?;
        gauge(w, "carbon_site_g", [(Site, self.site.co2e_g)])?;
        gauge(
            w,
            "carbon_datacenter_g",
            self.datacenters
                .iter()
                .map(|(d, lvl, _)| (Datacenter(*d), lvl.co2e_g)),
        )?;
        gauge(
            w,
            "carbon_g_per_token",
            [(Site, self.site.co2e_g_per_token())],
        )?;
        gauge(w, "carbon_mean_g_per_kwh", [(Site, self.mean_g_per_kwh())])
    }

    /// Writes Chrome-trace counter lanes (`"ph":"C"`, pid 3) for the
    /// merged site timeseries: an `energy_wh` lane (IT vs facility) and
    /// a `carbon` lane (cumulative grams + instantaneous intensity).
    /// Writes nothing when the ledger covers no rows.
    pub fn write_chrome_counter_lanes<W: io::Write>(
        &self,
        doc: &mut TraceEvents<'_, W>,
    ) -> io::Result<()> {
        const PID: u32 = 3;
        if self.is_empty() {
            return Ok(());
        }
        let us = |t: f64| Num(t * 1e6);
        write!(
            doc.entry()?,
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"polca-energy\"}}}}"
        )?;
        for (t, it, fac, co2, gpk) in self.merged_series() {
            write!(
                doc.entry()?,
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"name\":\"energy_wh\",\"ts\":{},\"args\":{{\"it\":{},\"facility\":{}}}}}",
                us(t),
                Num(it),
                Num(fac)
            )?;
            write!(
                doc.entry()?,
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"name\":\"carbon\",\"ts\":{},\"args\":{{\"co2e_g\":{},\"g_per_kwh\":{}}}}}",
                us(t),
                Num(co2),
                Num(gpk)
            )?;
        }
        Ok(())
    }
}

/// Displays one ledger level's fields, as `energy.json` nests them.
struct LevelFields<'a>(&'a LevelEnergy);

impl fmt::Display for LevelFields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lvl = self.0;
        write!(
            f,
            "\"it_wh\": {}, \"busy_wh\": {}, \"facility_wh\": {}, \"co2e_g\": {}, \"tokens\": {}, \"joules_per_token\": {}, \"co2e_g_per_token\": {}",
            Num(lvl.it_wh),
            Num(lvl.busy_wh),
            Num(lvl.facility_wh),
            Num(lvl.co2e_g),
            lvl.tokens,
            Num(lvl.joules_per_token()),
            Num(lvl.co2e_g_per_token())
        )
    }
}

/// The label set of one ledger Prometheus line.
enum PromLabel<'a> {
    Site,
    Datacenter(usize),
    Pdu(usize),
    Row(usize),
    Tag(&'a str),
}

impl fmt::Display for PromLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromLabel::Site => Ok(()),
            PromLabel::Datacenter(d) => write!(f, "{{datacenter=\"{d}\"}}"),
            PromLabel::Pdu(p) => write!(f, "{{pdu=\"{p}\"}}"),
            PromLabel::Row(r) => write!(f, "{{row=\"{r}\"}}"),
            PromLabel::Tag(t) => write!(f, "{{tag=\"{}\"}}", Esc(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_at_peak_hour_and_means_out() {
        let sig = CarbonSignal::diurnal_default();
        let peak = sig.g_per_kwh(19.0 * 3600.0);
        let trough = sig.g_per_kwh(7.0 * 3600.0);
        assert!((peak - 500.0).abs() < 1e-9, "peak {peak}");
        assert!((trough - 300.0).abs() < 1e-9, "trough {trough}");
        // Next-day peak is identical (period 24 h).
        assert_eq!(peak, sig.g_per_kwh((24.0 + 19.0) * 3600.0));
    }

    #[test]
    fn carbon_trace_csv_round_trips_and_wraps() {
        let csv = "hour,carbon_g_per_kwh\n0,100\n1,200\n2,300\n";
        let trace = CarbonTrace::from_csv_str(csv).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.span_s(), 3.0 * 3600.0);
        assert_eq!(trace.to_csv(), csv);
        // Sample-and-hold inside the span…
        assert_eq!(trace.g_per_kwh(0.0), 100.0);
        assert_eq!(trace.g_per_kwh(3599.0), 100.0);
        assert_eq!(trace.g_per_kwh(3600.0), 200.0);
        assert_eq!(trace.g_per_kwh(2.5 * 3600.0), 300.0);
        // …and wrap modulo the span.
        assert_eq!(trace.g_per_kwh(3.0 * 3600.0), 100.0);
        assert_eq!(trace.g_per_kwh(4.5 * 3600.0), 200.0);
    }

    #[test]
    fn carbon_trace_errors_carry_line_numbers() {
        let err = CarbonTrace::from_csv_str("hour,carbon_g_per_kwh\n0,100\n1,abc\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = CarbonTrace::from_csv_str("hour,carbon_g_per_kwh\n0\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = CarbonTrace::from_csv_str("hour,carbon_g_per_kwh\n1,100\n1,200\n").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        assert!(CarbonTrace::from_csv_str("hour,carbon_g_per_kwh\n").is_err());
    }

    #[test]
    fn accum_trapezoid_matches_hand_computation() {
        // One server ramping 100 W → 300 W over 3600 s: trapezoid says
        // 200 Wh; constant 500 g/kWh at PUE 2.0 says 200 g.
        let plan = EnergyPlan::new(CarbonSignal::Constant(500.0)).with_pue(&[2.0]);
        let mut acc = EnergyAccum::new(plan, 0.0, 100.0, 0.0, &[("aggregated", 100.0)]);
        acc.tick(3600.0, 300.0, 0.0, &[("aggregated", 300.0)]);
        acc.add_tokens(false, 10);
        let row = acc.finish(3600.0, 360.0);
        assert!((row.it_wh - 200.0).abs() < 1e-9, "{}", row.it_wh);
        assert!((row.facility_wh - 400.0).abs() < 1e-9);
        assert!((row.co2e_g - 200.0).abs() < 1e-9, "{}", row.co2e_g);
        assert!((row.busy_wh - 0.1).abs() < 1e-12);
        assert_eq!(row.wh_low, row.it_wh);
        assert_eq!(row.wh_high, 0.0);
        assert_eq!(row.pool_wh, vec![("aggregated", row.it_wh)]);
        assert_eq!(row.tokens(), 10);
        // joules/token = 200 Wh * 3600 / 10.
        let ledger = EnergyLedger::from_rows(&[row]);
        assert!((ledger.site.joules_per_token() - 72_000.0).abs() < 1e-6);
        assert!((ledger.site.co2e_g_per_token() - 20.0).abs() < 1e-9);
        assert!((ledger.mean_g_per_kwh() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn accum_splits_classes_and_pools() {
        let plan = EnergyPlan::new(CarbonSignal::Constant(0.0)).with_pue(&[1.0]);
        let mut acc = EnergyAccum::new(
            plan,
            0.0,
            100.0,
            200.0,
            &[("prefill", 100.0), ("decode", 200.0)],
        );
        acc.tick(36.0, 100.0, 200.0, &[("prefill", 100.0), ("decode", 200.0)]);
        let row = acc.finish(36.0, 0.0);
        assert!((row.wh_low - 1.0).abs() < 1e-9);
        assert!((row.wh_high - 2.0).abs() < 1e-9);
        assert_eq!(row.pool_wh.len(), 2);
        assert_eq!(row.pool_wh[0].0, "decode");
        assert!((row.pool_wh[0].1 - 2.0).abs() < 1e-9);
        assert_eq!(row.pool_wh[1].0, "prefill");
        assert!((row.pool_wh[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_rolls_up_hierarchy_levels_deterministically() {
        let plan = EnergyPlan::new(CarbonSignal::Constant(100.0)).with_pue(&[1.5, 1.25]);
        let mut rows = Vec::new();
        for (row, pdu, dc) in [(2usize, 1usize, 1usize), (0, 0, 0), (1, 0, 0)] {
            let p = plan.at_location(row, pdu, dc);
            let (lo, hi) = if dc == 1 { (0.0, 360.0) } else { (360.0, 0.0) };
            let mut acc = EnergyAccum::new(p, 0.0, lo, hi, &[("aggregated", 360.0)]);
            acc.tick(3600.0, lo, hi, &[("aggregated", 360.0)]);
            acc.add_tokens(dc == 1, 100);
            rows.push(acc.finish(3600.0, 720.0));
        }
        let ledger = EnergyLedger::from_rows(&rows);
        // Rows come back in canonical order regardless of record order.
        assert_eq!(
            ledger.rows.iter().map(|r| r.row).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!((ledger.site.it_wh - 3.0 * 360.0).abs() < 1e-9);
        assert!((ledger.site.busy_wh - 3.0 * 0.2).abs() < 1e-9);
        assert_eq!(ledger.datacenters.len(), 2);
        assert_eq!(ledger.datacenters[0].0, 0);
        assert!((ledger.datacenters[0].1.it_wh - 720.0).abs() < 1e-9);
        assert!((ledger.datacenters[0].2 - 1.5).abs() < 1e-12);
        assert!((ledger.datacenters[1].2 - 1.25).abs() < 1e-12);
        assert_eq!(ledger.pdus.len(), 2);
        assert_eq!(ledger.tokens_low, 200);
        assert_eq!(ledger.tokens_high, 100);
        // Shuffled input produces the identical ledger.
        let mut shuffled = rows.clone();
        shuffled.swap(0, 2);
        assert_eq!(EnergyLedger::from_rows(&shuffled), ledger);
        // And byte-identical artifacts.
        assert_eq!(
            EnergyLedger::from_rows(&shuffled).to_json(),
            ledger.to_json()
        );
        assert_eq!(
            EnergyLedger::from_rows(&shuffled).series_csv(),
            ledger.series_csv()
        );
    }

    #[test]
    fn exporters_cover_every_surface() {
        let plan = EnergyPlan::new(CarbonSignal::diurnal_default());
        let mut acc = EnergyAccum::new(plan, 0.0, 0.0, 250.0, &[("aggregated", 250.0)]);
        for k in 1..=8 {
            acc.tick(k as f64 * 450.0, 0.0, 250.0, &[("aggregated", 250.0)]);
        }
        acc.add_tokens(true, 1000);
        let ledger = EnergyLedger::from_rows(&[acc.finish(3600.0, 1000.0)]);
        let json = ledger.to_json();
        for key in [
            "\"site\"",
            "\"datacenters\"",
            "\"pdus\"",
            "\"rows\"",
            "\"classes\"",
            "\"pools\"",
            "\"mean_g_per_kwh\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let prom = ledger.prometheus();
        for key in [
            "energy_site_wh",
            "energy_site_busy_wh",
            "energy_facility_wh",
            "energy_datacenter_wh{datacenter=\"0\"}",
            "energy_pdu_wh{pdu=\"0\"}",
            "energy_row_wh{row=\"0\"}",
            "energy_class_wh{tag=\"high\"}",
            "energy_pool_wh{tag=\"aggregated\"}",
            "energy_joules_per_token",
            "carbon_site_g",
            "carbon_g_per_token",
            "carbon_mean_g_per_kwh",
        ] {
            assert!(prom.contains(key), "missing {key} in {prom}");
        }
        let csv = ledger.series_csv();
        assert!(csv.starts_with("t_s,it_wh,facility_wh,co2e_g,g_per_kwh\n"));
        // Samples at 900 s stride; the horizon coincides with the last
        // stride sample, so no extra seal row is added.
        assert_eq!(csv.lines().count() - 1, 4);
        let lanes = |ledger: &EnergyLedger| {
            render(|w| {
                let mut doc = TraceEvents::begin(w)?;
                ledger.write_chrome_counter_lanes(&mut doc)?;
                doc.finish()
            })
        };
        let doc = lanes(&ledger);
        assert!(
            doc.lines().nth(1).unwrap().contains("polca-energy"),
            "{doc}"
        );
        assert!(doc.contains("\"name\":\"energy_wh\""), "{doc}");
        assert!(doc.contains("\"name\":\"carbon\""), "{doc}");
        // Empty ledger exports nothing.
        let empty = EnergyLedger::from_rows(&[]);
        assert!(empty.prometheus().is_empty());
        assert_eq!(lanes(&empty), render(|w| TraceEvents::begin(w)?.finish()));
    }

    #[test]
    fn pue_table_clamps_to_last_entry() {
        let plan = EnergyPlan::new(CarbonSignal::Constant(0.0)).with_pue(&[1.5, 1.2]);
        assert_eq!(plan.at_location(0, 0, 0).pue_for_dc(), 1.5);
        assert_eq!(plan.at_location(0, 0, 1).pue_for_dc(), 1.2);
        assert_eq!(plan.at_location(0, 0, 7).pue_for_dc(), 1.2);
        // Sub-1.0 / non-finite entries are clamped to 1.0.
        let plan = EnergyPlan::new(CarbonSignal::Constant(0.0)).with_pue(&[0.5, f64::NAN]);
        assert_eq!(plan.at_location(0, 0, 0).pue_for_dc(), 1.0);
        assert_eq!(plan.at_location(0, 0, 1).pue_for_dc(), 1.0);
    }
}
