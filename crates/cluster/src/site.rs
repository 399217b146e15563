//! Site simulation: N datacenters of M rows under one power tree, with
//! deterministic parallel row execution.
//!
//! [`SiteSim`] is the only multi-row driver. It composes resumable
//! [`RowSim`] engines into the power hierarchy of Figure 2 — rows
//! behind PDUs, PDUs inside datacenters, datacenters on one site bus
//! (a utility substation in the ~25+ datacenter deployments the
//! provisioning literature targets) — and monitors, and optionally
//! enforces, a budget at every PDU, every datacenter and the site.
//! A default [`SiteConfig`] is one row under one PDU, which replays
//! the single-row [`ClusterSim`] path bit for bit.
//!
//! # The power tree
//!
//! `PowerTree` is built once from the [`SiteConfig`] fields: a list of
//! three levels (PDU, datacenter, site), each a list of nodes, each
//! node a contiguous range of *global* row indices plus its resolved
//! budget. A budget is the absolute override if set, else
//! `provisioned / (1 + f)` for an oversubscription fraction `f`, else
//! the provisioned power of the rows beneath. Datacenter `d` owns rows
//! `d * rows_per_datacenter ..`; PDU indices are global too and the
//! last PDU of a datacenter may feed fewer rows. PDU and datacenter
//! power sum their rows in row order; site power sums the datacenter
//! sums.
//!
//! # Window/merge protocol
//!
//! Rows have fully independent state: their own event queue, RNG
//! stream ([`row_seed`]), recorder cell, and OOB control plane. The
//! site steps them in lockstep telemetry windows:
//!
//! 1. **Plan.** From the cached next-event time of every row, list the
//!    rows with an event due at or before the boundary (an idle row
//!    costs nothing — see `ProfCounter::FleetRowsSkipped`).
//! 2. **Step.** Run `step_until(boundary)` on each due row. With one
//!    thread the main thread walks the list in order; with more,
//!    workers on a scoped pool claim rows off an atomic cursor. Rows
//!    share no mutable state, so any claim order yields the same
//!    per-row result. This is the only step that depends on the
//!    thread count.
//! 3. **Merge** (`fleet.merge` phase). The main thread refreshes the
//!    per-row caches (next event time, instantaneous power) in
//!    canonical row order.
//! 4. **Observe** (`fleet.power_aggregation` phase, plus
//!    `site.aggregate` for the site level). Still single-threaded,
//!    walk the power tree level by level: record gauges and violation
//!    events in node order and run each node's brake hysteresis; brake
//!    commands are injected into the affected rows' queues before the
//!    next window.
//!
//! # Determinism argument
//!
//! Everything emitted into the *site-level* recorder happens in steps
//! 3–4 on the main thread, in row/PDU/datacenter index order — the
//! thread pool never touches it. Everything a *row* emits goes to that
//! row's private recorder, and a row's trajectory over a window is a
//! pure function of its state at the previous boundary (plus injected
//! commands, which are decided in step 4 from merged state only). So
//! `threads = 1` and `threads = K` produce byte-identical artifacts;
//! `tests/site_sim.rs` pins this with proptests.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use polca_obs::{Event, Label, Phase, ProfCounter, Recorder};
use polca_sim::SimTime;
use polca_telemetry::ControlAction;

use crate::request::{Priority, Request};
use crate::row::RowConfig;
use crate::sim::{
    ClusterSim, ControlRequest, ControlTarget, PowerController, RowSim, SimConfig, SimReport,
};

/// Aggregate power must fall below this fraction of a budget before an
/// enforcement brake releases (hysteresis against brake/unbrake limit
/// cycles at the breaker threshold). Shared by every hierarchy level.
const RELEASE_FRACTION: f64 = 0.95;

/// Derives the seed for site row `row` from the site seed.
///
/// The mix is a splitmix64-style finalizer over the row index with no
/// additive constants, so `row_seed(seed, 0) == seed` — the first row
/// of a site replays exactly the RNG streams of a single-row run with
/// the same seed — while distinct rows land on well-separated streams.
pub fn row_seed(site_seed: u64, row: usize) -> u64 {
    let mut x = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    site_seed ^ x
}

/// Each row consumes its pre-split share of the arrival stream: an
/// owned iterator, so rows can step on worker threads without sharing
/// a dispatcher.
type RowFeed = std::vec::IntoIter<Request>;

/// One row engine driving its owned feed, behind the lock that lets
/// pool workers claim it.
type RowCell<P> = Mutex<RowSim<P, RowFeed>>;

/// Splits `source` across `n` rows by strict round-robin: request `k`
/// goes to row `k % n`, preserving per-row arrival order, so a 1-row
/// site feeds its single row the unmodified stream.
fn split_round_robin(source: impl Iterator<Item = Request>, n: usize) -> Vec<RowFeed> {
    let mut buckets: Vec<Vec<Request>> = (0..n).map(|_| Vec::new()).collect();
    for (k, req) in source.enumerate() {
        buckets[k % n].push(req);
    }
    buckets.into_iter().map(Vec::into_iter).collect()
}

/// The brake command a budget enforcer injects into member rows.
fn brake_request(on: bool) -> ControlRequest {
    ControlRequest {
        target: ControlTarget::All,
        action: ControlAction::PowerBrake { on },
    }
}

/// Locks a row engine. The lock is poisoned only if a worker panicked
/// mid-step, which leaves the row's state unusable.
fn lock<P>(cell: &RowCell<P>) -> MutexGuard<'_, RowSim<P, RowFeed>> {
    cell.lock().expect("row engine poisoned")
}

/// Site-level simulator knobs, wrapping the per-row [`SimConfig`].
///
/// A default config is a 1-datacenter, 1-row, single-threaded site —
/// the degenerate case that reproduces the single-row path bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteConfig {
    /// Number of datacenters on the site bus.
    pub datacenters: usize,
    /// Rows per datacenter.
    pub rows_per_datacenter: usize,
    /// Rows behind each PDU (the last PDU of a datacenter may feed
    /// fewer).
    pub rows_per_pdu: usize,
    /// Per-PDU budget override in watts (`None`: provisioned, or the
    /// oversubscription-derived budget).
    pub pdu_budget_watts: Option<f64>,
    /// Per-datacenter budget override in watts.
    pub datacenter_budget_watts: Option<f64>,
    /// Site budget override in watts.
    pub site_budget_watts: Option<f64>,
    /// PDU oversubscription fraction `f` (budget = provisioned /
    /// (1 + f)); an absolute override wins.
    pub pdu_oversubscription: Option<f64>,
    /// Datacenter oversubscription fraction.
    pub datacenter_oversubscription: Option<f64>,
    /// Site oversubscription fraction.
    pub site_oversubscription: Option<f64>,
    /// When `true`, actively engage the power brake on every row
    /// behind an overloaded PDU, datacenter, or site (release
    /// hysteresis at 95 % of the budget); when `false` (default)
    /// budgets are monitored only.
    pub enforce_budgets: bool,
    /// Worker threads for parallel row stepping (clamped to the row
    /// count; `0` or `1` means sequential). Artifacts are
    /// byte-identical at any value.
    pub threads: usize,
    /// The per-row configuration template. `seed` is stream-split per
    /// row via [`row_seed`]; `recorder` becomes the *site-level*
    /// recorder while each row records into a fresh cell of the same
    /// level; `oob_taps` fan out with the global row index attached.
    pub base: SimConfig,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            datacenters: 1,
            rows_per_datacenter: 1,
            rows_per_pdu: 1,
            pdu_budget_watts: None,
            datacenter_budget_watts: None,
            site_budget_watts: None,
            pdu_oversubscription: None,
            datacenter_oversubscription: None,
            site_oversubscription: None,
            enforce_budgets: false,
            threads: 1,
            base: SimConfig::default(),
        }
    }
}

impl SiteConfig {
    /// Whether this config engages the site level at all: more than
    /// one datacenter, or an explicit site budget/oversubscription.
    /// When inactive, no site-scoped gauges or events are emitted and
    /// the datacenter series stay unpartitioned.
    pub fn site_active(&self) -> bool {
        self.datacenters > 1
            || self.site_budget_watts.is_some()
            || self.site_oversubscription.is_some()
    }
}

/// Everything a site run produces.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Per-row reports, in global row order.
    pub rows: Vec<SimReport>,
    /// Per-row recorders (fresh cells at the site config's level; row
    /// 0's event log is bit-identical to a solo run when budgets are
    /// not enforced).
    pub row_recorders: Vec<Recorder>,
    /// Number of datacenters simulated.
    pub datacenters: usize,
    /// Rows per datacenter.
    pub rows_per_datacenter: usize,
    /// Highest aggregate power seen at each PDU (global PDU order).
    pub pdu_peak_watts: Vec<f64>,
    /// Budget of each PDU, in watts.
    pub pdu_budget_watts: Vec<f64>,
    /// Highest aggregate power seen in each datacenter, in watts.
    pub datacenter_peak_watts: Vec<f64>,
    /// The per-datacenter budget, in watts.
    pub datacenter_budget_watts: f64,
    /// Highest site aggregate power seen, in watts.
    pub site_peak_watts: f64,
    /// The site budget, in watts.
    pub site_budget_watts: f64,
    /// Boundary samples at which some PDU exceeded its budget.
    pub pdu_violation_samples: u64,
    /// Boundary samples at which some datacenter exceeded its budget.
    pub datacenter_violation_samples: u64,
    /// Boundary samples at which the site exceeded its budget.
    pub site_violation_samples: u64,
    /// Site-level brake engagements, all levels (enforcement only).
    pub fleet_brake_engagements: u64,
    /// Duration simulated.
    pub duration: SimTime,
}

impl SiteReport {
    /// Total requests offered across rows.
    pub fn offered(&self) -> u64 {
        self.rows.iter().map(|r| r.offered).sum()
    }

    /// Total requests completed across rows.
    pub fn completed(&self) -> u64 {
        self.rows.iter().map(|r| r.completed).sum()
    }

    /// Total requests rejected across rows.
    pub fn rejected(&self) -> u64 {
        self.rows.iter().map(|r| r.rejected).sum()
    }

    /// Total discrete events processed across rows.
    pub fn events_processed(&self) -> u64 {
        self.rows.iter().map(|r| r.events_processed).sum()
    }

    /// All completion latencies for `priority`, concatenated in global
    /// row order (quantiles over the site, not one row).
    pub fn latencies(&self, priority: Priority) -> Vec<f64> {
        let mut all = Vec::new();
        for r in &self.rows {
            all.extend_from_slice(r.latencies(priority));
        }
        all
    }

    /// Global row indices of datacenter `d`.
    pub fn rows_in_datacenter(&self, d: usize) -> Range<usize> {
        d * self.rows_per_datacenter..(d + 1) * self.rows_per_datacenter
    }

    /// Site peak power as a fraction of the site budget.
    pub fn site_peak_utilization(&self) -> f64 {
        self.site_peak_watts / self.site_budget_watts
    }

    /// Peak power of datacenter `d` as a fraction of its budget.
    pub fn datacenter_peak_utilization(&self, d: usize) -> f64 {
        self.datacenter_peak_watts[d] / self.datacenter_budget_watts
    }

    /// Sum of the rows' time-weighted mean powers (the site's mean
    /// aggregate power).
    pub fn mean_site_watts(&self) -> f64 {
        self.rows.iter().map(|r| r.mean_row_watts).sum()
    }
}

/// Level indices into [`PowerTree::levels`].
const PDU: usize = 0;
const DATACENTER: usize = 1;
const SITE: usize = 2;

/// One breaker of the power tree.
#[derive(Debug, Clone, PartialEq)]
struct PowerNode {
    /// The contiguous global rows it feeds.
    rows: Range<usize>,
    /// The resolved budget in watts.
    budget_watts: f64,
    /// The label of its metric series.
    label: Label,
}

/// One level of the power tree and the names it reports under.
#[derive(Debug, Clone, PartialEq)]
struct Level {
    /// `BudgetViolation` scope of this level's events.
    scope: &'static str,
    power_gauge: &'static str,
    violation_counter: &'static str,
    brake_counter: &'static str,
    /// Whether the level emits metrics and events and enforces its
    /// budget. Peaks are tracked either way.
    active: bool,
    nodes: Vec<PowerNode>,
}

/// The site's power hierarchy: PDU, datacenter and site levels over
/// global row indices (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
struct PowerTree {
    levels: [Level; 3],
}

/// A budget: the absolute override if set, else `provisioned / (1 + f)`
/// for an oversubscription fraction `f`, else `provisioned`.
fn resolve_budget(provisioned: f64, absolute: Option<f64>, oversubscription: Option<f64>) -> f64 {
    if let Some(f) = oversubscription {
        assert!(f >= 0.0, "oversubscription fraction must be non-negative");
    }
    absolute.unwrap_or_else(|| oversubscription.map_or(provisioned, |f| provisioned / (1.0 + f)))
}

impl PowerTree {
    /// Builds the tree `site` describes for rows provisioned at
    /// `row_watts` each.
    ///
    /// # Panics
    ///
    /// Panics if any shape count is zero or an oversubscription
    /// fraction is negative or NaN.
    fn new(site: &SiteConfig, row_watts: f64) -> Self {
        assert!(site.datacenters > 0, "a site needs at least one datacenter");
        assert!(
            site.rows_per_datacenter > 0,
            "a datacenter needs at least one row"
        );
        assert!(site.rows_per_pdu > 0, "a PDU must feed at least one row");
        let per_dc = site.rows_per_datacenter;
        let dc_provisioned = per_dc as f64 * row_watts;
        let mut pdus = Vec::new();
        let mut dcs = Vec::new();
        for d in 0..site.datacenters {
            let dc_rows = d * per_dc..(d + 1) * per_dc;
            for start in dc_rows.clone().step_by(site.rows_per_pdu) {
                let rows = start..(start + site.rows_per_pdu).min(dc_rows.end);
                pdus.push(PowerNode {
                    budget_watts: resolve_budget(
                        rows.len() as f64 * row_watts,
                        site.pdu_budget_watts,
                        site.pdu_oversubscription,
                    ),
                    label: Label::Pdu(pdus.len()),
                    rows,
                });
            }
            // A 1-datacenter site keeps the unpartitioned series.
            let label = if site.datacenters == 1 {
                Label::Global
            } else {
                Label::Datacenter(d)
            };
            dcs.push(PowerNode {
                rows: dc_rows,
                budget_watts: resolve_budget(
                    dc_provisioned,
                    site.datacenter_budget_watts,
                    site.datacenter_oversubscription,
                ),
                label,
            });
        }
        let bus = PowerNode {
            rows: 0..site.datacenters * per_dc,
            budget_watts: resolve_budget(
                site.datacenters as f64 * dc_provisioned,
                site.site_budget_watts,
                site.site_oversubscription,
            ),
            label: Label::Global,
        };
        PowerTree {
            levels: [
                Level {
                    scope: "pdu",
                    power_gauge: "fleet.pdu_power_w",
                    violation_counter: "fleet.pdu_violations",
                    brake_counter: "fleet.brake_engagements",
                    active: true,
                    nodes: pdus,
                },
                Level {
                    scope: "datacenter",
                    power_gauge: "fleet.datacenter_power_w",
                    violation_counter: "fleet.datacenter_violations",
                    brake_counter: "fleet.brake_engagements",
                    active: true,
                    nodes: dcs,
                },
                Level {
                    scope: "site",
                    power_gauge: "site.power_w",
                    violation_counter: "site.budget_violations",
                    brake_counter: "site.brake_engagements",
                    active: site.site_active(),
                    nodes: vec![bus],
                },
            ],
        }
    }

    /// Total rows under the site bus.
    fn n_rows(&self) -> usize {
        self.levels[SITE].nodes[0].rows.end
    }

    /// The index of the node at `level` that feeds `row`.
    fn node_of(&self, level: usize, row: usize) -> usize {
        self.levels[level]
            .nodes
            .partition_point(|n| n.rows.end <= row)
    }

    /// Per-level node powers for the given per-row powers: PDU and
    /// datacenter nodes sum their rows in row order, the site node sums
    /// the datacenter sums.
    fn aggregate(&self, row_watts: &[f64]) -> [Vec<f64>; 3] {
        let sum_rows = |level: usize| -> Vec<f64> {
            self.levels[level]
                .nodes
                .iter()
                .map(|n| n.rows.clone().fold(0.0, |acc, r| acc + row_watts[r]))
                .collect()
        };
        let dcs = sum_rows(DATACENTER);
        let site = vec![dcs.iter().sum()];
        [sum_rows(PDU), dcs, site]
    }
}

/// Per-level monitor state, parallel to [`Level::nodes`].
struct LevelState {
    peak: Vec<f64>,
    braked: Vec<bool>,
    /// Boundary samples at which some node of the level was over
    /// budget.
    violation_samples: u64,
}

/// Boundary-time monitor: tree roll-up, peaks, violation counters, and
/// per-node brake hysteresis. Only ever touched by the main thread,
/// between windows.
struct SiteMonitor {
    obs: Recorder,
    tree: PowerTree,
    enforce: bool,
    state: [LevelState; 3],
    /// The brake state actually applied to each row (the OR of the
    /// nodes above it, tracked explicitly so overlapping engagements
    /// release correctly).
    row_braked: Vec<bool>,
    brakes: u64,
}

impl SiteMonitor {
    fn new(obs: Recorder, tree: PowerTree, enforce: bool) -> Self {
        let state = tree.levels.each_ref().map(|level| LevelState {
            peak: vec![0.0; level.nodes.len()],
            braked: vec![false; level.nodes.len()],
            violation_samples: 0,
        });
        SiteMonitor {
            obs,
            row_braked: vec![false; tree.n_rows()],
            tree,
            enforce,
            state,
            brakes: 0,
        }
    }

    /// Aggregates ground-truth power at a window boundary: records
    /// metrics/events, tracks peaks and violations, and (in
    /// enforcement mode) decides per-row brake toggles, returned in
    /// decision order for the caller to inject.
    fn observe(&mut self, now: SimTime, row_watts: &[f64], stepped: usize) -> Vec<(usize, bool)> {
        let _p = self.obs.prof().time(Phase::PowerAggregation);
        self.obs.prof().count(ProfCounter::FleetWindows, 1);
        self.obs
            .prof()
            .count(ProfCounter::FleetRowWindows, stepped as u64);
        self.obs.prof().count(
            ProfCounter::FleetRowsSkipped,
            (row_watts.len() - stepped) as u64,
        );
        let t = now.as_secs();
        let mut toggles = Vec::new();
        for (i, &w) in row_watts.iter().enumerate() {
            self.obs.gauge("fleet.row_power_w", Label::Row(i), w);
            self.obs.record(Event::FleetPowerSample {
                t,
                row: i,
                watts: w,
            });
        }
        for (level, powers) in self.tree.aggregate(row_watts).iter().enumerate() {
            let active = self.tree.levels[level].active;
            let _site_phase = if active && level == SITE {
                self.obs.prof().time(Phase::SiteAggregation)
            } else {
                None
            };
            let mut violated = false;
            for (node, &w) in powers.iter().enumerate() {
                let peak = &mut self.state[level].peak[node];
                if w > *peak {
                    *peak = w;
                }
                if !active {
                    continue;
                }
                let lvl = &self.tree.levels[level];
                let (budget, label) = (lvl.nodes[node].budget_watts, lvl.nodes[node].label);
                self.obs.gauge(lvl.power_gauge, label, w);
                if w > budget {
                    violated = true;
                    self.obs.add(lvl.violation_counter, label, 1);
                    self.obs.record(Event::BudgetViolation {
                        t,
                        scope: lvl.scope,
                        unit: node,
                        watts: w,
                        budget_watts: budget,
                    });
                }
                if self.enforce {
                    self.hysteresis(level, node, w, &mut toggles);
                }
            }
            if violated {
                self.state[level].violation_samples += 1;
            }
        }
        toggles
    }

    /// Brake hysteresis of one node: engage above budget, release below
    /// [`RELEASE_FRACTION`] of it. A toggle is emitted only when a
    /// member row's *applied* state changes, so a release at one level
    /// never lifts a brake another level still requires.
    fn hysteresis(
        &mut self,
        level: usize,
        node: usize,
        watts: f64,
        toggles: &mut Vec<(usize, bool)>,
    ) {
        let PowerNode {
            rows,
            budget_watts,
            label,
        } = self.tree.levels[level].nodes[node].clone();
        let braked = self.state[level].braked[node];
        let engage = watts > budget_watts && !braked;
        let release = braked && watts < budget_watts * RELEASE_FRACTION;
        if !(engage || release) {
            return;
        }
        self.state[level].braked[node] = engage;
        if engage {
            self.brakes += 1;
            self.obs
                .add(self.tree.levels[level].brake_counter, label, 1);
        }
        for row in rows {
            if engage {
                if !self.row_braked[row] {
                    self.row_braked[row] = true;
                    toggles.push((row, true));
                }
            } else if self.row_braked[row] && !self.any_level_braking(row) {
                self.row_braked[row] = false;
                toggles.push((row, false));
            }
        }
    }

    /// Whether any node above `row` currently holds a brake.
    fn any_level_braking(&self, row: usize) -> bool {
        (0..self.state.len()).any(|level| self.state[level].braked[self.tree.node_of(level, row)])
    }

    /// The window loop: plan, step (`step(boundary, due_rows)`, the only
    /// part that depends on the thread count), merge, observe, inject.
    fn run_windows<P: PowerController>(
        &mut self,
        cells: &[RowCell<P>],
        window: SimTime,
        horizon: SimTime,
        mut step: impl FnMut(SimTime, &[usize]),
    ) {
        let n = cells.len();
        let mut next_at: Vec<Option<SimTime>> =
            cells.iter().map(|c| lock(c).next_event_time()).collect();
        let mut row_watts: Vec<f64> = cells.iter().map(|c| lock(c).row_power_watts()).collect();
        let mut due: Vec<usize> = Vec::with_capacity(n);
        let mut t = SimTime::ZERO;
        loop {
            let target = (t + window).min(horizon);
            due.clear();
            due.extend((0..n).filter(|&i| next_at[i].is_some_and(|at| at <= target)));
            step(target, &due);
            {
                let _m = self.obs.prof().time(Phase::FleetMerge);
                for &i in &due {
                    let row = lock(&cells[i]);
                    next_at[i] = row.next_event_time();
                    row_watts[i] = row.row_power_watts();
                }
            }
            t = target;
            for (row, on) in self.observe(t, &row_watts, due.len()) {
                let mut r = lock(&cells[row]);
                r.inject(t, brake_request(on));
                next_at[row] = r.next_event_time();
            }
            if t >= horizon {
                break;
            }
        }
    }
}

/// A window's work deque: the boundary time plus the rows with a due
/// event, claimed index-by-index off an atomic cursor by the workers.
struct WindowPlan {
    target: SimTime,
    due: Vec<usize>,
}

/// Claims due rows off the shared cursor and steps each to the window
/// boundary. Runs on every pool thread, main included.
fn drain_due<P: PowerController>(
    cells: &[RowCell<P>],
    plan: &Mutex<WindowPlan>,
    cursor: &AtomicUsize,
) {
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let (target, row) = {
            let p = plan.lock().expect("window plan poisoned");
            match p.due.get(k) {
                Some(&row) => (p.target, row),
                None => break,
            }
        };
        lock(&cells[row]).step_until(target);
    }
}

/// N datacenters of M lockstep row engines under the site power tree,
/// optionally stepped by a scoped worker pool.
///
/// See the [module docs](self) for the window/merge protocol and the
/// determinism contract. Controller construction is a factory so every
/// row gets an independent policy instance (policies carry mutable
/// per-row state).
pub struct SiteSim<P> {
    rows: Vec<RowCell<P>>,
    row_recorders: Vec<Recorder>,
    monitor: SiteMonitor,
    rows_per_datacenter: usize,
    window: SimTime,
    horizon: SimTime,
    threads: usize,
}

impl<P: PowerController> SiteSim<P> {
    /// Builds a site of `site.datacenters × site.rows_per_datacenter`
    /// copies of `row`, each driven by its round-robin share of
    /// `source` and controlled by its own
    /// `make_controller(global_row_index, row_recorder)` instance, up
    /// to `horizon`. The recorder handed to the factory is the fresh
    /// per-row recorder the row simulates into, so controllers that
    /// record their own transitions land them in the right row's log.
    ///
    /// # Panics
    ///
    /// Panics if any shape count is zero, an oversubscription fraction
    /// is negative or NaN, or the base telemetry interval is not
    /// positive.
    pub fn new(
        row: RowConfig,
        site: SiteConfig,
        mut make_controller: impl FnMut(usize, &Recorder) -> P,
        source: impl Iterator<Item = Request>,
        horizon: SimTime,
    ) -> Self {
        assert!(
            site.base.telemetry_interval_s > 0.0,
            "site stepping needs a positive telemetry interval"
        );
        let tree = PowerTree::new(&site, row.provisioned_watts());
        let n = tree.n_rows();
        let feeds = split_round_robin(source, n);
        let mut rows = Vec::with_capacity(n);
        let mut row_recorders = Vec::with_capacity(n);
        for (i, feed) in feeds.into_iter().enumerate() {
            let mut recorder = site.base.recorder.fresh_cell();
            // Stamp each row's hierarchy coordinates onto its energy
            // plan so the polca-energy ledger can roll rows up into
            // PDU/datacenter/site levels.
            if let Some(plan) = site.base.recorder.energy_plan() {
                recorder = recorder.with_energy(plan.at_location(
                    i,
                    tree.node_of(PDU, i),
                    tree.node_of(DATACENTER, i),
                ));
            }
            let mut cfg = site.base.clone();
            cfg.seed = row_seed(site.base.seed, i);
            cfg.recorder = recorder.clone();
            cfg.oob_taps = site.base.oob_taps.for_row(i);
            let controller = make_controller(i, &recorder);
            let engine = ClusterSim::new(row.clone(), cfg, controller).into_row_sim(feed, horizon);
            rows.push(Mutex::new(engine));
            row_recorders.push(recorder);
        }
        SiteSim {
            rows,
            row_recorders,
            monitor: SiteMonitor::new(site.base.recorder, tree, site.enforce_budgets),
            rows_per_datacenter: site.rows_per_datacenter,
            window: SimTime::from_secs(site.base.telemetry_interval_s),
            horizon,
            threads: site.threads,
        }
    }

    /// Runs every row to the horizon, aggregating power at each
    /// telemetry-window boundary, and returns the site report.
    pub fn run(mut self) -> SiteReport {
        let threads = self.threads.clamp(1, self.rows.len());
        if threads == 1 {
            let cells = &self.rows;
            self.monitor
                .run_windows(cells, self.window, self.horizon, |target, due| {
                    for &i in due {
                        lock(&cells[i]).step_until(target);
                    }
                });
        } else {
            self.run_pooled(threads);
        }
        let tree = &self.monitor.tree;
        let [pdus, dcs, site] = self.monitor.state;
        SiteReport {
            datacenters: tree.levels[DATACENTER].nodes.len(),
            rows_per_datacenter: self.rows_per_datacenter,
            pdu_budget_watts: tree.levels[PDU]
                .nodes
                .iter()
                .map(|n| n.budget_watts)
                .collect(),
            datacenter_budget_watts: tree.levels[DATACENTER].nodes[0].budget_watts,
            site_budget_watts: tree.levels[SITE].nodes[0].budget_watts,
            rows: self
                .rows
                .into_iter()
                .map(|cell| cell.into_inner().expect("row engine poisoned").finish())
                .collect(),
            row_recorders: self.row_recorders,
            pdu_peak_watts: pdus.peak,
            datacenter_peak_watts: dcs.peak,
            site_peak_watts: site.peak[0],
            pdu_violation_samples: pdus.violation_samples,
            datacenter_violation_samples: dcs.violation_samples,
            site_violation_samples: site.violation_samples,
            fleet_brake_engagements: self.monitor.brakes,
            duration: self.horizon,
        }
    }

    /// Steps the window loop on `threads - 1` persistent scoped
    /// workers plus the main thread, which claim due rows off an atomic
    /// cursor and rendezvous at barriers so merge/observe stay
    /// single-threaded. Spawning once for the whole run (not per
    /// window) keeps the per-window cost at two barrier waits.
    fn run_pooled(&mut self, threads: usize) {
        let plan = Mutex::new(WindowPlan {
            target: SimTime::ZERO,
            due: Vec::new(),
        });
        let cursor = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(threads);
        let (cells, plan, cursor, done, barrier) = (&self.rows, &plan, &cursor, &done, &barrier);
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(move || loop {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    drain_due(cells, plan, cursor);
                    barrier.wait();
                });
            }
            self.monitor
                .run_windows(cells, self.window, self.horizon, |target, due| {
                    {
                        let mut p = plan.lock().expect("window plan poisoned");
                        p.target = target;
                        p.due.clear();
                        p.due.extend_from_slice(due);
                    }
                    cursor.store(0, Ordering::Relaxed);
                    barrier.wait();
                    drain_due(cells, plan, cursor);
                    barrier.wait();
                });
            done.store(true, Ordering::Release);
            barrier.wait();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NoopController;
    use polca_obs::ObsLevel;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 4;
        row
    }

    fn mixed_requests(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i,
                    t(i as f64 * 3.0),
                    1024,
                    64,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect()
    }

    fn site_config(datacenters: usize, rows_per_datacenter: usize, threads: usize) -> SiteConfig {
        SiteConfig {
            datacenters,
            rows_per_datacenter,
            rows_per_pdu: 2,
            threads,
            base: SimConfig {
                recorder: Recorder::new(ObsLevel::Full),
                ..SimConfig::default()
            },
            ..SiteConfig::default()
        }
    }

    fn run_site(cfg: SiteConfig, horizon: f64) -> SiteReport {
        SiteSim::new(
            small_row(),
            cfg,
            |_, _: &Recorder| NoopController,
            mixed_requests(120).into_iter(),
            t(horizon),
        )
        .run()
    }

    #[test]
    fn row_seed_is_identity_for_row_zero() {
        assert_eq!(row_seed(42, 0), 42);
        assert_eq!(row_seed(0, 0), 0);
        assert_eq!(row_seed(u64::MAX, 0), u64::MAX);
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|r| row_seed(42, r)).collect();
        assert_eq!(seeds.len(), 64, "row seeds must be distinct");
    }

    #[test]
    fn power_tree_uses_global_indices_and_partial_pdus() {
        // 3 datacenters × 5 rows, 2 rows per PDU: 3 PDUs each, the last
        // one partial.
        let site = SiteConfig {
            datacenters: 3,
            rows_per_datacenter: 5,
            rows_per_pdu: 2,
            ..SiteConfig::default()
        };
        let tree = PowerTree::new(&site, 1000.0);
        let ranges = |level: usize| -> Vec<Range<usize>> {
            tree.levels[level]
                .nodes
                .iter()
                .map(|n| n.rows.clone())
                .collect()
        };
        assert_eq!(tree.n_rows(), 15);
        assert_eq!(
            ranges(PDU),
            [0..2, 2..4, 4..5, 5..7, 7..9, 9..10, 10..12, 12..14, 14..15]
        );
        assert_eq!(ranges(DATACENTER), [0..5, 5..10, 10..15]);
        assert_eq!(tree.levels[SITE].nodes[0].rows, 0..15);
        // Row 7 is local row 2 of datacenter 1: local PDU 1, global 4.
        assert_eq!(tree.node_of(PDU, 7), 4);
        assert_eq!(tree.node_of(DATACENTER, 4), 0);
        assert_eq!(tree.node_of(DATACENTER, 5), 1);
        // The partial PDU's provisioned budget counts only its one row.
        assert_eq!(tree.levels[PDU].nodes[1].budget_watts, 2000.0);
        assert_eq!(tree.levels[PDU].nodes[2].budget_watts, 1000.0);
        assert_eq!(tree.levels[DATACENTER].nodes[2].budget_watts, 5000.0);
        assert_eq!(tree.levels[SITE].nodes[0].budget_watts, 15_000.0);
        assert_eq!(tree.levels[DATACENTER].nodes[1].label, Label::Datacenter(1));
        assert!(tree.levels[SITE].active);
        // Child sums equal the parent reading at every level.
        let watts: Vec<f64> = (0..15).map(|i| 100.0 * (i + 1) as f64).collect();
        let [pdus, dcs, bus] = tree.aggregate(&watts);
        assert_eq!(pdus[..3], [300.0, 700.0, 500.0]);
        assert_eq!(dcs, [1500.0, 4000.0, 6500.0]);
        assert_eq!(bus, [12_000.0]);
        // One datacenter: unpartitioned series, site level dormant.
        let tree = PowerTree::new(&SiteConfig::default(), 1000.0);
        assert_eq!(tree.levels[DATACENTER].nodes[0].label, Label::Global);
        assert!(!tree.levels[SITE].active);
    }

    #[test]
    fn parallel_stepping_is_byte_identical_to_sequential() {
        let seq_cfg = site_config(2, 2, 1);
        let par_cfg = site_config(2, 2, 4);
        let (seq_obs, par_obs) = (seq_cfg.base.recorder.clone(), par_cfg.base.recorder.clone());
        let seq = run_site(seq_cfg, 900.0);
        let par = run_site(par_cfg, 900.0);
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.mean_row_watts, b.mean_row_watts);
        }
        for (a, b) in seq.row_recorders.iter().zip(&par.row_recorders) {
            assert_eq!(
                a.artifacts().events_jsonl(),
                b.artifacts().events_jsonl(),
                "per-row event logs must not depend on the thread count"
            );
        }
        let (a, b) = (seq_obs.artifacts(), par_obs.artifacts());
        assert!(!a.events.is_empty());
        assert_eq!(a.events_jsonl(), b.events_jsonl());
        assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    }

    #[test]
    fn one_datacenter_site_without_site_knobs_stays_inactive() {
        let cfg = site_config(1, 2, 1);
        assert!(!cfg.site_active());
        let obs = cfg.base.recorder.clone();
        let report = run_site(cfg, 600.0);
        assert_eq!(report.datacenters, 1);
        assert_eq!(report.site_violation_samples, 0);
        // Round-robin dispatch splits the 120 arrivals evenly.
        assert_eq!(report.rows[0].offered, 60);
        assert_eq!(report.rows[1].offered, 60);
        assert_eq!(report.offered(), 120);
        assert_eq!(
            report.latencies(Priority::Low).len(),
            report.rows[0].low_latencies_s.len() + report.rows[1].low_latencies_s.len()
        );
        let events = obs.artifacts().events_jsonl();
        assert!(!events.contains("\"site\""), "no site-scoped events");
        assert!(!obs.artifacts().metrics_json().contains("site.power_w"));
        // The site peak is still reported (it equals the datacenter's).
        assert_eq!(report.site_peak_watts, report.datacenter_peak_watts[0]);
    }

    #[test]
    fn budget_violations_are_recorded_per_scope() {
        // (datacenters, pdu, datacenter, site budget) → expected
        // (pdu, datacenter, site) violation samples over 100 s: one per
        // 2 s window wherever the budget is 1 W.
        let cases = [
            ((3, None, Some(1.0), Some(1.0)), [0, 50, 50]),
            ((1, Some(1.0), None, None), [50, 0, 0]),
        ];
        for ((datacenters, pdu, dc, site), expected) in cases {
            let mut cfg = site_config(datacenters, 2, 2);
            cfg.pdu_budget_watts = pdu;
            cfg.datacenter_budget_watts = dc;
            cfg.site_budget_watts = site;
            let obs = cfg.base.recorder.clone();
            let report = run_site(cfg, 100.0);
            let samples = [
                report.pdu_violation_samples,
                report.datacenter_violation_samples,
                report.site_violation_samples,
            ];
            assert_eq!(samples, expected);
            assert_eq!(report.fleet_brake_engagements, 0); // monitoring only
            assert!(report.rows.iter().all(|r| r.brake_engagements == 0));
            let events = obs.artifacts().events_jsonl();
            assert!(events.contains("\"fleet_power_sample\""));
            for (scope, &n) in ["pdu", "datacenter", "site"].iter().zip(&expected) {
                let tag = format!("\"scope\":\"{scope}\"");
                assert_eq!(events.contains(&tag), n > 0, "{tag}");
            }
            if datacenters > 1 {
                assert!(report.site_peak_utilization() > 1.0);
                let prom = obs.artifacts().metrics_prometheus();
                assert!(prom.contains("datacenter=\"2\""), "per-dc series:\n{prom}");
            }
        }
    }

    #[test]
    fn pdu_and_datacenter_enforcement_brake_every_row() {
        for budget_pdu in [true, false] {
            let mut free_cfg = site_config(1, 2, 1);
            if budget_pdu {
                free_cfg.pdu_budget_watts = Some(1.0);
            } else {
                free_cfg.datacenter_budget_watts = Some(1.0);
            }
            let free = run_site(free_cfg.clone(), 900.0);
            let mut braked_cfg = free_cfg;
            braked_cfg.enforce_budgets = true;
            braked_cfg.base.recorder = Recorder::new(ObsLevel::Full);
            let braked = run_site(braked_cfg, 900.0);
            assert_eq!(braked.fleet_brake_engagements, 1);
            assert_eq!(braked.rows[0].brake_engagements, 1);
            assert_eq!(braked.rows[1].brake_engagements, 1);
            assert!(braked.mean_site_watts() < free.mean_site_watts());
        }
    }

    #[test]
    fn overlapping_brakes_release_only_when_every_level_clears() {
        let site = SiteConfig {
            rows_per_datacenter: 2,
            rows_per_pdu: 2,
            ..SiteConfig::default()
        };
        let tree = PowerTree::new(&site, 1000.0);
        let mut m = SiteMonitor::new(Recorder::new(ObsLevel::Off), tree, true);
        let mut toggles = Vec::new();
        // Both the PDU and the datacenter engage on the same sample.
        m.hysteresis(PDU, 0, 2500.0, &mut toggles);
        m.hysteresis(DATACENTER, 0, 2500.0, &mut toggles);
        assert_eq!(toggles, vec![(0, true), (1, true)]);
        // The PDU releases but the datacenter still holds: no toggle.
        toggles.clear();
        m.hysteresis(PDU, 0, 1800.0, &mut toggles);
        assert!(toggles.is_empty());
        // Only once the datacenter also releases do the rows unbrake.
        m.hysteresis(DATACENTER, 0, 1800.0, &mut toggles);
        assert_eq!(toggles, vec![(0, false), (1, false)]);
        assert_eq!(m.brakes, 2);
    }

    #[test]
    fn idle_rows_are_skipped_not_scanned() {
        // A horizon that is not a multiple of the 2 s window leaves a
        // trailing fractional window in which no row has a due event —
        // the work deque skips them all.
        let cfg = site_config(1, 2, 1);
        let obs = cfg.base.recorder.clone();
        run_site(cfg, 7.0);
        let skipped = obs
            .prof()
            .snapshot()
            .counter(polca_obs::ProfCounter::FleetRowsSkipped);
        assert!(skipped >= 1, "trailing window skips idle rows: {skipped}");
    }
}
