//! The discrete-event inference-cluster simulator (§6.4).
//!
//! The simulator drives a row of inference servers through a request
//! trace: the row manager samples aggregate power every 2 s with a 2 s
//! propagation delay, and a pluggable [`PowerController`] observes the
//! (stale) telemetry and issues control requests that travel the slow
//! OOB plane before landing on devices. Everything is deterministic
//! under a fixed seed, so competing policies can be compared on
//! identical request streams.
//!
//! Two serving engines can carry the traffic, selected via
//! [`EngineKind`]:
//!
//! * **Legacy** (default) — the paper's §6.6 whole-request model:
//!   arrivals are dispatched to idle servers (or a one-request
//!   buffer) and progress through prompt and token phases,
//! * **Batched** — the `polca-serve` continuous-batching engine:
//!   iteration-level scheduling over a paged KV-cache, chunked
//!   prefill, and optionally disaggregated prefill/decode pools.
//!
//! Both engines sit below the same telemetry, OOB control, power
//! accounting, and observability planes, so every controller and
//! downstream consumer works unchanged on either.

use polca_llm::InferenceModel;
use polca_obs::{EnergyAccum, Event, Label, Phase, Recorder, ReqSpan};
use polca_serve::{
    AdmissionKind, BatchedRow, BatchedRowParams, ServeConfig, ServeOutcome, ServeRequest,
};
use polca_sim::{EventQueue, SimTime};
use polca_stats::TimeSeries;
use polca_telemetry::{ControlAction, DelayedSignal, OobControlPlane, RowPowerTaps};

use crate::request::{CompletedRequest, Priority, Request};
use crate::row::RowConfig;
use crate::server::{InferenceServer, PhaseOutcome, HOT_IDLE_INTENSITY};

/// Who a control request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlTarget {
    /// Every server in the row.
    All,
    /// Every server hosting the given priority class.
    Priority(Priority),
    /// One specific server.
    Server(usize),
}

/// A control decision emitted by a [`PowerController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRequest {
    /// Which servers to touch.
    pub target: ControlTarget,
    /// What to do to them.
    pub action: ControlAction,
}

/// Read-only facts a controller may use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowContext {
    /// The row's provisioned power budget in watts.
    pub provisioned_watts: f64,
    /// Servers in the row.
    pub n_servers: usize,
}

/// A cluster-level power-management policy.
///
/// The simulator invokes the controller at every row-telemetry tick
/// (2 s) with the *delayed* power observation — `None` until the first
/// reading propagates. POLCA and the baseline policies implement this in
/// the `polca` crate.
///
/// Controllers must be [`Send`]: a multi-datacenter
/// [`SiteSim`](crate::site::SiteSim) steps its rows on a scoped thread
/// pool, carrying each row's controller to whichever worker claims the
/// row that window. Controllers are plain decision state (no shared interior
/// mutability), so this is not a restriction in practice.
pub trait PowerController: Send {
    /// Reacts to a telemetry tick, returning control requests to issue
    /// on the OOB plane.
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest>;
}

impl<P: PowerController + ?Sized> PowerController for Box<P> {
    fn on_telemetry(
        &mut self,
        now: SimTime,
        observed_row_watts: Option<f64>,
        ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        (**self).on_telemetry(now, observed_row_watts, ctx)
    }
}

/// The do-nothing controller (the paper's `No-cap` baseline, §6.6 —
/// "lacks power brake protection").
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopController;

impl PowerController for NoopController {
    fn on_telemetry(
        &mut self,
        _now: SimTime,
        _observed: Option<f64>,
        _ctx: &RowContext,
    ) -> Vec<ControlRequest> {
        Vec::new()
    }
}

/// Which serving engine drives the row.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum EngineKind {
    /// The legacy §6.6 whole-request model: one request in service per
    /// server plus a small buffer. The default; every historical result
    /// reproduces bit-identically on it.
    #[default]
    Legacy,
    /// The `polca-serve` continuous-batching engine: iteration-level
    /// scheduling, paged KV-cache, and optional prefill/decode pools.
    Batched(ServeConfig),
}

/// Simulator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Experiment seed (shared by the OOB plane's latency draws).
    pub seed: u64,
    /// Row telemetry interval in seconds (Table 1: 2 s).
    pub telemetry_interval_s: f64,
    /// Row telemetry propagation delay in seconds (Table 2: 2 s).
    pub telemetry_delay_s: f64,
    /// OOB capping latency range in seconds (Table 2: up to 40 s).
    pub oob_cap_latency_s: (f64, f64),
    /// OOB brake latency range in seconds (Table 2: ≤ 5 s).
    pub oob_brake_latency_s: (f64, f64),
    /// Probability an OOB capping command silently fails (§3.3).
    pub oob_failure_rate: f64,
    /// Multiplier on all server power (the "+5 %" drift experiment).
    pub power_scale: f64,
    /// Whether to record the row power timeseries (large runs may skip
    /// it to save memory).
    pub record_power_series: bool,
    /// Observability sink for the run (disabled by default; equality on
    /// this field compares the capture *level*, not accumulated data).
    pub recorder: Recorder,
    /// Passive subscribers to the delayed row-power stream (empty by
    /// default; equality compares the subscriber count, not identity).
    /// Subscribers see exactly what the controller sees — the stale
    /// [`DelayedSignal`] read — plus a ground-truth feed reserved for
    /// detection-lag annotation.
    pub oob_taps: RowPowerTaps,
    /// Which serving engine drives the row.
    pub engine: EngineKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            telemetry_interval_s: 2.0,
            telemetry_delay_s: 2.0,
            oob_cap_latency_s: (20.0, 40.0),
            oob_brake_latency_s: (2.0, 5.0),
            oob_failure_rate: 0.0,
            power_scale: 1.0,
            record_power_series: true,
            recorder: Recorder::disabled(),
            oob_taps: RowPowerTaps::new(),
            engine: EngineKind::Legacy,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests offered to the cluster.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (no buffer space anywhere).
    pub rejected: u64,
    /// End-to-end latencies (seconds) of completed low-priority requests.
    pub low_latencies_s: Vec<f64>,
    /// End-to-end latencies (seconds) of completed high-priority requests.
    pub high_latencies_s: Vec<f64>,
    /// Completed requests per priority (low, high).
    pub completed_by_priority: (u64, u64),
    /// Offered requests per priority (low, high).
    pub offered_by_priority: (u64, u64),
    /// Rejected requests per priority (low, high).
    pub rejected_by_priority: (u64, u64),
    /// Row power sampled at the telemetry interval (empty when disabled).
    pub row_power: TimeSeries,
    /// Highest instantaneous row power seen, in watts.
    pub peak_row_watts: f64,
    /// Time-weighted mean row power in watts.
    pub mean_row_watts: f64,
    /// Row-wide power-brake engagements the controller triggered.
    pub brake_engagements: u64,
    /// OOB commands issued on the control plane.
    pub commands_issued: u64,
    /// Discrete events processed by the row engine (arrivals, phase
    /// ends, telemetry ticks, control deliveries).
    pub events_processed: u64,
    /// Duration simulated.
    pub duration: SimTime,
}

impl SimReport {
    /// Latency samples for `priority`.
    pub fn latencies(&self, priority: Priority) -> &[f64] {
        match priority {
            Priority::Low => &self.low_latencies_s,
            Priority::High => &self.high_latencies_s,
        }
    }

    /// Completed-request throughput in requests/s for `priority`.
    pub fn throughput(&self, priority: Priority) -> f64 {
        let n = match priority {
            Priority::Low => self.completed_by_priority.0,
            Priority::High => self.completed_by_priority.1,
        };
        if self.duration == SimTime::ZERO {
            0.0
        } else {
            n as f64 / self.duration.as_secs()
        }
    }

    /// Fraction of offered `priority` requests that completed (goodput
    /// ratio); 1.0 when nothing was offered.
    pub fn goodput(&self, priority: Priority) -> f64 {
        let (completed, offered) = match priority {
            Priority::Low => (self.completed_by_priority.0, self.offered_by_priority.0),
            Priority::High => (self.completed_by_priority.1, self.offered_by_priority.1),
        };
        if offered == 0 {
            1.0
        } else {
            completed as f64 / offered as f64
        }
    }

    /// Peak row power as a fraction of `provisioned_watts`.
    pub fn peak_utilization(&self, provisioned_watts: f64) -> f64 {
        self.peak_row_watts / provisioned_watts
    }
}

/// Internal event alphabet.
#[derive(Debug)]
enum Ev {
    Arrival(Request),
    PhaseEnd {
        server: usize,
        version: u64,
    },
    Telemetry,
    ControlDelivery,
    /// Batched engine: a server's next composition boundary.
    ServeWake {
        server: usize,
        version: u64,
    },
    /// Batched engine: the earliest in-flight KV transfer lands.
    ServeTransfer,
}

/// Per-server polca-req state for the legacy engine: the span of the
/// request in service plus the last time its energy integral was
/// folded. The legacy server runs one request at a time, so the whole
/// server draw between power-changing transitions belongs to it.
#[derive(Clone, Debug)]
struct LegacyTrace {
    /// Last time this server's power was folded into the active span.
    last_t: SimTime,
    /// `(service_start, span)` of the request in service, if any.
    active: Option<(SimTime, ReqSpan)>,
}

/// The cluster simulator.
pub struct ClusterSim<P> {
    servers: Vec<InferenceServer>,
    /// The continuous-batching engine when `SimConfig::engine` is
    /// [`EngineKind::Batched`]; `None` runs the legacy per-server path.
    engine: Option<BatchedRow<Request>>,
    ctx: RowContext,
    config: SimConfig,
    controller: P,
    plane: OobControlPlane,
    row_signal: DelayedSignal,
    queue: EventQueue<Ev>,
    /// Cached Σ server power, maintained incrementally.
    row_power_watts: f64,
    /// Round-robin dispatch cursors per priority (low, high).
    rr_cursor: (usize, usize),
    report: SimReport,
    /// Integral bookkeeping for mean power.
    last_power_change: SimTime,
    power_integral: f64,
    /// Cached Σ power of servers that are actively serving, maintained
    /// incrementally next to `row_power_watts`. Feeds `busy_integral`
    /// in the same `accumulate_power` fold, so the busy energy is
    /// exact at event resolution (not a telemetry-window trapezoid) —
    /// that exactness is what pins the polca-energy reconciliation
    /// bound: busy energy ≥ Σ per-request attributed joules.
    busy_watts: f64,
    /// Exact integral of `busy_watts` over time, in joules.
    busy_integral: f64,
    /// polca-energy row accumulator (present when the recorder carries
    /// an energy plan), ticked on the telemetry grid.
    energy: Option<EnergyAccum>,
    /// Instantaneous per-priority-class power, `[low, high]` — cached
    /// incrementally next to `row_power_watts` for the legacy server
    /// path (the batched engine keeps its own class cache), so energy
    /// ticks cost O(buckets) instead of a per-server scan.
    class_watts: [f64; 2],
    /// Reusable per-pool `(tag, watts)` buffer for energy ticks.
    pool_scratch: Vec<(&'static str, f64)>,
    obs: Recorder,
    /// polca-req spans for the legacy engine, one slot per server;
    /// `None` unless the recorder has request tracing on (the batched
    /// engine threads spans through its own sequences instead).
    legacy_trace: Option<Vec<LegacyTrace>>,
}

impl<P: PowerController> ClusterSim<P> {
    /// Builds a simulator over `row` with the given `controller`.
    pub fn new(row: RowConfig, config: SimConfig, controller: P) -> Self {
        let mut servers = row.build_servers();
        for s in &mut servers {
            s.set_power_scale(config.power_scale);
        }
        let obs = config.recorder.clone();
        let engine = match &config.engine {
            EngineKind::Legacy => None,
            EngineKind::Batched(serve_cfg) => {
                let deployment =
                    InferenceModel::new(row.model.clone(), row.server_spec.gpu.clone())
                        .expect("row model must fit its GPU allocation");
                let params = BatchedRowParams {
                    deployment,
                    classes: servers
                        .iter()
                        .map(|s| s.priority() == Priority::High)
                        .collect(),
                    spec_gpus: row.server_spec.n_gpus,
                    non_gpu_base_watts: row.server_spec.non_gpu_base_watts,
                    non_gpu_per_gpu_watt: row.server_spec.non_gpu_per_gpu_watt,
                    hot_idle_intensity: HOT_IDLE_INTENSITY,
                    power_scale: config.power_scale,
                };
                Some(BatchedRow::new(params, serve_cfg, obs.prof().clone()))
            }
        };
        let row_power_watts: f64 = match &engine {
            Some(e) => e.total_power_watts(),
            None => servers.iter().map(InferenceServer::power_watts).sum(),
        };
        let busy_watts: f64 = match &engine {
            Some(e) => e.busy_power_watts(),
            None => servers
                .iter()
                .filter(|s| !s.is_idle())
                .map(InferenceServer::power_watts)
                .sum(),
        };
        let class_watts: [f64; 2] = match &engine {
            Some(e) => e.class_power_watts(),
            None => {
                let mut cw = [0.0; 2];
                for s in &servers {
                    cw[usize::from(s.priority() == Priority::High)] += s.power_watts();
                }
                cw
            }
        };
        let mut pool_scratch: Vec<(&'static str, f64)> = Vec::new();
        match &engine {
            Some(e) => e.write_pool_power(&mut pool_scratch),
            None => pool_scratch.push(("aggregated", row_power_watts)),
        }
        let energy = obs.energy_plan().map(|plan| {
            EnergyAccum::new(
                plan.clone(),
                0.0,
                class_watts[0],
                class_watts[1],
                &pool_scratch,
            )
        });
        let mut plane = OobControlPlane::new(config.seed)
            .with_cap_latency(config.oob_cap_latency_s.0, config.oob_cap_latency_s.1)
            .with_brake_latency(config.oob_brake_latency_s.0, config.oob_brake_latency_s.1)
            .with_failure_rate(config.oob_failure_rate);
        plane.set_recorder(obs.clone());
        let mut queue = EventQueue::new();
        queue.set_probe(obs.queue_probe());
        let ctx = RowContext {
            provisioned_watts: row.provisioned_watts(),
            n_servers: servers.len(),
        };
        let legacy_trace = (engine.is_none() && obs.req_enabled()).then(|| {
            vec![
                LegacyTrace {
                    last_t: SimTime::ZERO,
                    active: None,
                };
                servers.len()
            ]
        });
        ClusterSim {
            row_signal: DelayedSignal::new(SimTime::from_secs(config.telemetry_delay_s)),
            plane,
            queue,
            report: blank_report(row_power_watts),
            row_power_watts,
            rr_cursor: (0, 0),
            last_power_change: SimTime::ZERO,
            power_integral: 0.0,
            busy_watts,
            busy_integral: 0.0,
            energy,
            class_watts,
            pool_scratch,
            obs,
            servers,
            engine,
            ctx,
            config,
            controller,
            legacy_trace,
        }
    }

    /// The row context (budget, server count).
    pub fn context(&self) -> &RowContext {
        &self.ctx
    }

    /// Immutable view of the servers (for tests and inspection).
    ///
    /// Under [`EngineKind::Batched`] these carry the row's static
    /// priority layout but see no traffic; inspect
    /// [`batched_row`](Self::batched_row) instead.
    pub fn servers(&self) -> &[InferenceServer] {
        &self.servers
    }

    /// The continuous-batching engine, when one is configured.
    pub fn batched_row(&self) -> Option<&BatchedRow<Request>> {
        self.engine.as_ref()
    }

    /// Runs the simulation over `arrivals` (which must be ordered by
    /// arrival time) until `until`, consuming the simulator and
    /// returning the report.
    ///
    /// The simulator is source-agnostic: the synthetic
    /// `polca_trace::ArrivalGenerator`, plain request vectors, and
    /// `polca-ingest`'s verbatim replay of a captured trace all drive
    /// it, lazily. Internally this is one [`RowSim`] stepped straight
    /// to the horizon, so the resumable and one-shot paths are the
    /// same code and produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` yields requests out of order.
    pub fn run(self, arrivals: impl IntoIterator<Item = Request>, until: SimTime) -> SimReport {
        let mut row = self.into_row_sim(arrivals.into_iter(), until);
        row.step_until(until);
        row.finish()
    }

    /// Converts this simulator into a resumable [`RowSim`] driven by
    /// `arrivals` up to `horizon`. The engine primes the first arrival
    /// and the t = 0 telemetry tick immediately, exactly as
    /// [`run`](Self::run) does.
    pub fn into_row_sim<S: Iterator<Item = Request>>(
        self,
        arrivals: S,
        horizon: SimTime,
    ) -> RowSim<P, S> {
        RowSim::start(self, arrivals, horizon)
    }

    fn accumulate_power(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_power_change).as_secs();
        self.power_integral += self.row_power_watts * dt;
        self.busy_integral += self.busy_watts * dt;
        self.last_power_change = now;
    }

    /// Runs `f` against server `idx`, keeping the cached row power and
    /// its peak/integral in sync with the server's state change.
    fn mutate_server<T>(
        &mut self,
        now: SimTime,
        idx: usize,
        f: impl FnOnce(&mut InferenceServer) -> T,
    ) -> T {
        self.accumulate_power(now);
        let before = self.servers[idx].power_watts();
        let serving_before = !self.servers[idx].is_idle();
        // polca-req legacy ledger: the server's draw was `before` watts
        // since the last fold, all of it serving the active request —
        // charge it before the mutation can change the power.
        if let Some(traces) = self.legacy_trace.as_mut() {
            let tr = &mut traces[idx];
            if let Some((_, span)) = tr.active.as_mut() {
                span.joules += before * now.saturating_sub(tr.last_t).as_secs();
            }
            tr.last_t = now;
        }
        let out = f(&mut self.servers[idx]);
        let after = self.servers[idx].power_watts();
        self.row_power_watts += after - before;
        // Class membership is static, so the delta lands in exactly
        // one slot (the batched engine keeps its own class cache).
        self.class_watts[usize::from(self.servers[idx].priority() == Priority::High)] +=
            after - before;
        let busy_after = if self.servers[idx].is_idle() {
            0.0
        } else {
            after
        };
        self.busy_watts += busy_after - if serving_before { before } else { 0.0 };
        if self.row_power_watts > self.report.peak_row_watts {
            self.report.peak_row_watts = self.row_power_watts;
        }
        out
    }

    /// Metric/event label for a priority class.
    fn pri_tag(priority: Priority) -> &'static str {
        match priority {
            Priority::Low => "low",
            Priority::High => "high",
        }
    }

    /// Runs `f` against the batched engine, keeping the cached row
    /// power and its peak/integral in sync — the batched analog of
    /// [`mutate_server`](Self::mutate_server).
    fn serve_op<T>(&mut self, now: SimTime, f: impl FnOnce(&mut BatchedRow<Request>) -> T) -> T {
        self.accumulate_power(now);
        let engine = self
            .engine
            .as_mut()
            .expect("serve_op without batched engine");
        let out = f(engine);
        self.row_power_watts = engine.total_power_watts();
        self.busy_watts = engine.busy_power_watts();
        if self.row_power_watts > self.report.peak_row_watts {
            self.report.peak_row_watts = self.row_power_watts;
        }
        out
    }

    /// Folds one batched-engine outcome into the report and the event
    /// queue: completions, preemption counters, the server's next wake,
    /// and a transfer event for newly queued KV hand-offs.
    fn absorb_serve(&mut self, now: SimTime, outcome: ServeOutcome<Request>) {
        if outcome.preemptions > 0 {
            self.obs
                .add("serve.preemptions", Label::Global, outcome.preemptions);
        }
        for c in outcome.completions {
            let record = CompletedRequest {
                request: c.payload,
                started_at: c.started_at,
                completed_at: now,
                server: c.server,
            };
            self.record_completion(record);
            if self.obs.req_enabled() {
                self.record_request_span(&c.span, &record);
            }
        }
        if let Some((at, version)) = outcome.wake {
            self.queue.schedule(
                at,
                Ev::ServeWake {
                    server: outcome.server,
                    version,
                },
            );
        }
        if outcome.transfers_queued {
            if let Some(at) = self.engine.as_ref().and_then(BatchedRow::next_transfer_due) {
                self.queue.schedule(at.max(now), Ev::ServeTransfer);
            }
        }
    }

    fn on_serve_wake(&mut self, now: SimTime, server: usize, version: u64) {
        if let Some(outcome) = self.serve_op(now, |e| e.on_wake(now, server, version)) {
            self.absorb_serve(now, outcome);
        }
    }

    fn on_serve_transfer(&mut self, now: SimTime) {
        let outcomes = self.serve_op(now, |e| e.on_transfers_due(now));
        for o in outcomes {
            self.absorb_serve(now, o);
        }
        // Re-arm for transfers still crossing the interconnect.
        if let Some(at) = self.engine.as_ref().and_then(BatchedRow::next_transfer_due) {
            self.queue.schedule(at.max(now), Ev::ServeTransfer);
        }
    }

    /// Arrival path for the batched engine: route into the continuous
    /// batch, then mirror the legacy accounting and event stream.
    fn on_serve_arrival(&mut self, now: SimTime, req: Request) {
        let priority = req.priority;
        let tag = Self::pri_tag(priority);
        let serve_req = ServeRequest {
            payload: req,
            id: req.id,
            input_tokens: req.input_tokens,
            output_tokens: req.output_tokens,
            high_priority: priority == Priority::High,
        };
        let arrival = self.serve_op(now, |e| e.on_arrival(now, serve_req));
        match arrival.kind {
            AdmissionKind::Started => {
                self.obs.record(Event::RequestDispatched {
                    t: now.as_secs(),
                    server: arrival.outcome.server,
                    request: req.id,
                    priority: tag,
                });
            }
            AdmissionKind::Queued => {
                self.obs.record(Event::RequestQueued {
                    t: now.as_secs(),
                    request: req.id,
                    priority: tag,
                });
            }
            AdmissionKind::Rejected => {
                self.report.rejected += 1;
                match priority {
                    Priority::Low => self.report.rejected_by_priority.0 += 1,
                    Priority::High => self.report.rejected_by_priority.1 += 1,
                }
                self.obs
                    .add("cluster.requests_rejected", Label::Tag(tag), 1);
                self.obs.record(Event::RequestRejected {
                    t: now.as_secs(),
                    request: req.id,
                    priority: tag,
                });
            }
        }
        self.absorb_serve(now, arrival.outcome);
    }

    fn on_arrival(&mut self, now: SimTime, req: Request) {
        self.report.offered += 1;
        let priority = req.priority;
        match priority {
            Priority::Low => self.report.offered_by_priority.0 += 1,
            Priority::High => self.report.offered_by_priority.1 += 1,
        }
        self.obs.add(
            "cluster.requests_offered",
            Label::Tag(Self::pri_tag(priority)),
            1,
        );
        if self.engine.is_some() {
            return self.on_serve_arrival(now, req);
        }
        let n = self.servers.len();
        let cursor = match priority {
            Priority::Low => &mut self.rr_cursor.0,
            Priority::High => &mut self.rr_cursor.1,
        };
        let start = *cursor;
        // First pass: an idle matching server (round-robin for fairness).
        let mut chosen: Option<usize> = None;
        for off in 0..n {
            let i = (start + off) % n;
            if self.servers[i].priority() == priority && self.servers[i].is_idle() {
                chosen = Some(i);
                break;
            }
        }
        if let Some(i) = chosen {
            *cursor = (i + 1) % n;
            self.obs.record(Event::RequestDispatched {
                t: now.as_secs(),
                server: i,
                request: req.id,
                priority: Self::pri_tag(priority),
            });
            let (end_at, version) = self.mutate_server(now, i, |s| s.start_request(now, req));
            self.start_legacy_span(now, i);
            self.queue
                .schedule(end_at, Ev::PhaseEnd { server: i, version });
            return;
        }
        // Second pass: the matching server with buffer space and the
        // shortest queue.
        let target = self
            .servers
            .iter()
            .filter(|s| s.priority() == priority && s.has_buffer_space())
            .min_by_key(|s| s.queue_len())
            .map(InferenceServer::id);
        match target {
            Some(i) => {
                self.obs.record(Event::RequestQueued {
                    t: now.as_secs(),
                    request: req.id,
                    priority: Self::pri_tag(priority),
                });
                let ok = self.servers[i].enqueue(req);
                debug_assert!(ok, "buffer space was checked");
            }
            None => {
                self.report.rejected += 1;
                match priority {
                    Priority::Low => self.report.rejected_by_priority.0 += 1,
                    Priority::High => self.report.rejected_by_priority.1 += 1,
                }
                self.obs.add(
                    "cluster.requests_rejected",
                    Label::Tag(Self::pri_tag(priority)),
                    1,
                );
                self.obs.record(Event::RequestRejected {
                    t: now.as_secs(),
                    request: req.id,
                    priority: Self::pri_tag(priority),
                });
            }
        }
    }

    fn on_phase_end(&mut self, now: SimTime, server: usize, version: u64) {
        let outcome = self.mutate_server(now, server, |s| s.on_phase_end(now, version));
        match outcome {
            PhaseOutcome::Ignored => {}
            PhaseOutcome::TokenStarted { end_at, version } => {
                // The prompt phase just finished: under the legacy
                // whole-request model the first output token becomes
                // available now.
                if let Some(traces) = self.legacy_trace.as_mut() {
                    if let Some((start, span)) = traces[server].active.as_mut() {
                        span.prefill_s = now.saturating_sub(*start).as_secs();
                        span.first_token_s = Some(now.as_secs());
                    }
                }
                self.queue
                    .schedule(end_at, Ev::PhaseEnd { server, version });
            }
            PhaseOutcome::Completed { record, next } => {
                let span = self
                    .legacy_trace
                    .as_mut()
                    .and_then(|traces| traces[server].active.take());
                self.record_completion(record);
                if let Some((_, mut span)) = span {
                    if let Some(first) = span.first_token_s {
                        span.decode_s = (now.as_secs() - first).max(0.0);
                        span.last_token_s = Some(now.as_secs());
                    }
                    self.record_request_span(&span, &record);
                }
                if let Some((end_at, version)) = next {
                    // A buffered request was dequeued and started.
                    self.start_legacy_span(now, server);
                    self.queue
                        .schedule(end_at, Ev::PhaseEnd { server, version });
                }
            }
        }
    }

    /// Opens a polca-req span for the request that just entered service
    /// on legacy server `idx` (no-op unless request tracing is on).
    fn start_legacy_span(&mut self, now: SimTime, idx: usize) {
        if let Some(traces) = self.legacy_trace.as_mut() {
            let tr = &mut traces[idx];
            tr.active = Some((now, ReqSpan::default()));
            tr.last_t = now;
        }
    }

    /// Closes `span` against a completed request and lands the derived
    /// record in the polca-req plane. The legacy engine serves the
    /// token phase as one fluid span, so its `tbt_max` falls back to
    /// the mean gap; the batched engine reports real per-iteration
    /// gaps.
    fn record_request_span(&self, span: &ReqSpan, record: &CompletedRequest) {
        let req = record.request;
        let mut rec = span.finish(
            req.id,
            Self::pri_tag(req.priority),
            record.server,
            req.arrival.as_secs(),
            record.started_at.as_secs(),
            record.completed_at.as_secs(),
            req.input_tokens,
            req.output_tokens,
        );
        // With the energy ledger attached, convert the attributed
        // joules to facility-level grams at the intensity in force when
        // the request completed.
        if let Some(acc) = self.energy.as_ref() {
            rec.pue_applied = acc.pue();
            rec.co2e_g =
                rec.joules / 3.6e6 * rec.pue_applied * acc.g_per_kwh(record.completed_at.as_secs());
        }
        self.obs.record_request(&rec);
    }

    fn record_completion(&mut self, record: CompletedRequest) {
        self.report.completed += 1;
        if let Some(acc) = self.energy.as_mut() {
            acc.add_tokens(
                record.request.priority == Priority::High,
                u64::from(record.request.output_tokens),
            );
        }
        let latency = record.latency_s();
        match record.request.priority {
            Priority::Low => {
                self.report.completed_by_priority.0 += 1;
                self.report.low_latencies_s.push(latency);
            }
            Priority::High => {
                self.report.completed_by_priority.1 += 1;
                self.report.high_latencies_s.push(latency);
            }
        }
        let tag = Self::pri_tag(record.request.priority);
        self.obs
            .add("cluster.requests_completed", Label::Tag(tag), 1);
        self.obs
            .observe("cluster.latency_s", Label::Tag(tag), latency);
        self.obs.record(Event::RequestCompleted {
            t: record.completed_at.as_secs(),
            server: record.server,
            request: record.request.id,
            priority: tag,
            latency_s: latency,
        });
    }

    /// Ticks the polca-energy accumulator with the current per-bucket
    /// ground-truth draw (no-op when no energy plan is attached). Runs
    /// on the row's own telemetry grid — and once more at the horizon —
    /// so the trapezoidal Wh integral covers exactly the windows every
    /// other ground-truth consumer sees. All bucket sums are cached
    /// incrementally (by this sim for the legacy path, by the batched
    /// engine for itself), so a tick costs O(buckets), not O(servers).
    fn tick_energy(&mut self, now: SimTime) {
        if self.energy.is_none() {
            return;
        }
        match &self.engine {
            Some(e) => {
                self.class_watts = e.class_power_watts();
                e.write_pool_power(&mut self.pool_scratch);
            }
            None => self.pool_scratch[0].1 = self.row_power_watts,
        }
        if let Some(acc) = self.energy.as_mut() {
            acc.tick(
                now.as_secs(),
                self.class_watts[0],
                self.class_watts[1],
                &self.pool_scratch,
            );
        }
    }

    fn on_telemetry(&mut self, now: SimTime) {
        self.accumulate_power(now);
        self.tick_energy(now);
        self.row_signal.record(now, self.row_power_watts);
        if self.config.record_power_series {
            self.report
                .row_power
                .push(now.as_secs(), self.row_power_watts);
        }
        self.obs.record(Event::PowerSample {
            t: now.as_secs(),
            watts: self.row_power_watts,
        });
        self.obs
            .gauge("cluster.row_power_w", Label::Global, self.row_power_watts);
        self.obs.observe(
            "cluster.row_utilization",
            Label::Global,
            self.row_power_watts / self.ctx.provisioned_watts,
        );
        if let Some(engine) = &self.engine {
            self.obs
                .gauge("serve.kv_occupancy", Label::Global, engine.kv_occupancy());
            self.obs
                .gauge("serve.batch_size", Label::Global, engine.mean_batch());
            self.obs.gauge(
                "serve.waiting_depth",
                Label::Global,
                engine.waiting_depth() as f64,
            );
            for (tag, watts) in engine.pool_power_watts() {
                self.obs.gauge("serve.pool_power_w", Label::Tag(tag), watts);
            }
        }
        let observed = self.row_signal.read(now);
        // One combined publish per tick (truth first, then the delayed
        // view) so subscribers with interior locking lock only once.
        self.config
            .oob_taps
            .publish_tick(now, self.row_power_watts, observed);
        let requests = {
            let _phase = self.obs.prof().time(Phase::ControllerEval);
            self.controller.on_telemetry(now, observed, &self.ctx)
        };
        for cr in requests {
            self.issue(now, cr);
        }
        if let Some(at) = self.plane.next_delivery() {
            self.queue.schedule(at.max(now), Ev::ControlDelivery);
        }
    }

    fn issue(&mut self, now: SimTime, cr: ControlRequest) {
        if matches!(cr.action, ControlAction::PowerBrake { on: true }) {
            self.report.brake_engagements += 1;
            self.obs.add("cluster.brake_engagements", Label::Global, 1);
        }
        let targets: Vec<usize> = match cr.target {
            ControlTarget::All => (0..self.servers.len()).collect(),
            ControlTarget::Priority(p) => self
                .servers
                .iter()
                .filter(|s| s.priority() == p)
                .map(InferenceServer::id)
                .collect(),
            ControlTarget::Server(i) => vec![i.min(self.servers.len().saturating_sub(1))],
        };
        for i in targets {
            self.plane.issue(now, i, cr.action);
            self.report.commands_issued += 1;
        }
    }

    fn on_control_delivery(&mut self, now: SimTime) {
        let due = self.plane.deliver_due(now);
        for cmd in due {
            let idx = cmd.server;
            if idx >= self.servers.len() {
                continue;
            }
            self.obs.record_with(|| {
                let t = now.as_secs();
                match cmd.action {
                    ControlAction::LockClock { mhz } => Event::CapApplied {
                        t,
                        server: idx,
                        mhz,
                    },
                    ControlAction::UnlockClock => Event::Uncap { t, server: idx },
                    ControlAction::PowerCap { watts } => Event::PowerCapApplied {
                        t,
                        server: idx,
                        watts,
                    },
                    ControlAction::ClearPowerCap => Event::PowerCapCleared { t, server: idx },
                    ControlAction::PowerBrake { on } => Event::BrakeEngaged { t, server: idx, on },
                }
            });
            if self.engine.is_some() {
                let outcome = self.serve_op(now, |e| e.apply_action(now, idx, cmd.action));
                self.absorb_serve(now, outcome);
                continue;
            }
            let resched = self.mutate_server(now, idx, |s| s.apply_action(now, cmd.action));
            if let Some((end_at, version)) = resched {
                self.queue.schedule(
                    end_at,
                    Ev::PhaseEnd {
                        server: idx,
                        version,
                    },
                );
            }
        }
        if let Some(at) = self.plane.next_delivery() {
            self.queue.schedule(at.max(now), Ev::ControlDelivery);
        }
    }
}

/// A resumable row engine: the body of [`ClusterSim::run`] exposed as
/// an incremental `step_until` API.
///
/// A `RowSim` owns one row's complete simulation state — servers, event
/// queue, OOB control plane, delayed telemetry signal, RNG streams —
/// and advances it in bounded time slices instead of straight to the
/// horizon. That is what lets [`SiteSim`](crate::site::SiteSim)
/// interleave N rows in lockstep (stepping each row from one telemetry
/// window boundary to the next and inspecting aggregate power at each)
/// while each row replays *exactly* the event sequence it would have
/// seen in a solo [`ClusterSim::run`]: stepping to `t1` then `t2`
/// processes the same events in the same order as stepping to `t2`
/// directly, so the resumable and one-shot paths are bit-identical.
///
/// The horizon is fixed at construction because it is part of the
/// event schedule itself (the last telemetry tick is the one at or
/// before the horizon); [`finish`](Self::finish) closes the power
/// integral there and yields the [`SimReport`].
pub struct RowSim<P, S> {
    sim: ClusterSim<P>,
    source: S,
    horizon: SimTime,
    stepped_to: SimTime,
}

impl<P: PowerController, S: Iterator<Item = Request>> RowSim<P, S> {
    fn start(sim: ClusterSim<P>, source: S, horizon: SimTime) -> Self {
        let mut row = RowSim {
            sim,
            source,
            horizon,
            stepped_to: SimTime::ZERO,
        };
        if let Some(first) = row.source.next() {
            row.sim.queue.schedule(first.arrival, Ev::Arrival(first));
        }
        row.sim.queue.schedule(SimTime::ZERO, Ev::Telemetry);
        row
    }

    /// Processes every event at or before `min(t, horizon)`. Calling
    /// with non-increasing `t` is a no-op; the engine never runs past
    /// its horizon.
    ///
    /// # Panics
    ///
    /// Panics if the request source yields requests out of order.
    pub fn step_until(&mut self, t: SimTime) {
        let limit = t.min(self.horizon);
        // One cheap handle clone per slice; `time` is a single branch
        // when profiling is off, so the per-event cost below is nil.
        let prof = self.sim.obs.prof().clone();
        // Outer frame: its self-time is the event loop itself (peek,
        // match dispatch, bookkeeping) net of the per-event phases.
        let _step = prof.time(Phase::RowStep);
        while let Some(next_at) = self.sim.queue.peek_time() {
            if next_at > limit {
                break;
            }
            let (now, ev) = self.sim.queue.pop().expect("peeked event exists");
            self.sim.report.events_processed += 1;
            match ev {
                Ev::Arrival(req) => {
                    let _p = prof.time(Phase::Dispatch);
                    self.sim.on_arrival(now, req);
                    if let Some(next) = self.source.next() {
                        assert!(
                            next.arrival >= now,
                            "arrival stream out of order at request {}",
                            next.id
                        );
                        self.sim.queue.schedule(next.arrival, Ev::Arrival(next));
                    }
                }
                Ev::PhaseEnd { server, version } => {
                    let _p = prof.time(Phase::PhaseEnd);
                    self.sim.on_phase_end(now, server, version)
                }
                Ev::Telemetry => {
                    let _p = prof.time(Phase::TelemetryTick);
                    self.sim.on_telemetry(now);
                    let next_tick = now + SimTime::from_secs(self.sim.config.telemetry_interval_s);
                    if next_tick <= self.horizon {
                        self.sim.queue.schedule(next_tick, Ev::Telemetry);
                    }
                }
                Ev::ControlDelivery => {
                    let _p = prof.time(Phase::ControlDelivery);
                    self.sim.on_control_delivery(now)
                }
                Ev::ServeWake { server, version } => {
                    let _p = prof.time(Phase::ServeIteration);
                    self.sim.on_serve_wake(now, server, version)
                }
                Ev::ServeTransfer => {
                    let _p = prof.time(Phase::ServeIteration);
                    self.sim.on_serve_transfer(now)
                }
            }
        }
        if limit > self.stepped_to {
            self.stepped_to = limit;
        }
    }

    /// How far the engine has been stepped (capped at the horizon).
    pub fn now(&self) -> SimTime {
        self.stepped_to
    }

    /// The fixed simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Instantaneous ground-truth row power, in watts.
    pub fn row_power_watts(&self) -> f64 {
        self.sim.row_power_watts
    }

    /// Timestamp of the next queued event, or `None` when the queue is
    /// drained (the row will never act again unless a command is
    /// [`inject`](Self::inject)ed).
    ///
    /// The site driver uses this to skip rows at a window boundary: a
    /// row whose next event lies beyond the boundary needs no
    /// `step_until` call at all — by construction it would process
    /// zero events.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.sim.queue.peek_time()
    }

    /// The row context (provisioned budget, server count).
    pub fn context(&self) -> &RowContext {
        &self.sim.ctx
    }

    /// Immutable view of the servers.
    pub fn servers(&self) -> &[InferenceServer] {
        self.sim.servers()
    }

    /// The continuous-batching engine, when one is configured.
    pub fn batched_row(&self) -> Option<&BatchedRow<Request>> {
        self.sim.batched_row()
    }

    /// Read-only view of the report accumulated so far (totals are
    /// final only after [`finish`](Self::finish)).
    pub fn report_so_far(&self) -> &SimReport {
        &self.sim.report
    }

    /// Issues a control request on the row's OOB plane at `now`, as if
    /// the row's own controller had emitted it — the hook a fleet-level
    /// budget enforcer uses to engage a power brake across rows. The
    /// command pays the same OOB latency (and failure) model as any
    /// controller-issued command.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than events already processed.
    pub fn inject(&mut self, now: SimTime, cr: ControlRequest) {
        self.sim.issue(now, cr);
        if let Some(at) = self.sim.plane.next_delivery() {
            self.sim.queue.schedule(at.max(now), Ev::ControlDelivery);
        }
    }

    /// Steps to the horizon if not already there, closes the power
    /// integral, and returns the final report.
    pub fn finish(mut self) -> SimReport {
        self.step_until(self.horizon);
        let sim = &mut self.sim;
        sim.accumulate_power(self.horizon);
        // Seal the polca-energy account: close the last (possibly
        // partial) telemetry window at the horizon, then land the
        // finished row in the recorder for the main-thread ledger.
        sim.tick_energy(self.horizon);
        if let Some(acc) = sim.energy.take() {
            let row = acc.finish(self.horizon.as_secs(), sim.busy_integral);
            sim.obs.record_energy(row);
        }
        sim.report.duration = self.horizon;
        sim.report.mean_row_watts = if self.horizon == SimTime::ZERO {
            sim.row_power_watts
        } else {
            sim.power_integral / self.horizon.as_secs()
        };
        std::mem::replace(&mut sim.report, blank_report(0.0))
    }
}

/// An empty [`SimReport`] used to move the real one out of the engine.
fn blank_report(peak: f64) -> SimReport {
    SimReport {
        offered: 0,
        completed: 0,
        rejected: 0,
        low_latencies_s: Vec::new(),
        high_latencies_s: Vec::new(),
        completed_by_priority: (0, 0),
        offered_by_priority: (0, 0),
        rejected_by_priority: (0, 0),
        row_power: TimeSeries::new(),
        peak_row_watts: peak,
        mean_row_watts: 0.0,
        brake_engagements: 0,
        commands_issued: 0,
        events_processed: 0,
        duration: SimTime::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn small_row() -> RowConfig {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = 4;
        row
    }

    fn mk_request(id: u64, at: f64, priority: Priority) -> Request {
        Request::new(id, t(at), 1024, 64, priority)
    }

    #[test]
    fn empty_run_reports_idle_power() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let idle = sim.servers()[0].power_watts() * 4.0;
        let report = sim.run(std::iter::empty(), t(100.0));
        assert_eq!(report.completed, 0);
        assert_eq!(report.offered, 0);
        assert!((report.mean_row_watts - idle).abs() < 1.0);
        assert!((report.peak_row_watts - idle).abs() < 1.0);
    }

    #[test]
    fn single_request_completes_with_service_latency() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let reqs = vec![mk_request(1, 0.0, Priority::Low)];
        let report = sim.run(reqs, t(500.0));
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.low_latencies_s.len(), 1);
        // No queueing: latency equals service time, which for a
        // 1024/64 BLOOM request is a few seconds.
        let lat = report.low_latencies_s[0];
        assert!((1.0..30.0).contains(&lat), "latency {lat}");
    }

    #[test]
    fn requests_route_to_matching_priority_servers() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        // 4 servers: 2 low, 2 high. Offer 3 concurrent high requests:
        // two start, one queues (buffers), so all complete eventually.
        let reqs = (0..3)
            .map(|i| mk_request(i, 0.0, Priority::High))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(1000.0));
        assert_eq!(report.completed, 3);
        assert_eq!(report.completed_by_priority, (0, 3));
    }

    #[test]
    fn overload_rejects_when_buffers_full() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        // 2 low servers × (1 active + 1 buffered) = 4 capacity; the 5th
        // concurrent low request is rejected.
        let reqs = (0..5)
            .map(|i| mk_request(i, 0.0, Priority::Low))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(2000.0));
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 4);
    }

    #[test]
    fn queued_request_pays_waiting_latency() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let reqs = (0..3)
            .map(|i| mk_request(i, 0.0, Priority::Low))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(2000.0));
        let mut lats = report.low_latencies_s.clone();
        lats.sort_by(f64::total_cmp);
        // The buffered request waited for a full service ahead of it.
        assert!(lats[2] > lats[0] * 1.8, "{lats:?}");
    }

    #[test]
    fn power_rises_while_serving() {
        let sim = ClusterSim::new(small_row(), SimConfig::default(), NoopController);
        let idle_watts = sim.servers().iter().map(|s| s.power_watts()).sum::<f64>();
        let reqs = (0..4)
            .map(|i| mk_request(i, 10.0, Priority::Low))
            .collect::<Vec<_>>();
        let report = sim.run(reqs, t(300.0));
        assert!(report.peak_row_watts > idle_watts + 1000.0);
        assert!(!report.row_power.is_empty());
        assert!(report.row_power.peak().unwrap() <= report.peak_row_watts);
    }

    #[test]
    fn controller_commands_reach_servers_and_stretch_latency() {
        // A controller that locks every server to 1110 MHz at t = 0.
        struct LockAll {
            done: bool,
        }
        impl PowerController for LockAll {
            fn on_telemetry(
                &mut self,
                _now: SimTime,
                _obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if self.done {
                    return Vec::new();
                }
                self.done = true;
                vec![ControlRequest {
                    target: ControlTarget::All,
                    action: ControlAction::LockClock { mhz: 1110.0 },
                }]
            }
        }

        let cfg = SimConfig {
            oob_cap_latency_s: (1.0, 2.0), // fast plane: the lock lands before requests
            ..Default::default()
        };
        let reqs = vec![
            mk_request(1, 60.0, Priority::Low),
            mk_request(2, 60.0, Priority::High),
        ];
        let capped =
            ClusterSim::new(small_row(), cfg, LockAll { done: false }).run(reqs.clone(), t(2000.0));
        let free =
            ClusterSim::new(small_row(), SimConfig::default(), NoopController).run(reqs, t(2000.0));
        assert_eq!(capped.completed, 2);
        assert!(capped.commands_issued >= 4);
        assert!(
            capped.low_latencies_s[0] > free.low_latencies_s[0],
            "{} vs {}",
            capped.low_latencies_s[0],
            free.low_latencies_s[0]
        );
    }

    #[test]
    fn brake_engagements_are_counted() {
        struct BrakeOnce {
            fired: bool,
        }
        impl PowerController for BrakeOnce {
            fn on_telemetry(
                &mut self,
                _now: SimTime,
                _obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if self.fired {
                    return Vec::new();
                }
                self.fired = true;
                vec![ControlRequest {
                    target: ControlTarget::All,
                    action: ControlAction::PowerBrake { on: true },
                }]
            }
        }
        let report = ClusterSim::new(
            small_row(),
            SimConfig::default(),
            BrakeOnce { fired: false },
        )
        .run(std::iter::empty(), t(100.0));
        assert_eq!(report.brake_engagements, 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let reqs: Vec<Request> = (0..50)
            .map(|i| {
                mk_request(
                    i,
                    i as f64 * 3.0,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect();
        let a = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let b =
            ClusterSim::new(small_row(), SimConfig::default(), NoopController).run(reqs, t(1000.0));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.low_latencies_s, b.low_latencies_s);
        assert_eq!(a.peak_row_watts, b.peak_row_watts);
    }

    /// A mixed 50-request stream exercising queueing and both priorities.
    fn mixed_requests() -> Vec<Request> {
        (0..50)
            .map(|i| {
                mk_request(
                    i,
                    i as f64 * 3.0,
                    if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    },
                )
            })
            .collect()
    }

    #[test]
    fn stepped_rowsim_matches_one_shot_run() {
        let reqs = mixed_requests();
        let one_shot = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let mut row = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .into_row_sim(reqs.into_iter(), t(1000.0));
        // Irregular slice boundaries, including repeats and off-grid times.
        for s in [0.0, 1.0, 1.0, 3.7, 250.0, 250.0, 999.9, 1500.0] {
            row.step_until(t(s));
        }
        assert_eq!(row.now(), t(1000.0));
        let stepped = row.finish();
        assert_eq!(stepped.completed, one_shot.completed);
        assert_eq!(stepped.offered, one_shot.offered);
        assert_eq!(stepped.low_latencies_s, one_shot.low_latencies_s);
        assert_eq!(stepped.high_latencies_s, one_shot.high_latencies_s);
        assert_eq!(stepped.peak_row_watts, one_shot.peak_row_watts);
        assert_eq!(stepped.mean_row_watts, one_shot.mean_row_watts);
        assert_eq!(stepped.events_processed, one_shot.events_processed);
        assert_eq!(stepped.row_power.len(), one_shot.row_power.len());
    }

    #[test]
    fn rowsim_exposes_progress_and_state() {
        let mut row = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .into_row_sim(std::iter::empty(), t(100.0));
        assert_eq!(row.horizon(), t(100.0));
        assert_eq!(row.servers().len(), 4);
        assert!(row.context().provisioned_watts > 0.0);
        row.step_until(t(10.0));
        assert_eq!(row.now(), t(10.0));
        assert!(row.row_power_watts() > 0.0);
        assert!(row.report_so_far().events_processed > 0);
        let report = row.finish();
        assert_eq!(report.duration, t(100.0));
    }

    #[test]
    fn injected_brake_engages_servers() {
        let reqs = mixed_requests();
        let free = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .run(reqs.clone(), t(1000.0));
        let mut row = ClusterSim::new(small_row(), SimConfig::default(), NoopController)
            .into_row_sim(reqs.into_iter(), t(1000.0));
        row.step_until(t(10.0));
        row.inject(
            t(10.0),
            ControlRequest {
                target: ControlTarget::All,
                action: ControlAction::PowerBrake { on: true },
            },
        );
        let braked = row.finish();
        assert_eq!(braked.brake_engagements, 1);
        assert!(braked.commands_issued >= 4);
        // The brake throttles every server for the rest of the run, so
        // time-weighted mean power drops versus the unbraked run of the
        // same stream (the pre-brake peak is unaffected).
        assert!(
            braked.mean_row_watts < free.mean_row_watts,
            "{} vs {}",
            braked.mean_row_watts,
            free.mean_row_watts
        );
    }

    #[test]
    fn telemetry_observation_is_delayed() {
        struct Probe {
            first_observation_at: Option<f64>,
        }
        impl PowerController for Probe {
            fn on_telemetry(
                &mut self,
                now: SimTime,
                obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                if obs.is_some() && self.first_observation_at.is_none() {
                    self.first_observation_at = Some(now.as_secs());
                }
                Vec::new()
            }
        }
        // Run and inspect via a side-channel: the probe mutates itself,
        // so thread it through a report-visible effect instead — issue a
        // brake when first observing, and check the engagement count.
        struct BrakeWhenObserved;
        impl PowerController for BrakeWhenObserved {
            fn on_telemetry(
                &mut self,
                now: SimTime,
                obs: Option<f64>,
                _ctx: &RowContext,
            ) -> Vec<ControlRequest> {
                assert!(
                    obs.is_none() || now.as_secs() >= 2.0,
                    "observation available before the 2 s delay"
                );
                Vec::new()
            }
        }
        let _ = Probe {
            first_observation_at: None,
        };
        let report = ClusterSim::new(small_row(), SimConfig::default(), BrakeWhenObserved)
            .run(std::iter::empty(), t(20.0));
        assert_eq!(report.brake_engagements, 0);
    }
}
