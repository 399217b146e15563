//! `serve_kv_tight`: one batched-engine row (aggregated pools, default
//! `ServeConfig`) fed a synthesized paper-mix stream, scaled so that
//! batches grow large, the paged KV cache fills and sequences are
//! preempted and recomputed, while few requests are turned away.
//!
//! Most of the work is in `polca-serve` (iteration scheduling, paged
//! KV, preempt-and-recompute). The legacy engine, site, sweep and obs
//! are bypassed.

use polca_cluster::{
    ClusterSim, EngineKind, NoopController, Request, RowConfig, SimConfig, SimReport,
};
use polca_obs::{ObsLevel, ProfCounter, Recorder, ReqTraceConfig};
use polca_serve::ServeConfig;
use polca_sim::SimTime;
use polca_trace::{ArrivalGenerator, TraceConfig};

use crate::digest::{row_invariants, row_report, Digest, Op};
use crate::tracer::Tracer;
use crate::{Layers, Regime};

const SERVERS: usize = 4;
/// Paper-mix arrival-rate multiplier: enough load for batches of ≥ 16
/// and KV preemptions on four servers.
const RATE_SCALE: f64 = 1.0;
const HORIZON_S: f64 = 24.0 * 3600.0;
/// Regime sampling cadence (the row telemetry interval).
const SAMPLE_S: f64 = 2.0;

fn row() -> RowConfig {
    let mut row = RowConfig::paper_inference_row();
    row.base_servers = SERVERS;
    row
}

pub struct Serve {
    seed: u64,
    arrivals: Vec<Request>,
}

impl Serve {
    pub fn setup(seed: u64, t: &Tracer) -> Self {
        let config = TraceConfig::paper_mix(seed, SimTime::from_secs(HORIZON_S)).scaled(RATE_SCALE);
        let arrivals = t.span("trace", "ArrivalGenerator::collect", || {
            ArrivalGenerator::new(&config).collect()
        });
        Serve { seed, arrivals }
    }

    fn sim(&self, recorder: Recorder) -> ClusterSim<NoopController> {
        let config = SimConfig {
            seed: self.seed,
            record_power_series: false,
            engine: EngineKind::Batched(ServeConfig::default()),
            recorder,
            ..SimConfig::default()
        };
        ClusterSim::new(row(), config, NoopController)
    }

    pub fn run(&self, t: &Tracer) -> SimReport {
        t.span("cluster", "ClusterSim::run (batched engine)", || {
            self.sim(Recorder::disabled())
                .run(self.arrivals.iter().copied(), SimTime::from_secs(HORIZON_S))
        })
    }

    pub fn sim_row_s(&self) -> f64 {
        HORIZON_S
    }

    pub fn ops(&self, report: &SimReport) -> Vec<Op> {
        let mut d = Digest::new();
        row_report(&mut d, report);
        let mut broken = Vec::new();
        row_invariants(report, &mut broken);
        vec![Op {
            label: "serve run".into(),
            digest: d.finish(),
            broken,
        }]
    }

    /// Steps an instrumented copy of the run (full observation plus
    /// request tracing) in telemetry-sized slices, sampling batch size
    /// and KV occupancy, and checks it reproduces `plain` exactly.
    /// Fills the `serve.*` layer metrics and judges the regime: peak
    /// batch ≥ 16, preemptions > 0 and under 5 % of requests rejected.
    pub fn regime(&self, plain: &SimReport, t: &Tracer, m: &mut Layers) -> (Regime, Op) {
        let recorder = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig { sample: 1 });
        let horizon = SimTime::from_secs(HORIZON_S);
        let mut row = self
            .sim(recorder.clone())
            .into_row_sim(self.arrivals.iter().copied(), horizon);
        let (mut batch_sum, mut kv_sum, mut samples) = (0.0, 0.0, 0u64);
        let mut kv_blocks = 1u32;
        t.span("cluster", "RowSim::step_until (batched, sampled)", || {
            let mut at = 0.0;
            while at < HORIZON_S {
                at = (at + SAMPLE_S).min(HORIZON_S);
                row.step_until(SimTime::from_secs(at));
                let engine = row.batched_row().expect("batched engine");
                batch_sum += engine.mean_batch();
                kv_sum += engine.kv_occupancy();
                kv_blocks = engine.kv_blocks_per_server();
                samples += 1;
            }
        });
        let report = row.finish();
        let mut op = self.ops(&report).remove(0);
        op.label = "serve run (obs full, stepped)".into();
        if op.digest != self.ops(plain)[0].digest {
            op.broken
                .push("instrumented stepped run differs from the plain run".into());
        }
        let snap = recorder.prof().snapshot();
        let run = recorder.artifacts();
        let (recompute, prefill) = run.requests.iter().fold((0.0, 0.0), |(r, p), q| {
            (
                r + q.recompute_tokens,
                p + f64::from(q.input_tokens) + q.recompute_tokens,
            )
        });
        let peak_batch = snap.counter(ProfCounter::ServePeakBatch);
        let preemptions = snap.counter(ProfCounter::ServePreemptions);
        let mean_batch = batch_sum / samples.max(1) as f64;
        let kv_peak = snap.counter(ProfCounter::ServeKvPeakBlocks) as f64 / f64::from(kv_blocks);
        let rejected = report.rejected as f64 / report.offered.max(1) as f64;
        m.put("serve.mean_batch", mean_batch, "seqs");
        m.put("serve.peak_batch", peak_batch as f64, "seqs");
        m.put("serve.kv_peak_occupancy", kv_peak, "ratio");
        m.put("serve.preemptions", preemptions as f64, "count");
        m.put(
            "serve.recompute_token_ratio",
            recompute / prefill.max(1.0),
            "ratio",
        );
        let regime = Regime {
            lines: vec![format!(
                "batch peak {peak_batch} mean {mean_batch:.2}, KV mean {:.1}% peak {:.1}%, \
                 {preemptions} preemptions, {:.2}% rejected",
                kv_sum / samples.max(1) as f64 * 100.0,
                kv_peak * 100.0,
                rejected * 100.0
            )],
            ok: peak_batch >= 16 && preemptions > 0 && rejected < 0.05,
        };
        (regime, op)
    }
}
