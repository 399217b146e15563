//! `fig17_week`: the paper's headline comparison (Figure 17) on the
//! Table 2 row for 7 simulated days — four policies × power
//! {1.0, 1.05} at +30 % servers, eight cells through
//! `OversubscriptionStudy::sweep`, recorder disabled, power series off.
//!
//! The work is in the event kernel, the legacy row engine, the
//! controllers and the sweep runner; serve, site, obs, watch and
//! ingest are bypassed.

use std::time::Instant;

use polca::{OversubscriptionStudy, PolcaPolicy, PolicyKind, PolicyOutcome};
use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig};
use polca_obs::{ObsLevel, ProfCounter, Recorder};
use polca_sim::SimTime;
use polca_telemetry::RowPowerTaps;
use polca_trace::{ArrivalGenerator, TraceConfig, WorkloadClass};

use crate::digest::{policy_outcome, Op};
use crate::tracer::Tracer;
use crate::{median, Layers, Regime};

const DAYS: f64 = 7.0;
const ADDED: f64 = 0.30;

/// The eight cells in Figure 17 order: all policies at power 1.0,
/// then all at +5 % power.
fn cells() -> Vec<(PolicyKind, f64, f64)> {
    [1.0, 1.05]
        .iter()
        .flat_map(|&scale| PolicyKind::all().map(|kind| (kind, ADDED, scale)))
        .collect()
}

fn label(kind: PolicyKind, scale: f64) -> String {
    let suffix = if scale > 1.0 { "+5%" } else { "" };
    format!("{}{suffix}", kind.name())
}

pub struct Fig17 {
    seed: u64,
    study: OversubscriptionStudy,
    thresholds: (f64, f64),
    warm: PolicyOutcome,
}

impl Fig17 {
    /// Builds the study, trains thresholds and fills the study's lazy
    /// caches (the uncapped reference run and the +30 % arrival trace)
    /// by running the first cell once.
    pub fn setup(seed: u64, t: &Tracer) -> Self {
        let mut study = t.span("core", "OversubscriptionStudy::new", || {
            OversubscriptionStudy::new(
                RowConfig::paper_inference_row(),
                PolcaPolicy::default(),
                DAYS,
                seed,
            )
        });
        study.set_record_power(false);
        let trainer = t.span("core", "OversubscriptionStudy::trained_thresholds", || {
            study.trained_thresholds()
        });
        let (kind, added, scale) = cells()[0];
        let warm = t.span(
            "core",
            "OversubscriptionStudy::run_cell (cache fill)",
            || {
                study.run_cell(
                    kind,
                    added,
                    scale,
                    &Recorder::disabled(),
                    &RowPowerTaps::new(),
                )
            },
        );
        Fig17 {
            seed,
            study,
            thresholds: (trainer.t1(), trainer.t2()),
            warm,
        }
    }

    pub fn run(&self, jobs: usize, t: &Tracer) -> Vec<PolicyOutcome> {
        t.span("core", "OversubscriptionStudy::sweep", || {
            self.study.sweep(&cells(), jobs)
        })
    }

    pub fn sim_row_s(&self) -> f64 {
        cells().len() as f64 * SimTime::from_days(DAYS).as_secs()
    }

    pub fn ops(&self, outs: &[PolicyOutcome]) -> Vec<Op> {
        let mut ops: Vec<Op> = outs
            .iter()
            .map(|o| policy_outcome(label(o.kind, o.power_scale), o))
            .collect();
        let warm = policy_outcome(String::new(), &self.warm).digest;
        if ops.first().is_some_and(|op| op.digest != warm) {
            ops[0]
                .broken
                .push("swept cell differs from the set-up run of the same cell".into());
        }
        ops
    }

    /// Brake counts per policy in Figure 17 order. The comparison is
    /// only meaningful when the uncapped baseline reaches the power
    /// brake under the +5 % drift, so that must happen; the trained
    /// thresholds must also be ordered.
    pub fn regime(&self, outs: &[PolicyOutcome]) -> Regime {
        let brakes: Vec<String> = outs
            .iter()
            .map(|o| format!("{} {}", label(o.kind, o.power_scale), o.brake_engagements))
            .collect();
        let nocap_drift = outs
            .iter()
            .find(|o| o.kind == PolicyKind::NoCap && o.power_scale > 1.0)
            .map_or(0, |o| o.brake_engagements);
        let (t1, t2) = self.thresholds;
        Regime {
            lines: vec![
                format!("brakes per policy: {}", brakes.join(", ")),
                format!("trained thresholds t1 {t1:.4} < t2 {t2:.4}"),
            ],
            ok: nocap_drift > 0 && t1 < t2,
        }
    }

    /// Layer metrics whose home is this workload: trace synthesis,
    /// threshold training, the reference run, per-cell run time and
    /// sweep efficiency against `parallel` (a sweep on `threads` that
    /// took `tn` seconds), and the kernel/row/telemetry counts of the
    /// POLCA +5 % cell run instrumented (which must reproduce the
    /// plain outcome).
    pub fn layers(
        &self,
        parallel: &[PolicyOutcome],
        tn: f64,
        threads: usize,
        t: &Tracer,
        m: &mut Layers,
    ) -> Vec<Op> {
        let trace = |added: f64| TraceConfig {
            seed: self.seed,
            horizon: SimTime::from_days(DAYS),
            schedule: self.study.base_schedule().scaled(1.0 + added),
            mix: WorkloadClass::table6(),
        };
        let start = Instant::now();
        let arrivals = t.span("trace", "ArrivalGenerator::collect", || {
            ArrivalGenerator::new(&trace(ADDED)).collect::<Vec<_>>()
        });
        m.put("trace.synthesis_s", start.elapsed().as_secs_f64(), "s");
        drop(arrivals);

        let start = Instant::now();
        t.span("core", "OversubscriptionStudy::trained_thresholds", || {
            self.study.trained_thresholds()
        });
        m.put(
            "core.threshold_training_s",
            start.elapsed().as_secs_f64(),
            "s",
        );

        // The study's uncapped reference run, through the same public
        // cluster API the study uses internally.
        let base = t.span("trace", "ArrivalGenerator::collect", || {
            ArrivalGenerator::new(&trace(0.0)).collect::<Vec<_>>()
        });
        let config = SimConfig {
            seed: self.seed,
            record_power_series: false,
            ..SimConfig::default()
        };
        let start = Instant::now();
        t.span("cluster", "ClusterSim::run (reference)", || {
            ClusterSim::new(RowConfig::paper_inference_row(), config, NoopController)
                .run(base.iter().copied(), SimTime::from_days(DAYS))
        });
        m.put("core.reference_run_s", start.elapsed().as_secs_f64(), "s");
        drop(base);

        // Cells one at a time: T1, and the jobs=1 digests.
        let plain = self.ops(parallel);
        let mut ops = Vec::new();
        let mut cell_s = Vec::new();
        for (i, (kind, added, scale)) in cells().into_iter().enumerate() {
            let start = Instant::now();
            let o = t.span("core", "OversubscriptionStudy::run_cell", || {
                self.study.run_cell(
                    kind,
                    added,
                    scale,
                    &Recorder::disabled(),
                    &RowPowerTaps::new(),
                )
            });
            cell_s.push(start.elapsed().as_secs_f64());
            let mut op = policy_outcome(format!("{} (jobs=1)", label(kind, scale)), &o);
            if op.digest != plain[i].digest {
                op.broken
                    .push(format!("jobs=1 and jobs={threads} digests differ"));
            }
            ops.push(op);
        }
        let t1: f64 = cell_s.iter().sum();
        m.put("core.cell_run_s.median", median(&cell_s), "s");
        m.put(
            "core.cell_run_s.max",
            cell_s.iter().cloned().fold(0.0, f64::max),
            "s",
        );
        m.put(
            "core.sweep_parallel_efficiency",
            t1 / (threads as f64 * tn),
            "ratio",
        );
        m.put(
            "cluster.brakes",
            parallel.iter().map(|o| o.brake_engagements).sum::<u64>() as f64,
            "count",
        );

        const COUNTED: usize = 4;
        let (kind, added, scale) = cells()[COUNTED];
        let recorder = Recorder::new(ObsLevel::Full);
        let observed = t.span(
            "core",
            "OversubscriptionStudy::run_cell (ObsLevel::Full)",
            || {
                self.study
                    .run_cell(kind, added, scale, &recorder, &RowPowerTaps::new())
            },
        );
        let mut op = policy_outcome(format!("{} (obs full)", label(kind, scale)), &observed);
        if op.digest != plain[COUNTED].digest {
            op.broken
                .push("ObsLevel::Full changed the simulated outcome".into());
        }
        ops.push(op);
        let snap = recorder.prof().snapshot();
        let events = snap.counter(ProfCounter::EventsPopped);
        let issued = observed.commands_issued;
        m.put("sim.events", events as f64, "count");
        m.put(
            "sim.ns_per_event",
            cell_s[COUNTED] * 1e9 / events.max(1) as f64,
            "ns",
        );
        m.put(
            "cluster.peak_queue_depth",
            snap.counter(ProfCounter::PeakQueueDepth) as f64,
            "count",
        );
        m.put("telemetry.commands_issued", issued as f64, "count");
        m.put(
            "telemetry.delivered_ratio",
            snap.counter(ProfCounter::OobCommandsDelivered) as f64 / issued.max(1) as f64,
            "ratio",
        );
        ops
    }
}
