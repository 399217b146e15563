//! Observability for the polca simulation stack.
//!
//! The simulator used to be a black box: a run returned end-of-run
//! aggregates and nothing else, so questions like *when did the
//! dual-threshold controller cap?* or *which servers braked during the
//! spike?* were unanswerable. This crate makes a run inspectable:
//!
//! * [`Event`] — a typed, allocation-light structured event alphabet
//!   (`RequestDispatched`, `CapApplied`, `BrakeEngaged`, `PowerSample`,
//!   …) with simulation-time timestamps,
//! * [`Recorder`] — the cheap handle the simulator threads through its
//!   hot loops; a disabled recorder costs one branch per call,
//! * [`MetricsRegistry`] — labeled counters, gauges, and streaming
//!   histograms (per-server, per-priority, per-policy series),
//! * [`Profiler`] (polca-prof) — the one wall-clock profiler: lock-free,
//!   self-time phase accounting of the simulator's own hot paths (event
//!   loop, controller, trace synthesis, ingest, threshold training, …),
//!   with an attribution table, folded-stack/speedscope and
//!   Chrome-trace exports,
//! * [`ReqSpan`]/[`ReqRecord`] (polca-req) — per-request lifecycle
//!   tracing: TTFT, mean/max time-between-tokens, queue/recompute/KV
//!   -shipping breakdowns, and a joules-per-token ledger, exported as
//!   `requests.jsonl` plus Chrome-trace request lanes,
//! * [`EnergyLedger`] (polca-energy) — hierarchical Wh/gCO2e accounting
//!   over the telemetry windows with per-datacenter PUE and a grid
//!   carbon-intensity signal (constant, synthetic diurnal, or CSV
//!   trace), exported as `energy.json`, an `energy.csv` timeseries,
//!   `energy_*`/`carbon_*` Prometheus lines, and Chrome-trace counter
//!   lanes,
//! * [`RunArtifacts`] — exporters: a JSONL event log, CSV power and
//!   latency timeseries, and a Chrome trace-event JSON that opens
//!   directly in Perfetto (`https://ui.perfetto.dev`) or
//!   `chrome://tracing` with servers as tracks and cap/brake spans
//!   visible. Every artifact has one renderer that streams into an
//!   `io::Write` sink; [`Recorder::write_dir`] streams each file from
//!   the recorder's core with no snapshot (see [`export`]).
//!
//! Determinism is part of the contract: event recording never perturbs
//! simulation results, and with a fixed seed the emitted event log is
//! byte-identical across runs. (Wall-clock phase timings are inherently
//! non-deterministic and therefore live in the separate `prof.*`
//! artifacts, never in the event log.)
//!
//! # Example
//!
//! ```
//! use polca_obs::{Event, ObsLevel, Recorder};
//!
//! let obs = Recorder::new(ObsLevel::Full);
//! obs.record(Event::PowerSample { t: 2.0, watts: 180_000.0 });
//! obs.record(Event::CapApplied { t: 4.0, server: 3, mhz: 1110.0 });
//! let artifacts = obs.artifacts();
//! assert_eq!(artifacts.events.len(), 2);
//! assert!(artifacts.chrome_trace_json().contains("\"ph\""));
//! ```

#![deny(missing_docs)]

pub mod chrome;
pub mod energy;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod recorder;
pub mod req;

pub use chrome::Annotation;
pub use energy::{
    CarbonSignal, CarbonTrace, EnergyAccum, EnergyLedger, EnergyPlan, EnergySample, LevelEnergy,
    RowEnergy, DEFAULT_PUE,
};
pub use event::Event;
pub use export::RunArtifacts;
pub use metrics::{Label, MetricsRegistry, StreamingHistogram};
pub use prof::{Phase, PhaseAgg, ProfCounter, ProfGuard, ProfSnapshot, Profiler};
pub use recorder::{EventTap, ObsLevel, QueueProbe, Recorder};
pub use req::{ReqRecord, ReqSpan, ReqTraceConfig};
