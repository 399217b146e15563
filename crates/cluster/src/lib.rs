//! Datacenter power hierarchy and discrete-event LLM cluster simulation.
//!
//! The paper's POLCA evaluation runs on "a discrete event simulator ...
//! built for a high-traffic scenario \[that\] assumes that all the servers
//! are serving inference with models loaded" (§6.4), over the power
//! hierarchy of Figure 2 (servers → racks → PDU-fed rows). This crate
//! implements that substrate:
//!
//! * [`server_spec`] — the DGX-A100 provisioned-power breakdown of
//!   Figure 3 and the server-level power composition law behind
//!   Figure 11 (GPUs ≈ 60 % of server power),
//! * [`request`] — inference requests with the two priority classes of
//!   Table 5/6,
//! * [`server`] — the *legacy* per-server state machine used by the
//!   paper's §6.6 evaluation: one request in service plus a small
//!   buffer, prompt → token phase progression, frequency lock / power
//!   brake effects on in-flight work. The `polca-serve` crate provides
//!   the alternative continuous-batching engine (iteration-level
//!   scheduling, paged KV-cache, prefill/decode pools), selected per
//!   run via [`sim::EngineKind`],
//! * [`row`] — the row of Table 2: 40 DGX-A100 servers behind one PDU,
//! * [`sim`] — the event-driven simulator: arrivals, dispatch, phase
//!   transitions, 2 s row telemetry with propagation delay, OOB command
//!   delivery, and a pluggable [`sim::PowerController`]
//!   (POLCA and its baselines live in the `polca` crate). The run loop
//!   is factored into the resumable [`sim::RowSim`] engine, which
//!   supports `step_until`-style incremental execution and drives
//!   either serving engine,
//! * [`site`] — [`site::SiteSim`], the one multi-row driver: N
//!   datacenters of M rows under a single power tree (rows → PDUs →
//!   datacenters → site bus) with a monitored or enforced budget at
//!   every node, stepped in lockstep epochs of telemetry windows by an
//!   optional scoped thread pool with a deterministic canonical-order
//!   merge at every boundary. The default [`site::SiteConfig`] is one row,
//!   bit-identical to [`ClusterSim::run`],
//! * [`training`] — the synchronized training-cluster power model behind
//!   Table 4's training column.
//!
//! # Examples
//!
//! ```
//! use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig};
//!
//! let row = RowConfig::paper_inference_row();
//! let mut sim = ClusterSim::new(row, SimConfig::default(), NoopController);
//! let report = sim.run(std::iter::empty(), polca_sim::SimTime::from_secs(10.0));
//! assert_eq!(report.completed, 0);
//! ```

#![deny(missing_docs)]

pub mod request;
pub mod row;
pub mod server;
pub mod server_spec;
pub mod sim;
pub mod site;
pub mod training;

pub use request::{CompletedRequest, Priority, Request};
pub use row::RowConfig;
pub use server::{InferenceServer, ServerState, HOT_IDLE_INTENSITY};
pub use server_spec::ServerSpec;
pub use sim::{
    ClusterSim, ControlRequest, ControlTarget, EngineKind, NoopController, PowerController,
    RowContext, RowSim, SimConfig, SimReport,
};
pub use site::{row_seed, SiteConfig, SiteReport, SiteSim};
pub use training::TrainingCluster;
