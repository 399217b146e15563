//! # polca-ingest — real-trace ingestion, calibration, and replay
//!
//! The paper evaluates POLCA on production traces from Azure's LLM
//! inference fleet; the public artifact of that data is the
//! Azure-2024-style request log (`TIMESTAMP,ContextTokens,
//! GeneratedTokens`). This crate connects such logs to the simulator in
//! both directions:
//!
//! 1. **Ingest** ([`reader`]) — a dependency-free streaming CSV reader
//!    with a typed schema tolerant of header variants
//!    ([`schema::TraceSchema`]), skipping malformed rows with
//!    line-numbered diagnostics.
//! 2. **Characterize** ([`stats`]) — arrival rates, burstiness, diurnal
//!    profile, and token-length distributions of the ingested window.
//! 3. **Calibrate** ([`calibrate`]) — a least-squares fit of the
//!    generator's own diurnal model to the trace, validated with the
//!    §6.4 replication-MAPE bound, so a single ingested day can be
//!    extrapolated to the paper's six-week evaluation horizon.
//! 4. **Replay** ([`replay`]) — the trace verbatim as a request
//!    iterator for `polca-cluster`, with deterministic
//!    time-scaling and rate-scaling knobs.
//! 5. **Export** ([`export`]) — the inverse map, writing generated
//!    traces back out in the same schema; export → ingest → replay is
//!    exact.
//!
//! ```
//! use polca_ingest::{IngestedTrace, TraceCalibration, TraceReplay};
//!
//! let csv = "\
//! timestamp_s,context_tokens,generated_tokens,priority
//! 0.5,1200,300,high
//! 1.5,800,150,low
//! 3.0,1500,420,high
//! ";
//! let trace = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
//! assert_eq!(trace.len(), 3);
//!
//! // Replay it through the simulator exactly as recorded.
//! let requests: Vec<_> = TraceReplay::new(&trace).collect();
//! assert_eq!(requests[2].input_tokens, 1500);
//! ```

#![warn(missing_docs)]

pub mod calibrate;
pub mod error;
pub mod export;
pub mod reader;
pub mod replay;
pub mod schema;
pub mod stats;

pub use calibrate::TraceCalibration;
pub use error::IngestError;
pub use export::requests_to_csv;
pub use reader::{IngestedTrace, TraceReader};
pub use replay::{ReplayOptions, TraceReplay};
pub use schema::{TimestampKind, TraceRecord, TraceSchema};
pub use stats::{empirical_schedule, TraceStats, FINE_BIN_S};
