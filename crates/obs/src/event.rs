//! The structured event alphabet emitted by the simulation stack.
//!
//! Every event carries a simulation-time timestamp `t` in seconds.
//! Events are intentionally *sim-deterministic*: they never embed
//! wall-clock time, pointers, or any other run-to-run varying data, so
//! a fixed seed produces a byte-identical event log.

use std::io::{self, Write};

use crate::json::{render, Esc, Num};

/// One structured trace event.
///
/// Variants are cheap to construct (the only allocating variant is
/// [`Event::SloViolation`], which is emitted at most a handful of times
/// per run, at evaluation time).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A request started executing on a server.
    RequestDispatched {
        /// Simulation time in seconds.
        t: f64,
        /// Destination server index.
        server: usize,
        /// Monotonic request id.
        request: u64,
        /// Priority class name (`"high"` / `"low"`).
        priority: &'static str,
    },
    /// A request could not start immediately and was queued.
    RequestQueued {
        /// Simulation time in seconds.
        t: f64,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
    },
    /// A request was rejected (admission control / capacity).
    RequestRejected {
        /// Simulation time in seconds.
        t: f64,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
    },
    /// A request finished all phases and left the system.
    RequestCompleted {
        /// Simulation time in seconds.
        t: f64,
        /// Server that executed the request.
        server: usize,
        /// Monotonic request id.
        request: u64,
        /// Priority class name.
        priority: &'static str,
        /// End-to-end latency in seconds.
        latency_s: f64,
    },
    /// A frequency cap (GPU clock lock) took effect on a server.
    CapApplied {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Locked clock in MHz.
        mhz: f64,
    },
    /// A frequency cap was lifted on a server.
    Uncap {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
    },
    /// A power cap took effect on a server.
    PowerCapApplied {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Cap in watts.
        watts: f64,
    },
    /// A power cap was cleared on a server.
    PowerCapCleared {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
    },
    /// The hardware power brake was asserted or released on a server.
    BrakeEngaged {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// `true` when the brake engages, `false` when it releases.
        on: bool,
    },
    /// An out-of-band control command was put on the wire.
    OobCommandSent {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Command id from the control plane.
        command: u64,
        /// Scheduled delivery time in seconds.
        effective_at: f64,
    },
    /// An out-of-band control command was silently dropped.
    OobCommandLost {
        /// Simulation time in seconds.
        t: f64,
        /// Target server index.
        server: usize,
        /// Command id from the control plane.
        command: u64,
    },
    /// A delayed telemetry power reading for the whole row/cluster.
    PowerSample {
        /// Simulation time in seconds.
        t: f64,
        /// Observed aggregate power in watts.
        watts: f64,
    },
    /// The policy controller changed mode (e.g. `Uncapped -> T1`).
    ControllerTransition {
        /// Simulation time in seconds.
        t: f64,
        /// Mode being left.
        from: &'static str,
        /// Mode being entered.
        to: &'static str,
    },
    /// An SLO check failed at evaluation time.
    SloViolation {
        /// Simulation time in seconds (end of run).
        t: f64,
        /// Human-readable violation, e.g. `"high-priority p50: 1.2 > 1.01"`.
        detail: String,
    },
    /// Ground-truth power of one fleet row, sampled by the fleet
    /// composition layer at its aggregation boundary.
    FleetPowerSample {
        /// Simulation time in seconds.
        t: f64,
        /// Fleet row index.
        row: usize,
        /// Instantaneous row power in watts.
        watts: f64,
    },
    /// Aggregate power exceeded a budget in the distribution hierarchy.
    BudgetViolation {
        /// Simulation time in seconds.
        t: f64,
        /// Hierarchy level (`"pdu"`, `"datacenter"`, or `"site"`).
        scope: &'static str,
        /// Index of the violated unit (PDU or datacenter index; 0 for
        /// the site).
        unit: usize,
        /// Aggregate power at the sample, in watts.
        watts: f64,
        /// The violated budget, in watts.
        budget_watts: f64,
    },
}

impl Event {
    /// The event's simulation timestamp in seconds.
    pub fn t(&self) -> f64 {
        match self {
            Event::RequestDispatched { t, .. }
            | Event::RequestQueued { t, .. }
            | Event::RequestRejected { t, .. }
            | Event::RequestCompleted { t, .. }
            | Event::CapApplied { t, .. }
            | Event::Uncap { t, .. }
            | Event::PowerCapApplied { t, .. }
            | Event::PowerCapCleared { t, .. }
            | Event::BrakeEngaged { t, .. }
            | Event::OobCommandSent { t, .. }
            | Event::OobCommandLost { t, .. }
            | Event::PowerSample { t, .. }
            | Event::ControllerTransition { t, .. }
            | Event::SloViolation { t, .. }
            | Event::FleetPowerSample { t, .. }
            | Event::BudgetViolation { t, .. } => *t,
        }
    }

    /// A stable machine-readable kind tag (the `"ev"` field in JSONL).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RequestDispatched { .. } => "request_dispatched",
            Event::RequestQueued { .. } => "request_queued",
            Event::RequestRejected { .. } => "request_rejected",
            Event::RequestCompleted { .. } => "request_completed",
            Event::CapApplied { .. } => "cap_applied",
            Event::Uncap { .. } => "uncap",
            Event::PowerCapApplied { .. } => "power_cap_applied",
            Event::PowerCapCleared { .. } => "power_cap_cleared",
            Event::BrakeEngaged { .. } => "brake",
            Event::OobCommandSent { .. } => "oob_sent",
            Event::OobCommandLost { .. } => "oob_lost",
            Event::PowerSample { .. } => "power_sample",
            Event::ControllerTransition { .. } => "controller_transition",
            Event::SloViolation { .. } => "slo_violation",
            Event::FleetPowerSample { .. } => "fleet_power_sample",
            Event::BudgetViolation { .. } => "budget_violation",
        }
    }

    /// The server index the event targets, if any.
    pub fn server(&self) -> Option<usize> {
        match self {
            Event::RequestDispatched { server, .. }
            | Event::RequestCompleted { server, .. }
            | Event::CapApplied { server, .. }
            | Event::Uncap { server, .. }
            | Event::PowerCapApplied { server, .. }
            | Event::PowerCapCleared { server, .. }
            | Event::BrakeEngaged { server, .. }
            | Event::OobCommandSent { server, .. }
            | Event::OobCommandLost { server, .. } => Some(*server),
            _ => None,
        }
    }

    /// Serializes the event as a single JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        render(|w| self.write_json(w))
    }

    /// Writes the event as a single JSON object (one JSONL line,
    /// without the trailing newline) into `w`.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        write!(w, "{{\"ev\":\"{}\",\"t\":{}", self.kind(), Num(self.t()))?;
        match self {
            Event::RequestDispatched {
                server,
                request,
                priority,
                ..
            } => write!(
                w,
                ",\"server\":{server},\"request\":{request},\"priority\":\"{}\"",
                Esc(priority)
            ),
            Event::RequestQueued {
                request, priority, ..
            }
            | Event::RequestRejected {
                request, priority, ..
            } => write!(
                w,
                ",\"request\":{request},\"priority\":\"{}\"",
                Esc(priority)
            ),
            Event::RequestCompleted {
                server,
                request,
                priority,
                latency_s,
                ..
            } => write!(
                w,
                ",\"server\":{server},\"request\":{request},\"priority\":\"{}\",\"latency_s\":{}",
                Esc(priority),
                Num(*latency_s)
            ),
            Event::CapApplied { server, mhz, .. } => {
                write!(w, ",\"server\":{server},\"mhz\":{}", Num(*mhz))
            }
            Event::Uncap { server, .. } | Event::PowerCapCleared { server, .. } => {
                write!(w, ",\"server\":{server}")
            }
            Event::PowerCapApplied { server, watts, .. } => {
                write!(w, ",\"server\":{server},\"watts\":{}", Num(*watts))
            }
            Event::BrakeEngaged { server, on, .. } => {
                write!(w, ",\"server\":{server},\"on\":{on}")
            }
            Event::OobCommandSent {
                server,
                command,
                effective_at,
                ..
            } => write!(
                w,
                ",\"server\":{server},\"command\":{command},\"effective_at\":{}",
                Num(*effective_at)
            ),
            Event::OobCommandLost {
                server, command, ..
            } => write!(w, ",\"server\":{server},\"command\":{command}"),
            Event::PowerSample { watts, .. } => write!(w, ",\"watts\":{}", Num(*watts)),
            Event::ControllerTransition { from, to, .. } => {
                write!(w, ",\"from\":\"{}\",\"to\":\"{}\"", Esc(from), Esc(to))
            }
            Event::SloViolation { detail, .. } => {
                write!(w, ",\"detail\":\"{}\"", Esc(detail))
            }
            Event::FleetPowerSample { row, watts, .. } => {
                write!(w, ",\"row\":{row},\"watts\":{}", Num(*watts))
            }
            Event::BudgetViolation {
                scope,
                unit,
                watts,
                budget_watts,
                ..
            } => write!(
                w,
                ",\"scope\":\"{}\",\"unit\":{unit},\"watts\":{},\"budget_watts\":{}",
                Esc(scope),
                Num(*watts),
                Num(*budget_watts)
            ),
        }?;
        w.write_all(b"}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_round_trip() {
        let e = Event::CapApplied {
            t: 12.5,
            server: 3,
            mhz: 1110.0,
        };
        assert_eq!(e.t(), 12.5);
        assert_eq!(e.kind(), "cap_applied");
        assert_eq!(e.server(), Some(3));
    }

    #[test]
    fn fleet_event_json_is_stable() {
        let e = Event::FleetPowerSample {
            t: 4.0,
            row: 2,
            watts: 190250.5,
        };
        assert_eq!(
            e.to_json(),
            r#"{"ev":"fleet_power_sample","t":4,"row":2,"watts":190250.5}"#
        );
        assert_eq!(e.server(), None);

        let e = Event::BudgetViolation {
            t: 6.0,
            scope: "pdu",
            unit: 1,
            watts: 250000.0,
            budget_watts: 240000.0,
        };
        assert_eq!(
            e.to_json(),
            r#"{"ev":"budget_violation","t":6,"scope":"pdu","unit":1,"watts":250000,"budget_watts":240000}"#
        );
        assert_eq!(e.t(), 6.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let e = Event::PowerSample {
            t: 2.0,
            watts: 180000.0,
        };
        assert_eq!(e.to_json(), r#"{"ev":"power_sample","t":2,"watts":180000}"#);

        let e = Event::BrakeEngaged {
            t: 0.25,
            server: 7,
            on: true,
        };
        assert_eq!(
            e.to_json(),
            r#"{"ev":"brake","t":0.25,"server":7,"on":true}"#
        );
    }

    #[test]
    fn slo_detail_is_escaped() {
        let e = Event::SloViolation {
            t: 1.0,
            detail: "p50 \"bad\"\n".to_string(),
        };
        assert_eq!(
            e.to_json(),
            r#"{"ev":"slo_violation","t":1,"detail":"p50 \"bad\"\n"}"#
        );
    }

    #[test]
    fn global_events_have_no_server() {
        let e = Event::PowerSample { t: 0.0, watts: 1.0 };
        assert_eq!(e.server(), None);
    }
}
