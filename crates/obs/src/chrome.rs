//! Chrome trace-event JSON synthesis.
//!
//! Converts the structured event log into the trace-event format that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Layout:
//!
//! * one *process* (`pid 1`, named `polca-sim`),
//! * `tid 0` is the cluster/controller track (power counter, controller
//!   transitions, SLO violations, queue/reject instants),
//! * `tid N+1` is server `N`'s track, showing request execution spans
//!   and cap / power-cap / brake spans,
//! * aggregate power becomes a counter (`"C"`) series, so the row power
//!   timeline renders as a graph above the server tracks.
//!
//! Timestamps are microseconds of simulation time. Spans still open at
//! the end of the log are closed at the last observed timestamp.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use crate::event::Event;
use crate::json::{render, Esc, Num};

const PID: u32 = 1;

/// An extra "instant" marker merged into the trace on the cluster
/// track — how the watch plane overlays alert firings and incident
/// lifecycle transitions onto the Perfetto timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Simulation time in seconds.
    pub t: f64,
    /// Marker name (e.g. `alert:row-power-high`).
    pub name: String,
    /// Free-form detail shown in the args pane.
    pub detail: String,
}

/// A Chrome trace-event document being streamed into a sink:
/// [`begin`](Self::begin) writes the header, [`entry`](Self::entry)
/// the separator before each event object, and
/// [`finish`](Self::finish) the footer.
pub struct TraceEvents<'w, W: Write> {
    w: &'w mut W,
    first: bool,
}

impl<'w, W: Write> TraceEvents<'w, W> {
    /// Writes the document header.
    pub fn begin(w: &'w mut W) -> io::Result<Self> {
        w.write_all(b"{\"traceEvents\":[\n")?;
        Ok(TraceEvents { w, first: true })
    }

    /// Starts the next event: returns the sink to write its one JSON
    /// object into.
    pub fn entry(&mut self) -> io::Result<&mut W> {
        if !self.first {
            self.w.write_all(b",\n")?;
        }
        self.first = false;
        Ok(self.w)
    }

    /// Writes the document footer.
    pub fn finish(self) -> io::Result<()> {
        self.w.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
    }
}

/// Builds a complete Chrome trace JSON document from an event log.
pub fn trace_json(events: &[Event]) -> String {
    render(|w| write_trace(w, events, &[], |_| Ok(())))
}

/// Writes the Chrome trace document for `events` into `w`, with
/// `annotations` as instant events on the cluster track (tid 0) and
/// whatever `lanes` adds (the polca-req request lanes, the
/// polca-energy counters) after them. With no annotations and no
/// lanes the output is [`trace_json`]'s.
pub fn write_trace<W: Write>(
    w: &mut W,
    events: &[Event],
    annotations: &[Annotation],
    lanes: impl FnOnce(&mut TraceEvents<'_, W>) -> io::Result<()>,
) -> io::Result<()> {
    let mut doc = TraceEvents::begin(w)?;
    let t_end = events.iter().map(Event::t).fold(0.0_f64, f64::max);

    // Metadata: process name plus one named thread per referenced server.
    write!(
        doc.entry()?,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"polca-sim\"}}}}"
    )?;
    write!(
        doc.entry()?,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"cluster\"}}}}"
    )?;
    let mut servers: Vec<usize> = events.iter().filter_map(Event::server).collect();
    servers.sort_unstable();
    servers.dedup();
    for s in &servers {
        write!(
            doc.entry()?,
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"server-{s}\"}}}}",
            tid(*s)
        )?;
    }

    // Open-span state, keyed for deterministic flush order at the end.
    let mut open_requests: BTreeMap<u64, (f64, usize, &'static str)> = BTreeMap::new();
    let mut open_caps: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut open_power_caps: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut open_brakes: BTreeMap<usize, f64> = BTreeMap::new();

    for ev in events {
        match ev {
            Event::RequestDispatched {
                t,
                server,
                request,
                priority,
            } => {
                open_requests.insert(*request, (*t, *server, priority));
            }
            Event::RequestCompleted {
                t,
                server,
                request,
                priority,
                ..
            } => {
                let (t0, srv, pri) = open_requests
                    .remove(request)
                    .unwrap_or((*t, *server, priority));
                complete_span(
                    &mut doc,
                    "req",
                    "request",
                    tid(srv),
                    t0,
                    *t,
                    format_args!("{{\"request\":{request},\"priority\":\"{}\"}}", Esc(pri)),
                )?;
            }
            Event::RequestQueued { t, request, .. } => {
                instant(
                    &mut doc,
                    "queued",
                    0,
                    *t,
                    format_args!("{{\"request\":{request}}}"),
                )?;
            }
            Event::RequestRejected { t, request, .. } => {
                instant(
                    &mut doc,
                    "rejected",
                    0,
                    *t,
                    format_args!("{{\"request\":{request}}}"),
                )?;
            }
            Event::CapApplied { t, server, mhz } => {
                open_caps.entry(*server).or_insert((*t, *mhz));
            }
            Event::Uncap { t, server } => {
                if let Some((t0, mhz)) = open_caps.remove(server) {
                    complete_span(
                        &mut doc,
                        "cap",
                        "power",
                        tid(*server),
                        t0,
                        *t,
                        format_args!("{{\"mhz\":{}}}", Num(mhz)),
                    )?;
                }
            }
            Event::PowerCapApplied { t, server, watts } => {
                open_power_caps.entry(*server).or_insert((*t, *watts));
            }
            Event::PowerCapCleared { t, server } => {
                if let Some((t0, watts)) = open_power_caps.remove(server) {
                    complete_span(
                        &mut doc,
                        "powercap",
                        "power",
                        tid(*server),
                        t0,
                        *t,
                        format_args!("{{\"watts\":{}}}", Num(watts)),
                    )?;
                }
            }
            Event::BrakeEngaged { t, server, on } => {
                if *on {
                    open_brakes.entry(*server).or_insert(*t);
                } else if let Some(t0) = open_brakes.remove(server) {
                    complete_span(
                        &mut doc,
                        "brake",
                        "power",
                        tid(*server),
                        t0,
                        *t,
                        format_args!("{{}}"),
                    )?;
                }
            }
            Event::OobCommandSent {
                t, server, command, ..
            } => {
                instant(
                    &mut doc,
                    "oob_sent",
                    tid(*server),
                    *t,
                    format_args!("{{\"command\":{command}}}"),
                )?;
            }
            Event::OobCommandLost {
                t, server, command, ..
            } => {
                instant(
                    &mut doc,
                    "oob_lost",
                    tid(*server),
                    *t,
                    format_args!("{{\"command\":{command}}}"),
                )?;
            }
            Event::PowerSample { t, watts } => {
                write!(
                    doc.entry()?,
                    "{{\"ph\":\"C\",\"pid\":{PID},\"name\":\"row_power_w\",\"ts\":{},\"args\":{{\"watts\":{}}}}}",
                    us(*t),
                    Num(*watts)
                )?;
            }
            Event::ControllerTransition { t, from, to } => {
                instant(
                    &mut doc,
                    "controller",
                    0,
                    *t,
                    format_args!("{{\"from\":\"{}\",\"to\":\"{}\"}}", Esc(from), Esc(to)),
                )?;
            }
            Event::SloViolation { t, detail } => {
                instant(
                    &mut doc,
                    "slo_violation",
                    0,
                    *t,
                    format_args!("{{\"detail\":\"{}\"}}", Esc(detail)),
                )?;
            }
            Event::FleetPowerSample { t, row, watts } => {
                write!(
                    doc.entry()?,
                    "{{\"ph\":\"C\",\"pid\":{PID},\"name\":\"fleet_row{row}_power_w\",\"ts\":{},\"args\":{{\"watts\":{}}}}}",
                    us(*t),
                    Num(*watts)
                )?;
            }
            Event::BudgetViolation {
                t,
                scope,
                unit,
                watts,
                budget_watts,
            } => {
                instant(
                    &mut doc,
                    "budget_violation",
                    0,
                    *t,
                    format_args!(
                        "{{\"scope\":\"{}\",\"unit\":{unit},\"watts\":{},\"budget_watts\":{}}}",
                        Esc(scope),
                        Num(*watts),
                        Num(*budget_watts)
                    ),
                )?;
            }
        }
    }

    // Close anything still open at the final timestamp so the spans
    // render instead of vanishing.
    for (request, (t0, srv, pri)) in open_requests {
        complete_span(
            &mut doc,
            "req",
            "request",
            tid(srv),
            t0,
            t_end,
            format_args!("{{\"request\":{request},\"priority\":\"{}\"}}", Esc(pri)),
        )?;
    }
    for (server, (t0, mhz)) in open_caps {
        complete_span(
            &mut doc,
            "cap",
            "power",
            tid(server),
            t0,
            t_end,
            format_args!("{{\"mhz\":{}}}", Num(mhz)),
        )?;
    }
    for (server, (t0, watts)) in open_power_caps {
        complete_span(
            &mut doc,
            "powercap",
            "power",
            tid(server),
            t0,
            t_end,
            format_args!("{{\"watts\":{}}}", Num(watts)),
        )?;
    }
    for (server, t0) in open_brakes {
        complete_span(
            &mut doc,
            "brake",
            "power",
            tid(server),
            t0,
            t_end,
            format_args!("{{}}"),
        )?;
    }

    for a in annotations {
        instant(
            &mut doc,
            &a.name,
            0,
            a.t,
            format_args!("{{\"detail\":\"{}\"}}", Esc(&a.detail)),
        )?;
    }

    lanes(&mut doc)?;
    doc.finish()
}

fn tid(server: usize) -> u32 {
    server as u32 + 1
}

fn us(t: f64) -> Num {
    Num(t * 1e6)
}

fn complete_span<W: Write>(
    doc: &mut TraceEvents<'_, W>,
    name: &str,
    cat: &str,
    tid: u32,
    t0: f64,
    t1: f64,
    args: fmt::Arguments<'_>,
) -> io::Result<()> {
    write!(
        doc.entry()?,
        "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{args}}}",
        Esc(name),
        Esc(cat),
        us(t0),
        us((t1 - t0).max(0.0)),
    )
}

fn instant<W: Write>(
    doc: &mut TraceEvents<'_, W>,
    name: &str,
    tid: u32,
    t: f64,
    args: fmt::Arguments<'_>,
) -> io::Result<()> {
    write!(
        doc.entry()?,
        "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\"s\":\"t\",\"ts\":{},\"args\":{args}}}",
        Esc(name),
        us(t),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_span_pairs_into_complete_event() {
        let events = vec![
            Event::CapApplied {
                t: 1.0,
                server: 2,
                mhz: 1110.0,
            },
            Event::Uncap { t: 3.0, server: 2 },
        ];
        let j = trace_json(&events);
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"cap\""), "{j}");
        assert!(j.contains("\"ts\":1000000"), "{j}");
        assert!(j.contains("\"dur\":2000000"), "{j}");
        assert!(j.contains("\"name\":\"server-2\""), "{j}");
    }

    #[test]
    fn unclosed_spans_flush_at_end() {
        let events = vec![
            Event::BrakeEngaged {
                t: 1.0,
                server: 0,
                on: true,
            },
            Event::PowerSample {
                t: 5.0,
                watts: 100.0,
            },
        ];
        let j = trace_json(&events);
        assert!(j.contains("\"name\":\"brake\""), "{j}");
        assert!(j.contains("\"dur\":4000000"), "{j}");
    }

    #[test]
    fn power_samples_become_counters() {
        let events = vec![Event::PowerSample {
            t: 2.0,
            watts: 180.0,
        }];
        let j = trace_json(&events);
        assert!(j.contains("\"ph\":\"C\""), "{j}");
        assert!(j.contains("row_power_w"), "{j}");
    }

    #[test]
    fn annotations_merge_as_cluster_instants() {
        let events = vec![Event::PowerSample {
            t: 5.0,
            watts: 100.0,
        }];
        let notes = vec![Annotation {
            t: 3.0,
            name: "alert:row-power-high".to_string(),
            detail: "0.97 of provisioned".to_string(),
        }];
        let annotated =
            |notes: &[Annotation]| render(|w| write_trace(w, &events, notes, |_| Ok(())));
        let j = annotated(&notes);
        assert!(j.contains("\"name\":\"alert:row-power-high\""), "{j}");
        assert!(j.contains("\"detail\":\"0.97 of provisioned\""), "{j}");
        assert!(j.contains("\"ts\":3000000"), "{j}");
        // An empty annotation set reproduces the plain export exactly.
        assert_eq!(annotated(&[]), trace_json(&events));
    }

    #[test]
    fn output_is_deterministic() {
        let events = vec![
            Event::CapApplied {
                t: 0.5,
                server: 1,
                mhz: 900.0,
            },
            Event::OobCommandSent {
                t: 0.75,
                server: 1,
                command: 42,
                effective_at: 1.0,
            },
        ];
        assert_eq!(trace_json(&events), trace_json(&events));
    }
}
