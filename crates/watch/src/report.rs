//! Markdown postmortem rendering.
//!
//! The watch plane's `report.md` is a deterministic, human-readable
//! digest of a run: alert/incident counts, per-class SLO burn
//! accounting, and one postmortem section per incident with its
//! timeline and detection-lag annotation.

use std::fmt;
use std::io;

use polca_cluster::Priority;

use crate::burn::BurnSummary;
use crate::engine::Alert;
use crate::incident::{Incident, IncidentState};
use crate::rules::Severity;

/// Displays a simulated time as `t=12.5s`.
struct FmtT(f64);

impl fmt::Display for FmtT {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.1}s", self.0)
    }
}

fn class_name(priority: Priority) -> &'static str {
    match priority {
        Priority::Low => "low",
        Priority::High => "high",
    }
}

/// Writes the full watch report (the `report.md` body) into `w`.
pub fn write(
    w: &mut impl io::Write,
    incidents: &[Incident],
    alerts: &[Alert],
    burn: &[BurnSummary],
    t_end: f64,
) -> io::Result<()> {
    writeln!(w, "# Watch report")?;
    writeln!(w)?;
    writeln!(
        w,
        "Run covered {:.0} s of simulated time. The watch plane saw only \
         the delayed out-of-band telemetry feed; ground-truth times below \
         are annotations added for detection-lag accounting.",
        t_end
    )?;
    writeln!(w)?;

    let crit = |sev: Severity| alerts.iter().filter(|a| a.severity == sev).count();
    writeln!(w, "## Summary")?;
    writeln!(w)?;
    writeln!(
        w,
        "- alerts: {} ({} critical, {} warning)",
        alerts.len(),
        crit(Severity::Critical),
        crit(Severity::Warning)
    )?;
    let open = incidents
        .iter()
        .filter(|i| i.state != IncidentState::Resolved)
        .count();
    writeln!(
        w,
        "- incidents: {} ({} unresolved at end of run)",
        incidents.len(),
        open
    )?;
    let lags: Vec<f64> = incidents.iter().filter_map(|i| i.detection_lag_s).collect();
    if !lags.is_empty() {
        let max = lags.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mean = lags.iter().sum::<f64>() / lags.len() as f64;
        writeln!(
            w,
            "- detection lag: mean {mean:.1} s, max {max:.1} s across {} incident(s) \
             with known ground truth",
            lags.len()
        )?;
    }
    writeln!(w)?;

    writeln!(w, "## SLO burn")?;
    writeln!(w)?;
    writeln!(
        w,
        "| class | requests | over-latency | peak burn (5m) | peak burn (1h) |"
    )?;
    writeln!(
        w,
        "|-------|----------|--------------|----------------|----------------|"
    )?;
    for b in burn {
        writeln!(
            w,
            "| {} | {} | {} | {:.1}x | {:.1}x |",
            class_name(b.priority),
            b.total,
            b.bad,
            b.peak_fast_burn,
            b.peak_slow_burn
        )?;
    }
    writeln!(w)?;

    if incidents.is_empty() {
        writeln!(w, "## Incidents")?;
        writeln!(w)?;
        writeln!(w, "No incidents: no rule fired during the run.")?;
        return Ok(());
    }

    for inc in incidents {
        writeln!(
            w,
            "## Incident #{}: {} ({}, {})",
            inc.id,
            inc.rule,
            inc.severity,
            inc.state.tag()
        )?;
        writeln!(w)?;
        writeln!(w, "{}", inc.detail)?;
        writeln!(w)?;
        writeln!(w, "### Timeline")?;
        writeln!(w)?;
        if let Some(tt) = inc.truth_t {
            writeln!(w, "- {} — condition first held (ground truth)", FmtT(tt))?;
        }
        match inc.detection_lag_s {
            Some(lag) => {
                writeln!(
                    w,
                    "- {} — alert fired (detection lag {:.1} s behind ground truth)",
                    FmtT(inc.opened_t),
                    lag
                )?;
            }
            None => {
                writeln!(
                    w,
                    "- {} — alert fired (ground-truth onset unknown)",
                    FmtT(inc.opened_t)
                )?;
            }
        }
        if let Some(et) = inc.escalated_t {
            writeln!(w, "- {} — escalated", FmtT(et))?;
        }
        if let Some(mt) = inc.mitigated_t {
            writeln!(w, "- {} — mitigation observed (rule cleared)", FmtT(mt))?;
        }
        match inc.resolved_t {
            Some(rt) => {
                writeln!(w, "- {} — resolved", FmtT(rt))?;
            }
            None => {
                writeln!(w, "- unresolved at end of run ({})", FmtT(t_end))?;
            }
        }
        writeln!(w)?;
        writeln!(
            w,
            "{} correlated alert(s); peak value {:.3}.",
            inc.alerts, inc.peak_value
        )?;
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(
        incidents: &[Incident],
        alerts: &[Alert],
        burn: &[BurnSummary],
        t_end: f64,
    ) -> String {
        polca_obs::json::render(|w| write(w, incidents, alerts, burn, t_end))
    }

    fn incident() -> Incident {
        Incident {
            id: 0,
            rule: "row-power-high".to_string(),
            severity: Severity::Critical,
            state: IncidentState::Resolved,
            opened_t: 102.0,
            truth_t: Some(100.0),
            detection_lag_s: Some(2.0),
            escalated_t: Some(110.0),
            mitigated_t: Some(130.0),
            resolved_t: Some(430.0),
            alerts: 4,
            peak_value: 0.97,
            detail: "row power at 97.0% of provisioned".to_string(),
        }
    }

    fn summaries() -> [BurnSummary; 2] {
        [
            BurnSummary {
                priority: Priority::High,
                total: 100,
                bad: 0,
                peak_fast_burn: 0.0,
                peak_slow_burn: 0.0,
            },
            BurnSummary {
                priority: Priority::Low,
                total: 50,
                bad: 5,
                peak_fast_burn: 12.0,
                peak_slow_burn: 4.0,
            },
        ]
    }

    #[test]
    fn report_includes_lag_and_timeline() {
        let alerts = vec![Alert {
            t: 102.0,
            rule: "row-power-high".to_string(),
            severity: Severity::Critical,
            value: 0.97,
            truth_t: Some(100.0),
            detail: "d".to_string(),
        }];
        let md = render(&[incident()], &alerts, &summaries(), 1000.0);
        assert!(md.contains("# Watch report"));
        assert!(md.contains("detection lag 2.0 s behind ground truth"));
        assert!(md.contains("t=100.0s — condition first held (ground truth)"));
        assert!(md.contains("t=430.0s — resolved"));
        assert!(md.contains("| low | 50 | 5 | 12.0x | 4.0x |"));
        assert!(md.contains("alerts: 1 (1 critical, 0 warning)"));
    }

    #[test]
    fn empty_run_reports_no_incidents() {
        let md = render(&[], &[], &summaries(), 100.0);
        assert!(md.contains("No incidents"));
        assert!(md.contains("incidents: 0 (0 unresolved at end of run)"));
    }

    #[test]
    fn unresolved_incident_says_so() {
        let mut inc = incident();
        inc.state = IncidentState::Open;
        inc.resolved_t = None;
        let md = render(&[inc], &[], &summaries(), 555.0);
        assert!(md.contains("unresolved at end of run (t=555.0s)"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(&[incident()], &[], &summaries(), 1000.0);
        let b = render(&[incident()], &[], &summaries(), 1000.0);
        assert_eq!(a, b);
    }
}
