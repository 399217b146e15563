//! Digests of simulated statistics, and the invariants every
//! operation must keep.
//!
//! A digest is FNV-1a over the exact bits of a run's simulated
//! statistics, so any change to the model's output changes it while
//! host timing never does.

use polca::PolicyOutcome;
use polca_cluster::SimReport;
use polca_stats::Quantiles;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn quantiles(&mut self, q: &Quantiles) -> &mut Self {
        for v in [q.p50, q.p90, q.p99, q.max, q.min, q.mean] {
            self.f64(v);
        }
        self.u64(q.count as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One simulated operation's digest and the invariants it broke.
#[derive(Debug, Clone)]
pub struct Op {
    pub label: String,
    pub digest: u64,
    pub broken: Vec<String>,
}

/// Folds one row report into `d`: per-class offered/completed/rejected,
/// brakes, commands, peak/mean power, latency quantiles, event count.
pub fn row_report(d: &mut Digest, r: &SimReport) {
    for (a, b) in [
        r.offered_by_priority,
        r.completed_by_priority,
        r.rejected_by_priority,
    ] {
        d.u64(a).u64(b);
    }
    d.u64(r.brake_engagements)
        .u64(r.commands_issued)
        .u64(r.events_processed)
        .f64(r.peak_row_watts)
        .f64(r.mean_row_watts);
    for lat in [&r.low_latencies_s, &r.high_latencies_s] {
        d.u64(lat.len() as u64);
        if let Some(q) = Quantiles::from_samples(lat) {
            d.quantiles(&q);
        }
    }
}

/// Request conservation for one row report: per class, offered =
/// completed + rejected + in flight at the horizon, with in flight
/// never negative, and one latency sample per completion.
pub fn row_invariants(r: &SimReport, broken: &mut Vec<String>) {
    let classes = [
        (
            "low",
            r.offered_by_priority.0,
            r.completed_by_priority.0,
            r.rejected_by_priority.0,
        ),
        (
            "high",
            r.offered_by_priority.1,
            r.completed_by_priority.1,
            r.rejected_by_priority.1,
        ),
    ];
    for (name, offered, completed, rejected) in classes {
        if completed + rejected > offered {
            broken.push(format!(
                "{name}: completed {completed} + rejected {rejected} > offered {offered}"
            ));
        }
    }
    let totals = (
        r.offered_by_priority.0 + r.offered_by_priority.1,
        r.completed_by_priority.0 + r.completed_by_priority.1,
        r.rejected_by_priority.0 + r.rejected_by_priority.1,
    );
    if totals != (r.offered, r.completed, r.rejected) {
        broken.push(format!(
            "per-class counts {totals:?} do not sum to ({}, {}, {})",
            r.offered, r.completed, r.rejected
        ));
    }
    let samples = (r.low_latencies_s.len() + r.high_latencies_s.len()) as u64;
    if samples != r.completed {
        broken.push(format!(
            "{samples} latency samples for {} completions",
            r.completed
        ));
    }
}

/// Digest and invariants of one Figure 17 sweep cell. The sweep
/// returns totals only, so conservation is checked on the totals and
/// on the per-class completion counts carried by the quantiles.
pub fn policy_outcome(label: String, o: &PolicyOutcome) -> Op {
    let mut d = Digest::new();
    d.bytes(o.kind.name().as_bytes())
        .f64(o.added_fraction)
        .f64(o.power_scale)
        .u64(o.counts.0)
        .u64(o.counts.1)
        .u64(o.counts.2)
        .u64(o.brake_engagements)
        .u64(o.commands_issued)
        .f64(o.peak_utilization)
        .f64(o.mean_utilization)
        .f64(o.low_throughput_norm)
        .f64(o.high_throughput_norm)
        .quantiles(&o.low_raw)
        .quantiles(&o.high_raw)
        .quantiles(&o.low_normalized)
        .quantiles(&o.high_normalized);
    let mut broken = Vec::new();
    let (offered, completed, rejected) = o.counts;
    if completed + rejected > offered {
        broken.push(format!(
            "completed {completed} + rejected {rejected} > offered {offered}"
        ));
    }
    let per_class = (o.low_raw.count + o.high_raw.count) as u64;
    if per_class != completed {
        broken.push(format!(
            "per-class completions {per_class} != completed {completed}"
        ));
    }
    if !(o.peak_utilization >= o.mean_utilization && o.mean_utilization > 0.0) {
        broken.push(format!(
            "utilization peak {} mean {}",
            o.peak_utilization, o.mean_utilization
        ));
    }
    Op {
        label,
        digest: d.finish(),
        broken,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a".
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
