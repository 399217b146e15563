//! Verbatim replay of an ingested trace through the cluster simulator.
//!
//! [`TraceReplay`] turns an [`IngestedTrace`] into the `Request` stream
//! the simulator consumes — it implements `Iterator<Item = Request>`,
//! which `ClusterSim::run` and `SiteSim::new` take directly.
//! With default options the replay is **exact**: every record becomes
//! one request at its recorded arrival time, and when the trace carries
//! a priority column no randomness is consulted at all, so
//! generate → export → ingest → replay round-trips byte-identically.
//!
//! Two knobs perturb the replay deterministically (seeded):
//!
//! * `time_scale` stretches or compresses the clock — `0.5` replays the
//!   trace at double speed, the what-if for faster hardware.
//! * `rate_scale` thins (`< 1`) or replicates (`> 1`) requests — the
//!   load-scaling study of §7 without refitting the trace.

use polca_cluster::{Priority, Request};
use polca_sim::{SimRng, SimTime};

use crate::reader::IngestedTrace;

/// RNG stream for replay-time decisions (priority fill-in, thinning,
/// duplicate jitter). Distinct from every generator stream.
const REPLAY_STREAM: u64 = 0x4E71A;

/// How to replay an ingested trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Multiplies every arrival time. `1.0` replays in trace time.
    pub time_scale: f64,
    /// Target request-rate multiplier. `1.0` replays every record once;
    /// `< 1` thins by random subsampling; `> 1` emits whole duplicate
    /// copies plus a Bernoulli fractional copy, jittered around the
    /// original arrival.
    pub rate_scale: f64,
    /// Seed for all replay randomness (priority fill-in, thinning,
    /// jitter). Unused — zero draws — when `rate_scale == 1.0` and the
    /// trace has a priority column.
    pub seed: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            time_scale: 1.0,
            rate_scale: 1.0,
            seed: 0,
        }
    }
}

/// An ingested trace materialized as a replayable request stream.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    requests: std::vec::IntoIter<Request>,
    n_requests: usize,
}

impl TraceReplay {
    /// Exact replay: one request per record, original timing.
    pub fn new(trace: &IngestedTrace) -> Self {
        Self::with_options(trace, ReplayOptions::default())
    }

    /// Replay with time/rate scaling.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` or `rate_scale` is not finite and
    /// positive.
    pub fn with_options(trace: &IngestedTrace, options: ReplayOptions) -> Self {
        assert!(
            options.time_scale.is_finite() && options.time_scale > 0.0,
            "time_scale must be positive"
        );
        assert!(
            options.rate_scale.is_finite() && options.rate_scale > 0.0,
            "rate_scale must be positive"
        );
        let mut rng = SimRng::from_seed_stream(options.seed, REPLAY_STREAM);
        // Jitter scale for duplicate copies: the mean inter-arrival gap,
        // so extra load spreads out instead of stacking exact ties.
        let mean_gap = if trace.len() > 1 {
            (trace.duration_s() / (trace.len() - 1) as f64).max(1e-9)
        } else {
            1.0
        };
        let whole_copies = options.rate_scale.floor() as u64;
        let fractional = options.rate_scale.fract();

        let mut arrivals: Vec<(f64, u32, u32, Priority)> = Vec::new();
        for record in trace.records() {
            let copies = whole_copies
                + if fractional > 0.0 && rng.chance(fractional) {
                    1
                } else {
                    0
                };
            for copy in 0..copies {
                let jitter = if copy == 0 {
                    0.0
                } else {
                    rng.uniform(0.0, mean_gap)
                };
                let arrival = (record.arrival_s + jitter).max(0.0) * options.time_scale;
                let priority = match record.priority {
                    Some(p) => p,
                    None => {
                        // No priority column: the paper's 50:50 split.
                        if rng.chance(0.5) {
                            Priority::High
                        } else {
                            Priority::Low
                        }
                    }
                };
                arrivals.push((
                    arrival,
                    record.context_tokens,
                    record.generated_tokens,
                    priority,
                ));
            }
        }
        // Jittered copies can land out of order; ids are reassigned
        // sequentially after sorting so the stream looks exactly like a
        // generator's (stable sort keeps record order for equal times).
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let requests: Vec<Request> = arrivals
            .into_iter()
            .enumerate()
            .map(|(id, (arrival, input, output, priority))| {
                Request::new(
                    id as u64,
                    SimTime::from_secs(arrival),
                    input,
                    output,
                    priority,
                )
            })
            .collect();
        let n_requests = requests.len();
        TraceReplay {
            requests: requests.into_iter(),
            n_requests,
        }
    }

    /// Number of requests this replay will emit in total.
    pub fn len(&self) -> usize {
        self.n_requests
    }

    /// Whether the replay is empty (thinning can drop every record).
    pub fn is_empty(&self) -> bool {
        self.n_requests == 0
    }
}

impl Iterator for TraceReplay {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.requests.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(csv: &str) -> IngestedTrace {
        IngestedTrace::from_reader(csv.as_bytes()).unwrap()
    }

    const PRIORITIZED: &str = "\
timestamp_s,context_tokens,generated_tokens,priority
0.5,100,50,high
2.25,200,60,low
9.75,300,70,high
";

    #[test]
    fn default_replay_is_verbatim() {
        let t = trace(PRIORITIZED);
        let requests: Vec<Request> = TraceReplay::new(&t).collect();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[0].id, 0);
        assert_eq!(requests[0].arrival, SimTime::from_secs(0.5));
        assert_eq!(requests[0].input_tokens, 100);
        assert_eq!(requests[0].priority, Priority::High);
        assert_eq!(requests[1].priority, Priority::Low);
        assert_eq!(requests[2].arrival, SimTime::from_secs(9.75));
    }

    #[test]
    fn replay_is_seed_independent_when_trace_has_priorities() {
        let t = trace(PRIORITIZED);
        let a: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                seed: 1,
                ..ReplayOptions::default()
            },
        )
        .collect();
        let b: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                seed: 2,
                ..ReplayOptions::default()
            },
        )
        .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_priorities_fill_in_deterministically() {
        let csv = "\
timestamp_s,context_tokens,generated_tokens
0.0,100,50
1.0,100,50
2.0,100,50
3.0,100,50
";
        let t = trace(csv);
        let a: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                seed: 9,
                ..ReplayOptions::default()
            },
        )
        .collect();
        let b: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                seed: 9,
                ..ReplayOptions::default()
            },
        )
        .collect();
        assert_eq!(a, b);
        // Arrivals and tokens are still verbatim even when priorities
        // are synthesized.
        assert_eq!(a[3].arrival, SimTime::from_secs(3.0));
        assert!(a.iter().all(|r| r.input_tokens == 100));
    }

    #[test]
    fn time_scale_stretches_the_clock() {
        let t = trace(PRIORITIZED);
        let requests: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                time_scale: 2.0,
                ..ReplayOptions::default()
            },
        )
        .collect();
        assert_eq!(requests[0].arrival, SimTime::from_secs(1.0));
        assert_eq!(requests[2].arrival, SimTime::from_secs(19.5));
    }

    #[test]
    fn rate_scale_replicates_and_thins() {
        let mut csv = String::from("timestamp_s,context_tokens,generated_tokens,priority\n");
        for i in 0..1000 {
            csv.push_str(&format!("{}.0,100,50,low\n", i));
        }
        let t = trace(&csv);
        let doubled = TraceReplay::with_options(
            &t,
            ReplayOptions {
                rate_scale: 2.0,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(doubled.len(), 2000);
        let halved = TraceReplay::with_options(
            &t,
            ReplayOptions {
                rate_scale: 0.5,
                ..ReplayOptions::default()
            },
        );
        let n = halved.len() as f64;
        assert!((n - 500.0).abs() < 80.0, "thinned to {n}");
        // Ids stay sequential and arrivals sorted after duplication.
        let requests: Vec<Request> = TraceReplay::with_options(
            &t,
            ReplayOptions {
                rate_scale: 1.5,
                ..ReplayOptions::default()
            },
        )
        .collect();
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }
}
