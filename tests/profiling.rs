//! polca-prof guarantees (ISSUE 6 acceptance criteria):
//!
//! * profiling is *passive* — enabling the phase profiler must not
//!   perturb simulation outcomes or the deterministic event log (same
//!   seed ⇒ byte-identical `events.jsonl` with profiling on or off),
//! * parallelism is *invisible* to the profile's deterministic subset —
//!   a `--jobs 4` sweep absorbs the same phase call counts and derived
//!   counters as the `--jobs 1` sweep,
//! * the Prometheus exposition of the deterministic prof subset has a
//!   stable, golden-file-pinned shape (and never leaks nanoseconds).

use polca::{OversubscriptionStudy, PolicyKind};
use polca_obs::{ObsLevel, Phase, PhaseAgg, ProfCounter, ProfSnapshot, Recorder};
use proptest::prelude::*;

/// Runs the quick-demo study under POLCA with the given recorder.
fn run_with(seed: u64, recorder: Recorder) -> (polca::PolicyOutcome, Recorder) {
    let mut study = OversubscriptionStudy::quick_demo(seed);
    study.set_recorder(recorder.clone());
    (study.run(PolicyKind::Polca, 0.30, 1.0), recorder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Profiling on (`Full`) vs off (`Events`) is outcome-invariant and
    /// leaves the deterministic event log byte-identical.
    #[test]
    fn profiling_on_off_is_outcome_invariant(seed in 0u64..1000) {
        let (off, rec_off) = run_with(seed, Recorder::new(ObsLevel::Events));
        let (on, rec_on) = run_with(seed, Recorder::new(ObsLevel::Full));

        prop_assert_eq!(off.counts, on.counts);
        prop_assert_eq!(off.brake_engagements, on.brake_engagements);
        prop_assert_eq!(off.commands_issued, on.commands_issued);
        prop_assert_eq!(off.peak_utilization, on.peak_utilization);
        prop_assert_eq!(off.low_normalized.p99, on.low_normalized.p99);
        prop_assert_eq!(off.high_normalized.p99, on.high_normalized.p99);

        let (a, b) = (rec_off.artifacts(), rec_on.artifacts());
        prop_assert!(!a.events.is_empty());
        prop_assert_eq!(a.events_jsonl(), b.events_jsonl());

        // Below Full the profiler is the zero-cost disabled handle;
        // at Full it actually accounted the run.
        prop_assert!(a.prof.is_empty());
        prop_assert!(!b.prof.is_empty());
        prop_assert!(b.prof.get(Phase::RowStep).calls > 0);
        prop_assert!(b.prof.counter(ProfCounter::EventsPopped) > 0);
    }
}

/// The deterministic subset of a sweep's absorbed profile — phase call
/// counts, derived counters, and the `metrics.prom` rendering — is
/// identical at `jobs=1` and `jobs=4`. Only wall-clock
/// nanoseconds may differ.
#[test]
fn sweep_prof_totals_are_jobs_invariant() {
    let run = |jobs: usize| {
        let mut study = OversubscriptionStudy::quick_demo(7);
        let recorder = Recorder::new(ObsLevel::Full);
        study.set_recorder(recorder.clone());
        let cells: Vec<(PolicyKind, f64, f64)> = PolicyKind::all()
            .iter()
            .flat_map(|&kind| [(kind, 0.20, 1.0), (kind, 0.30, 1.0)])
            .collect();
        (study.sweep(&cells, jobs), recorder)
    };
    let (seq_outcomes, seq_rec) = run(1);
    let (par_outcomes, par_rec) = run(4);

    assert_eq!(seq_outcomes.len(), par_outcomes.len());
    for (a, b) in seq_outcomes.iter().zip(&par_outcomes) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.brake_engagements, b.brake_engagements);
        assert_eq!(a.peak_utilization, b.peak_utilization);
    }

    let (seq, par) = (seq_rec.artifacts(), par_rec.artifacts());
    for phase in Phase::ALL {
        assert_eq!(
            seq.prof.get(phase).calls,
            par.prof.get(phase).calls,
            "phase {} call count diverged across jobs",
            phase.name(),
        );
    }
    for counter in ProfCounter::ALL {
        assert_eq!(
            seq.prof.counter(counter),
            par.prof.counter(counter),
            "counter {} diverged across jobs",
            counter.name(),
        );
    }
    // Two distinct oversubscription levels ⇒ exactly two synthesis
    // runs, however the cells were scheduled.
    assert_eq!(seq.prof.counter(ProfCounter::TraceCacheMisses), 2);
    assert_eq!(seq.prof.counter(ProfCounter::TraceCacheHits), 6);

    // And the whole deterministic exposition agrees byte-for-byte.
    assert_eq!(seq.metrics_prometheus(), par.metrics_prometheus());
}

/// A profiled quick-demo run emits well-formed folded stacks and a
/// `prof.json` with the expected sections, while the events-level run
/// emits neither.
#[test]
fn profiled_run_emits_prof_artifacts() {
    let (_, rec) = run_with(11, Recorder::new(ObsLevel::Full));
    let artifacts = rec.artifacts();

    let folded = artifacts.prof_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("folded weight is integer ns");
    }
    // The event loop dominates, and nested phases fold under it.
    assert!(folded.contains("row.step "), "{folded}");
    assert!(folded.contains("row.step;queue.push "), "{folded}");

    let prof_json = artifacts.prof_json();
    assert!(prof_json.contains("\"phases\""), "{prof_json}");
    assert!(prof_json.contains("\"counters\""), "{prof_json}");
    assert!(prof_json.contains("\"row.step\""), "{prof_json}");

    // metrics.prom carries the deterministic prof series at Full…
    let prom = artifacts.metrics_prometheus();
    assert!(prom.contains("# TYPE polca_prof_phase_calls_total counter"));
    assert!(prom.contains("polca_prof_events_popped_total"));

    // …and stays prof-free below Full.
    let (_, rec) = run_with(11, Recorder::new(ObsLevel::Events));
    let prom = rec.artifacts().metrics_prometheus();
    assert!(!prom.contains("polca_prof_"), "{prom}");
}

/// Golden-file pin of the Prometheus exposition for the deterministic
/// prof subset: a hand-built snapshot must render exactly as
/// `tests/golden/prof_metrics.prom`. Nanosecond fields are set to
/// conspicuous values so any wall-clock leak breaks the comparison.
/// Regenerate deliberately if the exposition format changes.
#[test]
fn prof_prometheus_matches_golden_file() {
    let mut snap = ProfSnapshot::default();
    let agg = |calls: u64| PhaseAgg {
        calls,
        total_ns: 5_555_555,
        self_ns: 4_444_444,
        max_ns: 3_333_333,
    };
    snap.set(Phase::RowStep, agg(4));
    snap.set(Phase::QueuePush, agg(120));
    snap.set(Phase::QueuePop, agg(118));
    snap.set(Phase::Dispatch, agg(60));
    snap.set(Phase::TelemetryTick, agg(30));
    snap.set_counter(ProfCounter::EventsScheduled, 120);
    snap.set_counter(ProfCounter::EventsPopped, 118);
    snap.set_counter(ProfCounter::PeakQueueDepth, 9);
    snap.set_counter(ProfCounter::EventsRecorded, 240);
    snap.set_counter(ProfCounter::FleetWindows, 10);
    snap.set_counter(ProfCounter::FleetRowWindows, 30);
    snap.set_counter(ProfCounter::TraceCacheMisses, 1);
    snap.set_counter(ProfCounter::TraceCacheHits, 3);
    snap.set(Phase::ServeIteration, agg(24));
    snap.set(Phase::ServeKvAlloc, agg(48));
    snap.set(Phase::ServeSchedule, agg(24));
    snap.set_counter(ProfCounter::ServeKvPeakBlocks, 537);
    snap.set_counter(ProfCounter::ServePreemptions, 2);
    snap.set_counter(ProfCounter::ServePeakBatch, 12);

    let rendered = snap.to_prometheus();
    let golden = include_str!("golden/prof_metrics.prom");
    assert_eq!(rendered, golden);
    assert!(!rendered.contains("5555555") && !rendered.contains("4444444"));
}
