//! The [`Recorder`] handle the simulation stack threads through its
//! hot loops.
//!
//! A recorder is either *disabled* (one enum compare per call, zero
//! allocation) or holds a shared, mutex-guarded core that accumulates
//! events and metrics, next to a lock-free polca-prof [`Profiler`] for
//! wall-clock phase timings. Cloning a recorder is cheap and
//! every clone feeds the same core, which is how one run's artifacts
//! are assembled from the event queue, the cluster loop, the OOB
//! control plane, and the policy controller at once.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::chrome::Annotation;
use crate::energy::{EnergyLedger, EnergyPlan, RowEnergy};
use crate::event::Event;
use crate::export::{Export, RunArtifacts};
use crate::metrics::{Label, MetricsRegistry};
use crate::prof::{Phase, ProfCounter, ProfGuard, ProfSnapshot, Profiler};
use crate::req::{ReqRecord, ReqTraceConfig};

/// How much a [`Recorder`] captures.
///
/// Levels are strictly ordered: each level captures everything the
/// previous one does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Capture nothing; every recorder call is a no-op branch.
    #[default]
    Off,
    /// Counters, gauges, and histograms only.
    Metrics,
    /// Metrics plus the structured event log.
    Events,
    /// Events plus wall-clock phase profiling (polca-prof).
    Full,
}

impl ObsLevel {
    /// Whether metric series are captured at this level.
    pub fn metrics_enabled(self) -> bool {
        self >= ObsLevel::Metrics
    }

    /// Whether structured events are captured at this level.
    pub fn events_enabled(self) -> bool {
        self >= ObsLevel::Events
    }

    /// Whether polca-prof wall-clock phase timings are captured at this
    /// level.
    pub fn profiling_enabled(self) -> bool {
        self >= ObsLevel::Full
    }
}

impl FromStr for ObsLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ObsLevel::Off),
            "metrics" => Ok(ObsLevel::Metrics),
            "events" => Ok(ObsLevel::Events),
            "full" => Ok(ObsLevel::Full),
            other => Err(format!(
                "unknown obs level '{other}' (expected off|metrics|events|full)"
            )),
        }
    }
}

impl fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Events => "events",
            ObsLevel::Full => "full",
        })
    }
}

/// A streaming consumer of recorded events.
///
/// A tap sees every event the moment it enters the log — the hook the
/// online watch plane uses to evaluate rules while the simulation runs,
/// instead of mining `events.jsonl` afterwards. Taps fire only when the
/// recorder's level captures events, so they sit behind the same
/// [`ObsLevel`] gate as the log itself, and they must not call back
/// into the recorder (the core is locked while they run).
pub trait EventTap: Send + Sync {
    /// Called with each event as it is recorded.
    fn on_event(&self, event: &Event);

    /// Called with each completed request record when request tracing
    /// is on (see [`Recorder::with_req_trace`]). Taps see *every*
    /// record regardless of the `requests.jsonl` sampling rate, so an
    /// online consumer (the watch plane's TTFT/TBT burn trackers) is
    /// never starved by sampling. Default: ignore.
    fn on_request(&self, _record: &ReqRecord) {}
}

/// Holds the optional event tap inside the shared core (newtype so the
/// core can keep deriving `Debug`/`Default`).
#[derive(Default)]
pub(crate) struct TapSlot(Option<Arc<dyn EventTap>>);

impl fmt::Debug for TapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TapSlot")
            .field(&self.0.as_ref().map(|_| "set"))
            .finish()
    }
}

/// The shared mutable state behind an enabled recorder.
#[derive(Debug, Default)]
pub(crate) struct ObsCore {
    pub(crate) events: Vec<Event>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) requests: Vec<ReqRecord>,
    pub(crate) energy_rows: Vec<RowEnergy>,
    pub(crate) tap: TapSlot,
}

/// A cheap, cloneable observability handle.
///
/// The simulation stack stores recorders inside configuration structs
/// (`SimConfig`, `OversubscriptionStudy`), which imposes two design
/// constraints honoured here:
///
/// * `Send + Sync` — the study object is shared across threads, so the
///   core sits behind `Arc<Mutex<_>>`;
/// * `PartialEq` — configs derive equality; two recorders compare equal
///   iff their *levels* match, because the level is the configuration
///   while the core is accumulated output.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    level: ObsLevel,
    core: Option<Arc<Mutex<ObsCore>>>,
    prof: Profiler,
    req: Option<ReqTraceConfig>,
    energy: Option<EnergyPlan>,
}

impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level
    }
}

impl Recorder {
    /// A recorder that captures nothing (the default).
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A recorder capturing at `level`. `ObsLevel::Off` allocates no
    /// core at all.
    pub fn new(level: ObsLevel) -> Self {
        let core = (level > ObsLevel::Off).then(|| Arc::new(Mutex::new(ObsCore::default())));
        let prof = Profiler::new(level.profiling_enabled());
        Recorder {
            level,
            core,
            prof,
            req: None,
            energy: None,
        }
    }

    /// Enables polca-req request tracing on this recorder (builder
    /// style). Histograms need [`ObsLevel::Metrics`] and record
    /// storage/taps need [`ObsLevel::Events`] — the usual level gates
    /// apply on top of this switch.
    pub fn with_req_trace(mut self, cfg: ReqTraceConfig) -> Self {
        self.req = Some(cfg);
        self
    }

    /// Whether request tracing is enabled (regardless of level).
    pub fn req_enabled(&self) -> bool {
        self.req.is_some()
    }

    /// Enables the polca-energy ledger on this recorder (builder
    /// style). The cluster sim reads the plan back via
    /// [`energy_plan`](Self::energy_plan) and lands one [`RowEnergy`]
    /// per finished row via [`record_energy`](Self::record_energy).
    /// Needs [`ObsLevel::Metrics`] or above, like the rest of the
    /// accounting plane.
    pub fn with_energy(mut self, plan: EnergyPlan) -> Self {
        self.energy = Some(plan);
        self
    }

    /// Whether energy/carbon accounting is enabled (regardless of
    /// level).
    pub fn energy_enabled(&self) -> bool {
        self.energy.is_some()
    }

    /// The energy accounting plan, if enabled.
    pub fn energy_plan(&self) -> Option<&EnergyPlan> {
        self.energy.as_ref()
    }

    /// Lands a finished row's energy/carbon account (no-op unless
    /// [`with_energy`](Self::with_energy) was called and the level is
    /// at least [`ObsLevel::Metrics`]).
    pub fn record_energy(&self, row: RowEnergy) {
        if self.energy.is_none() || !self.level.metrics_enabled() {
            return;
        }
        if let Some(mut core) = self.lock() {
            core.energy_rows.push(row);
        }
    }

    /// The request-tracing configuration, if enabled.
    pub fn req_trace(&self) -> Option<ReqTraceConfig> {
        self.req
    }

    /// A fresh recorder with the same configuration (level and request
    /// tracing) but an empty core — the per-cell recorder the parallel
    /// sweep/replay runners create for each job before
    /// [`absorb`](Self::absorb)ing them in canonical order.
    pub fn fresh_cell(&self) -> Recorder {
        let mut cell = Recorder::new(self.level);
        cell.req = self.req;
        cell.energy = self.energy.clone();
        cell
    }

    /// The capture level this recorder was created with.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Whether this recorder captures anything at all.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, ObsCore>> {
        self.core
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Appends `event` to the event log (no-op below
    /// [`ObsLevel::Events`]).
    pub fn record(&self, event: Event) {
        if self.level.events_enabled() {
            self.prof.count(ProfCounter::EventsRecorded, 1);
            if let Some(mut core) = self.lock() {
                core.events.push(event);
                Self::fire_tap(&core);
            }
        }
    }

    /// Like [`record`](Self::record) but defers construction, so
    /// events whose payload allocates (e.g. [`Event::SloViolation`])
    /// cost nothing when disabled.
    pub fn record_with(&self, make: impl FnOnce() -> Event) {
        if self.level.events_enabled() {
            self.prof.count(ProfCounter::EventsRecorded, 1);
            if let Some(mut core) = self.lock() {
                core.events.push(make());
                Self::fire_tap(&core);
            }
        }
    }

    /// Forwards the just-pushed event to the tap, if one is attached.
    fn fire_tap(core: &MutexGuard<'_, ObsCore>) {
        if let (Some(tap), Some(event)) = (&core.tap.0, core.events.last()) {
            tap.on_event(event);
        }
    }

    /// Attaches a streaming [`EventTap`]; every clone of this recorder
    /// (they share one core) feeds it from now on. No-op below
    /// [`ObsLevel::Events`]. Replaces any previous tap.
    pub fn set_tap(&self, tap: Arc<dyn EventTap>) {
        if let Some(mut core) = self.lock() {
            core.tap.0 = Some(tap);
        }
    }

    /// Detaches the streaming tap, if any.
    pub fn clear_tap(&self) {
        if let Some(mut core) = self.lock() {
            core.tap.0 = None;
        }
    }

    /// Adds `by` to a counter series (no-op below
    /// [`ObsLevel::Metrics`]).
    pub fn add(&self, name: &'static str, label: Label, by: u64) {
        if self.level.metrics_enabled() {
            if let Some(mut core) = self.lock() {
                core.metrics.add(name, label, by);
            }
        }
    }

    /// Sets a gauge series to its latest value (no-op below
    /// [`ObsLevel::Metrics`]).
    pub fn gauge(&self, name: &'static str, label: Label, value: f64) {
        if self.level.metrics_enabled() {
            if let Some(mut core) = self.lock() {
                core.metrics.set_gauge(name, label, value);
            }
        }
    }

    /// Records a histogram observation (no-op below
    /// [`ObsLevel::Metrics`]).
    pub fn observe(&self, name: &'static str, label: Label, value: f64) {
        if self.level.metrics_enabled() {
            if let Some(mut core) = self.lock() {
                core.metrics.observe(name, label, value);
            }
        }
    }

    /// Lands one completed request in the polca-req plane (no-op
    /// unless request tracing is on, see
    /// [`with_req_trace`](Self::with_req_trace)).
    ///
    /// At [`ObsLevel::Metrics`] and above the record feeds the
    /// per-priority-class streaming histograms (`req.ttft_s`,
    /// `req.tbt_s`, `req.queue_s`, `req.joules_per_token`). At
    /// [`ObsLevel::Events`] and above it also streams to the attached
    /// [`EventTap::on_request`] and — subject to the configured
    /// sampling rate — is stored for `requests.jsonl`.
    pub fn record_request(&self, record: &ReqRecord) {
        let Some(cfg) = self.req else {
            return;
        };
        let Some(mut core) = self.lock() else {
            return;
        };
        if self.level.metrics_enabled() {
            let label = Label::Tag(record.priority);
            core.metrics.observe("req.ttft_s", label, record.ttft_s);
            core.metrics.observe("req.tbt_s", label, record.tbt_mean_s);
            core.metrics.observe("req.queue_s", label, record.queue_s);
            core.metrics
                .observe("req.joules_per_token", label, record.joules_per_token);
        }
        if self.level.events_enabled() {
            if let Some(tap) = &core.tap.0 {
                tap.on_request(record);
            }
            if record.id.is_multiple_of(cfg.sample.max(1)) {
                core.requests.push(record.clone());
            }
        }
    }

    /// The polca-prof handle feeding this recorder's phase
    /// accumulators (disabled below [`ObsLevel::Full`]). Hot loops
    /// clone it once and call [`Profiler::time`] directly — no mutex
    /// is involved.
    pub fn prof(&self) -> &Profiler {
        &self.prof
    }

    /// Folds everything `other` captured into this recorder: events
    /// append in `other`'s order, counters add, gauges last-write-win,
    /// histograms merge exactly, and polca-prof phases and counters
    /// merge as [`Profiler::merge_from`] does.
    ///
    /// This is the merge step of the deterministic sweep runner: give
    /// each parallel job its own recorder, then absorb the job
    /// recorders in canonical cell order — the combined event log (and
    /// `events.jsonl`) comes out byte-identical to a sequential run
    /// that shared one recorder. The streaming tap deliberately does
    /// *not* fire for absorbed events (they are historical, not live);
    /// callers that need a live tap must run sequentially. Absorbing a
    /// recorder into itself (same shared core) is a no-op.
    pub fn absorb(&self, other: &Recorder) {
        self.prof.merge_from(&other.prof);
        let (Some(own), Some(theirs)) = (self.core.as_ref(), other.core.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(own, theirs) {
            return;
        }
        let mut core = own.lock().unwrap_or_else(|e| e.into_inner());
        let src = theirs.lock().unwrap_or_else(|e| e.into_inner());
        if self.level.events_enabled() {
            core.events.extend(src.events.iter().cloned());
            core.requests.extend(src.requests.iter().cloned());
        }
        if self.level.metrics_enabled() {
            core.metrics.merge_from(&src.metrics);
            core.energy_rows.extend(src.energy_rows.iter().cloned());
        }
    }

    /// Folds only `other`'s *profiling* output — polca-prof phases and
    /// counters — into this recorder, leaving events and metrics
    /// untouched.
    ///
    /// This builds the fleet-level aggregate profile: row recorders
    /// keep their own event logs (written under `DIR/rowN/`), while
    /// the fleet recorder's `prof.json` accounts for all rows combined.
    /// Absorbing into a disabled side or a profiler sharing the same
    /// core is a no-op.
    pub fn absorb_profiling(&self, other: &Recorder) {
        self.prof.merge_from(&other.prof);
    }

    /// Folds only `other`'s polca-energy row accounts into this
    /// recorder, leaving events, metrics, and profiling untouched.
    ///
    /// This builds the site-level ledger: fleet/site rows keep their
    /// own event logs (written under `DIR/rowN/`), while the site
    /// recorder's `energy.json` rolls every row up the hierarchy. Call
    /// it in canonical row order; a disabled side or a recorder sharing
    /// the same core is a no-op.
    pub fn absorb_energy(&self, other: &Recorder) {
        let (Some(own), Some(theirs)) = (self.core.as_ref(), other.core.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(own, theirs) {
            return;
        }
        let mut core = own.lock().unwrap_or_else(|e| e.into_inner());
        let src = theirs.lock().unwrap_or_else(|e| e.into_inner());
        core.energy_rows.extend(src.energy_rows.iter().cloned());
    }

    /// A probe suitable for attaching to `polca_sim::EventQueue`.
    pub fn queue_probe(&self) -> QueueProbe {
        QueueProbe { rec: self.clone() }
    }

    /// Snapshots everything captured so far into an exportable bundle.
    pub fn artifacts(&self) -> RunArtifacts {
        match self.lock() {
            Some(core) => RunArtifacts {
                level: self.level,
                events: core.events.clone(),
                metrics: core.metrics.clone(),
                requests: core.requests.clone(),
                req_trace: self.req.is_some(),
                energy_rows: core.energy_rows.clone(),
                prof: self.prof.snapshot(),
            },
            None => RunArtifacts {
                level: self.level,
                events: Vec::new(),
                metrics: MetricsRegistry::default(),
                requests: Vec::new(),
                req_trace: self.req.is_some(),
                energy_rows: Vec::new(),
                prof: ProfSnapshot::default(),
            },
        }
    }

    /// The polca-energy ledger over the row accounts landed so far
    /// (empty when none were) — without snapshotting the event log.
    pub fn energy_ledger(&self) -> EnergyLedger {
        match self.lock() {
            Some(core) => EnergyLedger::from_rows(&core.energy_rows),
            None => EnergyLedger::from_rows(&[]),
        }
    }

    /// Runs `read` over the stored polca-req records (empty when none
    /// are stored) — without snapshotting the event log.
    pub fn with_requests<R>(&self, read: impl FnOnce(&[ReqRecord]) -> R) -> R {
        match self.lock() {
            Some(core) => read(&core.requests),
            None => read(&[]),
        }
    }

    /// Writes the level-appropriate artifact files into `dir`
    /// (creating it), returning the paths written. A disabled recorder
    /// writes nothing.
    pub fn write_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.write_dir_annotated(dir, &[])
    }

    /// [`write_dir`](Self::write_dir) with `annotations` (the watch
    /// plane's alert and incident markers) merged onto `trace.json`'s
    /// cluster track.
    ///
    /// Every file streams from the core under one lock, with no
    /// snapshot. Recorder I/O time lands in the [`Phase::RecorderIo`]
    /// phase; as the profile is read before the files are rendered,
    /// this call shows up only in *subsequent* exports (e.g. the
    /// attribution table printed after the artifacts are on disk), so
    /// the `metrics.prom` it writes does not count it.
    pub fn write_dir_annotated(
        &self,
        dir: &Path,
        annotations: &[Annotation],
    ) -> io::Result<Vec<PathBuf>> {
        let Some(core) = self.lock() else {
            return Ok(Vec::new());
        };
        let _io = self.prof.time(Phase::RecorderIo);
        let prof = self.prof.snapshot();
        Export::new(
            self.level,
            &core.events,
            &core.metrics,
            &core.requests,
            self.req.is_some(),
            &core.energy_rows,
            &prof,
        )
        .write_dir(dir, annotations)
    }
}

/// Instrumentation hook for the discrete-event queue.
///
/// `polca_sim::EventQueue` accepts one of these and reports scheduling
/// activity through it; the probe turns that into `sim.events_*`
/// counters and a `sim.queue_depth` histogram. All methods are no-ops
/// when the underlying recorder is disabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueProbe {
    rec: Recorder,
}

impl QueueProbe {
    /// Called after an event is scheduled; `depth` is the new queue
    /// length. Also feeds the lock-free polca-prof counters (events
    /// scheduled, peak queue depth).
    pub fn on_schedule(&self, depth: usize) {
        let prof = self.rec.prof();
        prof.count(ProfCounter::EventsScheduled, 1);
        prof.record_max(ProfCounter::PeakQueueDepth, depth as u64);
        self.rec.add("sim.events_scheduled", Label::Global, 1);
        self.rec
            .observe("sim.queue_depth", Label::Global, depth as f64);
    }

    /// Called after an event is popped; `depth` is the remaining queue
    /// length.
    pub fn on_pop(&self, depth: usize) {
        self.rec.prof().count(ProfCounter::EventsPopped, 1);
        self.rec.add("sim.events_popped", Label::Global, 1);
        self.rec
            .gauge("sim.queue_depth_last", Label::Global, depth as f64);
    }

    /// Starts timing a heap push ([`Phase::QueuePush`]); `None` unless
    /// the recorder profiles.
    #[inline]
    pub fn time_push(&self) -> Option<ProfGuard> {
        self.rec.prof().time(Phase::QueuePush)
    }

    /// Starts timing a heap pop ([`Phase::QueuePop`]); `None` unless
    /// the recorder profiles.
    #[inline]
    pub fn time_pop(&self) -> Option<ProfGuard> {
        self.rec.prof().time(Phase::QueuePop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let r = Recorder::disabled();
        r.record(Event::PowerSample { t: 0.0, watts: 1.0 });
        r.add("c", Label::Global, 1);
        r.observe("h", Label::Global, 1.0);
        assert!(r.prof().time(Phase::Dispatch).is_none());
        let a = r.artifacts();
        assert!(a.events.is_empty());
        assert!(a.metrics.is_empty());
        assert!(a.prof.is_empty());
    }

    #[test]
    fn metrics_level_drops_events_keeps_metrics() {
        let r = Recorder::new(ObsLevel::Metrics);
        r.record(Event::PowerSample { t: 0.0, watts: 1.0 });
        r.add("c", Label::Global, 2);
        assert!(r.prof().time(Phase::Dispatch).is_none());
        let a = r.artifacts();
        assert!(a.events.is_empty());
        assert_eq!(a.metrics.counter("c", Label::Global), 2);
    }

    #[test]
    fn clones_share_one_core() {
        let r = Recorder::new(ObsLevel::Events);
        let r2 = r.clone();
        r.record(Event::Uncap { t: 1.0, server: 0 });
        r2.record(Event::Uncap { t: 2.0, server: 1 });
        assert_eq!(r.artifacts().events.len(), 2);
    }

    #[test]
    fn full_level_times_phases() {
        let r = Recorder::new(ObsLevel::Full);
        {
            let _g = r.prof().time(Phase::Dispatch);
        }
        let a = r.artifacts();
        assert_eq!(a.prof.get(Phase::Dispatch).calls, 1);
    }

    #[test]
    fn equality_is_by_level_only() {
        assert_eq!(
            Recorder::new(ObsLevel::Events),
            Recorder::new(ObsLevel::Events)
        );
        assert_ne!(Recorder::new(ObsLevel::Events), Recorder::disabled());
        let r = Recorder::new(ObsLevel::Events);
        r.record(Event::Uncap { t: 1.0, server: 0 });
        assert_eq!(r, Recorder::new(ObsLevel::Events));
    }

    #[test]
    fn level_parses_and_displays() {
        for s in ["off", "metrics", "events", "full"] {
            let l: ObsLevel = s.parse().unwrap();
            assert_eq!(l.to_string(), s);
        }
        assert!("verbose".parse::<ObsLevel>().is_err());
        assert!(ObsLevel::Full.events_enabled());
        assert!(!ObsLevel::Metrics.events_enabled());
    }

    #[test]
    fn taps_stream_events_through_any_clone() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting(AtomicUsize);
        impl EventTap for Counting {
            fn on_event(&self, _event: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let r = Recorder::new(ObsLevel::Events);
        let clone = r.clone();
        let tap = Arc::new(Counting::default());
        r.set_tap(tap.clone());
        clone.record(Event::Uncap { t: 1.0, server: 0 });
        r.record(Event::Uncap { t: 2.0, server: 1 });
        assert_eq!(tap.0.load(Ordering::Relaxed), 2);
        r.clear_tap();
        r.record(Event::Uncap { t: 3.0, server: 2 });
        assert_eq!(tap.0.load(Ordering::Relaxed), 2);

        // Below Events the tap never fires (same gate as the log).
        let m = Recorder::new(ObsLevel::Metrics);
        let tap2 = Arc::new(Counting::default());
        m.set_tap(tap2.clone());
        m.record(Event::Uncap { t: 1.0, server: 0 });
        assert_eq!(tap2.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn absorb_concatenates_like_a_shared_core() {
        let seq = Recorder::new(ObsLevel::Full);
        let a = Recorder::new(ObsLevel::Full);
        let b = Recorder::new(ObsLevel::Full);
        for (rec, t) in [(&a, 1.0), (&seq, 1.0)] {
            rec.record(Event::Uncap { t, server: 0 });
            rec.add("c", Label::Global, 1);
            rec.observe("h", Label::Global, t);
        }
        for (rec, t) in [(&b, 2.0), (&seq, 2.0)] {
            rec.record(Event::Uncap { t, server: 1 });
            rec.add("c", Label::Global, 4);
            rec.observe("h", Label::Global, t);
        }
        a.absorb(&b);
        let merged = a.artifacts();
        let sequential = seq.artifacts();
        assert_eq!(merged.events, sequential.events);
        assert_eq!(merged.metrics, sequential.metrics);
        assert_eq!(merged.events_jsonl(), sequential.events_jsonl());
    }

    #[test]
    fn absorb_self_and_disabled_are_noops() {
        let r = Recorder::new(ObsLevel::Events);
        r.record(Event::Uncap { t: 1.0, server: 0 });
        let clone = r.clone();
        r.absorb(&clone); // same core: must not duplicate
        assert_eq!(r.artifacts().events.len(), 1);
        r.absorb(&Recorder::disabled());
        assert_eq!(r.artifacts().events.len(), 1);
        let d = Recorder::disabled();
        d.absorb(&r);
        assert!(d.artifacts().events.is_empty());
    }

    #[test]
    fn absorb_does_not_fire_the_tap() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting(AtomicUsize);
        impl EventTap for Counting {
            fn on_event(&self, _event: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let r = Recorder::new(ObsLevel::Events);
        let tap = Arc::new(Counting::default());
        r.set_tap(tap.clone());
        let other = Recorder::new(ObsLevel::Events);
        other.record(Event::Uncap { t: 1.0, server: 0 });
        r.absorb(&other);
        assert_eq!(r.artifacts().events.len(), 1);
        assert_eq!(tap.0.load(Ordering::Relaxed), 0);
    }

    fn req_record(id: u64) -> ReqRecord {
        crate::req::ReqSpan::default().finish(id, "low", 0, 0.0, 1.0, 9.0, 100, 10)
    }

    #[test]
    fn record_request_requires_opt_in() {
        let r = Recorder::new(ObsLevel::Full);
        r.record_request(&req_record(1));
        let a = r.artifacts();
        assert!(a.requests.is_empty());
        assert!(!a.req_trace);
        assert!(a.metrics.is_empty());
    }

    #[test]
    fn record_request_feeds_histograms_and_stores_sampled_records() {
        let r = Recorder::new(ObsLevel::Full).with_req_trace(ReqTraceConfig { sample: 2 });
        for id in 0..6 {
            r.record_request(&req_record(id));
        }
        let a = r.artifacts();
        assert!(a.req_trace);
        // Sampling keeps ids 0, 2, 4 but the histograms see all six.
        assert_eq!(a.requests.len(), 3);
        assert!(a
            .metrics
            .to_prometheus()
            .contains("req_ttft_s_count{tag=\"low\"} 6"));
    }

    #[test]
    fn metrics_level_keeps_req_histograms_drops_records() {
        let r = Recorder::new(ObsLevel::Metrics).with_req_trace(ReqTraceConfig::default());
        r.record_request(&req_record(1));
        let a = r.artifacts();
        assert!(a.requests.is_empty());
        assert!(a.metrics.to_prometheus().contains("req_ttft_s"));
    }

    #[test]
    fn absorb_merges_request_records_in_order() {
        let a = Recorder::new(ObsLevel::Events).with_req_trace(ReqTraceConfig::default());
        let b = a.fresh_cell();
        assert!(b.req_enabled());
        a.record_request(&req_record(1));
        b.record_request(&req_record(2));
        a.absorb(&b);
        let ids: Vec<u64> = a.artifacts().requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn request_tap_sees_every_record_despite_sampling() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting(AtomicUsize);
        impl EventTap for Counting {
            fn on_event(&self, _event: &Event) {}
            fn on_request(&self, _record: &ReqRecord) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let r = Recorder::new(ObsLevel::Events).with_req_trace(ReqTraceConfig { sample: 100 });
        let tap = Arc::new(Counting::default());
        r.set_tap(tap.clone());
        for id in 0..5 {
            r.record_request(&req_record(id));
        }
        assert_eq!(tap.0.load(Ordering::Relaxed), 5);
        assert_eq!(r.artifacts().requests.len(), 1); // only id 0 sampled
    }

    #[test]
    fn energy_rows_record_absorb_and_fresh_cell() {
        use crate::energy::{CarbonSignal, EnergyAccum, EnergyPlan};
        let plan = EnergyPlan::new(CarbonSignal::Constant(100.0));
        let mk = |row: usize| {
            let mut acc = EnergyAccum::new(
                plan.at_location(row, 0, 0),
                0.0,
                100.0,
                0.0,
                &[("aggregated", 100.0)],
            );
            acc.tick(3600.0, 100.0, 0.0, &[("aggregated", 100.0)]);
            acc.finish(3600.0, 0.0)
        };
        let r = Recorder::new(ObsLevel::Metrics).with_energy(plan.clone());
        assert!(r.energy_enabled());
        let cell = r.fresh_cell();
        assert!(cell.energy_enabled());
        cell.record_energy(mk(1));
        r.record_energy(mk(0));
        r.absorb(&cell);
        assert_eq!(r.artifacts().energy_rows.len(), 2);
        // Without the plan, record_energy is a no-op.
        let off = Recorder::new(ObsLevel::Full);
        assert!(!off.energy_enabled());
        off.record_energy(mk(0));
        assert!(off.artifacts().energy_rows.is_empty());
    }

    #[test]
    fn queue_probe_counts() {
        let r = Recorder::new(ObsLevel::Metrics);
        let p = r.queue_probe();
        p.on_schedule(1);
        p.on_schedule(2);
        p.on_pop(1);
        let a = r.artifacts();
        assert_eq!(a.metrics.counter("sim.events_scheduled", Label::Global), 2);
        assert_eq!(a.metrics.counter("sim.events_popped", Label::Global), 1);
        assert_eq!(
            a.metrics.gauge("sim.queue_depth_last", Label::Global),
            Some(1.0)
        );
    }

    #[test]
    fn recorder_io_shows_up_only_in_later_exports() {
        let dir = std::env::temp_dir().join(format!(
            "polca-recorder-io-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Recorder::new(ObsLevel::Full);
        {
            let _g = r.prof().time(Phase::Dispatch);
        }
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        let calls = "polca_prof_phase_calls_total{phase=\"obs.recorder_io\"}";
        r.write_dir(&dir).unwrap();
        assert!(!read("metrics.prom").contains(calls));
        assert!(!read("prof.json").contains("\"obs.recorder_io\""));
        r.write_dir(&dir).unwrap();
        assert!(read("metrics.prom").contains(&format!("{calls} 1\n")));
        assert!(read("prof.json").contains("\"phase\":\"obs.recorder_io\",\"calls\":1,"));
        assert_eq!(r.prof().snapshot().get(Phase::RecorderIo).calls, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dir_reports_io_errors() {
        let file = std::env::temp_dir().join(format!(
            "polca-recorder-not-a-dir-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&file, "x").unwrap();
        let r = Recorder::new(ObsLevel::Events);
        r.record(Event::Uncap { t: 1.0, server: 0 });
        assert!(r.write_dir(&file.join("obs")).is_err());
        // A disabled recorder writes nothing, so it cannot fail.
        assert!(Recorder::disabled()
            .write_dir(&file.join("obs"))
            .unwrap()
            .is_empty());
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn summaries_read_the_core_without_a_snapshot() {
        use crate::energy::{CarbonSignal, EnergyAccum, EnergyPlan};
        let plan = EnergyPlan::new(CarbonSignal::Constant(100.0));
        let r = Recorder::new(ObsLevel::Events)
            .with_req_trace(ReqTraceConfig::default())
            .with_energy(plan.clone());
        assert!(r.energy_ledger().is_empty());
        let mut acc = EnergyAccum::new(plan, 0.0, 100.0, 0.0, &[("aggregated", 100.0)]);
        acc.tick(3600.0, 100.0, 0.0, &[("aggregated", 100.0)]);
        r.record_energy(acc.finish(3600.0, 0.0));
        r.record_request(&req_record(4));
        assert_eq!(r.energy_ledger(), r.artifacts().energy_ledger());
        assert_eq!(
            r.with_requests(|reqs| reqs.to_vec()),
            r.artifacts().requests
        );
        let off = Recorder::disabled();
        assert!(off.energy_ledger().is_empty());
        assert_eq!(off.with_requests(|reqs| reqs.len()), 0);
    }
}
