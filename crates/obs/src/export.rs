//! The exportable bundle a run leaves behind.
//!
//! [`RunArtifacts`] is a snapshot of everything a [`Recorder`] captured.
//! Each artifact has exactly one renderer, which streams into an
//! `io::Write` sink and allocates no whole-file string:
//!
//! | file              | contents                                  | renderer                                  |
//! |-------------------|-------------------------------------------|-------------------------------------------|
//! | `events.jsonl`    | the structured event log, one JSON object/line | [`Event::write_json`] per line       |
//! | `requests.jsonl`  | polca-req per-request lifecycle records (only when request tracing is on) | [`req::write_requests_jsonl`] |
//! | `metrics.json`    | counters, gauges, histogram summaries     | [`MetricsRegistry::write_json`]           |
//! | `metrics.prom`    | registry + deterministic polca-prof counters + energy gauges in Prometheus text exposition | [`MetricsRegistry::write_prometheus`], [`ProfSnapshot::write_prometheus`], [`EnergyLedger::write_prometheus`] |
//! | `energy.json`     | the hierarchical energy/carbon ledger     | [`EnergyLedger::write_json`]              |
//! | `energy.csv`      | the merged site energy timeseries         | [`EnergyLedger::write_series_csv`]        |
//! | `power.csv`       | `t_s,watts` timeseries from power samples | this module                               |
//! | `latency.csv`     | per-request completion latencies          | this module                               |
//! | `trace.json`      | Chrome trace-event JSON (Perfetto-loadable), with request and energy lanes | [`chrome::write_trace`] |
//! | `prof.json`       | polca-prof phase/counter totals (non-determ.) | [`ProfSnapshot::write_json`]          |
//! | `prof.folded`     | collapsed stacks for speedscope/flamegraph | [`ProfSnapshot::write_folded`]           |
//! | `prof.trace.json` | the phase breakdown as a Perfetto track   | [`ProfSnapshot::write_chrome_trace`]      |
//!
//! The `String` methods ([`RunArtifacts::events_jsonl`],
//! [`RunArtifacts::chrome_trace_json`], [`EnergyLedger::to_json`], …)
//! are one-line wrappers that run the same renderer into memory, so a
//! file and its string cannot differ. [`Recorder::write_dir`] takes no
//! snapshot: it streams every file straight from the recorder's core
//! under one lock, each through a buffered file writer that is flushed
//! explicitly so a write error is returned instead of dropped. Files
//! render concurrently, one per available core, and the energy ledger
//! is built once per export.
//!
//! Everything except the wall-clock `prof.*` artifacts is a pure
//! function of the event log and metrics, which are themselves
//! sim-deterministic — so with a fixed seed, re-running a simulation
//! reproduces those files byte-for-byte. (`metrics.prom`
//! keeps that property: it only ever includes the deterministic subset
//! of the profile — call and occupancy counters, never nanoseconds.)
//!
//! [`Recorder`]: crate::Recorder
//! [`Recorder::write_dir`]: crate::Recorder::write_dir

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::chrome::{self, Annotation};
use crate::energy::{EnergyLedger, RowEnergy};
use crate::event::Event;
use crate::json::{render, Num};
use crate::metrics::MetricsRegistry;
use crate::prof::ProfSnapshot;
use crate::recorder::ObsLevel;
use crate::req::{self, ReqRecord};

/// Renders a table as CSV: a header row followed by one line per row,
/// RFC-4180-quoting any cell containing a comma, quote, or newline.
///
/// This backs the figure/table binaries' shared writer so their CSV
/// output matches the recorder's own artifact files.
///
/// # Examples
///
/// ```
/// let csv = polca_obs::export::csv_table(
///     &["policy", "brakes"],
///     &[vec!["POLCA".into(), "0".into()]],
/// );
/// assert_eq!(csv, "policy,brakes\nPOLCA,0\n");
/// ```
pub fn csv_table(columns: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut s = String::new();
    s.push_str(
        &columns
            .iter()
            .map(|c| cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    s.push('\n');
    for row in rows {
        s.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        s.push('\n');
    }
    s
}

/// A snapshot of one run's observability output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArtifacts {
    /// The level the recorder captured at.
    pub level: ObsLevel,
    /// The structured event log, in emission order.
    pub events: Vec<Event>,
    /// Final metric series.
    pub metrics: MetricsRegistry,
    /// polca-req lifecycle records for sampled completed requests
    /// (empty unless request tracing was on at [`ObsLevel::Events`]+).
    pub requests: Vec<ReqRecord>,
    /// Whether the recorder had request tracing enabled — gates the
    /// `requests.jsonl` artifact so untraced runs keep their exact
    /// file set.
    pub req_trace: bool,
    /// polca-energy per-row accounts (empty unless the energy ledger
    /// was attached) — gate the `energy.json`/`energy.csv` artifacts
    /// so unmetered runs keep their exact file set.
    pub energy_rows: Vec<RowEnergy>,
    /// polca-prof phase and counter totals (empty below
    /// [`ObsLevel::Full`]).
    pub prof: ProfSnapshot,
}

impl RunArtifacts {
    fn export(&self) -> Export<'_> {
        Export::new(
            self.level,
            &self.events,
            &self.metrics,
            &self.requests,
            self.req_trace,
            &self.energy_rows,
            &self.prof,
        )
    }

    /// The event log as JSON Lines (one event per line).
    pub fn events_jsonl(&self) -> String {
        render(|w| self.export().write_events_jsonl(w))
    }

    /// The metrics registry as a JSON document.
    pub fn metrics_json(&self) -> String {
        render(|w| self.export().write_metrics_json(w))
    }

    /// The metrics registry in the Prometheus text exposition format,
    /// followed by the deterministic polca-prof counter series (phase
    /// calls, queue depth high-water mark, occupancy) when profiling
    /// captured anything, and the energy ledger's gauges.
    pub fn metrics_prometheus(&self) -> String {
        render(|w| self.export().write_metrics_prometheus(w))
    }

    /// The polca-energy ledger assembled from the recorded per-row
    /// accounts (empty when the ledger was not attached).
    pub fn energy_ledger(&self) -> EnergyLedger {
        EnergyLedger::from_rows(&self.energy_rows)
    }

    /// The aggregate power timeseries as CSV (`t_s,watts`).
    pub fn power_csv(&self) -> String {
        render(|w| self.export().write_power_csv(w))
    }

    /// Per-request completion latencies as CSV
    /// (`t_s,server,priority,latency_s`).
    pub fn latency_csv(&self) -> String {
        render(|w| self.export().write_latency_csv(w))
    }

    /// The polca-req request log as JSON Lines (one completed request
    /// per line — the `requests.jsonl` body).
    pub fn requests_jsonl(&self) -> String {
        render(|w| req::write_requests_jsonl(w, &self.requests))
    }

    /// The event log rendered as Chrome trace-event JSON; when request
    /// tracing captured records, per-request lanes ride along on a
    /// dedicated `polca-req` process, and energy counters on a
    /// `polca-energy` one.
    pub fn chrome_trace_json(&self) -> String {
        render(|w| self.export().write_trace_json(w, &[]))
    }

    /// polca-prof phase/counter totals as JSON (`prof.json` body).
    pub fn prof_json(&self) -> String {
        self.prof.to_json()
    }

    /// polca-prof collapsed stacks (`prof.folded` body) for
    /// speedscope/flamegraph.
    pub fn prof_folded(&self) -> String {
        self.prof.folded()
    }

    /// polca-prof phase breakdown as Chrome trace-event JSON
    /// (`prof.trace.json` body).
    pub fn prof_chrome_json(&self) -> String {
        self.prof.chrome_trace_json()
    }

    /// Writes the level-appropriate artifact files into `dir`,
    /// creating the directory if needed, and returns the written
    /// paths in a deterministic order.
    ///
    /// * `ObsLevel::Metrics` → `metrics.json`, `metrics.prom` (and
    ///   `energy.json` + `energy.csv` when the energy ledger recorded
    ///   rows)
    /// * `ObsLevel::Events` → plus `events.jsonl`, `power.csv`,
    ///   `latency.csv`, `trace.json` (and `requests.jsonl` when
    ///   request tracing is on)
    /// * `ObsLevel::Full` → plus `prof.json`, `prof.folded`,
    ///   `prof.trace.json`
    pub fn write_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.export().write_dir(dir, &[])
    }
}

/// Buffer size of each artifact file's writer.
const FILE_BUFFER: usize = 64 << 10;

/// Everything one export reads, borrowed — from a [`RunArtifacts`]
/// snapshot or straight from a recorder's locked core — so each
/// artifact has exactly one renderer, which streams into its sink.
pub(crate) struct Export<'a> {
    level: ObsLevel,
    events: &'a [Event],
    metrics: &'a MetricsRegistry,
    requests: &'a [ReqRecord],
    req_trace: bool,
    prof: &'a ProfSnapshot,
    /// The energy ledger (when rows were recorded), built once and
    /// shared by every artifact that reads it.
    ledger: Option<EnergyLedger>,
}

/// One artifact file: its name and its renderer.
type Job<'a, S> = (
    &'static str,
    Box<dyn Fn(&mut S) -> io::Result<()> + Sync + 'a>,
);

impl<'a> Export<'a> {
    pub(crate) fn new(
        level: ObsLevel,
        events: &'a [Event],
        metrics: &'a MetricsRegistry,
        requests: &'a [ReqRecord],
        req_trace: bool,
        energy_rows: &'a [RowEnergy],
        prof: &'a ProfSnapshot,
    ) -> Self {
        Export {
            level,
            events,
            metrics,
            requests,
            req_trace,
            prof,
            ledger: (!energy_rows.is_empty()).then(|| EnergyLedger::from_rows(energy_rows)),
        }
    }

    fn write_events_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for ev in self.events {
            ev.write_json(w)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    fn write_metrics_json(&self, w: &mut impl Write) -> io::Result<()> {
        self.metrics.write_json(w)
    }

    fn write_metrics_prometheus(&self, w: &mut impl Write) -> io::Result<()> {
        self.metrics.write_prometheus(w)?;
        self.prof.write_prometheus(w)?;
        match &self.ledger {
            Some(ledger) => ledger.write_prometheus(w),
            None => Ok(()),
        }
    }

    fn write_power_csv(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"t_s,watts\n")?;
        for ev in self.events {
            if let Event::PowerSample { t, watts } = ev {
                writeln!(w, "{},{}", Num(*t), Num(*watts))?;
            }
        }
        Ok(())
    }

    fn write_latency_csv(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"t_s,server,priority,latency_s\n")?;
        for ev in self.events {
            if let Event::RequestCompleted {
                t,
                server,
                priority,
                latency_s,
                ..
            } = ev
            {
                writeln!(w, "{},{server},{priority},{}", Num(*t), Num(*latency_s))?;
            }
        }
        Ok(())
    }

    fn write_trace_json<W: Write>(&self, w: &mut W, annotations: &[Annotation]) -> io::Result<()> {
        chrome::write_trace(w, self.events, annotations, |doc| {
            if self.req_trace {
                req::write_request_lanes(doc, self.requests)?;
            }
            match &self.ledger {
                Some(ledger) => ledger.write_chrome_counter_lanes(doc),
                None => Ok(()),
            }
        })
    }

    /// The level-appropriate artifacts, in `write_dir`'s order.
    fn jobs<S: Write>(&'a self, annotations: &'a [Annotation]) -> Vec<Job<'a, S>> {
        let mut jobs: Vec<Job<'a, S>> = Vec::new();
        if self.level.metrics_enabled() {
            jobs.push(("metrics.json", Box::new(|w| self.write_metrics_json(w))));
            jobs.push((
                "metrics.prom",
                Box::new(|w| self.write_metrics_prometheus(w)),
            ));
            if let Some(ledger) = &self.ledger {
                jobs.push(("energy.json", Box::new(|w| ledger.write_json(w))));
                jobs.push(("energy.csv", Box::new(|w| ledger.write_series_csv(w))));
            }
        }
        if self.level.events_enabled() {
            jobs.push(("events.jsonl", Box::new(|w| self.write_events_jsonl(w))));
            if self.req_trace {
                jobs.push((
                    "requests.jsonl",
                    Box::new(|w| req::write_requests_jsonl(w, self.requests)),
                ));
            }
            jobs.push(("power.csv", Box::new(|w| self.write_power_csv(w))));
            jobs.push(("latency.csv", Box::new(|w| self.write_latency_csv(w))));
            jobs.push((
                "trace.json",
                Box::new(|w| self.write_trace_json(w, annotations)),
            ));
        }
        if self.level.profiling_enabled() {
            jobs.push(("prof.json", Box::new(|w| self.prof.write_json(w))));
            jobs.push(("prof.folded", Box::new(|w| self.prof.write_folded(w))));
            jobs.push((
                "prof.trace.json",
                Box::new(|w| self.prof.write_chrome_trace(w)),
            ));
        }
        jobs
    }

    /// Streams the level-appropriate artifacts, each into the sink
    /// `open` returns for its file name, and flushes every sink.
    /// Files render concurrently on up to one thread per available
    /// core, largest first; the first error in file order is returned.
    /// Returns the names written, in order.
    fn write_files<S: Write + Send>(
        &'a self,
        annotations: &'a [Annotation],
        open: impl Fn(&'static str) -> io::Result<S> + Sync,
    ) -> io::Result<Vec<&'static str>> {
        let jobs = self.jobs::<S>(annotations);
        // The event-log artifacts dwarf the rest; start them first so
        // the small files fill in behind them.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| {
            ["trace.json", "events.jsonl", "requests.jsonl", "power.csv"]
                .iter()
                .position(|&big| big == jobs[i].0)
                .unwrap_or(usize::MAX)
        });
        let results: Vec<Mutex<io::Result<()>>> = jobs.iter().map(|_| Mutex::new(Ok(()))).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (name, render) = &jobs[i];
                let result = open(name).and_then(|mut sink| {
                    render(&mut sink)?;
                    sink.flush()
                });
                *results[i]
                    .lock()
                    .expect("no renderer holds the lock across a panic") = result;
            }
        };
        let workers = thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(jobs.len());
        thread::scope(|scope| {
            for _ in 1..workers {
                // A helper thread that cannot start leaves its share to
                // the others.
                let _ = thread::Builder::new().spawn_scoped(scope, work);
            }
            work();
        });
        for result in results {
            result.into_inner().expect("renderer panicked")?;
        }
        Ok(jobs.into_iter().map(|(name, _)| name).collect())
    }

    /// Writes the level-appropriate artifact files into `dir` (see
    /// [`RunArtifacts::write_dir`]), with `annotations` merged onto
    /// `trace.json`'s cluster track.
    pub(crate) fn write_dir(
        &self,
        dir: &Path,
        annotations: &[Annotation],
    ) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let names = self.write_files(annotations, |name| {
            Ok(BufWriter::with_capacity(
                FILE_BUFFER,
                File::create(dir.join(name))?,
            ))
        })?;
        Ok(names.into_iter().map(|name| dir.join(name)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifacts {
        let mut metrics = MetricsRegistry::new();
        metrics.add("reqs", crate::Label::Global, 2);
        RunArtifacts {
            level: ObsLevel::Events,
            events: vec![
                Event::PowerSample {
                    t: 1.0,
                    watts: 150.0,
                },
                Event::RequestCompleted {
                    t: 2.5,
                    server: 0,
                    request: 7,
                    priority: "high",
                    latency_s: 0.5,
                },
            ],
            metrics,
            requests: Vec::new(),
            req_trace: false,
            energy_rows: Vec::new(),
            prof: ProfSnapshot::default(),
        }
    }

    #[test]
    fn csv_table_quotes_only_when_needed() {
        let csv = csv_table(
            &["name", "note"],
            &[
                vec!["plain".into(), "a,b".into()],
                vec!["quo\"te".into(), "ok".into()],
            ],
        );
        assert_eq!(csv, "name,note\nplain,\"a,b\"\n\"quo\"\"te\",ok\n");
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let a = sample();
        let jsonl = a.events_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"ev\":\"power_sample\""));
    }

    #[test]
    fn csv_exports_extract_their_series() {
        let a = sample();
        assert_eq!(a.power_csv(), "t_s,watts\n1,150\n");
        assert_eq!(
            a.latency_csv(),
            "t_s,server,priority,latency_s\n2.5,0,high,0.5\n"
        );
    }

    #[test]
    fn write_dir_honours_level() {
        let dir = std::env::temp_dir().join(format!(
            "polca-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        a.level = ObsLevel::Metrics;
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(dir.join("metrics.json").exists());
        assert!(dir.join("metrics.prom").exists());
        assert!(!dir.join("events.jsonl").exists());

        a.level = ObsLevel::Full;
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 9);
        assert!(dir.join("trace.json").exists());
        assert!(!dir.join("profile.json").exists());
        assert!(dir.join("prof.json").exists());
        assert!(dir.join("prof.folded").exists());
        assert!(dir.join("prof.trace.json").exists());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn energy_rows_add_ledger_artifacts_and_counter_lanes() {
        use crate::energy::{CarbonSignal, EnergyAccum, EnergyPlan};

        let dir = std::env::temp_dir().join(format!(
            "polca-energy-export-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        let without = a.chrome_trace_json();
        assert!(!a.metrics_prometheus().contains("energy_site_wh"));
        let mut acc = EnergyAccum::new(
            EnergyPlan::new(CarbonSignal::Constant(100.0)),
            0.0,
            200.0,
            0.0,
            &[("aggregated", 200.0)],
        );
        acc.tick(1800.0, 200.0, 0.0, &[("aggregated", 200.0)]);
        a.energy_rows.push(acc.finish(1800.0, 3600.0));
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 8);
        let json = fs::read_to_string(dir.join("energy.json")).unwrap();
        assert_eq!(json, a.energy_ledger().to_json());
        assert!(json.contains("\"site\""));
        let csv = fs::read_to_string(dir.join("energy.csv")).unwrap();
        assert!(csv.starts_with("t_s,it_wh,facility_wh,co2e_g,g_per_kwh\n"));
        assert!(a.metrics_prometheus().contains("energy_site_wh"));
        assert!(a.metrics_prometheus().contains("carbon_site_g"));
        let with = a.chrome_trace_json();
        assert_ne!(with, without);
        assert!(with.contains("\"name\":\"polca-energy\""));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn req_trace_adds_requests_jsonl_and_chrome_lanes() {
        let dir = std::env::temp_dir().join(format!(
            "polca-req-export-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut a = sample();
        let without = a.chrome_trace_json();
        a.req_trace = true;
        a.requests
            .push(crate::req::ReqSpan::default().finish(7, "high", 0, 0.0, 1.0, 9.0, 100, 10));
        let files = a.write_dir(&dir).unwrap();
        assert_eq!(files.len(), 7);
        let jsonl = fs::read_to_string(dir.join("requests.jsonl")).unwrap();
        assert_eq!(jsonl, a.requests_jsonl());
        assert!(jsonl.contains("\"ttft_s\":"));
        let with = a.chrome_trace_json();
        assert_ne!(with, without);
        assert!(with.contains("\"name\":\"polca-req\""));

        // req_trace on with no captured records: the lane process is
        // omitted and the trace matches the untraced rendering.
        a.requests.clear();
        assert_eq!(a.chrome_trace_json(), without);

        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sink that accepts `budget` bytes and then fails every write;
    /// with `fail_flush` its flush fails too.
    struct Faulty {
        budget: usize,
        fail_flush: bool,
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("injected write fault"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.fail_flush {
                Err(io::Error::other("injected flush fault"))
            } else {
                Ok(())
            }
        }
    }

    /// Every artifact at Full: events, request records and an energy
    /// ledger, plus one annotation for `trace.json`.
    fn full_sample() -> (RunArtifacts, Vec<Annotation>) {
        use crate::energy::{CarbonSignal, EnergyAccum, EnergyPlan};

        let mut a = sample();
        a.level = ObsLevel::Full;
        a.req_trace = true;
        a.requests
            .push(crate::req::ReqSpan::default().finish(7, "high", 0, 0.0, 1.0, 9.0, 100, 10));
        let mut acc = EnergyAccum::new(
            EnergyPlan::new(CarbonSignal::Constant(100.0)),
            0.0,
            200.0,
            0.0,
            &[("aggregated", 200.0)],
        );
        acc.tick(1800.0, 200.0, 0.0, &[("aggregated", 200.0)]);
        a.energy_rows.push(acc.finish(1800.0, 3600.0));
        a.prof.set(
            crate::Phase::Dispatch,
            crate::PhaseAgg {
                calls: 3,
                total_ns: 900,
                self_ns: 900,
                max_ns: 400,
            },
        );
        let notes = vec![Annotation {
            t: 2.0,
            name: "alert:row-power-high".into(),
            detail: "0.97".into(),
        }];
        (a, notes)
    }

    #[test]
    fn write_faults_propagate_from_every_renderer() {
        let dir = std::env::temp_dir().join(format!(
            "polca-fault-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let (a, notes) = full_sample();
        let files = a.export().write_dir(&dir, &notes).unwrap();
        assert_eq!(files.len(), 12);
        for path in &files {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap();
            let len = fs::metadata(path).unwrap().len() as usize;
            assert!(len > 10, "{name} is too short to cut mid-line");
            // Nothing written, cut inside the first line or two, cut
            // mid-file.
            for budget in [0, 10, len / 2] {
                let err = a
                    .export()
                    .write_files(&notes, |n| {
                        Ok(Faulty {
                            budget: if n == name { budget } else { usize::MAX },
                            fail_flush: false,
                        })
                    })
                    .unwrap_err();
                assert_eq!(
                    err.to_string(),
                    "injected write fault",
                    "{name} at {budget}"
                );
            }
            // A sink whose flush fails: the error is returned, not
            // swallowed as a dropped `BufWriter` would.
            let err = a
                .export()
                .write_files(&notes, |n| {
                    Ok(Faulty {
                        budget: usize::MAX,
                        fail_flush: n == name,
                    })
                })
                .unwrap_err();
            assert_eq!(err.to_string(), "injected flush fault", "{name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_files_match_the_string_renderers() {
        let dir = std::env::temp_dir().join(format!(
            "polca-stream-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let (a, _) = full_sample();
        a.write_dir(&dir).unwrap();
        let ledger = a.energy_ledger();
        for (name, body) in [
            ("metrics.json", a.metrics_json()),
            ("metrics.prom", a.metrics_prometheus()),
            ("energy.json", ledger.to_json()),
            ("energy.csv", ledger.series_csv()),
            ("events.jsonl", a.events_jsonl()),
            ("requests.jsonl", a.requests_jsonl()),
            ("power.csv", a.power_csv()),
            ("latency.csv", a.latency_csv()),
            ("trace.json", a.chrome_trace_json()),
            ("prof.json", a.prof_json()),
            ("prof.folded", a.prof_folded()),
            ("prof.trace.json", a.prof_chrome_json()),
        ] {
            assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), body, "{name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dir_under_a_regular_file_fails() {
        let file = std::env::temp_dir().join(format!(
            "polca-not-a-dir-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::write(&file, "x").unwrap();
        let (a, _) = full_sample();
        assert!(a.write_dir(&file.join("obs")).is_err());
        assert!(a.write_dir(&file).is_err());
        fs::remove_file(&file).unwrap();
    }
}
