//! In-memory spans recorded around the benchmark's calls into each
//! crate.
//!
//! The tracer lives in the benchmark, not in the crates: a span covers
//! one call from these files into a crate's public API. Spans are kept
//! in memory (layer, name, start, end, parent, run id) and written out
//! once, at the end, as a Chrome trace-event document that Perfetto
//! loads. A disabled tracer only runs the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Single-threaded span recorder (every span opens on the main thread;
/// worker threads live inside the crates).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    run: Cell<u32>,
    runs: RefCell<Vec<String>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            run: Cell::new(0),
            runs: RefCell::new(Vec::new()),
        }
    }

    /// Starts a new workload run; later spans carry its id.
    pub fn begin_run(&self, label: String) -> u32 {
        let mut runs = self.runs.borrow_mut();
        runs.push(label);
        let id = runs.len() as u32;
        self.run.set(id);
        id
    }

    /// Runs `f` inside a span of `layer` named `name`.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                layer,
                name,
                run: self.run.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Labels of the runs begun so far; run ids start at 1.
    pub fn runs(&self) -> Vec<String> {
        self.runs.borrow().clone()
    }

    /// Self time per layer over the spans of `run` (every run when
    /// `None`): each span's duration minus the time its direct children
    /// cover.
    pub fn self_seconds(&self, run: Option<u32>) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| run.is_none_or(|r| s.run == r))
        {
            let own = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(child_ns[i]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Every span as Chrome trace-event JSON: one process per run,
    /// complete (`X`) events in microseconds, parent index in `args`.
    pub fn perfetto_json(&self) -> String {
        let spans = self.spans.borrow();
        let runs = self.runs.borrow();
        let mut events = Vec::with_capacity(spans.len() + runs.len());
        for (i, label) in runs.iter().enumerate() {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                label
            ));
        }
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.layer,
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1e3
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        let run = t.begin_run("r".into());
        t.span("outer", "a", || {
            t.span("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = t.self_seconds(Some(run));
        assert!(own["inner"] >= 0.02);
        assert!(own["outer"] < own["inner"]);
        assert!(t.perfetto_json().contains("\"parent\":0"));
    }
}
