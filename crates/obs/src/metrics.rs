//! Labeled counters, gauges, and streaming histograms.
//!
//! Metric series are keyed by a static name plus a [`Label`], which is
//! how the stack gets per-server, per-priority, and per-policy series
//! without string formatting in hot paths. Storage is `BTreeMap`-based
//! so exported output is deterministically ordered.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use polca_stats::histogram::Histogram;

use crate::json::{render, Esc, Num};

/// The partition a metric series belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// A single unpartitioned series.
    Global,
    /// One series per server index.
    Server(usize),
    /// One series per named partition — a priority class (`"high"`,
    /// `"low"`) or a policy name (`"polca"`, `"nocap"`, …).
    Tag(&'static str),
    /// One series per fleet row index (a row of racks fed by a PDU).
    Row(usize),
    /// One series per power distribution unit in the fleet hierarchy.
    Pdu(usize),
    /// One series per datacenter in a multi-datacenter site.
    Datacenter(usize),
}

/// Displays a [`Label`] as its `metrics.json` value.
struct LabelJson(Label);

impl fmt::Display for LabelJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Label::Global => f.write_str("null"),
            Label::Server(i) => write!(f, "{{\"server\":{i}}}"),
            Label::Tag(t) => write!(f, "\"{}\"", Esc(t)),
            Label::Row(i) => write!(f, "{{\"row\":{i}}}"),
            Label::Pdu(i) => write!(f, "{{\"pdu\":{i}}}"),
            Label::Datacenter(i) => write!(f, "{{\"datacenter\":{i}}}"),
        }
    }
}

type Key = (&'static str, Label);

/// An approximate distribution that adapts its range as it streams.
///
/// Built on [`polca_stats::histogram::Histogram`]: the histogram starts
/// with a small `[0, hi)` range and, whenever a sample lands past `hi`,
/// doubles the range and pairwise-merges bins, so the bin count stays
/// constant while the range grows geometrically. Exact `count`, `sum`,
/// `min`, and `max` are tracked on the side; quantiles are read off the
/// binned CDF and are therefore approximate to one bin width.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingHistogram {
    bins: Vec<u64>,
    hi: f64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bin count for streaming histograms (power of two so pairwise merges
/// are exact).
const STREAM_BINS: usize = 128;

impl StreamingHistogram {
    /// Creates an empty histogram with an initial `[0, 1)` range.
    pub fn new() -> Self {
        StreamingHistogram {
            bins: vec![0; STREAM_BINS],
            hi: 1.0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Negative values saturate into the first
    /// bin (the simulator's series — latencies, depths, watts — are
    /// non-negative by construction).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        while value >= self.hi && self.hi < f64::MAX / 4.0 {
            self.double_range();
        }
        let width = self.hi / self.bins.len() as f64;
        let idx = ((value / width).floor().max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`, as if every observation recorded
    /// into `other` had been recorded into `self` instead.
    ///
    /// Bin placement, `count`, `min`, and `max` merge *exactly*:
    /// ranges grow by doubling from the same `[0, 1)` origin, so the
    /// wider histogram's bins cover a power-of-two multiple of the
    /// narrower one's, and pairwise bin folding
    /// (`floor(floor(v/w)/2) == floor(v/2w)`) reproduces the bin a
    /// sample would have landed in had it been recorded directly at
    /// the wider range. Only `sum` (and therefore `mean`) can drift by
    /// a ULP, because adding two partial sums associates differently
    /// than one interleaved stream. Merging the *same* partials in the
    /// *same* order is fully deterministic, which is what the sweep
    /// runner relies on for `--jobs N` byte-identity.
    pub fn merge_from(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        let mut shift = 0u32;
        while self.hi < other.hi {
            self.double_range();
        }
        let mut hi = other.hi;
        while hi < self.hi {
            hi *= 2.0;
            shift += 1;
        }
        for (i, &n) in other.bins.iter().enumerate() {
            if n > 0 {
                self.bins[i >> shift] += n;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn double_range(&mut self) {
        for i in 0..self.bins.len() / 2 {
            self.bins[i] = self.bins[2 * i] + self.bins[2 * i + 1];
        }
        for b in &mut self.bins[STREAM_BINS / 2..] {
            *b = 0;
        }
        self.hi *= 2.0;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate quantile (to one bin width), or `None` when empty.
    pub fn quantile(&self, fraction: f64) -> Option<f64> {
        self.fixed().quantile(fraction)
    }

    /// A snapshot as a fixed-range [`Histogram`] over `[0, hi)`.
    pub fn fixed(&self) -> Histogram {
        Histogram::from_counts(0.0, self.hi, self.bins.clone())
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic registry of labeled metric series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, StreamingHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter series `(name, label)`.
    pub fn add(&mut self, name: &'static str, label: Label, by: u64) {
        *self.counters.entry((name, label)).or_insert(0) += by;
    }

    /// Sets the gauge series `(name, label)` to its latest value.
    pub fn set_gauge(&mut self, name: &'static str, label: Label, value: f64) {
        self.gauges.insert((name, label), value);
    }

    /// Records `value` into the histogram series `(name, label)`.
    pub fn observe(&mut self, name: &'static str, label: Label, value: f64) {
        self.histograms
            .entry((name, label))
            .or_default()
            .record(value);
    }

    /// Current value of a counter series (0 if never incremented).
    pub fn counter(&self, name: &'static str, label: Label) -> u64 {
        self.counters.get(&(name, label)).copied().unwrap_or(0)
    }

    /// Latest value of a gauge series, if ever set.
    pub fn gauge(&self, name: &'static str, label: Label) -> Option<f64> {
        self.gauges.get(&(name, label)).copied()
    }

    /// The histogram series `(name, label)`, if any value was observed.
    pub fn histogram(&self, name: &'static str, label: Label) -> Option<&StreamingHistogram> {
        self.histograms.get(&(name, label))
    }

    /// Folds every series of `other` into `self`: counters add,
    /// gauges take `other`'s value (last-write-wins, matching what a
    /// sequential run sharing one registry would have kept), and
    /// histograms merge exactly via
    /// [`StreamingHistogram::merge_from`].
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, label, v) in other.counters() {
            self.add(name, label, v);
        }
        for (name, label, v) in other.gauges() {
            self.set_gauge(name, label, v);
        }
        for (name, label, h) in other.histograms() {
            self.histograms
                .entry((name, label))
                .or_default()
                .merge_from(h);
        }
    }

    /// Whether no series exist at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Iterates counter series in deterministic (name, label) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, Label, u64)> + '_ {
        self.counters.iter().map(|(&(n, l), &v)| (n, l, v))
    }

    /// Iterates gauge series in deterministic (name, label) order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, Label, f64)> + '_ {
        self.gauges.iter().map(|(&(n, l), &v)| (n, l, v))
    }

    /// Iterates histogram series in deterministic (name, label) order.
    pub fn histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, Label, &StreamingHistogram)> + '_ {
        self.histograms.iter().map(|(&(n, l), h)| (n, l, h))
    }

    /// Serializes the whole registry as pretty-stable JSON.
    pub fn to_json(&self) -> String {
        render(|w| self.write_json(w))
    }

    /// Writes the whole registry as pretty-stable JSON (the
    /// `metrics.json` body) into `w`.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"{\n  \"counters\": [")?;
        for (i, (name, label, v)) in self.counters().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n    {{\"name\":\"{}\",\"label\":{},\"value\":{v}}}",
                Esc(name),
                LabelJson(label)
            )?;
        }
        w.write_all(b"\n  ],\n  \"gauges\": [")?;
        for (i, (name, label, v)) in self.gauges().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\n    {{\"name\":\"{}\",\"label\":{},\"value\":{}}}",
                Esc(name),
                LabelJson(label),
                Num(v)
            )?;
        }
        w.write_all(b"\n  ],\n  \"histograms\": [")?;
        for (i, (name, label, h)) in self.histograms().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            // An absent statistic renders as `null`, like a non-finite one.
            let stat = |o: Option<f64>| Num(o.unwrap_or(f64::NAN));
            write!(
                w,
                "{sep}\n    {{\"name\":\"{}\",\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                Esc(name),
                LabelJson(label),
                h.count(),
                Num(h.sum()),
                stat(h.min()),
                stat(h.max()),
                stat(h.mean()),
                stat(h.quantile(0.50)),
                stat(h.quantile(0.99)),
            )?;
        }
        w.write_all(b"\n  ]\n}\n")
    }

    /// Serializes the registry in the Prometheus text exposition format
    /// (version 0.0.4), suitable for a `metrics.prom` artifact or a
    /// scrape endpoint.
    ///
    /// * Metric names are sanitized to `[a-zA-Z0-9_:]` (the registry's
    ///   `.`-separated names become `_`-separated) and counters gain
    ///   the conventional `_total` suffix.
    /// * Labels render as `{server="3"}` / `{tag="high"}` with
    ///   backslash, quote, and newline escaping per the spec.
    /// * Histograms export as summaries: `{quantile="0.5"}` /
    ///   `{quantile="0.99"}` sample lines plus `_sum` and `_count`.
    /// * Ordering is deterministic: family kind (counters, gauges,
    ///   summaries), then name, then label — inherited from the
    ///   `BTreeMap` storage, so repeated exports are byte-identical.
    pub fn to_prometheus(&self) -> String {
        render(|w| self.write_prometheus(w))
    }

    /// Writes the registry in the Prometheus text exposition format
    /// into `w` (see [`to_prometheus`](Self::to_prometheus)).
    pub fn write_prometheus(&self, w: &mut impl Write) -> io::Result<()> {
        let mut fam = Family::default();
        for (name, label, v) in self.counters() {
            let family = fam.enter(w, name, "_total", "counter")?;
            writeln!(w, "{family}{} {v}", PromLabels(label, None))?;
        }
        let mut fam = Family::default();
        for (name, label, v) in self.gauges() {
            let family = fam.enter(w, name, "", "gauge")?;
            writeln!(w, "{family}{} {}", PromLabels(label, None), PromValue(v))?;
        }
        let mut fam = Family::default();
        for (name, label, h) in self.histograms() {
            let family = fam.enter(w, name, "", "summary")?;
            for (q, qv) in [("0.5", h.quantile(0.50)), ("0.99", h.quantile(0.99))] {
                if let Some(qv) = qv {
                    writeln!(
                        w,
                        "{family}{} {}",
                        PromLabels(label, Some(("quantile", q))),
                        PromValue(qv)
                    )?;
                }
            }
            let labels = PromLabels(label, None);
            writeln!(w, "{family}_sum{labels} {}", PromValue(h.sum()))?;
            writeln!(w, "{family}_count{labels} {}", h.count())?;
        }
        Ok(())
    }
}

/// The Prometheus family a run of series belongs to: its `# TYPE` line
/// is written once, when the sanitized family name changes.
#[derive(Default)]
struct Family {
    raw: Option<&'static str>,
    name: Option<String>,
}

impl Family {
    /// Enters the family of series `raw` (writing its `# TYPE` line if
    /// it differs from the previous series') and returns its name.
    fn enter(
        &mut self,
        w: &mut impl Write,
        raw: &'static str,
        suffix: &str,
        kind: &str,
    ) -> io::Result<&str> {
        if self.raw != Some(raw) {
            self.raw = Some(raw);
            let name = prom_name(raw, suffix);
            if self.name.as_deref() != Some(name.as_str()) {
                writeln!(w, "# TYPE {name} {kind}")?;
                self.name = Some(name);
            }
        }
        Ok(self.name.as_deref().unwrap_or_default())
    }
}

/// A metric name sanitized to `[a-zA-Z0-9_:]`, never starting with a
/// digit, with `suffix` appended.
fn prom_name(raw: &str, suffix: &str) -> String {
    let mut n: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if n.starts_with(|c: char| c.is_ascii_digit()) {
        n.insert(0, '_');
    }
    n.push_str(suffix);
    n
}

/// Displays a Prometheus label value with backslash, quote, and
/// newline escaped.
struct PromEsc<'a>(&'a str);

impl fmt::Display for PromEsc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clean = 0;
        for (i, c) in self.0.char_indices() {
            let escaped = match c {
                '\\' => "\\\\",
                '"' => "\\\"",
                '\n' => "\\n",
                _ => continue,
            };
            f.write_str(&self.0[clean..i])?;
            f.write_str(escaped)?;
            clean = i + 1;
        }
        f.write_str(&self.0[clean..])
    }
}

/// Displays a series' label set (`{server="3"}`, plus an optional
/// extra pair such as the summary quantile); nothing for an unlabeled
/// series.
struct PromLabels<'a>(Label, Option<(&'a str, &'a str)>);

impl fmt::Display for PromLabels<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut open = false;
        let mut pair = |f: &mut fmt::Formatter<'_>, pair: fmt::Arguments<'_>| {
            f.write_str(if open { "," } else { "{" })?;
            open = true;
            f.write_fmt(pair)
        };
        match self.0 {
            Label::Global => {}
            Label::Server(i) => pair(f, format_args!("server=\"{i}\""))?,
            Label::Tag(t) => pair(f, format_args!("tag=\"{}\"", PromEsc(t)))?,
            Label::Row(i) => pair(f, format_args!("row=\"{i}\""))?,
            Label::Pdu(i) => pair(f, format_args!("pdu=\"{i}\""))?,
            Label::Datacenter(i) => pair(f, format_args!("datacenter=\"{i}\""))?,
        }
        if let Some((k, v)) = self.1 {
            pair(f, format_args!("{k}=\"{}\"", PromEsc(v)))?;
        }
        if open {
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// Displays a sample value: shortest round-trip, or `NaN`/`+Inf`/`-Inf`.
struct PromValue(f64);

impl fmt::Display for PromValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.is_finite() {
            fmt::Display::fmt(&v, f)
        } else if v.is_nan() {
            f.write_str("NaN")
        } else if v > 0.0 {
            f.write_str("+Inf")
        } else {
            f.write_str("-Inf")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let mut m = MetricsRegistry::new();
        m.add("reqs", Label::Tag("high"), 1);
        m.add("reqs", Label::Tag("high"), 2);
        m.add("reqs", Label::Tag("low"), 5);
        assert_eq!(m.counter("reqs", Label::Tag("high")), 3);
        assert_eq!(m.counter("reqs", Label::Tag("low")), 5);
        assert_eq!(m.counter("reqs", Label::Global), 0);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("power_w", Label::Server(2), 300.0);
        m.set_gauge("power_w", Label::Server(2), 412.5);
        assert_eq!(m.gauge("power_w", Label::Server(2)), Some(412.5));
        assert_eq!(m.gauge("power_w", Label::Server(3)), None);
    }

    #[test]
    fn streaming_histogram_grows_range() {
        let mut h = StreamingHistogram::new();
        h.record(0.5);
        h.record(100.0); // forces several range doublings
        h.record(3.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(100.0));
        assert_eq!(h.fixed().total(), 3);
        // The early sample survives the merges.
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 100.0, "p99 = {p99}");
    }

    #[test]
    fn streaming_histogram_quantiles_track_data() {
        let mut h = StreamingHistogram::new();
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // 0.0 .. 99.9
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 3.0, "p50 = {p50}");
        let mean = h.mean().unwrap();
        assert!((mean - 49.95).abs() < 1e-9, "mean = {mean}");
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = StreamingHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn prometheus_exposition_is_stable_and_escaped() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add("cluster.requests_offered", Label::Tag("high"), 3);
            m.add("cluster.requests_offered", Label::Tag("low"), 5);
            m.set_gauge("cluster.row_power_w", Label::Global, 1234.5);
            m.set_gauge("power_w", Label::Server(2), 300.0);
            for i in 0..100 {
                m.observe("cluster.latency_s", Label::Tag("high"), i as f64 / 50.0);
            }
            m.to_prometheus()
        };
        let p = build();
        assert_eq!(p, build(), "exposition must be deterministic");
        assert!(
            p.contains("# TYPE cluster_requests_offered_total counter"),
            "{p}"
        );
        assert!(
            p.contains("cluster_requests_offered_total{tag=\"high\"} 3"),
            "{p}"
        );
        assert!(p.contains("# TYPE cluster_row_power_w gauge"), "{p}");
        assert!(p.contains("cluster_row_power_w 1234.5"), "{p}");
        assert!(p.contains("power_w{server=\"2\"} 300"), "{p}");
        assert!(p.contains("# TYPE cluster_latency_s summary"), "{p}");
        assert!(
            p.contains("cluster_latency_s{tag=\"high\",quantile=\"0.5\"}"),
            "{p}"
        );
        assert!(
            p.contains("cluster_latency_s_count{tag=\"high\"} 100"),
            "{p}"
        );
        // The TYPE line appears once per family even with several series.
        assert_eq!(
            p.matches("# TYPE cluster_requests_offered_total counter")
                .count(),
            1,
            "{p}"
        );
        // Every line is a comment or `name[{labels}] value`.
        for line in p.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_label_values_escape_specials() {
        // Tag labels are &'static str so exotic values are unusual, but
        // the escaping must still be correct if they appear.
        let mut m = MetricsRegistry::new();
        m.add("c", Label::Tag("a\"b\\c\nd"), 1);
        let p = m.to_prometheus();
        assert!(p.contains("c_total{tag=\"a\\\"b\\\\c\\nd\"} 1"), "{p}");
    }

    #[test]
    fn row_and_pdu_labels_render_in_json_and_prometheus() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("fleet.row_power_w", Label::Row(3), 100.0);
        m.set_gauge("fleet.pdu_power_w", Label::Pdu(1), 400.0);
        let j = m.to_json();
        assert!(j.contains("{\"row\":3}"), "{j}");
        assert!(j.contains("{\"pdu\":1}"), "{j}");
        let p = m.to_prometheus();
        assert!(p.contains("fleet_row_power_w{row=\"3\"} 100"), "{p}");
        assert!(p.contains("fleet_pdu_power_w{pdu=\"1\"} 400"), "{p}");
    }

    #[test]
    fn histogram_merge_is_exact() {
        // Whatever the interleaving, merging split histograms must
        // reproduce the sequential histogram bit-for-bit.
        let samples: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 7.3) % 250.0)
            .chain([0.0, 0.99, 1.0, 1023.9, 4096.0])
            .collect();
        for split in [1, 17, 250, samples.len() - 1] {
            let mut seq = StreamingHistogram::new();
            for &v in &samples {
                seq.record(v);
            }
            let (mut a, mut b) = (StreamingHistogram::new(), StreamingHistogram::new());
            for &v in &samples[..split] {
                a.record(v);
            }
            for &v in &samples[split..] {
                b.record(v);
            }
            a.merge_from(&b);
            // Everything except the FP sum is bit-exact; the sum can
            // differ by a ULP from addition-order association.
            assert_eq!(a.fixed(), seq.fixed(), "bins, split at {split}");
            assert_eq!(a.count(), seq.count(), "split at {split}");
            assert_eq!(a.min(), seq.min(), "split at {split}");
            assert_eq!(a.max(), seq.max(), "split at {split}");
            let (s, t) = (a.sum(), seq.sum());
            assert!((s - t).abs() <= t.abs() * 1e-12, "sum {s} vs {t}");
        }
    }

    #[test]
    fn histogram_merge_handles_empty_sides() {
        let mut a = StreamingHistogram::new();
        let b = StreamingHistogram::new();
        a.record(3.0);
        let before = a.clone();
        a.merge_from(&b);
        assert_eq!(a, before);
        let mut e = StreamingHistogram::new();
        e.merge_from(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn registry_merge_matches_sequential() {
        let mut seq = MetricsRegistry::new();
        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        for reg in [&mut a, &mut seq] {
            reg.add("c", Label::Global, 2);
            reg.set_gauge("g", Label::Row(0), 1.0);
            reg.observe("h", Label::Global, 0.5);
        }
        for reg in [&mut b, &mut seq] {
            reg.add("c", Label::Global, 3);
            reg.set_gauge("g", Label::Row(0), 7.0);
            reg.observe("h", Label::Global, 9.5);
        }
        a.merge_from(&b);
        assert_eq!(a, seq);
        assert_eq!(a.to_json(), seq.to_json());
    }

    #[test]
    fn registry_json_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add("b", Label::Global, 1);
            m.add("a", Label::Server(1), 2);
            m.set_gauge("g", Label::Tag("low"), 0.5);
            m.observe("lat", Label::Tag("high"), 1.25);
            m.to_json()
        };
        assert_eq!(build(), build());
        let j = build();
        assert!(j.contains("\"counters\""), "{j}");
        assert!(j.contains("{\"server\":1}"), "{j}");
    }
}
