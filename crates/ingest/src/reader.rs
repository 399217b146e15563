//! Streaming CSV ingestion.
//!
//! [`TraceReader`] wraps any `BufRead` and yields one
//! `Result<TraceRecord, IngestError>` per data row, so malformed rows
//! surface with their line number while well-formed rows keep flowing.
//! [`IngestedTrace`] is the collected form the rest of the subsystem
//! works with: rows sorted by arrival, datetime timestamps rebased to
//! the trace start (keeping the week phase for diurnal alignment), and
//! skipped-row diagnostics retained.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use polca_obs::{Label, Phase, Recorder};

use crate::error::IngestError;
use crate::schema::{
    parse_priority, parse_timestamp, week_phase_s, TimestampKind, TraceRecord, TraceSchema,
};

/// Splits one CSV line, honoring RFC-4180 double-quote escaping (the
/// polca-obs CSV writer quotes cells containing commas or quotes).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// A streaming reader over an Azure-2024-style request log.
///
/// Construction parses the header; iteration yields rows one at a time
/// without buffering the file, which is what lets multi-week traces
/// ingest in constant memory.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    lines: std::io::Lines<R>,
    schema: TraceSchema,
    /// 1-based line number of the most recently read line.
    line: usize,
    kind: Option<TimestampKind>,
}

impl TraceReader<BufReader<File>> {
    /// Opens a CSV file for streaming ingestion.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::Io`] if the file cannot be opened and any
    /// header error [`TraceReader::new`] reports.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a reader and parses the header line.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::EmptyInput`] on an empty stream and
    /// [`IngestError::MissingColumn`] when a required column is absent.
    pub fn new(reader: R) -> Result<Self, IngestError> {
        let mut lines = reader.lines();
        let header = match lines.next() {
            None => return Err(IngestError::EmptyInput),
            Some(h) => h?,
        };
        let schema = TraceSchema::from_header(&split_csv_line(&header))?;
        Ok(TraceReader {
            lines,
            schema,
            line: 1,
            kind: None,
        })
    }

    /// The column mapping derived from the header.
    pub fn schema(&self) -> &TraceSchema {
        &self.schema
    }

    fn row_err(&self, message: String) -> IngestError {
        IngestError::Row {
            line: self.line,
            message,
        }
    }

    fn parse_row(&mut self, line: &str) -> Result<TraceRecord, IngestError> {
        let fields = split_csv_line(line);
        if fields.len() < self.schema.width {
            return Err(self.row_err(format!(
                "expected {} column(s), found {}",
                self.schema.width,
                fields.len()
            )));
        }
        let (arrival_s, kind) =
            parse_timestamp(&fields[self.schema.timestamp]).map_err(|m| self.row_err(m))?;
        match self.kind {
            None => self.kind = Some(kind),
            Some(first) if first != kind => {
                return Err(self.row_err(
                    "timestamp format differs from earlier rows (mixed seconds and datetimes)"
                        .into(),
                ));
            }
            Some(_) => {}
        }
        let tokens = |idx: usize, what: &str| -> Result<u32, IngestError> {
            let raw = fields[idx].trim();
            let n: u64 = raw.parse().map_err(|_| IngestError::Row {
                line: self.line,
                message: format!("cannot parse {what} `{raw}` as a token count"),
            })?;
            if n == 0 || n > u32::MAX as u64 {
                return Err(IngestError::Row {
                    line: self.line,
                    message: format!("{what} {n} out of range (must be 1..=4294967295)"),
                });
            }
            Ok(n as u32)
        };
        let context_tokens = tokens(self.schema.context, "context tokens")?;
        let generated_tokens = tokens(self.schema.generated, "generated tokens")?;
        let priority = match self.schema.priority {
            Some(idx) if !fields[idx].trim().is_empty() => {
                Some(parse_priority(&fields[idx]).map_err(|m| self.row_err(m))?)
            }
            _ => None,
        };
        Ok(TraceRecord {
            arrival_s,
            context_tokens,
            generated_tokens,
            priority,
        })
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => return Some(Err(e.into())),
            };
            self.line += 1;
            if line.trim().is_empty() {
                continue;
            }
            return Some(self.parse_row(&line));
        }
    }
}

/// How many malformed-row diagnostics an [`IngestedTrace`] retains.
const MAX_RETAINED_ERRORS: usize = 8;

/// A fully ingested trace: time-sorted records plus diagnostics.
#[derive(Debug, Clone)]
pub struct IngestedTrace {
    records: Vec<TraceRecord>,
    /// Seconds into a Monday-started week at which the trace begins.
    week_phase_s: f64,
    /// Whether timestamps were rebased (datetime traces).
    rebased: bool,
    skipped: usize,
    row_errors: Vec<String>,
}

impl IngestedTrace {
    /// Ingests a CSV file, skipping malformed rows.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError`] on I/O or header problems, or
    /// [`IngestError::NoRecords`] when no row survives.
    pub fn from_csv_path(path: &Path) -> Result<Self, IngestError> {
        Self::collect_reader(TraceReader::open(path)?, &Recorder::disabled())
    }

    /// Like [`IngestedTrace::from_csv_path`], but counts accepted and
    /// skipped rows and the trace span into `recorder`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IngestedTrace::from_csv_path`].
    pub fn from_csv_path_observed(path: &Path, recorder: &Recorder) -> Result<Self, IngestError> {
        Self::collect_reader(TraceReader::open(path)?, recorder)
    }

    /// Ingests from any buffered reader (e.g. `&[u8]` for in-memory
    /// CSV), skipping malformed rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IngestedTrace::from_csv_path`].
    pub fn from_reader<R: BufRead>(reader: R) -> Result<Self, IngestError> {
        Self::collect_reader(TraceReader::new(reader)?, &Recorder::disabled())
    }

    /// Like [`IngestedTrace::from_reader`], but counts accepted and
    /// skipped rows (`ingest.rows_ok` / `ingest.rows_skipped`) and the
    /// trace span (`ingest.duration_s`) into `recorder`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IngestedTrace::from_csv_path`].
    pub fn from_reader_observed<R: BufRead>(
        reader: R,
        recorder: &Recorder,
    ) -> Result<Self, IngestError> {
        Self::collect_reader(TraceReader::new(reader)?, recorder)
    }

    fn collect_reader<R: BufRead>(
        reader: TraceReader<R>,
        recorder: &Recorder,
    ) -> Result<Self, IngestError> {
        let _phase = recorder.prof().time(Phase::IngestRead);
        let mut records = Vec::new();
        let mut skipped = 0usize;
        let mut row_errors = Vec::new();
        let mut kind = TimestampKind::Seconds;
        let mut reader = reader;
        for row in &mut reader {
            match row {
                Ok(r) => records.push(r),
                Err(e @ IngestError::Row { .. }) => {
                    skipped += 1;
                    if row_errors.len() < MAX_RETAINED_ERRORS {
                        row_errors.push(e.to_string());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(k) = reader.kind {
            kind = k;
        }
        if records.is_empty() {
            return Err(IngestError::NoRecords);
        }
        // Arrival order is a simulator invariant the log may not honor.
        records.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        // Numeric traces keep their own clock (t = 0 is Monday
        // midnight, the generator convention) so a synthetic round trip
        // is exact; datetime traces rebase to their first record and
        // carry the week phase separately.
        let (week_phase_s, rebased) = match kind {
            TimestampKind::Seconds => (0.0, false),
            TimestampKind::DateTime => {
                let t0 = records[0].arrival_s;
                for r in &mut records {
                    r.arrival_s -= t0;
                }
                (week_phase_s(t0), true)
            }
        };
        recorder.add("ingest.rows_ok", Label::Global, records.len() as u64);
        recorder.add("ingest.rows_skipped", Label::Global, skipped as u64);
        let trace = IngestedTrace {
            records,
            week_phase_s,
            rebased,
            skipped,
            row_errors,
        };
        recorder.gauge("ingest.duration_s", Label::Global, trace.duration_s());
        Ok(trace)
    }

    /// The time-sorted records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of ingested requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records (never true for a successfully
    /// constructed trace).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Span from the first to the last arrival, in seconds.
    pub fn duration_s(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.arrival_s - a.arrival_s,
            _ => 0.0,
        }
    }

    /// Arrival time of the first record, in trace seconds.
    pub fn start_s(&self) -> f64 {
        self.records.first().map_or(0.0, |r| r.arrival_s)
    }

    /// Seconds into a Monday-started week at which the trace begins —
    /// `week_phase_s + (t - start_s)` aligns trace time `t` with
    /// `DiurnalPattern`'s clock.
    pub fn week_phase_s(&self) -> f64 {
        if self.rebased {
            self.week_phase_s
        } else {
            // Numeric traces carry the phase in the timestamps themselves.
            self.start_s()
        }
    }

    /// Whether timestamps were rebased to the trace start (datetime
    /// traces only).
    pub fn rebased(&self) -> bool {
        self.rebased
    }

    /// Share of records carrying an explicit priority.
    pub fn priority_coverage(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.priority.is_some()).count() as f64
            / self.records.len() as f64
    }

    /// Number of malformed rows skipped during ingestion.
    pub fn skipped_rows(&self) -> usize {
        self.skipped
    }

    /// Line-numbered diagnostics for the first few skipped rows.
    pub fn row_errors(&self) -> &[String] {
        &self.row_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polca_cluster::Priority;

    const GOOD: &str = "\
TIMESTAMP,ContextTokens,GeneratedTokens
10.5,2048,256
3.25,512,1024
99.0,4096,128
";

    #[test]
    fn ingests_and_sorts_numeric_rows() {
        let t = IngestedTrace::from_reader(GOOD.as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[0].arrival_s, 3.25);
        assert_eq!(t.records()[2].arrival_s, 99.0);
        assert_eq!(t.skipped_rows(), 0);
        assert!(!t.rebased());
        // Numeric clocks are kept verbatim: phase = first arrival.
        assert_eq!(t.week_phase_s(), 3.25);
        assert_eq!(t.duration_s(), 95.75);
    }

    #[test]
    fn malformed_rows_are_skipped_with_line_numbers() {
        let csv = "\
timestamp_s,context_tokens,generated_tokens,priority
1.0,100,10,low
2.0,zero,10,high
3.0,100,0,low
4.0,100,10,urgent
5.0,100,10,high
";
        let t = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.skipped_rows(), 3);
        assert!(
            t.row_errors()[0].starts_with("line 3:"),
            "{:?}",
            t.row_errors()
        );
        assert!(t.row_errors()[1].contains("out of range"));
        assert!(t.row_errors()[2].contains("urgent"));
        assert_eq!(t.records()[0].priority, Some(Priority::Low));
        assert_eq!(t.priority_coverage(), 1.0);
    }

    #[test]
    fn datetime_traces_rebase_and_keep_week_phase() {
        let csv = "\
TIMESTAMP,ContextTokens,GeneratedTokens
2024-05-10 06:00:00.000000,1024,128
2024-05-10 06:00:01.500000,1024,128
";
        let t = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
        assert!(t.rebased());
        assert_eq!(t.records()[0].arrival_s, 0.0);
        assert!((t.records()[1].arrival_s - 1.5).abs() < 1e-6);
        // 2024-05-10 was a Friday: phase = 4 days + 6 h into the week.
        assert!((t.week_phase_s() - (4.0 * 86_400.0 + 6.0 * 3600.0)).abs() < 1e-3);
    }

    #[test]
    fn mixed_timestamp_kinds_are_row_errors() {
        let csv = "\
TIMESTAMP,ContextTokens,GeneratedTokens
1.0,100,10
2024-05-10 06:00:00,100,10
";
        let t = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.skipped_rows(), 1);
        assert!(t.row_errors()[0].contains("mixed"));
    }

    #[test]
    fn header_only_input_is_no_records() {
        let err =
            IngestedTrace::from_reader("TIMESTAMP,ContextTokens,GeneratedTokens\n".as_bytes())
                .unwrap_err();
        assert!(matches!(err, IngestError::NoRecords));
        let err = IngestedTrace::from_reader("".as_bytes()).unwrap_err();
        assert!(matches!(err, IngestError::EmptyInput));
    }

    #[test]
    fn quoted_fields_and_blank_lines_are_tolerated() {
        let csv = "\
\"TIMESTAMP\",\"ContextTokens\",GeneratedTokens

\"1.0\",100,10
";
        let t = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn short_rows_are_skipped() {
        let csv = "\
TIMESTAMP,ContextTokens,GeneratedTokens
1.0,100
2.0,100,10
";
        let t = IngestedTrace::from_reader(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.row_errors()[0].contains("expected 3 column(s)"));
    }
}
