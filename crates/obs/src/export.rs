//! Snapshot exporters: JSON for machines, aligned tables for humans.

use crate::json::JsonWriter;
use crate::registry::{Sample, SampleValue, Snapshot};

/// JSON exporter: a `{"metrics": [...]}` object with one entry per
/// sample, in registration order.  Output is deterministic — key order
/// is fixed and all values are integers — so artifacts diff cleanly.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonSink;

impl JsonSink {
    /// Writes the `"metrics"` member — one object per sample — into the
    /// object `w` is writing, so a document can carry its own header
    /// members next to it (the CLI's `--metrics` artifact does).
    pub fn write_metrics(&self, w: &mut JsonWriter, snapshot: &Snapshot) {
        w.key("metrics").array(|w| {
            for sample in &snapshot.samples {
                w.object(|w| Self::write_sample(w, sample));
            }
        });
    }

    /// Writes one sample's members.
    fn write_sample(w: &mut JsonWriter, sample: &Sample) {
        let kind = match sample.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram { .. } => "histogram",
            SampleValue::Span { .. } => "span",
        };
        w.key("name").string(sample.name).key("kind").string(kind);
        w.key("help").string(sample.help);
        match sample.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                w.key("value").int(v);
            }
            SampleValue::Histogram { count, sum, buckets } => {
                w.key("count").int(count).key("sum").int(sum).key("buckets").ints(buckets);
            }
            SampleValue::Span { count, total_nanos, max_nanos } => {
                w.key("count").int(count).key("total_nanos").int(total_nanos);
                w.key("max_nanos").int(max_nanos);
            }
        }
    }
}

/// Human-readable exporter: one aligned `name  value  help` row per
/// sample.  Span rows show count/mean/max; histogram rows count/sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableSink {
    /// Skip samples whose value is all zeros.
    pub skip_zero: bool,
}

impl TableSink {
    /// Compact value column for one sample.
    fn value_cell(value: &SampleValue) -> String {
        match *value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => v.to_string(),
            SampleValue::Histogram { count, sum, .. } => {
                format!("count={count} sum={sum}")
            }
            SampleValue::Span { count, total_nanos, max_nanos } => {
                let mean = total_nanos.checked_div(count).unwrap_or(0);
                format!("count={count} mean={}us max={}us", mean / 1_000, max_nanos / 1_000)
            }
        }
    }

    /// Renders `snapshot` as the aligned table, header row first.
    pub fn render(&self, snapshot: &Snapshot) -> String {
        let rows: Vec<(&str, String, &str)> = snapshot
            .samples
            .iter()
            .filter(|s| !(self.skip_zero && s.value.is_zero()))
            .map(|s| (s.name, Self::value_cell(&s.value), s.help))
            .collect();
        if rows.is_empty() {
            return String::from("(no metrics recorded)\n");
        }
        let name_width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max(6);
        let value_width = rows.iter().map(|r| r.1.len()).max().unwrap_or(0).max(5);
        let mut out = format!("{:<name_width$}  {:<value_width$}  help\n", "metric", "value");
        for (name, value, help) in rows {
            out.push_str(&format!("{name:<name_width$}  {value:<value_width$}  {help}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Counter, Histogram};
    use crate::span::SpanStat;
    use crate::Desc;

    /// One set of metrics per test: tests run in parallel, and a shared
    /// set would let one test's reset race another's snapshot.
    struct Metrics {
        hits: Counter,
        sizes: Histogram,
        span: SpanStat,
    }

    impl Metrics {
        const fn new() -> Self {
            Self { hits: Counter::new(), sizes: Histogram::new(), span: SpanStat::new() }
        }

        fn snapshot(&'static self) -> Snapshot {
            self.hits.add(4);
            self.sizes.record(3);
            self.span.record_nanos(2_000_000);
            Snapshot::collect(&[
                Desc::counter("t.hits", "hits seen", &self.hits),
                Desc::histogram("t.sizes", "block sizes", &self.sizes),
                Desc::span("t.span", "time spent", &self.span),
            ])
        }
    }

    #[test]
    fn json_is_valid_and_ordered() {
        static METRICS: Metrics = Metrics::new();
        let mut w = JsonWriter::new();
        w.object(|w| JsonSink.write_metrics(w, &METRICS.snapshot()));
        let json = w.finish();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.ends_with("]}"));
        let hits = json.find("t.hits").unwrap();
        let sizes = json.find("t.sizes").unwrap();
        let span = json.find("t.span").unwrap();
        assert!(hits < sizes && sizes < span);
        if crate::enabled() {
            assert!(json.contains("\"value\":4"));
            assert!(json.contains("\"total_nanos\":2000000"));
        } else {
            assert!(json.contains("\"value\":0"));
        }
    }

    #[test]
    fn table_aligns_and_skips_zero() {
        static METRICS: Metrics = Metrics::new();
        let snap = METRICS.snapshot();
        let table = TableSink::default().render(&snap);
        assert!(table.contains("t.hits"));
        assert!(table.starts_with("metric"));
        let skipping = TableSink { skip_zero: true }.render(&snap);
        if crate::enabled() {
            assert!(skipping.contains("t.hits"));
            assert!(skipping.contains("mean=2000us"));
        } else {
            assert_eq!(skipping, "(no metrics recorded)\n");
        }
    }
}
