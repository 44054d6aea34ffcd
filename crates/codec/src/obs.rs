//! Preregistered metric handles for the parallel measurement pipeline.

use cce_obs::{Counter, Desc, Gauge, Histogram, SpanStat};

/// Work items executed by [`parallel_map`](crate::parallel_map).
pub static PAR_ITEMS: Counter = Counter::new();
/// Pool launches (one per parallel `parallel_map` call).
pub static PAR_RUNS: Counter = Counter::new();
/// High-water mark of items waiting unclaimed when a worker took one.
pub static PAR_QUEUE_DEPTH: Gauge = Gauge::new();
/// Per-item stage latency in microseconds (histogram of work-item cost).
pub static PAR_STAGE_MICROS: Histogram = Histogram::new();
/// Wall-clock time of whole `parallel_map` stages (claim to join).
pub static PAR_STAGE_SPAN: SpanStat = SpanStat::new();

/// Blocks compressed by whole-program compression.
pub static PIPELINE_BLOCKS: Counter = Counter::new();
/// Uncompressed bytes consumed by whole-program compression.
pub static PIPELINE_BYTES: Counter = Counter::new();

/// Descriptors for every metric this crate registers.
pub fn descriptors() -> [Desc; 5] {
    [
        Desc::counter("codec.par.items", "work items executed by the worker pool", &PAR_ITEMS),
        Desc::counter("codec.par.runs", "parallel_map pool launches", &PAR_RUNS),
        Desc::gauge(
            "codec.par.queue_depth",
            "peak unclaimed work items observed at claim time",
            &PAR_QUEUE_DEPTH,
        ),
        Desc::histogram(
            "codec.par.stage_micros",
            "per-item worker latency in microseconds",
            &PAR_STAGE_MICROS,
        ),
        Desc::span("codec.par.stage.span", "wall-clock time of parallel stages", &PAR_STAGE_SPAN),
    ]
}

/// Descriptors for the whole-program compression metrics
/// ([`compress_parallel`](crate::compress_parallel) and
/// [`compress_verified`](crate::compress_verified)).
///
/// Kept separate from [`descriptors`] so the aggregated artifact can
/// append them at the end of the registry without reordering the
/// metrics existing dashboards already index (the artifact order is
/// append-only by policy).
pub fn pipeline_descriptors() -> [Desc; 2] {
    [
        Desc::counter(
            "pipeline.blocks",
            "blocks compressed by whole-program compression",
            &PIPELINE_BLOCKS,
        ),
        Desc::counter(
            "pipeline.bytes",
            "uncompressed bytes consumed by whole-program compression",
            &PIPELINE_BYTES,
        ),
    ]
}
