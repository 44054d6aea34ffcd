//! Observability substrate for the code-compression workspace.
//!
//! The paper's claims are measurement claims — compression ratios,
//! refill cycles, renormalization traffic — so every later performance
//! PR needs a substrate to aim at.  This crate provides one with the
//! same hermetic-build constraints as the rest of the workspace: no
//! external dependencies, deterministic output, and **zero hot-path
//! cost unless asked for**.
//!
//! Two families of types live here, with different gating rules:
//!
//! * **Instrumentation primitives** — [`Counter`], [`Gauge`],
//!   [`Histogram`], [`SpanStat`]/[`SpanGuard`].  These are declared as
//!   `static` handles next to the code they observe (preregistered, so
//!   the hot path never allocates or hashes a name) and are **compiled
//!   out entirely** unless the `obs` cargo feature is enabled: without
//!   it every type is a zero-sized struct and every record method an
//!   empty inline function (see `tests/compiled_out.rs`).
//! * **Result types** — [`HitMiss`].  Simulation outputs (cache hit
//!   counts, CLB statistics) are *results*, not instrumentation, so
//!   they always count regardless of features.
//!
//! Metrics are exported by collecting [`Desc`] descriptors into a
//! [`Snapshot`] and rendering it through [`JsonSink`] for
//! machine-readable artifacts or [`TableSink`] for humans.
//! [`JsonWriter`] is the one JSON writer: `JsonSink` and every other JSON
//! document the workspace emits go through it.
//!
//! # Examples
//!
//! ```
//! use cce_obs::{Counter, Desc, Snapshot, TableSink};
//!
//! static BLOCKS: Counter = Counter::new();
//!
//! BLOCKS.add(3);
//! let descs = [Desc::counter("demo.blocks", "blocks processed", &BLOCKS)];
//! let snapshot = Snapshot::collect(&descs);
//! let table = TableSink::default().render(&snapshot);
//! assert!(table.contains("demo.blocks"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hitmiss;
mod json;
mod metric;
mod registry;
mod span;

pub use export::{JsonSink, TableSink};
pub use hitmiss::HitMiss;
pub use json::{json_string, JsonInt, JsonWriter};
pub use metric::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{Desc, Kind, Sample, SampleValue, Snapshot};
pub use span::{SpanGuard, SpanStat};

/// Whether instrumentation recording is compiled in (the `obs` feature).
///
/// When `false`, every [`Counter`]/[`Gauge`]/[`Histogram`]/[`SpanStat`]
/// is a zero-sized no-op and snapshots read all zeros.
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}
