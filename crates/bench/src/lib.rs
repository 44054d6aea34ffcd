//! Shared helpers for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or claim of the
//! DAC'98 paper (see DESIGN.md's experiment index).  They share the
//! [`suite`] runner (deterministic parallel measurement over the SPEC95
//! workload) and the [`reporter`] (aligned tables and JSON).
//!
//! Set `CCE_SCALE` (default `1.0`) to shrink or grow the synthetic
//! workload; the figures are produced at 1.0.  Set `CCE_WORKERS` to pin
//! the worker-pool size — results are byte-identical for any value.

pub mod optimizer;
pub mod reporter;
pub mod suite;

pub use reporter::{means, print_figure, render_json, render_table};
pub use suite::{figure_rows, figure_rows_with_workers, FigureRow};

/// Workload scale from `CCE_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("CCE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s.is_finite() && s > 0.0)
        .unwrap_or(1.0)
}
