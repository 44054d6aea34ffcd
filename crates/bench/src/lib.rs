//! The paper's evaluation, regenerated: every measured table of
//! EXPERIMENTS.md ([`experiments`], run by the `experiments` binary) and
//! the SAMC optimizer benchmark ([`optimizer`], run by `bench_optimizer`).
//!
//! The tables share the [`suite`] runner (deterministic parallel
//! measurement over the SPEC95 workload) and the [`reporter`] (aligned
//! figure tables).  Set `CCE_SCALE` (default `1.0`) to shrink or grow
//! the synthetic workload; EXPERIMENTS.md quotes scale 1.0.  Set
//! `CCE_WORKERS` to pin the worker-pool size — output is byte-identical
//! for any value.

pub mod experiments;
pub mod optimizer;
pub mod reporter;
pub mod suite;

pub use reporter::{means, render_table};
pub use suite::{figure_rows, figure_rows_with_workers, FigureRow};

/// Workload scale from `CCE_SCALE`: 1.0 when unset.
///
/// # Errors
///
/// A message naming the value when it is set but is not a finite
/// positive number — a typo must not silently run the full-scale suite.
pub fn scale_from_env() -> Result<f64, String> {
    parse_scale(std::env::var("CCE_SCALE").ok().as_deref())
}

/// Parses a `CCE_SCALE` value (`None` = unset = 1.0).
fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("CCE_SCALE=`{raw}` is not a finite positive number")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_parse_refuses_typos() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.05")), Ok(0.05));
        for bad in ["0.05x", "0", "-2", "inf", "NaN", ""] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
    }
}
