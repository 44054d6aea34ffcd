//! Table rendering for figure rows.
//!
//! [`render_table`] produces the aligned-text layout of Figures 7 and 8
//! (the parallel-equivalence tests compare these strings byte for byte).

use crate::FigureRow;
use cce_core::Algorithm;
use std::fmt::Write as _;

/// Renders a figure as an aligned table with a trailing mean row.
pub fn render_table(title: &str, algorithms: &[Algorithm], rows: &[FigureRow]) -> String {
    let mut out = format!("{title}\n{:<10}", "benchmark");
    for a in algorithms {
        write!(out, " {:>9}", a.to_string()).expect("string write");
    }
    let mean = FigureRow { benchmark: "MEAN", ratios: means(rows) };
    for row in rows.iter().chain([&mean]) {
        write!(out, "\n{:<10}", row.benchmark).expect("string write");
        for r in &row.ratios {
            write!(out, " {r:>9.3}").expect("string write");
        }
    }
    out.push('\n');
    out
}

/// Mean ratio per algorithm across rows.
pub fn means(rows: &[FigureRow]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    let n = rows[0].ratios.len();
    let mut sums = vec![0.0f64; n];
    for row in rows {
        for (i, r) in row.ratios.iter().enumerate() {
            sums[i] += r;
        }
    }
    sums.iter().map(|s| s / rows.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<FigureRow> {
        vec![
            FigureRow { benchmark: "a", ratios: vec![0.5, 0.7] },
            FigureRow { benchmark: "b", ratios: vec![0.3, 0.5] },
        ]
    }

    #[test]
    fn rows_and_means() {
        assert_eq!(means(&sample_rows()), vec![0.4, 0.6]);
    }

    #[test]
    fn table_layout_is_stable() {
        let table = render_table("test", &[Algorithm::Samc, Algorithm::Sadc], &sample_rows());
        let expected = "test\n\
                        benchmark       SAMC      SADC\n\
                        a              0.500     0.700\n\
                        b              0.300     0.500\n\
                        MEAN           0.400     0.600\n";
        assert_eq!(table, expected);
    }
}
