//! Table and JSON rendering for figure rows.
//!
//! [`render_table`] produces exactly the aligned-text layout the figure
//! binaries have always printed (the parallel-equivalence tests compare
//! these strings byte for byte); [`render_json`] produces the
//! machine-readable form using the JSON helpers in `cce_core::report`
//! and `cce_core::obs`.

use crate::FigureRow;
use cce_core::obs::json_string;
use cce_core::report::json_number;
use cce_core::Algorithm;
use std::fmt::Write as _;

/// Renders a figure as an aligned table with a trailing mean row.
pub fn render_table(title: &str, algorithms: &[Algorithm], rows: &[FigureRow]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").expect("string write");
    write!(out, "{:<10}", "benchmark").expect("string write");
    for a in algorithms {
        write!(out, " {:>9}", a.to_string()).expect("string write");
    }
    writeln!(out).expect("string write");
    let mut sums = vec![0.0f64; algorithms.len()];
    for row in rows {
        write!(out, "{:<10}", row.benchmark).expect("string write");
        for (i, r) in row.ratios.iter().enumerate() {
            write!(out, " {r:>9.3}").expect("string write");
            sums[i] += r;
        }
        writeln!(out).expect("string write");
    }
    write!(out, "{:<10}", "MEAN").expect("string write");
    for s in &sums {
        write!(out, " {:>9.3}", s / rows.len() as f64).expect("string write");
    }
    writeln!(out).expect("string write");
    out
}

/// Prints [`render_table`] to stdout.
pub fn print_figure(title: &str, algorithms: &[Algorithm], rows: &[FigureRow]) {
    print!("{}", render_table(title, algorithms, rows));
}

/// Renders a figure as a JSON object:
/// `{"title", "algorithms", "rows": [{"benchmark", "ratios"}], "means"}`.
pub fn render_json(title: &str, algorithms: &[Algorithm], rows: &[FigureRow]) -> String {
    let algorithm_names: Vec<String> =
        algorithms.iter().map(|a| json_string(&a.to_string())).collect();
    let row_objects: Vec<String> = rows
        .iter()
        .map(|row| {
            let ratios: Vec<String> = row.ratios.iter().map(|&r| json_number(r)).collect();
            format!(
                "{{\"benchmark\":{},\"ratios\":[{}]}}",
                json_string(row.benchmark),
                ratios.join(",")
            )
        })
        .collect();
    let mean_values: Vec<String> = means(rows).iter().map(|&m| json_number(m)).collect();
    format!(
        "{{\"title\":{},\"algorithms\":[{}],\"rows\":[{}],\"means\":[{}]}}",
        json_string(title),
        algorithm_names.join(","),
        row_objects.join(","),
        mean_values.join(",")
    )
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

    #[test]
    fn json_shape_is_complete() {
        let json = render_json("test", &[Algorithm::Samc, Algorithm::Sadc], &sample_rows());
        for needle in [
            "\"title\":\"test\"",
            "\"algorithms\":[\"SAMC\",\"SADC\"]",
            "\"benchmark\":\"a\"",
            "\"ratios\":[0.5,0.7]",
            "\"means\":[0.4",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
