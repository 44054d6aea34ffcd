//! Machine-readable reporting: a tiny hand-rolled JSON writer shared by
//! the `cce ratio --json` CLI flow and the figure harness's JSON
//! reporter.
//!
//! The workspace builds without external dependencies, so this module
//! provides just enough JSON — finite-checked numbers and a
//! [`Measurement`] renderer, with strings escaped by [`json_string`] —
//! rather than pulling in a serializer.

use crate::obs::json_string;
use crate::Measurement;

/// Renders `value` as a JSON number (`null` when not finite).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        // Enough digits to reconstruct the ratio; trailing zeros trimmed
        // by using the shortest round-trip representation.
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders one [`Measurement`] as a JSON object.
///
/// Fields: `algorithm`, `isa`, `original_len`, `compressed_len`,
/// `ratio`, `random_access`, `block_count` and `lat_bytes` (both `null`
/// for file-oriented algorithms).
pub fn measurement_json(m: &Measurement) -> String {
    let block_count = m.block_sizes().map_or("null".to_string(), |sizes| sizes.len().to_string());
    let lat = m.lat_bytes().map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\"algorithm\":{},\"isa\":{},\"original_len\":{},\"compressed_len\":{},\
         \"ratio\":{},\"random_access\":{},\"block_count\":{},\"lat_bytes\":{}}}",
        json_string(&m.algorithm().to_string()),
        json_string(&m.isa().to_string()),
        m.original_len(),
        m.compressed_len(),
        json_number(m.ratio()),
        m.random_access(),
        block_count,
        lat,
    )
}

/// Renders a list of measurements (one per algorithm) as a JSON array.
pub fn measurements_json(measurements: &[Measurement]) -> String {
    let items: Vec<String> = measurements.iter().map(measurement_json).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, Algorithm};
    use cce_isa::Isa;

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn measurement_renders_expected_fields() {
        let profile = cce_workload::Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&cce_workload::generate_mips(profile, 0.05));
        let m = measure(Algorithm::Samc, Isa::Mips, &text, 32).unwrap();
        let json = measurement_json(&m);
        assert!(json.starts_with("{\"algorithm\":\"SAMC\""), "{json}");
        assert!(json.contains("\"random_access\":true"), "{json}");
        assert!(!json.contains("\"lat_bytes\":null"), "{json}");

        let file = measure(Algorithm::Gzip, Isa::Mips, &text, 32).unwrap();
        let json = measurement_json(&file);
        assert!(json.contains("\"block_count\":null"), "{json}");
        assert!(json.contains("\"lat_bytes\":null"), "{json}");

        let both = measurements_json(&[m, file]);
        assert!(both.starts_with('[') && both.ends_with(']'));
        assert_eq!(both.matches("\"algorithm\"").count(), 2);
    }
}
