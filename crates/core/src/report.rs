//! Machine-readable measurements: the `cce ratio --json` document,
//! written through the workspace's one JSON writer ([`JsonWriter`]).

use crate::obs::JsonWriter;
use crate::Measurement;

/// Writes one [`Measurement`] as a JSON object.
///
/// Fields: `algorithm`, `isa`, `original_len`, `compressed_len`,
/// `ratio`, `random_access`, `block_count` and `lat_bytes` (both `null`
/// for file-oriented algorithms).
fn write_measurement(w: &mut JsonWriter, m: &Measurement) {
    w.object(|w| {
        w.key("algorithm").string(&m.algorithm().to_string());
        w.key("isa").string(&m.isa().to_string());
        w.key("original_len").int(m.original_len());
        w.key("compressed_len").int(m.compressed_len());
        w.key("ratio").number(m.ratio());
        w.key("random_access").bool(m.random_access());
        w.key("block_count");
        match m.block_sizes() {
            Some(sizes) => w.int(sizes.len()),
            None => w.null(),
        };
        w.key("lat_bytes");
        match m.lat_bytes() {
            Some(bytes) => w.int(bytes),
            None => w.null(),
        };
    });
}

/// Renders one [`Measurement`] as a JSON object (see [`measurements_json`]).
pub fn measurement_json(m: &Measurement) -> String {
    let mut w = JsonWriter::new();
    write_measurement(&mut w, m);
    w.finish()
}

/// Renders a list of measurements (one per algorithm) as a JSON array.
pub fn measurements_json(measurements: &[Measurement]) -> String {
    let mut w = JsonWriter::new();
    w.array(|w| {
        for m in measurements {
            write_measurement(w, m);
        }
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, Algorithm};
    use cce_isa::Isa;

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
