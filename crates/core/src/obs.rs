//! Workspace-wide metric aggregation.
//!
//! Every instrumented crate exposes an ordered `obs::descriptors()`
//! list; this module chains them into the single registry the CLI and
//! the figure harness export from.  The chain order is fixed (codecs in
//! paper order, then infrastructure), so snapshots and the `--metrics`
//! artifact are deterministic and diff cleanly.
//!
//! The naming scheme, the overhead policy, and the full list of
//! registered names live in DESIGN.md §7 — CI checks that every name
//! returned by [`descriptors`] is documented there.

pub use cce_obs::{
    json_string, Desc, HitMiss, JsonSink, Kind, MetricsSink, Sample, SampleValue, Snapshot,
    TableSink,
};

/// Version stamp of the `--metrics` artifact schema.
pub const METRICS_FORMAT_VERSION: u32 = 1;

/// Every metric descriptor registered across the workspace, in a stable
/// order: arith, samc, sadc, huffman, lz, codec, memsim, the streaming
/// pipeline, the serving tier, the rANS backend, then the memsim sweep
/// driver (each new family is appended last so
/// the artifact order of every earlier metric is unchanged — the
/// registry is append-only).
pub fn descriptors() -> Vec<Desc> {
    let mut all = Vec::new();
    all.extend(cce_arith::obs::descriptors());
    all.extend(cce_samc::obs::descriptors());
    all.extend(cce_sadc::obs::descriptors());
    all.extend(cce_huffman::obs::descriptors());
    all.extend(cce_lz::obs::descriptors());
    all.extend(cce_codec::obs::descriptors());
    all.extend(cce_memsim::obs::descriptors());
    all.extend(cce_codec::obs::pipeline_descriptors());
    all.extend(cce_serve::obs::descriptors());
    all.extend(cce_rans::obs::descriptors());
    all.extend(cce_memsim::obs::sweep_descriptors());
    all
}

/// Whether instrumentation is compiled in (the `obs` feature).
///
/// When `false`, every metric handle is a zero-sized no-op and all
/// snapshot values read zero.
pub const fn enabled() -> bool {
    cce_obs::enabled()
}

/// Captures the current value of every workspace metric.
pub fn snapshot() -> Snapshot {
    Snapshot::collect(&descriptors())
}

/// Resets every workspace metric to zero (test isolation; no-op with
/// observability compiled out).
pub fn reset() {
    for desc in descriptors() {
        desc.reset();
    }
}

/// Renders the `--metrics` artifact for a CLI `command`:
///
/// ```json
/// {"version":1,"command":"compress","obs_enabled":true,"metrics":[...]}
/// ```
///
/// The `metrics` array is [`JsonSink`] output — one object per
/// registered metric, in [`descriptors`] order.
pub fn metrics_json(command: &str) -> String {
    let body = JsonSink.render(&snapshot());
    // JsonSink renders `{"metrics":[...]}`; splice our header into it.
    format!(
        "{{\"version\":{METRICS_FORMAT_VERSION},\"command\":{},\"obs_enabled\":{},{}",
        json_string(command),
        enabled(),
        &body[1..],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_dotted() {
        let descs = descriptors();
        assert!(descs.len() >= 30, "expected the full workspace registry, got {}", descs.len());
        let mut seen = HashSet::new();
        for d in &descs {
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(
                d.name.contains('.')
                    && d.name.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "name {} violates the crate.component.event scheme",
                d.name
            );
            assert!(!d.help.is_empty(), "{} has no help text", d.name);
        }
    }

    #[test]
    fn snapshot_covers_every_descriptor() {
        let descs = descriptors();
        let snap = snapshot();
        assert_eq!(snap.samples.len(), descs.len());
        for (d, s) in descs.iter().zip(&snap.samples) {
            assert_eq!(d.name, s.name);
        }
    }

    #[test]
    fn metrics_json_has_header_and_every_name() {
        let json = metrics_json("unit-test");
        assert!(json.starts_with(&format!("{{\"version\":{METRICS_FORMAT_VERSION},")));
        assert!(json.contains("\"command\":\"unit-test\""));
        assert!(json.contains(&format!("\"obs_enabled\":{}", enabled())));
        assert!(json.ends_with("]}"));
        for d in descriptors() {
            assert!(json.contains(d.name), "artifact is missing {}", d.name);
        }
    }

    #[test]
    fn measurement_populates_codec_metrics() {
        // A measurement exercises training, block compression, and the
        // verify-decompress path, so codec metrics must move (when
        // instrumentation is compiled in).
        use cce_isa::mips::encode_text;
        use cce_workload::{generate_mips, Spec95};
        let text = encode_text(&generate_mips(Spec95::by_name("ijpeg").unwrap(), 0.05));
        let before = snapshot();
        crate::measure(crate::Algorithm::Samc, cce_isa::Isa::Mips, &text, 32).unwrap();
        let after = snapshot();
        if enabled() {
            assert_ne!(before, after, "obs is on but a SAMC measurement moved no metric");
            let units =
                after.samples.iter().find(|s| s.name == "samc.compress.units").expect("registered");
            assert!(!units.value.is_zero(), "samc.compress.units still zero");
        } else {
            assert!(after.is_all_zero());
        }
    }
}
