//! Preregistered metric handles for the serving tier.
//!
//! Names follow the workspace `crate.component.event` scheme and are
//! documented in DESIGN.md §7 (a `cce-core` test checks the table).
//! The aggregated registry appends these *after* every existing family,
//! and [`chunk_descriptors`] after every later one — the artifact order
//! is append-only by policy.

use cce_obs::{Counter, Desc, Histogram};

/// Requests answered by the daemon (ok and error responses alike).
pub static SERVE_REQUESTS: Counter = Counter::new();
/// Error responses among the answered requests.
pub static SERVE_ERRORS: Counter = Counter::new();
/// Connections served by the daemon (one refused at the cap counts as
/// an error response instead).
pub static SERVE_CONNECTIONS: Counter = Counter::new();
/// Per-request latency in microseconds (frame read to response written).
pub static SERVE_LATENCY_MICROS: Histogram = Histogram::new();
/// Decoded-block LRU cache hits.
pub static SERVE_CACHE_HITS: Counter = Counter::new();
/// Decoded-block LRU cache misses.
pub static SERVE_CACHE_MISSES: Counter = Counter::new();

/// Runs read from the image and verified by an artifact.
pub static SERVE_CHUNK_LOADS: Counter = Counter::new();
/// Block reads served from an artifact's verified-chunk cache.
pub static SERVE_CHUNK_HITS: Counter = Counter::new();

/// Descriptors for the daemon's request and decoded-block metrics.
pub fn descriptors() -> [Desc; 6] {
    [
        Desc::counter("serve.requests", "requests answered by the serving daemon", &SERVE_REQUESTS),
        Desc::counter("serve.errors", "typed error responses sent by the daemon", &SERVE_ERRORS),
        Desc::counter("serve.connections", "connections served by the daemon", &SERVE_CONNECTIONS),
        Desc::histogram(
            "serve.latency_micros",
            "per-request latency in microseconds",
            &SERVE_LATENCY_MICROS,
        ),
        Desc::counter("serve.cache.hits", "decoded-block cache hits", &SERVE_CACHE_HITS),
        Desc::counter("serve.cache.misses", "decoded-block cache misses", &SERVE_CACHE_MISSES),
    ]
}

/// Descriptors for the verified-chunk cache, a family registered after
/// the sweep metrics.
pub fn chunk_descriptors() -> [Desc; 2] {
    [
        Desc::counter(
            "serve.chunk.loads",
            "runs read from the image and verified",
            &SERVE_CHUNK_LOADS,
        ),
        Desc::counter(
            "serve.chunk.hits",
            "block reads served from a verified-chunk cache",
            &SERVE_CHUNK_HITS,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_names_follow_the_scheme() {
        for d in descriptors().into_iter().chain(chunk_descriptors()) {
            assert!(d.name.starts_with("serve."), "{}", d.name);
            assert!(
                d.name.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{}",
                d.name
            );
            assert!(!d.help.is_empty());
        }
    }
}
