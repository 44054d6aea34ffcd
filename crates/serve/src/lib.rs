//! Chunked compressed-artifact serving tier.
//!
//! The paper's premise is that compressed code is *served* at runtime:
//! blocks are fetched and decompressed on demand by the memory system.
//! This crate is the scale-out version of that loop — a published v2
//! container becomes a content-addressed artifact directory, and a
//! long-lived daemon answers block fetch/decode requests over a small
//! length-prefixed binary protocol:
//!
//! - [`Publisher`] / [`verify_dir`] — write and re-verify an artifact
//!   directory: fixed-width chunk files named by index, a versioned
//!   JSON [`Manifest`] with per-chunk SHA-256 digests (in-tree
//!   [`sha256`]), and defensive caps on every length a peer declares.
//! - [`Artifact`] — the read side; the first fetch from a chunk reads
//!   it and checks its SHA-256, and only verified chunks are cached
//!   (byte-bounded) for later fetches, so corruption surfaces as a
//!   typed error naming the chunk, never as garbage handed to a codec.
//! - [`Server`] / [`Client`] — the daemon and its reference client:
//!   one thread per connection (capped, answering `Busy` beyond the
//!   cap) that answers every request itself, hits and misses alike,
//!   from a lock-striped decoded-block LRU whose concurrent misses on
//!   one block decode it once, and `serve.*` metrics.
//! - [`fault`] — `FaultReader`/`FaultStream`/`duplex`, the fault
//!   injection the resilience tests are built on.
//!
//! The crate depends only on `cce-codec` and `cce-obs`: it is
//! codec-generic (any [`BlockCodec`](cce_codec::BlockCodec) serves)
//! and knows nothing about containers — `cce-core` provides the
//! container→manifest bridge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod fault;
pub mod json;
pub mod manifest;
pub mod obs;
pub mod proto;
pub mod publish;
pub mod server;
pub mod sha256;
pub mod store;

pub use client::Client;
pub use error::ServeError;
pub use manifest::{Manifest, SCHEMA};
pub use publish::{
    read_manifest, verify_dir, ArtifactMeta, PublishSummary, Publisher, VerifySummary,
    DEFAULT_CHUNK_PAYLOAD,
};
pub use server::{ServeConfig, Server};
pub use store::Artifact;

#[cfg(test)]
mod trait_assertions {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn server_and_artifact_cross_threads() {
        assert_send_sync::<Server>();
        assert_send_sync::<Artifact>();
        assert_send_sync::<ServeError>();
    }
}
