//! Compressed-image serving tier.
//!
//! The paper's premise is that compressed code is *served* at runtime:
//! blocks are fetched and decompressed on demand by the memory system.
//! This crate is the scale-out version of that loop — a published image
//! (the `cce compress` container, byte for byte) plus a digest record,
//! and a long-lived daemon that answers block fetch/decode requests over
//! a small length-prefixed binary protocol:
//!
//! - [`publish()`] / [`verify_dir`] — write and re-verify an image
//!   directory: the image file and a binary [`DigestRecord`] of
//!   SHA-256 digests (in-tree [`sha256`]) over the extents that tile
//!   it, with defensive caps on every length the record declares.
//! - [`Artifact`] — the read side; the first fetch from a run reads
//!   it with one positioned read and checks its SHA-256, and only
//!   verified runs are cached (byte-bounded) for later fetches, so
//!   corruption surfaces as a typed error naming the run, never as
//!   garbage handed to a codec.
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
//! and container-agnostic — it checks byte extents against digests and
//! serves blocks at the offsets it is given.  `cce-core` checks that
//! the extents fall on the container's section and block boundaries,
//! hands over the block table, and defines the `get-manifest` reply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod fault;
pub mod obs;
pub mod proto;
pub mod publish;
pub mod record;
pub mod server;
pub mod sha256;
pub mod store;

pub use client::Client;
pub use error::ServeError;
pub use publish::{
    pack_runs, publish, verify_dir, PublishSummary, VerifySummary, DEFAULT_CHUNK_PAYLOAD,
};
pub use record::DigestRecord;
pub use server::{ServeConfig, Server};
pub use store::{Artifact, BlockEntry};

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
