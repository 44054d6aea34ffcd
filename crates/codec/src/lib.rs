//! Workspace-wide codec abstraction for the code-compression experiments.
//!
//! The paper evaluates five algorithms through one experiment shape:
//! train a codec on a program, compress it block by block, verify the
//! round trip, and report honest sizes including model and line-address-
//! table overhead. This crate captures that shape once:
//!
//! - [`BlockCodec`] — the random-access compressors (SAMC, SADC,
//!   block-Huffman): per-block primitives plus provided whole-program
//!   `compress`/`decompress` producing a generic [`BlockImage`].
//! - [`FileCodec`] — the non-random-access baselines (`compress`, gzip).
//! - [`CodecError`] — the single error type all of them surface, with
//!   `Train`/`Corrupt`/`Unsupported`/`RoundTrip` classes.
//! - [`parallel_map`] / [`compress_parallel`] / [`compress_verified`] —
//!   a deterministic scoped worker pool (no external dependencies) and
//!   the one whole-program compression path built on it: an ordered map
//!   over the codec's block ranges, byte-identical to the serial path at
//!   any worker count, optionally round-tripping every block in its
//!   worker.
//!
//! # Examples
//!
//! ```
//! use cce_codec::{BlockCodec, BlockImage, CodecError};
//!
//! struct Verbatim;
//!
//! impl BlockCodec for Verbatim {
//!     fn name(&self) -> &'static str {
//!         "verbatim"
//!     }
//!     fn block_size(&self) -> usize {
//!         32
//!     }
//!     fn model_bytes(&self) -> usize {
//!         0
//!     }
//!     fn to_bytes(&self) -> Vec<u8> {
//!         Vec::new()
//!     }
//!     fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
//!         Ok(chunk.to_vec())
//!     }
//!     fn decompress_block(&self, block: &[u8], _out_len: usize) -> Result<Vec<u8>, CodecError> {
//!         Ok(block.to_vec())
//!     }
//! }
//!
//! let codec = Verbatim;
//! let image: BlockImage = codec.compress(b"some program text")?;
//! assert_eq!(codec.decompress(&image)?, b"some program text");
//! # Ok::<(), CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod image;
pub mod obs;
mod par;
mod traits;

pub use error::CodecError;
pub use image::BlockImage;
pub use par::{compress_parallel, compress_verified, parallel_map, worker_count};
pub use traits::{BlockCodec, FileCodec};
