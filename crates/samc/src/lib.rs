//! SAMC — Semiadaptive Markov Compression (Lekatsas & Wolf, DAC 1998, §3).
//!
//! SAMC is an ISA-independent code compressor for the Wolfe/Chanin
//! compressed-code architecture.  It assumes only fixed-size instructions:
//!
//! 1. Instructions are cut into *streams* of bits ([`StreamDivision`]) —
//!    the paper finds four 8-bit streams near-optimal for 32-bit MIPS, and
//!    a single 8-bit stream over raw bytes is the x86 fallback.
//! 2. A first pass over the whole program trains one binary **Markov tree**
//!    per stream ([`MarkovModel`]): each tree node holds P(next bit = 0)
//!    given the bits of the stream seen so far.  Trees of adjacent streams
//!    can be *connected* (Fig. 4), conditioning each stream's root on the
//!    previous stream's last bit.
//! 3. A second pass drives a binary arithmetic coder with those
//!    probabilities, **restarting the coder and the model at every cache
//!    block boundary** so any block decompresses independently — the
//!    property file-oriented compressors lack.
//!
//! The result (a generic [`cce_codec::BlockImage`]) carries the compressed
//! blocks, the serialized model size, and a line-address table, so
//! compression ratios include all real storage costs.  [`SamcCodec`]
//! compresses, decodes and serializes through [`cce_codec::BlockCodec`],
//! the workspace-wide codec trait.
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_samc::{SamcCodec, SamcConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy "program" of 32-bit words with strongly-biased fields (large
//! // enough to amortize the stored Markov tables, as real programs are).
//! let text: Vec<u8> = (0..8192u32).flat_map(|i| (i % 7 << 2).to_be_bytes()).collect();
//! let codec = SamcCodec::train(&text, SamcConfig::mips())?;
//! let image = codec.compress(&text)?;
//! assert!(image.ratio() < 1.0);
//! assert_eq!(codec.decompress(&image)?, text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod model;
pub mod obs;
mod optimize;
mod serialize;
pub mod store;
mod streams;

pub use codec::{SamcCodec, SamcConfig};
pub use model::{MarkovConfig, MarkovModel};
pub use optimize::{
    optimize_division, optimize_division_reference, optimize_division_with_workers, OptimizeConfig,
};
pub use streams::{BuildDivisionError, StreamDivision};
