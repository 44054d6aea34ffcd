//! Code compression for embedded systems — umbrella crate.
//!
//! This workspace reproduces *Code Compression for Embedded Systems*
//! (Lekatsas & Wolf, DAC 1998): two cache-line-random-access code
//! compressors for the Wolfe/Chanin compressed-code architecture, the
//! baselines they are measured against, and the memory system that runs
//! them.  This crate re-exports every subsystem and adds the measurement
//! harness behind the `experiments` driver:
//!
//! * [`Algorithm`] — the five compressors of the paper's evaluation,
//!   each buildable into a [`codec::BlockCodec`] or [`codec::FileCodec`]
//!   through the [`registry`].
//! * [`measure`] — train, compress, **verify the round trip**, and report
//!   honest sizes (dictionary/model/table overheads included).  One
//!   generic path serves every algorithm; [`measure_with_workers`] fans
//!   block compression across a deterministic worker pool.
//! * [`sweep_images`] — the compressed images of a memory-system sweep.
//! * [`artifact`] — the container side of the serving tier
//!   ([`serve`]): publish, open and the `get-manifest` info record.
//!
//! Suite-wide runs (every SPEC95-like benchmark, fanned across workers)
//! live in `cce-bench` (`figure_rows_with_workers`).
//!
//! Re-exports: [`codec`], [`samc`], [`sadc`], [`huffman`], [`lz`],
//! [`arith`], [`bitstream`], [`isa`], [`elf`], [`workload`], [`memsim`].
//!
//! # Examples
//!
//! ```
//! use cce_core::{measure, Algorithm};
//! use cce_core::isa::Isa;
//! use cce_core::workload::{generate_mips, Spec95};
//! use cce_core::isa::mips::encode_text;
//!
//! # fn main() -> Result<(), cce_core::codec::CodecError> {
//! let profile = Spec95::by_name("compress").expect("known benchmark");
//! let text = encode_text(&generate_mips(profile, 1.0));
//!
//! let m = measure(Algorithm::Samc, Isa::Mips, &text, 32)?;
//! assert!(m.ratio() < 1.0);
//! assert!(m.random_access());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod container;
pub mod fuzz;
pub mod obs;
pub mod registry;
pub mod report;
pub mod stats;
pub mod streaming;

pub use cce_arith as arith;
pub use cce_bitstream as bitstream;
pub use cce_codec as codec;
pub use cce_elf as elf;
pub use cce_huffman as huffman;
pub use cce_isa as isa;
pub use cce_lz as lz;
pub use cce_memsim as memsim;
pub use cce_rans as rans;
pub use cce_sadc as sadc;
pub use cce_samc as samc;
pub use cce_serve as serve;
pub use cce_workload as workload;

pub use registry::{Algorithm, CodecBuilder, CodecHandle};

use cce_codec::CodecError;
use cce_isa::Isa;

/// One verified compression measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    algorithm: Algorithm,
    isa: Isa,
    original_len: usize,
    compressed_len: usize,
    /// Per-block compressed sizes (random-access algorithms only).
    block_sizes: Option<Vec<usize>>,
    /// LAT size in bytes (random-access algorithms only).
    lat_bytes: Option<usize>,
}

impl Measurement {
    /// The measured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The instruction set the text was compiled for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Uncompressed text size in bytes.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Compressed size in bytes, including all model/dictionary/table
    /// overheads the decompressor needs.
    pub fn compressed_len(&self) -> usize {
        self.compressed_len
    }

    /// Compression ratio (compressed / original); lower is better.
    pub fn ratio(&self) -> f64 {
        self.compressed_len as f64 / self.original_len as f64
    }

    /// Per-block compressed sizes, for driving the memory simulator.
    pub fn block_sizes(&self) -> Option<&[usize]> {
        self.block_sizes.as_deref()
    }

    /// LAT size in bytes (`None` for file-oriented algorithms).
    pub fn lat_bytes(&self) -> Option<usize> {
        self.lat_bytes
    }

    /// Whether the measured algorithm is block-random-access.
    pub fn random_access(&self) -> bool {
        self.algorithm.random_access()
    }
}

/// Compresses `text` with `algorithm`, verifies the round trip, and
/// returns the verified measurement.
///
/// `block_size` applies to the random-access algorithms (the paper uses
/// 32 bytes everywhere); the file-oriented baselines ignore it.  Block
/// compression is fanned across [`codec::worker_count`] threads; the
/// result is byte-identical to the serial path.
///
/// # Errors
///
/// Returns [`CodecError::Train`] when the codec cannot be trained on
/// this text, [`CodecError::Corrupt`] when its own output cannot be
/// decoded, and [`CodecError::RoundTrip`] when decompression does not
/// reproduce the input — a codec bug, surfaced rather than reported as
/// a (meaningless) ratio.
pub fn measure(
    algorithm: Algorithm,
    isa: Isa,
    text: &[u8],
    block_size: usize,
) -> Result<Measurement, CodecError> {
    measure_with_workers(algorithm, isa, text, block_size, cce_codec::worker_count())
}

/// [`measure`] with an explicit worker count (1 = fully serial).
///
/// # Errors
///
/// As [`measure`].
pub fn measure_with_workers(
    algorithm: Algorithm,
    isa: Isa,
    text: &[u8],
    block_size: usize,
    workers: usize,
) -> Result<Measurement, CodecError> {
    match algorithm.build(isa, block_size).train(text)? {
        CodecHandle::File(codec) => {
            let compressed = codec.compress(text);
            if codec.decompress(&compressed)? != text {
                return Err(CodecError::round_trip(codec.name()));
            }
            Ok(Measurement {
                algorithm,
                isa,
                original_len: text.len(),
                compressed_len: compressed.len(),
                block_sizes: None,
                lat_bytes: None,
            })
        }
        CodecHandle::Block(codec) => {
            measure_trained_block_codec(algorithm, isa, text, codec.as_ref(), workers)
        }
    }
}

/// Measures an already-trained block codec over `text` — the model-cache
/// path, where training (or a cache hit) happened elsewhere and only
/// compression plus round-trip verification remain.  Every block is
/// verified in its worker ([`cce_codec::compress_verified`]).
///
/// `algorithm`/`isa` label the measurement; the caller is responsible
/// for the codec actually implementing that algorithm.
///
/// # Errors
///
/// As [`measure`], minus the training errors.
pub fn measure_trained_block_codec(
    algorithm: Algorithm,
    isa: Isa,
    text: &[u8],
    codec: &dyn cce_codec::BlockCodec,
    workers: usize,
) -> Result<Measurement, CodecError> {
    let image = cce_codec::compress_verified(codec, text, workers)?;
    let sizes: Vec<usize> = image.block_sizes().collect();
    Ok(Measurement {
        algorithm,
        isa,
        original_len: text.len(),
        compressed_len: image.compressed_len(),
        block_sizes: Some(sizes),
        lat_bytes: Some(image.lat_bytes()),
    })
}

/// Builds the compressed images of a memory-system sweep
/// ([`memsim::sweep`]): one per (algorithm, block size) pair, in that
/// nesting order, each trained on `text`, compressed over `workers`
/// threads ([`codec::compress_parallel`]) and reduced to its line
/// address table.
///
/// # Errors
///
/// A message naming the `algorithm/b<block size>` grid point when an
/// algorithm is file-oriented (a memory system needs random access) or
/// fails to train or compress.
pub fn sweep_images(
    isa: Isa,
    text: &[u8],
    algorithms: &[Algorithm],
    block_sizes: &[usize],
    workers: usize,
) -> Result<Vec<cce_memsim::sweep::SweepImage>, String> {
    let mut images = Vec::with_capacity(algorithms.len() * block_sizes.len());
    for &algorithm in algorithms {
        for &block_size in block_sizes {
            let point = format!("{algorithm}/b{block_size}");
            let handle = algorithm
                .build(isa, block_size)
                .train(text)
                .map_err(|e| format!("{point}: {e}"))?;
            let codec = handle.as_block().ok_or_else(|| format!("{point}: not random-access"))?;
            let image = cce_codec::compress_parallel(codec, text, workers)
                .map_err(|e| format!("{point}: {e}"))?;
            images.push(cce_memsim::sweep::SweepImage {
                codec: algorithm.to_string(),
                block_size,
                lat: std::sync::Arc::new(cce_memsim::LineAddressTable::from_image(&image)),
                compressed_bytes: image.compressed_len() as u64,
                text_bytes: text.len() as u64,
            });
        }
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_isa::mips::encode_text;
    use cce_workload::{generate_mips, generate_x86, Spec95};

    fn mips_text() -> Vec<u8> {
        encode_text(&generate_mips(Spec95::by_name("ijpeg").unwrap(), 0.05))
    }

    fn x86_text() -> Vec<u8> {
        generate_x86(Spec95::by_name("ijpeg").unwrap(), 0.05)
    }

    #[test]
    fn every_algorithm_measures_mips() {
        let text = mips_text();
        for algorithm in Algorithm::ALL {
            let m = measure(algorithm, Isa::Mips, &text, 32)
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            // At this tiny test scale the fixed model/table overheads can
            // exceed the text; only sanity-check here (ratios at realistic
            // sizes are asserted in `paper_ordering_holds_on_mips`).
            assert!(m.ratio() > 0.0 && m.ratio() < 3.0, "{algorithm}: {}", m.ratio());
            assert_eq!(m.original_len(), text.len());
            assert_eq!(m.random_access(), algorithm.random_access());
            assert_eq!(m.block_sizes().is_some(), algorithm.random_access());
            assert_eq!(m.lat_bytes().is_some(), algorithm.random_access());
        }
    }

    #[test]
    fn every_algorithm_measures_x86() {
        let text = x86_text();
        for algorithm in Algorithm::ALL {
            let m = measure(algorithm, Isa::X86, &text, 32)
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert!(m.ratio() > 0.0 && m.ratio() < 3.0, "{algorithm}: {}", m.ratio());
        }
    }

    #[test]
    fn paper_ordering_holds_on_mips() {
        // The headline result: SADC < SAMC ≈ compress, Huffman worst among
        // the instruction-aware schemes, gzip strong.
        let text = encode_text(&generate_mips(Spec95::by_name("perl").unwrap(), 0.2));
        let ratio = |a| measure(a, Isa::Mips, &text, 32).unwrap().ratio();
        let huffman = ratio(Algorithm::ByteHuffman);
        let samc = ratio(Algorithm::Samc);
        let sadc = ratio(Algorithm::Sadc);
        assert!(samc < huffman, "SAMC {samc:.3} should beat byte-Huffman {huffman:.3}");
        assert!(sadc < huffman, "SADC {sadc:.3} should beat byte-Huffman {huffman:.3}");
        assert!(samc < 1.0 && sadc < 1.0 && huffman < 1.0, "all compress at real sizes");
    }

    #[test]
    fn empty_text_fails_cleanly() {
        for algorithm in [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc] {
            assert!(matches!(
                measure(algorithm, Isa::Mips, &[], 32),
                Err(CodecError::Train { .. })
            ));
        }
    }

    #[test]
    fn worker_counts_agree_byte_for_byte() {
        let text = mips_text();
        for algorithm in [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc] {
            let serial = measure_with_workers(algorithm, Isa::Mips, &text, 32, 1).unwrap();
            for workers in [2, 8] {
                let parallel =
                    measure_with_workers(algorithm, Isa::Mips, &text, 32, workers).unwrap();
                assert_eq!(serial, parallel, "{algorithm} with {workers} workers");
            }
        }
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::Samc.to_string(), "SAMC");
        assert_eq!(Algorithm::UnixCompress.to_string(), "compress");
    }
}

#[cfg(test)]
mod trait_assertions {
    //! C-SEND-SYNC: every long-lived public type must be shareable across
    //! threads (the parallel figure harness relies on it).

    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_and_sync() {
        assert_send_sync::<Algorithm>();
        assert_send_sync::<Measurement>();
        assert_send_sync::<CodecBuilder>();
        assert_send_sync::<CodecHandle>();
        assert_send_sync::<Box<dyn cce_codec::BlockCodec>>();
        assert_send_sync::<Box<dyn cce_codec::FileCodec>>();
        assert_send_sync::<cce_codec::BlockImage>();
        assert_send_sync::<cce_samc::SamcCodec>();
        assert_send_sync::<cce_samc::SamcConfig>();
        assert_send_sync::<cce_sadc::MipsSadc>();
        assert_send_sync::<cce_sadc::X86Sadc>();
        assert_send_sync::<cce_huffman::CodeBook>();
        assert_send_sync::<cce_huffman::DecodeTable>();
        assert_send_sync::<cce_huffman::block::ByteBlockCodec>();
        assert_send_sync::<cce_lz::Lzw>();
        assert_send_sync::<cce_lz::Gzip>();
        assert_send_sync::<cce_elf::ElfImage>();
        assert_send_sync::<cce_memsim::MemorySystem>();
        assert_send_sync::<cce_memsim::LineAddressTable>();
        assert_send_sync::<cce_workload::Program>();
        assert_send_sync::<cce_arith::BitEncoder>();
        assert_send_sync::<cce_arith::Prob>();
    }

    #[test]
    fn error_types_implement_error_send_sync() {
        fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<cce_codec::CodecError>();
        assert_error::<cce_huffman::BuildCodeBookError>();
        assert_error::<cce_huffman::DecodeSymbolError>();
        assert_error::<cce_lz::LzwDecodeError>();
        assert_error::<cce_lz::InflateError>();
        assert_error::<cce_elf::ParseElfError>();
        assert_error::<cce_isa::mips::DecodeInstructionError>();
        assert_error::<cce_isa::x86::DecodeLayoutError>();
        assert_error::<cce_bitstream::EndOfStreamError>();
    }
}
