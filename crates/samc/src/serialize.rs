//! On-disk format for trained SAMC codecs.
//!
//! A compressed-code build flow produces two artifacts: the *model* the
//! decompression hardware must hold (stream division + Markov tables) and
//! the *image* written to main memory (compressed blocks + LAT).  This
//! module serializes the model, packing probabilities at exactly the bit
//! widths [`MarkovModel::model_bytes`] charges for (12-bit exact, 4-bit
//! power-of-two), so the reported ratios correspond to real bytes.  The
//! image's blocks go to disk in the `.cce` container (`cce_core::container`),
//! next to these model bytes.
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_samc::{SamcCodec, SamcConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text: Vec<u8> = (0..4096u32).flat_map(|i| ((i % 9) << 3).to_be_bytes()).collect();
//! let codec = SamcCodec::train(&text, SamcConfig::mips())?;
//! let image = codec.compress(&text)?;
//!
//! // The decompressor side holds only the serialized model.
//! let codec2 = SamcCodec::from_bytes(&codec.to_bytes())?;
//! assert_eq!(codec2.decompress(&image)?, text);
//! # Ok(())
//! # }
//! ```

use crate::codec::{SamcCodec, SamcConfig};
use crate::model::{MarkovConfig, MarkovModel};
use crate::streams::StreamDivision;
use cce_arith::{Prob, ProbMode};
use cce_bitstream::{BitReader, BitWriter};
use cce_codec::CodecError;

const CODEC_MAGIC: u32 = u32::from_be_bytes(*b"SAMC");
const VERSION: u16 = 1;
const NAME: &str = "SAMC";

fn corrupt(what: &'static str) -> CodecError {
    CodecError::corrupt(NAME, what)
}

/// Serializes a trained codec (configuration + Markov tables): the body
/// of its `BlockCodec::to_bytes`.
pub(crate) fn write_codec(codec: &SamcCodec) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(CODEC_MAGIC, 32);
    w.write_bits(u32::from(VERSION), 16);
    let config = codec.config();
    w.write_bits(config.block_size as u32, 32);
    let division = &config.division;
    w.write_bits(u32::from(division.width()), 8);
    w.write_bits(division.stream_count() as u32, 8);
    for s in 0..division.stream_count() {
        let bits = division.stream_bits(s);
        w.write_bits(bits.len() as u32, 8);
        for &b in bits {
            w.write_bits(u32::from(b), 8);
        }
    }
    w.write_bits(u32::from(config.markov.context_bits), 2);
    w.write_bit(config.markov.prob_mode == ProbMode::Pow2);
    w.align_to_byte();

    // Markov tables, packed at the charged widths.
    let model = codec.model();
    let contexts = config.markov.contexts();
    for s in 0..division.stream_count() {
        for ctx in 0..contexts {
            for &p in &model.tree(s, ctx)[1..] {
                match config.markov.prob_mode {
                    ProbMode::Exact => w.write_bits(p.raw(), 12),
                    ProbMode::Pow2 => w.write_bits(pow2_nibble(p), 4),
                }
            }
        }
    }
    w.align_to_byte();
    w.into_bytes()
}

impl SamcCodec {
    /// Deserializes a codec written by [`BlockCodec::to_bytes`][to_bytes].
    ///
    /// [to_bytes]: cce_codec::BlockCodec::to_bytes
    ///
    /// Every field is validated before use, so arbitrary (corrupt or
    /// hostile) input yields [`CodecError::Corrupt`], never a panic.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on bad magic, unsupported version,
    /// truncation, or structurally inconsistent fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let named = |e: cce_bitstream::EndOfStreamError| CodecError::from(e).named(NAME);
        let mut r = BitReader::new(bytes);
        let magic = r.read_bits(32).map_err(named)?;
        if magic != CODEC_MAGIC {
            return Err(corrupt("bad magic number"));
        }
        let version = r.read_bits(16).map_err(named)? as u16;
        if version != VERSION {
            return Err(corrupt("unsupported format version"));
        }
        let block_size = r.read_bits(32).map_err(named)? as usize;
        let width = r.read_bits(8).map_err(named)? as u8;
        // `StreamDivision::new` asserts on out-of-range widths and the
        // trainer requires byte framing, so reject both up front rather
        // than aborting on crafted input.
        if width == 0 || width > 32 || !width.is_multiple_of(8) {
            return Err(corrupt("stream width"));
        }
        let unit = usize::from(width) / 8;
        // The upper cap (1 MiB, far above any cache block) bounds how much
        // output a tampered block size can demand from the zero-filling
        // arithmetic decoder downstream.
        if block_size == 0 || block_size > (1 << 20) || !block_size.is_multiple_of(unit) {
            return Err(corrupt("block size"));
        }
        let stream_count = r.read_bits(8).map_err(named)? as usize;
        if stream_count == 0 || stream_count > 32 {
            return Err(corrupt("stream count"));
        }
        let mut streams = Vec::with_capacity(stream_count);
        for _ in 0..stream_count {
            let n = r.read_bits(8).map_err(named)? as usize;
            let mut bits = Vec::with_capacity(n);
            for _ in 0..n {
                bits.push(r.read_bits(8).map_err(named)? as u8);
            }
            streams.push(bits);
        }
        let division =
            StreamDivision::new(streams, width).map_err(|_| corrupt("stream division"))?;
        let context_bits = r.read_bits(2).map_err(named)? as u8;
        let prob_mode = if r.read_bit().map_err(named)? { ProbMode::Pow2 } else { ProbMode::Exact };
        r.align_to_byte();

        let markov = MarkovConfig { context_bits, prob_mode };
        let model = MarkovModel::from_parts(division.clone(), markov, || match prob_mode {
            ProbMode::Exact => r.read_bits(12).map(Prob::from_raw),
            ProbMode::Pow2 => r.read_bits(4).map(|nibble| nibble_pow2(nibble as u8)),
        })
        .map_err(named)?;
        let config = SamcConfig { block_size, division, markov };
        Ok(SamcCodec::from_parts(config, model))
    }
}

/// Packs a power-of-two probability into 4 bits: bit 3 = "one is the
/// minor symbol", bits 0..3 = exponent k−1 (minor probability 2^-k,
/// `k ∈ 1..=8` by [`Prob::to_pow2`]'s clamp).
fn pow2_nibble(p: Prob) -> u32 {
    let raw = p.raw();
    let one = 1u32 << 12;
    let (minor, one_minor) = if raw <= one / 2 { (raw, false) } else { (one - raw, true) };
    debug_assert!(minor.is_power_of_two());
    let k = 12 - minor.trailing_zeros();
    debug_assert!((1..=8).contains(&k), "exponent {k} outside the 4-bit format");
    (u32::from(one_minor) << 3) | (k - 1)
}

/// Inverse of [`pow2_nibble`].
fn nibble_pow2(nibble: u8) -> Prob {
    let one_minor = nibble & 0x8 != 0;
    let k = u32::from(nibble & 0x7) + 1;
    let minor = (1u32 << 12) >> k;
    Prob::from_raw(if one_minor { (1 << 12) - minor } else { minor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_codec::BlockCodec;

    fn training_text() -> Vec<u8> {
        (0..2048u32).flat_map(|i| ((i % 11) << 2 | 0x8000_0000).to_be_bytes()).collect()
    }

    #[test]
    fn codec_round_trips_exact_mode() {
        let text = training_text();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let bytes = codec.to_bytes();
        let restored = SamcCodec::from_bytes(&bytes).unwrap();
        // The restored codec must produce byte-identical compression.
        let a = codec.compress(&text).unwrap();
        let b = restored.compress(&text).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.decompress(&a).unwrap(), text);
    }

    #[test]
    fn codec_round_trips_pow2_mode() {
        let text = training_text();
        let config = SamcConfig {
            markov: MarkovConfig { context_bits: 1, prob_mode: ProbMode::Pow2 },
            ..SamcConfig::mips()
        };
        let codec = SamcCodec::train(&text, config).unwrap();
        let restored = SamcCodec::from_bytes(&codec.to_bytes()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(restored.compress(&text).unwrap(), image);
        assert_eq!(restored.decompress(&image).unwrap(), text);
    }

    #[test]
    fn serialized_model_size_matches_accounting() {
        // The format's model section must cost exactly what
        // `model_bytes()` claims (plus the fixed header).
        let text = training_text();
        for prob_mode in [ProbMode::Exact, ProbMode::Pow2] {
            let config = SamcConfig {
                markov: MarkovConfig { context_bits: 1, prob_mode },
                ..SamcConfig::mips()
            };
            let codec = SamcCodec::train(&text, config).unwrap();
            let bytes = codec.to_bytes();
            let division = &codec.config().division;
            let header = 4
                + 2
                + 4
                + 1
                + 1
                + (0..division.stream_count())
                    .map(|s| 1 + division.stream_bits(s).len())
                    .sum::<usize>()
                + 1; // flags byte (aligned)
            let model = codec.model().model_bytes();
            assert!(
                bytes.len() <= header + model + 1,
                "{prob_mode:?}: serialized {} vs header {header} + model {model}",
                bytes.len()
            );
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        assert!(matches!(
            SamcCodec::from_bytes(b"NOPE1234"),
            Err(CodecError::Corrupt { codec: "SAMC", .. })
        ));
        let text = training_text();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        // A compressed block is not a codec.
        let image = codec.compress(&text).unwrap();
        assert!(matches!(
            SamcCodec::from_bytes(image.block(0)),
            Err(CodecError::Corrupt { codec: "SAMC", .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = training_text();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let bytes = codec.to_bytes();
        for cut in 0..bytes.len().min(64) {
            assert!(SamcCodec::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(SamcCodec::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_fields_fail_cleanly_not_by_panic() {
        let text = training_text();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let bytes = codec.to_bytes();
        // Byte 10 is the stream width; 0, 33 and 255 previously hit the
        // `StreamDivision::new` assertion and aborted.
        for bad_width in [0u8, 5, 33, 255] {
            let mut bad = bytes.clone();
            bad[10] = bad_width;
            assert!(matches!(
                SamcCodec::from_bytes(&bad),
                Err(CodecError::Corrupt { codec: "SAMC", .. })
            ));
        }
        // Bytes 6..10 are the block size; zero is not usable.
        let mut bad = bytes.clone();
        bad[6..10].copy_from_slice(&0u32.to_be_bytes());
        assert!(SamcCodec::from_bytes(&bad).is_err());
        // Every single-byte corruption must at worst error, never abort.
        for i in 0..bytes.len().min(128) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let _ = SamcCodec::from_bytes(&bad);
        }
    }

    #[test]
    fn pow2_nibble_is_invertible() {
        for raw in 1u32..(1 << 12) {
            let p = Prob::from_raw(raw).to_pow2();
            assert_eq!(nibble_pow2(pow2_nibble(p) as u8), p, "raw {raw}");
        }
    }
}
