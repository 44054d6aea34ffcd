//! The SAMC block codec.

use crate::model::{MarkovConfig, MarkovModel};
use crate::streams::StreamDivision;
use cce_arith::nibble::{EngineStats, NibbleDecoder, NibbleProbTree};
use cce_arith::{BitDecoder, BitEncoder, Prob};
use cce_codec::{BlockCodec, CodecError};

/// Display name used in errors and tables.
const NAME: &str = "SAMC";

/// SAMC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SamcConfig {
    /// Cache block size in bytes (the unit of independent decompression).
    pub block_size: usize,
    /// How instruction bits are divided into streams.
    pub division: StreamDivision,
    /// Markov model options.
    pub markov: MarkovConfig,
}

impl SamcConfig {
    /// The paper's MIPS setup: 32-byte blocks, four 8-bit streams over
    /// 32-bit instructions, connected trees.
    pub fn mips() -> Self {
        Self {
            block_size: 32,
            division: StreamDivision::bytes(32),
            markov: MarkovConfig::default(),
        }
    }

    /// The paper's x86 fallback: no stream subdivision is possible for
    /// variable-length instructions, so SAMC models the raw byte stream
    /// (one 8-bit "instruction" per byte, connected across bytes).
    pub fn x86() -> Self {
        Self { block_size: 32, division: StreamDivision::bytes(8), markov: MarkovConfig::default() }
    }

    /// Replaces the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Replaces the stream division.
    pub fn with_division(mut self, division: StreamDivision) -> Self {
        self.division = division;
        self
    }

    /// Bytes per instruction unit.
    pub fn unit_bytes(&self) -> usize {
        usize::from(self.division.width()) / 8
    }

    /// Instruction units per cache block.
    pub fn block_units(&self) -> usize {
        self.block_size / self.unit_bytes()
    }
}

/// The trained SAMC compressor/decompressor pair.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct SamcCodec {
    config: SamcConfig,
    model: MarkovModel,
}

impl SamcCodec {
    /// Reassembles a codec from serialized parts (crate-internal).
    pub(crate) fn from_parts(config: SamcConfig, model: MarkovModel) -> Self {
        Self { config, model }
    }

    /// Pass 1 of the paper's scheme: gathers Markov statistics over the
    /// whole program.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for an empty text, a text or block
    /// size misaligned with the instruction unit, or a stream width that
    /// is not byte-framed.
    pub fn train(text: &[u8], config: SamcConfig) -> Result<Self, CodecError> {
        let units = training_units(text, &config)?;
        Ok(Self::train_units(&units, config))
    }

    /// Trains with an optimized stream division instead of `config`'s:
    /// runs the [`crate::optimize_division_with_workers`] search over the
    /// framed text (honoring `optimize.warm_start`), replaces the
    /// division, and trains as [`SamcCodec::train`] does.
    ///
    /// Returns the codec and the search's evaluated code length in bits
    /// (over the search sample).  `optimize.block_units` is overridden
    /// with `config`'s so the search optimizes exactly what the codec
    /// will pay.
    ///
    /// # Errors
    ///
    /// [`CodecError::Train`] for any input [`SamcCodec::train`] rejects,
    /// or a stream count that does not divide the instruction width.
    pub fn train_optimized(
        text: &[u8],
        config: SamcConfig,
        optimize: &crate::OptimizeConfig,
    ) -> Result<(Self, f64), CodecError> {
        let width = config.division.width();
        // `train`'s checks come first so the optimizer's panics (empty
        // units, stream mismatch) become typed errors here.
        let units = training_units(text, &config)?;
        if optimize.streams == 0 || !usize::from(width).is_multiple_of(optimize.streams) {
            return Err(CodecError::train(
                NAME,
                format!("{} streams do not divide the {width}-bit width", optimize.streams),
            ));
        }
        let optimize = crate::OptimizeConfig {
            block_units: config.block_units(),
            markov: config.markov,
            ..optimize.clone()
        };
        let (division, cost) = crate::optimize_division_with_workers(
            &units,
            width,
            &optimize,
            cce_codec::worker_count(),
        );
        Ok((Self::train_units(&units, config.with_division(division)), cost))
    }

    /// Trains the model on units [`training_units`] framed for `config`.
    fn train_units(units: &[u32], config: SamcConfig) -> Self {
        let model =
            MarkovModel::train(units, &config.division, config.markov, config.block_units());
        Self { config, model }
    }

    /// The trained model (exposed for size accounting and the optimizer).
    pub fn model(&self) -> &MarkovModel {
        &self.model
    }

    /// The configuration in use.
    pub fn config(&self) -> &SamcConfig {
        &self.config
    }

    /// Decompresses one block with the nibble-parallel engine model
    /// (paper Fig. 5), returning the bytes and the modelled cycle counts.
    ///
    /// Bit-exact with [`BlockCodec::decompress_block`]; requires every
    /// stream's width to be a multiple of 4 bits.
    ///
    /// # Errors
    ///
    /// [`CodecError::Unsupported`] if a stream is not 4-bit aligned, or
    /// [`CodecError::Corrupt`] as for the serial path.
    pub fn decompress_block_engine(
        &self,
        bytes: &[u8],
        out_len: usize,
    ) -> Result<(Vec<u8>, EngineStats), CodecError> {
        let unit = self.config.unit_bytes();
        if !out_len.is_multiple_of(unit) {
            return Err(misaligned_length(out_len, unit));
        }
        let division = &self.config.division;
        if (0..division.stream_count()).any(|s| !division.stream_bits(s).len().is_multiple_of(4)) {
            return Err(CodecError::unsupported(
                NAME,
                "nibble engine requires 4-bit-aligned streams",
            ));
        }
        let model = &self.model;
        let mask = self.config.markov.context_mask();
        let mut engine = NibbleDecoder::new(bytes);
        let mut out = Vec::with_capacity(out_len);
        let mut ctx = 0usize;
        for _ in 0..out_len / unit {
            let mut word = 0u32;
            for s in 0..division.stream_count() {
                let tree = model.tree(s, ctx);
                let mut node = 1usize;
                for shifts in model.shifts(s).chunks_exact(4) {
                    // The 15-probability subtree rooted at `node`: its
                    // depth-l row is the 2^l consecutive heap nodes from
                    // node·2^l.
                    let mut probs = [Prob::HALF; 15];
                    for depth in 0..4 {
                        let row = node << depth..(node + 1) << depth;
                        probs[(1 << depth) - 1..(2 << depth) - 1].copy_from_slice(&tree[row]);
                    }
                    let nibble = engine.decode_nibble(&NibbleProbTree::new(probs));
                    for (j, &shift) in shifts.iter().enumerate() {
                        word |= u32::from(nibble >> (3 - j) & 1) << shift;
                    }
                    node = (node << 4) + usize::from(nibble);
                }
                ctx = (ctx << 1 | (node & 1)) & mask;
            }
            out.extend_from_slice(&word.to_be_bytes()[4 - unit..]);
        }
        Ok((out, engine.stats()))
    }
}

impl BlockCodec for SamcCodec {
    fn name(&self) -> &'static str {
        NAME
    }

    fn block_size(&self) -> usize {
        self.config.block_size
    }

    fn model_bytes(&self) -> usize {
        self.model.model_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        crate::serialize::write_codec(self)
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        let unit = self.config.unit_bytes();
        if !chunk.len().is_multiple_of(unit) {
            return Err(CodecError::train(
                NAME,
                format!("chunk of {} bytes is not a multiple of the {unit}-byte unit", chunk.len()),
            ));
        }
        let _span = crate::obs::COMPRESS_SPAN.time();
        crate::obs::COMPRESSED_UNITS.add((chunk.len() / unit) as u64);
        let model = &self.model;
        let mask = self.config.markov.context_mask();
        let mut encoder = BitEncoder::new();
        let mut ctx = 0usize;
        for unit_bytes in chunk.chunks(unit) {
            let word = unit_to_word(unit_bytes);
            for s in 0..self.config.division.stream_count() {
                let tree = model.tree(s, ctx);
                let mut node = 1usize;
                for &shift in model.shifts(s) {
                    let bit = word >> shift & 1;
                    encoder.encode_bit(bit == 1, tree[node]);
                    node = 2 * node + bit as usize;
                }
                // The stream's last bit is the low bit of the leaf reached.
                ctx = (ctx << 1 | (node & 1)) & mask;
            }
        }
        Ok(encoder.finish())
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::DECOMPRESS_SPAN.time();
        let unit = self.config.unit_bytes();
        if !out_len.is_multiple_of(unit) {
            return Err(misaligned_length(out_len, unit));
        }
        crate::obs::DECOMPRESSED_UNITS.add((out_len / unit) as u64);
        let model = &self.model;
        let mask = self.config.markov.context_mask();
        let mut decoder = BitDecoder::new(block);
        let mut out = Vec::with_capacity(out_len);
        let mut ctx = 0usize;
        for _ in 0..out_len / unit {
            let mut word = 0u32;
            for s in 0..self.config.division.stream_count() {
                let tree = model.tree(s, ctx);
                // The last bit is peeled: its children would be leaves,
                // which the tree does not store.
                let (&last_shift, shifts) =
                    model.shifts(s).split_last().expect("streams are non-empty");
                let mut node = 1usize;
                let mut p0 = tree[1];
                for &shift in shifts {
                    // Both children load while the bit resolves, so the
                    // next probability is a select, not a dependent load.
                    let (zero, one) = (tree[2 * node], tree[2 * node + 1]);
                    let bit = decoder.decode_bit(p0);
                    p0 = if bit { one } else { zero };
                    node = 2 * node + usize::from(bit);
                    word |= u32::from(bit) << shift;
                }
                let bit = decoder.decode_bit(p0);
                word |= u32::from(bit) << last_shift;
                ctx = (ctx << 1 | usize::from(bit)) & mask;
            }
            out.extend_from_slice(&word.to_be_bytes()[4 - unit..]);
        }
        Ok(out)
    }
}

fn misaligned_length(len: usize, unit: usize) -> CodecError {
    CodecError::corrupt(
        NAME,
        format!("block length {len} is not a multiple of the {unit}-byte unit"),
    )
}

/// Checks `text` and `config` for training and frames the text into
/// units.
fn training_units(text: &[u8], config: &SamcConfig) -> Result<Vec<u32>, CodecError> {
    let width = config.division.width();
    if !width.is_multiple_of(8) {
        return Err(CodecError::train(NAME, format!("stream width {width} is not byte-framed")));
    }
    let unit = config.unit_bytes();
    if text.is_empty() {
        return Err(CodecError::train(NAME, "cannot train on an empty text section"));
    }
    if !text.len().is_multiple_of(unit) {
        return Err(CodecError::train(
            NAME,
            format!("text of {} bytes is not a multiple of the {unit}-byte unit", text.len()),
        ));
    }
    if config.block_size == 0 || !config.block_size.is_multiple_of(unit) {
        return Err(CodecError::train(
            NAME,
            format!("block size {} is not a positive multiple of {unit}", config.block_size),
        ));
    }
    Ok(frame_units(text, unit))
}

/// Frames text into big-endian instruction units of `unit` bytes.
pub(crate) fn frame_units(text: &[u8], unit: usize) -> Vec<u32> {
    text.chunks_exact(unit).map(unit_to_word).collect()
}

fn unit_to_word(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0u32, |acc, &b| acc << 8 | u32::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mips_like_text(words: usize) -> Vec<u8> {
        // Field-structured words: skewed opcode byte, few registers,
        // small immediates.
        (0..words as u32)
            .flat_map(|i| {
                let opcode = [0x8F, 0xAF, 0x27, 0x00, 0x8F, 0x27][i as usize % 6];
                let regs = [0xBD, 0xBF, 0xA4, 0x42][i as usize % 4];
                let imm = (i * 4) % 64;
                u32::from_be_bytes([opcode, regs, 0x00, imm as u8]).to_be_bytes()
            })
            .collect()
    }

    #[test]
    fn round_trips_mips_config() {
        let text = mips_like_text(512);
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn realistic_sizes_compress_well() {
        // The ~3 KiB connected model amortizes over program-sized inputs
        // (the paper's benchmarks are 100 KiB+); 8192 words = 32 KiB.
        let text = mips_like_text(8192);
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 0.5, "ratio {}", image.ratio());
    }

    #[test]
    fn round_trips_byte_config() {
        let text: Vec<u8> = (0..3000).map(|i| [0x55u8, 0x89, 0xE5, 0x8B, 0x45][i % 5]).collect();
        let codec = SamcCodec::train(&text, SamcConfig::x86()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn blocks_decompress_independently() {
        let text = mips_like_text(256);
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        // Decode block 3 alone and compare against the matching slice.
        let expected = &text[3 * 32..4 * 32];
        let got = codec.decompress_block(image.block(3), 32).unwrap();
        assert_eq!(got, expected);
        // And in reverse order, proving no inter-block state leaks.
        for i in (0..image.block_count()).rev() {
            let start = i * 32;
            let len = (text.len() - start).min(32);
            assert_eq!(
                codec.decompress_block(image.block(i), len).unwrap(),
                &text[start..start + len],
                "block {i}"
            );
        }
    }

    #[test]
    fn engine_path_is_bit_exact_with_serial() {
        let text = mips_like_text(256);
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        for i in 0..image.block_count() {
            let len = (text.len() - i * 32).min(32);
            let serial = codec.decompress_block(image.block(i), len).unwrap();
            let (parallel, stats) = codec.decompress_block_engine(image.block(i), len).unwrap();
            assert_eq!(serial, parallel, "block {i}");
            // 32 bytes = 64 nibbles per full block.
            assert_eq!(stats.nibble_cycles, (len * 2) as u64);
        }
    }

    #[test]
    fn engine_rejects_unaligned_streams() {
        let division = StreamDivision::new(vec![vec![0, 1, 2], vec![3, 4, 5, 6, 7]], 8).unwrap();
        let config = SamcConfig { block_size: 32, division, markov: MarkovConfig::default() };
        let text = vec![0xA5u8; 64];
        let codec = SamcCodec::train(&text, config).unwrap();
        let image = codec.compress(&text).unwrap();
        assert!(matches!(
            codec.decompress_block_engine(image.block(0), 32).unwrap_err(),
            CodecError::Unsupported { .. }
        ));
        // Serial path still works.
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn train_validates_input() {
        assert!(matches!(
            SamcCodec::train(&[], SamcConfig::mips()).unwrap_err(),
            CodecError::Train { codec: "SAMC", .. }
        ));
        assert!(matches!(
            SamcCodec::train(&[1, 2, 3], SamcConfig::mips()).unwrap_err(),
            CodecError::Train { codec: "SAMC", .. }
        ));
        let bad = SamcConfig::mips().with_block_size(10);
        assert!(matches!(
            SamcCodec::train(&[0; 8], bad).unwrap_err(),
            CodecError::Train { codec: "SAMC", .. }
        ));
    }

    #[test]
    fn short_final_block_round_trips() {
        let text = mips_like_text(9); // 36 bytes: one full block + 4
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(image.block_count(), 2);
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn image_accounting_is_consistent() {
        let text = mips_like_text(512);
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        let blocks_total: usize = (0..image.block_count()).map(|i| image.block(i).len()).sum();
        assert_eq!(image.compressed_len(), blocks_total + codec.model().model_bytes());
        assert!(image.ratio_with_lat() > image.ratio());
        assert!(image.lat_bytes() > 0);
    }

    #[test]
    fn incompressible_data_stays_near_unity() {
        let text: Vec<u8> =
            (0..8192u32).flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_be_bytes()).collect();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 1.15, "ratio {}", image.ratio());
    }

    #[test]
    fn different_block_sizes_round_trip() {
        let text = mips_like_text(512);
        for block_size in [16, 32, 64, 128] {
            let codec =
                SamcCodec::train(&text, SamcConfig::mips().with_block_size(block_size)).unwrap();
            let image = codec.compress(&text).unwrap();
            assert_eq!(codec.decompress(&image).unwrap(), text, "block {block_size}");
        }
    }
}
