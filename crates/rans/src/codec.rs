//! The SAMC-over-rANS block codec.

use crate::coder::{Lanes, RansDecoder, RansEncoder, SCALE, SCALE_BITS};
use cce_codec::{BlockCodec, CodecError};
use cce_samc::{MarkovModel, SamcCodec, SamcConfig};

/// Display name used in errors, tables, and the registry.
const NAME: &str = "samc-rans";

/// Widest stream (in bits) coded one symbol per unit; wider streams
/// fall back to bit-wise coding so quantizing their `2^bits` leaves to a
/// 12-bit scale never degenerates toward uniform.
const MAX_SYMBOL_BITS: usize = 8;

/// Whole-stream symbol coding tables for one stream.
///
/// The per-bit Markov probabilities multiply along each root-to-leaf
/// path into a distribution over the stream's `2^bits` values, which is
/// re-quantized to the coder's 16-bit [`SCALE`].  Decoding a stream
/// value is then a single slot lookup plus one rANS advance — the
/// per-bit serial dependence through the tree collapses into one step
/// per stream.
#[derive(Debug, Clone)]
struct SymbolTable {
    /// Stream width in bits (`symbols = 1 << bits`).
    bits: u32,
    /// Unit-word fragment for each value: its bits placed at the
    /// stream's shifts, OR-able straight into the decoded word.
    scatter: Vec<u32>,
    /// Quantized frequency per `(context, value)`, contexts contiguous.
    freqs: Vec<u16>,
    /// Cumulative start slot per `(context, value)`.
    cums: Vec<u16>,
    /// `slot → value` per context: [`SCALE`] entries each.  `u8`
    /// suffices because [`MAX_SYMBOL_BITS`] caps values at 256.
    slots: Vec<u8>,
}

impl SymbolTable {
    /// Builds the tables for stream `s` of `model`.
    fn build(model: &MarkovModel, s: usize) -> Self {
        let shifts = model.shifts(s);
        let bits = shifts.len();
        let contexts = model.config().contexts();
        let values = 1usize << bits;
        let scatter = (0..values as u32)
            .map(|v| {
                shifts
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (j, &shift)| acc | (v >> (bits - 1 - j) & 1) << shift)
            })
            .collect();
        let scale = SCALE as usize;
        let mut freqs = Vec::with_capacity(contexts * values);
        let mut cums = Vec::with_capacity(contexts * values);
        let mut slots = vec![0u8; contexts * scale];
        for ctx in 0..contexts {
            // Walk the heap tree top-down: p[node] is the probability of
            // reaching `node`; leaves `values..2·values` map to stream
            // value `node − values`.
            let tree = model.tree(s, ctx);
            let mut reach = vec![0.0f64; 2 * values];
            reach[1] = 1.0;
            for node in 1..values {
                let p0 = tree[node].as_f64();
                reach[2 * node] = reach[node] * p0;
                reach[2 * node + 1] = reach[node] * (1.0 - p0);
            }
            let ctx_freqs = quantize_to_scale(&reach[values..]);
            let mut cum = 0usize;
            for (v, &freq) in ctx_freqs.iter().enumerate() {
                slots[ctx * scale + cum..ctx * scale + cum + usize::from(freq)].fill(v as u8);
                freqs.push(freq);
                cums.push(cum as u16);
                cum += usize::from(freq);
            }
        }
        Self { bits: bits as u32, scatter, freqs, cums, slots }
    }
}

/// Quantizes an ideal distribution to frequencies that sum to exactly
/// [`SCALE`] with every entry ≥ 1, pushing rounding error onto the most
/// probable entries where its relative cost is smallest.
fn quantize_to_scale(ideal: &[f64]) -> Vec<u16> {
    let scale = i64::from(SCALE);
    debug_assert!(ideal.len() >= 2 && (ideal.len() as i64) < scale);
    let mut freqs: Vec<i64> =
        ideal.iter().map(|&p| ((p * scale as f64).round() as i64).clamp(1, scale)).collect();
    let mut total: i64 = freqs.iter().sum();
    while total != scale {
        let (i, &max) = freqs.iter().enumerate().max_by_key(|&(_, &f)| f).expect("non-empty");
        if total > scale {
            // `total > scale > len` forces some entry above 1, and the
            // max entry is one, so `take ≥ 1`: progress every pass.
            let take = (total - scale).min(max - 1);
            freqs[i] -= take;
            total -= take;
        } else {
            freqs[i] += scale - total;
            total = scale;
        }
    }
    freqs.into_iter().map(|f| f as u16).collect()
}

/// SAMC's Markov models driving the interleaved rANS coder instead of
/// the serial arithmetic coder.
///
/// Training, the stream division, the context chaining, and the
/// serialized Markov tables are exactly [`SamcCodec`]'s — only the
/// entropy-coding backend differs, so compression ratios stay directly
/// comparable to the paper's arithmetic-coder numbers while decode
/// throughput scales with the lane interleave.
///
/// Streams up to 8 bits wide (every stock division) are coded one rANS
/// symbol per unit against the quantized product of their per-bit
/// Markov probabilities, collapsing the per-bit serial tree walk — the
/// throughput bottleneck both coders share — into a single table
/// lookup per stream; wider streams use per-bit coding.
///
/// # Examples
///
/// ```
/// use cce_codec::BlockCodec;
/// use cce_rans::{Lanes, SamcRansCodec};
/// use cce_samc::SamcConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text: Vec<u8> = (0..8192u32).flat_map(|i| (i % 7 << 2).to_be_bytes()).collect();
/// let codec = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::FOUR)?;
/// let image = codec.compress(&text)?;
/// assert_eq!(codec.decompress(&image)?, text);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SamcRansCodec {
    inner: SamcCodec,
    lanes: Lanes,
    mask: usize,
    /// Per stream: whole-stream symbol tables, or `None` for a stream
    /// wider than [`MAX_SYMBOL_BITS`], which codes bit by bit straight
    /// from the model's trees.
    symbols: Vec<Option<SymbolTable>>,
}

impl SamcRansCodec {
    /// Trains the Markov models on `text` (identically to
    /// [`SamcCodec::train`]) and binds them to an `lanes`-way coder.
    ///
    /// # Errors
    ///
    /// Every [`CodecError::Train`] case of [`SamcCodec::train`],
    /// re-labelled `samc-rans`.
    pub fn train(text: &[u8], config: SamcConfig, lanes: Lanes) -> Result<Self, CodecError> {
        let inner = SamcCodec::train(text, config).map_err(|e| e.named(NAME))?;
        Ok(Self::from_samc(inner, lanes))
    }

    /// Wraps an already-trained [`SamcCodec`], reusing its model.
    pub fn from_samc(inner: SamcCodec, lanes: Lanes) -> Self {
        let model = inner.model();
        let symbols = (0..model.division().stream_count())
            .map(|s| {
                (model.shifts(s).len() <= MAX_SYMBOL_BITS).then(|| SymbolTable::build(model, s))
            })
            .collect();
        let mask = model.config().contexts() - 1;
        Self { inner, lanes, mask, symbols }
    }

    /// The interleave width this codec encodes with.
    pub fn lanes(&self) -> Lanes {
        self.lanes
    }

    /// The wrapped SAMC codec (model + config).
    pub fn samc(&self) -> &SamcCodec {
        &self.inner
    }

    fn unit_bytes(&self) -> usize {
        self.inner.config().unit_bytes()
    }
}

impl BlockCodec for SamcRansCodec {
    fn name(&self) -> &'static str {
        NAME
    }

    fn block_size(&self) -> usize {
        self.inner.config().block_size
    }

    fn model_bytes(&self) -> usize {
        self.inner.model().model_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        crate::serialize::write_codec(self)
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        let unit = self.unit_bytes();
        if !chunk.len().is_multiple_of(unit) {
            return Err(CodecError::train(
                NAME,
                format!("chunk of {} bytes is not a multiple of the {unit}-byte unit", chunk.len()),
            ));
        }
        let model = self.inner.model();
        let mut encoder = RansEncoder::new(self.lanes);
        let mut ctx = 0usize;
        for unit_bytes in chunk.chunks(unit) {
            let word = unit_bytes.iter().fold(0u32, |acc, &b| acc << 8 | u32::from(b));
            for (s, symbols) in self.symbols.iter().enumerate() {
                let shifts = model.shifts(s);
                if let Some(sym) = symbols {
                    let v = shifts
                        .iter()
                        .fold(0usize, |acc, &shift| acc << 1 | (word >> shift & 1) as usize);
                    let at = (ctx << sym.bits) | v;
                    encoder.encode_symbol(sym.freqs[at], sym.cums[at]);
                    ctx = (ctx << 1 | (v & 1)) & self.mask;
                } else {
                    let tree = model.tree(s, ctx);
                    let mut node = 1usize;
                    for &shift in shifts {
                        let bit = word >> shift & 1 == 1;
                        encoder.encode_bit_raw(bit, tree[node].raw() as u16);
                        node = 2 * node + usize::from(bit);
                    }
                    // The stream's last bit is the low bit of the final node.
                    ctx = (ctx << 1 | (node & 1)) & self.mask;
                }
            }
        }
        Ok(encoder.finish())
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let unit = self.unit_bytes();
        if !out_len.is_multiple_of(unit) {
            return Err(CodecError::corrupt(
                NAME,
                format!("block length {out_len} is not a multiple of the {unit}-byte unit"),
            ));
        }
        let mut decoder = RansDecoder::new(block).map_err(|e| e.named(NAME))?;
        if decoder.lanes() != self.lanes {
            return Err(CodecError::corrupt(
                NAME,
                format!(
                    "stream declares {} lanes but the codec encodes with {}",
                    decoder.lanes(),
                    self.lanes
                ),
            ));
        }
        let model = self.inner.model();
        let mut out = Vec::with_capacity(out_len);
        let mut ctx = 0usize;
        for _ in 0..out_len / unit {
            let mut word = 0u32;
            for (s, symbols) in self.symbols.iter().enumerate() {
                if let Some(sym) = symbols {
                    let slot_base = ctx << SCALE_BITS;
                    let v = decoder
                        .decode_symbol_with(|low| {
                            let v = usize::from(sym.slots[slot_base | low as usize]);
                            let at = (ctx << sym.bits) | v;
                            (v as u32, u32::from(sym.freqs[at]), u32::from(sym.cums[at]))
                        })
                        .map_err(|e| e.named(NAME))? as usize;
                    word |= sym.scatter[v];
                    ctx = (ctx << 1 | (v & 1)) & self.mask;
                } else {
                    let tree = model.tree(s, ctx);
                    let mut node = 1usize;
                    for &shift in model.shifts(s) {
                        let bit =
                            decoder.decode_bit_raw(tree[node].raw()).map_err(|e| e.named(NAME))?;
                        word |= u32::from(bit) << shift;
                        node = 2 * node + usize::from(bit);
                    }
                    ctx = (ctx << 1 | (node & 1)) & self.mask;
                }
            }
            out.extend_from_slice(&word.to_be_bytes()[4 - unit..]);
        }
        decoder.finish().map_err(|e| e.named(NAME))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_arith::ProbMode;
    use cce_samc::MarkovConfig;

    fn mips_like_text(words: usize) -> Vec<u8> {
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
    fn round_trips_every_lane_width() {
        let text = mips_like_text(512);
        for lanes in Lanes::ALL {
            let codec = SamcRansCodec::train(&text, SamcConfig::mips(), lanes).unwrap();
            let image = codec.compress(&text).unwrap();
            assert_eq!(codec.decompress(&image).unwrap(), text, "{lanes} lanes");
        }
    }

    #[test]
    fn round_trips_byte_config_and_partial_tail() {
        let text: Vec<u8> = (0..3001).map(|i| [0x55u8, 0x89, 0xE5, 0x8B, 0x45][i % 5]).collect();
        let codec = SamcRansCodec::train(&text, SamcConfig::x86(), Lanes::FOUR).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn blocks_decompress_independently_and_out_of_order() {
        let text = mips_like_text(256);
        let codec = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::TWO).unwrap();
        let image = codec.compress(&text).unwrap();
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
    fn matches_arith_samc_payload_closely() {
        // Same model, near-optimal coders: per-block payloads must agree
        // to within the rANS lane-flush overhead (1 + 4N bytes) plus the
        // coders' per-stream termination slack.
        let text = mips_like_text(4096);
        let config = SamcConfig::mips().with_block_size(4096);
        let arith = SamcCodec::train(&text, config.clone()).unwrap();
        let rans = SamcRansCodec::train(&text, config, Lanes::FOUR).unwrap();
        let arith_image = cce_codec::BlockCodec::compress(&arith, &text).unwrap();
        let rans_image = rans.compress(&text).unwrap();
        for i in 0..arith_image.block_count() {
            let a = arith_image.block(i).len() as f64;
            let r = rans_image.block(i).len() as f64;
            assert!((r - a).abs() <= 0.02 * a + 24.0, "block {i}: arith {a} vs rans {r}");
        }
    }

    #[test]
    fn wide_streams_round_trip_through_the_bitwise_fallback() {
        // Two 16-bit streams per word: too many leaf values to quantize
        // as whole symbols, so both coding paths must agree bit-by-bit.
        let text = mips_like_text(512);
        let config = SamcConfig {
            division: cce_samc::StreamDivision::contiguous(32, 2),
            ..SamcConfig::mips()
        };
        let codec = SamcRansCodec::train(&text, config, Lanes::FOUR).unwrap();
        assert!(codec.symbols.iter().all(Option::is_none), "16-bit streams must fall back");
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn pow2_quantized_models_round_trip() {
        let text = mips_like_text(1024);
        let config = SamcConfig {
            markov: MarkovConfig { context_bits: 1, prob_mode: ProbMode::Pow2 },
            ..SamcConfig::mips()
        };
        let codec = SamcRansCodec::train(&text, config, Lanes::EIGHT).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn lane_width_mismatch_is_a_typed_error() {
        let text = mips_like_text(64);
        let two = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::TWO).unwrap();
        let four = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::FOUR).unwrap();
        let image = two.compress(&text).unwrap();
        assert!(matches!(
            four.decompress_block(image.block(0), 32),
            Err(CodecError::Corrupt { codec: "samc-rans", .. })
        ));
    }

    #[test]
    fn corrupt_blocks_error_and_never_panic() {
        let text = mips_like_text(64);
        let codec = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::FOUR).unwrap();
        let image = codec.compress(&text).unwrap();
        let block = image.block(0);
        for i in 0..block.len() {
            let mut bad = block.to_vec();
            bad[i] ^= 0xFF;
            match codec.decompress_block(&bad, 32) {
                Ok(bytes) => assert_eq!(bytes.len(), 32),
                Err(CodecError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error class at byte {i}: {e}"),
            }
        }
        assert!(codec.decompress_block(&[], 32).is_err());
        assert!(codec.decompress_block(block, 33).is_err());
    }

    #[test]
    fn misaligned_output_length_is_rejected() {
        let text = mips_like_text(64);
        let codec = SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::ONE).unwrap();
        assert!(matches!(
            codec.compress_chunk(&text[..30]),
            Err(CodecError::Train { codec: "samc-rans", .. })
        ));
    }
}
