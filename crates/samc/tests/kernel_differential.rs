//! Differential test of the SAMC coding kernel.
//!
//! The codec walks one flat tree slice per (stream, context) with a shift
//! table and a mask-select range coder.  This file carries the walk that
//! kernel replaced — counts and probabilities in nested
//! `trees[stream][context][node]` vectors, bits read and written through
//! the division's bit indices, and a coder that branches on every bit —
//! as an oracle, and requires both to produce the same bytes, on
//! well-formed and on damaged input, for seeded random stream divisions
//! and model options.

use cce_arith::{Prob, ProbMode, PROB_BITS};
use cce_codec::BlockCodec;
use cce_rng::Rng;
use cce_samc::{MarkovConfig, MarkovModel, SamcCodec, SamcConfig, StreamDivision};

const RENORM_THRESHOLD: u32 = 1 << 24;

/// The range encoder with a branch on the coded bit.
struct OracleEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
    primed: bool,
}

impl OracleEncoder {
    fn new() -> Self {
        Self { low: 0, range: u32::MAX, cache: 0, cache_size: 1, out: Vec::new(), primed: false }
    }

    fn encode_bit(&mut self, bit: bool, p0: Prob) {
        let bound = (self.range >> PROB_BITS) * p0.raw();
        if bit {
            self.low += u64::from(bound);
            self.range -= bound;
        } else {
            self.range = bound;
        }
        while self.range < RENORM_THRESHOLD {
            self.shift_low();
            self.range <<= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let lo = self.low;
        let hi = lo + u64::from(self.range);
        let mut v = hi - 1;
        for k in (0..40).rev() {
            let mask = (1u64 << k) - 1;
            let candidate = (lo + mask) & !mask;
            if candidate < hi {
                v = candidate;
                break;
            }
        }
        self.low = v;
        for _ in 0..5 {
            self.shift_low();
        }
        let mut out = self.out;
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > u64::from(u32::MAX) {
            let carry = (self.low >> 32) as u8;
            if self.primed {
                self.out.push(self.cache.wrapping_add(carry));
            } else {
                self.primed = true;
            }
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & u64::from(u32::MAX);
    }
}

/// The range decoder with a branch on the decoded bit.
struct OracleDecoder<'a> {
    bytes: &'a [u8],
    position: usize,
    range: u32,
    code: u32,
}

impl<'a> OracleDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut dec = Self { bytes, position: 0, range: u32::MAX, code: 0 };
        for _ in 0..4 {
            dec.code = dec.code << 8 | u32::from(dec.next_byte());
        }
        dec
    }

    fn decode_bit(&mut self, p0: Prob) -> bool {
        let bound = (self.range >> PROB_BITS) * p0.raw();
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        let mut refills = 0;
        while self.range < RENORM_THRESHOLD && refills < 4 {
            self.code = self.code << 8 | u32::from(self.next_byte());
            self.range <<= 8;
            refills += 1;
        }
        bit
    }

    fn next_byte(&mut self) -> u8 {
        let byte = self.bytes.get(self.position).copied().unwrap_or(0);
        self.position += 1;
        byte
    }
}

/// A trained model in nested `trees[stream][context][node]` form.
struct Oracle {
    division: StreamDivision,
    config: MarkovConfig,
    unit: usize,
    trees: Vec<Vec<Vec<Prob>>>,
}

fn set_bit(division: &StreamDivision, word: &mut u32, bit: u8, value: bool) {
    let mask = 1u32 << (division.width() - 1 - bit);
    if value {
        *word |= mask;
    } else {
        *word &= !mask;
    }
}

fn unit_to_word(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0u32, |acc, &b| acc << 8 | u32::from(b))
}

impl Oracle {
    fn train(text: &[u8], config: &SamcConfig) -> Self {
        let division = config.division.clone();
        let markov = config.markov;
        let unit = config.unit_bytes();
        let contexts = markov.contexts();
        let mask = contexts - 1;
        let mut counts: Vec<Vec<Vec<(u64, u64)>>> = (0..division.stream_count())
            .map(|s| vec![vec![(0, 0); 1 << division.stream_bits(s).len()]; contexts])
            .collect();
        for block in text.chunks(config.block_size) {
            let mut ctx = 0usize;
            for unit_bytes in block.chunks(unit) {
                let word = unit_to_word(unit_bytes);
                for (s, stream_counts) in counts.iter_mut().enumerate() {
                    let mut node = 1usize;
                    let mut last = false;
                    for &bit_index in division.stream_bits(s) {
                        let bit = division.bit_of(word, bit_index);
                        let slot = &mut stream_counts[ctx][node];
                        if bit {
                            slot.1 += 1;
                        } else {
                            slot.0 += 1;
                        }
                        node = 2 * node + usize::from(bit);
                        last = bit;
                    }
                    ctx = (ctx << 1 | usize::from(last)) & mask;
                }
            }
        }
        let trees = counts
            .into_iter()
            .map(|stream| {
                stream
                    .into_iter()
                    .map(|tree| {
                        tree.into_iter()
                            .map(|(zeros, ones)| {
                                Prob::from_counts(zeros, ones).quantize(markov.prob_mode)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self { division, config: markov, unit, trees }
    }

    fn compress(&self, chunk: &[u8]) -> Vec<u8> {
        let mask = self.config.contexts() - 1;
        let mut encoder = OracleEncoder::new();
        let mut ctx = 0usize;
        for unit_bytes in chunk.chunks(self.unit) {
            let word = unit_to_word(unit_bytes);
            for s in 0..self.division.stream_count() {
                let mut node = 1usize;
                let mut last = false;
                for &bit_index in self.division.stream_bits(s) {
                    let bit = self.division.bit_of(word, bit_index);
                    encoder.encode_bit(bit, self.trees[s][ctx][node]);
                    node = 2 * node + usize::from(bit);
                    last = bit;
                }
                ctx = (ctx << 1 | usize::from(last)) & mask;
            }
        }
        encoder.finish()
    }

    /// `None` where the codec must refuse: a length that is not a whole
    /// number of units.
    fn decompress(&self, block: &[u8], out_len: usize) -> Option<Vec<u8>> {
        if !out_len.is_multiple_of(self.unit) {
            return None;
        }
        let mask = self.config.contexts() - 1;
        let mut decoder = OracleDecoder::new(block);
        let mut out = Vec::with_capacity(out_len);
        let mut ctx = 0usize;
        for _ in 0..out_len / self.unit {
            let mut word = 0u32;
            for s in 0..self.division.stream_count() {
                let mut node = 1usize;
                let mut last = false;
                for &bit_index in self.division.stream_bits(s) {
                    let bit = decoder.decode_bit(self.trees[s][ctx][node]);
                    set_bit(&self.division, &mut word, bit_index, bit);
                    node = 2 * node + usize::from(bit);
                    last = bit;
                }
                ctx = (ctx << 1 | usize::from(last)) & mask;
            }
            out.extend_from_slice(&word.to_be_bytes()[4 - self.unit..]);
        }
        Some(out)
    }

    /// Every visited node's probability must equal the flat model's.
    fn assert_matches(&self, model: &MarkovModel, case: &str) {
        for (s, stream) in self.trees.iter().enumerate() {
            for (ctx, tree) in stream.iter().enumerate() {
                assert_eq!(&model.tree(s, ctx)[1..], &tree[1..], "{case}: stream {s} ctx {ctx}");
            }
        }
    }
}

/// A random partition of `0..width` into `streams` non-adjacent groups
/// of at most 16 bits each.
fn random_division(rng: &mut Rng, width: u8, streams: usize) -> StreamDivision {
    let mut bits: Vec<u8> = (0..width).collect();
    rng.shuffle(&mut bits);
    let width = usize::from(width);
    loop {
        let mut cuts: Vec<usize> = (1..width).collect();
        rng.shuffle(&mut cuts);
        let mut cuts = cuts[..streams - 1].to_vec();
        cuts.push(0);
        cuts.push(width);
        cuts.sort_unstable();
        if cuts.windows(2).all(|w| w[1] - w[0] <= 16) {
            let groups = cuts.windows(2).map(|w| bits[w[0]..w[1]].to_vec()).collect();
            return StreamDivision::new(groups, width as u8).expect("a random partition");
        }
    }
}

/// Program-like text, whole units only.  Half the cases draw words from
/// a dozen-word vocabulary with noisy low bits and some random words;
/// the other half repeat one or two words with a rare single-bit flip,
/// which trains near-certain probabilities whose unlikely branch shrinks
/// the interval enough to need two renormalization bytes at once.
fn random_text(rng: &mut Rng, unit: usize, units: usize) -> Vec<u8> {
    let skewed = rng.random_bool(0.5);
    let vocabulary: Vec<u32> = (0..if skewed { 2 } else { 12 }).map(|_| rng.next_u32()).collect();
    let bits = 8 * unit as u32;
    (0..units)
        .flat_map(|_| {
            let pick = vocabulary[rng.random_range(0..vocabulary.len())];
            let word = if skewed {
                if rng.random_bool(0.004) {
                    pick ^ 1 << rng.random_range(0..bits)
                } else {
                    pick
                }
            } else if rng.random_bool(0.15) {
                rng.next_u32()
            } else {
                pick ^ rng.random_range(0..4u32)
            };
            word.to_be_bytes()[4 - unit..].to_vec()
        })
        .collect()
}

/// The ways a stored block can be damaged: truncation, one flipped bit,
/// trailing garbage.
fn damaged(rng: &mut Rng, block: &[u8]) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), block[..block.len() / 2].to_vec()];
    if !block.is_empty() {
        out.push(block[..block.len() - 1].to_vec());
        for _ in 0..3 {
            let mut flipped = block.to_vec();
            let at = rng.random_range(0..flipped.len());
            flipped[at] ^= 1 << rng.random_range(0..8u32);
            out.push(flipped);
        }
    }
    let mut longer = block.to_vec();
    longer.extend((0..4).map(|_| rng.next_u32() as u8));
    out.push(longer);
    out
}

#[test]
fn flat_kernel_matches_the_nested_branching_walk() {
    let mut rng = Rng::seed_from_u64(0x5A3C_2701);
    let mut cases = 0;
    for width in [8u8, 16, 32] {
        for block_size in [16usize, 32, 64, 128] {
            for context_bits in 0..=3u8 {
                let min_streams = usize::from(width).div_ceil(16);
                let streams = rng.random_range(min_streams..=8);
                let division = random_division(&mut rng, width, streams);
                let prob_mode = if rng.random_bool(0.5) { ProbMode::Pow2 } else { ProbMode::Exact };
                let config = SamcConfig {
                    block_size,
                    division,
                    markov: MarkovConfig { context_bits, prob_mode },
                };
                let unit = config.unit_bytes();
                let block_units = config.block_units();
                // Whole blocks plus a short final block.
                let units =
                    block_units * rng.random_range(3..40) + rng.random_range(1..block_units);
                let text = random_text(&mut rng, unit, units);
                let case = format!(
                    "width {width}, {streams} streams, block {block_size}, \
                     context_bits {context_bits}, {prob_mode:?}"
                );
                check_case(&mut rng, &text, config, &case);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 48);
}

fn check_case(rng: &mut Rng, text: &[u8], config: SamcConfig, case: &str) {
    let codec = SamcCodec::train(text, config.clone()).expect("valid training input");
    let oracle = Oracle::train(text, &config);
    oracle.assert_matches(codec.model(), case);

    let restored = SamcCodec::from_bytes(&codec.to_bytes()).expect("serialized codec reloads");
    assert_eq!(restored.model(), codec.model(), "{case}: model round trip");

    let image = BlockCodec::compress(&codec, text).expect("unit-aligned text");
    assert_eq!(image.block_count(), text.len().div_ceil(config.block_size), "{case}");
    let engine_ok = (0..config.division.stream_count())
        .all(|s| config.division.stream_bits(s).len().is_multiple_of(4));
    for (i, chunk) in text.chunks(config.block_size).enumerate() {
        let block = image.block(i);
        assert_eq!(block, oracle.compress(chunk), "{case}: encoded block {i}");
        let decoded = codec.decompress_block(block, chunk.len()).expect("own block decodes");
        assert_eq!(decoded, chunk, "{case}: decoded block {i}");
        if engine_ok {
            let (nibbles, _) = codec.decompress_block_engine(block, chunk.len()).expect("aligned");
            assert_eq!(nibbles, chunk, "{case}: engine block {i}");
        }
        for bad in damaged(rng, block) {
            for out_len in [chunk.len(), chunk.len() + 1, config.block_size] {
                let got = codec.decompress_block(&bad, out_len).ok();
                assert_eq!(got, oracle.decompress(&bad, out_len), "{case}: damaged block {i}");
            }
        }
    }
}
