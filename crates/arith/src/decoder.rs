//! Binary range decoder: one bit per call, the interval half selected
//! by mask rather than by a branch on the decoded bit.

use crate::prob::{Prob, PROB_BITS};
use crate::RENORM_THRESHOLD;

/// Decodes the bit stream produced by [`BitEncoder`](crate::BitEncoder).
///
/// The decoder reads its input lazily and **zero-fills** once the slice is
/// exhausted; together with the encoder's trailing-zero trimming this keeps
/// per-block termination overhead to a byte or two, which matters when every
/// 32-byte cache block is a separate stream.
///
/// Decoding is self-delimiting only in the sense that the caller knows how
/// many bits to ask for (a cache block always holds `block_size × 8` bits of
/// uncompressed code) — exactly the contract of the paper's refill engine.
#[derive(Debug, Clone)]
pub struct BitDecoder<'a> {
    bytes: &'a [u8],
    position: usize,
    range: u32,
    code: u32,
    renorm_reads: u64,
    bits: u64,
}

impl<'a> BitDecoder<'a> {
    /// Creates a decoder over one block's encoded bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut dec =
            Self { bytes, position: 0, range: u32::MAX, code: 0, renorm_reads: 0, bits: 0 };
        // Load the initial 32-bit code window (the encoder's dropped zero
        // primer byte is implicit).
        for _ in 0..4 {
            dec.code = dec.code << 8 | u32::from(dec.next_byte());
        }
        dec
    }

    /// Decodes one bit given `p0 = P(bit == 0)`.
    ///
    /// Must be called with the exact probability sequence used to encode.
    pub fn decode_bit(&mut self, p0: Prob) -> bool {
        let bound = (self.range >> PROB_BITS) * p0.raw();
        let bit = self.code >= bound;
        // All ones exactly when the bit is 1: the interval half is picked
        // by mask, since a branch on an entropy-carrying bit mispredicts
        // about as often as the bit is uncertain.
        let one = u32::from(bit).wrapping_neg();
        self.code -= bound & one;
        self.range = bound & !one | (self.range - bound) & one;
        // Renormalization is bounded by construction: `Prob` is clamped to
        // [1, 4095] so `bound >= range >> 12 > 0` and the post-decode range
        // is at least 2^12 before the threshold (2^24) — at most 2 refills
        // restore it, 3 from the initial `u32::MAX` state.  The explicit
        // guard makes the loop termination unconditional even under a
        // hypothetical future probability-model bug: a zero range would
        // otherwise shift forever and hang the refill engine.
        let mut refills = 0u32;
        while self.range < RENORM_THRESHOLD && refills < 4 {
            self.code = self.code << 8 | u32::from(self.next_byte());
            self.range <<= 8;
            self.renorm_reads += 1;
            refills += 1;
        }
        self.bits += 1;
        bit
    }

    /// Bytes of real input consumed so far (zero-fill reads not counted).
    pub fn bytes_consumed(&self) -> usize {
        self.position.min(self.bytes.len())
    }

    /// Total renormalization byte-loads, including zero-fill — a proxy for
    /// the refill engine's memory traffic.
    pub fn renorm_reads(&self) -> u64 {
        self.renorm_reads
    }

    fn next_byte(&mut self) -> u8 {
        let byte = self.bytes.get(self.position).copied().unwrap_or(0);
        self.position += 1;
        byte
    }
}

/// Flushes the locally batched counters into [`crate::obs`] — one pair
/// of atomic adds per decoded stream, per the overhead policy.  A cloned
/// decoder flushes its own counts, so clone-and-decode double-counts by
/// design (both clones really did the work).
impl Drop for BitDecoder<'_> {
    fn drop(&mut self) {
        crate::obs::DECODED_BITS.add(self.bits);
        crate::obs::DECODE_RENORMS.add(self.renorm_reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitEncoder;

    fn round_trip(bits: &[bool], probs: &[Prob]) -> usize {
        let mut enc = BitEncoder::new();
        for (&b, &p) in bits.iter().zip(probs) {
            enc.encode_bit(b, p);
        }
        let bytes = enc.finish();
        let mut dec = BitDecoder::new(&bytes);
        for (i, (&b, &p)) in bits.iter().zip(probs).enumerate() {
            assert_eq!(dec.decode_bit(p), b, "mismatch at bit {i}");
        }
        bytes.len()
    }

    #[test]
    fn empty_input_decodes_nothing_and_does_not_panic() {
        let mut dec = BitDecoder::new(&[]);
        // With no encoded bits the caller should not ask for any, but if it
        // does the decoder must stay well-defined (it sees an all-zero code).
        let _ = dec.decode_bit(Prob::HALF);
    }

    #[test]
    fn alternating_bits_round_trip() {
        let bits: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();
        let probs = vec![Prob::HALF; bits.len()];
        round_trip(&bits, &probs);
    }

    #[test]
    fn varying_probabilities_round_trip() {
        let bits: Vec<bool> = (0..512).map(|i| (i * i) % 7 < 3).collect();
        let probs: Vec<Prob> =
            (0..512).map(|i| Prob::from_raw((i * 131 % 4000 + 40) as u32)).collect();
        round_trip(&bits, &probs);
    }

    #[test]
    fn extreme_probabilities_round_trip() {
        let bits = [true, true, false, true, false, false, true, true];
        for p in [Prob::MIN, Prob::MAX, Prob::from_raw(2), Prob::from_raw(4094)] {
            round_trip(&bits, &vec![p; bits.len()]);
        }
    }

    #[test]
    fn block_restart_independence() {
        // Two blocks encoded independently concatenate into two streams the
        // decoder can consume separately given each slice.
        let block_a: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
        let block_b: Vec<bool> = (0..128).map(|i| i % 5 == 0).collect();
        let p = Prob::from_raw(3000);

        let encode = |bits: &[bool]| {
            let mut enc = BitEncoder::new();
            for &b in bits {
                enc.encode_bit(b, p);
            }
            enc.finish()
        };
        let bytes_a = encode(&block_a);
        let bytes_b = encode(&block_b);

        // Decode block B without touching A: true random access.
        let mut dec = BitDecoder::new(&bytes_b);
        for &b in &block_b {
            assert_eq!(dec.decode_bit(p), b);
        }
        let mut dec = BitDecoder::new(&bytes_a);
        for &b in &block_a {
            assert_eq!(dec.decode_bit(p), b);
        }
    }

    #[test]
    fn bytes_consumed_never_exceeds_input() {
        let bits: Vec<bool> = (0..64).map(|i| i % 9 == 0).collect();
        let p = Prob::from_raw(3900);
        let mut enc = BitEncoder::new();
        for &b in &bits {
            enc.encode_bit(b, p);
        }
        let bytes = enc.finish();
        let mut dec = BitDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.decode_bit(p), b);
        }
        assert!(dec.bytes_consumed() <= bytes.len());
    }
}
