//! Carry-correct binary range encoder.

use crate::prob::{Prob, PROB_BITS};
use crate::RENORM_THRESHOLD;

/// Encodes a sequence of bits against per-bit probabilities.
///
/// The encoder keeps a 32-bit `range` and a 33-bit `low` (the extra bit is
/// the pending carry).  Output bytes are emitted through a one-byte cache so
/// a late carry can still propagate — the standard solution to the carry
/// problem in byte-renormalized arithmetic coders.
///
/// Create one encoder **per cache block**; [`BitEncoder::finish`] terminates
/// the stream with the shortest byte sequence that still pins the interval,
/// which is what keeps the per-block overhead low enough for 32-byte blocks.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct BitEncoder {
    low: u64,
    range: u32,
    cache: u8,
    /// Number of 0xFF-pending bytes plus the cached byte itself.
    cache_size: u64,
    out: Vec<u8>,
    /// True until the first byte (always the zero cache primer) is emitted.
    primed: bool,
    /// Bits encoded; batched locally, flushed to [`crate::obs`] on finish.
    bits: u64,
    /// Renormalization shifts; batched locally like `bits`.
    renorms: u64,
}

impl Default for BitEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl BitEncoder {
    /// Creates an encoder with a fresh full interval.
    pub fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
            primed: false,
            bits: 0,
            renorms: 0,
        }
    }

    /// Encodes `bit` given `p0 = P(bit == 0)`.
    ///
    /// Splits the interval at `bound = (range >> 12) · p0`; the zero branch
    /// keeps the lower part, the one branch the upper, exactly as the
    /// paper's midpoint comparison assigns `[min, mid)` to 0.
    pub fn encode_bit(&mut self, bit: bool, p0: Prob) {
        let bound = (self.range >> PROB_BITS) * p0.raw();
        debug_assert!(bound > 0 && bound < self.range);
        // All ones exactly when the bit is 1: the upper half is selected
        // by mask, without a branch on the bit.
        let one = u32::from(bit).wrapping_neg();
        self.low += u64::from(bound & one);
        self.range = bound & !one | (self.range - bound) & one;
        while self.range < RENORM_THRESHOLD {
            self.shift_low();
            self.range <<= 8;
            self.renorms += 1;
        }
        self.bits += 1;
    }

    /// Renormalization byte-shifts so far — a proxy for output traffic.
    pub fn renorms(&self) -> u64 {
        self.renorms
    }

    /// Terminates the stream and returns the encoded bytes.
    ///
    /// Chooses the value inside the final interval with the most trailing
    /// zero bits, so trailing zero bytes can be trimmed — the matching
    /// [`BitDecoder`](crate::BitDecoder) zero-fills past the end of its
    /// input, making the trim lossless.
    pub fn finish(mut self) -> Vec<u8> {
        crate::obs::ENCODED_BITS.add(self.bits);
        crate::obs::ENCODE_RENORMS.add(self.renorms);
        // Any value in [low, low + range) terminates the stream correctly.
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
                // The first cached byte is the 0 primer; drop it so blocks
                // do not all begin with a wasted zero byte.
                debug_assert_eq!(self.cache.wrapping_add(carry), 0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitDecoder;

    #[test]
    fn empty_stream_is_empty() {
        let enc = BitEncoder::new();
        assert!(enc.finish().is_empty());
    }

    #[test]
    fn single_likely_bit_costs_at_most_one_byte() {
        let mut enc = BitEncoder::new();
        enc.encode_bit(false, Prob::MAX);
        assert!(enc.finish().len() <= 1);
    }

    #[test]
    fn skewed_stream_beats_raw_packing() {
        // 4096 bits, ~1/16 ones: entropy ≈ 0.34 bits/bit => ~174 bytes.
        let p = Prob::from_counts(15, 1);
        let mut enc = BitEncoder::new();
        let bits: Vec<bool> = (0..4096).map(|i| i % 16 == 0).collect();
        for &b in &bits {
            enc.encode_bit(b, p);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() < 4096 / 8 / 2,
            "expected better than 2x over raw, got {} bytes",
            bytes.len()
        );
        let mut dec = BitDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.decode_bit(p), b);
        }
    }

    #[test]
    fn uniform_stream_costs_about_one_bit_per_bit() {
        let mut enc = BitEncoder::new();
        let bits: Vec<bool> = (0..800).map(|i| (i * 7 + 3) % 13 % 2 == 0).collect();
        for &b in &bits {
            enc.encode_bit(b, Prob::HALF);
        }
        let bytes = enc.finish();
        // 800 bits = 100 bytes; allow the terminator.
        assert!(bytes.len() <= 102, "got {} bytes", bytes.len());
    }

    #[test]
    fn carry_propagation_is_correct() {
        // Alternating very-skewed probabilities force long 0xFF runs in low,
        // exercising the carry path.  Round-trip is the oracle.
        let bits: Vec<bool> = (0..2000).map(|i| i % 97 == 0).collect();
        let mut enc = BitEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            let p = if i % 3 == 0 { Prob::MAX } else { Prob::from_raw(4000) };
            enc.encode_bit(b, p);
        }
        let bytes = enc.finish();
        let mut dec = BitDecoder::new(&bytes);
        for (i, &b) in bits.iter().enumerate() {
            let p = if i % 3 == 0 { Prob::MAX } else { Prob::from_raw(4000) };
            assert_eq!(dec.decode_bit(p), b, "bit {i}");
        }
    }

    #[test]
    fn trailing_zero_trim_round_trips() {
        // Encoding all-zero bits at high P(0) tends to end in zero bytes.
        let p = Prob::MAX;
        let mut enc = BitEncoder::new();
        for _ in 0..64 {
            enc.encode_bit(false, p);
        }
        let bytes = enc.finish();
        let mut dec = BitDecoder::new(&bytes);
        for _ in 0..64 {
            assert!(!dec.decode_bit(p));
        }
    }
}
