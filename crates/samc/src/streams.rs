//! Stream division: cutting fixed-width instructions into bit streams.

use std::error::Error;
use std::fmt;

/// Errors from [`StreamDivision::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDivisionError {
    /// A bit index was `>= width`.
    BitOutOfRange {
        /// The offending bit index.
        bit: u8,
        /// The instruction width.
        width: u8,
    },
    /// The streams do not form a partition of `0..width` (a bit is missing
    /// or assigned twice).
    NotAPartition,
    /// A stream was empty, or there were no streams.
    EmptyStream,
    /// A stream had more than 16 bits (the Markov tree for it would need
    /// more than 2^17 nodes — far past the paper's storage budget).
    StreamTooWide {
        /// Bits in the offending stream.
        bits: usize,
    },
}

impl fmt::Display for BuildDivisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BitOutOfRange { bit, width } => {
                write!(f, "bit index {bit} out of range for width {width}")
            }
            Self::NotAPartition => write!(f, "streams must partition the instruction bits"),
            Self::EmptyStream => write!(f, "streams must be non-empty"),
            Self::StreamTooWide { bits } => {
                write!(f, "stream of {bits} bits exceeds the 16-bit model budget")
            }
        }
    }
}

impl Error for BuildDivisionError {}

/// A partition of an instruction's bits into ordered streams.
///
/// Bit index 0 is the **most significant** bit of the instruction word
/// (the MIPS opcode field starts at bit 0 in this convention).  The paper
/// stresses that a stream's bits need not be adjacent; this type allows any
/// partition.
///
/// # Examples
///
/// ```
/// use cce_samc::StreamDivision;
///
/// let division = StreamDivision::bytes(32);
/// assert_eq!(division.stream_count(), 4);
/// assert_eq!(division.width(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDivision {
    streams: Vec<Vec<u8>>,
    width: u8,
}

impl StreamDivision {
    /// Builds a division from explicit bit-index lists.
    ///
    /// # Errors
    ///
    /// See [`BuildDivisionError`]; the streams must partition `0..width`,
    /// be non-empty, and each hold at most 16 bits.
    pub fn new(streams: Vec<Vec<u8>>, width: u8) -> Result<Self, BuildDivisionError> {
        assert!(width > 0 && width <= 32, "width must be 1..=32");
        if streams.is_empty() || streams.iter().any(Vec::is_empty) {
            return Err(BuildDivisionError::EmptyStream);
        }
        if let Some(bits) = streams.iter().map(Vec::len).find(|&n| n > 16) {
            return Err(BuildDivisionError::StreamTooWide { bits });
        }
        let mut seen = vec![false; usize::from(width)];
        for &bit in streams.iter().flatten() {
            if bit >= width {
                return Err(BuildDivisionError::BitOutOfRange { bit, width });
            }
            if seen[usize::from(bit)] {
                return Err(BuildDivisionError::NotAPartition);
            }
            seen[usize::from(bit)] = true;
        }
        if seen.iter().any(|&s| !s) {
            return Err(BuildDivisionError::NotAPartition);
        }
        Ok(Self { streams, width })
    }

    /// The paper's default: contiguous byte-sized streams
    /// (`width/8` streams of 8 adjacent bits).
    ///
    /// # Panics
    ///
    /// Panics unless `width` is a positive multiple of 8, at most 32.
    pub fn bytes(width: u8) -> Self {
        assert!(width > 0 && width.is_multiple_of(8) && width <= 32);
        let streams = (0..width / 8).map(|s| (s * 8..(s + 1) * 8).collect()).collect();
        Self::new(streams, width).expect("byte partition is valid")
    }

    /// A single stream covering all bits (no subdivision).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 16` (wider single streams exceed the
    /// model budget).
    pub fn single(width: u8) -> Self {
        assert!((1..=16).contains(&width));
        Self::new(vec![(0..width).collect()], width).expect("single stream is valid")
    }

    /// `count` equal contiguous streams.
    ///
    /// # Panics
    ///
    /// Panics unless `count` divides `width` and each stream is ≤ 16 bits.
    pub fn contiguous(width: u8, count: u8) -> Self {
        assert!(count > 0 && width.is_multiple_of(count), "count must divide width");
        let per = width / count;
        let streams = (0..count).map(|s| (s * per..(s + 1) * per).collect()).collect();
        Self::new(streams, width).expect("contiguous partition is valid")
    }

    /// Instruction width in bits (8 for byte streams, 32 for MIPS words).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The bit indices of stream `s` (bit 0 = MSB).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn stream_bits(&self, s: usize) -> &[u8] {
        &self.streams[s]
    }

    /// Extracts the bit at instruction-bit-index `bit` (0 = MSB) of `word`.
    pub fn bit_of(&self, word: u32, bit: u8) -> bool {
        debug_assert!(bit < self.width);
        word >> (self.width - 1 - bit) & 1 == 1
    }

    /// Whether this division splits `width` bits into `streams` streams
    /// of `width / streams` bits each — the shape the division search
    /// works in.  `false` when `streams` is zero or does not divide
    /// `width`: no division has that shape.
    pub(crate) fn splits_evenly(&self, width: u8, streams: usize) -> bool {
        self.width == width
            && self.streams.len() == streams
            && self.streams.iter().all(|s| s.len() * streams == usize::from(width))
    }

    /// Total bits (equals `width`).
    pub fn total_bits(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// FNV-1a 64 over the per-stream bit lists (with `0xFF` separators,
    /// which cannot collide with bit indices — widths stop at 32).
    ///
    /// This is the hash CI pins the optimizer's output against, and the
    /// key the model store uses to compare cached divisions, so it must
    /// stay stable across releases.
    pub fn division_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut hash = OFFSET;
        for stream in &self.streams {
            for &bit in stream {
                hash = (hash ^ u64::from(bit)).wrapping_mul(PRIME);
            }
            hash = (hash ^ 0xFF).wrapping_mul(PRIME);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_division_shape() {
        let d = StreamDivision::bytes(32);
        assert_eq!(d.stream_count(), 4);
        assert_eq!(d.stream_bits(0), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(d.stream_bits(3), &[24, 25, 26, 27, 28, 29, 30, 31]);
        assert_eq!(d.total_bits(), 32);
    }

    #[test]
    fn single_and_contiguous() {
        assert_eq!(StreamDivision::single(8).stream_count(), 1);
        let d = StreamDivision::contiguous(32, 8);
        assert_eq!(d.stream_count(), 8);
        assert_eq!(d.stream_bits(7), &[28, 29, 30, 31]);
    }

    #[test]
    fn msb_bit_convention() {
        let d = StreamDivision::bytes(32);
        assert!(d.bit_of(0x8000_0000, 0));
        assert!(!d.bit_of(0x8000_0000, 1));
        assert!(d.bit_of(0x0000_0001, 31));
    }

    #[test]
    fn non_adjacent_bits_are_allowed() {
        // Interleave even/odd bits of a 8-bit word into two streams.
        let d = StreamDivision::new(vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]], 8).unwrap();
        assert_eq!(d.stream_count(), 2);
    }

    #[test]
    fn partition_violations_are_rejected() {
        assert_eq!(
            StreamDivision::new(vec![vec![0, 1], vec![1, 2]], 3).unwrap_err(),
            BuildDivisionError::NotAPartition
        );
        assert_eq!(
            StreamDivision::new(vec![vec![0]], 2).unwrap_err(),
            BuildDivisionError::NotAPartition
        );
        assert_eq!(
            StreamDivision::new(vec![vec![0, 5]], 4).unwrap_err(),
            BuildDivisionError::BitOutOfRange { bit: 5, width: 4 }
        );
        assert_eq!(StreamDivision::new(vec![], 8).unwrap_err(), BuildDivisionError::EmptyStream);
        assert_eq!(
            StreamDivision::new(vec![vec![], vec![0]], 1).unwrap_err(),
            BuildDivisionError::EmptyStream
        );
    }

    #[test]
    fn division_hash_distinguishes_divisions() {
        let bytes = StreamDivision::bytes(32);
        // Stable across calls and sensitive to both grouping and order.
        assert_eq!(bytes.division_hash(), StreamDivision::bytes(32).division_hash());
        assert_ne!(bytes.division_hash(), StreamDivision::contiguous(32, 8).division_hash());
        let interleaved = StreamDivision::new(vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]], 8).unwrap();
        assert_ne!(interleaved.division_hash(), StreamDivision::bytes(8).division_hash());
    }

    #[test]
    fn wide_streams_are_rejected() {
        let wide: Vec<u8> = (0..17).collect();
        let rest: Vec<u8> = (17..32).collect();
        assert_eq!(
            StreamDivision::new(vec![wide, rest], 32).unwrap_err(),
            BuildDivisionError::StreamTooWide { bits: 17 }
        );
    }
}
