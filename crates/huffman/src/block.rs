//! Byte-based Huffman block compression (the Kozuch–Wolfe baseline).
//!
//! Kozuch & Wolfe (ICCD 1994) compress embedded programs with a single
//! program-wide Huffman code over *bytes*, restarting at cache-block
//! boundaries so any block is independently decompressible.  The DAC'98
//! paper uses this scheme (compression ratio ≈ 0.73 on MIPS) as the prior
//! state of the art in Fig. 9; SAMC and SADC both beat it because a byte
//! code ignores instruction-field structure and inter-instruction
//! dependence.
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_huffman::block::ByteBlockCodec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program: Vec<u8> = (0..4096).map(|i| (i % 7) as u8).collect();
//! let codec = ByteBlockCodec::train(&program, 32)?;
//! let image = codec.compress(&program)?;
//! assert!(image.compressed_len() < program.len());
//!
//! let block1 = codec.decompress_block(image.block(1), 32)?;
//! assert_eq!(block1, &program[32..64]);
//! # Ok(())
//! # }
//! ```

use crate::codebook::CodeBook;
use cce_bitstream::{BitReader, BitWriter, ByteCursor};
use cce_codec::{BlockCodec, CodecError};

/// Longest codeword the byte codec will assign; 16 bits keeps the hardware
/// table decoder's shift register small.
const MAX_CODE_LEN: u8 = 16;

/// Magic number opening a serialized [`ByteBlockCodec`].
const MAGIC: &[u8; 4] = b"CHUF";
/// Serialization format version.
const VERSION: u16 = 1;
/// Bits per serialized code length (codewords are at most 16 bits).
const LEN_BITS: u32 = 5;

/// Program-wide byte Huffman codec with block restart.
#[derive(Debug, Clone)]
pub struct ByteBlockCodec {
    book: CodeBook,
    /// One-load decode acceleration (derived from `book`).
    table: crate::DecodeTable,
    block_size: usize,
}

impl ByteBlockCodec {
    /// Gathers byte statistics over the whole program (the semiadaptive
    /// pass) and builds the shared code table for `block_size`-byte
    /// cache blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for an empty program or a zero block
    /// size.
    pub fn train(program: &[u8], block_size: usize) -> Result<Self, CodecError> {
        if block_size == 0 {
            return Err(CodecError::train("huffman", "block size must be positive"));
        }
        let mut freqs = [0u64; 256];
        for &b in program {
            freqs[usize::from(b)] += 1;
        }
        let book = CodeBook::from_frequencies(&freqs, MAX_CODE_LEN)
            .map_err(|e| CodecError::from(e).named("huffman"))?;
        let table = book.decode_table();
        Ok(Self { book, table, block_size })
    }

    /// The underlying code book.
    pub fn code_book(&self) -> &CodeBook {
        &self.book
    }

    /// Size of the serialized code table: 256 lengths at 5 bits, rounded up.
    pub fn table_bytes(&self) -> usize {
        (256usize * LEN_BITS as usize).div_ceil(8)
    }

    /// Reads a codec previously written by [`BlockCodec::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on bad magic, truncation, or code
    /// lengths that do not form a valid prefix code.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let named = |e: CodecError| e.named("huffman");
        let mut cursor = ByteCursor::new(bytes);
        let magic = cursor.read_bytes(4).map_err(|e| named(e.into()))?;
        if magic != MAGIC {
            return Err(CodecError::corrupt("huffman", "bad magic number"));
        }
        let version = cursor.read_u16_be().map_err(|e| named(e.into()))?;
        if version != VERSION {
            return Err(CodecError::corrupt("huffman", format!("unsupported version {version}")));
        }
        let block_size = cursor.read_u32_be().map_err(|e| named(e.into()))? as usize;
        if block_size == 0 {
            return Err(CodecError::corrupt("huffman", "zero block size"));
        }
        let mut r = BitReader::new(cursor.read_bytes(cursor.remaining()).expect("length checked"));
        let mut lengths = Vec::with_capacity(256);
        for _ in 0..256 {
            let len = r.read_bits(LEN_BITS).map_err(|e| named(CodecError::from(e)))?;
            lengths.push(len as u8);
        }
        let book = CodeBook::from_lengths(lengths)
            .map_err(|_| CodecError::corrupt("huffman", "invalid code lengths"))?;
        let table = book.decode_table();
        Ok(Self { book, table, block_size })
    }
}

impl BlockCodec for ByteBlockCodec {
    fn name(&self) -> &'static str {
        "huffman"
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn model_bytes(&self) -> usize {
        self.table_bytes()
    }

    /// Serializes the codec: magic, version, block size, then the 256
    /// canonical code lengths at 5 bits each.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&(self.block_size as u32).to_be_bytes());
        let mut w = BitWriter::new();
        for symbol in 0..=255u16 {
            w.write_bits(u32::from(self.book.length(symbol)), LEN_BITS);
        }
        w.align_to_byte();
        out.extend_from_slice(w.as_bytes());
        out
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::COMPRESS_SPAN.time();
        crate::obs::ENCODED_SYMBOLS.add(chunk.len() as u64);
        let mut w = BitWriter::new();
        for &b in chunk {
            if self.book.length(u16::from(b)) == 0 {
                return Err(CodecError::train(
                    "huffman",
                    format!("byte {b:#04x} was absent from the training program"),
                ));
            }
            self.book.encode(&mut w, u16::from(b));
        }
        w.align_to_byte();
        Ok(w.into_bytes())
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::DECOMPRESS_SPAN.time();
        crate::obs::DECODED_SYMBOLS.add(out_len as u64);
        let mut r = BitReader::new(block);
        let mut out = Vec::with_capacity(out_len);
        for _ in 0..out_len {
            let symbol =
                self.table.decode(&mut r).map_err(|e| CodecError::from(e).named("huffman"))?;
            out.push(symbol as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program(len: usize) -> Vec<u8> {
        // Byte-skewed source resembling opcode-heavy code.
        (0..len)
            .map(|i| match i % 10 {
                0..=5 => (i % 4) as u8,
                6..=8 => (i % 16) as u8,
                _ => (i * 31 % 256) as u8,
            })
            .collect()
    }

    #[test]
    fn whole_program_round_trips() {
        let program = sample_program(1000);
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let image = codec.compress(&program).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), program);
    }

    #[test]
    fn every_block_is_independently_decodable() {
        let program = sample_program(512);
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let image = codec.compress(&program).unwrap();
        for (i, chunk) in program.chunks(32).enumerate() {
            let decoded = codec.decompress_block(image.block(i), chunk.len()).unwrap();
            assert_eq!(decoded, chunk, "block {i}");
        }
    }

    #[test]
    fn short_final_block_is_handled() {
        let program = sample_program(100); // 3 full blocks + 4 bytes
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let image = codec.compress(&program).unwrap();
        assert_eq!(image.block_count(), 4);
        assert_eq!(codec.decompress(&image).unwrap(), program);
    }

    #[test]
    fn skewed_source_compresses_below_unity() {
        let program = sample_program(8192);
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let image = codec.compress(&program).unwrap();
        assert!(image.ratio() < 1.0, "ratio {}", image.ratio());
        assert_eq!(image.original_len(), 8192);
    }

    #[test]
    fn uniform_random_source_does_not_compress() {
        // A source using all 256 bytes uniformly: ratio ≈ 1 + table overhead.
        let program: Vec<u8> = (0..4096).map(|i| (i * 167 % 256) as u8).collect();
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let image = codec.compress(&program).unwrap();
        assert!(image.ratio() > 0.95);
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(matches!(
            ByteBlockCodec::train(&[], 32),
            Err(CodecError::Train { codec: "huffman", .. })
        ));
        assert!(ByteBlockCodec::train(b"abc", 0).is_err());
    }

    #[test]
    fn block_size_accounting() {
        let program = sample_program(256);
        let codec = ByteBlockCodec::train(&program, 64).unwrap();
        let image = codec.compress(&program).unwrap();
        assert_eq!(image.block_size(), 64);
        let block_total: usize = (0..image.block_count()).map(|i| image.block(i).len()).sum();
        assert_eq!(image.compressed_len(), block_total + codec.table_bytes());
    }

    #[test]
    fn untrained_byte_is_a_train_error_not_a_panic() {
        let codec = ByteBlockCodec::train(b"aaaabbbb", 4).unwrap();
        let err = BlockCodec::compress(&codec, b"aaaz").unwrap_err();
        assert!(matches!(err, CodecError::Train { codec: "huffman", .. }));
    }

    #[test]
    fn serialization_round_trips() {
        let program = sample_program(600);
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let bytes = codec.to_bytes();
        assert_eq!(bytes.len(), 4 + 2 + 4 + codec.table_bytes());
        let restored = ByteBlockCodec::from_bytes(&bytes).unwrap();
        assert_eq!(restored.block_size(), 32);
        assert_eq!(restored.code_book().lengths(), codec.code_book().lengths());
        assert_eq!(restored.compress(&program).unwrap(), codec.compress(&program).unwrap());
    }

    #[test]
    fn corrupt_serialization_fails_cleanly() {
        let program = sample_program(600);
        let codec = ByteBlockCodec::train(&program, 32).unwrap();
        let bytes = codec.to_bytes();
        for len in 0..bytes.len() {
            assert!(ByteBlockCodec::from_bytes(&bytes[..len]).is_err(), "prefix {len}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ByteBlockCodec::from_bytes(&bad).is_err());
        // All-zero lengths: structurally readable but not a valid code.
        let mut zeros = bytes.clone();
        for b in &mut zeros[10..] {
            *b = 0;
        }
        assert!(matches!(
            ByteBlockCodec::from_bytes(&zeros),
            Err(CodecError::Corrupt { codec: "huffman", .. })
        ));
    }
}
