//! The `BlockCodec` / `FileCodec` abstraction every algorithm implements.

use std::ops::Range;

use crate::error::CodecError;
use crate::image::BlockImage;

/// A random-access code compressor: trainable, block-granular, honest
/// about its model overhead.
///
/// Implementors provide the per-block primitives
/// ([`compress_chunk`](Self::compress_chunk) and
/// [`decompress_block`](Self::decompress_block))
/// plus sizing metadata; the trait supplies whole-program
/// [`compress`](Self::compress) / [`decompress`](Self::decompress) built
/// on top, so every codec produces the same [`BlockImage`] shape and the
/// measurement harness, CLI, and memory simulator can treat them
/// uniformly as `&dyn BlockCodec`.
///
/// Codecs with instruction-aligned variable blocks (x86 SADC) override
/// [`block_ranges`](Self::block_ranges); byte-aligned codecs use the
/// default uniform chunking.
pub trait BlockCodec: Send + Sync {
    /// Display name matching the paper's tables (e.g. `"SAMC"`).
    fn name(&self) -> &'static str;

    /// Nominal uncompressed block size in bytes.
    fn block_size(&self) -> usize;

    /// Bytes of model (tables, dictionaries) the image must carry.
    fn model_bytes(&self) -> usize;

    /// Serializes the trained codec to a self-describing byte vector.
    fn to_bytes(&self) -> Vec<u8>;

    /// Splits `text` into the byte ranges that become blocks.
    ///
    /// The default chunks uniformly at [`block_size`](Self::block_size)
    /// with a final partial block. Ranges must be contiguous, in order,
    /// and cover all of `text`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] when `text` cannot be divided (e.g.
    /// not instruction-aligned for an instruction-aware codec).
    fn block_ranges(&self, text: &[u8]) -> Result<Vec<Range<usize>>, CodecError> {
        let size = self.block_size();
        assert!(size > 0, "block size must be positive");
        let mut ranges = Vec::with_capacity(text.len().div_ceil(size));
        let mut start = 0;
        while start < text.len() {
            let end = (start + size).min(text.len());
            ranges.push(start..end);
            start = end;
        }
        Ok(ranges)
    }

    /// Compresses one uncompressed chunk into one compressed block.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] when the chunk contains data the
    /// trained model cannot encode.
    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Decompresses one block back to exactly `out_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] when the block's structure does not
    /// match the trained model or the stream is truncated.
    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError>;

    /// Compresses a whole program into a [`BlockImage`].
    ///
    /// Provided: divides `text` via [`block_ranges`](Self::block_ranges)
    /// and compresses each chunk independently, which is also what makes
    /// [`compress_parallel`](crate::compress_parallel)'s per-block
    /// fan-out trivially equivalent to this serial path.
    ///
    /// # Errors
    ///
    /// Propagates chunking and per-chunk compression failures.
    fn compress(&self, text: &[u8]) -> Result<BlockImage, CodecError> {
        let ranges = self.block_ranges(text)?;
        let mut blocks = Vec::with_capacity(ranges.len());
        let mut block_uncompressed = Vec::with_capacity(ranges.len());
        for range in ranges {
            block_uncompressed.push(range.len());
            blocks.push(self.compress_chunk(&text[range])?);
        }
        Ok(BlockImage::new(
            blocks,
            block_uncompressed,
            self.block_size(),
            text.len(),
            self.model_bytes(),
        ))
    }

    /// Decompresses every block of `image` and concatenates the result.
    ///
    /// # Errors
    ///
    /// Propagates the first per-block decompression failure.
    fn decompress(&self, image: &BlockImage) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(image.original_len());
        for index in 0..image.block_count() {
            out.extend_from_slice(
                &self.decompress_block(image.block(index), image.block_uncompressed_len(index))?,
            );
        }
        Ok(out)
    }
}

/// A whole-file compressor without random access (the paper's `compress`
/// and `gzip` baselines).
///
/// File codecs need no training and no block structure; they exist so the
/// measurement harness can report their ratios alongside the
/// random-access codecs while making the missing capability explicit in
/// the type system.
pub trait FileCodec: Send + Sync {
    /// Display name matching the paper's tables (e.g. `"gzip"`).
    fn name(&self) -> &'static str;

    /// Compresses `data` as one unit.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses a buffer produced by [`compress`](Self::compress).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on malformed input.
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial verbatim codec exercising the provided methods.
    struct Verbatim {
        block_size: usize,
    }

    impl BlockCodec for Verbatim {
        fn name(&self) -> &'static str {
            "verbatim"
        }

        fn block_size(&self) -> usize {
            self.block_size
        }

        fn model_bytes(&self) -> usize {
            7
        }

        fn to_bytes(&self) -> Vec<u8> {
            vec![self.block_size as u8]
        }

        fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
            Ok(chunk.to_vec())
        }

        fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
            if block.len() != out_len {
                return Err(CodecError::corrupt("verbatim", "length mismatch"));
            }
            Ok(block.to_vec())
        }
    }

    #[test]
    fn default_ranges_cover_text_with_partial_tail() {
        let codec = Verbatim { block_size: 4 };
        let ranges = codec.block_ranges(&[0u8; 10]).unwrap();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert!(codec.block_ranges(&[]).unwrap().is_empty());
    }

    #[test]
    fn provided_compress_and_decompress_round_trip() {
        let codec = Verbatim { block_size: 4 };
        let text: Vec<u8> = (0..10).collect();
        let image = codec.compress(&text).unwrap();
        assert_eq!(image.block_count(), 3);
        assert_eq!(image.model_bytes(), 7);
        assert_eq!(image.block_uncompressed_len(2), 2);
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn trait_objects_are_usable() {
        let codec: Box<dyn BlockCodec> = Box::new(Verbatim { block_size: 8 });
        let image = codec.compress(b"hello world").unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), b"hello world");
    }
}
