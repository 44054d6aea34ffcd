//! The generic compressed block image shared by every random-access codec.

/// A compressed program divided into independently decompressible blocks.
///
/// Every random-access codec in the workspace (SAMC, SADC, block-Huffman)
/// produces this same image shape: an ordered list of compressed blocks,
/// the uncompressed length each block restores, and the size of the model
/// (dictionaries, probability tables, code books) that must live alongside
/// the blocks in ROM.  Accounting helpers mirror the paper's §5 reporting:
/// [`compressed_len`](Self::compressed_len) always charges the model, and
/// [`ratio_with_lat`](Self::ratio_with_lat) additionally charges the line
/// address table needed for random access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockImage {
    blocks: Vec<Vec<u8>>,
    block_uncompressed: Vec<usize>,
    block_size: usize,
    original_len: usize,
    model_bytes: usize,
}

impl BlockImage {
    /// Largest nominal block size any parser accepts (1 MiB).
    ///
    /// Cache-block codecs use 16–1024 byte blocks; a serialized artifact
    /// claiming more is corrupt, and bounding it caps how much output a
    /// tampered per-block length can demand from a zero-filling decoder.
    /// The `.cce` container, the serving tier's run cap and its info
    /// record share this cap so every serialized surface enforces the
    /// same budget.
    pub const MAX_BLOCK_SIZE: usize = 1 << 20;

    /// Allowance above the nominal block size for a single block's
    /// uncompressed length: instruction-aligned codecs (x86 SADC)
    /// overshoot the nominal size by up to one instruction, and the final
    /// partial block may be anything below it.
    pub const BLOCK_SLACK: usize = 64;

    /// Assembles an image from compressed blocks.
    ///
    /// `block_uncompressed[i]` is the uncompressed byte length block `i`
    /// restores; `block_size` is the codec's nominal block size (actual
    /// blocks may differ for instruction-aligned codecs or the final
    /// partial block).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors disagree in length or the per-block
    /// uncompressed lengths do not sum to `original_len` — those are codec
    /// bugs, not runtime conditions.
    pub fn new(
        blocks: Vec<Vec<u8>>,
        block_uncompressed: Vec<usize>,
        block_size: usize,
        original_len: usize,
        model_bytes: usize,
    ) -> Self {
        assert_eq!(blocks.len(), block_uncompressed.len(), "one uncompressed length per block");
        assert_eq!(
            block_uncompressed.iter().sum::<usize>(),
            original_len,
            "block uncompressed lengths must cover the original text"
        );
        Self { blocks, block_uncompressed, block_size, original_len, model_bytes }
    }

    /// The compressed bytes of block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block(&self, index: usize) -> &[u8] {
        &self.blocks[index]
    }

    /// Number of blocks in the image.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The codec's nominal uncompressed block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Uncompressed byte length restored by block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_uncompressed_len(&self, index: usize) -> usize {
        self.block_uncompressed[index]
    }

    /// Compressed sizes of all blocks in order, for LAT construction.
    pub fn block_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().map(Vec::len)
    }

    /// Length of the original uncompressed text in bytes.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Bytes of codec model (tables, dictionaries) charged to the image.
    pub fn model_bytes(&self) -> usize {
        self.model_bytes
    }

    /// Total compressed size: all blocks plus the model.
    pub fn compressed_len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>() + self.model_bytes
    }

    /// Bytes required by a line address table indexing every block.
    ///
    /// Each LAT entry stores a block's byte offset into the compressed
    /// stream; entries are sized to address the full stream.
    pub fn lat_bytes(&self) -> usize {
        let total: usize = self.blocks.iter().map(Vec::len).sum();
        if self.blocks.is_empty() {
            return 0;
        }
        let entry_bits = usize::BITS - total.next_power_of_two().leading_zeros();
        (self.blocks.len() * entry_bits as usize).div_ceil(8)
    }

    /// Compression ratio (compressed including model / original).
    pub fn ratio(&self) -> f64 {
        self.compressed_len() as f64 / self.original_len as f64
    }

    /// Compression ratio charging the line address table as well.
    pub fn ratio_with_lat(&self) -> f64 {
        (self.compressed_len() + self.lat_bytes()) as f64 / self.original_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlockImage {
        BlockImage::new(vec![vec![1, 2, 3], vec![4], vec![]], vec![32, 32, 16], 32, 80, 10)
    }

    #[test]
    fn accounting_is_consistent() {
        let image = sample();
        assert_eq!(image.block_count(), 3);
        assert_eq!(image.block(1), &[4]);
        assert_eq!(image.block_uncompressed_len(2), 16);
        assert_eq!(image.compressed_len(), 4 + 10);
        assert!(image.ratio() > 0.0);
        assert!(image.ratio_with_lat() >= image.ratio());
        assert!(image.lat_bytes() > 0);
    }

    #[test]
    fn empty_image_lat_is_zero() {
        let image = BlockImage::new(Vec::new(), Vec::new(), 32, 0, 0);
        assert_eq!(image.lat_bytes(), 0);
    }
}
