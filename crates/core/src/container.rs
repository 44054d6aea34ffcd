//! The `.cce` container format shared by the CLI and the fuzz harness.
//!
//! A `.cce` artifact packages everything the decompressor needs: the
//! trained codec model, the compressed blocks, and enough ELF identity
//! (ISA, class, endianness, entry point) to rebuild a loadable
//! executable around the decompressed text section.
//!
//! The layout (magic `CCE2`, all integers big-endian) is the paper's
//! compressed memory image: the blocks plus a line address table.
//! Blocks are written raw in index order ([`write_image`]), and a
//! per-block offset index lands *after* the data so the whole artifact
//! is written in one forward pass.  A fixed-size
//! footer points back at the index, so a reader seeks to any single
//! block without touching the ones before it:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CCE2"
//!      4    12  identity (tag, isa, class, endianness, entry)
//!     16     4  nominal block size
//!     20     4  codec model bytes charged to the image (accounting)
//!     24     4  codec model length N
//!     28     N  serialized codec model
//!   28+N     D  compressed blocks, concatenated in index order
//! 28+N+D  16×B index: per block u64 offset (into D), u32 compressed
//!               length, u32 uncompressed length
//!    end    28  footer: u64 index offset, u64 block count B,
//!               u64 original text length, magic "CIDX"
//! ```
//!
//! Parsing enforces corruption caps ([`BlockImage::MAX_BLOCK_SIZE`],
//! [`BlockImage::BLOCK_SLACK`], dense canonical offsets) so a tampered
//! index cannot demand unbounded output or out-of-extent reads.

use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

use crate::registry::{Algorithm, CodecHandle};
use cce_codec::{BlockCodec, BlockImage, CodecError};
use cce_elf::{Class, Endianness};
use cce_isa::Isa;

/// Magic number opening a v2 (indexed) `.cce` container.
pub const CONTAINER_V2_MAGIC: &[u8; 4] = b"CCE2";

/// Magic number closing the v2 footer.
const INDEX_MAGIC: &[u8; 4] = b"CIDX";

/// Name used in [`CodecError::Corrupt`] raised by container parsing.
const SELF: &str = "container";

/// Byte length of the shared identity block (tag through entry point).
pub(crate) const IDENTITY_LEN: usize = 12;

/// Fixed v2 header length: magic + identity + block size + model bytes
/// + codec length.
const V2_HEADER_LEN: usize = 4 + IDENTITY_LEN + 4 + 4 + 4;

/// Bytes per v2 index entry: u64 offset + u32 compressed + u32
/// uncompressed.
const INDEX_ENTRY_LEN: usize = 16;

/// Fixed v2 footer length: index offset + block count + original length
/// + magic.
const V2_FOOTER_LEN: usize = 8 + 8 + 8 + 4;

/// The executable identity stamped into every container: which codec
/// produced the blocks and what ELF shell to rebuild around the
/// decompressed text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerIdentity {
    /// The codec that produced the blocks (always random-access).
    pub algorithm: Algorithm,
    /// Instruction set of the compressed text.
    pub isa: Isa,
    /// ELF class of the original executable.
    pub class: Class,
    /// Endianness of the original executable.
    pub endianness: Endianness,
    /// ELF entry point of the original executable.
    pub entry: u64,
}

impl ContainerIdentity {
    /// Appends the 12-byte identity encoding.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.algorithm.tag());
        out.push(match self.isa {
            Isa::Mips => 0,
            Isa::X86 => 1,
        });
        out.push(match self.class {
            Class::Elf32 => 0,
            Class::Elf64 => 1,
        });
        out.push(match self.endianness {
            Endianness::Little => 0,
            Endianness::Big => 1,
        });
        out.extend_from_slice(&self.entry.to_be_bytes());
    }

    /// Parses the 12-byte identity block.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on an unknown or file-oriented codec tag,
    /// or an ISA, class or endianness byte outside its encoding.
    pub(crate) fn parse(bytes: &[u8; IDENTITY_LEN]) -> Result<Self, CodecError> {
        let algorithm = Algorithm::from_tag(bytes[0])
            .ok_or_else(|| CodecError::corrupt(SELF, "unknown codec tag"))?;
        if !algorithm.random_access() {
            return Err(CodecError::corrupt(SELF, "container holds a file-oriented codec tag"));
        }
        let isa = match bytes[1] {
            0 => Isa::Mips,
            1 => Isa::X86,
            _ => return Err(CodecError::corrupt(SELF, "unknown isa tag")),
        };
        let class = match bytes[2] {
            0 => Class::Elf32,
            1 => Class::Elf64,
            _ => return Err(CodecError::corrupt(SELF, "unknown elf class tag")),
        };
        let endianness = match bytes[3] {
            0 => Endianness::Little,
            1 => Endianness::Big,
            _ => return Err(CodecError::corrupt(SELF, "unknown endianness tag")),
        };
        let entry = u64::from_be_bytes(bytes[4..12].try_into().expect("8 bytes"));
        Ok(Self { algorithm, isa, class, endianness, entry })
    }
}

/// Size accounting for a finished v2 container, mirroring
/// [`BlockImage`]'s reporting so container and in-memory measurements
/// are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSummary {
    /// Number of blocks written.
    pub blocks: usize,
    /// Total compressed block payload bytes (model excluded).
    pub data_len: u64,
    /// Uncompressed text length covered by the blocks.
    pub original_len: u64,
    /// Codec model bytes charged to the image.
    pub model_bytes: usize,
    /// Total artifact size on disk, header through footer.
    pub total_len: u64,
}

impl ContainerSummary {
    /// Compressed size in the paper's accounting: blocks plus model.
    pub fn compressed_len(&self) -> usize {
        self.data_len as usize + self.model_bytes
    }

    /// Bytes required by a line address table indexing every block —
    /// the same sizing rule as [`BlockImage::lat_bytes`].
    pub fn lat_bytes(&self) -> usize {
        if self.blocks == 0 {
            return 0;
        }
        let entry_bits = usize::BITS - (self.data_len as usize).next_power_of_two().leading_zeros();
        (self.blocks * entry_bits as usize).div_ceil(8)
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

/// Writes `image` as a complete v2 container on `out` in one forward
/// pass — header, codec model, blocks in index order, offset index,
/// footer — and returns the size accounting.
///
/// `out` only ever moves forward, so it may be a growing file or an
/// in-memory buffer alike.
///
/// # Errors
///
/// [`CodecError::Unsupported`] for a file-oriented algorithm (those have
/// no block stream to index) and [`CodecError::Corrupt`] when a field
/// exceeds its wire width or the underlying writer fails.
pub fn write_image<W: Write>(
    mut out: W,
    identity: ContainerIdentity,
    codec_bytes: &[u8],
    image: &BlockImage,
) -> Result<ContainerSummary, CodecError> {
    if !identity.algorithm.random_access() {
        return Err(CodecError::unsupported(SELF, "v2 containers hold random-access codecs only"));
    }
    let block_size = u32::try_from(image.block_size())
        .ok()
        .filter(|&b| b > 0 && b as usize <= BlockImage::MAX_BLOCK_SIZE)
        .ok_or_else(|| CodecError::corrupt(SELF, "block size exceeds limit"))?;
    let model = u32::try_from(image.model_bytes())
        .map_err(|_| CodecError::corrupt(SELF, "model accounting exceeds u32"))?;
    let codec_len = u32::try_from(codec_bytes.len())
        .map_err(|_| CodecError::corrupt(SELF, "codec model exceeds u32"))?;
    let mut header = Vec::with_capacity(V2_HEADER_LEN + codec_bytes.len());
    header.extend_from_slice(CONTAINER_V2_MAGIC);
    identity.encode(&mut header);
    header.extend_from_slice(&block_size.to_be_bytes());
    header.extend_from_slice(&model.to_be_bytes());
    header.extend_from_slice(&codec_len.to_be_bytes());
    header.extend_from_slice(codec_bytes);
    out.write_all(&header).map_err(io_corrupt)?;

    let blocks = image.block_count();
    let mut tail = Vec::with_capacity(blocks * INDEX_ENTRY_LEN + V2_FOOTER_LEN);
    let mut data_len = 0u64;
    for index in 0..blocks {
        let block = image.block(index);
        let compressed = u32::try_from(block.len())
            .map_err(|_| CodecError::corrupt(SELF, "compressed block exceeds u32"))?;
        let uncompressed = u32::try_from(image.block_uncompressed_len(index))
            .map_err(|_| CodecError::corrupt(SELF, "uncompressed block exceeds u32"))?;
        out.write_all(block).map_err(io_corrupt)?;
        tail.extend_from_slice(&data_len.to_be_bytes());
        tail.extend_from_slice(&compressed.to_be_bytes());
        tail.extend_from_slice(&uncompressed.to_be_bytes());
        data_len += u64::from(compressed);
    }
    let index_offset = header.len() as u64 + data_len;
    let original_len = image.original_len() as u64;
    tail.extend_from_slice(&index_offset.to_be_bytes());
    tail.extend_from_slice(&(blocks as u64).to_be_bytes());
    tail.extend_from_slice(&original_len.to_be_bytes());
    tail.extend_from_slice(INDEX_MAGIC);
    out.write_all(&tail).map_err(io_corrupt)?;
    out.flush().map_err(io_corrupt)?;
    Ok(ContainerSummary {
        blocks,
        data_len,
        original_len,
        model_bytes: image.model_bytes(),
        total_len: index_offset + tail.len() as u64,
    })
}

/// Encodes an in-memory [`BlockImage`] as a complete v2 container
/// ([`write_image`] into a fresh buffer).
///
/// # Errors
///
/// As [`write_image`].
pub fn encode_image(
    identity: ContainerIdentity,
    codec_bytes: &[u8],
    image: &BlockImage,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    write_image(&mut out, identity, codec_bytes, image)?;
    Ok(out)
}

/// Maps an I/O failure on the container stream to the workspace error
/// type (which deliberately has no I/O variant — see `CodecError` docs).
fn io_corrupt(e: std::io::Error) -> CodecError {
    CodecError::corrupt(SELF, format!("container io error: {e}"))
}

/// Random-access reader for v2 containers.
///
/// [`open`](Self::open) reads the header, the codec model, and the
/// index trailer — never the block data.  [`read_block`](Self::read_block)
/// then seeks directly to one block, so decoding block *i* touches
/// `O(1)` artifact bytes regardless of *i* (the property the v2 layout
/// exists for, and which `tests/streaming.rs` proves with a counting
/// reader).
#[derive(Debug)]
pub struct ContainerV2Reader<R: Read + Seek> {
    reader: R,
    identity: ContainerIdentity,
    block_size: usize,
    model_bytes: usize,
    codec_bytes: Vec<u8>,
    data_start: u64,
    index: Vec<(u64, u32, u32)>,
    original_len: u64,
}

impl<R: Read + Seek> ContainerV2Reader<R> {
    /// Opens a v2 container, validating the header, footer, and index.
    ///
    /// Enforces the corruption caps: block size within
    /// [`BlockImage::MAX_BLOCK_SIZE`], per-block
    /// uncompressed lengths within block size +
    /// [`BlockImage::BLOCK_SLACK`], offsets dense and in-bounds, and
    /// per-block lengths summing to the claimed original length.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on any structural violation or I/O
    /// failure; this function never panics on malformed input.
    pub fn open(mut reader: R) -> Result<Self, CodecError> {
        let stream_len = reader.seek(SeekFrom::End(0)).map_err(io_corrupt)?;
        if stream_len < (V2_HEADER_LEN + V2_FOOTER_LEN) as u64 {
            return Err(CodecError::corrupt(SELF, "not a cce v2 container"));
        }

        let mut header = [0u8; V2_HEADER_LEN];
        reader.seek(SeekFrom::Start(0)).map_err(io_corrupt)?;
        reader.read_exact(&mut header).map_err(io_corrupt)?;
        if &header[0..4] != CONTAINER_V2_MAGIC {
            return Err(CodecError::corrupt(SELF, "not a cce v2 container"));
        }
        let identity = ContainerIdentity::parse(header[4..16].try_into().expect("identity"))?;
        let block_size = u32::from_be_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
        if block_size == 0 || block_size > BlockImage::MAX_BLOCK_SIZE {
            return Err(CodecError::corrupt(SELF, "block size exceeds limit"));
        }
        let model_bytes = u32::from_be_bytes(header[20..24].try_into().expect("4 bytes")) as usize;
        let codec_len = u32::from_be_bytes(header[24..28].try_into().expect("4 bytes")) as u64;

        let data_start = V2_HEADER_LEN as u64 + codec_len;
        let footer_start = stream_len - V2_FOOTER_LEN as u64;
        if data_start > footer_start {
            return Err(CodecError::corrupt(SELF, "container truncated"));
        }

        let mut footer = [0u8; V2_FOOTER_LEN];
        reader.seek(SeekFrom::Start(footer_start)).map_err(io_corrupt)?;
        reader.read_exact(&mut footer).map_err(io_corrupt)?;
        if &footer[24..28] != INDEX_MAGIC {
            return Err(CodecError::corrupt(SELF, "bad index magic"));
        }
        let index_offset = u64::from_be_bytes(footer[0..8].try_into().expect("8 bytes"));
        let block_count = u64::from_be_bytes(footer[8..16].try_into().expect("8 bytes"));
        let original_len = u64::from_be_bytes(footer[16..24].try_into().expect("8 bytes"));
        if index_offset < data_start || index_offset > footer_start {
            return Err(CodecError::corrupt(SELF, "index offset out of bounds"));
        }
        let index_len = footer_start - index_offset;
        // The index extent must hold exactly the claimed entries — the
        // writer emits a canonical layout with no slack, and checking it
        // bounds the allocation below by the actual artifact size.
        if block_count.checked_mul(INDEX_ENTRY_LEN as u64) != Some(index_len) {
            return Err(CodecError::corrupt(SELF, "block count disagrees with index size"));
        }
        let block_count = block_count as usize;
        let data_len = index_offset - data_start;

        let mut codec_bytes = vec![0u8; codec_len as usize];
        reader.seek(SeekFrom::Start(V2_HEADER_LEN as u64)).map_err(io_corrupt)?;
        reader.read_exact(&mut codec_bytes).map_err(io_corrupt)?;

        let mut index_bytes = vec![0u8; index_len as usize];
        reader.seek(SeekFrom::Start(index_offset)).map_err(io_corrupt)?;
        reader.read_exact(&mut index_bytes).map_err(io_corrupt)?;

        let mut index = Vec::with_capacity(block_count);
        let mut expected_offset = 0u64;
        let mut uncompressed_total = 0u64;
        for entry in index_bytes.chunks_exact(INDEX_ENTRY_LEN) {
            let offset = u64::from_be_bytes(entry[0..8].try_into().expect("8 bytes"));
            let compressed = u32::from_be_bytes(entry[8..12].try_into().expect("4 bytes"));
            let uncompressed = u32::from_be_bytes(entry[12..16].try_into().expect("4 bytes"));
            // Blocks are written back to back; anything else is tampering.
            if offset != expected_offset {
                return Err(CodecError::corrupt(SELF, "index offsets are not dense"));
            }
            if uncompressed as usize > block_size + BlockImage::BLOCK_SLACK {
                return Err(CodecError::corrupt(
                    SELF,
                    "block uncompressed length exceeds block size",
                ));
            }
            expected_offset = expected_offset
                .checked_add(u64::from(compressed))
                .ok_or_else(|| CodecError::corrupt(SELF, "compressed total overflows"))?;
            uncompressed_total += u64::from(uncompressed);
            index.push((offset, compressed, uncompressed));
        }
        if expected_offset != data_len {
            return Err(CodecError::corrupt(SELF, "block data disagrees with index size"));
        }
        if uncompressed_total != original_len {
            return Err(CodecError::corrupt(
                SELF,
                "block lengths do not sum to the original length",
            ));
        }

        Ok(Self {
            reader,
            identity,
            block_size,
            model_bytes,
            codec_bytes,
            data_start,
            index,
            original_len,
        })
    }

    /// The executable identity stamped into the header.
    pub fn identity(&self) -> ContainerIdentity {
        self.identity
    }

    /// The codec's nominal uncompressed block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Serialized codec model (feed to `CodecBuilder::codec_from_bytes`).
    pub fn codec_bytes(&self) -> &[u8] {
        &self.codec_bytes
    }

    /// Rebuilds the block codec the container was written with, from
    /// its identity and serialized model.
    ///
    /// # Errors
    ///
    /// Any `CodecBuilder::codec_from_bytes` failure.
    pub fn block_codec(&self) -> Result<Box<dyn BlockCodec>, CodecError> {
        let builder = self.identity.algorithm.build(self.identity.isa, self.block_size);
        match builder.codec_from_bytes(&self.codec_bytes)? {
            CodecHandle::Block(codec) => Ok(codec),
            CodecHandle::File(_) => Err(CodecError::corrupt(SELF, "file-oriented codec")),
        }
    }

    /// Byte offset of the first block: the header and model length.
    pub(crate) fn data_start(&self) -> u64 {
        self.data_start
    }

    /// Where block `index` lies in the container: its byte range.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn block_range(&self, index: usize) -> Range<u64> {
        let (offset, compressed, _) = self.index[index];
        let start = self.data_start + offset;
        start..start + u64::from(compressed)
    }

    /// Number of blocks in the container.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Uncompressed byte length restored by block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_uncompressed_len(&self, index: usize) -> usize {
        self.index[index].2 as usize
    }

    /// Length of the original uncompressed text in bytes.
    pub fn original_len(&self) -> u64 {
        self.original_len
    }

    /// Size accounting identical to what the writer reported.
    pub fn summary(&self) -> ContainerSummary {
        let data_len: u64 = self.index.iter().map(|&(_, c, _)| u64::from(c)).sum();
        ContainerSummary {
            blocks: self.index.len(),
            data_len,
            original_len: self.original_len,
            model_bytes: self.model_bytes,
            total_len: self.data_start
                + data_len
                + (self.index.len() * INDEX_ENTRY_LEN + V2_FOOTER_LEN) as u64,
        }
    }

    /// Reads the compressed bytes of block `index` with a single seek —
    /// no other block is touched.
    ///
    /// Returns the compressed bytes and the uncompressed length the
    /// block restores (the second argument to
    /// [`BlockCodec::decompress_block`]).
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when `index` is out of range or the read
    /// fails.
    pub fn read_block(&mut self, index: usize) -> Result<(Vec<u8>, usize), CodecError> {
        if index >= self.index.len() {
            return Err(CodecError::corrupt(SELF, format!("block {index} out of range")));
        }
        let data = self.read_raw(self.block_range(index))?;
        Ok((data, self.index[index].2 as usize))
    }

    /// Reads the container's bytes in `range` with a single seek.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when the read fails or runs past the end.
    pub(crate) fn read_raw(&mut self, range: Range<u64>) -> Result<Vec<u8>, CodecError> {
        let len = usize::try_from(range.end.saturating_sub(range.start))
            .map_err(|_| CodecError::corrupt(SELF, "range exceeds memory"))?;
        let mut data = vec![0u8; len];
        self.reader.seek(SeekFrom::Start(range.start)).map_err(io_corrupt)?;
        self.reader.read_exact(&mut data).map_err(io_corrupt)?;
        Ok(data)
    }

    /// Decodes every block in order and returns the reassembled text.
    ///
    /// # Errors
    ///
    /// Propagates read failures and per-block decode errors from
    /// `codec`; fails with [`CodecError::Corrupt`] if a block decodes to
    /// a length other than the one the index claims.
    pub fn decode_text(&mut self, codec: &dyn BlockCodec) -> Result<Vec<u8>, CodecError> {
        let mut text = Vec::with_capacity(self.original_len as usize);
        for index in 0..self.block_count() {
            let (data, out_len) = self.read_block(index)?;
            let block = codec.decompress_block(&data, out_len)?;
            if block.len() != out_len {
                return Err(CodecError::corrupt(
                    SELF,
                    format!(
                        "block {index} decoded to {} bytes, index claims {out_len}",
                        block.len()
                    ),
                ));
            }
            text.extend_from_slice(&block);
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_identity() -> ContainerIdentity {
        ContainerIdentity {
            algorithm: Algorithm::Samc,
            isa: Isa::Mips,
            class: Class::Elf32,
            endianness: Endianness::Big,
            entry: 0x40_0000,
        }
    }

    /// Builds a small v2 container with the given blocks.
    fn sample_v2(blocks: &[(&[u8], usize)]) -> Vec<u8> {
        let lens: Vec<usize> = blocks.iter().map(|&(_, len)| len).collect();
        let original_len = lens.iter().sum();
        let data = blocks.iter().map(|&(data, _)| data.to_vec()).collect();
        let image = BlockImage::new(data, lens, 32, original_len, 7);
        encode_image(sample_identity(), &[9, 8, 7], &image).unwrap()
    }

    #[test]
    fn malformed_containers_are_typed_errors() {
        let bytes = sample_v2(&[(&[10, 11, 12], 32)]);
        let open = |bad: &[u8]| ContainerV2Reader::open(Cursor::new(bad.to_vec()));
        // Unknown codec tag, then a file-oriented one.
        for tag in [0xEE, Algorithm::Gzip.tag()] {
            let mut bad = bytes.clone();
            bad[4] = tag;
            assert!(matches!(open(&bad), Err(CodecError::Corrupt { .. })), "tag {tag}");
        }
        // Unknown ISA tag.
        let mut bad = bytes.clone();
        bad[5] = 9;
        assert!(matches!(open(&bad), Err(CodecError::Corrupt { .. })));
        // Codec length past the block data.
        let mut bad = bytes.clone();
        bad[24..28].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(open(&bad), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn v2_round_trips() {
        let bytes = sample_v2(&[(&[10, 11, 12], 32), (&[13], 32), (&[], 16)]);
        let mut reader = ContainerV2Reader::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.identity(), sample_identity());
        assert_eq!(reader.block_size(), 32);
        assert_eq!(reader.codec_bytes(), &[9, 8, 7]);
        assert_eq!(reader.block_count(), 3);
        assert_eq!(reader.original_len(), 80);
        assert_eq!(reader.block_uncompressed_len(2), 16);
        assert_eq!(reader.read_block(1).unwrap(), (vec![13], 32));
        assert_eq!(reader.read_block(0).unwrap(), (vec![10, 11, 12], 32));
        assert_eq!(reader.read_block(2).unwrap(), (Vec::new(), 16));
        assert!(reader.read_block(3).is_err());
        let summary = reader.summary();
        assert_eq!(summary.blocks, 3);
        assert_eq!(summary.data_len, 4);
        assert_eq!(summary.original_len, 80);
        assert_eq!(summary.model_bytes, 7);
        assert_eq!(summary.total_len, bytes.len() as u64);
    }

    #[test]
    fn v2_accounting_matches_block_image() {
        // The container must charge exactly what the in-memory image
        // charges, or the two measurement paths drift apart.
        let image =
            BlockImage::new(vec![vec![1, 2, 3], vec![4], vec![]], vec![32, 32, 16], 32, 80, 7);
        let mut bytes = Vec::new();
        let written = write_image(&mut bytes, sample_identity(), &[9, 8, 7], &image).unwrap();
        let reader = ContainerV2Reader::open(Cursor::new(&bytes)).unwrap();
        let summary = reader.summary();
        assert_eq!(written, summary);
        assert_eq!(summary.compressed_len(), image.compressed_len());
        assert_eq!(summary.lat_bytes(), image.lat_bytes());
        assert_eq!(summary.ratio(), image.ratio());
        assert_eq!(summary.ratio_with_lat(), image.ratio_with_lat());
    }

    #[test]
    fn v2_writer_rejects_file_codecs() {
        let image = BlockImage::new(vec![vec![1]], vec![32], 32, 32, 0);
        let mut identity = sample_identity();
        identity.algorithm = Algorithm::Gzip;
        let err = write_image(Vec::new(), identity, &[], &image).unwrap_err();
        assert!(matches!(err, CodecError::Unsupported { .. }));
    }

    #[test]
    fn v2_corruption_is_detected_not_panicked() {
        let bytes = sample_v2(&[(&[10, 11, 12], 32), (&[13], 20)]);
        // Truncation at every prefix must fail cleanly.
        for len in 0..bytes.len() {
            assert!(
                ContainerV2Reader::open(Cursor::new(&bytes[..len])).is_err(),
                "prefix of {len} bytes parsed"
            );
        }
        let len = bytes.len();
        // Bad magics, front and back.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        let mut bad = bytes.clone();
        bad[len - 1] = b'?'; // last footer byte is the 'X' of "CIDX"
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Tampered block count.
        let mut bad = bytes.clone();
        bad[len - 20..len - 12].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Tampered index offset.
        let mut bad = bytes.clone();
        bad[len - 28..len - 20].copy_from_slice(&0u64.to_be_bytes());
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Non-dense block offset (second entry starts at index start).
        let index_start = len - 28 - 2 * INDEX_ENTRY_LEN;
        let mut bad = bytes.clone();
        bad[index_start + INDEX_ENTRY_LEN..index_start + INDEX_ENTRY_LEN + 8]
            .copy_from_slice(&7u64.to_be_bytes());
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Amplified per-block uncompressed length.
        let mut bad = bytes.clone();
        bad[index_start + 12..index_start + 16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Oversized block size in the header.
        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(ContainerV2Reader::open(Cursor::new(&bad)).is_err());
        // Identity class and endianness bytes outside their 0/1 encoding.
        for offset in [6, 7] {
            let mut bad = bytes.clone();
            bad[offset] = 2;
            assert!(matches!(
                ContainerV2Reader::open(Cursor::new(&bad)),
                Err(CodecError::Corrupt { .. })
            ));
        }
        // The pristine artifact still parses after all that.
        assert!(ContainerV2Reader::open(Cursor::new(&bytes)).is_ok());
    }

    #[test]
    fn v2_empty_container_round_trips() {
        let bytes = sample_v2(&[]);
        let mut reader = ContainerV2Reader::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.block_count(), 0);
        assert_eq!(reader.original_len(), 0);
        assert_eq!(reader.summary().lat_bytes(), 0);
        assert!(reader.read_block(0).is_err());
    }
}
