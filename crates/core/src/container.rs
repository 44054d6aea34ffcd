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
//! is written in one forward pass.  A digest section follows the index,
//! and a fixed-size footer points back at both, so a reader seeks to any
//! single block without touching the ones before it:
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
//!      S  4+40E digest section: u32 extent count E, then per extent a
//!               u64 length and the SHA-256 of those bytes
//!   +40E    32  SHA-256 of the digest section's bytes before it
//!    end    36  footer: u64 index offset, u64 block count B, u64
//!               original text length, u64 digest section offset S,
//!               magic "CDIG"
//! ```
//!
//! The digest extents tile the file from offset 0 up to the section:
//! the *head* (header and codec model), then *runs* of whole blocks
//! packed to at most [`RUN_BYTES`] (`pack_runs`), then the index.
//! [`ContainerV2Reader::open`] checks the section, the head and the
//! index; [`ContainerV2Reader::decode_text`] and
//! [`ContainerV2Reader::verify`] check every run they read.
//!
//! Parsing enforces corruption caps ([`BlockImage::MAX_BLOCK_SIZE`],
//! [`BlockImage::BLOCK_SLACK`], dense canonical offsets, canonical runs
//! of at most [`MAX_RUN_LEN`]) so a tampered container cannot demand
//! unbounded output or out-of-extent reads.

use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

use crate::registry::{Algorithm, CodecHandle};
use cce_codec::{parallel_map, BlockCodec, BlockImage, CodecError};
use cce_elf::{Class, Endianness};
use cce_isa::Isa;
use cce_serve::sha256::{self, Sha256, DIGEST_LEN};
use cce_serve::store::VERIFIED_CHUNK_BYTES;
use cce_serve::Run;

/// Magic number opening a v2 (indexed) `.cce` container.
pub const CONTAINER_V2_MAGIC: &[u8; 4] = b"CCE2";

/// Magic number closing the footer.  Containers written before the
/// digest section closed with `CIDX`, so they are refused here.
const FOOTER_MAGIC: &[u8; 4] = b"CDIG";

/// Most compressed bytes of whole blocks per digest run; a block longer
/// than this gets a run of its own.
pub const RUN_BYTES: u64 = 64 << 10;

/// Longest run a container may declare: the target plus two maximal
/// blocks (a run exceeds the target only when its one block does).
pub const MAX_RUN_LEN: u64 =
    RUN_BYTES + 2 * (BlockImage::MAX_BLOCK_SIZE + BlockImage::BLOCK_SLACK) as u64;

// The daemon caches every run it verifies.
const _: () = assert!(VERIFIED_CHUNK_BYTES as u64 >= MAX_RUN_LEN);

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

/// Bytes per digest-section extent: u64 length + SHA-256.
const EXTENT_LEN: usize = 8 + DIGEST_LEN;

/// Fixed v2 footer length: index offset + block count + original length
/// + digest section offset + magic.
const V2_FOOTER_LEN: usize = 8 + 8 + 8 + 8 + 4;

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
    /// Total artifact size on disk, header through footer (digest
    /// section included).
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

/// Groups blocks of the given compressed lengths, in order, into runs
/// of at most `target` bytes, and returns each run as a range of block
/// indices.  A run is closed when the next block would take it past the
/// target, so a run is longer only when its one block is.
pub(crate) fn pack_runs(block_lens: &[u64], target: u64) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    let mut len = 0;
    for (i, &block) in block_lens.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if len + block <= target => {
                run.end = i + 1;
                len += block;
            }
            _ => {
                runs.push(i..i + 1);
                len = block;
            }
        }
    }
    runs
}

/// Writes `image` as a complete v2 container on `out` in one forward
/// pass — header, codec model, blocks in index order, offset index,
/// digest section, footer — and returns the size accounting.  The
/// extents are hashed from memory across `workers` threads.
///
/// `out` only ever moves forward, so it may be a growing file or an
/// in-memory buffer alike.
///
/// # Errors
///
/// [`CodecError::Unsupported`] for a file-oriented algorithm (those have
/// no block stream to index) and [`CodecError::Corrupt`] when a field
/// exceeds its wire width, a block is longer than [`MAX_RUN_LEN`], or
/// the underlying writer fails.
pub fn write_image<W: Write>(
    mut out: W,
    identity: ContainerIdentity,
    codec_bytes: &[u8],
    image: &BlockImage,
    workers: usize,
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
    let mut lens = Vec::with_capacity(blocks);
    let mut index = Vec::with_capacity(blocks * INDEX_ENTRY_LEN);
    let mut data_len = 0u64;
    for i in 0..blocks {
        let block = image.block(i);
        let compressed = u32::try_from(block.len())
            .ok()
            .filter(|&len| u64::from(len) <= MAX_RUN_LEN)
            .ok_or_else(|| CodecError::corrupt(SELF, format!("block {i} exceeds the run cap")))?;
        let uncompressed = u32::try_from(image.block_uncompressed_len(i))
            .map_err(|_| CodecError::corrupt(SELF, "uncompressed block exceeds u32"))?;
        out.write_all(block).map_err(io_corrupt)?;
        index.extend_from_slice(&data_len.to_be_bytes());
        index.extend_from_slice(&compressed.to_be_bytes());
        index.extend_from_slice(&uncompressed.to_be_bytes());
        data_len += u64::from(compressed);
        lens.push(u64::from(compressed));
    }

    // The extents to digest, each as the slices it spans: the head, each
    // run's blocks, the index.  They are independent, so they hash in
    // parallel.
    let mut extents: Vec<Vec<&[u8]>> = vec![vec![&header[..]]];
    extents.extend(
        pack_runs(&lens, RUN_BYTES).into_iter().map(|run| run.map(|i| image.block(i)).collect()),
    );
    extents.push(vec![&index[..]]);
    let digests = parallel_map(workers, &extents, |_, parts| {
        let mut hash = Sha256::new();
        parts.iter().for_each(|part| hash.update(part));
        hash.finalize()
    });
    let section = encode_section(
        extents
            .iter()
            .zip(digests)
            .map(|(parts, digest)| (parts.iter().map(|part| part.len() as u64).sum(), digest)),
    );

    let index_offset = header.len() as u64 + data_len;
    let section_offset = index_offset + index.len() as u64;
    let original_len = image.original_len() as u64;
    let mut footer = Vec::with_capacity(V2_FOOTER_LEN);
    footer.extend_from_slice(&index_offset.to_be_bytes());
    footer.extend_from_slice(&(blocks as u64).to_be_bytes());
    footer.extend_from_slice(&original_len.to_be_bytes());
    footer.extend_from_slice(&section_offset.to_be_bytes());
    footer.extend_from_slice(FOOTER_MAGIC);

    for part in [&index, &section, &footer] {
        out.write_all(part).map_err(io_corrupt)?;
    }
    out.flush().map_err(io_corrupt)?;
    Ok(ContainerSummary {
        blocks,
        data_len,
        original_len,
        model_bytes: image.model_bytes(),
        total_len: section_offset + (section.len() + footer.len()) as u64,
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
    write_image(&mut out, identity, codec_bytes, image, 1)?;
    Ok(out)
}

/// Maps an I/O failure on the container stream to the workspace error
/// type (which deliberately has no I/O variant — see `CodecError` docs).
fn io_corrupt(e: std::io::Error) -> CodecError {
    CodecError::corrupt(SELF, format!("container io error: {e}"))
}

/// Random-access reader for v2 containers.
///
/// [`open`](Self::open) reads the header, the codec model, the index and
/// the digest section — never the block data — and checks the head and
/// index digests.  [`read_block`](Self::read_block) then seeks directly
/// to one block, so reading block *i* touches `O(1)` artifact bytes
/// regardless of *i* (the property the v2 layout exists for, and which
/// `tests/streaming.rs` proves with a counting reader).  That read is
/// *unchecked*: only [`decode_text`](Self::decode_text) and
/// [`verify`](Self::verify), which read whole runs, check the run
/// digests, and the serving tier checks each run it loads.
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
    /// The digest runs, each with the blocks it holds.
    runs: Vec<(Run, Range<usize>)>,
    total_len: u64,
}

impl<R: Read + Seek> ContainerV2Reader<R> {
    /// Opens a v2 container, validating the header, footer, digest
    /// section and index.
    ///
    /// Enforces the corruption caps: block size within
    /// [`BlockImage::MAX_BLOCK_SIZE`], per-block
    /// uncompressed lengths within block size +
    /// [`BlockImage::BLOCK_SLACK`], offsets dense and in-bounds, and
    /// per-block lengths summing to the claimed original length.  The
    /// digest section's extent count must match its length and its own
    /// SHA-256 must match, both before anything is sized from it; its
    /// extents must tile the file (head, runs, index) with the runs
    /// exactly the blocks packed by `pack_runs`, each at most
    /// [`MAX_RUN_LEN`]; and the head and index must match their
    /// digests.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on any structural violation, digest
    /// mismatch or I/O failure; this function never panics on malformed
    /// input.
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
        if &footer[32..36] != FOOTER_MAGIC {
            return Err(CodecError::corrupt(SELF, "bad footer magic (no digest section)"));
        }
        let field = |at: usize| u64::from_be_bytes(footer[at..at + 8].try_into().expect("8 bytes"));
        let (index_offset, block_count) = (field(0), field(8));
        let (original_len, section_offset) = (field(16), field(24));
        if index_offset < data_start
            || section_offset < index_offset
            || section_offset > footer_start
        {
            return Err(CodecError::corrupt(SELF, "index or digest offset out of bounds"));
        }
        let index_len = section_offset - index_offset;
        // The index extent must hold exactly the claimed entries — the
        // writer emits a canonical layout with no slack, and checking it
        // bounds the allocation below by the actual artifact size.
        if block_count.checked_mul(INDEX_ENTRY_LEN as u64) != Some(index_len) {
            return Err(CodecError::corrupt(SELF, "block count disagrees with index size"));
        }
        let data_len = index_offset - data_start;

        let section = read_at(&mut reader, section_offset..footer_start)?;
        let extents = parse_digest_section(&section)?;
        let (head, rest) = extents.split_first().expect("at least two extents");
        let (index_extent, run_extents) = rest.split_last().expect("at least two extents");
        if head.0 != data_start || index_extent.0 != index_len {
            return Err(CodecError::corrupt(
                SELF,
                "digest head or index length disagrees with the layout",
            ));
        }

        let codec_bytes = read_at(&mut reader, V2_HEADER_LEN as u64..data_start)?;
        let mut hash = Sha256::new();
        hash.update(&header);
        hash.update(&codec_bytes);
        if hash.finalize() != head.1 {
            return Err(CodecError::corrupt(SELF, "head sha-256 mismatch"));
        }
        let index_bytes = read_at(&mut reader, index_offset..section_offset)?;
        if sha256::digest(&index_bytes) != index_extent.1 {
            return Err(CodecError::corrupt(SELF, "index sha-256 mismatch"));
        }

        let mut index = Vec::with_capacity(block_count as usize);
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

        let lens: Vec<u64> =
            index.iter().map(|&(_, compressed, _)| u64::from(compressed)).collect();
        let packed = pack_runs(&lens, RUN_BYTES);
        if packed.len() != run_extents.len() {
            return Err(CodecError::corrupt(SELF, "digest runs miss the block boundaries"));
        }
        let mut runs = Vec::with_capacity(packed.len());
        let mut start = data_start;
        for (i, (blocks, &(len, sha256))) in packed.into_iter().zip(run_extents).enumerate() {
            if len != lens[blocks.clone()].iter().sum::<u64>() {
                return Err(CodecError::corrupt(SELF, "digest runs miss the block boundaries"));
            }
            if len > MAX_RUN_LEN {
                return Err(CodecError::corrupt(SELF, format!("run {i} exceeds the run cap")));
            }
            runs.push((Run { start, len, sha256 }, blocks));
            start += len;
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
            runs,
            total_len: stream_len,
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

    /// The digest runs between the head and the index, in file order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = Run> + '_ {
        self.runs.iter().map(|&(run, _)| run)
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
            total_len: self.total_len,
        }
    }

    /// Reads the compressed bytes of block `index` with a single seek —
    /// no other block is touched, and no digest is checked.
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
        read_at(&mut self.reader, range)
    }

    /// Reads run `run` with a single seek and checks its SHA-256.
    fn read_run(&mut self, run: usize) -> Result<Vec<u8>, CodecError> {
        let Run { start, len, sha256 } = self.runs[run].0;
        let bytes = self.read_raw(start..start + len)?;
        if sha256::digest(&bytes) != sha256 {
            return Err(CodecError::corrupt(SELF, format!("run {run}: sha-256 mismatch")));
        }
        Ok(bytes)
    }

    /// Re-reads every run and checks its digest, in file order; returns
    /// the number of runs.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] naming the first run that fails (`run
    /// 3: sha-256 mismatch`) or a read failure.
    pub fn verify(&mut self) -> Result<usize, CodecError> {
        for run in 0..self.runs.len() {
            self.read_run(run)?;
        }
        Ok(self.runs.len())
    }

    /// Decodes every block in order and returns the reassembled text.
    /// Each run is read once and checked against its digest before any
    /// of its blocks reaches `codec`.
    ///
    /// # Errors
    ///
    /// Propagates read failures, run digest mismatches (naming the run)
    /// and per-block decode errors from `codec`; fails with
    /// [`CodecError::Corrupt`] if a block decodes to a length other than
    /// the one the index claims.
    pub fn decode_text(&mut self, codec: &dyn BlockCodec) -> Result<Vec<u8>, CodecError> {
        let mut text = Vec::with_capacity(self.original_len as usize);
        for run in 0..self.runs.len() {
            let bytes = self.read_run(run)?;
            let (Run { start, .. }, blocks) = self.runs[run].clone();
            for index in blocks {
                let range = self.block_range(index);
                let data = &bytes[(range.start - start) as usize..(range.end - start) as usize];
                let out_len = self.index[index].2 as usize;
                let block = codec.decompress_block(data, out_len)?;
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
        }
        Ok(text)
    }
}

/// Reads `range` of `reader` with a single seek.
fn read_at<R: Read + Seek>(reader: &mut R, range: Range<u64>) -> Result<Vec<u8>, CodecError> {
    let len = usize::try_from(range.end.saturating_sub(range.start))
        .map_err(|_| CodecError::corrupt(SELF, "range exceeds memory"))?;
    let mut data = vec![0u8; len];
    reader.seek(SeekFrom::Start(range.start)).map_err(io_corrupt)?;
    reader.read_exact(&mut data).map_err(io_corrupt)?;
    Ok(data)
}

/// Parses a digest section into its `(length, SHA-256)` extents: head,
/// runs, index.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when the section is shorter than its count
/// and closing digest, its length disagrees with the extent count, its
/// own SHA-256 differs, or it lists fewer than two extents — each
/// checked before the extents are allocated.
fn parse_digest_section(section: &[u8]) -> Result<Vec<(u64, [u8; DIGEST_LEN])>, CodecError> {
    let bad = |detail: &str| Err(CodecError::corrupt(SELF, format!("digest section {detail}")));
    let Some(count) = section.first_chunk::<4>().map(|count| u32::from_be_bytes(*count)) else {
        return bad("truncated");
    };
    let body = 4 + u64::from(count) * EXTENT_LEN as u64;
    if section.len() as u64 != body + DIGEST_LEN as u64 {
        return bad("length disagrees with its extent count");
    }
    let body = body as usize;
    if sha256::digest(&section[..body]) != section[body..] {
        return bad("sha-256 mismatch");
    }
    if count < 2 {
        return bad("lists fewer than two extents");
    }
    Ok(section[4..body]
        .chunks_exact(EXTENT_LEN)
        .map(|e| {
            let len = u64::from_be_bytes(e[..8].try_into().expect("8 bytes"));
            (len, e[8..].try_into().expect("digest"))
        })
        .collect())
}

/// The footer field at `at` of a container (0 index offset, 8 block
/// count, 16 original length, 24 digest section offset).
#[cfg(test)]
pub(crate) fn footer_field(bytes: &[u8], at: usize) -> u64 {
    let start = bytes.len() - V2_FOOTER_LEN + at;
    u64::from_be_bytes(bytes[start..start + 8].try_into().expect("8 bytes"))
}

/// The byte range of a container's digest section.
#[cfg(test)]
pub(crate) fn section_range(bytes: &[u8]) -> Range<usize> {
    footer_field(bytes, 24) as usize..bytes.len() - V2_FOOTER_LEN
}

/// A container's digest extents, `(length, SHA-256)`: head, runs,
/// index.
#[cfg(test)]
pub(crate) fn digest_extents(bytes: &[u8]) -> Vec<(u64, [u8; DIGEST_LEN])> {
    parse_digest_section(&bytes[section_range(bytes)]).expect("a valid digest section")
}

/// Encodes a digest section listing `extents`, `(length, SHA-256)` in
/// file order, closed with the section's own SHA-256.
fn encode_section(extents: impl ExactSizeIterator<Item = (u64, [u8; DIGEST_LEN])>) -> Vec<u8> {
    let mut section = Vec::with_capacity(4 + extents.len() * EXTENT_LEN + DIGEST_LEN);
    section.extend_from_slice(&(extents.len() as u32).to_be_bytes());
    for (len, digest) in extents {
        section.extend_from_slice(&len.to_be_bytes());
        section.extend_from_slice(&digest);
    }
    let digest = sha256::digest(&section);
    section.extend_from_slice(&digest);
    section
}

/// `bytes` with its digest section rewritten to match the layout its
/// header, index and footer declare — the head, the runs `pack_runs`
/// makes of the indexed blocks, the index — or `None` when that layout
/// does not fit in `bytes`.  The fuzz harness reseals its mutants, so a
/// tampered header, model, index or payload reaches the parser and the
/// decoders instead of stopping at a digest (anyone can write matching
/// digests, so those paths must hold on their own).
pub(crate) fn reseal(bytes: &[u8]) -> Option<Vec<u8>> {
    let footer = bytes.len().checked_sub(V2_FOOTER_LEN)?;
    let field = |at| usize::try_from(u64::from_be_bytes(*bytes[footer + at..].first_chunk()?)).ok();
    let (index_offset, section_offset) = (field(0)?, field(24)?);
    let index = bytes.get(index_offset..section_offset)?;
    let lens: Vec<u64> = index
        .chunks_exact(INDEX_ENTRY_LEN)
        .map(|entry| u64::from(u32::from_be_bytes(entry[8..12].try_into().expect("4 bytes"))))
        .collect();
    let mut start = V2_HEADER_LEN + u32::from_be_bytes(*bytes.get(24..)?.first_chunk()?) as usize;
    let mut extents = vec![bytes.get(..start)?];
    for run in pack_runs(&lens, RUN_BYTES) {
        let end = start.checked_add(lens[run].iter().sum::<u64>() as usize)?;
        extents.push(bytes.get(start..end)?);
        start = end;
    }
    extents.push(index);
    let section =
        encode_section(extents.iter().map(|extent| (extent.len() as u64, sha256::digest(extent))));
    Some([&bytes[..section_offset], &section, &bytes[footer..]].concat())
}

/// `bytes` with its digest section replaced by one listing `extents`,
/// closed with its own SHA-256, as a writer that got the layout wrong
/// would leave it.
#[cfg(test)]
pub(crate) fn with_section(bytes: &[u8], extents: &[(u64, [u8; DIGEST_LEN])]) -> Vec<u8> {
    let range = section_range(bytes);
    let section = encode_section(extents.iter().copied());
    [&bytes[..range.start], &section, &bytes[range.end..]].concat()
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

    /// A trained huffman container over `len` bytes of MIPS text.
    fn huffman_container(len: usize) -> (Vec<u8>, Vec<u8>) {
        use cce_workload::{generate_mips, Spec95};
        let profile = Spec95::by_name("ijpeg").unwrap();
        let mut text = cce_isa::mips::encode_text(&generate_mips(profile, 0.02));
        text.truncate(len);
        let handle = Algorithm::ByteHuffman.build(Isa::Mips, 32).train(&text).unwrap();
        let codec = handle.as_block().unwrap();
        let image = codec.compress(&text).unwrap();
        let identity = ContainerIdentity { algorithm: Algorithm::ByteHuffman, ..sample_identity() };
        (encode_image(identity, &codec.to_bytes(), &image).unwrap(), text)
    }

    fn open(bytes: &[u8]) -> Result<ContainerV2Reader<Cursor<&[u8]>>, CodecError> {
        ContainerV2Reader::open(Cursor::new(bytes))
    }

    #[test]
    fn malformed_containers_are_typed_errors() {
        let bytes = sample_v2(&[(&[10, 11, 12], 32)]);
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
        let mut reader = open(&bytes).unwrap();
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
        assert_eq!(reader.verify().unwrap(), 1, "4 payload bytes make one run");
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
        let written = write_image(&mut bytes, sample_identity(), &[9, 8, 7], &image, 2).unwrap();
        let reader = open(&bytes).unwrap();
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
        let err = write_image(Vec::new(), identity, &[], &image, 1).unwrap_err();
        assert!(matches!(err, CodecError::Unsupported { .. }));
    }

    #[test]
    fn v2_corruption_is_detected_not_panicked() {
        let bytes = sample_v2(&[(&[10, 11, 12], 32), (&[13], 20)]);
        // Truncation at every prefix must fail cleanly.
        for len in 0..bytes.len() {
            assert!(open(&bytes[..len]).is_err(), "prefix of {len} bytes parsed");
        }
        let len = bytes.len();
        // Bad magics, front and back.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(open(&bad).is_err());
        let mut bad = bytes.clone();
        bad[len - 1] = b'?'; // last footer byte is the 'G' of "CDIG"
        assert!(open(&bad).is_err());
        // Tampered block count.
        let mut bad = bytes.clone();
        bad[len - 28..len - 20].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(open(&bad).is_err());
        // Tampered index and digest section offsets.
        for at in [len - 36, len - 12] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&0u64.to_be_bytes());
            assert!(open(&bad).is_err(), "offset at {at}");
        }
        // Non-dense block offset (second entry starts at index start).
        let index_start = footer_field(&bytes, 0) as usize;
        let mut bad = bytes.clone();
        bad[index_start + INDEX_ENTRY_LEN..index_start + INDEX_ENTRY_LEN + 8]
            .copy_from_slice(&7u64.to_be_bytes());
        assert!(open(&bad).is_err());
        // Amplified per-block uncompressed length.
        let mut bad = bytes.clone();
        bad[index_start + 12..index_start + 16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(open(&bad).is_err());
        // Oversized block size in the header.
        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(open(&bad).is_err());
        // Identity class and endianness bytes outside their 0/1 encoding.
        for offset in [6, 7] {
            let mut bad = bytes.clone();
            bad[offset] = 2;
            assert!(matches!(open(&bad), Err(CodecError::Corrupt { .. })));
        }
        // The pristine artifact still parses after all that.
        assert!(open(&bytes).is_ok());
    }

    #[test]
    fn v2_empty_container_round_trips() {
        let bytes = sample_v2(&[]);
        let mut reader = open(&bytes).unwrap();
        assert_eq!(reader.block_count(), 0);
        assert_eq!(reader.original_len(), 0);
        assert_eq!(reader.summary().lat_bytes(), 0);
        assert_eq!(reader.runs().len(), 0);
        assert_eq!(reader.verify().unwrap(), 0);
        assert!(reader.read_block(0).is_err());
    }

    /// The digest section lists the head, the runs and the index, whose
    /// lengths tile the file up to the section, and each digest matches
    /// the bytes it names.
    #[test]
    fn record_round_trips_and_tiles_the_image() {
        let (bytes, text) = huffman_container(4096);
        let extents = digest_extents(&bytes);
        let section_start = section_range(&bytes).start as u64;
        assert_eq!(extents.iter().map(|e| e.0).sum::<u64>(), section_start);
        let mut start = 0;
        for &(len, digest) in &extents {
            assert_eq!(sha256::digest(&bytes[start..start + len as usize]), digest);
            start += len as usize;
        }
        let mut reader = open(&bytes).unwrap();
        let runs: Vec<Run> = reader.runs().collect();
        assert_eq!(runs.len(), extents.len() - 2);
        assert_eq!(runs[0].start, extents[0].0, "run 0 starts where the head ends");
        assert_eq!(reader.verify().unwrap(), runs.len());
        let codec = reader.block_codec().unwrap();
        assert_eq!(reader.decode_text(codec.as_ref()).unwrap(), text);
    }

    #[test]
    fn truncated_or_garbled_records_are_refused() {
        let (bytes, _) = huffman_container(1024);
        let range = section_range(&bytes);
        let section = &bytes[range.clone()];
        for len in 0..section.len() {
            assert!(parse_digest_section(&section[..len]).is_err(), "prefix of {len} bytes parsed");
        }
        for at in [0, 3, 4, 12, 44, section.len() - 1] {
            let mut bad = bytes.clone();
            bad[range.start + at] ^= 0x10;
            let err = open(&bad).expect_err("a garbled section opened");
            assert!(matches!(err, CodecError::Corrupt { .. }), "byte {at}: {err}");
            assert!(err.to_string().contains("digest section"), "byte {at}: {err}");
        }
    }

    #[test]
    fn caps_are_enforced_before_use() {
        let (bytes, _) = huffman_container(1024);
        let range = section_range(&bytes);
        // An extent count far past what the section holds is refused
        // from the length alone.
        let mut bad = bytes.clone();
        bad[range.start..range.start + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = open(&bad).expect_err("an oversized count opened");
        assert!(err.to_string().contains("length disagrees with its extent count"), "{err}");
        // A well-formed section with a head alone.
        let extents = digest_extents(&bytes);
        let err = open(&with_section(&bytes, &extents[..1])).expect_err("a lone head opened");
        assert!(err.to_string().contains("fewer than two extents"), "{err}");
        // One block a byte past the run cap (the writer refuses it, so
        // grow a capped block by hand), sealed with matching digests.
        let capped = vec![0u8; MAX_RUN_LEN as usize];
        let bytes = sample_v2(&[(&capped, 32)]);
        let index_offset = footer_field(&bytes, 0) as usize;
        let mut grown = [&bytes[..index_offset], &[0], &bytes[index_offset..]].concat();
        let compressed = index_offset + 1 + 8;
        grown[compressed..compressed + 4].copy_from_slice(&(MAX_RUN_LEN as u32 + 1).to_be_bytes());
        let footer = grown.len() - V2_FOOTER_LEN;
        for at in [footer, footer + 24] {
            let moved = u64::from_be_bytes(grown[at..at + 8].try_into().unwrap()) + 1;
            grown[at..at + 8].copy_from_slice(&moved.to_be_bytes());
        }
        let grown = reseal(&grown).expect("a layout that fits");
        let err = open(&grown).expect_err("an oversized run opened");
        assert!(err.to_string().contains("run 0 exceeds the run cap"), "{err}");
    }

    /// A container written before the digest section existed: the same
    /// blocks and index, closed by the old 28-byte "CIDX" footer.
    #[test]
    fn a_parent_format_container_is_refused() {
        let (bytes, _) = huffman_container(1024);
        let section_start = footer_field(&bytes, 24) as usize;
        let mut parent = bytes[..section_start].to_vec();
        for at in [0, 8, 16] {
            parent.extend_from_slice(&footer_field(&bytes, at).to_be_bytes());
        }
        parent.extend_from_slice(b"CIDX");
        let err = open(&parent).expect_err("a parent-format container opened");
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("bad footer magic"), "{err}");
    }

    /// Every single-byte flip of a container is caught: by `open` (head,
    /// index, digest section, footer), or by both `verify` and
    /// `decode_text` naming the run (block payload).
    #[test]
    fn every_byte_flip_is_a_typed_error() {
        let (bytes, _) = huffman_container(1024);
        let codec = open(&bytes).unwrap().block_codec().unwrap();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let mut reader = match open(&bad) {
                Err(err) => {
                    assert!(matches!(err, CodecError::Corrupt { .. }), "byte {at}: {err}");
                    continue;
                }
                Ok(reader) => reader,
            };
            for err in
                [reader.verify().unwrap_err(), reader.decode_text(codec.as_ref()).unwrap_err()]
            {
                assert!(err.to_string().contains("run 0: sha-256 mismatch"), "byte {at}: {err}");
            }
        }
    }
}
