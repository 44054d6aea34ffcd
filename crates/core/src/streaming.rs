//! ELF → `.cce` compression: the bridge between the streaming ELF walker
//! ([`cce_elf::ElfStream`]), whole-program block compression
//! ([`cce_codec::compress_verified`]), and the v2 container writer
//! ([`write_image`]).
//!
//! The walker reads only the headers and the `.text` section, never the
//! rest of the file.  The text itself is held in memory: every model
//! builder in the workspace (SAMC arithmetic models, SADC dictionaries,
//! Huffman code books) derives statistics from the whole text, so
//! [`buffered_text`] reads the section once, the caller trains on it, and
//! [`compress_text`] compresses the same buffer as one ordered parallel
//! map over the codec's block ranges, each worker round-trip-verifying
//! its own block; the container's digests are hashed across the same
//! workers.  Peak memory is the text plus its compressed image.

use std::io::{Read, Seek, Write};

use crate::container::{write_image, ContainerIdentity, ContainerSummary};
use crate::registry::Algorithm;
use cce_codec::{compress_verified, BlockCodec, CodecError};
use cce_elf::{ElfStream, Machine, ParseElfError, StreamElfError};
use cce_isa::Isa;

/// Name used in errors raised by the streaming bridge itself.
const SELF: &str = "elf stream";

/// Maps a streaming-walker failure into the workspace error type: a
/// well-formed ELF without section headers is unsupported, anything
/// else the walker rejects is corrupt.
pub fn stream_error(e: StreamElfError) -> CodecError {
    match e {
        StreamElfError::Parse(ParseElfError::NoSectionHeaders) => {
            CodecError::unsupported(SELF, e.to_string())
        }
        e => CodecError::corrupt(SELF, e.to_string()),
    }
}

/// The instruction set implied by the ELF machine field.
///
/// # Errors
///
/// [`CodecError::Unsupported`] for machines no registered codec targets.
pub fn isa_of<R: Read + Seek>(elf: &ElfStream<R>) -> Result<Isa, CodecError> {
    match elf.machine() {
        Machine::Mips => Ok(Isa::Mips),
        Machine::I386 => Ok(Isa::X86),
        Machine::Other(m) => {
            Err(CodecError::unsupported(SELF, format!("unsupported ELF machine {m:#06x}")))
        }
    }
}

/// The container identity for compressing `elf` with `algorithm`.
///
/// # Errors
///
/// As [`isa_of`].
pub fn identity_of<R: Read + Seek>(
    elf: &ElfStream<R>,
    algorithm: Algorithm,
) -> Result<ContainerIdentity, CodecError> {
    Ok(ContainerIdentity {
        algorithm,
        isa: isa_of(elf)?,
        class: elf.class(),
        endianness: elf.endianness(),
        entry: elf.entry(),
    })
}

/// Index of the `.text` section.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when the ELF has no `.text` section.
pub fn text_index<R: Read + Seek>(elf: &ElfStream<R>) -> Result<usize, CodecError> {
    elf.text_index().ok_or_else(|| CodecError::corrupt(SELF, "elf has no .text section"))
}

/// Reads the whole `.text` section into memory.
///
/// # Errors
///
/// [`CodecError::Corrupt`] on a missing `.text` section, an extent past
/// the end of the stream, a source that ends before the section does,
/// or a read failure.
pub fn buffered_text<R: Read + Seek>(elf: &mut ElfStream<R>) -> Result<Vec<u8>, CodecError> {
    let index = text_index(elf)?;
    elf.read_section(index).map_err(stream_error)
}

/// Block counts of one [`compress_text`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Blocks compressed (and round-trip-verified).
    pub blocks: u64,
    /// Always 0: compression is one parallel map over text already in
    /// memory, with no bounded queue for a producer to stall on.  Kept
    /// so reports that sum it stay well-formed.
    pub stalls: u64,
}

/// What one ELF compression produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Block counts.
    pub stats: StreamStats,
    /// Finished-container size accounting.
    pub summary: ContainerSummary,
}

/// Compresses `elf`'s `.text` section with `codec` into a v2 container
/// on `out`: [`identity_of`], [`buffered_text`], then [`compress_text`].
///
/// # Errors
///
/// Propagates walker failures and everything [`compress_text`] returns.
pub fn compress_elf<R: Read + Seek, W: Write>(
    elf: &mut ElfStream<R>,
    algorithm: Algorithm,
    codec: &dyn BlockCodec,
    out: W,
    workers: usize,
) -> Result<StreamReport, CodecError> {
    let identity = identity_of(elf, algorithm)?;
    let text = buffered_text(elf)?;
    compress_text(identity, &text, codec, out, workers)
}

/// Compresses `text` with `codec` into a v2 container for `identity` on
/// `out`.
///
/// `codec` must already be trained, typically on this same `text`, so a
/// caller that trained on [`buffered_text`] compresses that buffer
/// without reading the section again.  Every worker round-trip-verifies
/// the block it compressed, so a lying codec fails here rather than
/// producing a bad artifact.  The same `workers` hash the container's
/// digest extents.
///
/// # Errors
///
/// Propagates codec, verification, and output-write failures; the
/// artifact is incomplete on error (callers write to a temp path and
/// rename on success).
pub fn compress_text<W: Write>(
    identity: ContainerIdentity,
    text: &[u8],
    codec: &dyn BlockCodec,
    out: W,
    workers: usize,
) -> Result<StreamReport, CodecError> {
    let image = compress_verified(codec, text, workers)?;
    let summary = write_image(out, identity, &codec.to_bytes(), &image, workers)?;
    let stats = StreamStats { blocks: image.block_count() as u64, stalls: 0 };
    Ok(StreamReport { stats, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_elf::{Class, ElfImage, Endianness};
    use cce_workload::{generate_mips, Spec95};
    use std::io::Cursor;

    fn sample_elf() -> Vec<u8> {
        let profile = Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&generate_mips(profile, 0.05));
        ElfImage::new_executable(cce_elf::Machine::Mips, Class::Elf32, Endianness::Big, text)
            .to_bytes()
    }

    #[test]
    fn identity_reflects_the_elf() {
        let bytes = sample_elf();
        let elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let identity = identity_of(&elf, Algorithm::Samc).unwrap();
        assert_eq!(identity.isa, Isa::Mips);
        assert_eq!(identity.class, Class::Elf32);
        assert_eq!(identity.endianness, Endianness::Big);
        assert_eq!(identity.entry, elf.entry());
    }

    /// A reader that stops producing bytes inside `hole` — a file whose
    /// `.text` tail vanished after `open` validated the extents.
    struct HoleReader {
        inner: Cursor<Vec<u8>>,
        hole: std::ops::Range<u64>,
    }

    impl Read for HoleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let pos = self.inner.position();
            if self.hole.contains(&pos) {
                return Ok(0);
            }
            let cap = match self.hole.start.checked_sub(pos) {
                Some(left) => buf.len().min(usize::try_from(left).unwrap_or(usize::MAX)),
                None => buf.len(),
            };
            self.inner.read(&mut buf[..cap])
        }
    }

    impl Seek for HoleReader {
        fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn a_text_section_that_ends_early_is_a_typed_error() {
        let bytes = sample_elf();
        let mut elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let text = buffered_text(&mut elf).unwrap();
        let handle = Algorithm::ByteHuffman.build(Isa::Mips, 32).train(&text).unwrap();
        let codec = handle.as_block().unwrap();
        let section = &elf.sections()[text_index(&elf).unwrap()];
        let hole = section.offset + 10..section.offset + section.size;
        let mut lying =
            ElfStream::open(HoleReader { inner: Cursor::new(bytes.clone()), hole }).unwrap();
        let mut out = Vec::new();
        let err = compress_elf(&mut lying, Algorithm::ByteHuffman, codec, &mut out, 2).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("section .text truncated"), "{err}");
        assert!(out.is_empty(), "nothing is written for a truncated section");
    }

    #[test]
    fn unsupported_machine_is_a_typed_error() {
        let profile = Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&generate_mips(profile, 0.02));
        let bytes = ElfImage::new_executable(
            cce_elf::Machine::Other(0x1234),
            Class::Elf32,
            Endianness::Big,
            text,
        )
        .to_bytes();
        let elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        assert!(matches!(isa_of(&elf), Err(CodecError::Unsupported { .. })));
    }
}
