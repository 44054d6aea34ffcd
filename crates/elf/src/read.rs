//! In-memory ELF reading: [`ElfImage::parse`] over the streaming walker.

use crate::image::{ElfImage, Section, SectionKind};
use crate::stream::{ElfStream, StreamElfError};
use std::error::Error;
use std::fmt;
use std::io::Cursor;

/// Errors from [`ElfImage::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseElfError {
    /// The file does not start with `\x7fELF`.
    BadMagic,
    /// `EI_CLASS` was neither 1 nor 2, or `EI_DATA` neither LSB nor MSB.
    BadIdent {
        /// The offending `e_ident` byte index.
        index: usize,
        /// Its value.
        value: u8,
    },
    /// A header or section reached past the end of the file.
    Truncated,
    /// The file has no section-header table (`e_shnum = 0`, as in a
    /// program-header-only image), so it has no `.text` to find.
    NoSectionHeaders,
    /// A section name was not valid UTF-8 / not NUL-terminated in the
    /// string table.
    BadSectionName {
        /// Index of the section whose name is broken.
        section: usize,
    },
}

impl fmt::Display for ParseElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not an ELF file (bad magic)"),
            Self::BadIdent { index, value } => {
                write!(f, "unsupported e_ident[{index}] = {value:#04x}")
            }
            Self::Truncated => write!(f, "file truncated"),
            Self::NoSectionHeaders => write!(f, "no section headers (e_shnum = 0)"),
            Self::BadSectionName { section } => {
                write!(f, "section {section} has an invalid name")
            }
        }
    }
}

impl Error for ParseElfError {}

impl From<cce_bitstream::EndOfStreamError> for ParseElfError {
    fn from(_: cce_bitstream::EndOfStreamError) -> Self {
        ParseElfError::Truncated
    }
}

impl ElfImage {
    /// Parses an ELF file held in memory.
    ///
    /// This is [`ElfStream::open`] over `bytes` followed by
    /// [`ElfStream::read_section`] for every section that occupies file
    /// bytes, so the in-memory and streaming readers accept and reject
    /// exactly the same files.  Only the pieces the compression pipeline
    /// uses are interpreted: identity, machine, entry point and the
    /// section list (the mandatory null section and the section-name
    /// string table are consumed, not exposed).
    ///
    /// # Errors
    ///
    /// See [`ParseElfError`]; a section extent past the end of `bytes` is
    /// [`ParseElfError::Truncated`].
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseElfError> {
        let mut stream = ElfStream::open(Cursor::new(bytes)).map_err(parse_error)?;
        let infos = stream.sections().to_vec();
        let mut sections = Vec::with_capacity(infos.len());
        for (index, info) in infos.into_iter().enumerate() {
            let (data, nobits_size) = if info.kind == SectionKind::NoBits {
                (Vec::new(), info.size)
            } else {
                (stream.read_section(index).map_err(parse_error)?, 0)
            };
            sections.push(Section {
                name: info.name,
                kind: info.kind,
                flags: info.flags,
                addr: info.addr,
                data,
                nobits_size,
            });
        }
        Ok(ElfImage {
            class: stream.class(),
            endianness: stream.endianness(),
            machine: stream.machine(),
            entry: stream.entry(),
            sections,
        })
    }
}

/// Maps a walker failure over an in-memory buffer: a section that
/// reaches past the buffer is a truncated file, and a `Cursor` over a
/// slice has no I/O failure of its own to report.
fn parse_error(e: StreamElfError) -> ParseElfError {
    match e {
        StreamElfError::Parse(e) => e,
        StreamElfError::Io(_)
        | StreamElfError::ExtentOutOfBounds { .. }
        | StreamElfError::TruncatedBlock { .. } => ParseElfError::Truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Class, Endianness, Machine};

    fn sample_text() -> Vec<u8> {
        (0..64u8).collect()
    }

    #[test]
    fn round_trips_all_class_endianness_combinations() {
        for class in [Class::Elf32, Class::Elf64] {
            for endianness in [Endianness::Little, Endianness::Big] {
                let image =
                    ElfImage::new_executable(Machine::Mips, class, endianness, sample_text());
                let bytes = image.to_bytes();
                let parsed = ElfImage::parse(&bytes)
                    .unwrap_or_else(|e| panic!("{class:?}/{endianness:?}: {e}"));
                assert_eq!(parsed, image, "{class:?}/{endianness:?}");
            }
        }
    }

    #[test]
    fn text_accessor_finds_the_section() {
        let image = ElfImage::new_executable(
            Machine::I386,
            Class::Elf32,
            Endianness::Little,
            sample_text(),
        );
        assert_eq!(image.text().unwrap(), &sample_text()[..]);
        assert!(image.section(".data").is_none());
    }

    #[test]
    fn multiple_sections_round_trip() {
        let mut image =
            ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, sample_text());
        image.sections.push(Section {
            name: ".rodata".into(),
            kind: SectionKind::ProgBits,
            flags: 0x2,
            addr: 0x0041_0000,
            data: vec![9; 17],
            nobits_size: 0,
        });
        image.sections.push(Section {
            name: ".bss".into(),
            kind: SectionKind::NoBits,
            flags: 0x3,
            addr: 0x0042_0000,
            data: Vec::new(),
            nobits_size: 4096,
        });
        let parsed = ElfImage::parse(&image.to_bytes()).unwrap();
        assert_eq!(parsed, image);
        assert_eq!(parsed.section(".bss").unwrap().nobits_size, 4096);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(ElfImage::parse(b"not an elf").unwrap_err(), ParseElfError::BadMagic);
        assert_eq!(ElfImage::parse(&[]).unwrap_err(), ParseElfError::BadMagic);
    }

    #[test]
    fn bad_class_is_rejected() {
        let mut bytes =
            ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, sample_text())
                .to_bytes();
        bytes[4] = 9;
        assert_eq!(
            ElfImage::parse(&bytes).unwrap_err(),
            ParseElfError::BadIdent { index: 4, value: 9 }
        );
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let bytes = ElfImage::new_executable(
            Machine::I386,
            Class::Elf64,
            Endianness::Little,
            sample_text(),
        )
        .to_bytes();
        for cut in [10, 20, 52, 64, 100] {
            let result = ElfImage::parse(&bytes[..cut.min(bytes.len())]);
            assert!(result.is_err(), "cut at {cut} parsed successfully");
        }
        // Cutting only the unread tail fields (link/info/align/entsize) of
        // the last section header is tolerated by design.
        let _ = ElfImage::parse(&bytes[..bytes.len() - 1]);
    }

    #[test]
    fn section_header_offset_near_u64_max_is_rejected_not_panicking() {
        let mut bytes = ElfImage::new_executable(
            Machine::I386,
            Class::Elf64,
            Endianness::Little,
            sample_text(),
        )
        .to_bytes();
        // e_shoff sits at file offset 0x28 in ELF64.  u64::MAX used to
        // overflow the per-header offset arithmetic (debug-build panic);
        // it must be a typed error.
        bytes[0x28..0x30].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(ElfImage::parse(&bytes).unwrap_err(), ParseElfError::Truncated);
    }

    #[test]
    fn section_offset_past_eof_is_rejected() {
        let image = ElfImage::new_executable(
            Machine::Mips,
            Class::Elf64,
            Endianness::Little,
            sample_text(),
        );
        let mut bytes = image.to_bytes();
        // Poke the .text section's sh_offset (section header 1, field at
        // +0x18 of the 0x40-byte ELF64 header) to point far past EOF.
        let shoff = u64::from_le_bytes(bytes[0x28..0x30].try_into().unwrap()) as usize;
        let field = shoff + 0x40 + 0x18;
        let past_eof = bytes.len() as u64 + 1000;
        bytes[field..field + 8].copy_from_slice(&past_eof.to_le_bytes());
        assert_eq!(ElfImage::parse(&bytes).unwrap_err(), ParseElfError::Truncated);
    }

    #[test]
    fn machine_raw_round_trips() {
        for m in [Machine::I386, Machine::Mips, Machine::Other(40)] {
            assert_eq!(Machine::from_raw(m.raw()), m);
        }
    }

    #[test]
    fn empty_text_section_is_fine() {
        let image = ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, vec![]);
        let parsed = ElfImage::parse(&image.to_bytes()).unwrap();
        assert_eq!(parsed.text().unwrap().len(), 0);
    }
}
