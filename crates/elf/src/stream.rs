//! The ELF reader: section extents without materializing the file.
//!
//! [`ElfStream`] is the crate's only parser of the ELF header, the
//! section-header table and the section-name string table.  It reads just
//! those from any `Read + Seek` source and records each section's file
//! extent, so callers can then read exactly one section's bytes
//! ([`ElfStream::read_section`]) without ever holding the rest of the
//! file.  [`ElfImage::parse`](crate::ElfImage::parse) is this walker over
//! an in-memory buffer, reading every section.
//!
//! Extents are validated against the stream length up front, and a
//! source that ends before a section's extent does (a file truncated
//! behind our back, or a lying reader) surfaces as a typed
//! [`StreamElfError::TruncatedBlock`] — never a panic or a silently
//! short section.

use crate::image::{Class, Endianness, Machine, SectionKind};
use crate::read::ParseElfError;
use cce_bitstream::ByteCursor;
use std::error::Error;
use std::fmt;
use std::io::{Read, Seek, SeekFrom};

/// Errors from the streaming walker.
#[derive(Debug)]
pub enum StreamElfError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The headers are malformed.
    Parse(ParseElfError),
    /// A section's file extent reaches past the end of the stream.
    ExtentOutOfBounds {
        /// Name of the offending section.
        section: String,
        /// Claimed file offset of the section.
        offset: u64,
        /// Claimed size of the section.
        size: u64,
        /// Actual stream length.
        stream_len: u64,
    },
    /// The stream ended inside a section even though its extent was in
    /// bounds.
    TruncatedBlock {
        /// Name of the section being walked.
        section: String,
        /// Absolute file offset where bytes ran out.
        offset: u64,
    },
}

impl fmt::Display for StreamElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "elf stream i/o error: {e}"),
            Self::Parse(e) => write!(f, "{e}"),
            Self::ExtentOutOfBounds { section, offset, size, stream_len } => write!(
                f,
                "section {section} extent {offset}+{size} exceeds stream length {stream_len}"
            ),
            Self::TruncatedBlock { section, offset } => {
                write!(f, "section {section} truncated at file offset {offset}")
            }
        }
    }
}

impl Error for StreamElfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseElfError> for StreamElfError {
    fn from(e: ParseElfError) -> Self {
        Self::Parse(e)
    }
}

/// Maps reader failures: an early end-of-file is a truncated ELF,
/// anything else is I/O.
fn io_error(e: std::io::Error) -> StreamElfError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StreamElfError::Parse(ParseElfError::Truncated)
    } else {
        StreamElfError::Io(e)
    }
}

/// One section's identity and file extent (no data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (e.g. `.text`).
    pub name: String,
    /// Section type.
    pub kind: SectionKind,
    /// `sh_flags`.
    pub flags: u64,
    /// Load address.
    pub addr: u64,
    /// File offset of the section's bytes.
    pub offset: u64,
    /// Section size (`sh_size`; for `NoBits` this occupies no file bytes).
    pub size: u64,
}

impl SectionInfo {
    /// The section's `(offset, length)` extent in the file, or `None`
    /// for `NoBits` sections, which occupy no file bytes.
    pub fn file_extent(&self) -> Option<(u64, u64)> {
        (self.kind != SectionKind::NoBits).then_some((self.offset, self.size))
    }
}

/// A parsed ELF header plus section extents over an open reader.
#[derive(Debug)]
pub struct ElfStream<R> {
    reader: R,
    stream_len: u64,
    class: Class,
    endianness: Endianness,
    machine: Machine,
    entry: u64,
    sections: Vec<SectionInfo>,
}

impl<R: Read + Seek> ElfStream<R> {
    /// Reads the ELF header, section-header table, and section-name
    /// string table from `reader` — nothing else.
    ///
    /// # Errors
    ///
    /// [`StreamElfError::Parse`] for a malformed header, section table or
    /// name table; [`StreamElfError::Io`] wraps reader failures.
    pub fn open(mut reader: R) -> Result<Self, StreamElfError> {
        let stream_len = reader.seek(SeekFrom::End(0)).map_err(StreamElfError::Io)?;
        reader.seek(SeekFrom::Start(0)).map_err(StreamElfError::Io)?;
        let mut ident = [0u8; 16];
        if read_fully(&mut reader, &mut ident).map_err(io_error)? < 16 || &ident[0..4] != b"\x7FELF"
        {
            return Err(ParseElfError::BadMagic.into());
        }
        let class = match ident[4] {
            1 => Class::Elf32,
            2 => Class::Elf64,
            value => return Err(ParseElfError::BadIdent { index: 4, value }.into()),
        };
        let endianness = match ident[5] {
            1 => Endianness::Little,
            2 => Endianness::Big,
            value => return Err(ParseElfError::BadIdent { index: 5, value }.into()),
        };
        // The rest of the ELF header (after e_ident): 36 bytes for ELF32,
        // 48 for ELF64.
        let mut ehdr = vec![
            0u8;
            match class {
                Class::Elf32 => 36,
                Class::Elf64 => 48,
            }
        ];
        reader.read_exact(&mut ehdr).map_err(io_error)?;
        let mut r = FieldReader { cursor: ByteCursor::new(&ehdr), endianness, class };
        let _etype = r.u16()?;
        let machine = Machine::from_raw(r.u16()?);
        let _version = r.u32()?;
        let entry = r.addr()?;
        let _phoff = r.addr()?;
        let shoff = r.addr()?;
        let _flags = r.u32()?;
        let _ehsize = r.u16()?;
        let _phentsize = r.u16()?;
        let _phnum = r.u16()?;
        let shentsize = r.u16()?;
        let shnum = r.u16()?;
        let shstrndx = r.u16()?;
        if shnum == 0 {
            return Err(ParseElfError::NoSectionHeaders.into());
        }

        // Fields of one section header the walker needs: name(4) type(4)
        // then flags/addr/offset/size (4×4 or 4×8 bytes).
        let need = match class {
            Class::Elf32 => 24usize,
            Class::Elf64 => 40,
        };
        if usize::from(shentsize) < need {
            return Err(ParseElfError::Truncated.into());
        }
        let mut raw = Vec::with_capacity(usize::from(shnum));
        let mut header = vec![0u8; need];
        for i in 0..shnum {
            let header_offset = shoff
                .checked_add(u64::from(i) * u64::from(shentsize))
                .ok_or(ParseElfError::Truncated)?;
            if header_offset.checked_add(need as u64).is_none_or(|end| end > stream_len) {
                return Err(ParseElfError::Truncated.into());
            }
            reader.seek(SeekFrom::Start(header_offset)).map_err(StreamElfError::Io)?;
            reader.read_exact(&mut header).map_err(io_error)?;
            let mut r = FieldReader { cursor: ByteCursor::new(&header), endianness, class };
            let name_offset = r.u32()?;
            let sh_type = r.u32()?;
            let (flags, addr, offset, size) = match class {
                Class::Elf32 => (
                    u64::from(r.u32()?),
                    u64::from(r.u32()?),
                    u64::from(r.u32()?),
                    u64::from(r.u32()?),
                ),
                Class::Elf64 => (r.u64()?, r.u64()?, r.u64()?, r.u64()?),
            };
            raw.push((name_offset, sh_type, flags, addr, offset, size));
        }

        // Section-name string table (validated against the stream length,
        // so the allocation is bounded by the actual file size).
        let &(_, _, _, _, strtab_offset, strtab_size) =
            raw.get(usize::from(shstrndx)).ok_or(ParseElfError::Truncated)?;
        if strtab_offset.checked_add(strtab_size).is_none_or(|end| end > stream_len) {
            return Err(ParseElfError::Truncated.into());
        }
        let mut strtab =
            vec![0u8; usize::try_from(strtab_size).map_err(|_| ParseElfError::Truncated)?];
        reader.seek(SeekFrom::Start(strtab_offset)).map_err(StreamElfError::Io)?;
        reader.read_exact(&mut strtab).map_err(io_error)?;

        let mut sections = Vec::new();
        for (i, &(name_offset, sh_type, flags, addr, offset, size)) in raw.iter().enumerate() {
            if i == 0 || i == usize::from(shstrndx) {
                continue; // null section / shstrtab are structural
            }
            let name = read_name(&strtab, name_offset)
                .ok_or(ParseElfError::BadSectionName { section: i })?;
            let kind = SectionKind::from_raw(sh_type);
            sections.push(SectionInfo { name, kind, flags, addr, offset, size });
        }

        Ok(Self { reader, stream_len, class, endianness, machine, entry, sections })
    }

    /// ELF class of the stream.
    pub fn class(&self) -> Class {
        self.class
    }

    /// Endianness of the stream.
    pub fn endianness(&self) -> Endianness {
        self.endianness
    }

    /// Target machine.
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// Entry point address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Total stream length in bytes.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// All sections (null section and `.shstrtab` excluded), in file
    /// order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Index of the `.text` section, if present.
    pub fn text_index(&self) -> Option<usize> {
        self.sections.iter().position(|s| s.name == ".text")
    }

    /// Validates section `index`'s extent and positions the reader at
    /// its start, returning the extent length.
    fn seek_section(&mut self, index: usize) -> Result<u64, StreamElfError> {
        let section = &self.sections[index];
        let (offset, size) = section.file_extent().unwrap_or((section.offset, 0));
        if offset.checked_add(size).is_none_or(|end| end > self.stream_len) {
            return Err(StreamElfError::ExtentOutOfBounds {
                section: section.name.clone(),
                offset,
                size,
                stream_len: self.stream_len,
            });
        }
        self.reader.seek(SeekFrom::Start(offset)).map_err(StreamElfError::Io)?;
        Ok(size)
    }

    /// Reads all of section `index` (empty for a `NOBITS` section).
    ///
    /// # Errors
    ///
    /// [`StreamElfError::ExtentOutOfBounds`] when the section's extent
    /// reaches past the stream; [`StreamElfError::TruncatedBlock`] when
    /// the source ends before the extent does; [`StreamElfError::Io`] on
    /// reader failures.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read_section(&mut self, index: usize) -> Result<Vec<u8>, StreamElfError> {
        let size = self.seek_section(index)?;
        // `seek_section` bounded `size` by the stream length.
        let mut bytes = Vec::with_capacity(usize::try_from(size).unwrap_or(0));
        (&mut self.reader).take(size).read_to_end(&mut bytes).map_err(StreamElfError::Io)?;
        if (bytes.len() as u64) < size {
            let section = &self.sections[index];
            return Err(StreamElfError::TruncatedBlock {
                section: section.name.clone(),
                offset: section.offset + bytes.len() as u64,
            });
        }
        Ok(bytes)
    }
}

/// Endianness- and class-aware field reader over one header's bytes.
struct FieldReader<'a> {
    cursor: ByteCursor<'a>,
    endianness: Endianness,
    class: Class,
}

impl FieldReader<'_> {
    fn u16(&mut self) -> Result<u16, ParseElfError> {
        Ok(match self.endianness {
            Endianness::Little => self.cursor.read_u16_le()?,
            Endianness::Big => self.cursor.read_u16_be()?,
        })
    }
    fn u32(&mut self) -> Result<u32, ParseElfError> {
        Ok(match self.endianness {
            Endianness::Little => self.cursor.read_u32_le()?,
            Endianness::Big => self.cursor.read_u32_be()?,
        })
    }
    fn u64(&mut self) -> Result<u64, ParseElfError> {
        Ok(match self.endianness {
            Endianness::Little => self.cursor.read_u64_le()?,
            Endianness::Big => self.cursor.read_u64_be()?,
        })
    }
    fn addr(&mut self) -> Result<u64, ParseElfError> {
        match self.class {
            Class::Elf32 => Ok(u64::from(self.u32()?)),
            Class::Elf64 => self.u64(),
        }
    }
}

/// The NUL-terminated UTF-8 name at `offset` in the section-name table.
fn read_name(strtab: &[u8], offset: u32) -> Option<String> {
    let start = usize::try_from(offset).ok()?;
    let rest = strtab.get(start..)?;
    let end = rest.iter().position(|&b| b == 0)?;
    String::from_utf8(rest[..end].to_vec()).ok()
}

/// Reads until `buf` is full or EOF, returning the bytes read.
fn read_fully<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ElfImage, Section};
    use std::io::Cursor;

    fn sample_image() -> ElfImage {
        let mut image = ElfImage::new_executable(
            Machine::Mips,
            Class::Elf32,
            Endianness::Big,
            (0..200u8).collect(),
        );
        image.sections.push(Section {
            name: ".rodata".into(),
            kind: SectionKind::ProgBits,
            flags: 0x2,
            addr: 0x0041_0000,
            data: vec![9; 33],
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
        image
    }

    #[test]
    fn stream_matches_buffered_parse() {
        let image = sample_image();
        let bytes = image.to_bytes();
        let stream = ElfStream::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(stream.class(), image.class);
        assert_eq!(stream.endianness(), image.endianness);
        assert_eq!(stream.machine(), image.machine);
        assert_eq!(stream.entry(), image.entry);
        let names: Vec<&str> = stream.sections().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, [".text", ".rodata", ".bss"]);
        assert_eq!(stream.sections()[0].size, 200);
        assert_eq!(stream.sections()[2].file_extent(), None);
    }

    #[test]
    fn read_section_returns_the_exact_bytes() {
        let image = sample_image();
        let bytes = image.to_bytes();
        let mut stream = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let text_index = stream.text_index().unwrap();
        assert_eq!(stream.read_section(text_index).unwrap(), (0..200u8).collect::<Vec<_>>());
        // Reading again re-seeks: the same bytes come back.
        assert_eq!(stream.read_section(text_index).unwrap().len(), 200);
    }

    #[test]
    fn read_section_is_bounded_to_the_extent() {
        let image = sample_image();
        let bytes = image.to_bytes();
        let mut stream = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let rodata = stream.sections().iter().position(|s| s.name == ".rodata").unwrap();
        assert_eq!(stream.read_section(rodata).unwrap(), vec![9; 33]);
        let bss = stream.sections().iter().position(|s| s.name == ".bss").unwrap();
        assert!(stream.read_section(bss).unwrap().is_empty());
    }

    #[test]
    fn zero_length_text_section_yields_no_blocks() {
        let image = ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, vec![]);
        let bytes = image.to_bytes();
        let mut stream = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let text_index = stream.text_index().unwrap();
        assert_eq!(stream.sections()[text_index].size, 0);
        assert!(stream.read_section(text_index).unwrap().is_empty());
    }

    #[test]
    fn extent_past_stream_end_is_a_typed_error() {
        let image =
            ElfImage::new_executable(Machine::I386, Class::Elf64, Endianness::Little, vec![1; 64]);
        let mut bytes = image.to_bytes();
        // Poke .text's sh_size (section header 1, +0x20 in ELF64) far
        // past the end of the file.
        let shoff = u64::from_le_bytes(bytes[0x28..0x30].try_into().unwrap()) as usize;
        let field = shoff + 0x40 + 0x20;
        let huge = (bytes.len() as u64) * 2;
        bytes[field..field + 8].copy_from_slice(&huge.to_le_bytes());
        let mut stream = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let text_index = stream.text_index().unwrap();
        let err = stream.read_section(text_index).unwrap_err();
        assert!(
            matches!(err, StreamElfError::ExtentOutOfBounds { ref section, .. } if section == ".text"),
            "{err}"
        );
    }

    /// A reader that stops producing bytes inside a hole — models a file
    /// whose `.text` tail vanished after `open` validated the extents
    /// (headers before and after the hole still read fine).
    struct HoleReader {
        inner: Cursor<Vec<u8>>,
        hole_start: u64,
        hole_end: u64,
    }

    impl Read for HoleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let pos = self.inner.position();
            if (self.hole_start..self.hole_end).contains(&pos) {
                return Ok(0);
            }
            let cap = if pos < self.hole_start {
                usize::try_from(self.hole_start - pos).unwrap_or(usize::MAX).min(buf.len())
            } else {
                buf.len()
            };
            self.inner.read(&mut buf[..cap])
        }
    }

    impl Seek for HoleReader {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn truncated_final_block_is_a_typed_error() {
        let image =
            ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, vec![5; 100]);
        let full = image.to_bytes();
        let stream = ElfStream::open(Cursor::new(&full)).unwrap();
        let text_index = stream.text_index().unwrap();
        let text_offset = stream.sections()[text_index].offset;
        // Bytes vanish 10 bytes into the .text extent; extent validation
        // still passes because the stream length is unchanged.
        let lying = HoleReader {
            inner: Cursor::new(full.clone()),
            hole_start: text_offset + 10,
            hole_end: text_offset + 100,
        };
        let mut stream = ElfStream::open(lying).unwrap();
        let err = stream.read_section(text_index).unwrap_err();
        assert!(
            matches!(err, StreamElfError::TruncatedBlock { ref section, offset }
                if section == ".text" && offset == text_offset + 10),
            "{err}"
        );
    }

    #[test]
    fn missing_section_header_table_is_a_typed_error() {
        // A program-header-only ELF32 big-endian MIPS executable: the ELF
        // header with e_shoff = e_shnum = e_shstrndx = 0, one PT_LOAD
        // program header, then 32 bytes of code.
        let mut bytes = b"\x7FELF\x01\x02\x01".to_vec();
        bytes.resize(16, 0);
        let u16s = |bytes: &mut Vec<u8>, values: &[u16]| {
            values.iter().for_each(|v| bytes.extend(v.to_be_bytes()));
        };
        let u32s = |bytes: &mut Vec<u8>, values: &[u32]| {
            values.iter().for_each(|v| bytes.extend(v.to_be_bytes()));
        };
        u16s(&mut bytes, &[2, 8]); // e_type EXEC, e_machine MIPS
        u32s(&mut bytes, &[1, 0x0040_0054, 52, 0, 0]); // version, entry, phoff, shoff, flags
        u16s(&mut bytes, &[52, 32, 1, 40, 0, 0]); // ehsize, phentsize, phnum, shentsize, shnum, shstrndx
        u32s(&mut bytes, &[1, 84, 0x0040_0054, 0x0040_0054, 32, 32, 5, 4]); // PT_LOAD
        bytes.resize(116, 0);

        let err = ElfStream::open(Cursor::new(bytes.clone())).unwrap_err();
        assert!(matches!(err, StreamElfError::Parse(ParseElfError::NoSectionHeaders)), "{err}");
        assert!(err.to_string().contains("no section headers"), "{err}");
        assert!(matches!(ElfImage::parse(&bytes), Err(ParseElfError::NoSectionHeaders)));
    }

    #[test]
    fn garbage_is_rejected_like_the_buffered_parser() {
        assert!(matches!(
            ElfStream::open(Cursor::new(b"not an elf".to_vec())).unwrap_err(),
            StreamElfError::Parse(ParseElfError::BadMagic)
        ));
        let image =
            ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, vec![1; 16]);
        let mut bytes = image.to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            ElfStream::open(Cursor::new(bytes.clone())).unwrap_err(),
            StreamElfError::Parse(ParseElfError::BadIdent { index: 4, value: 9 })
        ));
        bytes[4] = 1;
        for cut in [8, 20, 40] {
            let result = ElfStream::open(Cursor::new(bytes[..cut].to_vec()));
            assert!(result.is_err(), "cut at {cut} opened successfully");
        }
    }
}
