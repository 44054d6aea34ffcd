//! In-memory ELF model.

/// ELF file class (word size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// 32-bit (`ELFCLASS32`).
    Elf32,
    /// 64-bit (`ELFCLASS64`).
    Elf64,
}

/// ELF data encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// `ELFDATA2LSB`.
    Little,
    /// `ELFDATA2MSB`.
    Big,
}

/// Target machine (`e_machine`), limited to the paper's two architectures
/// plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// `EM_386` (3).
    I386,
    /// `EM_MIPS` (8).
    Mips,
    /// Anything else, kept verbatim.
    Other(u16),
}

impl Machine {
    /// The raw `e_machine` value.
    pub fn raw(self) -> u16 {
        match self {
            Machine::I386 => 3,
            Machine::Mips => 8,
            Machine::Other(v) => v,
        }
    }

    /// Creates from a raw `e_machine` value.
    pub fn from_raw(raw: u16) -> Self {
        match raw {
            3 => Machine::I386,
            8 => Machine::Mips,
            other => Machine::Other(other),
        }
    }
}

/// Section type (`sh_type`), limited to the kinds the tooling touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// `SHT_PROGBITS`.
    ProgBits,
    /// `SHT_NOBITS` (e.g. `.bss`): occupies no file bytes.
    NoBits,
    /// `SHT_STRTAB`.
    StrTab,
    /// Anything else, kept verbatim.
    Other(u32),
}

impl SectionKind {
    /// The raw `sh_type` value.
    pub fn raw(self) -> u32 {
        match self {
            SectionKind::ProgBits => 1,
            SectionKind::NoBits => 8,
            SectionKind::StrTab => 3,
            SectionKind::Other(v) => v,
        }
    }

    /// Creates from a raw `sh_type` value.
    pub fn from_raw(raw: u32) -> Self {
        match raw {
            1 => SectionKind::ProgBits,
            3 => SectionKind::StrTab,
            8 => SectionKind::NoBits,
            other => SectionKind::Other(other),
        }
    }
}

/// One named section with its contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `.text`).
    pub name: String,
    /// Section type.
    pub kind: SectionKind,
    /// `sh_flags` verbatim.
    pub flags: u64,
    /// Virtual address (`sh_addr`).
    pub addr: u64,
    /// File contents (empty for [`SectionKind::NoBits`]).
    pub data: Vec<u8>,
    /// Size for `NoBits` sections (whose data is not in the file).
    pub nobits_size: u64,
}

impl Section {
    /// A `.text`-style PROGBITS section (alloc + execinstr flags).
    pub fn progbits(name: &str, addr: u64, data: Vec<u8>) -> Self {
        Section {
            name: name.to_owned(),
            kind: SectionKind::ProgBits,
            flags: 0x2 | 0x4, // SHF_ALLOC | SHF_EXECINSTR
            addr,
            data,
            nobits_size: 0,
        }
    }
}

/// A parsed or synthesized ELF image.
///
/// The model keeps only what the compression pipeline needs — the header
/// identity fields and the section list.  Program headers, symbols and
/// relocations are out of scope (the codecs never consult them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfImage {
    /// File class.
    pub class: Class,
    /// Data encoding.
    pub endianness: Endianness,
    /// Target machine.
    pub machine: Machine,
    /// Entry point (`e_entry`).
    pub entry: u64,
    /// Sections in file order (excluding the mandatory null section, which
    /// the writer synthesizes).
    pub sections: Vec<Section>,
}

impl ElfImage {
    /// Builds a minimal executable with one `.text` section at the
    /// conventional base address for the architecture.
    pub fn new_executable(
        machine: Machine,
        class: Class,
        endianness: Endianness,
        text: Vec<u8>,
    ) -> Self {
        let base = match machine {
            Machine::Mips => 0x0040_0000,
            Machine::I386 => 0x0804_8000,
            Machine::Other(_) => 0x1_0000,
        };
        ElfImage {
            class,
            endianness,
            machine,
            entry: base,
            sections: vec![Section::progbits(".text", base, text)],
        }
    }

    /// The contents of the first `.text` section, if present.
    pub fn text(&self) -> Option<&[u8]> {
        self.section(".text").map(|s| s.data.as_slice())
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}
