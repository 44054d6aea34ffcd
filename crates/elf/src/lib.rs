//! Minimal ELF object reader/writer focused on text sections.
//!
//! The paper compresses the instruction portion of SPEC95 *executables* —
//! "we only compress the part of the executable which contains
//! instructions, not any data, tables etc."  This crate provides exactly
//! the tooling that workflow needs:
//!
//! * [`ElfStream`] reads ELF32/ELF64 objects in either endianness from any
//!   `Read + Seek` source: the headers and section table on
//!   [`ElfStream::open`], then one section's bytes on demand, so `.text`
//!   can be pulled out of a real binary without reading the rest.
//!   [`ElfImage::parse`] runs the same reader over a buffer and collects
//!   every section.
//! * [`ElfImage::to_bytes`] writes a valid image back out, which the
//!   synthetic SPEC95 workload generator uses so that the whole pipeline
//!   (ELF in → compress → decompress → ELF-identical text out) is exercised
//!   end to end without needing the original proprietary binaries.
//!
//! # Examples
//!
//! ```
//! use cce_elf::{ElfImage, Endianness, Class, Machine};
//!
//! # fn main() -> Result<(), cce_elf::ParseElfError> {
//! let text = vec![0x27, 0xBD, 0xFF, 0xF8]; // addiu $sp, $sp, -8
//! let image = ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, text.clone());
//! let bytes = image.to_bytes();
//!
//! let parsed = ElfImage::parse(&bytes)?;
//! assert_eq!(parsed.text().expect("has .text"), &text[..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod read;
mod stream;
mod write;

pub use image::{Class, ElfImage, Endianness, Machine, Section, SectionKind};
pub use read::ParseElfError;
pub use stream::{ElfStream, SectionInfo, StreamElfError};
