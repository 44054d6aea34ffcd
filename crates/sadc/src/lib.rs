//! SADC — Semiadaptive Dictionary Compression (Lekatsas & Wolf, DAC 1998, §4).
//!
//! SADC is the paper's ISA-*dependent* method.  Per program it builds a
//! dictionary of at most 256 entries mapping byte-sized indices to opcodes,
//! opcode groups, and opcode–operand combinations, then Huffman-codes the
//! resulting streams:
//!
//! * **MIPS** ([`MipsSadc`]): instructions are split into opcode, register,
//!   16-bit-immediate and 26-bit-immediate streams.  The dictionary is
//!   grown iteratively — each cycle inserts the candidate with the largest
//!   gain, chosen among adjacent opcode pairs/triples (`g = f·(k−1) − n`),
//!   register specializations like `jr $31` (`g = f·n_regs − cost`), and
//!   immediate specializations (`g = 2·f − cost`) — then the program is
//!   re-parsed with the new entry, exactly the build/parse interleaving the
//!   paper describes.  Dictionary groups never cross cache-block
//!   boundaries, preserving random access.
//! * **x86** ([`X86Sadc`]): three byte streams (prefix+opcode, ModRM+SIB,
//!   displacement+immediate); the dictionary groups opcode byte strings.
//!   The decompressor reconstructs instruction lengths incrementally with
//!   [`cce_isa::x86::progressive_layout`], so no instruction-generator unit
//!   is needed — the property the paper points out for Pentium.
//!
//! Both codecs ship real decompressors; every compressed size reported
//! includes the dictionary and the Huffman tables.  Compression produces a
//! generic [`cce_codec::BlockImage`], and both codecs compress, decode and
//! serialize through [`cce_codec::BlockCodec`], the workspace-wide codec
//! trait.
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_sadc::{MipsSadc, MipsSadcConfig};
//! use cce_isa::mips::{encode_text, Instruction, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let insns: Vec<Instruction> = (0..2000)
//!     .flat_map(|i| [
//!         Instruction::lw(Reg::T0, (i % 16) * 4, Reg::SP),
//!         Instruction::addu(Reg::V0, Reg::V0, Reg::T0),
//!         Instruction::sw(Reg::V0, 0, Reg::SP),
//!     ])
//!     .collect();
//! let text = encode_text(&insns);
//!
//! let codec = MipsSadc::train(&text, MipsSadcConfig::default())?;
//! let image = codec.compress(&text)?;
//! assert!(image.ratio() < 0.6, "ratio {}", image.ratio());
//! assert_eq!(codec.decompress(&image)?, text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mips;
pub mod obs;
mod serialize;
mod tokens;
mod x86;

pub use mips::{MipsSadc, MipsSadcConfig, Template, TemplateItem};
pub use tokens::TokenStats;
pub use x86::{X86Sadc, X86SadcConfig};
