//! On-disk format for trained SADC codecs.
//!
//! The decompressor-side artifact stores the dictionary *build rules*
//! (templates are reconstructed by replaying them over the base
//! alphabet), the Huffman code-length tables (canonical codes need
//! nothing else), and the configuration.  Compressed blocks go to disk
//! in the `.cce` container (`cce_core::container`), next to these model
//! bytes.
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_isa::mips::{encode_text, Instruction, Reg};
//! use cce_sadc::{MipsSadc, MipsSadcConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let insns: Vec<Instruction> =
//!     (0..500).map(|i| Instruction::lw(Reg::T0, (i % 32) * 4, Reg::SP)).collect();
//! let text = encode_text(&insns);
//! let codec = MipsSadc::train(&text, MipsSadcConfig::default())?;
//! let image = codec.compress(&text)?;
//!
//! // The decompressor side holds only the serialized model.
//! let codec2 = MipsSadc::from_bytes(&codec.to_bytes())?;
//! assert_eq!(codec2.decompress(&image)?, text);
//! # Ok(())
//! # }
//! ```

use crate::mips::{Candidate, MipsSadc, MipsSadcConfig};
use crate::x86::{X86Sadc, X86SadcConfig};
use cce_bitstream::{BitReader, BitWriter, EndOfStreamError};
use cce_codec::CodecError;
use cce_huffman::CodeBook;

const MIPS_MAGIC: u32 = u32::from_be_bytes(*b"SADM");
const X86_MAGIC: u32 = u32::from_be_bytes(*b"SADX");
const VERSION: u16 = 1;

/// Display name used in deserialization errors.
const NAME: &str = "SADC";

/// Brands a truncated-input error with this codec's name.
fn named(e: EndOfStreamError) -> CodecError {
    CodecError::from(e).named(NAME)
}

/// A structural-inconsistency error.
fn corrupt(what: &'static str) -> CodecError {
    CodecError::corrupt(NAME, what)
}

/// Writes an optional code book as a presence bit plus 4-bit lengths.
fn write_book(w: &mut BitWriter, book: Option<&CodeBook>, symbols: usize) {
    match book {
        Some(book) => {
            w.write_bit(true);
            debug_assert_eq!(book.lengths().len(), symbols);
            for &l in book.lengths() {
                w.write_bits(u32::from(l), 4);
            }
        }
        None => w.write_bit(false),
    }
}

/// Inverse of [`write_book`].
fn read_book(r: &mut BitReader<'_>, symbols: usize) -> Result<Option<CodeBook>, CodecError> {
    if !r.read_bit().map_err(named)? {
        return Ok(None);
    }
    let mut lengths = Vec::with_capacity(symbols);
    for _ in 0..symbols {
        lengths.push(r.read_bits(4).map_err(named)? as u8);
    }
    CodeBook::from_lengths(lengths).map(Some).map_err(|_| corrupt("invalid code lengths"))
}

/// Serializes the trained codec (config, build rules, code tables).
pub(crate) fn write_mips(codec: &MipsSadc) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(MIPS_MAGIC, 32);
    w.write_bits(u32::from(VERSION), 16);
    let config = codec.config();
    w.write_bits(config.block_size as u32, 32);
    w.write_bits(config.max_tokens as u32, 16);
    w.write_bit(config.groups);
    w.write_bit(config.reg_specialization);
    w.write_bit(config.imm_specialization);

    let rules = codec.rules();
    w.write_bits(rules.len() as u32, 16);
    for rule in rules {
        match rule {
            Candidate::Pair(a, b) => {
                w.write_bits(0, 2);
                w.write_bits(*a as u32, 16);
                w.write_bits(*b as u32, 16);
            }
            Candidate::Triple(a, b, c) => {
                w.write_bits(1, 2);
                w.write_bits(*a as u32, 16);
                w.write_bits(*b as u32, 16);
                w.write_bits(*c as u32, 16);
            }
            Candidate::Regs(t, regs) => {
                w.write_bits(2, 2);
                w.write_bits(*t as u32, 16);
                w.write_bits(regs.len() as u32, 8);
                for &r in regs {
                    w.write_bits(u32::from(r), 8);
                }
            }
            Candidate::Imm(t, imm) => {
                w.write_bits(3, 2);
                w.write_bits(*t as u32, 16);
                w.write_bits(u32::from(*imm), 16);
            }
        }
    }

    let (op_book, reg_book, imm_book, limm_book) = codec.books();
    write_book(&mut w, Some(op_book), op_book.lengths().len());
    write_book(&mut w, reg_book, 256);
    write_book(&mut w, imm_book, 256);
    write_book(&mut w, limm_book, 256);
    w.align_to_byte();
    w.into_bytes()
}

impl MipsSadc {
    /// Deserializes a codec written by [`BlockCodec::to_bytes`][to_bytes].
    ///
    /// [to_bytes]: cce_codec::BlockCodec::to_bytes
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for a bad magic number, an
    /// unsupported version, truncation, or inconsistent fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let magic = r.read_bits(32).map_err(named)?;
        if magic != MIPS_MAGIC {
            return Err(corrupt("bad magic number"));
        }
        let version = r.read_bits(16).map_err(named)? as u16;
        if version != VERSION {
            return Err(corrupt("unsupported format version"));
        }
        let config = MipsSadcConfig {
            block_size: r.read_bits(32).map_err(named)? as usize,
            max_tokens: r.read_bits(16).map_err(named)? as usize,
            groups: r.read_bit().map_err(named)?,
            reg_specialization: r.read_bit().map_err(named)?,
            imm_specialization: r.read_bit().map_err(named)?,
        };
        // Capped at 1 MiB: bounds decode amplification from tampered headers.
        if config.block_size == 0
            || config.block_size > (1 << 20)
            || !config.block_size.is_multiple_of(4)
        {
            return Err(corrupt("block size"));
        }
        let rule_count = r.read_bits(16).map_err(named)? as usize;
        let mut rules = Vec::with_capacity(rule_count);
        for _ in 0..rule_count {
            rules.push(match r.read_bits(2).map_err(named)? {
                0 => Candidate::Pair(
                    r.read_bits(16).map_err(named)? as usize,
                    r.read_bits(16).map_err(named)? as usize,
                ),
                1 => Candidate::Triple(
                    r.read_bits(16).map_err(named)? as usize,
                    r.read_bits(16).map_err(named)? as usize,
                    r.read_bits(16).map_err(named)? as usize,
                ),
                2 => {
                    let t = r.read_bits(16).map_err(named)? as usize;
                    let n = r.read_bits(8).map_err(named)? as usize;
                    let mut regs = Vec::with_capacity(n);
                    for _ in 0..n {
                        regs.push(r.read_bits(8).map_err(named)? as u8);
                    }
                    Candidate::Regs(t, regs)
                }
                _ => Candidate::Imm(
                    r.read_bits(16).map_err(named)? as usize,
                    r.read_bits(16).map_err(named)? as u16,
                ),
            });
        }
        let templates = MipsSadc::templates_from_rules(&rules).map_err(corrupt)?;
        let op_book =
            read_book(&mut r, templates.len())?.ok_or_else(|| corrupt("missing opcode book"))?;
        let reg_book = read_book(&mut r, 256)?;
        let imm_book = read_book(&mut r, 256)?;
        let limm_book = read_book(&mut r, 256)?;
        Ok(MipsSadc::from_parts(config, templates, rules, op_book, reg_book, imm_book, limm_book))
    }
}

/// Serializes the trained codec (config, base opcode strings, group
/// rules, code tables).
pub(crate) fn write_x86(codec: &X86Sadc) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(X86_MAGIC, 32);
    w.write_bits(u32::from(VERSION), 16);
    let config = codec.config();
    w.write_bits(config.block_size as u32, 32);
    w.write_bits(config.max_tokens as u32, 16);
    w.write_bit(config.groups);

    let base = codec.base_strings();
    w.write_bits(base.len() as u32, 16);
    for s in base {
        w.write_bits(s.len() as u32, 8);
        for &b in s {
            w.write_bits(u32::from(b), 8);
        }
    }
    let rules = codec.rules();
    w.write_bits(rules.len() as u32, 16);
    for rule in rules {
        w.write_bits(rule.len() as u32, 8);
        for &t in rule {
            w.write_bits(t as u32, 16);
        }
    }
    let (token_book, modrm_book, imm_book) = codec.books();
    write_book(&mut w, Some(token_book), token_book.lengths().len());
    write_book(&mut w, modrm_book, 256);
    write_book(&mut w, imm_book, 256);
    w.align_to_byte();
    w.into_bytes()
}

impl X86Sadc {
    /// Deserializes a codec written by [`BlockCodec::to_bytes`][to_bytes].
    ///
    /// [to_bytes]: cce_codec::BlockCodec::to_bytes
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for a bad magic number, an
    /// unsupported version, truncation, or inconsistent fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let magic = r.read_bits(32).map_err(named)?;
        if magic != X86_MAGIC {
            return Err(corrupt("bad magic number"));
        }
        let version = r.read_bits(16).map_err(named)? as u16;
        if version != VERSION {
            return Err(corrupt("unsupported format version"));
        }
        let config = X86SadcConfig {
            block_size: r.read_bits(32).map_err(named)? as usize,
            max_tokens: r.read_bits(16).map_err(named)? as usize,
            groups: r.read_bit().map_err(named)?,
        };
        if config.block_size == 0 || config.block_size > (1 << 20) {
            return Err(corrupt("block size"));
        }
        let base_count = r.read_bits(16).map_err(named)? as usize;
        let mut base_strings = Vec::with_capacity(base_count);
        for _ in 0..base_count {
            let n = r.read_bits(8).map_err(named)? as usize;
            let mut s = Vec::with_capacity(n);
            for _ in 0..n {
                s.push(r.read_bits(8).map_err(named)? as u8);
            }
            base_strings.push(s);
        }
        let rule_count = r.read_bits(16).map_err(named)? as usize;
        let mut rules = Vec::with_capacity(rule_count);
        for _ in 0..rule_count {
            let k = r.read_bits(8).map_err(named)? as usize;
            let mut pattern = Vec::with_capacity(k);
            for _ in 0..k {
                pattern.push(r.read_bits(16).map_err(named)? as usize);
            }
            rules.push(pattern);
        }
        let templates = X86Sadc::templates_from_rules(base_count, &rules).map_err(corrupt)?;
        let token_book =
            read_book(&mut r, templates.len())?.ok_or_else(|| corrupt("missing token book"))?;
        let modrm_book = read_book(&mut r, 256)?;
        let imm_book = read_book(&mut r, 256)?;
        Ok(X86Sadc::from_parts(
            config,
            base_strings,
            templates,
            rules,
            token_book,
            modrm_book,
            imm_book,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_codec::BlockCodec;
    use cce_isa::mips::{encode_text, Instruction, Reg};
    use cce_isa::x86::asm::{self, reg, Alu};

    fn mips_text() -> Vec<u8> {
        let insns: Vec<Instruction> = (0..600)
            .flat_map(|i| {
                [
                    Instruction::lw(Reg::T0, (i % 16) * 4, Reg::SP),
                    Instruction::addu(Reg::V0, Reg::V0, Reg::T0),
                    Instruction::jr(Reg::RA),
                    Instruction::nop(),
                ]
            })
            .collect();
        encode_text(&insns)
    }

    fn x86_text() -> Vec<u8> {
        let mut text = Vec::new();
        for i in 0..400 {
            text.extend(asm::push_r(reg::EBP));
            text.extend(asm::mov_rr(reg::EBP, reg::ESP));
            text.extend(asm::mov_load(reg::EAX, reg::EBP, (i % 16) as i8 * 4));
            text.extend(asm::alu_rr(Alu::Add, reg::EAX, reg::ECX));
            text.extend(asm::leave());
            text.extend(asm::ret());
        }
        text
    }

    #[test]
    fn mips_codec_round_trips() {
        let text = mips_text();
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let restored = MipsSadc::from_bytes(&codec.to_bytes()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(restored.compress(&text).unwrap(), image);
        assert_eq!(restored.decompress(&image).unwrap(), text);
    }

    #[test]
    fn x86_codec_round_trips() {
        let text = x86_text();
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let restored = X86Sadc::from_bytes(&codec.to_bytes()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(restored.compress(&text).unwrap(), image);
        assert_eq!(restored.decompress(&image).unwrap(), text);
    }

    #[test]
    fn serialized_dict_cost_is_at_most_the_accounting() {
        // The rule-based encoding must not exceed what dict_bytes()
        // charges (rules are more compact than flattened templates).
        let text = mips_text();
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let bytes = codec.to_bytes();
        let books = 4 * 160 + codec.templates().len() / 2 + 8; // generous table bound
        assert!(
            bytes.len() <= codec.dict_bytes() + books + 64,
            "serialized {} vs dict {} + tables {books}",
            bytes.len(),
            codec.dict_bytes()
        );
    }

    #[test]
    fn cross_magic_is_rejected() {
        let text = mips_text();
        let mips = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        assert!(matches!(
            X86Sadc::from_bytes(&mips.to_bytes()),
            Err(CodecError::Corrupt { codec: "SADC", .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = mips_text();
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let bytes = codec.to_bytes();
        for cut in [3, 9, bytes.len() / 3] {
            assert!(MipsSadc::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_fields_fail_cleanly_not_by_panic() {
        let text = mips_text();
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let bytes = codec.to_bytes();
        // Zero out the block size (bytes 6..10): must be a clean error.
        let mut bad = bytes.clone();
        for b in &mut bad[6..10] {
            *b = 0;
        }
        assert!(matches!(
            MipsSadc::from_bytes(&bad),
            Err(CodecError::Corrupt { codec: "SADC", .. })
        ));
        // Flipping any early byte must never abort the process.
        for i in 0..bytes.len().min(128) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let _ = MipsSadc::from_bytes(&bad);
        }
    }
}
