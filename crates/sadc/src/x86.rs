//! SADC for x86 (Pentium Pro): three byte streams, dictionary over opcode
//! byte strings.
//!
//! As the paper notes, a Pentium SADC decompressor needs no instruction
//! generator: the streams are consecutive bytes.  What it *does* need is to
//! know, per instruction, how many ModRM/SIB and displacement/immediate
//! bytes to pull — which the opcode (plus the ModRM byte itself) fully
//! determines.  [`cce_isa::x86::progressive_layout`] supplies exactly that,
//! so the decompressor here reconstructs instructions incrementally:
//! dictionary token → opcode bytes → ModRM/SIB (Huffman-decoded as needed)
//! → displacement/immediate bytes.

use crate::mips::{code_error, corrupt_block};
use crate::tokens::{replace_in_blocks, TokenStats};
use cce_bitstream::{BitReader, BitWriter};
use cce_codec::{BlockCodec, CodecError};
use cce_huffman::CodeBook;
use cce_isa::x86::{progressive_layout, split_streams, LayoutProgress};
use std::collections::HashMap;
use std::ops::Range;

/// Display name used in errors and tables.
const NAME: &str = "SADC";

/// Configuration for [`X86Sadc::train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct X86SadcConfig {
    /// Cache block size in bytes (blocks are instruction-aligned, so the
    /// actual uncompressed block sizes straddle this value slightly).
    pub block_size: usize,
    /// Maximum dictionary size (≤ 256 so indices fit a byte).
    pub max_tokens: usize,
    /// Enable opcode-group candidates.
    pub groups: bool,
}

impl Default for X86SadcConfig {
    fn default() -> Self {
        Self { block_size: 32, max_tokens: 256, groups: true }
    }
}

/// One decoded instruction's three stream slices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InsnParts {
    /// Prefix + opcode bytes.
    opcode: Vec<u8>,
    /// ModRM + SIB bytes.
    modrm_sib: Vec<u8>,
    /// Displacement + immediate bytes.
    imm_disp: Vec<u8>,
}

impl InsnParts {
    fn total_len(&self) -> usize {
        self.opcode.len() + self.modrm_sib.len() + self.imm_disp.len()
    }
}

/// The trained x86 SADC codec.
#[derive(Debug, Clone)]
pub struct X86Sadc {
    config: X86SadcConfig,
    /// Base token id → prefix+opcode byte string.
    base_strings: Vec<Vec<u8>>,
    /// Token id → base-token expansion (singletons for base tokens).
    templates: Vec<Vec<usize>>,
    /// Group build rules in insertion order (replayed at compress time).
    rules: Vec<Vec<usize>>,
    token_book: CodeBook,
    modrm_book: Option<CodeBook>,
    imm_book: Option<CodeBook>,
}

impl X86Sadc {
    /// Builds the dictionary and Huffman tables for `text`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for empty or undecodable text, a zero
    /// block size, or a program whose distinct opcode strings exceed the
    /// dictionary's token budget.
    pub fn train(text: &[u8], config: X86SadcConfig) -> Result<Self, CodecError> {
        if text.is_empty() {
            return Err(CodecError::train(NAME, "cannot train on an empty text section"));
        }
        if config.block_size == 0 {
            return Err(CodecError::train(NAME, "block size must be positive"));
        }
        let parts = parse_instructions(text)?;

        // Assign base token ids to distinct opcode strings, most frequent
        // first (shorter Huffman codes for hot opcodes).
        let mut string_freq: HashMap<&[u8], u32> = HashMap::new();
        for p in &parts {
            *string_freq.entry(&p.opcode).or_insert(0) += 1;
        }
        let mut ordered: Vec<(&[u8], u32)> = string_freq.into_iter().collect();
        ordered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        // Leave room for at least a handful of group entries.
        if ordered.len() > config.max_tokens.saturating_sub(8) {
            return Err(CodecError::train(
                NAME,
                format!(
                    "{} distinct opcode strings exceed the {}-token dictionary",
                    ordered.len(),
                    config.max_tokens
                ),
            ));
        }
        let base_strings: Vec<Vec<u8>> = ordered.iter().map(|(s, _)| s.to_vec()).collect();
        let string_to_id: HashMap<&[u8], usize> =
            base_strings.iter().enumerate().map(|(i, s)| (s.as_slice(), i)).collect();

        // Blocks: instruction-aligned groups of roughly block_size bytes.
        let insn_blocks = group_blocks(&parts, config.block_size);
        let mut templates: Vec<Vec<usize>> = (0..base_strings.len()).map(|i| vec![i]).collect();
        let mut token_blocks: Vec<Vec<usize>> = insn_blocks
            .iter()
            .map(|range| {
                parts[range.clone()].iter().map(|p| string_to_id[p.opcode.as_slice()]).collect()
            })
            .collect();

        let mut rules: Vec<Vec<usize>> = Vec::new();
        if config.groups {
            while templates.len() < config.max_tokens {
                let stats = TokenStats::scan(&token_blocks);
                let storage = |t: usize| -> i64 {
                    templates[t].iter().map(|&b| base_strings[b].len() as i64 + 1).sum()
                };
                let mut best: Option<(i64, Vec<usize>)> = None;
                for (&(a, b), &f) in &stats.pairs {
                    let gain = i64::from(f) - (storage(a) + storage(b) + 1);
                    if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, vec![a, b]));
                    }
                }
                for (&(a, b, c), &f) in &stats.triples {
                    let gain = 2 * i64::from(f) - (storage(a) + storage(b) + storage(c) + 1);
                    if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, vec![a, b, c]));
                    }
                }
                let Some((gain, pattern)) = best else { break };
                if gain <= 0 {
                    break;
                }
                let new_id = templates.len();
                let expansion: Vec<usize> =
                    pattern.iter().flat_map(|&t| templates[t].clone()).collect();
                templates.push(expansion);
                replace_in_blocks(&mut token_blocks, &pattern, new_id);
                rules.push(pattern);
            }
        }

        // Huffman statistics.
        let mut token_freq = vec![0u64; templates.len()];
        for block in &token_blocks {
            for &t in block {
                token_freq[t] += 1;
            }
        }
        let mut modrm_freq = [0u64; 256];
        let mut imm_freq = [0u64; 256];
        for p in &parts {
            for &b in &p.modrm_sib {
                modrm_freq[usize::from(b)] += 1;
            }
            for &b in &p.imm_disp {
                imm_freq[usize::from(b)] += 1;
            }
        }
        let token_book =
            CodeBook::from_frequencies(&token_freq, 15).expect("programs are non-empty");
        let modrm_book = CodeBook::from_frequencies(&modrm_freq, 15).ok();
        let imm_book = CodeBook::from_frequencies(&imm_freq, 15).ok();

        Ok(Self { config, base_strings, templates, rules, token_book, modrm_book, imm_book })
    }

    /// Dictionary storage: the base opcode-string table plus group entries.
    pub fn dict_bytes(&self) -> usize {
        let base: usize = self.base_strings.iter().map(|s| 1 + s.len()).sum();
        let groups: usize = self.templates[self.base_strings.len()..]
            .iter()
            .map(|expansion| 1 + expansion.len())
            .sum();
        base + groups
    }

    /// Serialized Huffman table size (4-bit code lengths per symbol).
    pub fn table_bytes(&self) -> usize {
        let mut bits = self.templates.len() * 4;
        for book in [&self.modrm_book, &self.imm_book].into_iter().flatten() {
            bits += book.lengths().len() * 4;
        }
        bits.div_ceil(8)
    }

    /// Number of dictionary tokens (base + groups).
    pub fn token_count(&self) -> usize {
        self.templates.len()
    }

    /// The configuration this codec was trained with.
    pub fn config(&self) -> &X86SadcConfig {
        &self.config
    }

    /// The base opcode strings (crate-internal, for the serializer).
    pub(crate) fn base_strings(&self) -> &[Vec<u8>] {
        &self.base_strings
    }

    /// The group rules (crate-internal, for the serializer).
    pub(crate) fn rules(&self) -> &[Vec<usize>] {
        &self.rules
    }

    /// The Huffman books (crate-internal, for the serializer).
    pub(crate) fn books(&self) -> (&CodeBook, Option<&CodeBook>, Option<&CodeBook>) {
        (&self.token_book, self.modrm_book.as_ref(), self.imm_book.as_ref())
    }

    /// Reconstructs the token table by replaying `rules` over the base
    /// tokens (crate-internal, for the deserializer).
    pub(crate) fn templates_from_rules(
        base_count: usize,
        rules: &[Vec<usize>],
    ) -> Result<Vec<Vec<usize>>, &'static str> {
        let mut templates: Vec<Vec<usize>> = (0..base_count).map(|i| vec![i]).collect();
        for pattern in rules {
            if pattern.len() < 2 {
                return Err("group rule shorter than a pair");
            }
            let mut expansion = Vec::new();
            for &t in pattern {
                let items = templates.get(t).ok_or("rule references an unknown token")?;
                expansion.extend(items.iter().copied());
            }
            templates.push(expansion);
        }
        Ok(templates)
    }

    /// Reassembles a codec from serialized parts (crate-internal).
    pub(crate) fn from_parts(
        config: X86SadcConfig,
        base_strings: Vec<Vec<u8>>,
        templates: Vec<Vec<usize>>,
        rules: Vec<Vec<usize>>,
        token_book: CodeBook,
        modrm_book: Option<CodeBook>,
        imm_book: Option<CodeBook>,
    ) -> Self {
        Self { config, base_strings, templates, rules, token_book, modrm_book, imm_book }
    }

    /// Encodes one instruction-aligned group of stream parts.
    fn compress_parts(&self, block_parts: &[InsnParts]) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::COMPRESS_SPAN.time();
        let untrained =
            |stream: &str| CodecError::train(NAME, format!("the {stream} stream is untrained"));
        let encode = |w: &mut BitWriter, book: &CodeBook, sym: u16, stream: &str| {
            if book.length(sym) == 0 {
                return Err(CodecError::train(
                    NAME,
                    format!("{stream} symbol {sym:#x} was absent from the training program"),
                ));
            }
            book.encode(w, sym);
            Ok(())
        };
        let string_to_id: HashMap<&[u8], usize> =
            self.base_strings.iter().enumerate().map(|(i, s)| (s.as_slice(), i)).collect();
        let mut tokens = Vec::with_capacity(block_parts.len());
        for p in block_parts {
            let id = *string_to_id.get(p.opcode.as_slice()).ok_or_else(|| {
                CodecError::train(
                    NAME,
                    format!("opcode string {:02x?} was absent from the training program", p.opcode),
                )
            })?;
            tokens.push(id);
        }
        for (i, pattern) in self.rules.iter().enumerate() {
            let new_id = self.base_strings.len() + i;
            let mut one = [std::mem::take(&mut tokens)];
            replace_in_blocks(&mut one, pattern, new_id);
            tokens = std::mem::take(&mut one[0]);
        }

        crate::obs::count_dict_tokens(&tokens, self.base_strings.len());
        let mut w = BitWriter::new();
        let mut cursor = 0usize;
        for &t in &tokens {
            encode(&mut w, &self.token_book, t as u16, "token")?;
            for _ in 0..self.templates[t].len() {
                let p = &block_parts[cursor];
                cursor += 1;
                if !p.modrm_sib.is_empty() {
                    let book = self.modrm_book.as_ref().ok_or_else(|| untrained("ModRM"))?;
                    for &b in &p.modrm_sib {
                        encode(&mut w, book, u16::from(b), "ModRM")?;
                    }
                }
                if !p.imm_disp.is_empty() {
                    let book = self.imm_book.as_ref().ok_or_else(|| untrained("immediate"))?;
                    for &b in &p.imm_disp {
                        encode(&mut w, book, u16::from(b), "immediate")?;
                    }
                }
            }
        }
        w.align_to_byte();
        Ok(w.into_bytes())
    }
}

impl BlockCodec for X86Sadc {
    fn name(&self) -> &'static str {
        NAME
    }

    fn block_size(&self) -> usize {
        self.config.block_size
    }

    fn model_bytes(&self) -> usize {
        self.dict_bytes() + self.table_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        crate::serialize::write_x86(self)
    }

    /// Blocks are instruction-aligned: a block closes once it reaches the
    /// target size, so uncompressed blocks straddle `block_size` slightly.
    fn block_ranges(&self, text: &[u8]) -> Result<Vec<Range<usize>>, CodecError> {
        let parts = parse_instructions(text)?;
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        let mut end = 0usize;
        offsets.push(0);
        for p in &parts {
            end += p.total_len();
            offsets.push(end);
        }
        Ok(group_blocks(&parts, self.config.block_size)
            .into_iter()
            .map(|r| offsets[r.start]..offsets[r.end])
            .collect())
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        // Chunks from `block_ranges` are instruction-aligned, so each one
        // re-parses standalone to exactly its instructions' stream parts.
        let parts = parse_instructions(chunk)?;
        self.compress_parts(&parts)
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::DECOMPRESS_SPAN.time();
        let mut r = BitReader::new(block);
        let mut out = Vec::with_capacity(out_len);
        while out.len() < out_len {
            let t = usize::from(self.token_book.decode(&mut r).map_err(code_error)?);
            let expansion = self.templates.get(t).ok_or_else(corrupt_block)?;
            for &base in expansion {
                let opcode = &self.base_strings[base];
                out.extend_from_slice(opcode);
                // Reconstruct the rest of the instruction incrementally.
                let mut modrm = None;
                let mut sib = None;
                let layout = loop {
                    match progressive_layout(opcode, modrm, sib).map_err(|_| corrupt_block())? {
                        LayoutProgress::NeedModrm => {
                            let book = self.modrm_book.as_ref().ok_or_else(corrupt_block)?;
                            modrm = Some(book.decode(&mut r).map_err(code_error)? as u8);
                        }
                        LayoutProgress::NeedSib => {
                            let book = self.modrm_book.as_ref().ok_or_else(corrupt_block)?;
                            sib = Some(book.decode(&mut r).map_err(code_error)? as u8);
                        }
                        LayoutProgress::Complete(layout) => break layout,
                    }
                };
                if let Some(m) = modrm {
                    out.push(m);
                }
                if let Some(s) = sib {
                    out.push(s);
                }
                let tail = usize::from(layout.disp_len) + usize::from(layout.imm_len);
                for _ in 0..tail {
                    let book = self.imm_book.as_ref().ok_or_else(corrupt_block)?;
                    out.push(book.decode(&mut r).map_err(code_error)? as u8);
                }
            }
        }
        if out.len() != out_len {
            return Err(corrupt_block());
        }
        Ok(out)
    }
}

/// Splits `text` into per-instruction stream parts.
fn parse_instructions(text: &[u8]) -> Result<Vec<InsnParts>, CodecError> {
    let split = split_streams(text).map_err(|(offset, cause)| {
        CodecError::train(NAME, format!("undecodable instruction at offset {offset}: {cause}"))
    })?;
    let mut parts = Vec::with_capacity(split.layouts.len());
    let (mut o, mut m, mut d) = (0usize, 0usize, 0usize);
    for layout in &split.layouts {
        let ol = layout.opcode_stream_len();
        let ml = layout.modrm_stream_len();
        let dl = layout.imm_stream_len();
        parts.push(InsnParts {
            opcode: split.opcode[o..o + ol].to_vec(),
            modrm_sib: split.modrm_sib[m..m + ml].to_vec(),
            imm_disp: split.imm_disp[d..d + dl].to_vec(),
        });
        o += ol;
        m += ml;
        d += dl;
    }
    Ok(parts)
}

/// Groups instructions into blocks of roughly `block_size` uncompressed
/// bytes (an instruction joins the current block while it is under size).
fn group_blocks(parts: &[InsnParts], block_size: usize) -> Vec<std::ops::Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut size = 0usize;
    for (i, p) in parts.iter().enumerate() {
        size += p.total_len();
        if size >= block_size {
            blocks.push(start..i + 1);
            start = i + 1;
            size = 0;
        }
    }
    if start < parts.len() {
        blocks.push(start..parts.len());
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_isa::x86::asm::{self, reg, Alu, Cc};

    fn idiomatic_program(reps: usize) -> Vec<u8> {
        let mut text = Vec::new();
        for i in 0..reps {
            text.extend(asm::push_r(reg::EBP));
            text.extend(asm::mov_rr(reg::EBP, reg::ESP));
            text.extend(asm::mov_load(reg::EAX, reg::EBP, 8));
            text.extend(asm::alu_r_imm8(Alu::Add, reg::EAX, (i % 8) as i8));
            text.extend(asm::cmp_rr(reg::EAX, reg::ECX));
            text.extend(asm::jcc_rel8(Cc::Ne, -7));
            text.extend(asm::leave());
            text.extend(asm::ret());
        }
        text
    }

    #[test]
    fn round_trips_and_compresses() {
        let text = idiomatic_program(400);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 0.7, "ratio {}", image.ratio());
    }

    #[test]
    fn groups_are_learned() {
        let text = idiomatic_program(200);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        assert!(codec.token_count() > codec.base_strings.len(), "expected group entries");
    }

    #[test]
    fn blocks_decode_independently() {
        let text = idiomatic_program(100);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        let mut offset = 0usize;
        let mut slices = Vec::new();
        for i in 0..image.block_count() {
            let len = image.block_uncompressed_len(i);
            slices.push((i, offset, len));
            offset += len;
        }
        // Decode out of order.
        for &(i, start, len) in slices.iter().rev() {
            assert_eq!(
                codec.decompress_block(image.block(i), len).unwrap(),
                &text[start..start + len],
                "block {i}"
            );
        }
    }

    #[test]
    fn block_sizes_straddle_the_target() {
        let text = idiomatic_program(100);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        let total: usize = (0..image.block_count()).map(|i| image.block_uncompressed_len(i)).sum();
        assert_eq!(total, text.len());
        for i in 0..image.block_count().saturating_sub(1) {
            let len = image.block_uncompressed_len(i);
            assert!((32..32 + 16).contains(&len), "block {i} len {len}");
        }
    }

    #[test]
    fn block_ranges_reject_trailing_garbage_naming_its_offset() {
        let mut text = idiomatic_program(2);
        let offset = text.len();
        text.push(0x67); // address-size prefix: rejected by the decoder
        let codec = X86Sadc::train(&idiomatic_program(60), X86SadcConfig::default()).unwrap();
        let err = BlockCodec::block_ranges(&codec, &text).unwrap_err();
        assert!(matches!(err, CodecError::Train { codec: "SADC", .. }), "{err}");
        assert!(
            err.to_string().contains(&format!("undecodable instruction at offset {offset}:")),
            "{err}"
        );
    }

    #[test]
    fn groups_can_be_disabled() {
        let text = idiomatic_program(100);
        let config = X86SadcConfig { groups: false, ..Default::default() };
        let codec = X86Sadc::train(&text, config).unwrap();
        assert_eq!(codec.token_count(), codec.base_strings.len());
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn train_validates_input() {
        let is_train_error = |result: Result<X86Sadc, CodecError>| {
            matches!(result.unwrap_err(), CodecError::Train { codec: "SADC", .. })
        };
        assert!(is_train_error(X86Sadc::train(&[], X86SadcConfig::default())));
        assert!(is_train_error(X86Sadc::train(&[0x0F, 0x06], X86SadcConfig::default())));
    }
}
