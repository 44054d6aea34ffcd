//! SADC for MIPS: dictionary over operations, registers and immediates.

use crate::tokens::{replace_in_blocks, TokenStats};
use cce_bitstream::{BitReader, BitWriter};
use cce_codec::{BlockCodec, CodecError};
use cce_huffman::CodeBook;
use cce_isa::mips::{decode_text, ImmKind, Instruction, Operation};
use std::collections::BTreeMap;

/// Display name used in errors and tables.
const NAME: &str = "SADC";

/// The error every corrupt-block path reports.
pub(crate) fn corrupt_block() -> CodecError {
    CodecError::corrupt(NAME, "block structure does not match the dictionary")
}

/// Maps a Huffman decode failure to a SADC-branded error.
pub(crate) fn code_error(e: cce_huffman::DecodeSymbolError) -> CodecError {
    CodecError::from(e).named(NAME)
}

/// One instruction slot of a dictionary [`Template`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateItem {
    /// The operation this slot produces.
    pub op: Operation,
    /// Register bytes baked into the dictionary (the `jr $31` trick);
    /// `None` means the register stream supplies them.
    pub fixed_regs: Option<Vec<u8>>,
    /// 16-bit immediate baked into the dictionary; `None` means the
    /// immediate stream supplies it (only for ops that carry an imm16).
    pub fixed_imm: Option<u16>,
}

impl TemplateItem {
    fn base(op: Operation) -> Self {
        Self { op, fixed_regs: None, fixed_imm: None }
    }

    /// Register bytes this item pulls from the register stream.
    fn stream_regs(&self) -> usize {
        if self.fixed_regs.is_some() {
            0
        } else {
            self.op.operand_spec().reg_fields.len()
        }
    }

    /// Whether this item pulls a 16-bit immediate from the stream.
    fn stream_imm16(&self) -> bool {
        self.fixed_imm.is_none() && matches!(self.op.operand_spec().imm, ImmKind::Imm16)
    }

    /// Whether this item pulls a 26-bit immediate from the stream.
    fn stream_imm26(&self) -> bool {
        matches!(self.op.operand_spec().imm, ImmKind::Imm26)
    }
}

/// A dictionary entry: a sequence of (possibly specialized) instructions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    /// The instruction slots, in program order.
    pub items: Vec<TemplateItem>,
}

impl Template {
    /// Serialized dictionary cost in bytes: a header, one op id per item,
    /// the fixed register bytes, and two bytes per fixed immediate.
    pub fn storage_bytes(&self) -> usize {
        1 + self
            .items
            .iter()
            .map(|item| {
                1 + item.fixed_regs.as_ref().map_or(0, Vec::len)
                    + if item.fixed_imm.is_some() { 2 } else { 0 }
            })
            .sum::<usize>()
    }

    /// Instructions this template covers.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the template is empty (never true for built dictionaries).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Configuration for [`MipsSadc::train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MipsSadcConfig {
    /// Cache block size in bytes.
    pub block_size: usize,
    /// Maximum dictionary size (indices must fit a byte: ≤ 256).
    pub max_tokens: usize,
    /// Enable opcode-group candidates (pairs/triples of adjacent tokens).
    pub groups: bool,
    /// Enable register-specialization candidates (`jr $31`-style).
    pub reg_specialization: bool,
    /// Enable immediate-specialization candidates.
    pub imm_specialization: bool,
}

impl Default for MipsSadcConfig {
    fn default() -> Self {
        Self {
            block_size: 32,
            max_tokens: 256,
            groups: true,
            reg_specialization: true,
            imm_specialization: true,
        }
    }
}

/// The best candidate found in one build cycle.
///
/// Also recorded in insertion order as the parse program: compressing any
/// text replays these rules over its base-token stream, so the parse is
/// identical to the one the dictionary was built (and the Huffman
/// statistics gathered) against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Candidate {
    Pair(usize, usize),
    Triple(usize, usize, usize),
    Regs(usize, Vec<u8>),
    Imm(usize, u16),
}

/// The trained MIPS SADC codec.
#[derive(Debug, Clone)]
pub struct MipsSadc {
    config: MipsSadcConfig,
    templates: Vec<Template>,
    rules: Vec<Candidate>,
    op_book: CodeBook,
    reg_book: Option<CodeBook>,
    imm_book: Option<CodeBook>,
    limm_book: Option<CodeBook>,
}

impl MipsSadc {
    /// Builds the dictionary and Huffman tables for `text` (big-endian
    /// MIPS-I machine code).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for empty or undecodable text, a
    /// block size that is not a positive multiple of 4, or a token limit
    /// outside `(Operation::COUNT, 256]`.
    pub fn train(text: &[u8], config: MipsSadcConfig) -> Result<Self, CodecError> {
        if text.is_empty() {
            return Err(CodecError::train(NAME, "cannot train on an empty text section"));
        }
        if config.block_size == 0 || !config.block_size.is_multiple_of(4) {
            return Err(CodecError::train(
                NAME,
                format!("block size {} is not a positive multiple of 4", config.block_size),
            ));
        }
        if config.max_tokens <= Operation::COUNT || config.max_tokens > 256 {
            return Err(CodecError::train(
                NAME,
                format!("token limit {} outside (base count, 256]", config.max_tokens),
            ));
        }
        let instructions = decode_text(text).map_err(|e| CodecError::train(NAME, e))?;
        let insns_per_block = config.block_size / 4;
        let insn_blocks: Vec<&[Instruction]> = instructions.chunks(insns_per_block).collect();

        // Start with one base template per operation.
        let mut templates: Vec<Template> = (0..Operation::COUNT as u8)
            .map(|id| Template { items: vec![TemplateItem::base(Operation::from_id(id))] })
            .collect();
        let mut token_blocks: Vec<Vec<usize>> = insn_blocks
            .iter()
            .map(|block| block.iter().map(|i| usize::from(i.operation().id())).collect())
            .collect();

        // Iterative build: insert the best candidate, re-parse, repeat.
        let mut rules: Vec<Candidate> = Vec::new();
        while templates.len() < config.max_tokens {
            let Some((gain, candidate)) =
                best_candidate(&templates, &token_blocks, &insn_blocks, &config)
            else {
                break;
            };
            if gain <= 0 {
                break;
            }
            let new_id = templates.len();
            rules.push(candidate.clone());
            match candidate {
                Candidate::Pair(a, b) => {
                    let mut items = templates[a].items.clone();
                    items.extend(templates[b].items.iter().cloned());
                    templates.push(Template { items });
                    replace_in_blocks(&mut token_blocks, &[a, b], new_id);
                }
                Candidate::Triple(a, b, c) => {
                    let mut items = templates[a].items.clone();
                    items.extend(templates[b].items.iter().cloned());
                    items.extend(templates[c].items.iter().cloned());
                    templates.push(Template { items });
                    replace_in_blocks(&mut token_blocks, &[a, b, c], new_id);
                }
                Candidate::Regs(t, regs) => {
                    let mut items = templates[t].items.clone();
                    items[0].fixed_regs = Some(regs.clone());
                    templates.push(Template { items });
                    replace_matching(
                        &templates,
                        &mut token_blocks,
                        &insn_blocks,
                        t,
                        new_id,
                        |insn| insn.register_fields() == regs,
                    );
                }
                Candidate::Imm(t, imm) => {
                    let mut items = templates[t].items.clone();
                    items[0].fixed_imm = Some(imm);
                    templates.push(Template { items });
                    replace_matching(
                        &templates,
                        &mut token_blocks,
                        &insn_blocks,
                        t,
                        new_id,
                        |insn| insn.imm16() == Some(imm),
                    );
                }
            }
        }

        // Gather stream statistics for the Huffman pass.
        let mut op_freq = vec![0u64; templates.len()];
        let mut reg_freq = [0u64; 256];
        let mut imm_freq = [0u64; 256];
        let mut limm_freq = [0u64; 256];
        for (tokens, block) in token_blocks.iter().zip(&insn_blocks) {
            let mut cursor = 0usize;
            for &t in tokens {
                op_freq[t] += 1;
                for item in &templates[t].items {
                    let insn = block[cursor];
                    cursor += 1;
                    if item.stream_regs() > 0 {
                        for b in insn.register_fields() {
                            reg_freq[usize::from(b)] += 1;
                        }
                    }
                    if item.stream_imm16() {
                        for b in insn.imm16().expect("spec requires imm16").to_be_bytes() {
                            imm_freq[usize::from(b)] += 1;
                        }
                    }
                    if item.stream_imm26() {
                        for b in insn.imm26().expect("spec requires imm26").to_be_bytes() {
                            limm_freq[usize::from(b)] += 1;
                        }
                    }
                }
            }
        }
        let op_book = CodeBook::from_frequencies(&op_freq, 15).expect("programs are non-empty");
        let reg_book = CodeBook::from_frequencies(&reg_freq, 15).ok();
        let imm_book = CodeBook::from_frequencies(&imm_freq, 15).ok();
        let limm_book = CodeBook::from_frequencies(&limm_freq, 15).ok();

        Ok(Self { config, templates, rules, op_book, reg_book, imm_book, limm_book })
    }

    /// The dictionary (base operations first, learned entries after).
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The configuration this codec was trained with.
    pub fn config(&self) -> &MipsSadcConfig {
        &self.config
    }

    /// The build rules, in insertion order (crate-internal, for the
    /// serializer).
    pub(crate) fn rules(&self) -> &[Candidate] {
        &self.rules
    }

    /// The Huffman books (crate-internal, for the serializer).
    pub(crate) fn books(
        &self,
    ) -> (&CodeBook, Option<&CodeBook>, Option<&CodeBook>, Option<&CodeBook>) {
        (&self.op_book, self.reg_book.as_ref(), self.imm_book.as_ref(), self.limm_book.as_ref())
    }

    /// Reconstructs the template table by replaying `rules` over the base
    /// operations (crate-internal, for the deserializer).
    pub(crate) fn templates_from_rules(rules: &[Candidate]) -> Result<Vec<Template>, &'static str> {
        let mut templates: Vec<Template> = (0..Operation::COUNT as u8)
            .map(|id| Template { items: vec![TemplateItem::base(Operation::from_id(id))] })
            .collect();
        for rule in rules {
            let get =
                |t: usize, templates: &[Template]| -> Result<Vec<TemplateItem>, &'static str> {
                    templates
                        .get(t)
                        .map(|tpl| tpl.items.clone())
                        .ok_or("rule references an unknown token")
                };
            let items = match rule {
                Candidate::Pair(a, b) => {
                    let mut items = get(*a, &templates)?;
                    items.extend(get(*b, &templates)?);
                    items
                }
                Candidate::Triple(a, b, c) => {
                    let mut items = get(*a, &templates)?;
                    items.extend(get(*b, &templates)?);
                    items.extend(get(*c, &templates)?);
                    items
                }
                Candidate::Regs(t, regs) => {
                    let mut items = get(*t, &templates)?;
                    if items.len() != 1 {
                        return Err("register specialization of a group");
                    }
                    if regs.len() != items[0].op.operand_spec().reg_fields.len() {
                        return Err("register specialization arity");
                    }
                    // Register and shamt fields are 5 bits wide; a tampered
                    // model must not smuggle wider values past the
                    // instruction generator.
                    if regs.iter().any(|&r| r >= 32) {
                        return Err("register specialization value out of range");
                    }
                    items[0].fixed_regs = Some(regs.clone());
                    items
                }
                Candidate::Imm(t, imm) => {
                    let mut items = get(*t, &templates)?;
                    if items.len() != 1 {
                        return Err("immediate specialization of a group");
                    }
                    items[0].fixed_imm = Some(*imm);
                    items
                }
            };
            templates.push(Template { items });
        }
        Ok(templates)
    }

    /// Reassembles a codec from serialized parts (crate-internal).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: MipsSadcConfig,
        templates: Vec<Template>,
        rules: Vec<Candidate>,
        op_book: CodeBook,
        reg_book: Option<CodeBook>,
        imm_book: Option<CodeBook>,
        limm_book: Option<CodeBook>,
    ) -> Self {
        Self { config, templates, rules, op_book, reg_book, imm_book, limm_book }
    }

    /// Serialized dictionary size: learned entries only (base operations
    /// are ISA knowledge the decompressor already has).
    pub fn dict_bytes(&self) -> usize {
        self.templates[Operation::COUNT..].iter().map(Template::storage_bytes).sum()
    }

    /// Serialized Huffman table size (4-bit code lengths per symbol).
    pub fn table_bytes(&self) -> usize {
        let mut bits = self.templates.len() * 4;
        for book in [&self.reg_book, &self.imm_book, &self.limm_book].into_iter().flatten() {
            bits += book.lengths().len() * 4;
        }
        bits.div_ceil(8)
    }

    /// Parses one block by replaying the dictionary's build rules over the
    /// base-token stream — the same parse the dictionary was built with.
    fn parse_block(&self, block: &[Instruction]) -> Vec<usize> {
        let mut tokens: Vec<usize> =
            block.iter().map(|insn| usize::from(insn.operation().id())).collect();
        for (i, rule) in self.rules.iter().enumerate() {
            let new_id = Operation::COUNT + i;
            match rule {
                Candidate::Pair(a, b) => {
                    replace_in_slice(&mut tokens, &[*a, *b], new_id);
                }
                Candidate::Triple(a, b, c) => {
                    replace_in_slice(&mut tokens, &[*a, *b, *c], new_id);
                }
                Candidate::Regs(t, regs) => {
                    replace_matching_in_slice(
                        &self.templates,
                        &mut tokens,
                        block,
                        *t,
                        new_id,
                        |insn| insn.register_fields() == *regs,
                    );
                }
                Candidate::Imm(t, imm) => {
                    replace_matching_in_slice(
                        &self.templates,
                        &mut tokens,
                        block,
                        *t,
                        new_id,
                        |insn| insn.imm16() == Some(*imm),
                    );
                }
            }
        }
        tokens
    }

    fn compress_block(&self, block: &[Instruction]) -> Result<Vec<u8>, CodecError> {
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
        let _span = crate::obs::COMPRESS_SPAN.time();
        let tokens = self.parse_block(block);
        crate::obs::count_dict_tokens(&tokens, Operation::COUNT);
        let mut w = BitWriter::new();
        // Opcode stream.
        for &t in &tokens {
            encode(&mut w, &self.op_book, t as u16, "opcode")?;
        }
        // Register stream.
        let mut cursor = 0usize;
        let mut imm16s = Vec::new();
        let mut imm26s = Vec::new();
        for &t in &tokens {
            for item in &self.templates[t].items {
                let insn = block[cursor];
                cursor += 1;
                if item.stream_regs() > 0 {
                    let book = self.reg_book.as_ref().ok_or_else(|| untrained("register"))?;
                    for b in insn.register_fields() {
                        encode(&mut w, book, u16::from(b), "register")?;
                    }
                }
                if item.stream_imm16() {
                    imm16s.push(insn.imm16().expect("spec requires imm16"));
                }
                if item.stream_imm26() {
                    imm26s.push(insn.imm26().expect("spec requires imm26"));
                }
            }
        }
        // Immediate stream.
        if !imm16s.is_empty() {
            let book = self.imm_book.as_ref().ok_or_else(|| untrained("immediate"))?;
            for imm in imm16s {
                for b in imm.to_be_bytes() {
                    encode(&mut w, book, u16::from(b), "immediate")?;
                }
            }
        }
        // Long-immediate stream.
        if !imm26s.is_empty() {
            let book = self.limm_book.as_ref().ok_or_else(|| untrained("long-immediate"))?;
            for imm in imm26s {
                for b in imm.to_be_bytes() {
                    encode(&mut w, book, u16::from(b), "long-immediate")?;
                }
            }
        }
        w.align_to_byte();
        Ok(w.into_bytes())
    }
}

impl BlockCodec for MipsSadc {
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
        crate::serialize::write_mips(self)
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        let instructions = decode_text(chunk).map_err(|e| CodecError::train(NAME, e))?;
        // The operand streams carry only the fields in each operation's
        // spec, so a word with stray bits in an unused field would
        // reassemble to a *different* word; refuse such non-canonical
        // encodings instead of silently miscompressing them.
        for insn in &instructions {
            let rebuilt = Instruction::assemble(
                insn.operation(),
                &insn.register_fields(),
                insn.imm16(),
                insn.imm26(),
            );
            if rebuilt != *insn {
                return Err(CodecError::train(NAME, "non-canonical instruction encoding"));
            }
        }
        self.compress_block(&instructions)
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::DECOMPRESS_SPAN.time();
        if !out_len.is_multiple_of(4) {
            return Err(corrupt_block());
        }
        let insn_count = out_len / 4;
        let mut r = BitReader::new(block);
        // Opcode stream: tokens until the block's instructions are covered.
        let mut items: Vec<&TemplateItem> = Vec::with_capacity(insn_count);
        while items.len() < insn_count {
            let t = usize::from(self.op_book.decode(&mut r).map_err(code_error)?);
            let template = self.templates.get(t).ok_or_else(corrupt_block)?;
            items.extend(template.items.iter());
        }
        if items.len() != insn_count {
            return Err(corrupt_block());
        }
        // Register stream.
        let mut regs_per_insn: Vec<Vec<u8>> = Vec::with_capacity(insn_count);
        for item in &items {
            if let Some(fixed) = &item.fixed_regs {
                regs_per_insn.push(fixed.clone());
            } else {
                let need = item.op.operand_spec().reg_fields.len();
                let mut regs = Vec::with_capacity(need);
                for _ in 0..need {
                    let book = self.reg_book.as_ref().ok_or_else(corrupt_block)?;
                    let value = book.decode(&mut r).map_err(code_error)? as u8;
                    // Register and shamt fields are 5 bits wide; anything
                    // larger marks a corrupt stream, not a codec panic.
                    if value >= 32 {
                        return Err(corrupt_block());
                    }
                    regs.push(value);
                }
                regs_per_insn.push(regs);
            }
        }
        // Immediate stream.
        let mut imm16_per_insn: Vec<Option<u16>> = Vec::with_capacity(insn_count);
        for item in &items {
            imm16_per_insn.push(match item.op.operand_spec().imm {
                ImmKind::Imm16 => Some(match item.fixed_imm {
                    Some(imm) => imm,
                    None => {
                        let book = self.imm_book.as_ref().ok_or_else(corrupt_block)?;
                        let hi = book.decode(&mut r).map_err(code_error)? as u8;
                        let lo = book.decode(&mut r).map_err(code_error)? as u8;
                        u16::from_be_bytes([hi, lo])
                    }
                }),
                _ => None,
            });
        }
        // Long-immediate stream.
        let mut imm26_per_insn: Vec<Option<u32>> = Vec::with_capacity(insn_count);
        for item in &items {
            imm26_per_insn.push(if item.stream_imm26() {
                let book = self.limm_book.as_ref().ok_or_else(corrupt_block)?;
                let mut v = [0u8; 4];
                for b in v.iter_mut() {
                    *b = book.decode(&mut r).map_err(code_error)? as u8;
                }
                let target = u32::from_be_bytes(v);
                if target >= 1 << 26 {
                    return Err(corrupt_block());
                }
                Some(target)
            } else {
                None
            });
        }
        // Instruction generator: reassemble the machine words.
        let mut out = Vec::with_capacity(out_len);
        for (i, item) in items.iter().enumerate() {
            let insn = Instruction::assemble(
                item.op,
                &regs_per_insn[i],
                imm16_per_insn[i],
                imm26_per_insn[i],
            );
            out.extend_from_slice(&insn.encode().to_be_bytes());
        }
        Ok(out)
    }
}

/// Single-block version of [`replace_in_blocks`].
fn replace_in_slice(tokens: &mut Vec<usize>, pattern: &[usize], replacement: usize) {
    let mut blocks = [std::mem::take(tokens)];
    replace_in_blocks(&mut blocks, pattern, replacement);
    *tokens = std::mem::take(&mut blocks[0]);
}

/// Single-block version of [`replace_matching`].
fn replace_matching_in_slice(
    templates: &[Template],
    tokens: &mut [usize],
    block: &[Instruction],
    old: usize,
    new: usize,
    predicate: impl Fn(&Instruction) -> bool,
) {
    let mut cursor = 0usize;
    for t in tokens.iter_mut() {
        let len = templates[*t].items.len();
        if *t == old && predicate(&block[cursor]) {
            *t = new;
        }
        cursor += len;
    }
}

/// Replaces occurrences of single-token `old` whose covered instruction
/// satisfies `predicate` with `new`.
fn replace_matching(
    templates: &[Template],
    token_blocks: &mut [Vec<usize>],
    insn_blocks: &[&[Instruction]],
    old: usize,
    new: usize,
    predicate: impl Fn(&Instruction) -> bool,
) {
    for (tokens, block) in token_blocks.iter_mut().zip(insn_blocks) {
        let mut cursor = 0usize;
        for t in tokens.iter_mut() {
            let len = templates[*t].items.len();
            if *t == old && predicate(&block[cursor]) {
                *t = new;
            }
            cursor += len;
        }
    }
}

/// Scans all candidate classes and returns the best (gain, candidate).
fn best_candidate(
    templates: &[Template],
    token_blocks: &[Vec<usize>],
    insn_blocks: &[&[Instruction]],
    config: &MipsSadcConfig,
) -> Option<(i64, Candidate)> {
    let mut best: Option<(i64, Candidate)> = None;
    let mut consider = |gain: i64, candidate: Candidate| {
        if best.as_ref().is_none_or(|(g, _)| gain > *g) {
            best = Some((gain, candidate));
        }
    };

    if config.groups {
        let stats = TokenStats::scan(token_blocks);
        for (&(a, b), &f) in &stats.pairs {
            let storage = (templates[a].storage_bytes() + templates[b].storage_bytes()) as i64 - 1;
            consider(i64::from(f) - storage, Candidate::Pair(a, b));
        }
        for (&(a, b, c), &f) in &stats.triples {
            let storage = (templates[a].storage_bytes()
                + templates[b].storage_bytes()
                + templates[c].storage_bytes()) as i64
                - 2;
            consider(2 * i64::from(f) - storage, Candidate::Triple(a, b, c));
        }
    }

    if config.reg_specialization || config.imm_specialization {
        let mut reg_counts: BTreeMap<(usize, Vec<u8>), u32> = BTreeMap::new();
        let mut imm_counts: BTreeMap<(usize, u16), u32> = BTreeMap::new();
        for (tokens, block) in token_blocks.iter().zip(insn_blocks) {
            let mut cursor = 0usize;
            for &t in tokens {
                let template = &templates[t];
                if template.items.len() == 1 {
                    let item = &template.items[0];
                    let insn = &block[cursor];
                    if config.reg_specialization
                        && item.fixed_regs.is_none()
                        && !item.op.operand_spec().reg_fields.is_empty()
                    {
                        *reg_counts.entry((t, insn.register_fields())).or_insert(0) += 1;
                    }
                    if config.imm_specialization && item.stream_imm16() {
                        *imm_counts.entry((t, insn.imm16().expect("imm16 op"))).or_insert(0) += 1;
                    }
                }
                cursor += template.items.len();
            }
        }
        for ((t, regs), f) in reg_counts {
            let saved = i64::from(f) * regs.len() as i64;
            let storage = (templates[t].storage_bytes() + regs.len()) as i64;
            let gain = saved - storage;
            consider(gain, Candidate::Regs(t, regs));
        }
        for ((t, imm), f) in imm_counts {
            let gain = 2 * i64::from(f) - (templates[t].storage_bytes() + 2) as i64;
            consider(gain, Candidate::Imm(t, imm));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_isa::mips::{encode_text, Reg};

    fn idiomatic_program(reps: usize) -> Vec<u8> {
        let mut insns = Vec::new();
        for i in 0..reps {
            // A repeated prologue/body/epilogue idiom.
            insns.push(Instruction::addiu(Reg::SP, Reg::SP, 0xFFF8));
            insns.push(Instruction::sw(Reg::RA, 4, Reg::SP));
            insns.push(Instruction::lw(Reg::T0, (i % 8 * 4) as u16, Reg::SP));
            insns.push(Instruction::addu(Reg::V0, Reg::V0, Reg::T0));
            insns.push(Instruction::lw(Reg::RA, 4, Reg::SP));
            insns.push(Instruction::addiu(Reg::SP, Reg::SP, 8));
            insns.push(Instruction::jr(Reg::RA));
            insns.push(Instruction::nop());
        }
        encode_text(&insns)
    }

    #[test]
    fn round_trips_and_compresses_idiomatic_code() {
        let text = idiomatic_program(512);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 0.5, "ratio {}", image.ratio());
    }

    #[test]
    fn dictionary_learns_groups() {
        let text = idiomatic_program(256);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        assert!(
            codec.templates().iter().any(|t| t.items.len() >= 2),
            "expected at least one group entry"
        );
        assert!(codec.templates().len() <= 256);
    }

    #[test]
    fn jr_ra_specialization_is_learned() {
        // `jr $31` dominates; a register specialization should appear.
        let text = idiomatic_program(256);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let has_fixed_reg =
            codec.templates().iter().any(|t| t.items.iter().any(|item| item.fixed_regs.is_some()));
        assert!(has_fixed_reg, "expected a register-specialized entry");
    }

    #[test]
    fn blocks_decode_independently() {
        let text = idiomatic_program(64);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        for i in (0..image.block_count()).rev() {
            let start = i * 32;
            let len = image.block_uncompressed_len(i);
            assert_eq!(
                codec.decompress_block(image.block(i), len).unwrap(),
                &text[start..start + len],
                "block {i}"
            );
        }
    }

    #[test]
    fn candidate_classes_can_be_disabled() {
        let text = idiomatic_program(128);
        let only_groups = MipsSadcConfig {
            reg_specialization: false,
            imm_specialization: false,
            ..Default::default()
        };
        let codec = MipsSadc::train(&text, only_groups).unwrap();
        assert!(codec
            .templates()
            .iter()
            .all(|t| t.items.iter().all(|i| i.fixed_regs.is_none() && i.fixed_imm.is_none())));
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);

        let no_dict = MipsSadcConfig {
            groups: false,
            reg_specialization: false,
            imm_specialization: false,
            ..Default::default()
        };
        let plain = MipsSadc::train(&text, no_dict).unwrap();
        assert_eq!(plain.templates().len(), Operation::COUNT);
        let plain_image = plain.compress(&text).unwrap();
        assert_eq!(plain.decompress(&plain_image).unwrap(), text);
        assert!(image.ratio() <= plain_image.ratio() * 1.001, "dictionary should help");
    }

    #[test]
    fn train_validates_input() {
        let is_train_error = |result: Result<MipsSadc, CodecError>| {
            matches!(result.unwrap_err(), CodecError::Train { codec: "SADC", .. })
        };
        assert!(is_train_error(MipsSadc::train(&[], MipsSadcConfig::default())));
        assert!(is_train_error(MipsSadc::train(&[0xFF; 4], MipsSadcConfig::default())));
        let bad_block = MipsSadcConfig { block_size: 10, ..Default::default() };
        assert!(is_train_error(MipsSadc::train(&idiomatic_program(4), bad_block)));
        let bad_limit = MipsSadcConfig { max_tokens: 10, ..Default::default() };
        assert!(is_train_error(MipsSadc::train(&idiomatic_program(4), bad_limit)));
    }

    #[test]
    fn short_final_block_round_trips() {
        let mut text = idiomatic_program(4);
        text.extend_from_slice(&Instruction::nop().encode().to_be_bytes());
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn accounting_includes_dict_and_tables() {
        let text = idiomatic_program(128);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        let blocks: usize = (0..image.block_count()).map(|i| image.block(i).len()).sum();
        assert_eq!(image.compressed_len(), blocks + codec.dict_bytes() + codec.table_bytes());
        assert!(codec.dict_bytes() > 0);
    }

    #[test]
    fn smaller_dictionaries_also_work() {
        let text = idiomatic_program(128);
        for max_tokens in [Operation::COUNT + 8, 96, 128] {
            let config = MipsSadcConfig { max_tokens, ..Default::default() };
            let codec = MipsSadc::train(&text, config).unwrap();
            let image = codec.compress(&text).unwrap();
            assert_eq!(codec.decompress(&image).unwrap(), text, "max_tokens {max_tokens}");
        }
    }
}
