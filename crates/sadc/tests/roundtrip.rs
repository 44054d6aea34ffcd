//! Property and workload tests: SADC is lossless on realistic programs and
//! on adversarial instruction sequences, and blocks stay independent.

use cce_codec::BlockCodec;
use cce_isa::mips::{encode_text, ImmKind, Instruction, Operation};
use cce_isa::Isa;
use cce_rng::prop::prelude::*;
use cce_sadc::{MipsSadc, MipsSadcConfig, X86Sadc, X86SadcConfig};
use cce_workload::{spec95_suite, Spec95};

fn mips_instruction() -> impl Strategy<Value = Instruction> {
    (0u8..Operation::COUNT as u8, prop::collection::vec(0u8..32, 4), any::<u16>(), 0u32..1 << 26)
        .prop_map(|(id, regs, imm16, imm26)| {
            let op = Operation::from_id(id);
            let spec = op.operand_spec();
            let regs = &regs[..spec.reg_fields.len()];
            let imm16 = matches!(spec.imm, ImmKind::Imm16).then_some(imm16);
            let imm26 = matches!(spec.imm, ImmKind::Imm26).then_some(imm26);
            Instruction::assemble(op, regs, imm16, imm26)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mips_sadc_round_trips_random_programs(
        insns in prop::collection::vec(mips_instruction(), 1..400)
    ) {
        let text = encode_text(&insns);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        prop_assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn mips_sadc_blocks_are_independent(
        insns in prop::collection::vec(mips_instruction(), 16..200)
    ) {
        let text = encode_text(&insns);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        let n = image.block_count();
        for k in 0..n {
            let i = (k * 5 + 2) % n;
            let start = i * 32;
            let len = image.block_uncompressed_len(i);
            let got = codec.decompress_block(image.block(i), len).unwrap();
            prop_assert_eq!(&got[..], &text[start..start + len]);
        }
    }

    #[test]
    fn mips_sadc_repetition_heavy_programs(seed_op in 0u8..Operation::COUNT as u8, reps in 8usize..200) {
        // Degenerate programs (one repeated instruction) stress the
        // dictionary's group growth and must still round-trip.
        let op = Operation::from_id(seed_op);
        let spec = op.operand_spec();
        let regs: Vec<u8> = (0..spec.reg_fields.len() as u8).collect();
        let imm16 = matches!(spec.imm, ImmKind::Imm16).then_some(42u16);
        let imm26 = matches!(spec.imm, ImmKind::Imm26).then_some(99u32);
        let insn = Instruction::assemble(op, &regs, imm16, imm26);
        let text = encode_text(&vec![insn; reps]);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text).unwrap();
        prop_assert_eq!(codec.decompress(&image).unwrap(), text);
    }
}

#[test]
fn mips_sadc_round_trips_every_spec95_benchmark() {
    for program in spec95_suite(Isa::Mips, 0.05) {
        let codec = MipsSadc::train(&program.text, MipsSadcConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", program.name));
        let image = codec.compress(&program.text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), program.text, "{}", program.name);
    }
}

#[test]
fn x86_sadc_round_trips_every_spec95_benchmark() {
    for program in spec95_suite(Isa::X86, 0.05) {
        let codec = X86Sadc::train(&program.text, X86SadcConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", program.name));
        let image = codec.compress(&program.text).unwrap();
        assert_eq!(codec.decompress(&image).unwrap(), program.text, "{}", program.name);
    }
}

#[test]
fn sadc_beats_no_dictionary_on_real_workloads() {
    let profile = Spec95::by_name("gcc").unwrap();
    let text = encode_text(&cce_workload::generate_mips(profile, 0.1));
    let with_dict = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
    let without = MipsSadc::train(
        &text,
        MipsSadcConfig {
            groups: false,
            reg_specialization: false,
            imm_specialization: false,
            ..Default::default()
        },
    )
    .unwrap();
    let r_dict = with_dict.compress(&text).unwrap().ratio();
    let r_plain = without.compress(&text).unwrap().ratio();
    assert!(r_dict < r_plain, "dict {r_dict:.3} vs plain {r_plain:.3}");
}

mod corruption {
    use super::*;

    fn trained_mips() -> (MipsSadc, Vec<u8>) {
        let text = encode_text(
            &(0..400)
                .map(|i| {
                    Instruction::assemble(
                        Operation::from_id((i % 20) as u8),
                        &vec![
                            (i % 7) as u8;
                            Operation::from_id((i % 20) as u8).operand_spec().reg_fields.len()
                        ],
                        matches!(
                            Operation::from_id((i % 20) as u8).operand_spec().imm,
                            ImmKind::Imm16
                        )
                        .then_some(8),
                        matches!(
                            Operation::from_id((i % 20) as u8).operand_spec().imm,
                            ImmKind::Imm26
                        )
                        .then_some(64),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        (codec, text)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Feeding arbitrary bytes to the block decompressor must never
        /// panic — a hostile or bit-flipped image yields an error or
        /// garbage bytes, not a crash.
        #[test]
        fn mips_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let (codec, _) = trained_mips();
            let _ = codec.decompress_block(&bytes, 32);
        }

        /// Single-bit corruption of a real block is either detected or
        /// decodes to *some* bytes — never a panic.
        #[test]
        fn mips_decoder_survives_bit_flips(flip_byte in 0usize..64, flip_bit in 0u8..8) {
            let (codec, text) = trained_mips();
            let image = codec.compress(&text).unwrap();
            let mut block = image.block(1).to_vec();
            if block.is_empty() {
                return Ok(());
            }
            let index = flip_byte % block.len();
            block[index] ^= 1 << flip_bit;
            let _ = codec.decompress_block(&block, image.block_uncompressed_len(1));
        }

        /// The x86 decoder is similarly total.
        #[test]
        fn x86_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let program = &spec95_suite(Isa::X86, 0.02)[0];
            let codec = X86Sadc::train(&program.text, X86SadcConfig::default()).unwrap();
            let _ = codec.decompress_block(&bytes, 32);
        }
    }
}
