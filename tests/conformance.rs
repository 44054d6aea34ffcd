//! Trait-level conformance suite: every codec the registry can build
//! must honour the `BlockCodec` / `FileCodec` contracts — round-trip
//! equality, per-block random access identical to full decompression,
//! codec serialization, and clean failures on degenerate inputs.

use cce_core::codec::{BlockCodec, CodecError, FileCodec};
use cce_core::huffman::block::ByteBlockCodec;
use cce_core::isa::Isa;
use cce_core::sadc::{MipsSadc, MipsSadcConfig, X86Sadc, X86SadcConfig};
use cce_core::samc::{SamcCodec, SamcConfig};
use cce_core::workload::spec95_suite;
use cce_core::{Algorithm, CodecHandle};

const BLOCK: usize = 32;

fn text_for(isa: Isa) -> Vec<u8> {
    spec95_suite(isa, 0.05).into_iter().find(|p| p.name == "ijpeg").expect("in suite").text
}

fn block_algorithms() -> [Algorithm; 4] {
    [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc, Algorithm::SamcRans]
}

fn trained_block_codec(algorithm: Algorithm, isa: Isa, text: &[u8]) -> Box<dyn BlockCodec> {
    match algorithm.build(isa, BLOCK).train(text).expect("trainable") {
        CodecHandle::Block(codec) => codec,
        CodecHandle::File(_) => panic!("{algorithm} should be a block codec"),
    }
}

#[test]
fn every_registered_codec_round_trips() {
    for isa in [Isa::Mips, Isa::X86] {
        let text = text_for(isa);
        for algorithm in Algorithm::ALL {
            let handle = algorithm.build(isa, BLOCK).train(&text).expect("trainable");
            match &handle {
                CodecHandle::Block(codec) => {
                    let image = codec.compress(&text).expect("compresses");
                    assert_eq!(
                        codec.decompress(&image).expect("decompresses"),
                        text,
                        "{algorithm} on {isa}"
                    );
                    assert!(image.compressed_len() > 0, "{algorithm} on {isa}");
                }
                CodecHandle::File(codec) => {
                    let compressed = FileCodec::compress(codec.as_ref(), &text);
                    assert_eq!(
                        codec.decompress(&compressed).expect("decompresses"),
                        text,
                        "{algorithm} on {isa}"
                    );
                }
            }
            assert_eq!(handle.name(), algorithm.to_string(), "{algorithm}");
        }
    }
}

#[test]
fn per_block_random_access_equals_full_decompress() {
    for isa in [Isa::Mips, Isa::X86] {
        let text = text_for(isa);
        for algorithm in block_algorithms() {
            let codec = trained_block_codec(algorithm, isa, &text);
            let image = codec.compress(&text).expect("compresses");
            let full = codec.decompress(&image).expect("decompresses");
            let mut stitched = Vec::with_capacity(text.len());
            for index in 0..image.block_count() {
                stitched.extend_from_slice(
                    &codec
                        .decompress_block(image.block(index), image.block_uncompressed_len(index))
                        .expect("block decodes"),
                );
            }
            assert_eq!(stitched, full, "{algorithm} on {isa}");
            assert_eq!(stitched, text, "{algorithm} on {isa}");
        }
    }
}

#[test]
fn trained_codecs_serialize_and_reload() {
    for isa in [Isa::Mips, Isa::X86] {
        let text = text_for(isa);
        for algorithm in block_algorithms() {
            let codec = trained_block_codec(algorithm, isa, &text);
            let image = codec.compress(&text).expect("compresses");
            let reloaded = algorithm
                .build(isa, BLOCK)
                .codec_from_bytes(&codec.to_bytes())
                .expect("codec bytes reload");
            let reloaded = reloaded.as_block().expect("still a block codec");
            assert_eq!(
                reloaded.decompress(&image).expect("reloaded codec decodes"),
                text,
                "{algorithm} on {isa}"
            );
        }
    }
}

#[test]
fn empty_input_fails_to_train_cleanly() {
    for isa in [Isa::Mips, Isa::X86] {
        for algorithm in block_algorithms() {
            let result = algorithm.build(isa, BLOCK).train(&[]);
            assert!(
                matches!(result, Err(CodecError::Train { .. })),
                "{algorithm} on {isa} should fail to train on empty input"
            );
        }
    }
}

#[test]
fn text_the_model_cannot_encode_is_a_train_error_for_every_codec() {
    let mips = text_for(Isa::Mips);
    let x86 = text_for(Isa::X86);
    let sixteen_symbols: Vec<u8> = (0..1024).map(|i| (i % 16) as u8).collect();
    // `jr $ra` with a stray bit in the unused rt field: decodable MIPS
    // that SADC's register stream cannot represent.
    let non_canonical = (0x03E0_0008u32 | 1 << 16).to_be_bytes();
    let mut trailing_garbage = x86.clone();
    trailing_garbage.push(0x67); // address-size prefix: rejected by the decoder
    let cases: [(&str, Box<dyn BlockCodec>, &[u8]); 4] = [
        (
            "SamcCodec, length not a multiple of 4",
            Box::new(SamcCodec::train(&mips, SamcConfig::mips()).expect("trains")),
            &mips[..mips.len() - 1],
        ),
        (
            "ByteBlockCodec, byte absent from training",
            Box::new(ByteBlockCodec::train(&sixteen_symbols, BLOCK).expect("trains")),
            &[0xFF],
        ),
        (
            "MipsSadc, non-canonical word",
            Box::new(MipsSadc::train(&mips, MipsSadcConfig::default()).expect("trains")),
            &non_canonical,
        ),
        (
            "X86Sadc, trailing garbage",
            Box::new(X86Sadc::train(&x86, X86SadcConfig::default()).expect("trains")),
            &trailing_garbage,
        ),
    ];
    for (case, codec, text) in cases {
        let result = codec.compress(text);
        assert!(matches!(result, Err(CodecError::Train { .. })), "{case}: {result:?}");
    }
}

#[test]
fn single_block_and_partial_tail_inputs() {
    let text = text_for(Isa::Mips);
    for algorithm in block_algorithms() {
        // Train on the full program, then compress short prefixes: one
        // exact block, and a non-multiple-of-block-size text with a
        // partial tail (instruction-aligned, as MIPS requires).
        let codec = trained_block_codec(algorithm, Isa::Mips, &text);
        let single = &text[..BLOCK];
        let image = codec.compress(single).expect("single block compresses");
        assert_eq!(image.block_count(), 1, "{algorithm}");
        assert_eq!(codec.decompress(&image).expect("decodes"), single, "{algorithm}");

        let ragged = &text[..3 * BLOCK + 4];
        let image = codec.compress(ragged).expect("partial tail compresses");
        assert_eq!(image.block_count(), 4, "{algorithm}");
        assert_eq!(image.block_uncompressed_len(3), 4, "{algorithm}");
        assert_eq!(codec.decompress(&image).expect("decodes"), ragged, "{algorithm}");
    }
}

#[test]
fn file_codecs_handle_empty_input() {
    let text: &[u8] = &[];
    for algorithm in [Algorithm::UnixCompress, Algorithm::Gzip] {
        let handle = algorithm.build(Isa::Mips, BLOCK).train(text).expect("no training needed");
        let codec = handle.as_file().expect("file codec");
        let compressed = codec.compress(text);
        assert_eq!(codec.decompress(&compressed).expect("decodes"), text, "{algorithm}");
    }
}

#[test]
fn corrupt_blocks_fail_cleanly_for_every_codec() {
    let text = text_for(Isa::Mips);
    for algorithm in block_algorithms() {
        let codec = trained_block_codec(algorithm, Isa::Mips, &text);
        let image = codec.compress(&text).expect("compresses");
        // Truncated block: must error (or at worst return wrong bytes),
        // never panic.
        let block = image.block(0);
        if block.len() > 1 {
            let _ = codec.decompress_block(&block[..block.len() / 2], BLOCK);
        }
        // Bit-flipped block: same contract.
        let mut flipped = block.to_vec();
        if let Some(byte) = flipped.first_mut() {
            *byte ^= 0xFF;
        }
        let _ = codec.decompress_block(&flipped, BLOCK);
    }
}
