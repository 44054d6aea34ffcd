//! Property tests: SAMC is lossless for arbitrary programs, blocks are
//! independent, and the parallel engine matches the serial decoder.

use cce_arith::ProbMode;
use cce_codec::BlockCodec;
use cce_rng::prop::prelude::*;
use cce_samc::{MarkovConfig, SamcCodec, SamcConfig, StreamDivision};

/// Arbitrary unit-aligned "programs" with a mix of structure and noise.
fn program(unit: usize) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..50).prop_map(move |v| { pad(v, unit) }),
        (prop::collection::vec(any::<u8>(), unit..=unit * 4), 1usize..64).prop_map(
            move |(motif, reps)| {
                pad(motif.iter().copied().cycle().take(motif.len() * reps).collect(), unit)
            }
        ),
        prop::collection::vec(any::<u8>(), 256..1024).prop_map(move |v| pad(v, unit)),
    ]
}

fn pad(mut v: Vec<u8>, unit: usize) -> Vec<u8> {
    while !v.len().is_multiple_of(unit) || v.is_empty() {
        v.push(0);
    }
    v
}

fn configs() -> impl Strategy<Value = SamcConfig> {
    prop_oneof![
        Just(SamcConfig::mips()),
        Just(SamcConfig::x86()),
        Just(SamcConfig::mips().with_block_size(16)),
        Just(SamcConfig::mips().with_block_size(64)),
        Just(SamcConfig {
            block_size: 32,
            division: StreamDivision::contiguous(32, 8),
            markov: MarkovConfig::unconnected(),
        }),
        Just(SamcConfig {
            block_size: 32,
            division: StreamDivision::bytes(32),
            markov: MarkovConfig { context_bits: 1, prob_mode: ProbMode::Pow2 },
        }),
        Just(SamcConfig {
            block_size: 32,
            division: StreamDivision::contiguous(16, 2),
            markov: MarkovConfig::default(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn whole_program_round_trips(config in configs(), seed_text in program(4)) {
        let text = pad(seed_text, config.unit_bytes() * 2); // also block-unit safe
        let codec = SamcCodec::train(&text, config).unwrap();
        let image = codec.compress(&text).unwrap();
        prop_assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn any_block_decodes_in_isolation(text in program(4)) {
        let config = SamcConfig::mips();
        let codec = SamcCodec::train(&text, config).unwrap();
        let image = codec.compress(&text).unwrap();
        // Pick each block in a scrambled order and decode it standalone.
        let n = image.block_count();
        for k in 0..n {
            let i = (k * 7 + 3) % n;
            let start = i * image.block_size();
            let len = (text.len() - start).min(image.block_size());
            let got = codec.decompress_block(image.block(i), len).unwrap();
            prop_assert_eq!(&got[..], &text[start..start + len]);
        }
    }

    #[test]
    fn engine_matches_serial(text in program(4)) {
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let image = codec.compress(&text).unwrap();
        for i in 0..image.block_count() {
            let start = i * image.block_size();
            let len = (text.len() - start).min(image.block_size());
            let serial = codec.decompress_block(image.block(i), len).unwrap();
            let (parallel, _) = codec.decompress_block_engine(image.block(i), len).unwrap();
            prop_assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn pow2_mode_round_trips(text in program(4)) {
        let config = SamcConfig {
            block_size: 32,
            division: StreamDivision::bytes(32),
            markov: MarkovConfig { context_bits: 1, prob_mode: ProbMode::Pow2 },
        };
        let codec = SamcCodec::train(&text, config).unwrap();
        let image = codec.compress(&text).unwrap();
        prop_assert_eq!(codec.decompress(&image).unwrap(), text);
    }
}
