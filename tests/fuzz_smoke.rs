//! Tier-1 fuzz smoke suite: a seeded slice of the `cce fuzz` harness
//! runs on every registered codec, plus direct regressions for corrupt
//! inputs that used to panic before the decode paths were hardened.
//!
//! The full-depth run (`cce fuzz --algo all --cases 2000 --seed 7`) is a
//! CI stage; this keeps a smaller deterministic slice in `cargo test` so
//! a decode-path panic can never land silently.

use cce_core::elf::ElfImage;
use cce_core::fuzz::{run, run_all, run_serve, FuzzConfig};
use cce_core::huffman::CodeBook;
use cce_core::isa::Isa;
use cce_core::Algorithm;

const CONFIG: FuzzConfig = FuzzConfig { cases: 256, seed: 0xDAC1998 };

/// Every registered codec survives 256 seeded mutation cases on every
/// decode surface: each case either decodes or is rejected with a typed
/// error — never a panic, never a cross-check violation.
#[test]
fn every_registered_codec_survives_the_mutation_budget() {
    for algorithm in Algorithm::ALL {
        for report in run(algorithm, &CONFIG) {
            assert!(
                report.is_clean(),
                "{}: {} failures in {} cases:\n{}",
                report.target,
                report.failures.len(),
                report.cases,
                report.failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
            );
            assert_eq!(report.cases, CONFIG.cases);
            // Trichotomy: every case is accounted for as a decode or a
            // typed rejection (violations/panics would be failures).
            assert_eq!(report.decoded + report.rejected, report.cases, "{}", report.target);
            // Mutants are resealed, so tampered containers must get past
            // the digests to the decoders: unsealed, only a handful of
            // no-op mutants decode; resealed, every target decodes more
            // than one case in eight.
            if report.target.ends_with("/container-v2") {
                assert!(
                    report.decoded >= report.cases / 16,
                    "{}: only {} of {} mutants reached a decoder",
                    report.target,
                    report.decoded,
                    report.cases
                );
            }
        }
    }
}

/// The serving tier's decode surfaces — digest records and wire
/// request frames — survive the same mutation budget under the same
/// trichotomy.  The target list is pinned so a new wire surface cannot
/// land without fuzz coverage.
#[test]
fn serve_decode_surfaces_survive_the_mutation_budget() {
    let reports = run_serve(&CONFIG);
    assert_eq!(
        reports.iter().map(|r| r.target.as_str()).collect::<Vec<_>>(),
        ["serve/digests", "serve/frame"],
    );
    for report in &reports {
        assert!(
            report.is_clean(),
            "{}: {} failures in {} cases:\n{}",
            report.target,
            report.failures.len(),
            report.cases,
            report.failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(report.decoded + report.rejected, report.cases, "{}", report.target);
        // The mutators must actually bite: a surface that accepts every
        // mutant is not being exercised.
        assert!(report.rejected > 0, "{} rejected no mutants", report.target);
    }
}

/// The interleaved-rANS decode surface is pinned into the fuzz wall: the
/// dedicated raw-stream target (header tag, lane states, renorm words)
/// must exist alongside the three standard block-codec targets, and its
/// mutants must actually exercise the reject paths.
#[test]
fn rans_stream_target_is_registered_and_bites() {
    let reports = run(Algorithm::SamcRans, &CONFIG);
    let stream = reports
        .iter()
        .find(|r| r.target == "samc-rans/stream")
        .expect("samc-rans/stream target registered");
    assert!(stream.is_clean(), "{} failures", stream.failures.len());
    assert!(stream.rejected > 0, "rANS stream mutants never hit a reject path");
    assert!(stream.decoded > 0, "rANS stream target never decoded (case 0 is pristine)");
}

/// The harness is deterministic: the same seed yields byte-identical
/// reports, so any failure it ever finds is replayable.
#[test]
fn identical_seeds_give_identical_reports() {
    let first = run_all(&CONFIG);
    let second = run_all(&CONFIG);
    assert_eq!(first, second);
    assert!(!first.is_empty());
}

/// Different seeds explore different cases (the mutation stream actually
/// depends on the seed).
#[test]
fn different_seeds_explore_different_cases() {
    let a = run(Algorithm::Samc, &FuzzConfig { cases: 128, seed: 1 });
    let b = run(Algorithm::Samc, &FuzzConfig { cases: 128, seed: 2 });
    assert_ne!(
        a.iter().map(|r| r.decoded).collect::<Vec<_>>(),
        b.iter().map(|r| r.decoded).collect::<Vec<_>>(),
        "seeds 1 and 2 produced identical decode counts on every target"
    );
}

/// A canonical Huffman table whose lengths exceed the 32-bit code
/// register used to panic with a shift overflow while building the
/// decode table; it is now a typed construction error.
#[test]
fn oversized_huffman_lengths_are_a_typed_error_not_a_panic() {
    assert!(CodeBook::from_lengths(vec![64, 64]).is_err());
    assert!(CodeBook::from_lengths(vec![0, 255, 3]).is_err());
    // The degenerate-but-legal extreme still works.
    assert!(CodeBook::from_lengths(vec![32]).is_ok());
}

/// An ELF whose section-header offset sits near `u64::MAX` used to panic
/// on multiply overflow while locating section headers; it is now a
/// typed parse error.
#[test]
fn elf_section_header_offset_overflow_is_a_typed_error_not_a_panic() {
    let image = ElfImage::new_executable(
        cce_core::elf::Machine::Mips,
        cce_core::elf::Class::Elf64,
        cce_core::elf::Endianness::Little,
        vec![0; 64],
    );
    let mut bytes = image.to_bytes();
    bytes[0x28..0x30].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(ElfImage::parse(&bytes).is_err());
}

/// SADC's operand streams only carry the fields in each operation's
/// spec, so a word with stray bits in an unused field (a non-canonical
/// encoding) cannot round-trip; compression used to silently reassemble
/// it as a different word and now refuses it with a typed error.
#[test]
fn sadc_refuses_non_canonical_words_instead_of_miscompressing() {
    let text = {
        let profile = cce_core::workload::Spec95::by_name("ijpeg").expect("known benchmark");
        let mut t =
            cce_core::isa::mips::encode_text(&cce_core::workload::generate_mips(profile, 0.02));
        t.truncate(4096);
        t
    };
    let handle = Algorithm::Sadc.build(Isa::Mips, 32).train(&text).expect("trains");
    let codec = handle.as_block().expect("block codec");

    // `jr $ra` with a stray bit in the unused rt field: decodable MIPS,
    // but SADC's register stream cannot represent the stray bit.
    let canonical: u32 = 0x03E0_0008;
    let stray_bit = canonical | 1 << 16;
    assert!(codec.compress_chunk(&canonical.to_be_bytes()).is_ok());
    let result = codec.compress_chunk(&stray_bit.to_be_bytes());
    assert!(result.is_err(), "non-canonical word must be refused, got {result:?}");
}
