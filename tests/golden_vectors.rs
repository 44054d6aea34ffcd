//! Golden-vector conformance corpus.
//!
//! Every algorithm × ISA pair compresses a fixed, deterministic workload
//! and the resulting artifact bytes are checked in under `tests/golden/`
//! as hex.  The on-disk formats — codec model serialization, `.cce`
//! container framing and block index, gzip/LZW streams — are contracts: a
//! single changed byte fails this suite, so no format drift lands
//! silently.
//!
//! Intentional format changes are a two-step acknowledgment:
//!
//! 1. bump [`GOLDEN_FORMAT_VERSION`] here (and the copy in
//!    `tests/golden/VERSION` is rewritten for you), then
//! 2. run `scripts/regen_golden.sh` to rewrite the fixtures.

use cce_core::codec::compress_parallel;
use cce_core::container::{self, ContainerIdentity, ContainerV2Reader};
use cce_core::elf::{Class, Endianness};
use cce_core::isa::mips::encode_text;
use cce_core::isa::Isa;
use cce_core::workload::{generate_mips, generate_x86, Spec95};
use cce_core::{Algorithm, CodecHandle};
use std::path::{Path, PathBuf};

/// Version of the golden corpus.  Bump on *intentional* format changes,
/// together with regenerating the fixtures.
const GOLDEN_FORMAT_VERSION: u32 = 2;

/// Workload profile and scale every vector compresses.
const PROFILE: &str = "compress";
const SCALE: f64 = 0.02;

/// Fixed ELF identity baked into the container vectors.
const ENTRY: u64 = 0x0040_0000;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn regen_requested() -> bool {
    std::env::var_os("CCE_REGEN_GOLDEN").is_some_and(|v| v == "1")
}

/// The deterministic input text for one ISA.
fn input(isa: Isa) -> Vec<u8> {
    let profile = Spec95::by_name(PROFILE).expect("known benchmark");
    match isa {
        Isa::Mips => encode_text(&generate_mips(profile, SCALE)),
        Isa::X86 => generate_x86(profile, SCALE),
    }
}

fn isa_slug(isa: Isa) -> &'static str {
    match isa {
        Isa::Mips => "mips",
        Isa::X86 => "x86",
    }
}

fn vector_name(algorithm: Algorithm, isa: Isa) -> String {
    format!("{}_{}.hex", algorithm.to_string().to_lowercase(), isa_slug(isa))
}

/// Builds the golden artifact: a full `.cce` container for random-access
/// algorithms (codec model + blocks + index + framing), the raw
/// compressed stream for the file-oriented baselines.
fn artifact(algorithm: Algorithm, isa: Isa, text: &[u8]) -> Vec<u8> {
    match algorithm.build(isa, 32).train(text).expect("golden workload trains") {
        CodecHandle::File(codec) => codec.compress(text),
        CodecHandle::Block(codec) => {
            let image = compress_parallel(codec.as_ref(), text, 1).expect("compresses");
            let identity = ContainerIdentity {
                algorithm,
                isa,
                class: Class::Elf32,
                endianness: Endianness::Big,
                entry: ENTRY,
            };
            container::encode_image(identity, &codec.to_bytes(), &image).expect("encodes")
        }
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn hex_decode(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
    digits
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(s, 16).unwrap_or_else(|_| panic!("bad hex pair {s:?}"))
        })
        .collect()
}

fn all_vectors() -> Vec<(String, Algorithm, Isa)> {
    let mut vectors = Vec::new();
    for isa in [Isa::Mips, Isa::X86] {
        for algorithm in Algorithm::ALL {
            vectors.push((vector_name(algorithm, isa), algorithm, isa));
        }
    }
    vectors
}

#[test]
fn golden_vectors_match() {
    let dir = golden_dir();
    if regen_requested() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(dir.join("VERSION"), format!("{GOLDEN_FORMAT_VERSION}\n"))
            .expect("write VERSION");
    }
    for isa in [Isa::Mips, Isa::X86] {
        let text = input(isa);
        for algorithm in Algorithm::ALL {
            let name = vector_name(algorithm, isa);
            let path = dir.join(&name);
            let bytes = artifact(algorithm, isa, &text);
            let hex = hex_encode(&bytes);
            if regen_requested() {
                std::fs::write(&path, &hex).unwrap_or_else(|e| panic!("write {name}: {e}"));
                eprintln!("regenerated {name} ({} bytes)", bytes.len());
                continue;
            }
            let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden vector {name}: {e}\nrun scripts/regen_golden.sh to create it"
                )
            });
            assert_eq!(
                hex_decode(&recorded),
                bytes,
                "golden vector drift in {name} ({algorithm} on {isa}).\n\
                 The compressed artifact no longer matches the recorded bytes — \
                 an on-disk format change? If unintentional, fix the codec; if \
                 intentional, regen + bump version: bump GOLDEN_FORMAT_VERSION in \
                 tests/golden_vectors.rs, then run scripts/regen_golden.sh."
            );
        }
    }
}

#[test]
fn golden_containers_decode_back_to_the_input() {
    if regen_requested() {
        return; // fixtures are being rewritten; nothing stable to decode
    }
    for isa in [Isa::Mips, Isa::X86] {
        let text = input(isa);
        for algorithm in Algorithm::ALL.into_iter().filter(|a| a.random_access()) {
            let name = vector_name(algorithm, isa);
            let recorded = std::fs::read_to_string(golden_dir().join(&name))
                .unwrap_or_else(|e| panic!("missing golden vector {name}: {e}"));
            let bytes = hex_decode(&recorded);
            let mut reader = ContainerV2Reader::open(std::io::Cursor::new(&bytes))
                .expect("golden container parses");
            let identity = reader.identity();
            assert_eq!(identity.algorithm, algorithm);
            assert_eq!(identity.isa, isa);
            assert_eq!(identity.entry, ENTRY);
            let handle = algorithm
                .build(isa, reader.block_size())
                .codec_from_bytes(reader.codec_bytes())
                .expect("codec model parses");
            let codec = handle.as_block().expect("random-access");
            let decoded = reader.decode_text(codec).expect("golden container decodes");
            assert_eq!(decoded, text, "{name} decodes to different text than its input");
        }
    }
}

#[test]
fn version_file_matches_harness() {
    if regen_requested() {
        return;
    }
    let recorded = std::fs::read_to_string(golden_dir().join("VERSION"))
        .expect("tests/golden/VERSION exists (run scripts/regen_golden.sh)");
    let recorded: u32 = recorded.trim().parse().expect("VERSION holds an integer");
    assert_eq!(
        recorded, GOLDEN_FORMAT_VERSION,
        "tests/golden/VERSION disagrees with GOLDEN_FORMAT_VERSION — \
         regenerate the corpus with scripts/regen_golden.sh"
    );
}

#[test]
fn corpus_has_no_stray_files() {
    if regen_requested() {
        return;
    }
    let expected: Vec<String> = all_vectors().into_iter().map(|(name, ..)| name).collect();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let name = entry.expect("dir entry").file_name().into_string().expect("utf-8 name");
        if name == "VERSION" {
            continue;
        }
        assert!(expected.contains(&name), "stray file tests/golden/{name} — delete or register it");
        seen.push(name);
    }
    assert_eq!(seen.len(), expected.len(), "corpus is missing vectors: have {seen:?}");
}

#[test]
fn single_byte_flip_is_detected() {
    // The drift check is exact byte equality; prove it by flipping one
    // byte of a real vector and watching the comparison fail.
    let text = input(Isa::Mips);
    let bytes = artifact(Algorithm::Samc, Isa::Mips, &text);
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert_ne!(hex_decode(&hex_encode(&flipped)), bytes);
    assert_eq!(hex_decode(&hex_encode(&bytes)), bytes, "hex round-trip is lossless");
}
