//! ELF-path integration tests: `streaming::compress_elf` /
//! `streaming::buffered_text` (the `.text` section read through the ELF
//! walker) and the v2 container.
//!
//! Three properties are locked here:
//!
//! 1. **Differential**: for every algorithm on both ISAs, the ELF path
//!    produces exactly the payload the in-memory path produces —
//!    byte-identical per-block container data for the random-access
//!    codecs, identical measurements for the file baselines.
//! 2. **One format**: the CLI refuses anything that is not a v2
//!    container (such as the retired v1 layout) with a typed error.
//! 3. **Random access**: the v2 index lets a reader decode an arbitrary
//!    single block while reading only that block's bytes — no prior
//!    blocks, which is the property the paper's LAT hardware depends on.
//!
//! The committed multi-section fixture (`tests/fixtures/`, produced by
//! `cce gen go --scale 0.2 --seed 789996 --multi-section`) additionally
//! pins the ELF-path ratios within ±1%; re-record with
//! `CCE_RECORD_RATIOS=1` after an intentional codec change.

use std::cell::Cell;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::process::Command;
use std::rc::Rc;

use cce_core::codec::{compress_parallel, BlockCodec};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::{Class, ElfImage, ElfStream, Endianness, Machine};
use cce_core::isa::Isa;
use cce_core::streaming;
use cce_core::workload::{generate_mips_seeded, generate_x86_seeded, Spec95};
use cce_core::Algorithm;

const BLOCK_SIZE: usize = 32;
const WORKERS: usize = 2;
const SEED: u64 = 0xC0DEC;

fn sample_text(isa: Isa) -> Vec<u8> {
    let profile = Spec95::by_name("ijpeg").expect("profile is in the suite");
    match isa {
        Isa::Mips => cce_core::isa::mips::encode_text(&generate_mips_seeded(profile, 0.1, SEED)),
        Isa::X86 => generate_x86_seeded(profile, 0.1, SEED),
    }
}

fn sample_elf_bytes(isa: Isa) -> Vec<u8> {
    let (machine, endianness) = match isa {
        Isa::Mips => (Machine::Mips, Endianness::Big),
        Isa::X86 => (Machine::I386, Endianness::Little),
    };
    ElfImage::new_executable(machine, Class::Elf32, endianness, sample_text(isa)).to_bytes()
}

fn trained_block_codec(algorithm: Algorithm, isa: Isa, text: &[u8]) -> Box<dyn BlockCodec> {
    match algorithm.build(isa, BLOCK_SIZE).train(text).expect("trains") {
        cce_core::CodecHandle::Block(codec) => codec,
        cce_core::CodecHandle::File(_) => panic!("{algorithm} should build a block codec"),
    }
}

/// Measures `algorithm` on `elf_bytes`' `.text` as read by the ELF
/// walker, the path `cce ratio` takes.
fn measure_streamed(elf_bytes: &[u8], algorithm: Algorithm) -> cce_core::Measurement {
    let mut elf = ElfStream::open(Cursor::new(elf_bytes)).expect("well-formed elf");
    let isa = streaming::isa_of(&elf).expect("known machine");
    let text = streaming::buffered_text(&mut elf).expect("text reads");
    cce_core::measure_with_workers(algorithm, isa, &text, BLOCK_SIZE, WORKERS)
        .unwrap_or_else(|e| panic!("{algorithm} on {isa}: {e}"))
}

/// Compresses `elf_bytes`' text through `compress_elf` into an in-memory v2
/// container and returns the container bytes.
fn stream_container(elf_bytes: &[u8], algorithm: Algorithm, codec: &dyn BlockCodec) -> Vec<u8> {
    let mut elf = ElfStream::open(Cursor::new(elf_bytes)).expect("well-formed elf");
    let mut out = Vec::new();
    streaming::compress_elf(&mut elf, algorithm, codec, &mut out, WORKERS).expect("streams");
    out
}

#[test]
fn streamed_payload_matches_in_memory_for_every_algorithm_on_both_isas() {
    for isa in [Isa::Mips, Isa::X86] {
        let text = sample_text(isa);
        let elf_bytes = sample_elf_bytes(isa);
        for algorithm in Algorithm::ALL {
            if !algorithm.random_access() {
                // File baselines have no container; the walker must
                // still hand them exactly the in-memory text.
                let streamed = measure_streamed(&elf_bytes, algorithm);
                let buffered =
                    cce_core::measure_with_workers(algorithm, isa, &text, BLOCK_SIZE, WORKERS)
                        .expect("measures");
                assert_eq!(streamed, buffered, "{algorithm} on {isa}");
                continue;
            }
            let codec = trained_block_codec(algorithm, isa, &text);
            let image = compress_parallel(codec.as_ref(), &text, WORKERS).expect("compresses");
            let container = stream_container(&elf_bytes, algorithm, codec.as_ref());
            let mut reader = ContainerV2Reader::open(Cursor::new(&container)).expect("parses back");
            assert_eq!(reader.block_count(), image.block_count(), "{algorithm} on {isa}");
            for i in 0..image.block_count() {
                let (data, ulen) = reader.read_block(i).expect("indexed block");
                assert_eq!(data, image.block(i), "{algorithm} on {isa}: block {i} payload");
                assert_eq!(
                    ulen,
                    image.block_uncompressed_len(i),
                    "{algorithm} on {isa}: block {i} length"
                );
            }
            let decoded = reader.decode_text(codec.as_ref()).expect("decodes");
            assert_eq!(decoded, text, "{algorithm} on {isa}: round trip");
        }
    }
}

fn cce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cce")).args(args).output().expect("cce runs")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cce-streaming-test-{}-{name}", std::process::id()))
}

#[test]
fn retired_v1_containers_are_refused_through_the_cli() {
    // A v2 container relabelled with the retired v1 magic: everything
    // after the magic is well formed, so only the format check refuses it.
    let mut v1 = stream_container(
        &sample_elf_bytes(Isa::Mips),
        Algorithm::ByteHuffman,
        trained_block_codec(Algorithm::ByteHuffman, Isa::Mips, &sample_text(Isa::Mips)).as_ref(),
    );
    v1[..4].copy_from_slice(b"CCEF");
    let artifact = temp_path("v1.cce");
    let rebuilt = temp_path("v1.elf");
    std::fs::write(&artifact, &v1).expect("writes artifact");

    let info = cce(&["info", artifact.to_str().unwrap()]);
    let out = cce(&["decompress", artifact.to_str().unwrap(), "-o", rebuilt.to_str().unwrap()]);
    for (command, output) in [("info", info), ("decompress", out)] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{command} accepted a v1 container");
        assert!(
            stderr.contains("container: corrupt data: not a cce v2 container"),
            "{command} should name the typed container error:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command} panicked:\n{stderr}");
    }
    assert!(!rebuilt.exists(), "decompress left an output file behind");

    std::fs::remove_file(&artifact).ok();
}

/// A `Read + Seek` wrapper that counts bytes handed out, so a test can
/// prove how much of the container a single-block read actually touched.
struct CountingReader {
    inner: Cursor<Vec<u8>>,
    read_bytes: Rc<Cell<u64>>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read_bytes.set(self.read_bytes.get() + n as u64);
        Ok(n)
    }
}

impl Seek for CountingReader {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[test]
fn v2_index_decodes_one_block_without_reading_prior_blocks() {
    let text = sample_text(Isa::Mips);
    let codec = trained_block_codec(Algorithm::Sadc, Isa::Mips, &text);
    let container = stream_container(&sample_elf_bytes(Isa::Mips), Algorithm::Sadc, codec.as_ref());

    let read_bytes = Rc::new(Cell::new(0u64));
    let counting =
        CountingReader { inner: Cursor::new(container), read_bytes: Rc::clone(&read_bytes) };
    let mut reader = ContainerV2Reader::open(counting).expect("parses");
    assert!(reader.block_count() > 4, "need a few blocks to make the middle interesting");

    // Pick a block in the middle; everything before it is "prior data"
    // a sequential decoder would have had to wade through.
    let target = reader.block_count() / 2;
    let expected_start: usize = (0..target).map(|i| reader.block_uncompressed_len(i)).sum();

    read_bytes.set(0);
    let (data, ulen) = reader.read_block(target).expect("indexed read");
    assert_eq!(
        read_bytes.get(),
        data.len() as u64,
        "read_block must touch exactly the target block's bytes"
    );
    let decoded = codec.decompress_block(&data, ulen).expect("decodes");
    assert_eq!(decoded, &text[expected_start..expected_start + ulen], "wrong block contents");
}

/// Streaming-path ratio pins on the committed multi-section fixture.
/// Re-record with `CCE_RECORD_RATIOS=1` after an intentional change.
const EXPECTED_FIXTURE_RATIOS: [(Algorithm, f64); 5] = [
    (Algorithm::UnixCompress, 0.650516),
    (Algorithm::Gzip, 0.489005),
    (Algorithm::ByteHuffman, 0.723992),
    (Algorithm::Samc, 0.777980),
    (Algorithm::Sadc, 0.581817),
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/pipeline_workload.elf")
}

#[test]
fn multi_section_fixture_streams_within_pinned_ratios() {
    let bytes = std::fs::read(fixture_path()).expect("committed fixture exists");
    let elf = ElfStream::open(Cursor::new(&bytes)).expect("fixture parses");

    let names: Vec<&str> = elf.sections().iter().map(|s| s.name.as_str()).collect();
    for expected in [".text", ".rodata", ".bss"] {
        assert!(names.contains(&expected), "fixture lost its {expected} section: {names:?}");
    }

    if std::env::var_os("CCE_RECORD_RATIOS").is_some_and(|v| v == "1") {
        println!("const EXPECTED_FIXTURE_RATIOS: [(Algorithm, f64); 5] = [");
        for algorithm in Algorithm::ALL {
            let m = measure_streamed(&bytes, algorithm);
            println!("    (Algorithm::{algorithm:?}, {:.6}),", m.ratio());
        }
        println!("];");
        return;
    }

    for (algorithm, recorded) in EXPECTED_FIXTURE_RATIOS {
        let ratio = measure_streamed(&bytes, algorithm).ratio();
        let drift = (ratio - recorded).abs() / recorded;
        assert!(
            drift <= 0.01,
            "{algorithm}: streamed ratio {ratio:.6} drifted {:.2}% from recorded {recorded:.6} \
             (limit ±1%).\nIf this change is intentional, re-record with CCE_RECORD_RATIOS=1 \
             and update tests/streaming.rs.",
            drift * 100.0
        );
    }
}
