//! End-to-end tests of the publish/verify/serve tier against the
//! committed pipeline fixture: a published artifact round-trips
//! byte-identically to `cce decompress`, a flipped byte is pinned to
//! the exact run, the info record cross-checks the container for every
//! registered algorithm on both ISAs, and a Unix-socket daemon serves a
//! full fetch over the wire.

use cce_core::artifact::{open_with_codec, publish_container, ArtifactInfo};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::ElfImage;
use cce_core::isa::Isa;
use cce_core::serve::record::{DigestRecord, IMAGE_FILE};
use cce_core::serve::{verify_dir, Client, ServeConfig, ServeError, Server};
use cce_core::workload::spec95_suite;
use cce_core::Algorithm;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cce-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/pipeline_workload.elf")
}

fn cce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cce")).args(args).output().expect("cce runs")
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf8 path")
}

/// Compresses the committed fixture into a v2 container, once per
/// temp dir.
fn compress_fixture(dir: &Path, algo: &str) -> PathBuf {
    let container = dir.join(format!("{algo}.cce"));
    let output = cce(&["compress", utf8(&fixture_path()), "-a", algo, "-o", utf8(&container)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    container
}

/// `cce publish` copies the container byte for byte and `cce verify`
/// succeeds on it; flipping a single byte makes `verify` fail naming
/// the exact run.
#[test]
fn publish_verify_round_trip_and_flipped_byte_names_the_chunk() {
    let dir = temp_dir("verify");
    let container = compress_fixture(&dir, "huffman");
    let artifact_dir = dir.join("artifact");

    let output =
        cce(&["publish", utf8(&container), "-o", utf8(&artifact_dir), "--chunk-size", "2048"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("published"), "{stdout}");
    let image = artifact_dir.join(IMAGE_FILE);
    assert_eq!(std::fs::read(&image).unwrap(), std::fs::read(&container).unwrap());

    let output = cce(&["verify", utf8(&artifact_dir)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).contains("OK"), "verify output");

    // Flip one byte in the middle of run 1: verify must fail, exit
    // non-zero, and name that exact run — not "something's wrong".
    let run = DigestRecord::read(&artifact_dir).unwrap().runs()[1];
    let mut bytes = std::fs::read(&image).expect("image readable");
    bytes[(run.start + run.len / 2) as usize] ^= 0x01;
    std::fs::write(&image, bytes).expect("image writable");

    let output = cce(&["verify", utf8(&artifact_dir)]);
    assert!(!output.status.success(), "verify must fail on a flipped byte");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("image.cce run 1:"), "error must name the run: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// For every registered algorithm on both ISAs: random-access codecs
/// publish, verify, answer an info record that mirrors the container,
/// and decode byte-identically to the program text; a container
/// claiming a file-oriented codec is refused at open with a typed
/// error (those cannot serve blocks).
#[test]
fn manifest_cross_checks_the_container_for_every_algorithm_and_isa() {
    for isa in [Isa::Mips, Isa::X86] {
        let text =
            spec95_suite(isa, 0.1).into_iter().find(|p| p.name == "ijpeg").expect("in suite").text;
        for algorithm in Algorithm::ALL {
            let name = algorithm.to_string().to_ascii_lowercase();
            if !algorithm.random_access() {
                // File-oriented algorithms never publish; a published
                // container whose codec tag claims one is refused at
                // open, before any block is served.
                let dir = temp_dir(&format!("refuse-{isa}-{name}"));
                let container = compress_fixture(&dir, "huffman");
                let artifact_dir = dir.join("artifact");
                let file = std::fs::File::open(&container).unwrap();
                let mut reader = ContainerV2Reader::open(std::io::BufReader::new(file)).unwrap();
                publish_container(&mut reader, &artifact_dir, 4096).unwrap();
                let image = artifact_dir.join(IMAGE_FILE);
                let mut bytes = std::fs::read(&image).unwrap();
                bytes[4] = algorithm.tag();
                std::fs::write(&image, bytes).unwrap();
                let err = open_with_codec(&artifact_dir).err().expect("a file codec opened");
                assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
                assert!(err.to_string().contains("file-oriented"), "{err}");
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            }
            let dir = temp_dir(&format!("cross-{isa}-{name}"));
            let elf = dir.join("prog.elf");
            let program =
                spec95_suite(isa, 0.1).into_iter().find(|p| p.name == "ijpeg").expect("in suite");
            std::fs::write(&elf, program.to_elf().to_bytes()).unwrap();
            let container = dir.join("prog.cce");
            let output = cce(&["compress", utf8(&elf), "-a", &name, "-o", utf8(&container)]);
            assert!(
                output.status.success(),
                "{algorithm}/{isa}: {}",
                String::from_utf8_lossy(&output.stderr)
            );

            let artifact_dir = dir.join("artifact");
            let file = std::fs::File::open(&container).unwrap();
            let mut reader = ContainerV2Reader::open(std::io::BufReader::new(file)).unwrap();
            let summary = reader.summary();
            let published = publish_container(&mut reader, &artifact_dir, 4096).unwrap();
            assert_eq!(published.image_len, summary.total_len, "{algorithm}/{isa}");
            let verified = verify_dir(&artifact_dir).unwrap();
            assert_eq!(verified.runs, published.runs, "{algorithm}/{isa}");

            // The info record mirrors the container exactly.
            let (artifact, codec) = open_with_codec(&artifact_dir).unwrap();
            let info = ArtifactInfo::parse(artifact.info()).unwrap();
            assert_eq!(info.identity, reader.identity(), "{algorithm}/{isa}");
            assert_eq!(info.identity.algorithm, algorithm, "{isa}");
            assert_eq!(info.block_size, reader.block_size(), "{algorithm}/{isa}");
            assert_eq!(info.blocks as usize, summary.blocks, "{algorithm}/{isa}");
            assert_eq!(info.original_len, text.len() as u64, "{algorithm}/{isa}");

            // The served decode is byte-identical to the source text.
            assert_eq!(
                artifact.decode_text(codec.as_ref()).unwrap(),
                text,
                "{algorithm}/{isa}: served bytes diverged from the program text"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A Unix-socket daemon serves the fixture end to end: the library
/// client pulls the info record and every decoded block, and the bytes
/// match what the container itself decodes.
#[test]
fn unix_daemon_serves_the_fixture_end_to_end() {
    let dir = temp_dir("daemon");
    let container = compress_fixture(&dir, "samc");
    let artifact_dir = dir.join("artifact");
    let output = cce(&["publish", utf8(&container), "-o", utf8(&artifact_dir)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let (artifact, codec) = open_with_codec(&artifact_dir).unwrap();
    let expected = artifact.decode_text(codec.as_ref()).unwrap();
    let (artifact, codec) = open_with_codec(&artifact_dir).unwrap();
    let server = Server::new(artifact, codec, ServeConfig::default());
    let socket = dir.join("cce.sock");
    let listener = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    // The daemon binds asynchronously; poll for the socket file.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut client = Client::connect_unix(&socket).unwrap();
    let info = ArtifactInfo::parse(&client.get_manifest().unwrap()).unwrap();
    assert_eq!(info.identity.algorithm, Algorithm::Samc);
    let mut text = Vec::new();
    for n in 0..info.blocks {
        text.extend_from_slice(&client.decode_block(n).unwrap());
    }
    assert_eq!(text, expected, "wire-served text diverged from the local decode");
    assert!(client.stats().unwrap().contains("\"requests\":"));
    client.shutdown().unwrap();
    listener.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full CLI loop: `publish` → in-process daemon → `cce fetch` as a
/// subprocess → the fetched ELF is byte-identical to `cce decompress`
/// of the same container.
#[test]
fn cli_fetch_matches_cli_decompress_byte_for_byte() {
    let dir = temp_dir("fetch");
    let container = compress_fixture(&dir, "sadc");
    let artifact_dir = dir.join("artifact");
    let output = cce(&["publish", utf8(&container), "-o", utf8(&artifact_dir)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let decompressed = dir.join("direct.elf");
    let output = cce(&["decompress", utf8(&container), "-o", utf8(&decompressed)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let (artifact, codec) = open_with_codec(&artifact_dir).unwrap();
    let server = Server::new(artifact, codec, ServeConfig::default());
    let socket = dir.join("cce.sock");
    let listener = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let fetched = dir.join("fetched.elf");
    let output = cce(&["fetch", "--socket", utf8(&socket), "-o", utf8(&fetched)]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    // `fetch` sends shutdown, so the daemon thread winds down.
    listener.join().unwrap().unwrap();

    let direct = std::fs::read(&decompressed).unwrap();
    let wire = std::fs::read(&fetched).unwrap();
    assert_eq!(direct, wire, "fetch and decompress built different ELFs");
    // Sanity: it is a real ELF with the fixture's text inside.
    assert!(ElfImage::parse(&wire).unwrap().text().expect("text").len() > 1024);
    std::fs::remove_dir_all(&dir).unwrap();
}
