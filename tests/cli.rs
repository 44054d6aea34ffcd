//! End-to-end tests of the `cce` command-line tool: compress an ELF,
//! inspect the artifact, decompress, and verify the text section.

use cce_core::elf::ElfImage;
use cce_core::isa::Isa;
use cce_core::workload::spec95_suite;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cce-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

fn write_test_elf(dir: &std::path::Path, isa: Isa) -> (PathBuf, Vec<u8>) {
    let program = spec95_suite(isa, 0.1).into_iter().find(|p| p.name == "ijpeg").expect("in suite");
    let path = dir.join(format!("{}.elf", program.name));
    std::fs::write(&path, program.to_elf().to_bytes()).expect("elf written");
    (path, program.text)
}

fn cce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cce")).args(args).output().expect("cce runs")
}

#[test]
fn compress_info_decompress_round_trip_samc() {
    let dir = temp_dir("samc");
    let (elf_path, text) = write_test_elf(&dir, Isa::Mips);
    let cce_path = dir.join("out.cce");
    let out_elf = dir.join("out.elf");

    let output = cce(&[
        "compress",
        elf_path.to_str().expect("utf8"),
        "-a",
        "samc",
        "-o",
        cce_path.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let output = cce(&["info", cce_path.to_str().expect("utf8")]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("SAMC"), "{stdout}");
    assert!(stdout.contains("ratio"), "{stdout}");

    let output = cce(&[
        "decompress",
        cce_path.to_str().expect("utf8"),
        "-o",
        out_elf.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let rebuilt = ElfImage::parse(&std::fs::read(&out_elf).expect("readable")).expect("valid ELF");
    assert_eq!(rebuilt.text().expect("has text"), &text[..]);
}

#[test]
fn compress_decompress_round_trip_sadc_both_isas() {
    for isa in [Isa::Mips, Isa::X86] {
        let dir = temp_dir(&format!("sadc-{isa}"));
        let (elf_path, text) = write_test_elf(&dir, isa);
        let cce_path = dir.join("out.cce");
        let out_elf = dir.join("out.elf");

        let output = cce(&[
            "compress",
            elf_path.to_str().expect("utf8"),
            "-a",
            "sadc",
            "-o",
            cce_path.to_str().expect("utf8"),
        ]);
        assert!(output.status.success(), "{isa}: {}", String::from_utf8_lossy(&output.stderr));

        let output = cce(&[
            "decompress",
            cce_path.to_str().expect("utf8"),
            "-o",
            out_elf.to_str().expect("utf8"),
        ]);
        assert!(output.status.success(), "{isa}: {}", String::from_utf8_lossy(&output.stderr));
        let rebuilt =
            ElfImage::parse(&std::fs::read(&out_elf).expect("readable")).expect("valid ELF");
        assert_eq!(rebuilt.text().expect("has text"), &text[..], "{isa}");
    }
}

#[test]
fn ratio_prints_all_algorithms() {
    let dir = temp_dir("ratio");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let output = cce(&["ratio", elf_path.to_str().expect("utf8")]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["compress", "gzip", "huffman", "SAMC", "SADC", "samc-rans"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn closed_stdout_ends_printing_commands_cleanly() {
    let dir = temp_dir("pipe");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let elf = elf_path.to_str().expect("utf8");
    // `cce ratio prog.elf | head -1` with the reader already gone: every
    // write to stdout fails with a broken pipe.
    for args in [&["ratio", elf][..], &["ratio", elf, "--json"], &["stats"], &["help"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_cce"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("cce runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert_eq!(output.status.code(), Some(0), "{args:?}:\n{stderr}");
    }
}

#[test]
fn ratio_emits_json_with_custom_block_size() {
    let dir = temp_dir("ratio-json");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let output = cce(&["ratio", elf_path.to_str().expect("utf8"), "-b", "64", "--json"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    for needle in ["\"algorithm\":\"SAMC\"", "\"ratio\":", "\"lat_bytes\":", "\"block_count\":"] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    assert_eq!(json.matches("\"algorithm\"").count(), 6, "{json}");
}

#[test]
fn compress_round_trips_huffman() {
    let dir = temp_dir("huffman");
    let (elf_path, text) = write_test_elf(&dir, Isa::Mips);
    let cce_path = dir.join("out.cce");
    let out_elf = dir.join("out.elf");

    let output = cce(&[
        "compress",
        elf_path.to_str().expect("utf8"),
        "-a",
        "huffman",
        "-o",
        cce_path.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let output = cce(&["info", cce_path.to_str().expect("utf8")]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("huffman"));

    let output = cce(&[
        "decompress",
        cce_path.to_str().expect("utf8"),
        "-o",
        out_elf.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let rebuilt = ElfImage::parse(&std::fs::read(&out_elf).expect("readable")).expect("valid ELF");
    assert_eq!(rebuilt.text().expect("has text"), &text[..]);
}

#[test]
fn corrupt_container_fails_cleanly() {
    let dir = temp_dir("corrupt");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let cce_path = dir.join("out.cce");
    let output = cce(&[
        "compress",
        elf_path.to_str().expect("utf8"),
        "-a",
        "sadc",
        "-o",
        cce_path.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    // Truncate the artifact and flip a codec byte: both must fail with a
    // clean diagnostic, never a panic.
    let artifact = std::fs::read(&cce_path).expect("readable");
    let truncated = dir.join("truncated.cce");
    std::fs::write(&truncated, &artifact[..artifact.len() / 2]).expect("written");
    let output = cce(&["decompress", truncated.to_str().expect("utf8"), "-o", "/dev/null"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cce:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let mut flipped = artifact.clone();
    let mid = 20 + (flipped.len() - 20) / 4;
    flipped[mid] ^= 0xFF;
    let flipped_path = dir.join("flipped.cce");
    std::fs::write(&flipped_path, &flipped).expect("written");
    let output = cce(&["info", flipped_path.to_str().expect("utf8")]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let dir = temp_dir("bad");
    let junk = dir.join("junk.elf");
    std::fs::write(&junk, b"this is not an elf").expect("written");
    let junk = junk.to_str().expect("utf8");
    // A bare ELF32 MIPS header with no section-header table:
    // e_phnum = e_shoff = e_shnum = 0.
    let headerless = dir.join("headerless.elf");
    let mut bytes = b"\x7FELF\x01\x02\x01".to_vec();
    bytes.resize(16, 0);
    for half in [2u16, 8] {
        bytes.extend(half.to_be_bytes());
    }
    for word in [1u32, 0x0040_0034, 0, 0, 0] {
        bytes.extend(word.to_be_bytes());
    }
    for half in [52u16, 32, 0, 40, 0, 0] {
        bytes.extend(half.to_be_bytes());
    }
    std::fs::write(&headerless, &bytes).expect("written");
    let headerless = headerless.to_str().expect("utf8");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let elf = elf_path.to_str().expect("utf8");
    let out = dir.join("out.cce");
    let out = out.to_str().expect("utf8");
    // Each case exits 1 with a `cce:` error that names `needle`, never a
    // panic: every ELF-reading command refuses the junk input the same way.
    let cases: &[(&[&str], &str)] = &[
        (&["ratio", junk], "bad magic"),
        (&["compress", junk, "-o", out], "bad magic"),
        (&["stats", junk], "bad magic"),
        (&["analyze", junk], "bad magic"),
        (&["disasm", junk], "bad magic"),
        (&["analyze", headerless], "no section headers"),
        (&["compress", headerless, "-o", out], "no section headers"),
        (&["info", junk], "cce:"),
        (&["frobnicate"], "unknown command"),
        // The list of container codecs is built from the registry.
        (&["compress", elf, "--algo", "bogus", "-o", out], "samc-rans"),
    ];
    for (args, needle) in cases {
        let output = cce(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains("cce:") && stderr.contains(needle), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    assert!(!std::path::Path::new(out).exists(), "a refused command wrote its output");
}

#[test]
fn gen_writes_deterministic_workload_elf() {
    let dir = temp_dir("gen");
    let first = dir.join("a.elf");
    let second = dir.join("b.elf");
    let reseeded = dir.join("c.elf");

    let output =
        cce(&["gen", "go", "--scale", "0.05", "--seed", "9", "-o", first.to_str().expect("utf8")]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("`go`"), "{stdout}");

    let output =
        cce(&["gen", "go", "--scale", "0.05", "--seed", "9", "-o", second.to_str().expect("utf8")]);
    assert!(output.status.success());
    // Same profile/scale/seed → byte-identical ELF; a new seed diverges.
    let first_bytes = std::fs::read(&first).expect("readable");
    assert_eq!(first_bytes, std::fs::read(&second).expect("readable"));
    let output = cce(&[
        "gen",
        "go",
        "--scale",
        "0.05",
        "--seed",
        "10",
        "-o",
        reseeded.to_str().expect("utf8"),
    ]);
    assert!(output.status.success());
    assert_ne!(first_bytes, std::fs::read(&reseeded).expect("readable"));

    let parsed = ElfImage::parse(&first_bytes).expect("valid ELF");
    assert!(parsed.text().expect("has text").len() >= 256);

    let output = cce(&["gen", "nonesuch", "-o", first.to_str().expect("utf8")]);
    assert!(!output.status.success());
}

#[test]
fn compress_model_cache_hits_across_processes() {
    let dir = temp_dir("model-cache");
    let cache = dir.join("cache");
    let elf = dir.join("prog.elf");
    let cold_out = dir.join("cold.cce");
    let warm_out = dir.join("warm.cce");

    let output = cce(&["gen", "compress", "--scale", "0.05", "-o", elf.to_str().expect("utf8")]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    // First run trains cold and persists the model.
    let output = cce(&[
        "compress",
        elf.to_str().expect("utf8"),
        "--model-cache",
        cache.to_str().expect("utf8"),
        "-o",
        cold_out.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("model cache: cold miss"), "{stdout}");
    assert!(stdout.contains("division "), "{stdout}");

    // Second run is a fresh process: the in-memory cache is gone, so the
    // persisted record must satisfy the request from disk — and the
    // artifact must be byte-identical.
    let output = cce(&[
        "compress",
        elf.to_str().expect("utf8"),
        "--model-cache",
        cache.to_str().expect("utf8"),
        "-o",
        warm_out.to_str().expect("utf8"),
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("model cache: disk hit"), "{stdout}");
    assert_eq!(
        std::fs::read(&cold_out).expect("readable"),
        std::fs::read(&warm_out).expect("readable")
    );

    // The cache is SAMC-only: other algorithms must refuse it.
    let output = cce(&[
        "compress",
        elf.to_str().expect("utf8"),
        "-a",
        "huffman",
        "--model-cache",
        cache.to_str().expect("utf8"),
        "-o",
        cold_out.to_str().expect("utf8"),
    ]);
    assert!(!output.status.success());
}

/// `ratio` routes SAMC through `--model-cache` for both output forms
/// (table and `--json`), reporting the cache source on stderr; the
/// section table is `analyze`'s, not `ratio`'s.
#[test]
fn ratio_model_cache_serves_both_input_spellings() {
    let dir = temp_dir("ratio-model-cache");
    let cache = dir.join("cache");
    let elf = dir.join("prog.elf");
    let [elf, cache] = [&elf, &cache].map(|p| p.to_str().expect("utf8").to_owned());
    let output = cce(&["gen", "compress", "--scale", "0.05", "-o", &elf]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    for (args, source) in [
        (vec!["ratio", &elf, "--model-cache", &cache], "cold miss"),
        (vec!["ratio", &elf, "--model-cache", &cache, "--json"], "disk hit"),
    ] {
        let output = cce(&args);
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("cce: model cache: {source}")), "{args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(!stdout.contains(": sections"), "{args:?}: {stdout}");
        assert!(stdout.contains("SAMC") || stdout.contains("\"samc\""), "{stdout}");
    }
}

#[test]
fn disasm_prints_assembly() {
    let dir = temp_dir("disasm");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let output = cce(&["disasm", elf_path.to_str().expect("utf8"), "-n", "8"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("addiu $sp, $sp"), "{stdout}");
    assert!(stdout.contains("more instructions"), "{stdout}");
}

/// `analyze` prints the section table of a multi-section ELF (the
/// committed `.text`/`.rodata`/`.bss` fixture) before the entropy
/// diagnostics of its text.
#[test]
fn analyze_prints_entropy_diagnostics() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/pipeline_workload.elf");
    let output = cce(&["analyze", fixture.to_str().expect("utf8")]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in ["byte entropy", "opcode entropy", "field-coder bound", ": sections"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    let row = |name: &str| {
        stdout
            .lines()
            .find(|line| line.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row:\n{stdout}"))
            .to_owned()
    };
    assert!(row(".text").ends_with("text (compressed)"), "{stdout}");
    assert!(!row(".rodata").contains("text") && !row(".rodata").contains("nobits"), "{stdout}");
    assert!(row(".bss").ends_with("nobits"), "{stdout}");
}

#[test]
fn flags_from_other_commands_are_usage_errors() {
    let dir = temp_dir("foreign-flags");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let elf = elf_path.to_str().expect("utf8");
    let out = dir.join("out.cce");
    let out = out.to_str().expect("utf8");
    // Each command with a flag only some other command accepts: the
    // parser must refuse it rather than act on it or read it as a path.
    let cases: &[(&[&str], &str)] = &[
        (&["ratio", "-n", "64", elf], "-n"),
        (&["compress", elf, "--cases", "3", "--fetches", "9", "-o", out], "--cases"),
        (&["decompress", out, "--json", "-o", out], "--json"),
        (&["info", out, "--chunk-size", "9"], "--chunk-size"),
        (&["gen", "go", "--model-cache", "x", "-o", out], "--model-cache"),
        (&["stats", "--bogus"], "--bogus"),
        (&["analyze", elf, "--scale", "2"], "--scale"),
        (&["disasm", elf, "-b", "3"], "-b"),
        (&["fuzz", "--socket", "x"], "--socket"),
        (&["sweep", "--count", "3"], "--count"),
        (&["publish", out, "--tcp", "9", "-o", out], "--tcp"),
        (&["verify", out, "--cache", "3"], "--cache"),
        (&["serve", out, "--algos", "samc", "--socket", out], "--algos"),
        // A retired flag fails loudly rather than being ignored.
        (&["serve", out, "--timeout-ms", "9", "--socket", out], "--timeout-ms"),
        (&["ratio", elf, "--elf", elf], "--elf"),
        (&["compress", "--elf", elf, "-o", out], "--elf"),
        (&["fetch", "--workers", "2", "--socket", out, "-o", out], "--workers"),
    ];
    for (args, flag) in cases {
        let output = cce(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{args:?}:\n{stderr}");
        assert!(stderr.contains(&format!("usage: cce {} ", args[0])), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    assert!(!std::path::Path::new(out).exists(), "a refused command wrote its output");
}

#[test]
fn sweep_refuses_a_zero_entry_clb() {
    let dir = temp_dir("sweep-clb");
    let out = dir.join("memsim.json");
    let out = out.to_str().expect("utf8");
    // A CLB needs at least one entry: the value is a usage error, caught
    // before any image is built, never a worker panic.
    for clb in ["0", "8,0"] {
        let args = ["sweep", "--scale", "0.05", "--fetches", "1000", "--clb", clb, "-o", out];
        let output = cce(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains("--clb: CLB entries must be positive"), "{args:?}:\n{stderr}");
        assert!(stderr.contains("usage: cce sweep "), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    assert!(!std::path::Path::new(out).exists(), "a refused sweep wrote its output");
}

#[test]
fn metrics_artifacts_are_written_for_compress_and_info() {
    // `cce_obs::JsonWriter` output is deterministic (keys in writing
    // order, no whitespace), so fields are checked as exact substrings;
    // CI parses the same artifacts with a real JSON parser.
    let dir = temp_dir("metrics");
    let (elf_path, text) = write_test_elf(&dir, Isa::Mips);
    let [elf, cce_path, metrics] =
        [elf_path, dir.join("out.cce"), dir.join("metrics.json")].map(|p| p.display().to_string());
    for args in [vec!["compress", &elf, "-o", &cce_path], vec!["info", &cce_path]] {
        let output = cce(&[&args[..], &["--metrics", &metrics]].concat());
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

        let json = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(json.ends_with("]}\n"), "{}: artifact must end with a newline", args[0]);
        let head = format!("{{\"version\":1,\"command\":\"{}\",\"obs_enabled\":true,", args[0]);
        assert!(json.starts_with(&head), "{json}");
        if args[0] == "compress" {
            let blocks = text.len().div_ceil(32);
            let metric = format!(
                "{{\"name\":\"pipeline.blocks\",\"kind\":\"counter\",\"help\":\"blocks \
                 compressed by whole-program compression\",\"value\":{blocks}}}"
            );
            assert!(json.contains(&metric), "{json}");
        }
    }
}
