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
    let output = cce(&["ratio", junk.to_str().expect("utf8")]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cce:"));

    let output = cce(&["frobnicate"]);
    assert!(!output.status.success());

    let output = cce(&["info", junk.to_str().expect("utf8")]);
    assert!(!output.status.success());
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

#[test]
fn analyze_prints_entropy_diagnostics() {
    let dir = temp_dir("analyze");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let output = cce(&["analyze", elf_path.to_str().expect("utf8")]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in ["byte entropy", "opcode entropy", "field-coder bound"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
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
        (&["sweep", "--elf", elf], "--elf"),
        (&["publish", out, "--timeout-ms", "9", "-o", out], "--timeout-ms"),
        (&["verify", out, "--cache", "3"], "--cache"),
        (&["serve", out, "--algos", "samc", "--socket", out], "--algos"),
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
fn serve_rejects_a_zero_timeout() {
    // A zero deadline would answer every cache miss `Timeout`; the parser
    // refuses it before the artifact is even opened.
    let output = cce(&["serve", "no-such-dir", "--socket", "no.sock", "--timeout-ms", "0"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("timeout must be positive"), "{stderr}");
    assert!(stderr.contains("usage: cce serve "), "{stderr}");
}

#[test]
fn metrics_artifacts_are_written_for_compress_and_info() {
    use cce_core::serve::json::{parse, Json};
    let dir = temp_dir("metrics");
    let (elf_path, _) = write_test_elf(&dir, Isa::Mips);
    let [elf, cce_path, metrics] =
        [elf_path, dir.join("out.cce"), dir.join("metrics.json")].map(|p| p.display().to_string());
    for args in [vec!["compress", &elf, "-o", &cce_path], vec!["info", &cce_path]] {
        let output = cce(&[&args[..], &["--metrics", &metrics]].concat());
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(text.ends_with('\n'), "{}: artifact must end with a newline", args[0]);
        assert!(text.contains("\"obs_enabled\":true"), "{text}");
        let json = parse(text.as_bytes()).expect("metrics artifact is valid JSON");
        let root = json.as_obj().expect("artifact is an object");
        assert_eq!(root["command"].as_str(), Some(args[0]), "{text}");
        if args[0] == "compress" {
            let blocks = root["metrics"]
                .as_arr()
                .expect("metrics array")
                .iter()
                .filter_map(Json::as_obj)
                .find(|m| m["name"].as_str() == Some("pipeline.blocks"))
                .and_then(|m| m["value"].as_u64());
            assert!(blocks > Some(0), "{text}");
        }
    }
}
