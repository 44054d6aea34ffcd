//! `cce` — command-line front end for the code-compression toolkit.
//!
//! ```text
//! cce ratio [-b BLOCK] [--json] [--metrics M.json] <input.elf>
//! cce ratio --elf <input.elf> [...]          # streaming path + section stats
//! cce compress [-a ALGO] [-b BLOCK] [--model-cache DIR] <input.elf> -o <out.cce>
//! cce compress --elf <input.elf> [...] -o <out.cce>  # verbose streaming form
//! cce decompress <in.cce> -o <out.elf>       # rebuild a minimal ELF
//! cce info <in.cce>                          # inspect a compressed artifact
//! cce bench [--scale F] [--seed S] [--metrics M.json]  # fixed-seed suite run
//! cce gen <profile> [--scale F] [--seed S] [--multi-section] -o <out.elf>
//! cce stats [input.elf]                      # metric registry / live counters
//! cce fuzz --algo <name|all|serve> --cases N --seed S  # adversarial decode fuzzing
//! cce publish <in.cce> -o <dir> [--chunk-size N]  # container -> artifact directory
//! cce verify <dir>                           # re-hash a published artifact
//! cce serve <dir> --socket P | --tcp ADDR    # long-lived block-serving daemon
//! cce fetch --socket P | --tcp ADDR -o <out.elf>  # rebuild an ELF over the wire
//! ```
//!
//! `compress` always streams: the text section flows from the ELF
//! through the bounded block pipeline ([`cce_core::streaming`]) into an
//! incrementally written, indexed **v2** container, so peak memory is
//! the pipeline's reorder window — not the text size.  `decompress` and
//! `info` accept both container versions (v1 artifacts from older
//! builds keep decoding).  The `--elf` spelling of `compress`/`ratio`
//! additionally prints per-section statistics of the input.
//!
//! `--model-cache DIR` points SAMC at a persistent model store
//! ([`cce_core::samc::store`]): repeat requests reuse the trained model
//! outright, and fresh programs warm-start the stream-division search
//! from a cached division instead of the cold correlation pass.
//!
//! `publish` explodes a v2 container into a content-addressed artifact
//! directory (chunk files + SHA-256 manifest, [`cce_core::artifact`]),
//! `verify` re-hashes one end to end, `serve` answers block fetch and
//! decode requests over a Unix or TCP socket until a client sends
//! `shutdown`, and `fetch` is the reference client: it pulls the
//! manifest, decodes every block over the wire, and rebuilds the same
//! minimal ELF `decompress` writes.
//!
//! The `.cce` container holds the trained codec (Markov tables or
//! dictionary+code tables), the block image, and enough ELF identity to
//! rebuild a loadable executable around the decompressed text section.
//! The codec-kind byte is [`Algorithm::tag`], the same registry the
//! measurement harness uses, so any random-access algorithm the registry
//! knows is a valid container payload.

use cce_core::codec::{compress_parallel, worker_count, BlockCodec};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::{ElfImage, ElfStream, Machine};
use cce_core::fuzz::FuzzConfig;
use cce_core::isa::Isa;
use cce_core::{measure, report, streaming, Algorithm};
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cce: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    match args.first().map(String::as_str) {
        // `measure` is an alias kept for symmetry with the library API.
        Some("ratio" | "measure") => ratio(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("compress") => compress(&args[1..]),
        Some("decompress") => decompress(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("disasm") => disasm(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("publish") => publish(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("fetch") => fetch(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `cce help`)").into()),
    }
}

fn print_usage() {
    println!("cce — code compression for embedded systems (SAMC/SADC, DAC 1998)");
    println!();
    println!("USAGE:");
    println!("  cce ratio [-b N] [--json] [--metrics M.json] [--model-cache DIR] <input.elf>");
    println!("                                                compare all algorithms");
    println!("  cce ratio --elf <input.elf> [...]             same, streaming + section stats");
    println!(
        "  cce compress [-a samc|sadc|huffman] [-b N] [--model-cache DIR] <in.elf> -o <out.cce>"
    );
    println!("  cce compress --elf <in.elf> [...] -o <out.cce>");
    println!("                                                streaming form w/ section stats");
    println!("  cce decompress <in.cce> -o <out.elf>");
    println!("  cce info <in.cce>");
    println!(
        "  cce bench [--scale F] [--seed S] [-b N] [--json] [--metrics M.json] [--model-cache DIR]"
    );
    println!("                                                fixed-seed suite benchmark");
    println!("  cce bench --optimizer [--seed S] [-o OUT.json] [--json]");
    println!(
        "                                                SAMC optimizer + model-cache micro-bench"
    );
    println!("  cce bench --decode [--scale F] [--seed S] [-o OUT.json] [--json]");
    println!(
        "                                                entropy-backend decode throughput bench"
    );
    println!("  cce bench --memsim [...]                      alias for `cce sweep --bench`");
    println!("  cce sweep [--algos A,B] [--blocks N,..] [--caches N,..] [--assoc N,..]");
    println!("            [--clb N,..] [--decoders nibble,ransN] [--fetches N] [--scale F]");
    println!("            [--seed S] [--workers N] [--bench] [-o OUT.json] [--json]");
    println!("                                                memory-system design-space sweep");
    println!(
        "  cce gen <profile> [--scale F] [--seed S] [--isa mips|x86] [--multi-section] -o <out.elf>"
    );
    println!("                                                synthesize a SPEC95-like workload");
    println!("  cce stats                                     list registered metrics");
    println!("  cce stats [--metrics M.json] <input.elf>      measure and dump counters");
    println!("  cce analyze <input.elf>                       entropy diagnostics");
    println!("  cce disasm <input.elf> [-n COUNT]             disassemble (MIPS only)");
    println!("  cce fuzz --algo <name|all|serve> --cases N --seed S");
    println!("                                                adversarial decode fuzzing");
    println!("  cce publish <in.cce> -o <dir> [--chunk-size N]");
    println!("                                                explode a container into a");
    println!("                                                content-addressed artifact dir");
    println!("  cce verify <dir>                              re-hash a published artifact");
    println!("  cce serve <dir> --socket PATH|--tcp ADDR [--timeout-ms N] [--cache N]");
    println!("                                                block-serving daemon");
    println!("  cce fetch --socket PATH|--tcp ADDR -o <out.elf>");
    println!("                                                rebuild an ELF over the wire");
}

/// Parsed command-line flags.
struct Flags<'a> {
    positional: Vec<&'a str>,
    output: Option<&'a str>,
    algorithm: Option<&'a str>,
    block_size: usize,
    json: bool,
    cases: usize,
    seed: u64,
    metrics: Option<&'a str>,
    scale: f64,
    optimizer: bool,
    decode: bool,
    model_cache: Option<&'a str>,
    isa: Option<&'a str>,
    elf: Option<&'a str>,
    multi_section: bool,
    chunk_size: u64,
    socket: Option<&'a str>,
    tcp: Option<&'a str>,
    timeout_ms: u64,
    cache: usize,
    algos: Option<&'a str>,
    blocks: Option<&'a str>,
    caches: Option<&'a str>,
    assoc: Option<&'a str>,
    clb: Option<&'a str>,
    decoders: Option<&'a str>,
    fetches: usize,
    workers: Option<usize>,
    bench: bool,
    memsim: bool,
}

/// Parses `-o out` plus positional arguments.
fn split_flags(args: &[String]) -> Result<Flags<'_>, String> {
    let mut positional = Vec::new();
    let mut output = None;
    let mut algorithm = None;
    let mut block_size = 32usize;
    let mut json = false;
    let defaults = FuzzConfig::default();
    let mut cases = defaults.cases;
    let mut seed = defaults.seed;
    let mut metrics = None;
    let mut scale = 0.1f64;
    let mut optimizer = false;
    let mut decode = false;
    let mut model_cache = None;
    let mut isa = None;
    let mut elf = None;
    let mut multi_section = false;
    let mut chunk_size = cce_core::serve::DEFAULT_CHUNK_PAYLOAD;
    let mut socket = None;
    let mut tcp = None;
    let mut timeout_ms = 5000u64;
    let mut cache = 256usize;
    let mut algos = None;
    let mut blocks = None;
    let mut caches = None;
    let mut assoc = None;
    let mut clb = None;
    let mut decoders = None;
    let mut fetches = 100_000usize;
    let mut workers = None;
    let mut bench_flag = false;
    let mut memsim = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                output = Some(args.get(i + 1).ok_or("missing value after -o")?.as_str());
                i += 2;
            }
            "-a" | "--algo" | "--algorithm" => {
                algorithm = Some(args.get(i + 1).ok_or("missing value after -a")?.as_str());
                i += 2;
            }
            "--cases" => {
                cases = args
                    .get(i + 1)
                    .ok_or("missing value after --cases")?
                    .parse()
                    .map_err(|_| "cases must be an integer")?;
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .ok_or("missing value after --seed")?
                    .parse()
                    .map_err(|_| "seed must be an integer")?;
                i += 2;
            }
            "-n" | "--count" => {
                block_size = args
                    .get(i + 1)
                    .ok_or("missing value after -n")?
                    .parse()
                    .map_err(|_| "count must be an integer")?;
                i += 2;
            }
            "-b" | "--block-size" => {
                block_size = args
                    .get(i + 1)
                    .ok_or("missing value after -b")?
                    .parse()
                    .map_err(|_| "block size must be an integer")?;
                i += 2;
            }
            "--metrics" => {
                metrics = Some(args.get(i + 1).ok_or("missing value after --metrics")?.as_str());
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .ok_or("missing value after --scale")?
                    .parse()
                    .map_err(|_| "scale must be a number")?;
                if !(scale > 0.0 && scale.is_finite()) {
                    return Err("scale must be positive".into());
                }
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--optimizer" => {
                optimizer = true;
                i += 1;
            }
            "--decode" => {
                decode = true;
                i += 1;
            }
            "--model-cache" => {
                model_cache =
                    Some(args.get(i + 1).ok_or("missing value after --model-cache")?.as_str());
                i += 2;
            }
            "--isa" => {
                isa = Some(args.get(i + 1).ok_or("missing value after --isa")?.as_str());
                i += 2;
            }
            "--elf" => {
                elf = Some(args.get(i + 1).ok_or("missing value after --elf")?.as_str());
                i += 2;
            }
            "--multi-section" => {
                multi_section = true;
                i += 1;
            }
            "--chunk-size" => {
                chunk_size = args
                    .get(i + 1)
                    .ok_or("missing value after --chunk-size")?
                    .parse()
                    .map_err(|_| "chunk size must be an integer")?;
                i += 2;
            }
            "--socket" => {
                socket = Some(args.get(i + 1).ok_or("missing value after --socket")?.as_str());
                i += 2;
            }
            "--tcp" => {
                tcp = Some(args.get(i + 1).ok_or("missing value after --tcp")?.as_str());
                i += 2;
            }
            "--timeout-ms" => {
                timeout_ms = args
                    .get(i + 1)
                    .ok_or("missing value after --timeout-ms")?
                    .parse()
                    .map_err(|_| "timeout must be an integer (milliseconds)")?;
                i += 2;
            }
            "--cache" => {
                cache = args
                    .get(i + 1)
                    .ok_or("missing value after --cache")?
                    .parse()
                    .map_err(|_| "cache must be an integer (blocks)")?;
                i += 2;
            }
            "--algos" => {
                algos = Some(args.get(i + 1).ok_or("missing value after --algos")?.as_str());
                i += 2;
            }
            "--blocks" => {
                blocks = Some(args.get(i + 1).ok_or("missing value after --blocks")?.as_str());
                i += 2;
            }
            "--caches" => {
                caches = Some(args.get(i + 1).ok_or("missing value after --caches")?.as_str());
                i += 2;
            }
            "--assoc" => {
                assoc = Some(args.get(i + 1).ok_or("missing value after --assoc")?.as_str());
                i += 2;
            }
            "--clb" => {
                clb = Some(args.get(i + 1).ok_or("missing value after --clb")?.as_str());
                i += 2;
            }
            "--decoders" => {
                decoders = Some(args.get(i + 1).ok_or("missing value after --decoders")?.as_str());
                i += 2;
            }
            "--fetches" => {
                fetches = args
                    .get(i + 1)
                    .ok_or("missing value after --fetches")?
                    .parse()
                    .map_err(|_| "fetches must be an integer")?;
                if fetches == 0 {
                    return Err("fetches must be positive".into());
                }
                i += 2;
            }
            "--workers" => {
                let n: usize = args
                    .get(i + 1)
                    .ok_or("missing value after --workers")?
                    .parse()
                    .map_err(|_| "workers must be an integer")?;
                if !(1..=1024).contains(&n) {
                    return Err("workers must be in 1..=1024".into());
                }
                workers = Some(n);
                i += 2;
            }
            "--bench" => {
                bench_flag = true;
                i += 1;
            }
            "--memsim" => {
                memsim = true;
                i += 1;
            }
            other => {
                positional.push(other);
                i += 1;
            }
        }
    }
    Ok(Flags {
        positional,
        output,
        algorithm,
        block_size,
        json,
        cases,
        seed,
        metrics,
        scale,
        optimizer,
        decode,
        model_cache,
        isa,
        elf,
        multi_section,
        chunk_size,
        socket,
        tcp,
        timeout_ms,
        cache,
        algos,
        blocks,
        caches,
        assoc,
        clb,
        decoders,
        fetches,
        workers,
        bench: bench_flag,
        memsim,
    })
}

/// Opens a [`CachedTrainer`] over `dir` for SAMC requests at
/// `block_size`, paired with the optimizer config every cache-path train
/// uses (defaults, with the stream count taken from the base division).
///
/// [`CachedTrainer`]: cce_core::samc::store::CachedTrainer
fn open_model_cache(dir: &str) -> Result<cce_core::samc::store::CachedTrainer, Box<dyn Error>> {
    use cce_core::samc::store::{CachedTrainer, ModelStore};
    /// Bounded by request diversity within one CLI run, not memory.
    const CACHE_CAPACITY: usize = 16;
    Ok(CachedTrainer::new(ModelStore::open(dir)?, CACHE_CAPACITY))
}

/// The SAMC training request the model-cache path resolves: the ISA's
/// base config at `block_size`, searched with default optimizer settings
/// over the base division's stream count.
fn cache_request(
    isa: Isa,
    block_size: usize,
) -> (cce_core::samc::SamcConfig, cce_core::samc::OptimizeConfig) {
    use cce_core::samc::{OptimizeConfig, SamcConfig};
    let base = match isa {
        Isa::Mips => SamcConfig::mips(),
        Isa::X86 => SamcConfig::x86(),
    }
    .with_block_size(block_size);
    let optimize =
        OptimizeConfig { streams: base.division.stream_count(), ..OptimizeConfig::default() };
    (base, optimize)
}

/// Buffered ELF load for the measurement-only commands (`ratio` in its
/// positional form, `stats`, `analyze`, `disasm`): diagnostics want the
/// whole text resident anyway, so the whole-file read is the honest
/// cost.  Compression never comes through here — it streams section
/// bytes through [`streaming::compress_elf`] instead.
fn load_elf(path: &str) -> Result<(ElfImage, Isa), Box<dyn Error>> {
    let bytes = std::fs::read(path)?;
    let image = ElfImage::parse(&bytes)?;
    let isa = match image.machine {
        Machine::Mips => Isa::Mips,
        Machine::I386 => Isa::X86,
        Machine::Other(m) => return Err(format!("unsupported e_machine {m}").into()),
    };
    Ok((image, isa))
}

/// Measures one algorithm, routing SAMC through the model cache when a
/// trainer is open (exact-key hits skip training; misses warm-start the
/// division search and persist the result).  The cache source is
/// reported on stderr so stdout stays a clean table/JSON stream.
fn measure_cached(
    algorithm: Algorithm,
    isa: Isa,
    text: &[u8],
    block_size: usize,
    trainer: &mut Option<cce_core::samc::store::CachedTrainer>,
) -> Result<cce_core::Measurement, Box<dyn Error>> {
    match trainer {
        Some(trainer) if algorithm == Algorithm::Samc => {
            let (config, optimize) = cache_request(isa, block_size);
            let outcome = trainer.train(text, &config, &optimize)?;
            eprintln!(
                "cce: model cache: {} (key {}, division {:016x})",
                outcome.source,
                outcome.key,
                outcome.codec.config().division.division_hash()
            );
            Ok(cce_core::measure_trained_block_codec(
                algorithm,
                isa,
                text,
                &outcome.codec,
                worker_count(),
            )?)
        }
        _ => Ok(measure(algorithm, isa, text, block_size)?),
    }
}

fn ratio(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    if let Some(path) = flags.elf {
        if !flags.positional.is_empty() {
            return Err("pass the input either positionally or via --elf, not both".into());
        }
        return ratio_elf(path, &flags);
    }
    let [path] = flags.positional.as_slice() else {
        return Err(
            "usage: cce ratio [-b N] [--json] [--metrics M.json] [--model-cache DIR] <input.elf>"
                .into(),
        );
    };
    let (elf, isa) = load_elf(path)?;
    let text = elf.text().ok_or("no .text section")?;
    let mut trainer = flags.model_cache.map(open_model_cache).transpose()?;

    if flags.json {
        let mut measurements = Vec::new();
        for algorithm in Algorithm::ALL {
            match measure_cached(algorithm, isa, text, flags.block_size, &mut trainer) {
                Ok(m) => measurements.push(m),
                Err(e) => eprintln!("cce: {algorithm} failed: {e}"),
            }
        }
        println!("{}", report::measurements_json(&measurements));
        return write_metrics(flags.metrics, "ratio");
    }

    println!("{path}: {} bytes of {isa} text", text.len());
    println!("{:<10} {:>12} {:>8}", "algorithm", "compressed", "ratio");
    for algorithm in Algorithm::ALL {
        match measure_cached(algorithm, isa, text, flags.block_size, &mut trainer) {
            Ok(m) => println!(
                "{:<10} {:>12} {:>8.3}",
                algorithm.to_string(),
                m.compressed_len(),
                m.ratio()
            ),
            Err(e) => println!("{:<10} failed: {e}", algorithm.to_string()),
        }
    }
    write_metrics(flags.metrics, "ratio")
}

/// `cce ratio --elf`: the streaming measurement path.  Section stats
/// come from the walker's header pass; each block algorithm is then
/// measured by streaming the text through the pipeline (training still
/// buffers the section once — see [`streaming::measure_elf`]).
fn ratio_elf(path: &str, flags: &Flags) -> Result<(), Box<dyn Error>> {
    let file = std::fs::File::open(path)?;
    let mut elf =
        ElfStream::open(std::io::BufReader::new(file)).map_err(streaming::stream_error)?;
    let workers = worker_count();

    if flags.json {
        let mut measurements = Vec::new();
        for algorithm in Algorithm::ALL {
            match streaming::measure_elf(&mut elf, algorithm, flags.block_size, workers) {
                Ok(m) => measurements.push(m),
                Err(e) => eprintln!("cce: {algorithm} failed: {e}"),
            }
        }
        println!("{}", report::measurements_json(&measurements));
        return write_metrics(flags.metrics, "ratio");
    }

    print_section_stats(path, &streaming::section_stats(&elf));
    println!("{:<10} {:>12} {:>8}", "algorithm", "compressed", "ratio");
    for algorithm in Algorithm::ALL {
        match streaming::measure_elf(&mut elf, algorithm, flags.block_size, workers) {
            Ok(m) => println!(
                "{:<10} {:>12} {:>8.3}",
                algorithm.to_string(),
                m.compressed_len(),
                m.ratio()
            ),
            Err(e) => println!("{:<10} failed: {e}", algorithm.to_string()),
        }
    }
    write_metrics(flags.metrics, "ratio")
}

/// Renders the per-section table the `--elf` forms print.
fn print_section_stats(path: &str, stats: &[streaming::SectionStat]) {
    println!("{path}: sections");
    println!("  {:<12} {:>10} {:>12}  notes", "name", "size", "addr");
    for s in stats {
        let mut notes = Vec::new();
        if s.is_text {
            notes.push("text (compressed)");
        }
        if !s.in_file {
            notes.push("nobits");
        }
        println!("  {:<12} {:>10} {:>#12x}  {}", s.name, s.size, s.addr, notes.join(", "));
    }
}

/// Writes the metrics artifact for `command` if `--metrics` was given.
fn write_metrics(path: Option<&str>, command: &str) -> Result<(), Box<dyn Error>> {
    let Some(path) = path else { return Ok(()) };
    if !cce_core::obs::enabled() {
        eprintln!("cce: warning: built without the `obs` feature; all metrics are zero");
    }
    std::fs::write(path, terminated(cce_core::obs::metrics_json(command)))?;
    eprintln!("cce: wrote {command} metrics to {path}");
    Ok(())
}

/// JSON artifacts are text files: POSIX tools (`tail`, `jq`, `wc -l`)
/// expect a final newline, so every reporter terminates with one.
fn terminated(mut json: String) -> String {
    if !json.ends_with('\n') {
        json.push('\n');
    }
    json
}

/// Benchmarks measured by `cce bench`: a small representative slice of
/// the suite so the smoke run stays fast at the default `--scale`.
const BENCH_PROGRAMS: [&str; 3] = ["compress", "go", "ijpeg"];

fn bench(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::memsim::{CacheConfig, CostModel, LineAddressTable, MemorySystem};
    use cce_core::workload::trace::{instruction_trace, TraceConfig};

    let flags = split_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(
            "usage: cce bench [--optimizer] [--scale F] [--seed S] [-b N] [--json] [--metrics M.json] [--model-cache DIR]"
                .into(),
        );
    }
    if flags.optimizer {
        return bench_optimizer(&flags);
    }
    if flags.decode {
        return bench_decode(&flags);
    }
    if flags.memsim {
        // `cce bench --memsim` ≡ `cce sweep --bench`: the design-space
        // sweep with the kernel-speedup leg in the artifact.
        return run_sweep_command(&flags, true);
    }
    cce_core::obs::reset();
    let isa = Isa::Mips;
    let mut trainer = flags.model_cache.map(open_model_cache).transpose()?;
    let programs = cce_core::workload::spec95_suite_seeded(isa, flags.scale, flags.seed);
    let programs: Vec<_> =
        programs.into_iter().filter(|p| BENCH_PROGRAMS.contains(&p.name)).collect();

    let mut measurements = Vec::new();
    if !flags.json {
        println!(
            "bench: {} MIPS benchmarks at scale {} (seed {})",
            programs.len(),
            flags.scale,
            flags.seed
        );
        println!(
            "{:<10} {:<10} {:>10} {:>12} {:>8}",
            "benchmark", "algorithm", "text", "compressed", "ratio"
        );
    }
    for program in &programs {
        for algorithm in Algorithm::ALL {
            let m = measure_cached(algorithm, isa, &program.text, flags.block_size, &mut trainer)
                .map_err(|e| format!("{}/{algorithm}: {e}", program.name))?;
            if !flags.json {
                println!(
                    "{:<10} {:<10} {:>10} {:>12} {:>8.3}",
                    program.name,
                    algorithm.to_string(),
                    m.original_len(),
                    m.compressed_len(),
                    m.ratio()
                );
            }
            measurements.push(m);
        }
    }

    // Memory-system leg: run the first benchmark's SAMC image through the
    // simulator so the artifact carries cache/CLB hit-miss counters too.
    let program = programs.first().ok_or("bench suite selection is empty")?;
    let samc = measurements
        .iter()
        .find(|m| m.algorithm() == Algorithm::Samc && m.original_len() == program.text.len())
        .ok_or("no SAMC measurement for the memsim leg")?;
    let sizes = samc.block_sizes().ok_or("SAMC is random-access")?;
    let lat = LineAddressTable::from_block_sizes(sizes.iter().copied());
    let config = CacheConfig { size_bytes: 4096, block_size: flags.block_size, associativity: 2 };
    let trace = instruction_trace(
        program.text.len(),
        &TraceConfig { fetches: 20_000, seed: flags.seed, ..TraceConfig::default() },
    );
    let mut base = MemorySystem::uncompressed(config, CostModel::default());
    let base_report = base.run(&trace);
    let mut comp = MemorySystem::compressed(config, CostModel::default(), lat, 32);
    let comp_report = comp.run(&trace);
    if flags.json {
        println!("{}", report::measurements_json(&measurements));
    } else {
        println!(
            "memsim ({}): hit ratio {:.3}, CLB {}/{} hit/miss, CPF {:.3} vs {:.3} uncompressed (slowdown {:.3})",
            program.name,
            comp_report.cache.hit_ratio(),
            comp_report.clb_hits,
            comp_report.clb_misses,
            comp_report.cpf(),
            base_report.cpf(),
            comp_report.slowdown_vs(&base_report)
        );
    }
    bench_pipeline(flags.seed, flags.json)?;
    write_metrics(flags.metrics, "bench")
}

/// Times full-image decodes of `image` through `codec` and returns the
/// throughput in MB/s of uncompressed output.  The first decode is
/// checked against `text` so the loop never times a broken decoder.
fn time_decode(
    codec: &dyn cce_core::codec::BlockCodec,
    image: &cce_core::codec::BlockImage,
    text: &[u8],
    iterations: usize,
) -> Result<f64, Box<dyn Error>> {
    use std::time::Instant;
    if codec.decompress(image)? != text {
        return Err(format!("{}: decode differs from the corpus", codec.name()).into());
    }
    let start = Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(codec.decompress(image)?);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    Ok((iterations * text.len()) as f64 / (1024.0 * 1024.0) / secs)
}

/// `cce bench --decode`: decode-throughput micro-benchmark of the two
/// entropy backends sharing SAMC's Markov models — the serial arithmetic
/// coder vs the interleaved rANS coder at every lane width — on both
/// ISAs, writing the `BENCH_decode.json` artifact (see README).
///
/// The corpus is the fixed-seed "go" workload; the iteration count is
/// derived deterministically from the corpus size so artifacts from
/// different scales time comparable total work.  Blocks are 4 KiB: large
/// enough to amortize the rANS stream header (1 + 4·lanes bytes/block)
/// below the ±2 % arith-ratio band the artifact asserts.
fn bench_decode(flags: &Flags) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::encode_text;
    use cce_core::rans::{Lanes, SamcRansCodec};
    use cce_core::samc::{SamcCodec, SamcConfig};
    use cce_core::workload::{generate_mips_seeded, generate_x86_seeded, Spec95};

    const PROFILE: &str = "go";
    const DECODE_BLOCK: usize = 4096;
    /// Uncompressed bytes each timing loop targets; fixes the iteration
    /// count from the corpus size alone.
    const TARGET_BYTES: usize = 32 * 1024 * 1024;

    let profile = Spec95::by_name(PROFILE).expect("profile is in the suite");
    let mut isa_reports = Vec::new();
    let mut band_ok = true;
    let mut speedup_4way = f64::INFINITY;
    for isa in [Isa::Mips, Isa::X86] {
        let text = match isa {
            Isa::Mips => encode_text(&generate_mips_seeded(profile, flags.scale, flags.seed)),
            Isa::X86 => generate_x86_seeded(profile, flags.scale, flags.seed),
        };
        let iterations = (TARGET_BYTES / text.len().max(1)).clamp(4, 512);
        let config = match isa {
            Isa::Mips => SamcConfig::mips(),
            Isa::X86 => SamcConfig::x86(),
        }
        .with_block_size(DECODE_BLOCK);
        let arith = SamcCodec::train(&text, config)?;
        let arith_image = cce_core::codec::BlockCodec::compress(&arith, &text)?;
        let arith_ratio = arith_image.compressed_len() as f64 / text.len() as f64;
        let arith_mb = time_decode(&arith, &arith_image, &text, iterations)?;
        if !flags.json {
            println!(
                "decode ({PROFILE}/{isa}, {} bytes, {iterations} iterations, {DECODE_BLOCK}-byte blocks):",
                text.len()
            );
            println!("  {:<14} {:>10}  {:>8}  {:>9}", "backend", "MB/s", "ratio", "speedup");
            println!("  {:<14} {arith_mb:>10.1}  {arith_ratio:>8.4}  {:>9.2}", "arith", 1.0);
        }
        let mut lane_reports = Vec::new();
        for lanes in Lanes::ALL {
            let rans = SamcRansCodec::from_samc(arith.clone(), lanes);
            let image = rans.compress(&text)?;
            let ratio = image.compressed_len() as f64 / text.len() as f64;
            let mb = time_decode(&rans, &image, &text, iterations)?;
            let speedup = mb / arith_mb;
            band_ok &= (image.compressed_len() as f64 - arith_image.compressed_len() as f64).abs()
                <= 0.02 * arith_image.compressed_len() as f64;
            if lanes == Lanes::FOUR {
                speedup_4way = speedup_4way.min(speedup);
            }
            if !flags.json {
                println!(
                    "  {:<14} {mb:>10.1}  {ratio:>8.4}  {speedup:>9.2}",
                    format!("rans/{lanes}-way")
                );
            }
            lane_reports.push(format!(
                concat!(
                    "{{\"lanes\":{lanes},\"mb_per_s\":{mb:.2},\"ratio\":{ratio:.6},",
                    "\"ratio_delta\":{delta:.6},\"speedup\":{speedup:.3}}}"
                ),
                lanes = lanes.get(),
                mb = mb,
                ratio = ratio,
                delta = ratio - arith_ratio,
                speedup = speedup,
            ));
        }
        isa_reports.push(format!(
            concat!(
                "{{\"isa\":\"{isa}\",\"corpus_bytes\":{corpus},\"iterations\":{iterations},",
                "\"arith\":{{\"mb_per_s\":{arith_mb:.2},\"ratio\":{arith_ratio:.6}}},",
                "\"rans\":[{lanes}]}}"
            ),
            isa = match isa {
                Isa::Mips => "mips",
                Isa::X86 => "x86",
            },
            corpus = text.len(),
            iterations = iterations,
            arith_mb = arith_mb,
            arith_ratio = arith_ratio,
            lanes = lane_reports.join(","),
        ));
    }
    let artifact = format!(
        concat!(
            "{{\"version\":1,\"benchmark\":\"decode\",\"profile\":\"{profile}\",",
            "\"scale\":{scale},\"seed\":{seed},\"block_size\":{block},",
            "\"isas\":[{isas}],",
            "\"matches_arith_ratio_band\":{band},\"speedup_4way\":{speedup:.3}}}"
        ),
        profile = PROFILE,
        scale = flags.scale,
        seed = flags.seed,
        block = DECODE_BLOCK,
        isas = isa_reports.join(","),
        band = band_ok,
        speedup = speedup_4way,
    );
    let path = flags.output.unwrap_or("BENCH_decode.json");
    std::fs::write(path, terminated(artifact.clone()))?;
    if flags.json {
        println!("{artifact}");
    } else {
        println!(
            "decode bench: 4-way rANS speedup {speedup_4way:.2}x, arith ratio band {}",
            if band_ok { "held (±2%)" } else { "VIOLATED" }
        );
        println!("  wrote {path}");
    }
    write_metrics(flags.metrics, "bench-decode")
}

/// Parses a comma-separated list of integers for a sweep grid axis.
fn parse_csv_usize(flag: &str, raw: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.parse().map_err(|_| format!("{flag}: `{part}` is not an integer"))?);
    }
    if out.is_empty() {
        return Err(format!("{flag}: no values"));
    }
    Ok(out)
}

/// Parses one `--decoders` axis value: `nibble` or `ransN` (N lanes).
fn parse_decoder(name: &str) -> Result<cce_core::memsim::sweep::SweepDecoder, String> {
    use cce_core::memsim::{sweep::SweepDecoder, DecoderLatency};
    if name == "nibble" {
        return Ok(SweepDecoder { name: name.into(), latency: DecoderLatency::nibble() });
    }
    if let Some(lanes) = name.strip_prefix("rans") {
        let lanes: usize =
            lanes.parse().map_err(|_| format!("bad decoder `{name}` (want ransN)"))?;
        let latency =
            DecoderLatency::try_rans(lanes).map_err(|e| format!("decoder `{name}`: {e}"))?;
        return Ok(SweepDecoder { name: name.into(), latency });
    }
    Err(format!("unknown decoder `{name}` (want nibble or ransN)"))
}

/// `cce sweep`: expand and simulate the memory-system design-space grid,
/// writing the versioned `BENCH_memsim.json` artifact (see README).
fn sweep(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(concat!(
            "usage: cce sweep [--algos A,B] [--blocks N,..] [--caches N,..] [--assoc N,..] ",
            "[--clb N,..] [--decoders nibble,ransN] [--fetches N] [--scale F] [--seed S] ",
            "[--workers N] [--bench] [-o OUT.json] [--json] [--metrics M.json]"
        )
        .into());
    }
    run_sweep_command(&flags, flags.bench)
}

/// The sweep driver behind `cce sweep` and `cce bench --memsim`.
///
/// Workload and trace are fixed-seed and generated once; each (codec,
/// block size) image is trained and compressed exactly once and shared
/// across its cells via `Arc`; cells fan out over the deterministic
/// `parallel_map` pool.  The artifact contains no wall-clock numbers
/// unless `with_kernel_leg` is set, so a plain `cce sweep` writes a
/// byte-identical `BENCH_memsim.json` for any `--workers` value — the
/// property CI pins.  With the kernel leg, the same fixed-seed trace is
/// timed through the fast and the retained reference kernels and the two
/// reports are required to be identical (`matches_reference`).
fn run_sweep_command(flags: &Flags, with_kernel_leg: bool) -> Result<(), Box<dyn Error>> {
    use cce_core::codec::compress_parallel;
    use cce_core::isa::mips::encode_text;
    use cce_core::memsim::sweep::{run_sweep, SweepConfig, SweepImage};
    use cce_core::memsim::{CacheConfig, CostModel, LineAddressTable, MemorySystem};
    use cce_core::workload::trace::{instruction_trace, TraceConfig};
    use cce_core::workload::{generate_mips_seeded, Spec95};
    use std::sync::Arc;
    use std::time::Instant;

    const PROFILE: &str = "go";
    cce_core::obs::reset();

    // Grid axes (defaults give 144 cells; CI widens --assoc to pass 200).
    let defaults = SweepConfig::default();
    let algo_names = flags.algos.unwrap_or("samc,huffman");
    let mut algorithms = Vec::new();
    for name in algo_names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let algorithm =
            Algorithm::by_name(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
        if !algorithm.random_access() {
            return Err(format!(
                "{algorithm} is file-oriented; a memory system needs random access"
            )
            .into());
        }
        algorithms.push(algorithm);
    }
    if algorithms.is_empty() {
        return Err("--algos: no values".into());
    }
    let blocks = match flags.blocks {
        Some(raw) => parse_csv_usize("--blocks", raw)?,
        None => vec![16, 32, 64],
    };
    let cache_sizes = match flags.caches {
        Some(raw) => parse_csv_usize("--caches", raw)?,
        None => defaults.cache_sizes.clone(),
    };
    let associativities = match flags.assoc {
        Some(raw) => parse_csv_usize("--assoc", raw)?,
        None => defaults.associativities.clone(),
    };
    let clb_entries = match flags.clb {
        Some(raw) => parse_csv_usize("--clb", raw)?,
        None => defaults.clb_entries.clone(),
    };
    let decoders = match flags.decoders {
        Some(raw) => raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(parse_decoder)
            .collect::<Result<Vec<_>, _>>()?,
        None => defaults.decoders.clone(),
    };
    if decoders.is_empty() {
        return Err("--decoders: no values".into());
    }
    let config = SweepConfig {
        cache_sizes,
        associativities,
        clb_entries,
        decoders,
        memory_latency: defaults.memory_latency,
        bus_bytes_per_cycle: defaults.bus_bytes_per_cycle,
    };
    let workers = flags.workers.unwrap_or_else(cce_core::codec::worker_count);

    // Workload text and fetch trace: generated once, shared by every
    // image and cell.
    let profile = Spec95::by_name(PROFILE).expect("profile is in the suite");
    let text = encode_text(&generate_mips_seeded(profile, flags.scale, flags.seed));
    let trace = instruction_trace(
        text.len(),
        &TraceConfig { fetches: flags.fetches, seed: flags.seed, ..TraceConfig::default() },
    );

    // Each (codec, block size) grid point is trained and compressed
    // exactly once; cells only ever see the Arc-shared LAT.
    let mut images = Vec::new();
    let mut image_json = Vec::new();
    for &algorithm in &algorithms {
        for &block_size in &blocks {
            let handle = algorithm
                .build(Isa::Mips, block_size)
                .train(&text)
                .map_err(|e| format!("{algorithm}/b{block_size}: {e}"))?;
            let codec = handle.as_block().expect("random-access checked above");
            let image = compress_parallel(codec, &text, workers)
                .map_err(|e| format!("{algorithm}/b{block_size}: {e}"))?;
            let lat = LineAddressTable::from_image(&image);
            image_json.push(format!(
                concat!(
                    "{{\"codec\":\"{codec}\",\"block_size\":{block},\"blocks\":{blocks},",
                    "\"compressed_bytes\":{compressed},\"text_bytes\":{text_bytes},",
                    "\"ratio\":{ratio:.6},\"lat_bytes\":{lat_bytes}}}"
                ),
                codec = algorithm,
                block = block_size,
                blocks = image.block_count(),
                compressed = image.compressed_len(),
                text_bytes = text.len(),
                ratio = image.compressed_len() as f64 / text.len() as f64,
                lat_bytes = lat.table_bytes(),
            ));
            images.push(SweepImage {
                codec: algorithm.to_string(),
                block_size,
                lat: Arc::new(lat),
                compressed_bytes: image.compressed_len() as u64,
                text_bytes: text.len() as u64,
            });
        }
    }

    let results = run_sweep(&images, &config, &trace, workers);
    if results.is_empty() {
        return Err("sweep grid expanded to zero valid cells".into());
    }

    let mut cell_json = Vec::with_capacity(results.len());
    for r in &results {
        let image = &images[r.cell.image];
        let clb_total = (r.report.clb_hits + r.report.clb_misses).max(1);
        cell_json.push(format!(
            concat!(
                "{{\"codec\":\"{codec}\",\"block_size\":{block},\"cache\":{cache},",
                "\"assoc\":{assoc},\"clb\":{clb},\"decoder\":\"{decoder}\",",
                "\"cpf\":{cpf:.6},\"baseline_cpf\":{baseline:.6},\"slowdown\":{slowdown:.6},",
                "\"cache_hit_ratio\":{cache_hits:.6},\"clb_hit_ratio\":{clb_hits:.6},",
                "\"refill_cycles\":{refill}}}"
            ),
            codec = image.codec,
            block = image.block_size,
            cache = r.cell.cache_size,
            assoc = r.cell.associativity,
            clb = r.cell.clb_entries,
            decoder = config.decoders[r.cell.decoder].name,
            cpf = r.report.cpf(),
            baseline = r.baseline.cpf(),
            slowdown = r.slowdown(),
            cache_hits = r.report.cache.hit_ratio(),
            clb_hits = r.report.clb_hits as f64 / clb_total as f64,
            refill = r.report.refill_cycles,
        ));
    }

    // Per-decoder mean CPF, and the arith-vs-rANS refill-latency delta
    // (nibble models the paper's serial engine; positive delta = the
    // rANS engine is faster end to end).
    let mut decoder_json = Vec::new();
    let mut mean_by_decoder = Vec::new();
    for (index, decoder) in config.decoders.iter().enumerate() {
        let cpfs: Vec<f64> =
            results.iter().filter(|r| r.cell.decoder == index).map(|r| r.report.cpf()).collect();
        let mean = cpfs.iter().sum::<f64>() / cpfs.len().max(1) as f64;
        mean_by_decoder.push(mean);
        decoder_json.push(format!(
            "{{\"decoder\":\"{name}\",\"cells\":{cells},\"mean_cpf\":{mean:.6}}}",
            name = decoder.name,
            cells = cpfs.len(),
        ));
    }
    let nibble_mean =
        config.decoders.iter().position(|d| d.name == "nibble").map(|i| mean_by_decoder[i]);
    let rans_mean =
        config.decoders.iter().position(|d| d.name.starts_with("rans")).map(|i| mean_by_decoder[i]);
    let arith_rans_delta = match (nibble_mean, rans_mean) {
        (Some(nibble), Some(rans)) => format!("{:.6}", nibble - rans),
        _ => "null".into(),
    };

    // Kernel leg (timing — only with --bench, so the plain artifact stays
    // byte-identical across worker counts): the fixed-seed trace through
    // the fast kernel vs the retained reference walk on one cell.
    let kernel = if with_kernel_leg {
        // Time the geometry with the widest sets and the smallest cache —
        // the most conflict pressure, where the set walk the flat kernel
        // replaces is at its largest.
        let cell = results
            .iter()
            .map(|r| r.cell)
            .max_by_key(|c| (c.associativity, std::cmp::Reverse(c.cache_size)))
            .expect("results checked non-empty above");
        let image = &images[cell.image];
        let cache = CacheConfig {
            size_bytes: cell.cache_size,
            block_size: image.block_size,
            associativity: cell.associativity,
        };
        let costs = CostModel {
            memory_latency: config.memory_latency,
            bus_bytes_per_cycle: config.bus_bytes_per_cycle,
            decoder: config.decoders[cell.decoder].latency,
        };
        let fresh =
            || MemorySystem::compressed(cache, costs, Arc::clone(&image.lat), cell.clb_entries);
        // Correctness gate before any timing.
        let fast_report = fresh().run(&trace);
        let reference_report = fresh().run_reference(&trace);
        let matches_reference = fast_report == reference_report;

        let reps = (4_000_000 / flags.fetches.max(1)).clamp(2, 64);
        // Interleave the two legs rep for rep so clock-frequency drift
        // lands on both sides of the ratio equally.
        let mut fast_s = 0f64;
        let mut reference_s = 0f64;
        for _ in 0..reps {
            let start = Instant::now();
            let mut system = fresh();
            std::hint::black_box(system.run(&trace));
            fast_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut system = fresh();
            std::hint::black_box(system.run_reference(&trace));
            reference_s += start.elapsed().as_secs_f64();
        }
        let fast_ms = fast_s.max(1e-9) * 1e3;
        let reference_ms = reference_s.max(1e-9) * 1e3;
        let fetches_per_s = |ms: f64| (reps as u64 * trace.len() as u64) as f64 / (ms / 1e3);
        let speedup = reference_ms / fast_ms;
        if !flags.json {
            println!(
                "kernel: fast {:.1} vs reference {:.1} Mfetch/s ({speedup:.2}x), matches_reference {matches_reference}",
                fetches_per_s(fast_ms) / 1e6,
                fetches_per_s(reference_ms) / 1e6,
            );
        }
        format!(
            concat!(
                "{{\"cell\":{{\"codec\":\"{codec}\",\"block_size\":{block},\"cache\":{cache},",
                "\"assoc\":{assoc},\"clb\":{clb},\"decoder\":\"{decoder}\"}},",
                "\"fetches\":{fetches},\"reps\":{reps},",
                "\"reference_ms\":{reference_ms:.3},\"fast_ms\":{fast_ms:.3},",
                "\"reference_fetches_per_s\":{ref_fps:.0},\"fast_fetches_per_s\":{fast_fps:.0},",
                "\"speedup\":{speedup:.3},\"matches_reference\":{matches_reference}}}"
            ),
            codec = image.codec,
            block = image.block_size,
            cache = cell.cache_size,
            assoc = cell.associativity,
            clb = cell.clb_entries,
            decoder = config.decoders[cell.decoder].name,
            fetches = trace.len(),
            reps = reps,
            reference_ms = reference_ms,
            fast_ms = fast_ms,
            ref_fps = fetches_per_s(reference_ms),
            fast_fps = fetches_per_s(fast_ms),
            speedup = speedup,
            matches_reference = matches_reference,
        )
    } else {
        "null".into()
    };

    let artifact = format!(
        concat!(
            "{{\"version\":1,\"benchmark\":\"memsim-sweep\",\"profile\":\"{profile}\",",
            "\"scale\":{scale},\"seed\":{seed},\"fetches\":{fetches},",
            "\"grid\":{{\"algos\":[{algos}],\"blocks\":{blocks:?},\"caches\":{caches:?},",
            "\"assoc\":{assoc:?},\"clb\":{clb:?},\"decoders\":[{decoders}],",
            "\"memory_latency\":{latency},\"bus_bytes_per_cycle\":{bus}}},",
            "\"images\":[{images}],\"cells\":[{cells}],",
            "\"summary\":{{\"cells\":{cell_count},\"images\":{image_count},",
            "\"decoder_mean_cpf\":[{decoder_means}],\"arith_rans_delta\":{delta}}},",
            "\"kernel\":{kernel}}}"
        ),
        profile = PROFILE,
        scale = flags.scale,
        seed = flags.seed,
        fetches = trace.len(),
        algos = algorithms.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(","),
        blocks = blocks,
        caches = config.cache_sizes,
        assoc = config.associativities,
        clb = config.clb_entries,
        decoders =
            config.decoders.iter().map(|d| format!("\"{}\"", d.name)).collect::<Vec<_>>().join(","),
        latency = config.memory_latency,
        bus = config.bus_bytes_per_cycle,
        images = image_json.join(","),
        cells = cell_json.join(","),
        cell_count = results.len(),
        image_count = images.len(),
        decoder_means = decoder_json.join(","),
        delta = arith_rans_delta,
        kernel = kernel,
    );
    let path = flags.output.unwrap_or("BENCH_memsim.json");
    std::fs::write(path, terminated(artifact.clone()))?;
    if flags.json {
        println!("{artifact}");
    } else {
        println!(
            "sweep: {} cells over {} images ({} fetches each), arith-vs-rANS mean CPF delta {}",
            results.len(),
            images.len(),
            trace.len(),
            arith_rans_delta,
        );
        println!("  wrote {path}");
    }
    write_metrics(flags.metrics, "sweep")
}

/// `cce bench` pipeline leg: streams a fixed multi-megabyte synthetic
/// ELF through the bounded block pipeline into a discarded sink and
/// writes `BENCH_pipeline.json`.  The workload is independent of
/// `--scale` so artifacts are comparable across runs, and the codec is
/// ByteHuffman — training is a byte histogram, so the leg times the
/// pipeline itself rather than model search.
fn bench_pipeline(seed: u64, json: bool) -> Result<(), Box<dyn Error>> {
    use cce_core::elf::{Class, Endianness};
    use cce_core::isa::mips::encode_text;
    use cce_core::workload::{generate_mips_seeded, Spec95};
    use std::io::Cursor;
    use std::time::Instant;

    // ~4.3 MB of MIPS text: big enough that bounded memory matters,
    // small enough that the smoke run stays interactive.
    const PROFILE: &str = "go";
    const WORKLOAD_SCALE: f64 = 64.0;
    const BLOCK_SIZE: usize = 32;
    let profile = Spec95::by_name(PROFILE).expect("profile is in the suite");
    let text = encode_text(&generate_mips_seeded(profile, WORKLOAD_SCALE, seed));
    let elf_bytes =
        ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, text).to_bytes();
    let mut elf = ElfStream::open(Cursor::new(&elf_bytes)).map_err(streaming::stream_error)?;

    let algorithm = Algorithm::ByteHuffman;
    let training = streaming::buffered_text(&mut elf)?;
    let handle = algorithm.build(Isa::Mips, BLOCK_SIZE).train(&training)?;
    drop(training);
    let codec = handle.as_block().expect("huffman is random-access");
    let workers = worker_count();

    let start = Instant::now();
    let report = streaming::compress_elf(&mut elf, algorithm, codec, std::io::sink(), workers)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = report.stats;
    let mb_per_s = (stats.bytes_in as f64 / (1024.0 * 1024.0)) / (ms / 1e3).max(1e-9);
    let queue_limit = 2 * workers;

    let artifact = format!(
        concat!(
            "{{\"version\":1,\"benchmark\":\"pipeline\",",
            "\"workload\":{{\"profile\":\"{profile}\",\"scale\":{scale},\"seed\":{seed},\"text_bytes\":{text_bytes}}},",
            "\"algorithm\":\"{algorithm}\",\"block_size\":{block_size},\"workers\":{workers},",
            "\"blocks\":{blocks},\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out},",
            "\"peak_queue\":{peak_queue},\"queue_limit\":{queue_limit},\"stalls\":{stalls},",
            "\"ms\":{ms:.3},\"mb_per_s\":{mb_per_s:.2},\"ratio\":{ratio:.6}}}"
        ),
        profile = PROFILE,
        scale = WORKLOAD_SCALE,
        seed = seed,
        text_bytes = stats.bytes_in,
        algorithm = algorithm,
        block_size = BLOCK_SIZE,
        workers = workers,
        blocks = stats.blocks,
        bytes_in = stats.bytes_in,
        bytes_out = stats.bytes_out,
        peak_queue = stats.peak_queue,
        queue_limit = queue_limit,
        stalls = stats.stalls,
        ms = ms,
        mb_per_s = mb_per_s,
        ratio = report.summary.ratio(),
    );
    std::fs::write("BENCH_pipeline.json", terminated(artifact))?;
    if !json {
        println!(
            "pipeline ({PROFILE} at scale {WORKLOAD_SCALE}): {} bytes in {} blocks, \
             {mb_per_s:.1} MB/s over {workers} workers (peak queue {}/{queue_limit}, {} stalls)",
            stats.bytes_in, stats.blocks, stats.peak_queue, stats.stalls
        );
        println!("  wrote BENCH_pipeline.json");
    }
    Ok(())
}

/// `cce bench --optimizer`: times the pre-kernel reference search against
/// the incremental one on a fixed workload, runs a multi-program
/// cold-vs-warm model-cache batch, and writes the `BENCH_optimizer.json`
/// artifact (see README).  Division hashes come from
/// [`StreamDivision::division_hash`][h], the same FNV-1a the model store
/// keys on, so CI can pin the optimizer's output against one recorded
/// value.
///
/// [h]: cce_core::samc::StreamDivision::division_hash
fn bench_optimizer(flags: &Flags) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::encode_text;
    use cce_core::samc::{
        optimize_division_reference, optimize_division_with_workers, OptimizeConfig,
    };
    use cce_core::workload::{generate_mips_seeded, Spec95};
    use std::time::Instant;

    cce_core::obs::reset();
    // Fixed workload, independent of --scale: the "go" profile at scale
    // 0.5 is ~8.5k instruction words, comfortably above the default
    // 4096-unit evaluation sample.
    const PROFILE: &str = "go";
    const WORKLOAD_SCALE: f64 = 0.5;
    let profile = Spec95::by_name(PROFILE).expect("profile is in the suite");
    let text = encode_text(&generate_mips_seeded(profile, WORKLOAD_SCALE, flags.seed));
    let units: Vec<u32> = text
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let config = OptimizeConfig::default();

    let start = Instant::now();
    let (reference_division, reference_cost) = optimize_division_reference(&units, 32, &config);
    let reference_ms = start.elapsed().as_secs_f64() * 1e3;

    // Best of a few runs for the fast path: it is short enough that a
    // single sample would be noise-dominated.
    const FAST_RUNS: usize = 5;
    let mut fast_ms = f64::INFINITY;
    let mut fast = None;
    for _ in 0..FAST_RUNS {
        let start = Instant::now();
        let result = optimize_division_with_workers(&units, 32, &config, 1);
        fast_ms = fast_ms.min(start.elapsed().as_secs_f64() * 1e3);
        fast = Some(result);
    }
    let (division, cost) = fast.expect("at least one run");
    let matches_reference = division == reference_division;
    let speedup = reference_ms / fast_ms.max(1e-9);

    let workers = worker_count();
    let multi = OptimizeConfig { restarts: 8, ..config.clone() };
    let start = Instant::now();
    let (_, multi_cost) = optimize_division_with_workers(&units, 32, &multi, workers);
    let multi_ms = start.elapsed().as_secs_f64() * 1e3;

    // Model-cache leg: train a small program batch twice through a fresh
    // store.  The first pass trains (cold, then warm-started from the
    // first program's cached division); the second pass must be all
    // exact-key hits, so its time is the amortized per-request cost.
    // "go" leads so its cold division hash matches the pinned top-level
    // one (same workload, same default search).
    const CACHE_PROGRAMS: [&str; 3] = ["go", "compress", "ijpeg"];
    let cache_dir =
        std::env::temp_dir().join(format!("cce-bench-model-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let texts: Vec<Vec<u8>> = CACHE_PROGRAMS
        .iter()
        .map(|name| {
            let profile = Spec95::by_name(name).expect("profile is in the suite");
            encode_text(&generate_mips_seeded(profile, WORKLOAD_SCALE, flags.seed))
        })
        .collect();
    let mut trainer = cce_core::samc::store::CachedTrainer::new(
        cce_core::samc::store::ModelStore::open(&cache_dir)?,
        CACHE_PROGRAMS.len().max(1),
    );
    let samc_config = cce_core::samc::SamcConfig::mips();
    let mut cold_sources = Vec::new();
    let mut cold_images = Vec::new();
    let start = Instant::now();
    for text in &texts {
        let outcome = trainer.train(text, &samc_config, &config)?;
        cold_sources.push(outcome.source.to_string());
        cold_images.push(compress_parallel(&outcome.codec, text, workers)?);
    }
    let cache_cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let cold_division_hash =
        trainer.train(&texts[0], &samc_config, &config)?.codec.config().division.division_hash();
    let mut warm_hits = 0usize;
    let mut warm_matches_cold = true;
    let start = Instant::now();
    for (text, cold_image) in texts.iter().zip(&cold_images) {
        let outcome = trainer.train(text, &samc_config, &config)?;
        warm_hits += usize::from(outcome.source.is_hit());
        warm_matches_cold &= compress_parallel(&outcome.codec, text, workers)? == *cold_image;
    }
    let cache_warm_ms = start.elapsed().as_secs_f64() * 1e3;
    let warm_speedup = cache_cold_ms / cache_warm_ms.max(1e-9);
    std::fs::remove_dir_all(&cache_dir).ok();

    let json = format!(
        concat!(
            "{{\"version\":1,\"benchmark\":\"optimizer\",",
            "\"workload\":{{\"profile\":\"{profile}\",\"scale\":{scale},\"seed\":{seed},\"units\":{units}}},",
            "\"config\":{{\"streams\":{streams},\"iterations\":{iterations},\"sample_units\":{sample},\"seed\":{opt_seed}}},",
            "\"reference_ms\":{reference_ms:.3},\"fast_ms\":{fast_ms:.3},\"speedup\":{speedup:.2},",
            "\"matches_reference\":{matches},",
            "\"cost_bits\":{cost:.3},\"reference_cost_bits\":{reference_cost:.3},",
            "\"division_hash\":\"{hash:016x}\",",
            "\"multi_restart\":{{\"restarts\":{restarts},\"workers\":{workers},\"ms\":{multi_ms:.3},\"cost_bits\":{multi_cost:.3}}},",
            "\"model_cache\":{{\"programs\":[{cache_programs}],\"cold_ms\":{cache_cold_ms:.3},",
            "\"warm_ms\":{cache_warm_ms:.3},\"warm_speedup\":{warm_speedup:.2},",
            "\"cold_sources\":[{cold_sources}],\"warm_hits\":{warm_hits},",
            "\"warm_matches_cold\":{warm_matches_cold},",
            "\"cold_division_hash\":\"{cold_division_hash:016x}\"}}}}"
        ),
        profile = PROFILE,
        scale = WORKLOAD_SCALE,
        seed = flags.seed,
        units = units.len(),
        streams = config.streams,
        iterations = config.iterations,
        sample = config.sample_units,
        opt_seed = config.seed,
        reference_ms = reference_ms,
        fast_ms = fast_ms,
        speedup = speedup,
        matches = matches_reference,
        cost = cost,
        reference_cost = reference_cost,
        hash = division.division_hash(),
        restarts = multi.restarts,
        workers = workers,
        multi_ms = multi_ms,
        multi_cost = multi_cost,
        cache_programs = CACHE_PROGRAMS
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(","),
        cache_cold_ms = cache_cold_ms,
        cache_warm_ms = cache_warm_ms,
        warm_speedup = warm_speedup,
        cold_sources = cold_sources
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(","),
        warm_hits = warm_hits,
        warm_matches_cold = warm_matches_cold,
        cold_division_hash = cold_division_hash,
    );
    let path = flags.output.unwrap_or("BENCH_optimizer.json");
    std::fs::write(path, terminated(json.clone()))?;

    if flags.json {
        println!("{json}");
    } else {
        println!(
            "optimizer bench: {PROFILE} at scale {WORKLOAD_SCALE} (seed {}), {} units",
            flags.seed,
            units.len()
        );
        println!("  reference search: {reference_ms:>9.2} ms  (cost {reference_cost:.0} bits)");
        println!(
            "  incremental:      {fast_ms:>9.2} ms  (cost {cost:.0} bits, {speedup:.1}x, \
             division {}, hash {:016x})",
            if matches_reference { "matches" } else { "DIVERGED" },
            division.division_hash(),
        );
        println!(
            "  8 restarts:       {multi_ms:>9.2} ms  (cost {multi_cost:.0} bits, {workers} workers)"
        );
        println!(
            "  model cache:      {cache_cold_ms:>9.2} ms cold vs {cache_warm_ms:.2} ms warm \
             over {} programs ({warm_speedup:.1}x, {warm_hits} hits, images {})",
            CACHE_PROGRAMS.len(),
            if warm_matches_cold { "match" } else { "DIVERGED" },
        );
        println!("  wrote {path}");
    }
    write_metrics(flags.metrics, "bench-optimizer")
}

fn stats(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::obs::{MetricsSink, TableSink};

    let flags = split_flags(args)?;
    match flags.positional.as_slice() {
        // Without an input, list the registry: every metric the workspace
        // can record, whether or not anything has run.
        [] => {
            for desc in cce_core::obs::descriptors() {
                println!("{:<26} {:<9} {}", desc.name, desc.kind().name(), desc.help);
            }
            Ok(())
        }
        [path] => {
            let (elf, isa) = load_elf(path)?;
            let text = elf.text().ok_or("no .text section")?;
            cce_core::obs::reset();
            for algorithm in Algorithm::ALL {
                if let Err(e) = measure(algorithm, isa, text, flags.block_size) {
                    eprintln!("cce: {algorithm} failed: {e}");
                }
            }
            if !cce_core::obs::enabled() {
                eprintln!("cce: built without the `obs` feature; all metrics read zero");
            }
            print!("{}", TableSink { skip_zero: true }.render(&cce_core::obs::snapshot()));
            write_metrics(flags.metrics, "stats")
        }
        _ => Err("usage: cce stats [--metrics M.json] [input.elf]".into()),
    }
}

fn compress(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    let path = match (flags.positional.as_slice(), flags.elf) {
        ([path], None) => *path,
        ([], Some(path)) => path,
        _ => {
            return Err("usage: cce compress [-a samc|sadc|huffman] [-b N] [--model-cache DIR] \
                 [--metrics M.json] <in.elf> -o <out.cce>"
                .into())
        }
    };
    let output = flags.output.ok_or("missing -o <out.cce>")?;
    let file = std::fs::File::open(path)?;
    let mut elf =
        ElfStream::open(std::io::BufReader::new(file)).map_err(streaming::stream_error)?;
    let isa = streaming::isa_of(&elf)?;

    let name = flags.algorithm.unwrap_or("samc");
    let algorithm = Algorithm::by_name(name)
        .ok_or_else(|| format!("unknown algorithm `{name}` (samc|sadc|huffman)"))?;
    if !algorithm.random_access() {
        return Err(format!(
            "`{algorithm}` is file-oriented; only random-access codecs fit the container"
        )
        .into());
    }

    // Training pass: model builders need full-text statistics, so the
    // section is buffered exactly once and dropped before the streaming
    // compression pass re-reads it block by block.
    let text = streaming::buffered_text(&mut elf)?;
    let codec: Box<dyn BlockCodec> = match flags.model_cache {
        Some(dir) => {
            if algorithm != Algorithm::Samc {
                return Err(format!("--model-cache caches SAMC models, not `{algorithm}`").into());
            }
            let mut trainer = open_model_cache(dir)?;
            let (config, optimize) = cache_request(isa, flags.block_size);
            let outcome = trainer.train(&text, &config, &optimize)?;
            println!(
                "model cache: {} (key {}, division {:016x})",
                outcome.source,
                outcome.key,
                outcome.codec.config().division.division_hash()
            );
            Box::new(outcome.codec)
        }
        None => {
            let handle = algorithm.build(isa, flags.block_size).train(&text)?;
            match handle {
                cce_core::CodecHandle::Block(codec) => codec,
                cce_core::CodecHandle::File(_) => {
                    unreachable!("random-access algorithms build block codecs")
                }
            }
        }
    };
    drop(text);
    let codec = codec.as_ref();

    if flags.elf.is_some() {
        print_section_stats(path, &streaming::section_stats(&elf));
    }

    // Stream into a sibling temp file and rename on success, so a failed
    // run never leaves a truncated artifact at the destination.
    let tmp = format!("{output}.tmp");
    let workers = worker_count();
    let result = std::fs::File::create(&tmp).map_err(Box::<dyn Error>::from).and_then(|out| {
        let out = std::io::BufWriter::new(out);
        Ok(streaming::compress_elf(&mut elf, algorithm, codec, out, workers)?)
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
    };
    std::fs::rename(&tmp, output)?;

    let summary = report.summary;
    println!(
        "{path}: {} -> {} bytes (text ratio {:.3}, artifact {} bytes)",
        summary.original_len,
        summary.compressed_len(),
        summary.ratio(),
        summary.total_len
    );
    println!(
        "  pipeline: {} blocks, peak queue {} (limit {}), {} stalls, {} workers",
        report.stats.blocks,
        report.stats.peak_queue,
        2 * workers,
        report.stats.stalls,
        workers
    );
    write_metrics(flags.metrics, "compress")
}

fn decompress(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Flags { positional, output, .. } = split_flags(args)?;
    let [path] = positional.as_slice() else {
        return Err("usage: cce decompress <in.cce> -o <out.elf>".into());
    };
    let output = output.ok_or("missing -o <out.elf>")?;

    let file = std::fs::File::open(path)?;
    let mut reader = ContainerV2Reader::open(std::io::BufReader::new(file))?;
    let identity = reader.identity();
    let handle = identity
        .algorithm
        .build(identity.isa, reader.block_size())
        .codec_from_bytes(reader.codec_bytes())?;
    let codec = handle.as_block().expect("container tags are random-access");
    let text = reader.decode_text(codec)?;

    let machine = match identity.isa {
        Isa::Mips => Machine::Mips,
        Isa::X86 => Machine::I386,
    };
    let mut elf = ElfImage::new_executable(machine, identity.class, identity.endianness, text);
    elf.entry = identity.entry;
    std::fs::write(output, elf.to_bytes())?;
    println!(
        "{path}: decompressed {} bytes of text into {output}",
        elf.text().expect("text").len()
    );
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::stats;
    let flags = split_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("usage: cce analyze <input.elf>".into());
    };
    let (elf, isa) = load_elf(path)?;
    let text = elf.text().ok_or("no .text section")?;
    println!("{path}: {} bytes of {isa} text", text.len());
    println!("  byte entropy:        {:.3} bits/byte", stats::byte_entropy(text));
    let positions = stats::position_entropy(text, 4);
    println!(
        "  per-byte-position:   [{:.2}, {:.2}, {:.2}, {:.2}] bits (stride 4)",
        positions[0], positions[1], positions[2], positions[3]
    );
    println!(
        "  word repeat ratio:   {:.1}% of 4-byte records repeat",
        100.0 * stats::repeat_ratio(text, 4)
    );
    if isa == Isa::Mips {
        let fields = stats::mips_field_stats(text)?;
        println!("  instructions:        {}", fields.instructions);
        println!("  distinct operations: {}", fields.distinct_operations);
        println!("  opcode entropy:      {:.3} bits/insn", fields.opcode_entropy);
        println!("  register entropy:    {:.3} bits/field", fields.register_entropy);
        println!("  imm16 entropy:       {:.3} bits/imm", fields.imm16_entropy);
        println!(
            "  field-coder bound:   {:.2} bits/insn  (ratio floor {:.3})",
            fields.field_bits_per_instruction,
            fields.field_bits_per_instruction / 32.0
        );
    }
    Ok(())
}

fn disasm(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::decode_text;
    let Flags { positional, block_size: count, .. } = split_flags(args)?;
    let [path] = positional.as_slice() else {
        return Err("usage: cce disasm <input.elf> [-n COUNT]".into());
    };
    let (elf, isa) = load_elf(path)?;
    if isa != Isa::Mips {
        return Err("disassembly is only supported for MIPS executables".into());
    }
    let text = elf.text().ok_or("no .text section")?;
    let instructions = decode_text(text)?;
    let base = elf.section(".text").map_or(0, |s| s.addr);
    for (i, insn) in instructions.iter().take(count).enumerate() {
        println!("{:#010x}:  {:08x}  {insn}", base + 4 * i as u64, insn.encode());
    }
    if instructions.len() > count {
        println!("... {} more instructions", instructions.len() - count);
    }
    Ok(())
}

fn info(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("usage: cce info <in.cce>".into());
    };
    let file = std::fs::File::open(path)?;
    let reader = ContainerV2Reader::open(std::io::BufReader::new(file))?;
    let identity = reader.identity();
    let summary = reader.summary();
    println!("{path}:");
    println!("  container:  v2 (streamed, indexed)");
    println!("  codec:      {}", identity.algorithm);
    println!(
        "  isa:        {} ({:?}, {:?}, entry {:#x})",
        identity.isa, identity.class, identity.endianness, identity.entry
    );
    println!("  codec size: {} bytes", reader.codec_bytes().len());
    println!(
        "  text:       {} bytes in {} blocks of {}",
        summary.original_len,
        summary.blocks,
        reader.block_size()
    );
    println!(
        "  compressed: {} bytes (ratio {:.3}, model {} bytes, LAT {} bytes)",
        summary.compressed_len(),
        summary.ratio(),
        summary.model_bytes,
        summary.lat_bytes()
    );
    Ok(())
}

/// `cce gen`: synthesizes one SPEC95-like workload as a minimal ELF, so
/// shell pipelines (and the CI cache smoke) can feed `cce compress` the
/// exact same deterministic program the benchmarks measure.
fn gen(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::elf::{Class, Endianness};
    use cce_core::isa::mips::encode_text;
    use cce_core::workload::{generate_mips_seeded, generate_x86_seeded, Spec95};

    let Flags { positional, output, scale, seed, isa, multi_section, .. } = split_flags(args)?;
    let [name] = positional.as_slice() else {
        return Err(
            "usage: cce gen <profile> [--scale F] [--seed S] [--isa mips|x86] [--multi-section] \
             -o <out.elf>"
                .into(),
        );
    };
    let output = output.ok_or("missing -o <out.elf>")?;
    let profile =
        Spec95::by_name(name).ok_or_else(|| format!("unknown benchmark profile `{name}`"))?;
    let isa = match isa.unwrap_or("mips") {
        "mips" => Isa::Mips,
        "x86" => Isa::X86,
        other => return Err(format!("unknown ISA `{other}` (mips|x86)").into()),
    };
    let (machine, endianness, text) = match isa {
        Isa::Mips => (
            Machine::Mips,
            Endianness::Big,
            encode_text(&generate_mips_seeded(profile, scale, seed)),
        ),
        Isa::X86 => (Machine::I386, Endianness::Little, generate_x86_seeded(profile, scale, seed)),
    };
    let mut elf = ElfImage::new_executable(machine, Class::Elf32, endianness, text);
    if multi_section {
        push_workload_sections(&mut elf, seed);
    }
    std::fs::write(output, elf.to_bytes())?;
    println!(
        "{output}: {} bytes of {isa} `{name}` text at scale {scale} (seed {seed})",
        elf.text().expect("text").len()
    );
    if multi_section {
        println!("{output}: {} sections (multi-section workload)", elf.sections.len());
    }
    Ok(())
}

/// `--multi-section`: surrounds the text with deterministic `.rodata`
/// and `.bss` sections, so streaming-path fixtures exercise section
/// selection rather than a single-section fast path.  The `.rodata`
/// bytes come from a seeded xorshift, making the whole file a pure
/// function of (profile, scale, seed).
fn push_workload_sections(elf: &mut ElfImage, seed: u64) {
    use cce_core::elf::{Section, SectionKind};
    let text_len = elf.text().expect("text").len() as u64;
    let base = elf.entry;
    let rodata_len = (text_len / 4).max(64);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let rodata: Vec<u8> = (0..rodata_len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    elf.sections.push(Section {
        name: ".rodata".to_owned(),
        kind: SectionKind::ProgBits,
        flags: 0x2, // SHF_ALLOC
        addr: base + text_len,
        data: rodata,
        nobits_size: 0,
    });
    elf.sections.push(Section {
        name: ".bss".to_owned(),
        kind: SectionKind::NoBits,
        flags: 0x2 | 0x1, // SHF_ALLOC | SHF_WRITE
        addr: base + text_len + rodata_len,
        data: Vec::new(),
        nobits_size: 4096,
    });
}

fn fuzz(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Flags { positional, algorithm, cases, seed, .. } = split_flags(args)?;
    if !positional.is_empty() {
        return Err("usage: cce fuzz --algo <name|all> --cases N --seed S".into());
    }
    let config = FuzzConfig { cases, seed };
    let reports = match algorithm.unwrap_or("all") {
        "all" => cce_core::fuzz::run_all(&config),
        "serve" => cce_core::fuzz::run_serve(&config),
        name => {
            let algorithm = Algorithm::by_name(name)
                .ok_or_else(|| format!("unknown algorithm `{name}` (or `all`)"))?;
            cce_core::fuzz::run(algorithm, &config)
        }
    };
    let mut dirty = 0usize;
    for report in &reports {
        println!("{}", report.summary());
        for failure in &report.failures {
            println!("    {failure}");
        }
        if !report.is_clean() {
            dirty += 1;
        }
    }
    if dirty > 0 {
        return Err(format!("{dirty} of {} targets reported failures", reports.len()).into());
    }
    println!("all {} targets clean ({cases} cases each, seed {seed})", reports.len());
    Ok(())
}

fn publish(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("usage: cce publish <in.cce> -o <dir> [--chunk-size N]".into());
    };
    let output = flags.output.ok_or("missing -o <dir>")?;
    let file = std::fs::File::open(path)?;
    let mut reader = ContainerV2Reader::open(std::io::BufReader::new(file))?;
    let summary =
        cce_core::artifact::publish_container(&mut reader, Path::new(output), flags.chunk_size)?;
    println!(
        "{path}: published {} blocks ({} bytes) into {} chunk files under {output}",
        summary.manifest.blocks, summary.manifest.data_len, summary.chunk_files,
    );
    write_metrics(flags.metrics, "publish")
}

fn verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = split_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err("usage: cce verify <dir>".into());
    };
    let summary = cce_core::serve::verify_dir(Path::new(dir))?;
    println!(
        "{dir}: OK — {} blocks in {} chunks, {} compressed bytes ({} original)",
        summary.blocks, summary.chunks, summary.data_len, summary.original_len,
    );
    write_metrics(flags.metrics, "verify")
}

fn serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::serve::{ServeConfig, Server};
    let flags = split_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err("usage: cce serve <dir> --socket PATH | --tcp ADDR".into());
    };
    let (artifact, codec) = cce_core::artifact::open_with_codec(Path::new(dir))?;
    let blocks = artifact.block_count();
    let config = ServeConfig {
        request_timeout: std::time::Duration::from_millis(flags.timeout_ms),
        cache_blocks: flags.cache,
        ..ServeConfig::default()
    };
    let server = Server::new(artifact, codec, config);
    match (flags.socket, flags.tcp) {
        (Some(path), None) => {
            println!("serving {blocks} blocks from {dir} on unix socket {path}");
            server.serve_unix(Path::new(path))?;
        }
        (None, Some(addr)) => {
            server.serve_tcp(addr, |local| {
                println!("serving {blocks} blocks from {dir} on tcp {local}");
            })?;
        }
        _ => return Err("pass exactly one of --socket PATH or --tcp ADDR".into()),
    }
    println!("shutdown: {}", server.stats_json());
    write_metrics(flags.metrics, "serve")
}

fn fetch(args: &[String]) -> Result<(), Box<dyn Error>> {
    use cce_core::serve::Client;
    let flags = split_flags(args)?;
    if !flags.positional.is_empty() {
        return Err("usage: cce fetch --socket PATH | --tcp ADDR -o <out.elf>".into());
    }
    let output = flags.output.ok_or("missing -o <out.elf>")?;
    match (flags.socket, flags.tcp) {
        (Some(path), None) => fetch_with(Client::connect_unix(Path::new(path))?, output),
        (None, Some(addr)) => fetch_with(Client::connect_tcp(addr)?, output),
        _ => Err("pass exactly one of --socket PATH or --tcp ADDR".into()),
    }
}

/// The reference-client body of `cce fetch`: pulls the manifest, decodes
/// every block over the wire, and writes the same minimal ELF
/// `decompress` produces (so the two outputs byte-compare in CI).
fn fetch_with<S: std::io::Read + std::io::Write>(
    mut client: cce_core::serve::Client<S>,
    output: &str,
) -> Result<(), Box<dyn Error>> {
    let manifest = cce_core::serve::Manifest::parse(&client.get_manifest()?)?;
    let (isa, class, endianness, entry) = cce_core::artifact::manifest_identity(&manifest)?;
    let mut text = Vec::with_capacity(manifest.original_len as usize);
    for block in 0..manifest.blocks {
        text.extend_from_slice(&client.decode_block(block)?);
    }
    if text.len() as u64 != manifest.original_len {
        return Err(format!(
            "fetched {} decoded bytes but the manifest promises {}",
            text.len(),
            manifest.original_len
        )
        .into());
    }
    client.shutdown()?;
    let machine = match isa {
        Isa::Mips => Machine::Mips,
        Isa::X86 => Machine::I386,
    };
    let mut elf = ElfImage::new_executable(machine, class, endianness, text);
    elf.entry = entry;
    std::fs::write(output, elf.to_bytes())?;
    println!(
        "fetched {} blocks ({} bytes of text) into {output}",
        manifest.blocks,
        elf.text().expect("text").len()
    );
    Ok(())
}
