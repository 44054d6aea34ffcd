//! `cce` — command-line front end for the code-compression toolkit.
//!
//! Every subcommand, its synopsis and its flags live in one table,
//! [`COMMANDS`]; `cce help` and every usage error are rendered from it,
//! and the one parser ([`Args::parse`]) rejects any flag the command's
//! entry does not list.  Every command also takes `--metrics FILE`, which
//! writes the observability artifact after the command succeeds.  Run
//! `cce help` for the full synopsis.
//!
//! Every command that reads an ELF (`ratio`, `compress`, `stats`,
//! `analyze`, `disasm`) takes it positionally and opens it one way
//! ([`open_elf`]): the streaming walker reads the headers and the `.text`
//! section only ([`cce_core::streaming`]).  `compress` trains on that text,
//! compresses it block by block across the worker pool, verifying every
//! block in its worker, and writes an indexed **v2** container.
//! `decompress` and `info` read v2 containers only.  `analyze` also prints
//! the input's section table.  Every file a command opens, creates,
//! writes or renames goes through [`at`], so a failure names the path.
//!
//! `--model-cache DIR` points SAMC at a persistent model store
//! ([`cce_core::samc::store`]): repeat requests reuse the trained model
//! outright, and fresh programs warm-start the stream-division search
//! from a cached division instead of the cold correlation pass.
//!
//! Every container carries SHA-256 digests of its head, of each run of
//! blocks and of its index, and every command that reads one checks them
//! through the one reader ([`ContainerV2Reader`]): `info` the head and
//! index, `decompress` every run it decodes, and `verify` every run.
//! `serve` answers block fetch and decode requests from a container over
//! a Unix or TCP socket until a client sends `shutdown`, checking each
//! run as it loads it ([`cce_core::artifact`]), and `fetch` is the
//! reference client: it pulls the info record, decodes every block over
//! the wire, and rebuilds the same minimal ELF `decompress` writes.
//!
//! The `.cce` container holds the trained codec (Markov tables or
//! dictionary+code tables), the block image, and enough ELF identity to
//! rebuild a loadable executable around the decompressed text section.
//! The codec-kind byte is [`Algorithm::tag`], the same registry the
//! measurement harness uses, so any random-access algorithm the registry
//! knows is a valid container payload.

use cce_core::codec::{worker_count, BlockCodec};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::{ElfImage, ElfStream, Machine};
use cce_core::fuzz::FuzzConfig;
use cce_core::isa::Isa;
use cce_core::{measure, report, streaming, Algorithm, CodecHandle};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// `print!` to stdout, returning the write error instead of panicking
/// on it.  Every table and JSON document the commands print goes through
/// this macro or `outln!`, so a reader that closes the pipe early
/// (`cce ratio prog.elf | head -1`) ends the command cleanly in `main`.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*)
    };
}

/// `println!` counterpart of `out!`.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has stopped listening: nothing is left to report.
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            match e.downcast_ref::<UsageError>() {
                Some(usage) => eprintln!("cce {usage}"),
                None => eprintln!("cce: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

/// Whether `e` is a write to a pipe whose reader has gone.
fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>().is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") | None => {
            out!("{}", help())?;
            return Ok(());
        }
        Some(name) => name,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}` (try `cce help`)"))?;
    let args = Args::parse(command, &args[1..])?;
    (command.run)(&args)?;
    if let Some(path) = args.value("--metrics") {
        write_metrics(path, command.name)?;
    }
    Ok(())
}

/// One flag a subcommand accepts.
#[derive(Debug)]
struct Flag {
    /// Long spelling, `--name`; the key [`Args`] stores values under.
    long: &'static str,
    /// Optional one-letter alias, `-x`.
    short: Option<&'static str>,
    /// Value placeholder; `None` for a switch.
    value: Option<&'static str>,
    /// One-line help, naming the default.
    help: &'static str,
}

impl Flag {
    const fn value(long: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag { long, short: None, value: Some(value), help }
    }

    const fn switch(long: &'static str, help: &'static str) -> Flag {
        Flag { long, short: None, value: None, help }
    }

    /// This flag with the one-letter alias `short`.
    const fn short(self, short: &'static str) -> Flag {
        Flag { short: Some(short), ..self }
    }

    /// The flag's help line: `-b, --block-size N   block size ...`.
    fn help_line(&self) -> String {
        let short = self.short.map_or_else(|| "    ".to_owned(), |s| format!("{s}, "));
        let spelling = format!("{short}{} {}", self.long, self.value.unwrap_or(""));
        format!("      {spelling:<26} {}\n", self.help)
    }
}

/// One subcommand: the [`COMMANDS`] entry that drives its parsing, its
/// `cce help` section and its usage errors.
#[derive(Debug)]
struct Command {
    name: &'static str,
    /// Positional synopsis (required flags included).
    synopsis: &'static str,
    /// One-line description.
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), Box<dyn Error>>,
}

/// Accepted by every command: written once, after the command succeeds.
const METRICS: Flag =
    Flag::value("--metrics", "FILE", "write the observability metrics artifact to FILE");
const BLOCK_SIZE: Flag =
    Flag::value("--block-size", "N", "block size in bytes (default 32)").short("-b");
const JSON: Flag = Flag::switch("--json", "print JSON instead of a table");
const MODEL_CACHE: Flag =
    Flag::value("--model-cache", "DIR", "reuse and persist trained SAMC models in DIR");
const SEED: Flag = Flag::value("--seed", "S", "workload seed (default 229382552)");
const SOCKET: Flag = Flag::value("--socket", "PATH", "Unix socket");
const TCP: Flag = Flag::value("--tcp", "ADDR", "TCP address, e.g. 127.0.0.1:7070");
const fn output(help: &'static str) -> Flag {
    Flag::value("--output", "PATH", help).short("-o")
}

/// Every subcommand, in `cce help` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "ratio",
        synopsis: "<input.elf>",
        about: "compare every algorithm's compression ratio",
        flags: &[BLOCK_SIZE, JSON, MODEL_CACHE],
        run: ratio,
    },
    Command {
        name: "compress",
        synopsis: "<in.elf> -o <out.cce>",
        about: "compress an ELF's text into a v2 container",
        flags: &[
            Flag::value("--algo", "ALGO", "samc|sadc|huffman|samc-rans (default samc)").short("-a"),
            BLOCK_SIZE,
            MODEL_CACHE,
            output("container to write"),
        ],
        run: compress,
    },
    Command {
        name: "decompress",
        synopsis: "<in.cce> -o <out.elf>",
        about: "rebuild a minimal ELF from a container",
        flags: &[output("ELF to write")],
        run: decompress,
    },
    Command {
        name: "info",
        synopsis: "<in.cce>",
        about: "inspect a container",
        flags: &[],
        run: info,
    },
    Command {
        name: "gen",
        synopsis: "<profile> -o <out.elf>",
        about: "synthesize a SPEC95-like workload ELF",
        flags: &[
            output("ELF to write"),
            Flag::value("--scale", "F", "workload scale (default 0.1)"),
            SEED,
            Flag::value("--isa", "ISA", "mips|x86 (default mips)"),
            Flag::switch("--multi-section", "surround the text with .rodata and .bss"),
        ],
        run: gen,
    },
    Command {
        name: "stats",
        synopsis: "[input.elf]",
        about: "list registered metrics, or measure an ELF and print its counters",
        flags: &[BLOCK_SIZE],
        run: stats,
    },
    Command {
        name: "analyze",
        synopsis: "<input.elf>",
        about: "section table and entropy diagnostics",
        flags: &[],
        run: analyze,
    },
    Command {
        name: "disasm",
        synopsis: "<input.elf>",
        about: "disassemble MIPS text",
        flags: &[Flag::value("--count", "N", "instructions to print (default 32)").short("-n")],
        run: disasm,
    },
    Command {
        name: "fuzz",
        synopsis: "",
        about: "adversarial decode fuzzing",
        flags: &[
            Flag::value("--algo", "NAME", "an algorithm, all or serve (default all)").short("-a"),
            Flag::value("--cases", "N", "cases per target (default 256)"),
            Flag::value("--seed", "S", "fuzz seed (default 229382552)"),
        ],
        run: fuzz,
    },
    Command {
        name: "sweep",
        synopsis: "",
        about: "memory-system design-space sweep; writes BENCH_memsim.json",
        flags: &[
            Flag::value("--algos", "A,B", "random-access codecs (default samc,huffman)"),
            Flag::value("--blocks", "N,..", "block sizes (default 16,32,64)"),
            Flag::value("--caches", "N,..", "I-cache bytes (default 1024,2048,4096)"),
            Flag::value("--assoc", "N,..", "associativities (default 1,2,4)"),
            Flag::value("--clb", "N,..", "CLB entries (default 8,32)"),
            Flag::value("--decoders", "D,..", "nibble or ransN (default nibble,rans4)"),
            Flag::value("--fetches", "N", "trace length (default 100000)"),
            Flag::value("--scale", "F", "workload scale (default 2.0)"),
            SEED,
            Flag::value("--workers", "N", "threads, 1..=1024 (default CCE_WORKERS or CPUs)"),
            output("artifact to write (default BENCH_memsim.json)"),
            JSON,
        ],
        run: sweep,
    },
    Command {
        name: "verify",
        synopsis: "<in.cce>",
        about: "check every digest of a container and load its codec",
        flags: &[],
        run: verify,
    },
    Command {
        name: "serve",
        synopsis: "<in.cce> --socket PATH | --tcp ADDR",
        about: "block-serving daemon; runs until a client sends shutdown",
        flags: &[SOCKET, TCP, Flag::value("--cache", "N", "decoded blocks to cache (default 256)")],
        run: serve,
    },
    Command {
        name: "fetch",
        synopsis: "--socket PATH | --tcp ADDR -o <out.elf>",
        about: "rebuild an ELF over the wire",
        flags: &[SOCKET, TCP, output("ELF to write")],
        run: fetch,
    },
];

impl Command {
    /// The command's flags, `--metrics` included.
    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().chain(std::iter::once(&METRICS))
    }

    /// `cce <name> <synopsis> [flags]`, the about line and one line per
    /// flag of the command's own ([`METRICS`] is listed once, apart).
    fn usage(&self) -> String {
        let mut out = format!("cce {}", self.name);
        for part in [self.synopsis, "[flags]"] {
            if !part.is_empty() {
                out.push(' ');
                out.push_str(part);
            }
        }
        out.push_str(&format!("\n      {}\n", self.about));
        for flag in self.flags {
            out.push_str(&flag.help_line());
        }
        out
    }
}

/// `cce help`: every command's usage, from [`COMMANDS`].
fn help() -> String {
    let mut out = String::from(
        "cce — code compression for embedded systems (SAMC/SADC, DAC 1998)\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        out.push_str("  ");
        out.push_str(&command.usage());
    }
    out.push_str("\nEVERY COMMAND:\n");
    out.push_str(&METRICS.help_line());
    out
}

/// A command-line mistake: printed as `cce <command>: <message>`
/// followed by that command's usage.
#[derive(Debug)]
struct UsageError {
    command: &'static Command,
    message: String,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let command = self.command;
        let usage = command.usage() + &METRICS.help_line();
        write!(f, "{}: {}\nusage: {}", command.name, self.message, usage.trim_end())
    }
}

impl Error for UsageError {}

/// One command's arguments: positionals plus flag values by long name.
struct Args<'a> {
    command: &'static Command,
    positional: Vec<&'a str>,
    /// Values by long flag name; a switch maps to `""`.
    values: BTreeMap<&'static str, &'a str>,
}

impl<'a> Args<'a> {
    /// Splits `args` against `command`'s flags.  Any `-`-prefixed token
    /// the command does not list is a usage error, as is a bad value for
    /// a range-checked flag (see [`check_value`]).
    fn parse(command: &'static Command, args: &'a [String]) -> Result<Args<'a>, UsageError> {
        let usage = |message: String| UsageError { command, message };
        let mut parsed = Args { command, positional: Vec::new(), values: BTreeMap::new() };
        let mut tokens = args.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if !token.starts_with('-') {
                parsed.positional.push(token);
                continue;
            }
            let flag = command
                .all_flags()
                .find(|f| f.long == token || f.short == Some(token))
                .ok_or_else(|| usage(format!("unknown flag `{token}`")))?;
            let value = match flag.value {
                Some(placeholder) => {
                    let value = tokens
                        .next()
                        .ok_or_else(|| usage(format!("missing {placeholder} after `{token}`")))?;
                    check_value(flag.long, value).map_err(usage)?;
                    value
                }
                None => "",
            };
            parsed.values.insert(flag.long, value);
        }
        Ok(parsed)
    }

    /// A usage error for this command.
    fn usage(&self, message: impl Into<String>) -> Box<dyn Error> {
        Box::new(UsageError { command: self.command, message: message.into() })
    }

    /// The value given for `long`, if any.
    fn value(&self, long: &str) -> Option<&'a str> {
        self.values.get(long).copied()
    }

    /// The value given for `long`, or a usage error naming the flag.
    fn required(&self, long: &str) -> Result<&'a str, Box<dyn Error>> {
        self.value(long).ok_or_else(|| self.usage(format!("missing {long}")))
    }

    /// Whether the switch `long` was given.
    fn switch(&self, long: &str) -> bool {
        self.values.contains_key(long)
    }

    /// The value given for `long` parsed as a number, or `default`.
    fn number<T: FromStr>(&self, long: &str, default: T) -> Result<T, Box<dyn Error>> {
        match self.value(long) {
            None => Ok(default),
            Some(raw) => {
                raw.parse().map_err(|_| self.usage(format!("{long}: `{raw}` is not a number")))
            }
        }
    }

    /// The positionals, which must number exactly `N`.
    fn positionals<const N: usize>(&self) -> Result<[&'a str; N], Box<dyn Error>> {
        <[&str; N]>::try_from(self.positional.as_slice()).map_err(|_| {
            self.usage(format!(
                "expected {N} positional argument(s), got {}",
                self.positional.len()
            ))
        })
    }
}

/// Range checks applied while parsing, before any command runs.
fn check_value(long: &str, raw: &str) -> Result<(), String> {
    let integer = |what: &str| raw.parse::<u64>().map_err(|_| format!("{what} must be an integer"));
    let (ok, rule) = match long {
        "--scale" => {
            let scale: f64 = raw.parse().map_err(|_| "scale must be a number")?;
            (scale > 0.0 && scale.is_finite(), "scale must be positive")
        }
        "--fetches" => (integer("fetches")? > 0, "fetches must be positive"),
        "--workers" => ((1..=1024).contains(&integer("workers")?), "workers must be in 1..=1024"),
        _ => (true, ""),
    };
    if ok {
        Ok(())
    } else {
        Err(rule.into())
    }
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

/// Names `path` in the failure of a file operation on it, so every error
/// from opening, creating, writing or renaming a file reads
/// `cce: <path>: <reason>`.
fn at<T>(path: impl AsRef<Path>, result: std::io::Result<T>) -> Result<T, std::io::Error> {
    result.map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.as_ref().display())))
}

/// Opens the container at `path`, checking its head, index and digest
/// section.
fn open_container(
    path: &str,
) -> Result<ContainerV2Reader<std::io::BufReader<std::fs::File>>, Box<dyn Error>> {
    let file = at(path, std::fs::File::open(path))?;
    Ok(ContainerV2Reader::open(std::io::BufReader::new(file))?)
}

/// An input ELF opened for the streaming walker.
type ElfFile = ElfStream<std::io::BufReader<std::fs::File>>;

/// Opens the input ELF of every command that reads one: the walker reads
/// the headers now, then the ISA comes from the machine field and the
/// `.text` section is read into memory.
fn open_elf(path: &str) -> Result<(ElfFile, Isa, Vec<u8>), Box<dyn Error>> {
    let file = at(path, std::fs::File::open(path))?;
    let mut elf =
        ElfStream::open(std::io::BufReader::new(file)).map_err(streaming::stream_error)?;
    let isa = streaming::isa_of(&elf)?;
    let text = streaming::buffered_text(&mut elf)?;
    Ok((elf, isa, text))
}

fn ratio(args: &Args) -> Result<(), Box<dyn Error>> {
    let [path] = args.positionals()?;
    let block_size = args.number("--block-size", 32)?;
    let json = args.switch("--json");
    let (_, isa, text) = open_elf(path)?;
    let mut trainer = args.value("--model-cache").map(open_model_cache).transpose()?;
    if !json {
        outln!("{path}: {} bytes of {isa} text", text.len())?;
    }
    print_measurements(json, |algorithm| {
        measure_cached(algorithm, isa, &text, block_size, &mut trainer)
    })?;
    Ok(())
}

/// Prints every algorithm's measurement as a table, or as one JSON
/// array with `json`; an algorithm that fails is reported and skipped.
fn print_measurements(
    json: bool,
    mut measure_one: impl FnMut(Algorithm) -> Result<cce_core::Measurement, Box<dyn Error>>,
) -> std::io::Result<()> {
    if !json {
        outln!("{:<10} {:>12} {:>8}", "algorithm", "compressed", "ratio")?;
    }
    let mut measurements = Vec::new();
    for algorithm in Algorithm::ALL {
        let name = algorithm.to_string();
        match measure_one(algorithm) {
            Ok(m) if json => measurements.push(m),
            Ok(m) => outln!("{name:<10} {:>12} {:>8.3}", m.compressed_len(), m.ratio())?,
            Err(e) if json => eprintln!("cce: {algorithm} failed: {e}"),
            Err(e) => outln!("{name:<10} failed: {e}")?,
        }
    }
    if json {
        outln!("{}", report::measurements_json(&measurements))?;
    }
    Ok(())
}

/// Prints `elf`'s section table, in section-header order.
fn print_sections(path: &str, elf: &ElfFile) -> std::io::Result<()> {
    outln!("{path}: sections")?;
    outln!("  {:<12} {:>10} {:>12}  notes", "name", "size", "addr")?;
    let text = elf.text_index();
    for (index, s) in elf.sections().iter().enumerate() {
        let mut notes = Vec::new();
        if Some(index) == text {
            notes.push("text (compressed)");
        }
        if s.file_extent().is_none() {
            notes.push("nobits");
        }
        outln!("  {:<12} {:>10} {:>#12x}  {}", s.name, s.size, s.addr, notes.join(", "))?;
    }
    Ok(())
}

/// Writes the `--metrics` artifact for `command` to `path`.
fn write_metrics(path: &str, command: &str) -> Result<(), Box<dyn Error>> {
    if !cce_core::obs::enabled() {
        eprintln!("cce: warning: built without the `obs` feature; all metrics are zero");
    }
    // JSON artifacts are text files: POSIX tools expect a final newline.
    at(path, std::fs::write(path, cce_core::obs::metrics_json(command) + "\n"))?;
    eprintln!("cce: wrote {command} metrics to {path}");
    Ok(())
}

/// One comma-separated sweep grid axis: `flag`'s values, each parsed by
/// `parse`, or `default` when the flag is absent.
fn axis<T>(
    args: &Args,
    flag: &str,
    default: Vec<T>,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(raw) = args.value(flag) else { return Ok(default) };
    let values: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err(format!("{flag}: no values"));
    }
    Ok(values)
}

/// An [`axis`] of integers.
fn integer_axis(args: &Args, flag: &str, default: Vec<usize>) -> Result<Vec<usize>, String> {
    axis(args, flag, default, |part| {
        part.parse().map_err(|_| format!("{flag}: `{part}` is not an integer"))
    })
}

/// Parses one `--algos` axis value: a random-access algorithm.
fn parse_sweep_algorithm(name: &str) -> Result<Algorithm, String> {
    let algorithm =
        Algorithm::by_name(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
    if !algorithm.random_access() {
        return Err(format!("{algorithm} is file-oriented; a memory system needs random access"));
    }
    Ok(algorithm)
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
///
/// Workload and trace are fixed-seed and generated once; each (codec,
/// block size) image is built once ([`cce_core::sweep_images`]) and
/// shared across its cells; `cce_memsim::sweep` simulates the cells and
/// renders the artifact, which holds no wall-clock numbers, so it is
/// byte-identical for any `--workers` value — the property CI pins.
fn sweep(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::encode_text;
    use cce_core::memsim::sweep::{
        arith_rans_delta, render_artifact, run_sweep, SweepConfig, SweepWorkload,
    };
    use cce_core::workload::trace::{instruction_trace, TraceConfig};
    use cce_core::workload::{generate_mips_seeded, Spec95};

    const PROFILE: &str = "go";
    args.positionals::<0>()?;
    let scale = args.number("--scale", 2.0)?;
    let seed = args.number("--seed", FuzzConfig::default().seed)?;
    let fetches = args.number("--fetches", 100_000)?;
    cce_core::obs::reset();

    // Grid axes: the defaults give 216 cells (2 codecs x 3 block sizes
    // x 3 caches x 3 associativities x 2 CLB sizes x 2 decoders).
    let algorithms = vec![Algorithm::Samc, Algorithm::ByteHuffman];
    let algorithms = axis(args, "--algos", algorithms, parse_sweep_algorithm)?;
    let blocks = integer_axis(args, "--blocks", vec![16, 32, 64])?;
    let defaults = SweepConfig::default();
    let config = SweepConfig {
        cache_sizes: integer_axis(args, "--caches", defaults.cache_sizes.clone())?,
        associativities: integer_axis(args, "--assoc", defaults.associativities.clone())?,
        clb_entries: integer_axis(args, "--clb", defaults.clb_entries.clone())?,
        decoders: axis(args, "--decoders", defaults.decoders.clone(), parse_decoder)?,
        ..defaults
    };
    if config.clb_entries.contains(&0) {
        return Err(args.usage("--clb: CLB entries must be positive"));
    }
    let workers = args.number("--workers", worker_count())?;

    let profile = Spec95::by_name(PROFILE).expect("profile is in the suite");
    let text = encode_text(&generate_mips_seeded(profile, scale, seed));
    let trace =
        instruction_trace(text.len(), &TraceConfig { fetches, seed, ..TraceConfig::default() });
    let images = cce_core::sweep_images(Isa::Mips, &text, &algorithms, &blocks, workers)?;
    let results = run_sweep(&images, &config, &trace, workers);
    if results.is_empty() {
        return Err("sweep grid expanded to zero valid cells".into());
    }

    let workload = SweepWorkload {
        profile: PROFILE.into(),
        scale,
        seed,
        codecs: algorithms.iter().map(Algorithm::to_string).collect(),
        block_sizes: blocks,
    };
    let artifact = render_artifact(&workload, &images, &config, trace.len(), &results);
    let path = args.value("--output").unwrap_or("BENCH_memsim.json");
    at(path, std::fs::write(path, format!("{artifact}\n")))?;
    if args.switch("--json") {
        outln!("{artifact}")?;
    } else {
        let delta = arith_rans_delta(&config, &results)
            .map_or_else(|| "null".to_string(), |delta| format!("{delta:.6}"));
        outln!(
            "sweep: {} cells over {} images ({} fetches each), arith-vs-rANS mean CPF delta {delta}",
            results.len(),
            images.len(),
            trace.len(),
        )?;
        outln!("  wrote {path}")?;
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::obs::TableSink;

    let block_size = args.number("--block-size", 32)?;
    match args.positional.as_slice() {
        // Without an input, list the registry: every metric the workspace
        // can record, whether or not anything has run.
        [] => {
            for desc in cce_core::obs::descriptors() {
                outln!("{:<26} {:<9} {}", desc.name, desc.kind().name(), desc.help)?;
            }
            Ok(())
        }
        [path] => {
            let (_, isa, text) = open_elf(path)?;
            cce_core::obs::reset();
            for algorithm in Algorithm::ALL {
                if let Err(e) = measure(algorithm, isa, &text, block_size) {
                    eprintln!("cce: {algorithm} failed: {e}");
                }
            }
            if !cce_core::obs::enabled() {
                eprintln!("cce: built without the `obs` feature; all metrics read zero");
            }
            out!("{}", TableSink { skip_zero: true }.render(&cce_core::obs::snapshot()))?;
            Ok(())
        }
        _ => Err(args.usage("expected at most one input")),
    }
}

fn compress(args: &Args) -> Result<(), Box<dyn Error>> {
    let [path] = args.positionals()?;
    let output = args.required("--output")?;
    let block_size = args.number("--block-size", 32)?;
    let (elf, isa, text) = open_elf(path)?;

    let name = args.value("--algo").unwrap_or("samc");
    let algorithm = Algorithm::by_name(name).ok_or_else(|| {
        let names: Vec<String> = Algorithm::ALL
            .iter()
            .filter(|a| a.random_access())
            .map(|a| a.to_string().to_ascii_lowercase())
            .collect();
        format!("unknown algorithm `{name}` ({})", names.join("|"))
    })?;
    if !algorithm.random_access() {
        return Err(format!(
            "`{algorithm}` is file-oriented; only random-access codecs fit the container"
        )
        .into());
    }

    // Training needs full-text statistics; the same buffer is compressed.
    let codec: Box<dyn BlockCodec> = match args.value("--model-cache") {
        Some(dir) => {
            if algorithm != Algorithm::Samc {
                return Err(format!("--model-cache caches SAMC models, not `{algorithm}`").into());
            }
            let mut trainer = open_model_cache(dir)?;
            let (config, optimize) = cache_request(isa, block_size);
            let outcome = trainer.train(&text, &config, &optimize)?;
            outln!(
                "model cache: {} (key {}, division {:016x})",
                outcome.source,
                outcome.key,
                outcome.codec.config().division.division_hash()
            )?;
            Box::new(outcome.codec)
        }
        None => match algorithm.build(isa, block_size).train(&text)? {
            CodecHandle::Block(codec) => codec,
            CodecHandle::File(_) => unreachable!("random-access algorithms build block codecs"),
        },
    };
    let codec = codec.as_ref();
    let identity = streaming::identity_of(&elf, algorithm)?;

    // Write into a sibling temp file and rename on success, so a failed
    // run never leaves a truncated artifact at the destination.
    let tmp = format!("{output}.tmp");
    let workers = worker_count();
    let result =
        at(&tmp, std::fs::File::create(&tmp)).map_err(Box::<dyn Error>::from).and_then(|out| {
            let out = std::io::BufWriter::new(out);
            Ok(streaming::compress_text(identity, &text, codec, out, workers)?)
        });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
    };
    at(output, std::fs::rename(&tmp, output))?;

    let summary = report.summary;
    outln!(
        "{path}: {} -> {} bytes (text ratio {:.3}, artifact {} bytes)",
        summary.original_len,
        summary.compressed_len(),
        summary.ratio(),
        summary.total_len
    )?;
    outln!("  pipeline: {} blocks, {} workers", report.stats.blocks, workers)?;
    Ok(())
}

fn decompress(args: &Args) -> Result<(), Box<dyn Error>> {
    let [path] = args.positionals()?;
    let output = args.required("--output")?;

    let mut reader = open_container(path)?;
    let identity = reader.identity();
    let codec = reader.block_codec()?;
    let text = reader.decode_text(codec.as_ref())?;
    let len = text.len();
    write_elf(output, identity.isa, identity.class, identity.endianness, identity.entry, text)?;
    outln!("{path}: decompressed {len} bytes of text into {output}")?;
    Ok(())
}

/// Writes the minimal executable ELF `decompress` and `fetch` rebuild
/// around a decoded text section.
fn write_elf(
    output: &str,
    isa: Isa,
    class: cce_core::elf::Class,
    endianness: cce_core::elf::Endianness,
    entry: u64,
    text: Vec<u8>,
) -> Result<(), Box<dyn Error>> {
    let machine = match isa {
        Isa::Mips => Machine::Mips,
        Isa::X86 => Machine::I386,
    };
    let mut elf = ElfImage::new_executable(machine, class, endianness, text);
    elf.entry = entry;
    Ok(at(output, std::fs::write(output, elf.to_bytes()))?)
}

fn analyze(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::stats;
    let [path] = args.positionals()?;
    let (elf, isa, text) = open_elf(path)?;
    print_sections(path, &elf)?;
    outln!("{path}: {} bytes of {isa} text", text.len())?;
    outln!("  byte entropy:        {:.3} bits/byte", stats::byte_entropy(&text))?;
    let positions = stats::position_entropy(&text, 4);
    outln!(
        "  per-byte-position:   [{:.2}, {:.2}, {:.2}, {:.2}] bits (stride 4)",
        positions[0],
        positions[1],
        positions[2],
        positions[3]
    )?;
    outln!(
        "  word repeat ratio:   {:.1}% of 4-byte records repeat",
        100.0 * stats::repeat_ratio(&text, 4)
    )?;
    if isa == Isa::Mips {
        let fields = stats::mips_field_stats(&text)?;
        outln!("  instructions:        {}", fields.instructions)?;
        outln!("  distinct operations: {}", fields.distinct_operations)?;
        outln!("  opcode entropy:      {:.3} bits/insn", fields.opcode_entropy)?;
        outln!("  register entropy:    {:.3} bits/field", fields.register_entropy)?;
        outln!("  imm16 entropy:       {:.3} bits/imm", fields.imm16_entropy)?;
        outln!(
            "  field-coder bound:   {:.2} bits/insn  (ratio floor {:.3})",
            fields.field_bits_per_instruction,
            fields.field_bits_per_instruction / 32.0
        )?;
    }
    Ok(())
}

fn disasm(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::decode_text;
    let [path] = args.positionals()?;
    let count = args.number("--count", 32)?;
    let (elf, isa, text) = open_elf(path)?;
    if isa != Isa::Mips {
        return Err("disassembly is only supported for MIPS executables".into());
    }
    let instructions = decode_text(&text)?;
    let base = elf.sections()[streaming::text_index(&elf)?].addr;
    for (i, insn) in instructions.iter().take(count).enumerate() {
        outln!("{:#010x}:  {:08x}  {insn}", base + 4 * i as u64, insn.encode())?;
    }
    if instructions.len() > count {
        outln!("... {} more instructions", instructions.len() - count)?;
    }
    Ok(())
}

fn info(args: &Args) -> Result<(), Box<dyn Error>> {
    let [path] = args.positionals()?;
    let reader = open_container(path)?;
    let identity = reader.identity();
    let summary = reader.summary();
    outln!("{path}:")?;
    outln!("  container:  v2 (indexed)")?;
    outln!("  codec:      {}", identity.algorithm)?;
    outln!(
        "  isa:        {} ({:?}, {:?}, entry {:#x})",
        identity.isa,
        identity.class,
        identity.endianness,
        identity.entry
    )?;
    outln!("  codec size: {} bytes", reader.codec_bytes().len())?;
    outln!(
        "  text:       {} bytes in {} blocks of {}",
        summary.original_len,
        summary.blocks,
        reader.block_size()
    )?;
    outln!(
        "  compressed: {} bytes (ratio {:.3}, model {} bytes, LAT {} bytes)",
        summary.compressed_len(),
        summary.ratio(),
        summary.model_bytes,
        summary.lat_bytes()
    )?;
    outln!("  digests:    head, {} runs, index (SHA-256)", reader.runs().len())?;
    Ok(())
}

/// `cce gen`: synthesizes one SPEC95-like workload as a minimal ELF, so
/// shell pipelines (and the CI cache smoke) can feed `cce compress` the
/// exact same deterministic program the benchmarks measure.
fn gen(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::isa::mips::encode_text;
    use cce_core::workload::{generate_mips_seeded, generate_x86_seeded, Program, Spec95};

    let [name] = args.positionals()?;
    let output = args.required("--output")?;
    let scale = args.number("--scale", 0.1)?;
    let seed = args.number("--seed", FuzzConfig::default().seed)?;
    let multi_section = args.switch("--multi-section");
    let profile =
        Spec95::by_name(name).ok_or_else(|| format!("unknown benchmark profile `{name}`"))?;
    let isa = match args.value("--isa").unwrap_or("mips") {
        "mips" => Isa::Mips,
        "x86" => Isa::X86,
        other => return Err(format!("unknown ISA `{other}` (mips|x86)").into()),
    };
    let text = match isa {
        Isa::Mips => encode_text(&generate_mips_seeded(profile, scale, seed)),
        Isa::X86 => generate_x86_seeded(profile, scale, seed),
    };
    let mut elf = Program { name: profile.name, isa, text }.to_elf();
    if multi_section {
        push_workload_sections(&mut elf, seed);
    }
    at(output, std::fs::write(output, elf.to_bytes()))?;
    outln!(
        "{output}: {} bytes of {isa} `{name}` text at scale {scale} (seed {seed})",
        elf.text().expect("text").len()
    )?;
    if multi_section {
        outln!("{output}: {} sections (multi-section workload)", elf.sections.len())?;
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

fn fuzz(args: &Args) -> Result<(), Box<dyn Error>> {
    args.positionals::<0>()?;
    let defaults = FuzzConfig::default();
    let cases = args.number("--cases", defaults.cases)?;
    let seed = args.number("--seed", defaults.seed)?;
    let config = FuzzConfig { cases, seed };
    let reports = match args.value("--algo").unwrap_or("all") {
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
        outln!("{}", report.summary())?;
        for failure in &report.failures {
            outln!("    {failure}")?;
        }
        if !report.is_clean() {
            dirty += 1;
        }
    }
    if dirty > 0 {
        return Err(format!("{dirty} of {} targets reported failures", reports.len()).into());
    }
    outln!("all {} targets clean ({cases} cases each, seed {seed})", reports.len())?;
    Ok(())
}

/// Everything `decompress` and `serve` check before decoding: the head,
/// index and digest section at open, every run's digest, and the codec
/// model.
fn verify(args: &Args) -> Result<(), Box<dyn Error>> {
    let [path] = args.positionals()?;
    let mut reader = open_container(path)?;
    let runs = reader.verify()?;
    reader.block_codec()?;
    let summary = reader.summary();
    outln!(
        "{path}: OK — {} blocks in {runs} runs, {} bytes ({} original)",
        summary.blocks,
        summary.total_len,
        summary.original_len,
    )?;
    Ok(())
}

fn serve(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::serve::{ServeConfig, Server};
    let [path] = args.positionals()?;
    let defaults = ServeConfig::default();
    let config =
        ServeConfig { cache_blocks: args.number("--cache", defaults.cache_blocks)?, ..defaults };
    let (artifact, codec) = cce_core::artifact::open(Path::new(path))?;
    let blocks = artifact.block_count();
    let server = Server::new(artifact, codec, config);
    // The banner is best effort: the daemon serves whether or not
    // anyone still reads its stdout.
    match (args.value("--socket"), args.value("--tcp")) {
        (Some(socket), None) => {
            let _ = outln!("serving {blocks} blocks from {path} on unix socket {socket}");
            server.serve_unix(Path::new(socket))?;
        }
        (None, Some(addr)) => {
            server.serve_tcp(addr, |local| {
                let _ = outln!("serving {blocks} blocks from {path} on tcp {local}");
            })?;
        }
        _ => return Err(args.usage("pass exactly one of --socket PATH or --tcp ADDR")),
    }
    outln!("shutdown: {}", server.stats_json())?;
    Ok(())
}

fn fetch(args: &Args) -> Result<(), Box<dyn Error>> {
    use cce_core::serve::Client;
    args.positionals::<0>()?;
    let output = args.required("--output")?;
    match (args.value("--socket"), args.value("--tcp")) {
        (Some(path), None) => fetch_with(Client::connect_unix(Path::new(path))?, output),
        (None, Some(addr)) => fetch_with(Client::connect_tcp(addr)?, output),
        _ => Err(args.usage("pass exactly one of --socket PATH or --tcp ADDR")),
    }
}

/// The reference-client body of `cce fetch`: pulls the info record,
/// decodes every block over the wire, and writes the same minimal ELF
/// `decompress` produces (so the two outputs byte-compare in CI).
fn fetch_with<S: std::io::Read + std::io::Write>(
    mut client: cce_core::serve::Client<S>,
    output: &str,
) -> Result<(), Box<dyn Error>> {
    let info = cce_core::artifact::ArtifactInfo::parse(&client.get_manifest()?)?;
    let mut text = Vec::new();
    for block in 0..info.blocks {
        text.extend_from_slice(&client.decode_block(block)?);
        if text.len() as u64 > info.original_len {
            return Err(format!("block {block} runs past the promised text length").into());
        }
    }
    if text.len() as u64 != info.original_len {
        return Err(format!(
            "fetched {} decoded bytes but the info record promises {}",
            text.len(),
            info.original_len
        )
        .into());
    }
    client.shutdown()?;
    let len = text.len();
    let id = info.identity;
    write_elf(output, id.isa, id.class, id.endianness, id.entry, text)?;
    outln!("fetched {} blocks ({len} bytes of text) into {output}", info.blocks)?;
    Ok(())
}
