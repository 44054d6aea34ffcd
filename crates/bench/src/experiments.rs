//! Every measured table of EXPERIMENTS.md, one [`Experiment`] each.
//!
//! [`EXPERIMENTS`] pairs each EXPERIMENTS.md section id with a function
//! that renders the section's table at a workload scale.  EXPERIMENTS.md
//! quotes each table's `CCE_SCALE=1.0` output verbatim after an
//! `<!-- experiments:ID -->` marker, and `scripts/ci.sh` diffs the two.

use crate::{figure_rows, means, render_table};
use cce_core::arith::ProbMode;
use cce_core::codec::BlockCodec;
use cce_core::isa::{mips::Operation, Isa};
use cce_core::lz::{ContextCoder, ContextCoderConfig, Gzip};
use cce_core::memsim::{CacheConfig, CostModel, LineAddressTable, MemorySystem};
use cce_core::sadc::{MipsSadc, MipsSadcConfig};
use cce_core::samc::StreamDivision;
use cce_core::samc::{optimize_division, MarkovConfig, OptimizeConfig, SamcCodec, SamcConfig};
use cce_core::workload::spec95_suite;
use cce_core::workload::trace::{instruction_trace, TraceConfig};
use cce_core::{measure, Algorithm};
use std::error::Error;
use std::fmt::Write as _;

/// What an experiment returns: its table, or why it failed.
pub type Section = Result<String, Box<dyn Error>>;

/// An EXPERIMENTS.md section id and the function rendering its table at
/// a workload scale.
pub type Experiment = (&'static str, fn(f64) -> Section);

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("claim-blk", claim_blk),
    ("claim-stream", claim_stream),
    ("claim-conn", claim_conn),
    ("claim-pow2", claim_pow2),
    ("claim-dict", claim_dict),
    ("arch", arch),
    ("arch-lat", arch_lat),
    ("ext-ppm", ext_ppm),
];

/// The experiments `ids` name, in the order given; all of them when
/// `ids` is empty.
///
/// # Errors
///
/// The first id that names no experiment.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    let find = |id: &str| EXPERIMENTS.iter().find(|e| e.0 == id).copied().ok_or(id.to_string());
    ids.iter().map(|id| find(id.as_ref())).collect()
}

/// The four algorithms of Figures 7 and 8.
const FIGURE_ALGORITHMS: [Algorithm; 4] =
    [Algorithm::UnixCompress, Algorithm::Gzip, Algorithm::Samc, Algorithm::Sadc];

/// FIG7 — Figure 7: MIPS ratios over the 18 SPEC95 benchmarks.
fn fig7(scale: f64) -> Section {
    let rows = figure_rows(Isa::Mips, &FIGURE_ALGORITHMS, scale, 32)?;
    let title = format!("Figure 7 — compression ratios, MIPS (scale {scale})");
    Ok(render_table(&title, &FIGURE_ALGORITHMS, &rows))
}

/// FIG8 — Figure 8: the same on Pentium Pro (x86).
fn fig8(scale: f64) -> Section {
    let rows = figure_rows(Isa::X86, &FIGURE_ALGORITHMS, scale, 32)?;
    let title = format!("Figure 8 — compression ratios, Pentium Pro (scale {scale})");
    Ok(render_table(&title, &FIGURE_ALGORITHMS, &rows))
}

/// FIG9 — Figure 9: mean ratios of byte-Huffman, SAMC and SADC per ISA.
fn fig9(scale: f64) -> Section {
    let algorithms = [Algorithm::ByteHuffman, Algorithm::Samc, Algorithm::Sadc];
    let mut out = format!("Figure 9 — average instruction-compression ratios (scale {scale})\n");
    out.push_str("isa      huffman      SAMC      SADC\n");
    for isa in [Isa::Mips, Isa::X86] {
        let m = means(&figure_rows(isa, &algorithms, scale, 32)?);
        writeln!(out, "{:<6} {:>9.3} {:>9.3} {:>9.3}", isa.to_string(), m[0], m[1], m[2])?;
    }
    Ok(out)
}

/// CLAIM-BLK — §5: block size has "a minimal impact" on the ratios.
fn claim_blk(scale: f64) -> Section {
    let mut out = format!("Block-size ablation, MIPS suite means (scale {scale})\n");
    out.push_str(" block      SAMC      SADC\n");
    for block in [16usize, 32, 64, 128] {
        let m = means(&figure_rows(Isa::Mips, &[Algorithm::Samc, Algorithm::Sadc], scale, block)?);
        writeln!(out, "{block:>6} {:>9.3} {:>9.3}", m[0], m[1])?;
    }
    Ok(out)
}

/// SAMC's compressed bytes as (coded blocks only, with the stored trees).
fn samc_sizes(text: &[u8], config: SamcConfig) -> Result<(usize, usize), Box<dyn Error>> {
    let codec = SamcCodec::train(text, config)?;
    let total = codec.compress(text)?.compressed_len();
    Ok((total - codec.model().model_bytes(), total))
}

/// CLAIM-STREAM — §3: 4×8-bit streams are "close to optimal"; 2×16, 4×8,
/// 8×4 and the optimizer's 4-stream division on every third benchmark.
fn claim_stream(scale: f64) -> Section {
    let mut out = format!("Stream-division ablation, SAMC on MIPS (scale {scale})\n");
    out.push_str("payload = coded bits only; total adds the stored Markov trees.\n");
    out.push_str("(2x16 streams need 2·2·(2^16−1) probabilities ≈ 393 KiB of model —\n");
    out.push_str(" the storage blow-up that is the paper's first reason for streams.)\n");
    out.push_str(
        "benchmark     2x16   (tot) |     4x8   (tot) |     8x4   (tot) |    opt-4    (tot)\n",
    );
    for program in spec95_suite(Isa::Mips, scale).iter().step_by(3) {
        let (name, text) = (program.name, &program.text);
        let words: Vec<u32> =
            text.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])).collect();
        let search =
            OptimizeConfig { streams: 4, iterations: 24, sample_units: 2048, ..Default::default() };
        let (optimized, _) = optimize_division(&words, 32, &search);
        let mut r = Vec::new();
        for division in [
            StreamDivision::contiguous(32, 2),
            StreamDivision::bytes(32),
            StreamDivision::contiguous(32, 8),
            optimized,
        ] {
            let (payload, total) = samc_sizes(text, SamcConfig::mips().with_division(division))?;
            r.push((payload as f64 / text.len() as f64, total as f64 / text.len() as f64));
        }
        writeln!(
            out,
            "{name:<10} {:>7.3} {:>7.2} | {:>7.3} {:>7.3} | {:>7.3} {:>7.3} | {:>8.3} {:>8.3}",
            r[0].0, r[0].1, r[1].0, r[1].1, r[2].0, r[2].1, r[3].0, r[3].1
        )?;
    }
    Ok(out)
}

/// SAMC on MIPS with `context_bits` of inter-stream context.
fn samc_markov(context_bits: u8, prob_mode: ProbMode) -> SamcConfig {
    SamcConfig { markov: MarkovConfig { context_bits, prob_mode }, ..SamcConfig::mips() }
}

/// `100 × (new − old) / old`.
fn percent_change(new: usize, old: usize) -> f64 {
    100.0 * (new as f64 - old as f64) / old as f64
}

/// CLAIM-CONN — §3: connected Markov trees help; then EXT-CTX, the §6
/// extension to 0–3 bits of inter-stream context.
fn claim_conn(scale: f64) -> Section {
    let mut out = format!("Connected-trees ablation, SAMC on MIPS (scale {scale})\n");
    out.push_str("benchmark      payload Δ%       total Δ%  ratio uncon   ratio conn\n");
    let (mut payloads, mut totals) = ([0usize; 2], [0usize; 2]);
    let programs = spec95_suite(Isa::Mips, scale);
    for program in &programs {
        let (name, len) = (program.name, program.text.len() as f64);
        let (payload_u, total_u) = samc_sizes(&program.text, samc_markov(0, ProbMode::Exact))?;
        let (payload_c, total_c) = samc_sizes(&program.text, samc_markov(1, ProbMode::Exact))?;
        payloads = [payloads[0] + payload_u, payloads[1] + payload_c];
        totals = [totals[0] + total_u, totals[1] + total_c];
        let (payload, total) =
            (percent_change(payload_c, payload_u), percent_change(total_c, total_u));
        let (uncon, conn) = (total_u as f64 / len, total_c as f64 / len);
        writeln!(out, "{name:<10} {payload:>13.2}% {total:>13.2}% {uncon:>12.3} {conn:>12.3}")?;
    }
    let payload = percent_change(payloads[1], payloads[0]);
    let total = percent_change(totals[1], totals[0]);
    writeln!(out, "SUITE      {payload:>13.2}% {total:>13.2}%   (negative = connected wins)")?;

    out.push_str("\nContext-depth extension (suite payload bytes; model doubles per bit)\n");
    out.push_str("context bits        payload     payload Δ%\n");
    let mut base = 0usize;
    for bits in 0u8..=3 {
        let mut payload = 0usize;
        for program in &programs {
            payload += samc_sizes(&program.text, samc_markov(bits, ProbMode::Exact))?.0;
        }
        base = if bits == 0 { payload } else { base };
        writeln!(out, "{bits:>12} {payload:>14} {:>13.2}%", percent_change(payload, base))?;
    }
    Ok(out)
}

/// CLAIM-POW2 — §3 (Witten et al.): power-of-two probabilities keep
/// ≈95% worst-case efficiency.  Payloads only: the Pow2 model is smaller,
/// so counting it would mask the coding loss.
fn claim_pow2(scale: f64) -> Section {
    let mut out =
        format!("Power-of-two probability ablation, SAMC payload on MIPS (scale {scale})\n");
    out.push_str("benchmark       exact       pow2  efficiency\n");
    let (mut total_exact, mut total_pow2) = (0usize, 0usize);
    for program in spec95_suite(Isa::Mips, scale) {
        let exact = samc_sizes(&program.text, samc_markov(1, ProbMode::Exact))?.0;
        let pow2 = samc_sizes(&program.text, samc_markov(1, ProbMode::Pow2))?.0;
        (total_exact, total_pow2) = (total_exact + exact, total_pow2 + pow2);
        let (name, efficiency) = (program.name, 100.0 * exact as f64 / pow2 as f64);
        writeln!(out, "{name:<10} {exact:>10} {pow2:>10} {efficiency:>10.1}%")?;
    }
    let efficiency = 100.0 * total_exact as f64 / total_pow2 as f64;
    writeln!(
        out,
        "TOTAL      {total_exact:>10} {total_pow2:>10} {efficiency:>10.1}%  (paper/Witten et al: ~95% worst case)",
    )?;
    Ok(out)
}

/// CLAIM-DICT — §4: the SADC dictionary: a budget sweep, then each
/// candidate class toggled, on every fourth benchmark.
fn claim_dict(scale: f64) -> Section {
    let ratio = |text: &[u8], config| -> Result<f64, Box<dyn Error>> {
        Ok(MipsSadc::train(text, config)?.compress(text)?.ratio())
    };
    let programs = spec95_suite(Isa::Mips, scale);
    let sample: Vec<_> = programs.iter().step_by(4).collect();
    let budgets = [Operation::COUNT + 8, 96, 128, 192, 256];
    let mut out = format!("Dictionary-size sweep, SADC on MIPS (scale {scale})\nbenchmark ");
    for b in budgets {
        write!(out, " {b:>8}")?;
    }
    for program in &sample {
        write!(out, "\n{:<10}", program.name)?;
        for max_tokens in budgets {
            let config = MipsSadcConfig { max_tokens, ..Default::default() };
            write!(out, " {:>8.3}", ratio(&program.text, config)?)?;
        }
    }

    out.push_str("\n\nCandidate-class ablation (256-entry budget)\n");
    out.push_str("benchmark      none     groups     +regs     +imms      all\n");
    for program in &sample {
        write!(out, "{:<10}", program.name)?;
        // none, groups, +regs, +imms, all: (groups, registers, immediates, width).
        for (groups, regs, imms, width) in [
            (false, false, false, 8),
            (true, false, false, 10),
            (true, true, false, 9),
            (true, false, true, 9),
            (true, true, true, 8),
        ] {
            let config = MipsSadcConfig {
                groups,
                reg_specialization: regs,
                imm_specialization: imms,
                ..Default::default()
            };
            write!(out, " {:>width$.3}", ratio(&program.text, config)?)?;
        }
        out.push('\n');
    }
    Ok(out)
}

/// ARCH — §2/Fig. 1: the slowdown tracks the I-cache miss ratio and the
/// CLB hides LAT lookups (SAMC image of `go`, 300k-fetch trace).
fn arch(scale: f64) -> Section {
    let programs = spec95_suite(Isa::Mips, scale);
    let program = programs.iter().find(|p| p.name == "go").ok_or("go is in the suite")?;
    let m = measure(Algorithm::Samc, Isa::Mips, &program.text, 32)?;
    let sizes = m.block_sizes().ok_or("SAMC is random-access")?;
    let lat = || LineAddressTable::from_block_sizes(sizes.iter().copied());
    let (len, ratio) = (m.original_len(), m.ratio());
    let lat_bytes = m.lat_bytes().ok_or("SAMC has a LAT")?;
    let mut out = format!(
        "Memory-system experiment: go ({len} bytes, SAMC ratio {ratio:.3}, LAT {lat_bytes} bytes)\n"
    );
    let fetches = TraceConfig { fetches: 300_000, ..TraceConfig::default() };
    let trace = instruction_trace(program.text.len(), &fetches);
    let costs = CostModel::default();

    out.push_str("\nCache sweep (CLB = 32 entries)\n");
    out.push_str("    cache    miss%   CPF base   CPF comp  slowdown\n");
    for kib in [1usize, 2, 4, 8, 16, 32, 64] {
        let config = CacheConfig { size_bytes: kib * 1024, block_size: 32, associativity: 2 };
        let base = MemorySystem::uncompressed(config, costs).run(&trace);
        let comp = MemorySystem::compressed(config, costs, lat(), 32).run(&trace);
        let (miss, slowdown) = (100.0 * base.cache.miss_ratio(), comp.slowdown_vs(&base));
        let (base, comp) = (base.cpf(), comp.cpf());
        writeln!(out, "{kib:>6}KiB {miss:>7.2}% {base:>10.3} {comp:>10.3} {slowdown:>8.3}x")?;
    }

    out.push_str("\nCLB sweep (4 KiB cache): LAT lookups hidden by the lookaside buffer\n");
    out.push_str("   CLB   clb hit%        CPF refill cyc\n");
    for entries in [1usize, 4, 16, 64, 256] {
        let config = CacheConfig { size_bytes: 4096, block_size: 32, associativity: 2 };
        let report = MemorySystem::compressed(config, costs, lat(), entries).run(&trace);
        let lookups = (report.clb_hits + report.clb_misses).max(1);
        let (hits, cpf) = (100.0 * report.clb_hits as f64 / lookups as f64, report.cpf());
        writeln!(out, "{entries:>6} {hits:>9.2}% {cpf:>10.3} {:>10}", report.refill_cycles)?;
    }
    Ok(out)
}

/// ARCH-LAT — extension: padding compressed blocks to 2^k bytes drops k
/// bits per LAT entry; where is code + model + LAT smallest?
fn arch_lat(scale: f64) -> Section {
    let mut out = format!("LAT padding sweep, SAMC on MIPS (scale {scale})\n");
    out.push_str("benchmark   pad       code       LAT  footprint      ratio\n");
    for program in spec95_suite(Isa::Mips, scale).iter().step_by(5) {
        let m = measure(Algorithm::Samc, Isa::Mips, &program.text, 32)?;
        let sizes = m.block_sizes().ok_or("SAMC is random-access")?;
        let model = m.compressed_len() - sizes.iter().sum::<usize>();
        let (name, len) = (program.name, m.original_len() as f64);
        let mut best = (0, usize::MAX);
        for pad in [1usize, 2, 4, 8, 16, 32] {
            let lat = LineAddressTable::padded(sizes.iter().copied(), pad);
            let (code, lat_bytes) = (lat.compressed_total() as usize, lat.table_bytes());
            let footprint = code + model + lat_bytes;
            best = if footprint < best.1 { (pad, footprint) } else { best };
            let ratio = footprint as f64 / len;
            writeln!(
                out,
                "{name:<10} {pad:>4} {code:>10} {lat_bytes:>9} {footprint:>10} {ratio:>10.3}"
            )?;
        }
        let ((pad, footprint), ratio) = (best, best.1 as f64 / len);
        writeln!(out, "->         best pad {pad} (footprint {footprint}, {ratio:.3})")?;
    }
    Ok(out)
}

/// EXT-PPM — the adaptive context-modelling class §1 rules out, measured
/// next to SAMC and gzip.
fn ext_ppm(scale: f64) -> Section {
    let mut out = format!("Adaptive context modelling vs the paper's algorithms (scale {scale})\n");
    out.push_str("benchmark      SAMC     gzip |  order-1  order-2  order-3 | model memory\n");
    for program in spec95_suite(Isa::Mips, scale).iter().step_by(4) {
        let (name, text) = (program.name, &program.text);
        let samc = measure(Algorithm::Samc, Isa::Mips, text, 32)?.ratio();
        let gzip = Gzip::new().compress(text).len() as f64 / text.len() as f64;
        let mut ratios = [0.0f64; 3];
        let mut model_kib = 0usize;
        for (i, order) in (1..=3).enumerate() {
            let config = ContextCoderConfig { order, table_bits: 20 };
            let coder = ContextCoder::new(config);
            let compressed = coder.compress(text);
            if coder.decompress(&compressed)? != *text {
                return Err(format!("order-{order} context coder lost {name}").into());
            }
            ratios[i] = compressed.len() as f64 / text.len() as f64;
            model_kib = config.model_bytes() / 1024;
        }
        let [o1, o2, o3] = ratios;
        writeln!(
            out,
            "{name:<10} {samc:>8.3} {gzip:>8.3} | {o1:>8.3} {o2:>8.3} {o3:>8.3} | {model_kib:>9} KiB"
        )?;
    }
    out.push_str("\n(the context coder's model memory dwarfs SAMC's ~3 KiB tables, and its\n");
    out.push_str(" adaptivity means decompression must start at byte 0 — the two reasons\n");
    out.push_str(" the paper excludes this class from compressed-code memories)\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_keeps_order_and_names_unknown_ids() {
        let ids = |picked: Vec<Experiment>| picked.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(ids(select::<&str>(&[]).unwrap()), ids(EXPERIMENTS.to_vec()));
        assert_eq!(ids(select(&["arch", "fig7"]).unwrap()), ["arch", "fig7"]);
        assert_eq!(select(&["fig7", "fig10"]).unwrap_err(), "fig10");
    }

    #[test]
    fn experiments_md_quotes_every_experiment_in_order() {
        let mut lines = include_str!("../../../EXPERIMENTS.md").lines();
        let mut quoted = Vec::new();
        while let Some(line) = lines.next() {
            let marker =
                line.strip_prefix("<!-- experiments:").and_then(|l| l.strip_suffix(" -->"));
            if let Some(id) = marker {
                assert_eq!(lines.next(), Some("```text"), "{id}: marker not followed by a block");
                quoted.push(id);
            }
        }
        assert_eq!(quoted, EXPERIMENTS.iter().map(|e| e.0).collect::<Vec<_>>());
    }
}
