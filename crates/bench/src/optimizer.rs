//! SPEED-OPT — the SAMC stream-division search, before and after.
//!
//! [`run`] times the retained reference search
//! ([`optimize_division_reference`]) against the incremental one on a
//! fixed workload, times a multi-restart search over the worker pool,
//! and trains a small program batch twice through a fresh model store
//! (cold, then warm).  [`OptimizerReport::to_json`] renders the
//! `BENCH_optimizer.json` artifact the `bench_optimizer` binary writes.
//!
//! Division hashes come from [`StreamDivision::division_hash`], the same
//! FNV-1a the model store keys on, so CI pins the search's output
//! against one recorded value.
//!
//! [`StreamDivision::division_hash`]: cce_core::samc::StreamDivision::division_hash

use cce_core::codec::{compress_parallel, worker_count};
use cce_core::isa::mips::encode_text;
use cce_core::obs::JsonWriter;
use cce_core::samc::store::{CachedTrainer, ModelStore};
use cce_core::samc::{
    optimize_division_reference, optimize_division_with_workers, OptimizeConfig, SamcConfig,
};
use cce_core::workload::{generate_mips_seeded, Spec95};
use std::error::Error;
use std::time::Instant;

/// Workload profile: "go" at [`WORKLOAD_SCALE`] is ~8.2k instruction
/// words, comfortably above the default 4096-unit evaluation sample.
const PROFILE: &str = "go";
/// Workload scale, fixed so artifacts compare across runs.
const WORKLOAD_SCALE: f64 = 0.5;
/// Workload seed: the only value CI, the tests and the committed
/// artifact use.
const SEED: u64 = 0xDAC1998;
/// Block size the searches optimize for.
const BLOCK_SIZE: u8 = 32;
/// Fast-path runs; the best is reported, since a single sample of a
/// search this short is noise-dominated.
const FAST_RUNS: usize = 5;
/// Restarts of the multi-restart leg.
const RESTARTS: usize = 8;
/// Programs of the model-cache leg.  "go" leads so its cold division
/// hash matches the pinned top-level one (same workload, same search).
const CACHE_PROGRAMS: [&str; 3] = ["go", "compress", "ijpeg"];

/// The 8-restart search over the worker pool.
#[derive(Debug, Clone)]
pub struct MultiRestart {
    /// Worker threads the restarts fan out over.
    pub workers: usize,
    /// Wall-clock time.
    pub ms: f64,
    /// Cost of the best division found.
    pub cost_bits: f64,
}

/// The model-cache leg: three programs trained twice through one fresh
/// store.
#[derive(Debug, Clone)]
pub struct ModelCacheLeg {
    /// First pass: the leading program trains cold, the rest
    /// warm-start from its cached division.
    pub cold_ms: f64,
    /// Second pass: every request should be an exact-key hit.
    pub warm_ms: f64,
    /// Where each first-pass model came from.
    pub cold_sources: Vec<String>,
    /// Exact-key hits in the second pass.
    pub warm_hits: usize,
    /// Whether every second-pass image equals its first-pass image.
    pub warm_matches_cold: bool,
    /// Division hash of the leading program's cold model.
    pub cold_division_hash: u64,
}

impl ModelCacheLeg {
    /// Cold-over-warm time ratio.
    pub fn warm_speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-9)
    }
}

/// One run of the optimizer benchmark.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// 32-bit instruction words in the workload.
    pub units: usize,
    /// Search settings shared by both implementations.
    pub config: OptimizeConfig,
    /// Reference search wall-clock time.
    pub reference_ms: f64,
    /// Best incremental search wall-clock time.
    pub fast_ms: f64,
    /// Whether the incremental search returned the reference division.
    pub matches_reference: bool,
    /// Cost of the incremental search's division.
    pub cost_bits: f64,
    /// Cost of the reference search's division.
    pub reference_cost_bits: f64,
    /// Hash of the incremental search's division.
    pub division_hash: u64,
    /// The multi-restart leg.
    pub multi_restart: MultiRestart,
    /// The model-cache leg.
    pub model_cache: ModelCacheLeg,
}

impl OptimizerReport {
    /// Reference-over-incremental time ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms.max(1e-9)
    }

    /// Renders the `BENCH_optimizer.json` artifact: one line, with a
    /// final newline (see README).
    pub fn to_json(&self) -> String {
        let multi = &self.multi_restart;
        let cache = &self.model_cache;
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("version").int(1).key("benchmark").string("optimizer");
            w.key("workload").object(|w| {
                w.key("profile").string(PROFILE).key("scale").number(WORKLOAD_SCALE);
                w.key("seed").int(SEED).key("units").int(self.units);
            });
            w.key("config").object(|w| {
                w.key("streams").int(self.config.streams);
                w.key("iterations").int(self.config.iterations);
                w.key("sample_units").int(self.config.sample_units);
                w.key("seed").int(self.config.seed);
            });
            w.key("reference_ms").fixed(self.reference_ms, 3);
            w.key("fast_ms").fixed(self.fast_ms, 3);
            w.key("speedup").fixed(self.speedup(), 2);
            w.key("matches_reference").bool(self.matches_reference);
            w.key("cost_bits").fixed(self.cost_bits, 3);
            w.key("reference_cost_bits").fixed(self.reference_cost_bits, 3);
            w.key("division_hash").string(&format!("{:016x}", self.division_hash));
            w.key("multi_restart").object(|w| {
                w.key("restarts").int(RESTARTS).key("workers").int(multi.workers);
                w.key("ms").fixed(multi.ms, 3).key("cost_bits").fixed(multi.cost_bits, 3);
            });
            w.key("model_cache").object(|w| {
                w.key("programs").strings(CACHE_PROGRAMS);
                w.key("cold_ms").fixed(cache.cold_ms, 3);
                w.key("warm_ms").fixed(cache.warm_ms, 3);
                w.key("warm_speedup").fixed(cache.warm_speedup(), 2);
                w.key("cold_sources").strings(&cache.cold_sources);
                w.key("warm_hits").int(cache.warm_hits);
                w.key("warm_matches_cold").bool(cache.warm_matches_cold);
                w.key("cold_division_hash").string(&format!("{:016x}", cache.cold_division_hash));
            });
        });
        let mut json = w.finish();
        json.push('\n');
        json
    }
}

/// The benchmark's MIPS text for one suite profile.
fn workload(name: &str) -> Vec<u8> {
    let profile = Spec95::by_name(name).expect("profile is in the suite");
    encode_text(&generate_mips_seeded(profile, WORKLOAD_SCALE, SEED))
}

/// Milliseconds since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the benchmark once.  The model-cache leg uses a fresh store
/// under the system temp directory and removes it afterwards.
pub fn run() -> Result<OptimizerReport, Box<dyn Error>> {
    let text = workload(PROFILE);
    let units: Vec<u32> = text
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let config = OptimizeConfig::default();

    let start = Instant::now();
    let (reference_division, reference_cost) =
        optimize_division_reference(&units, BLOCK_SIZE, &config);
    let reference_ms = ms_since(start);

    let (mut fast_ms, mut fast) = (f64::INFINITY, None);
    for _ in 0..FAST_RUNS {
        let start = Instant::now();
        let result = optimize_division_with_workers(&units, BLOCK_SIZE, &config, 1);
        fast_ms = fast_ms.min(ms_since(start));
        fast = Some(result);
    }
    let (division, cost) = fast.expect("at least one run");

    let workers = worker_count();
    let multi = OptimizeConfig { restarts: RESTARTS, ..config.clone() };
    let start = Instant::now();
    let (_, multi_cost) = optimize_division_with_workers(&units, BLOCK_SIZE, &multi, workers);
    let multi_restart = MultiRestart { workers, ms: ms_since(start), cost_bits: multi_cost };

    let cache_dir =
        std::env::temp_dir().join(format!("cce-bench-model-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let model_cache = model_cache_leg(&cache_dir, &config, workers);
    std::fs::remove_dir_all(&cache_dir).ok();

    Ok(OptimizerReport {
        units: units.len(),
        config,
        reference_ms,
        fast_ms,
        matches_reference: division == reference_division,
        cost_bits: cost,
        reference_cost_bits: reference_cost,
        division_hash: division.division_hash(),
        multi_restart,
        model_cache: model_cache?,
    })
}

/// Trains [`CACHE_PROGRAMS`] twice through a fresh store at `dir`.  The
/// first pass trains (cold, then warm-started from the first program's
/// cached division); the second must be all exact-key hits, so its time
/// is the amortized per-request cost.
fn model_cache_leg(
    dir: &std::path::Path,
    config: &OptimizeConfig,
    workers: usize,
) -> Result<ModelCacheLeg, Box<dyn Error>> {
    let texts: Vec<Vec<u8>> = CACHE_PROGRAMS.iter().map(|name| workload(name)).collect();
    let mut trainer = CachedTrainer::new(ModelStore::open(dir)?, CACHE_PROGRAMS.len());
    let samc_config = SamcConfig::mips();

    let mut cold_sources = Vec::new();
    let mut cold_images = Vec::new();
    let start = Instant::now();
    for text in &texts {
        let outcome = trainer.train(text, &samc_config, config)?;
        cold_sources.push(outcome.source.to_string());
        cold_images.push(compress_parallel(&outcome.codec, text, workers)?);
    }
    let cold_ms = ms_since(start);
    let cold_division_hash =
        trainer.train(&texts[0], &samc_config, config)?.codec.config().division.division_hash();

    let mut warm_hits = 0usize;
    let mut warm_matches_cold = true;
    let start = Instant::now();
    for (text, cold_image) in texts.iter().zip(&cold_images) {
        let outcome = trainer.train(text, &samc_config, config)?;
        warm_hits += usize::from(outcome.source.is_hit());
        warm_matches_cold &= compress_parallel(&outcome.codec, text, workers)? == *cold_image;
    }
    Ok(ModelCacheLeg {
        cold_ms,
        warm_ms: ms_since(start),
        cold_sources,
        warm_hits,
        warm_matches_cold,
        cold_division_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_the_pinned_artifact_fields() {
        let json = run().expect("benchmark runs").to_json();
        // The incremental search must reproduce the reference
        // implementation; the division hash is the same one
        // scripts/ci.sh pins (float results are identical across
        // debug/release, so the pin holds here too).
        for needle in [
            "\"benchmark\":\"optimizer\"",
            "\"matches_reference\":true",
            "\"division_hash\":\"49bc0a2a57dccd29\"",
            "\"multi_restart\":",
            // Model-cache leg: the warm pass must be all exact-key hits
            // that reproduce the cold images, and the cold "go" search
            // lands on the same pinned division as the top-level search.
            "\"model_cache\":",
            "\"cold_sources\":[\"cold miss\",\"warm miss\",\"warm miss\"]",
            "\"warm_hits\":3",
            "\"warm_matches_cold\":true",
            "\"cold_division_hash\":\"49bc0a2a57dccd29\"",
            "\"warm_speedup\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // JSON artifacts are text files; POSIX tooling expects the final
        // newline the reporter once dropped.
        assert!(json.ends_with('\n'), "artifact must end with a newline");
        assert!(!json[..json.len() - 1].contains('\n'), "artifact is a single JSON line");
    }
}
