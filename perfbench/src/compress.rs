//! `compress`: `cce compress --model-cache` on a warm model store, one
//! program per operation.
//!
//! Set-up is what a build that recompresses its firmware pays once:
//! training each program's SAMC model through the model cache (division
//! search, training, persisting the record) into a fresh store.  An
//! operation then does what the command does on every later build: it
//! opens the ELF image, reads its text, resolves the model from the store
//! (a disk hit; anything else fails the operation) and streams the text
//! through the verified block pipeline into an in-memory v2 container.
//! The container is checked outside the timed part: the codec is rebuilt
//! from the container's own model bytes, as `cce decompress` does, and
//! every block must decode to the original text.  Programs rotate through
//! a pool of same-sized seeded instances, so every operation does
//! comparable work.

use crate::design::{mips_text, reference_slowdown, BLOCK};
use crate::trace::Tracer;
use crate::{obs_value, out_dir, per, Design, Inputs, Layers, Tally, Workload};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::{Class, ElfImage, ElfStream, Endianness, Machine};
use cce_core::isa::Isa;
use cce_core::samc::store::{CacheSource, CachedTrainer, ModelStore};
use cce_core::samc::{OptimizeConfig, SamcConfig};
use cce_core::{streaming, Algorithm};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Integer SPEC95 profile: branchy, irregular code.
const PROFILE: &str = "go";
/// About 128 KiB of text per program.
const SCALE: f64 = 2.0;
/// Programs in the rotation.
const POOL: u64 = 4;
/// Pipeline workers.
const WORKERS: usize = 2;
const ALGORITHM: Algorithm = Algorithm::Samc;
/// In-memory records of a trainer, as the command opens it.
const TRAINER_CAPACITY: usize = 16;

struct Program {
    seed: u64,
    text: Vec<u8>,
    elf: Vec<u8>,
}

struct Programs(Vec<Program>);

pub fn prepare(seed: u64) -> Result<Box<dyn Inputs>, String> {
    let programs = (0..POOL)
        .map(|k| {
            let seed = seed.wrapping_mul(POOL).wrapping_add(k);
            let text = mips_text(PROFILE, SCALE, seed);
            let elf = ElfImage::new_executable(
                Machine::Mips,
                Class::Elf32,
                Endianness::Big,
                text.clone(),
            )
            .to_bytes();
            Program { seed, text, elf }
        })
        .collect();
    Ok(Box::new(Programs(programs)))
}

/// The training request `cce compress --model-cache` makes for MIPS at
/// the benchmark's block size.
fn request() -> (SamcConfig, OptimizeConfig) {
    let config = SamcConfig::mips().with_block_size(BLOCK);
    let optimize =
        OptimizeConfig { streams: config.division.stream_count(), ..OptimizeConfig::default() };
    (config, optimize)
}

impl Inputs for Programs {
    fn setup(&self, tracer: &Tracer) -> Result<Box<dyn Workload + '_>, String> {
        // Set-ups overlap (a run builds more than one), so each gets its
        // own store.
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let store = out_dir().join(format!("models-{}-{n}", std::process::id()));
        if store.exists() {
            std::fs::remove_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        }
        // Made first, so that dropping it removes the store if training
        // fails.
        let workload = Compress {
            programs: &self.0,
            store,
            images: vec![None; self.0.len()],
            encode_ns: 0,
            verify_ns: 0,
            blocks: 0,
            stalls: 0,
        };
        let mut trainer = CachedTrainer::new(
            ModelStore::open(&workload.store).map_err(|e| e.to_string())?,
            TRAINER_CAPACITY,
        );
        let (config, optimize) = request();
        for program in &self.0 {
            let _span = tracer.span("codec.train");
            trainer.train(&program.text, &config, &optimize).map_err(|e| e.to_string())?;
        }
        Ok(Box::new(workload))
    }
}

struct Compress<'a> {
    programs: &'a [Program],
    store: PathBuf,
    /// Compressed bytes and per-block sizes of each program once it has
    /// been compressed.
    images: Vec<Option<(u64, Vec<usize>)>>,
    /// Program-side encode / verify-decode span nanoseconds inside the
    /// pipeline, summed over traced operations.
    encode_ns: u64,
    verify_ns: u64,
    blocks: u64,
    stalls: u64,
}

impl Compress<'_> {
    /// Compresses program `p`, returning the container and the host time
    /// the compression took.
    fn compress(&mut self, p: usize, tracer: &Tracer) -> Result<(Vec<u8>, Duration), String> {
        let program = &self.programs[p];
        let before = tracer.enabled().then(cce_core::obs::snapshot);
        let start = Instant::now();
        let (mut elf, text) = {
            let _span = tracer.span("elf.read");
            let mut elf =
                ElfStream::open(Cursor::new(&program.elf[..])).map_err(|e| e.to_string())?;
            let text = streaming::buffered_text(&mut elf).map_err(|e| e.to_string())?;
            (elf, text)
        };
        let outcome = {
            let _span = tracer.span("model.load");
            let store = ModelStore::open(&self.store).map_err(|e| e.to_string())?;
            let (config, optimize) = request();
            CachedTrainer::new(store, TRAINER_CAPACITY)
                .train(&text, &config, &optimize)
                .map_err(|e| e.to_string())?
        };
        if outcome.source != CacheSource::DiskHit {
            return Err(format!("program {p}: model store gave a {}", outcome.source));
        }
        // As `cce compress` does: the training buffer goes before the
        // compression pass re-reads the text from the stream.
        drop(text);
        let mut container = Vec::new();
        let report = {
            let _span = tracer.span("pipeline.compress_elf");
            streaming::compress_elf(&mut elf, ALGORITHM, &outcome.codec, &mut container, WORKERS)
                .map_err(|e| e.to_string())?
        };
        let elapsed = start.elapsed();
        if let Some(before) = before {
            let after = cce_core::obs::snapshot();
            self.encode_ns += obs_value(&after, "samc.compress.span").1
                - obs_value(&before, "samc.compress.span").1;
            self.verify_ns += obs_value(&after, "samc.decompress.span").1
                - obs_value(&before, "samc.decompress.span").1;
        }
        self.blocks += report.stats.blocks;
        self.stalls += report.stats.stalls;
        Ok((container, elapsed))
    }

    /// Decodes `container` from its own model bytes and checks it against
    /// program `p`; returns the compressed size and per-block sizes.
    fn check(
        &self,
        p: usize,
        container: &[u8],
        tracer: &Tracer,
    ) -> Result<(u64, Vec<usize>), String> {
        let _span = tracer.span("container.decode");
        let mut reader =
            ContainerV2Reader::open(Cursor::new(container)).map_err(|e| e.to_string())?;
        let handle = ALGORITHM
            .build(Isa::Mips, reader.block_size())
            .codec_from_bytes(reader.codec_bytes())
            .map_err(|e| e.to_string())?;
        let codec = handle.as_block().ok_or("SAMC rebuilt a file codec")?;
        let mut decoded = Vec::with_capacity(self.programs[p].text.len());
        let mut sizes = Vec::with_capacity(reader.block_count());
        for index in 0..reader.block_count() {
            let (data, len) = reader.read_block(index).map_err(|e| e.to_string())?;
            decoded.extend(codec.decompress_block(&data, len).map_err(|e| e.to_string())?);
            sizes.push(data.len());
        }
        if decoded != self.programs[p].text {
            return Err(format!("program {p}: container does not decode to its text"));
        }
        Ok((reader.summary().compressed_len() as u64, sizes))
    }

    fn op(&mut self, p: usize, tracer: &Tracer) -> Result<Duration, String> {
        let (container, elapsed) = self.compress(p, tracer)?;
        let image = self.check(p, &container, tracer)?;
        self.images[p].get_or_insert(image);
        Ok(elapsed)
    }
}

impl Workload for Compress<'_> {
    fn step(&mut self, i: u64, tracer: &Tracer, tally: &mut Tally) {
        tally.record(self.op((i % POOL) as usize, tracer));
    }

    fn design(&mut self) -> Result<Design, String> {
        let mut compressed = 0;
        let mut text = 0;
        let mut slowdown = 0.0;
        for p in 0..self.programs.len() {
            if self.images[p].is_none() {
                let tracer = Tracer::new(false);
                let (container, _) = self.compress(p, &tracer)?;
                self.images[p] = Some(self.check(p, &container, &tracer)?);
            }
            let program = &self.programs[p];
            let (bytes, sizes) = self.images[p].as_ref().expect("ensured above");
            compressed += bytes;
            text += program.text.len() as u64;
            slowdown += reference_slowdown(sizes, program.text.len(), program.seed);
        }
        Ok(Design {
            ratio: compressed as f64 / text as f64,
            slowdown: slowdown / self.programs.len() as f64,
        })
    }

    fn layers(&self, tracer: &Tracer, tally: &Tally, out: &mut Layers) {
        let ops = tally.attempted as f64;
        let per_op = |name| per(tracer.total(name).total_ns as f64, ops) / 1e6;
        let train = tracer.total("codec.train");
        out.insert("train_ms", per(train.total_ns as f64, train.count as f64) / 1e6);
        out.insert("elf_read_ms", per_op("elf.read"));
        out.insert("model_load_ms", per_op("model.load"));
        out.insert("pipeline_ms", per_op("pipeline.compress_elf"));
        out.insert("encode_cpu_ms", per(self.encode_ns as f64, ops) / 1e6);
        out.insert("verify_cpu_ms", per(self.verify_ns as f64, ops) / 1e6);
        out.insert("pipeline_blocks", per(self.blocks as f64, ops));
        out.insert("pipeline_stalls", per(self.stalls as f64, ops));
        out.insert("container_decode_ms", per_op("container.decode"));
    }
}

impl Drop for Compress<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store);
    }
}
