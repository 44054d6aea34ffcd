//! `refill`: functional co-simulation of the compressed-code memory
//! system.
//!
//! An operation runs one instruction-fetch trace through a fresh
//! (empty) reference I-cache and CLB; every miss really decodes the
//! missed block out of a SAMC image and the simulator checks the bytes
//! against the program text.  This exercises the simulator's miss path
//! and per-block arithmetic decoding together, which the `sweep`
//! workload (timing only, no decoding) does not.  Each report must equal
//! the timing-only simulation of the same trace on an image built
//! independently before the run.  Set-up is training the codec and
//! building the image and its line address table.

use crate::design::{
    mips_text, reference_trace, BLOCK, REFERENCE_CACHE, REFERENCE_CLB, REFERENCE_TRACES,
};
use crate::trace::Tracer;
use crate::{per, Design, Inputs, Layers, Tally, Workload};
use cce_core::codec::{compress_parallel, BlockCodec, BlockImage};
use cce_core::isa::Isa;
use cce_core::memsim::{CostModel, LineAddressTable, MemorySystem, RefillDecompressor, SimReport};
use cce_core::{Algorithm, CodecHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The largest integer profile: about 224 KiB of text, 55× the cache.
const PROFILE: &str = "gcc";
const SCALE: f64 = 1.0;
const ALGORITHM: Algorithm = Algorithm::Samc;

struct Traces {
    text: Vec<u8>,
    traces: Vec<Vec<u64>>,
    /// Timing-only report and uncompressed baseline per trace.
    expected: Vec<(SimReport, SimReport)>,
}

struct Refill<'a> {
    inputs: &'a Traces,
    handle: CodecHandle,
    image: BlockImage,
    lat: Arc<LineAddressTable>,
    /// Summed over operations: (fetches, cache hits, CLB hits, CLB lookups).
    seen: (u64, u64, u64, u64),
}

/// Decodes missed blocks out of the image, one span per refill.
struct CodecRefill<'a> {
    codec: &'a dyn BlockCodec,
    image: &'a BlockImage,
    tracer: &'a Tracer,
}

impl RefillDecompressor for CodecRefill<'_> {
    fn refill(&self, index: usize, out_len: usize) -> Option<Vec<u8>> {
        let _span = self.tracer.span("refill.decode");
        if index >= self.image.block_count() {
            return None;
        }
        self.codec.decompress_block(self.image.block(index), out_len).ok()
    }
}

pub fn prepare(seed: u64) -> Result<Box<dyn Inputs>, String> {
    let text = mips_text(PROFILE, SCALE, seed);
    let traces =
        (0..REFERENCE_TRACES).map(|k| reference_trace(text.len(), seed, k)).collect::<Vec<_>>();
    let mut inputs = Traces { text, traces, expected: Vec::new() };
    let (_, _, lat) = build(&inputs.text, &Tracer::new(false))?;
    let costs = CostModel::default();
    inputs.expected = inputs
        .traces
        .iter()
        .map(|trace| {
            let report =
                MemorySystem::compressed(REFERENCE_CACHE, costs, Arc::clone(&lat), REFERENCE_CLB)
                    .run(trace);
            let baseline = MemorySystem::uncompressed(REFERENCE_CACHE, costs).run(trace);
            (report, baseline)
        })
        .collect();
    Ok(Box::new(inputs))
}

/// Trains the codec on `text` and builds its image and line address
/// table.
fn build(
    text: &[u8],
    tracer: &Tracer,
) -> Result<(CodecHandle, BlockImage, Arc<LineAddressTable>), String> {
    let handle = {
        let _span = tracer.span("codec.train");
        ALGORITHM.build(Isa::Mips, BLOCK).train(text).map_err(|e| e.to_string())?
    };
    let image = {
        let _span = tracer.span("image.compress");
        let codec = handle.as_block().ok_or("SAMC built a file codec")?;
        compress_parallel(codec, text, 1).map_err(|e| e.to_string())?
    };
    let lat = Arc::new(LineAddressTable::from_image(&image));
    Ok((handle, image, lat))
}

impl Inputs for Traces {
    fn setup(&self, tracer: &Tracer) -> Result<Box<dyn Workload + '_>, String> {
        let (handle, image, lat) = build(&self.text, tracer)?;
        Ok(Box::new(Refill { inputs: self, handle, image, lat, seen: (0, 0, 0, 0) }))
    }
}

impl Refill<'_> {
    fn op(&mut self, i: u64, tracer: &Tracer) -> Result<Duration, String> {
        let t = (i % REFERENCE_TRACES) as usize;
        let codec = self.handle.as_block().ok_or("SAMC built a file codec")?;
        let adapter = CodecRefill { codec, image: &self.image, tracer };
        let trace = &self.inputs.traces[t];
        let mut system = MemorySystem::compressed(
            REFERENCE_CACHE,
            CostModel::default(),
            Arc::clone(&self.lat),
            REFERENCE_CLB,
        );
        let start = Instant::now();
        let report = {
            let _span = tracer.span("memsim.run_functional");
            catch_unwind(AssertUnwindSafe(|| {
                system.run_functional(trace, &adapter, &self.inputs.text)
            }))
            .map_err(|_| format!("trace {t}: a refill decoded wrong bytes"))?
        };
        let elapsed = start.elapsed();
        if report != self.inputs.expected[t].0 {
            return Err(format!("trace {t}: functional report differs from the timing-only one"));
        }
        self.seen.0 += report.fetches;
        self.seen.1 += report.cache.hits;
        self.seen.2 += report.clb_hits;
        self.seen.3 += report.clb_hits + report.clb_misses;
        Ok(elapsed)
    }
}

impl Workload for Refill<'_> {
    fn step(&mut self, i: u64, tracer: &Tracer, tally: &mut Tally) {
        tally.record(self.op(i, tracer));
    }

    fn design(&mut self) -> Result<Design, String> {
        let expected = &self.inputs.expected;
        let slowdown: f64 = expected.iter().map(|(r, b)| r.slowdown_vs(b)).sum();
        Ok(Design { ratio: self.image.ratio(), slowdown: slowdown / expected.len() as f64 })
    }

    fn layers(&self, tracer: &Tracer, tally: &Tally, out: &mut Layers) {
        let ops = tally.attempted as f64;
        let train = tracer.total("codec.train");
        let image = tracer.total("image.compress");
        let run = tracer.total("memsim.run_functional");
        let refill = tracer.total("refill.decode");
        out.insert("train_ms", per(train.total_ns as f64, train.count as f64) / 1e6);
        out.insert("image_build_ms", per(image.total_ns as f64, image.count as f64) / 1e6);
        out.insert("memsim_ms", per(run.self_ns as f64, ops) / 1e6);
        out.insert("refill_decode_ms", per(refill.total_ns as f64, ops) / 1e6);
        out.insert("refills", per(refill.count as f64, ops));
        let (fetches, cache_hits, clb_hits, clb_lookups) = self.seen;
        out.insert("cache_hit_ratio", per(cache_hits as f64, fetches as f64));
        out.insert("clb_hit_ratio", per(clb_hits as f64, clb_lookups as f64));
        out.insert("sim_ns_per_fetch", per(run.self_ns as f64, fetches as f64));
    }
}
