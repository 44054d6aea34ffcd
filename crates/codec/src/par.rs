//! Deterministic scoped worker pool and the whole-program compression
//! path built on it.
//!
//! Built on `std::thread::scope` only — no external dependencies, per the
//! workspace's hermetic-build policy. Work items are claimed from a shared
//! atomic counter, but every result is tagged with its item index and
//! scattered back into position after the join, so the output order (and
//! therefore every figure built from it) is byte-identical regardless of
//! worker count or scheduling.
//!
//! Every block of a program is compressed on its own (that is what lets
//! the refill engine decode any block through the LAT), so whole-program
//! compression is one ordered [`parallel_map`] over
//! [`block_ranges`](BlockCodec::block_ranges): [`compress_parallel`] and
//! [`compress_verified`] differ only in whether each worker also
//! round-trips its block.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::CodecError;
use crate::image::BlockImage;
use crate::traits::BlockCodec;

/// Number of workers the pipeline should use.
///
/// Reads the `CCE_WORKERS` environment variable (clamped to 1..=1024);
/// otherwise the machine's available parallelism, falling back to 1.
pub fn worker_count() -> usize {
    if let Ok(raw) = std::env::var("CCE_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if (1..=1024).contains(&n) {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item of `items` across `workers` threads,
/// returning results in item order.
///
/// `f` receives `(index, &item)`. With `workers <= 1` (or a single item)
/// this runs serially on the calling thread; otherwise a scoped pool
/// claims items dynamically, which balances uneven per-item cost (large
/// benchmarks next to small ones) without giving up a deterministic
/// result order.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    crate::obs::PAR_RUNS.incr();
    crate::obs::PAR_ITEMS.add(items.len() as u64);
    let _stage = crate::obs::PAR_STAGE_SPAN.time();
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| timed(&f, i, item)).collect();
    }
    // The first claimed item leaves every other one queued: the run's
    // deepest queue, recorded once rather than by every claim.
    crate::obs::PAR_QUEUE_DEPTH.set_max((items.len() - 1) as u64);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, timed(&f, index, &items[index])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for (index, result) in collected.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("every index visited")).collect()
}

/// Runs `f` on one item, recording its latency in the stage histogram.
///
/// `cce_obs::enabled()` is `const`, so the timed branch (and its clock
/// reads) folds away entirely when observability is compiled out.
#[inline]
fn timed<T, R, F>(f: &F, index: usize, item: &T) -> R
where
    F: Fn(usize, &T) -> R,
{
    if cce_obs::enabled() {
        let start = std::time::Instant::now();
        let result = f(index, item);
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        crate::obs::PAR_STAGE_MICROS.record(micros);
        result
    } else {
        f(index, item)
    }
}

/// Compresses `text` with `codec`, fanning blocks across `workers`
/// threads.
///
/// The block division comes from the same
/// [`block_ranges`](BlockCodec::block_ranges) call as the serial path
/// and results are kept in block order, so the [`BlockImage`] is
/// byte-identical to [`BlockCodec::compress`] at any worker count.
///
/// # Errors
///
/// Propagates chunking failures and the first (by block index) per-chunk
/// compression failure — the same error the serial path reports.
pub fn compress_parallel(
    codec: &dyn BlockCodec,
    text: &[u8],
    workers: usize,
) -> Result<BlockImage, CodecError> {
    compress_blocks(codec, text, workers, false)
}

/// [`compress_parallel`] that also round-trips every block in its
/// worker: each compressed block must decompress to exactly its chunk.
///
/// The blocks are contiguous and cover `text`, so this proves the same
/// thing as decompressing the whole image and comparing it with `text`,
/// without a second serial pass.
///
/// # Errors
///
/// As [`compress_parallel`], plus the lowest-indexed block's
/// decompression failure or [`CodecError::RoundTrip`] when a block does
/// not reproduce its chunk.
pub fn compress_verified(
    codec: &dyn BlockCodec,
    text: &[u8],
    workers: usize,
) -> Result<BlockImage, CodecError> {
    compress_blocks(codec, text, workers, true)
}

/// The one whole-program compression path: an ordered
/// [`parallel_map`] over the codec's block ranges.
fn compress_blocks(
    codec: &dyn BlockCodec,
    text: &[u8],
    workers: usize,
    verify: bool,
) -> Result<BlockImage, CodecError> {
    let ranges = codec.block_ranges(text)?;
    crate::obs::PIPELINE_BLOCKS.add(ranges.len() as u64);
    crate::obs::PIPELINE_BYTES.add(text.len() as u64);
    let results = parallel_map(workers, &ranges, |_, range| {
        let chunk = &text[range.clone()];
        let block = codec.compress_chunk(chunk)?;
        if verify && codec.decompress_block(&block, chunk.len())? != chunk {
            return Err(CodecError::round_trip(codec.name()));
        }
        Ok(block)
    });
    // Collecting stops at the first `Err` in block order: the error the
    // serial path reports, whatever order the workers finished in.
    let blocks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(BlockImage::new(
        blocks,
        ranges.iter().map(|range| range.len()).collect(),
        codec.block_size(),
        text.len(),
        codec.model_bytes(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64, 1000] {
            assert_eq!(parallel_map(workers, &items, |_, &x| x * 3), expected);
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    struct Verbatim;

    impl BlockCodec for Verbatim {
        fn name(&self) -> &'static str {
            "verbatim"
        }
        fn block_size(&self) -> usize {
            16
        }
        fn model_bytes(&self) -> usize {
            0
        }
        fn to_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
            Ok(chunk.to_vec())
        }
        fn decompress_block(&self, block: &[u8], _out_len: usize) -> Result<Vec<u8>, CodecError> {
            Ok(block.to_vec())
        }
    }

    #[test]
    fn compress_parallel_matches_serial() {
        let codec = Verbatim;
        let text: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let serial = BlockCodec::compress(&codec, &text).unwrap();
        for workers in [1, 2, 3, 8] {
            assert_eq!(compress_parallel(&codec, &text, workers).unwrap(), serial);
            assert_eq!(compress_verified(&codec, &text, workers).unwrap(), serial);
        }
    }

    /// A verbatim codec with 4-byte blocks that refuses any chunk holding
    /// the byte `0xEE` and, when `lie` is set, decodes every block with
    /// its first byte flipped.
    struct Picky {
        lie: bool,
    }

    impl BlockCodec for Picky {
        fn name(&self) -> &'static str {
            "picky"
        }
        fn block_size(&self) -> usize {
            4
        }
        fn model_bytes(&self) -> usize {
            0
        }
        fn to_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
            match chunk.iter().position(|&b| b == 0xEE) {
                Some(at) => Err(CodecError::train("picky", format!("poison byte at {at}"))),
                None => Ok(chunk.to_vec()),
            }
        }
        fn decompress_block(&self, block: &[u8], _out_len: usize) -> Result<Vec<u8>, CodecError> {
            let mut out = block.to_vec();
            if let (true, Some(b)) = (self.lie, out.first_mut()) {
                *b ^= 1;
            }
            Ok(out)
        }
    }

    #[test]
    fn the_lowest_index_error_matches_serial_at_any_worker_count() {
        let codec = Picky { lie: false };
        // Poison two blocks (at different offsets within them, so their
        // errors differ); the lower-indexed one must win at any worker
        // count, matching what serial compression reports.
        let mut text = vec![1u8; 400];
        text[101] = 0xEE; // block 25
        text[42] = 0xEE; // block 10
        let serial_err = BlockCodec::compress(&codec, &text).unwrap_err();
        assert_eq!(serial_err.to_string(), "picky: cannot train: poison byte at 2");
        for workers in [1, 2, 8] {
            for result in [
                compress_parallel(&codec, &text, workers),
                compress_verified(&codec, &text, workers),
            ] {
                assert_eq!(result.unwrap_err().to_string(), serial_err.to_string());
            }
        }
    }

    #[test]
    fn compress_verified_catches_a_lying_codec() {
        let codec = Picky { lie: true };
        let text = vec![7u8; 64];
        for workers in [1, 2] {
            let err = compress_verified(&codec, &text, workers).unwrap_err();
            assert!(matches!(err, CodecError::RoundTrip { .. }), "{err}");
            // The unverified entry point takes the codec at its word.
            assert!(compress_parallel(&codec, &text, workers).is_ok());
        }
    }
}
