//! Read side of a published image: open, integrity-checked block
//! fetch, and full-text decode.
//!
//! [`Artifact::open`] checks the image's length against its digest
//! record, verifies the head and tail extents, and places every block
//! in the run that holds it (cheap).  A block read needs its *run*.
//! The first read of a run pulls it from the image with one positioned
//! read and checks its SHA-256 against the record; only bytes that pass
//! enter a byte-bounded LRU of verified chunks ([`VERIFIED_CHUNK_BYTES`];
//! a cached run is a *chunk*), and later reads slice their block out of
//! that copy without touching the disk.  A run that fails its check is
//! never cached, so it answers a typed [`ServeError::Corrupt`] naming
//! the run on every read — never garbage handed to a codec.
//!
//! The integrity contract is therefore *verified at load*: an artifact
//! serves only bytes that matched the record when they were read.  A
//! run corrupted on disk after it was cached keeps being served from
//! the verified copy, while [`verify_dir`](crate::verify_dir) reports
//! the run on disk.

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::obs;
use crate::publish::{open_image, read_extent};
use crate::record::{DigestRecord, MAX_RUN_LEN};
use cce_codec::BlockCodec;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Byte budget of each artifact's verified-chunk cache.  It holds the
/// longest run a digest record admits, so any valid run can be cached.
pub const VERIFIED_CHUNK_BYTES: usize = 32 << 20;

const _: () = assert!(VERIFIED_CHUNK_BYTES as u64 >= MAX_RUN_LEN);

/// Where one compressed block lies in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset in the image file.
    pub offset: u64,
    /// Compressed length in bytes.
    pub len: u32,
    /// Length the block decodes to.
    pub uncompressed_len: u32,
}

/// The verified-chunk cache's counters (the `chunk_*` fields of the
/// daemon's `stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkStats {
    /// Runs read from disk and verified.
    pub(crate) loads: u64,
    /// Block reads served from a cached verified run.
    pub(crate) hits: u64,
    /// Verified run bytes resident now (at most
    /// [`VERIFIED_CHUNK_BYTES`]).
    pub(crate) resident_bytes: usize,
}

/// An opened image directory.
pub struct Artifact {
    image: File,
    record: DigestRecord,
    info: Vec<u8>,
    blocks: Vec<BlockEntry>,
    /// The run holding each block (an index into `record.runs()`).
    block_runs: Vec<usize>,
    /// Verified run bytes by run index, each costing its length.
    chunks: Mutex<LruCache<Arc<[u8]>>>,
    chunk_loads: AtomicU64,
    chunk_hits: AtomicU64,
}

impl Artifact {
    /// Opens the image in `<dir>` under its parsed digest `record`:
    /// checks the image's length, verifies the head and tail extents,
    /// and places each of `blocks` in the run that holds it.  `info` is
    /// the `get-manifest` reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the image length differs from the
    /// record's, the head or tail digest differs, or a block does not
    /// lie inside one run.
    pub fn open(
        dir: &Path,
        record: DigestRecord,
        blocks: Vec<BlockEntry>,
        info: Vec<u8>,
    ) -> Result<Self, ServeError> {
        let image = open_image(dir, &record)?;
        read_extent(&image, &record, 0)?;
        read_extent(&image, &record, record.extents().len() - 1)?;
        let runs = record.runs();
        let block_runs = blocks
            .iter()
            .enumerate()
            .map(|(i, block)| {
                let run = runs.partition_point(|r| r.start <= block.offset).checked_sub(1);
                run.filter(|&r| block.offset.saturating_add(block.len.into()) <= runs[r].end())
                    .ok_or_else(|| {
                        ServeError::corrupt(format!("block {i}"), "does not lie inside one run")
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            image,
            record,
            info,
            blocks,
            block_runs,
            chunks: Mutex::new(LruCache::new(VERIFIED_CHUNK_BYTES)),
            chunk_loads: AtomicU64::new(0),
            chunk_hits: AtomicU64::new(0),
        })
    }

    /// The digest record the artifact was opened under.
    #[cfg(test)]
    pub(crate) fn record(&self) -> &DigestRecord {
        &self.record
    }

    /// The `get-manifest` reply.
    pub fn info(&self) -> &[u8] {
        &self.info
    }

    /// Number of blocks in the artifact.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The run holding `block`, or `None` past the end.
    #[cfg(test)]
    pub(crate) fn run_of(&self, block: usize) -> Option<usize> {
        self.block_runs.get(block).copied()
    }

    /// Reads compressed block `block`, returning `(data,
    /// uncompressed_len)`.  The run holding it comes from the
    /// verified-chunk cache, or is read and verified first, so
    /// corruption found on disk is caught before any codec sees the
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] past the end; [`ServeError::Corrupt`]
    /// naming the run on a short read or digest mismatch.
    pub fn read_block(&self, block: usize) -> Result<(Vec<u8>, usize), ServeError> {
        let entry = *self
            .blocks
            .get(block)
            .ok_or_else(|| ServeError::NotFound(format!("block {block}")))?;
        let run = self.block_runs[block];
        let bytes = self.verified_run(run)?;
        let local = (entry.offset - self.record.runs()[run].start) as usize;
        // In range: open checked that the block lies inside its run,
        // and the run's bytes matched its digest.
        Ok((bytes[local..local + entry.len as usize].to_vec(), entry.uncompressed_len as usize))
    }

    /// Run `run`'s bytes: the cached verified copy, or a fresh read
    /// and check that is cached once it passes.  The lock covers only
    /// the lookup and the insert, never the read or the hash, so two
    /// connections missing the same run at once may both load it.
    fn verified_run(&self, run: usize) -> Result<Arc<[u8]>, ServeError> {
        if let Some(bytes) = self.chunk_cache().get(run) {
            self.chunk_hits.fetch_add(1, Ordering::Relaxed);
            obs::SERVE_CHUNK_HITS.incr();
            return Ok(bytes);
        }
        let bytes: Arc<[u8]> = read_extent(&self.image, &self.record, run + 1)?.into();
        self.chunk_loads.fetch_add(1, Ordering::Relaxed);
        obs::SERVE_CHUNK_LOADS.incr();
        self.chunk_cache().insert(run, bytes.clone(), bytes.len());
        Ok(bytes)
    }

    fn chunk_cache(&self) -> std::sync::MutexGuard<'_, LruCache<Arc<[u8]>>> {
        self.chunks.lock().expect("chunk cache lock")
    }

    /// The verified-chunk cache's counters.
    pub(crate) fn chunk_stats(&self) -> ChunkStats {
        ChunkStats {
            loads: self.chunk_loads.load(Ordering::Relaxed),
            hits: self.chunk_hits.load(Ordering::Relaxed),
            resident_bytes: self.chunk_cache().cost(),
        }
    }

    /// Decodes the whole text by fetching and decompressing every
    /// block in order (the client-side `fetch text` path).
    ///
    /// # Errors
    ///
    /// Any [`read_block`](Self::read_block) failure or codec error.
    pub fn decode_text(&self, codec: &dyn BlockCodec) -> Result<Vec<u8>, ServeError> {
        let mut out = Vec::new();
        for block in 0..self.block_count() {
            let (data, ulen) = self.read_block(block)?;
            let decoded = codec.decompress_block(&data, ulen)?;
            if decoded.len() != ulen {
                return Err(ServeError::corrupt(
                    format!("block {block}"),
                    format!("decoded {} bytes, index says {ulen}", decoded.len()),
                ));
            }
            out.extend_from_slice(&decoded);
        }
        Ok(out)
    }
}

/// Test fixture shared by the unit tests: publishes `blocks` as an
/// image (8-byte head, runs packed to `chunk_payload`, 8-byte tail)
/// and returns the block table [`Artifact::open`] takes.
#[cfg(test)]
pub(crate) fn publish_blocks(
    dir: &Path,
    blocks: &[Vec<u8>],
    chunk_payload: u64,
) -> Vec<BlockEntry> {
    let runs =
        crate::publish::pack_runs(blocks.iter().map(|b| b.len() as u64), chunk_payload).unwrap();
    let mut extents = vec![b"headhead".to_vec()];
    let mut entries = Vec::new();
    let mut next = blocks.iter();
    let mut offset = 8u64;
    for run in runs {
        let mut bytes = Vec::new();
        while (bytes.len() as u64) < run {
            let block = next.next().unwrap();
            entries.push(BlockEntry {
                offset,
                len: block.len() as u32,
                uncompressed_len: block.len() as u32,
            });
            offset += block.len() as u64;
            bytes.extend_from_slice(block);
        }
        extents.push(bytes);
    }
    extents.push(b"tailtail".to_vec());
    crate::publish::publish(dir, extents.into_iter().map(Ok)).unwrap();
    entries
}

/// Opens what [`publish_blocks`] wrote.
#[cfg(test)]
pub(crate) fn open_blocks(dir: &Path, blocks: Vec<BlockEntry>) -> Result<Artifact, ServeError> {
    Artifact::open(dir, DigestRecord::read(dir)?, blocks, b"info".to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IMAGE_FILE;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Flips the byte at `offset` of the published image.
    fn flip(dir: &Path, offset: u64) {
        let path = dir.join(IMAGE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[offset as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn every_block_reads_back_byte_identical() {
        let dir = temp_dir("roundtrip");
        let blocks: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i ^ 0x5a; 10 + 7 * i as usize]).collect();
        let artifact = open_blocks(&dir, publish_blocks(&dir, &blocks, 64)).unwrap();
        assert_eq!(artifact.block_count(), blocks.len());
        for (i, expect) in blocks.iter().enumerate() {
            let (data, ulen) = artifact.read_block(i).unwrap();
            assert_eq!(&data, expect, "block {i}");
            assert_eq!(ulen, expect.len());
        }
        assert!(matches!(artifact.read_block(blocks.len()), Err(ServeError::NotFound(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_chunk_read_names_the_chunk() {
        let dir = temp_dir("corrupt");
        let blocks: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 30]).collect();
        let artifact = open_blocks(&dir, publish_blocks(&dir, &blocks, 64)).unwrap();
        let run = artifact.run_of(4).unwrap();
        flip(&dir, artifact.record().runs()[run].end() - 1);
        // A run that fails its check is not cached: every read of it
        // fails the same way.
        for _ in 0..2 {
            let err = artifact.read_block(4).unwrap_err();
            assert!(err.to_string().contains(&format!("run {run}:")), "{err}");
        }
        assert_eq!(artifact.chunk_stats().resident_bytes, 0);
        // Blocks in other runs still read fine — corruption is local.
        let other = (0..blocks.len())
            .find(|&b| artifact.run_of(b) != Some(run))
            .expect("payload 64 splits 6×30-byte blocks across runs");
        artifact.read_block(other).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_chunk_is_read_and_verified_once() {
        let dir = temp_dir("once");
        let blocks: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20]).collect();
        let artifact = open_blocks(&dir, publish_blocks(&dir, &blocks, 64)).unwrap();
        let runs = artifact.record().runs().len();
        for _ in 0..3 {
            for (i, expect) in blocks.iter().enumerate() {
                assert_eq!(&artifact.read_block(i).unwrap().0, expect, "block {i}");
            }
        }
        let stats = artifact.chunk_stats();
        assert_eq!(stats.loads, runs as u64);
        assert_eq!(stats.hits, 3 * blocks.len() as u64 - runs as u64);
        assert_eq!(stats.resident_bytes, 6 * 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_dense_index_entry_is_refused_at_open() {
        // Runs hold blocks 0..=2 (3 × 20 = 60 <= 64) and block 3.
        let dir = temp_dir("nondense");
        let mut entries =
            publish_blocks(&dir, &(0..4u8).map(|i| vec![i; 20]).collect::<Vec<_>>(), 64);
        // Stretch block 2 across the boundary into the second run, and
        // point a block into the head.
        entries[2].len = 30;
        let err = open_blocks(&dir, entries.clone()).err().expect("a straddling block opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("block 2"), "{err}");
        entries[2].len = 20;
        entries[0].offset = 0;
        assert!(open_blocks(&dir, entries).is_err(), "a block in the head opened");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_digest_mismatch_is_typed() {
        let dir = temp_dir("model");
        let entries = publish_blocks(&dir, &[vec![1; 8]], 64);
        flip(&dir, 3);
        let err = open_blocks(&dir, entries).err().expect("a corrupt head opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("image.cce head"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_manifest_fails_open_with_typed_error() {
        let dir = temp_dir("truncrecord");
        let entries = publish_blocks(&dir, &[vec![1; 8], vec![2; 8]], 64);
        let path = dir.join(crate::record::RECORD_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = open_blocks(&dir, entries).err().expect("a truncated record opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
