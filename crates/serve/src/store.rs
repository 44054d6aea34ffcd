//! Read side of a served image: integrity-checked block fetch and
//! full-text decode.
//!
//! An [`Artifact`] serves blocks out of one image file.  It is handed
//! the file, the digest-checked [`Run`]s that hold the blocks, and the
//! block table; `cce-core` parses all three out of a CCE2 container
//! (whose reader has already checked the container's head and index).
//! A block read needs its *run*.  The first read of a run pulls it from
//! the image with one positioned read and checks its SHA-256; only
//! bytes that pass enter a byte-bounded LRU of verified chunks
//! ([`VERIFIED_CHUNK_BYTES`]; a cached run is a *chunk*), and later
//! reads slice their block out of that copy without touching the disk.
//! A run that fails its check is never cached, so it answers a typed
//! [`ServeError::Corrupt`] naming the run on every read — never garbage
//! handed to a codec.
//!
//! The integrity contract is therefore *verified at load*: an artifact
//! serves only bytes that matched their digest when they were read.  A
//! run corrupted on disk after it was cached keeps being served from
//! the verified copy, while re-verifying the file reports the run.

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::obs;
use crate::sha256::{self, DIGEST_LEN};
use cce_codec::BlockCodec;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Byte budget of each artifact's verified-chunk cache.  `cce-core`
/// asserts that it holds the longest run a container admits, so any
/// valid run can be cached.
pub const VERIFIED_CHUNK_BYTES: usize = 32 << 20;

/// One digest-checked byte range of the image: a run of whole blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Byte offset in the image file.
    pub start: u64,
    /// Byte length.
    pub len: u64,
    /// SHA-256 of the bytes.
    pub sha256: [u8; DIGEST_LEN],
}

impl Run {
    /// One past the run's last byte.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

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

/// An opened image.
pub struct Artifact {
    image: File,
    runs: Vec<Run>,
    info: Vec<u8>,
    blocks: Vec<BlockEntry>,
    /// The run holding each block (an index into `runs`).
    block_runs: Vec<usize>,
    /// Verified run bytes by run index, each costing its length.
    chunks: Mutex<LruCache<Arc<[u8]>>>,
    chunk_loads: AtomicU64,
    chunk_hits: AtomicU64,
}

impl Artifact {
    /// Serves `blocks` out of `image`, each checked against the digest
    /// of the run in `runs` that holds it.  `info` is the
    /// `get-manifest` reply.  Nothing is read here.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] naming the block when a block does not
    /// lie inside one run.
    pub fn open(
        image: File,
        runs: Vec<Run>,
        blocks: Vec<BlockEntry>,
        info: Vec<u8>,
    ) -> Result<Self, ServeError> {
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
            runs,
            info,
            blocks,
            block_runs,
            chunks: Mutex::new(LruCache::new(VERIFIED_CHUNK_BYTES)),
            chunk_loads: AtomicU64::new(0),
            chunk_hits: AtomicU64::new(0),
        })
    }

    /// The runs the artifact was opened with.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
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
        let local = (entry.offset - self.runs[run].start) as usize;
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
        let bytes: Arc<[u8]> = self.read_run(run)?.into();
        self.chunk_loads.fetch_add(1, Ordering::Relaxed);
        obs::SERVE_CHUNK_LOADS.incr();
        self.chunk_cache().insert(run, bytes.clone(), bytes.len());
        Ok(bytes)
    }

    /// Reads run `run` with one positioned read and checks its SHA-256.
    fn read_run(&self, run: usize) -> Result<Vec<u8>, ServeError> {
        let Run { start, len, sha256 } = self.runs[run];
        let what = || format!("run {run}");
        let mut bytes = vec![0u8; len as usize];
        self.image
            .read_exact_at(&mut bytes, start)
            .map_err(|e| ServeError::corrupt(what(), format!("cannot read: {e}")))?;
        if sha256::digest(&bytes) != sha256 {
            return Err(ServeError::corrupt(what(), "sha-256 mismatch"));
        }
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

/// A test image: where [`publish_blocks`] wrote each block and the
/// digests of the runs holding them.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct TestImage {
    pub(crate) runs: Vec<Run>,
    pub(crate) blocks: Vec<BlockEntry>,
}

/// Test fixture shared by the unit tests: writes `blocks` to
/// `<dir>/image` after an 8-byte head and before an 8-byte tail, in
/// runs of whole blocks packed to at most `run_target` bytes (a lone
/// longer block gets a run of its own), and returns the run digests and
/// block table [`Artifact::open`] takes.
#[cfg(test)]
pub(crate) fn publish_blocks(
    dir: &std::path::Path,
    blocks: &[Vec<u8>],
    run_target: u64,
) -> TestImage {
    let mut image = b"headhead".to_vec();
    let mut runs: Vec<Run> = Vec::new();
    let mut entries = Vec::new();
    for block in blocks {
        let offset = image.len() as u64;
        match runs.last_mut() {
            Some(run) if run.len + block.len() as u64 <= run_target => {
                run.len += block.len() as u64
            }
            _ => runs.push(Run { start: offset, len: block.len() as u64, sha256: [0; DIGEST_LEN] }),
        }
        entries.push(BlockEntry {
            offset,
            len: block.len() as u32,
            uncompressed_len: block.len() as u32,
        });
        image.extend_from_slice(block);
    }
    for run in &mut runs {
        run.sha256 = sha256::digest(&image[run.start as usize..run.end() as usize]);
    }
    image.extend_from_slice(b"tailtail");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("image"), image).unwrap();
    TestImage { runs, blocks: entries }
}

/// Opens what [`publish_blocks`] wrote.
#[cfg(test)]
pub(crate) fn open_blocks(
    dir: &std::path::Path,
    image: &TestImage,
) -> Result<Artifact, ServeError> {
    let file = File::open(dir.join("image"))?;
    Artifact::open(file, image.runs.clone(), image.blocks.clone(), b"info".to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Flips the byte at `offset` of the written image.
    fn flip(dir: &Path, offset: u64) {
        let path = dir.join("image");
        let mut bytes = fs::read(&path).unwrap();
        bytes[offset as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn every_block_reads_back_byte_identical() {
        let dir = temp_dir("roundtrip");
        let blocks: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i ^ 0x5a; 10 + 7 * i as usize]).collect();
        let artifact = open_blocks(&dir, &publish_blocks(&dir, &blocks, 64)).unwrap();
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
        let artifact = open_blocks(&dir, &publish_blocks(&dir, &blocks, 64)).unwrap();
        let run = artifact.run_of(4).unwrap();
        flip(&dir, artifact.runs()[run].end() - 1);
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
        let artifact = open_blocks(&dir, &publish_blocks(&dir, &blocks, 64)).unwrap();
        let runs = artifact.runs().len();
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
        let mut image =
            publish_blocks(&dir, &(0..4u8).map(|i| vec![i; 20]).collect::<Vec<_>>(), 64);
        // Stretch block 2 across the boundary into the second run, and
        // point a block into the head.
        image.blocks[2].len = 30;
        let err = open_blocks(&dir, &image).err().expect("a straddling block opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("block 2"), "{err}");
        image.blocks[2].len = 20;
        image.blocks[0].offset = 0;
        assert!(open_blocks(&dir, &image).is_err(), "a block in the head opened");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A run whose digest does not match the bytes it was opened with
    /// (here the run that holds the first block, as a model change
    /// would leave it) fails every read of its blocks, typed.
    #[test]
    fn model_digest_mismatch_is_typed() {
        let dir = temp_dir("model");
        let mut image = publish_blocks(&dir, &[vec![1; 8]], 64);
        image.runs[0].sha256[0] ^= 1;
        let artifact = open_blocks(&dir, &image).unwrap();
        let err = artifact.read_block(0).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("run 0: sha-256 mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A run table cut short leaves its last block in no run: refused at
    /// open with a typed error.
    #[test]
    fn truncated_manifest_fails_open_with_typed_error() {
        let dir = temp_dir("truncrecord");
        let mut image = publish_blocks(&dir, &[vec![1; 8], vec![2; 8]], 8);
        assert_eq!(image.runs.len(), 2);
        image.runs.pop();
        let err = open_blocks(&dir, &image).err().expect("a truncated run table opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("block 1"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
