//! Read side of a published artifact: open, integrity-checked block
//! fetch, and full-text decode.
//!
//! [`Artifact::open`] reads and checks the manifest and index (cheap).
//! A block read needs its *containing chunk*.  The first read of a
//! chunk pulls it from disk and checks its length and SHA-256 against
//! the manifest; only bytes that pass enter a byte-bounded LRU of
//! verified chunks ([`VERIFIED_CHUNK_BYTES`]), and later reads slice
//! their block out of that copy without touching the disk.  A chunk
//! that fails a check is never cached, so it answers a typed
//! [`ServeError::Corrupt`] naming the chunk on every read — never
//! garbage handed to a codec.
//!
//! The integrity contract is therefore *verified at load*: an artifact
//! serves only bytes that matched the manifest when they were read.  A
//! chunk corrupted on disk after it was cached keeps being served from
//! the verified copy, while [`verify_dir`](crate::verify_dir) reports
//! the file on disk.

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::manifest::{Manifest, MAX_CHUNK_PAYLOAD};
use crate::obs;
use crate::publish::{parse_index, read_chunk, read_manifest, read_section, IndexEntry};
use cce_codec::{BlockCodec, BlockImage};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Byte budget of each artifact's verified-chunk cache.  It holds the
/// largest chunk [`Manifest::validate`] admits, so any valid chunk can
/// be cached.
pub const VERIFIED_CHUNK_BYTES: usize = 32 << 20;

const _: () = assert!(
    VERIFIED_CHUNK_BYTES as u64
        >= MAX_CHUNK_PAYLOAD + 2 * (BlockImage::MAX_BLOCK_SIZE + BlockImage::BLOCK_SLACK) as u64
);

/// The verified-chunk cache's counters (the `chunk_*` fields of the
/// daemon's `stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkStats {
    /// Chunks read from disk and verified.
    pub(crate) loads: u64,
    /// Block reads served from a cached verified chunk.
    pub(crate) hits: u64,
    /// Verified chunk bytes resident now (at most
    /// [`VERIFIED_CHUNK_BYTES`]).
    pub(crate) resident_bytes: usize,
}

/// An opened artifact directory.
pub struct Artifact {
    dir: PathBuf,
    manifest: Manifest,
    manifest_bytes: Vec<u8>,
    index: Vec<IndexEntry>,
    /// Byte offset of each chunk's first payload byte (cumulative).
    chunk_starts: Vec<u64>,
    /// Verified chunk bytes by chunk index, each costing its length.
    chunks: Mutex<LruCache<Arc<[u8]>>>,
    chunk_loads: AtomicU64,
    chunk_hits: AtomicU64,
}

impl Artifact {
    /// Opens `<dir>`, reading and validating the manifest and index.
    /// Every index entry must lie inside its chunk's byte range, which
    /// is what lets a block be sliced out of its chunk.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the manifest or index fail
    /// validation; [`ServeError::Io`] when files cannot be read.
    pub fn open(dir: &Path) -> Result<Self, ServeError> {
        let (manifest, manifest_bytes) = read_manifest(dir)?;
        let index = parse_index(&read_section(dir, "index.bin", &manifest.index)?, &manifest)?;
        let mut chunk_starts = Vec::with_capacity(manifest.chunks.len());
        let mut start = 0u64;
        for chunk in &manifest.chunks {
            chunk_starts.push(start);
            start += chunk.compressed_len;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            manifest_bytes,
            index,
            chunk_starts,
            chunks: Mutex::new(LruCache::new(VERIFIED_CHUNK_BYTES)),
            chunk_loads: AtomicU64::new(0),
            chunk_hits: AtomicU64::new(0),
        })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The raw manifest document (what `get-manifest` serves).
    pub fn manifest_bytes(&self) -> &[u8] {
        &self.manifest_bytes
    }

    /// Number of blocks in the artifact.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Reads `model.bin`, verifying it against the manifest digest.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on a digest or length mismatch.
    pub fn read_model(&self) -> Result<Vec<u8>, ServeError> {
        read_section(&self.dir, "model.bin", &self.manifest.model)
    }

    /// Reads compressed block `block`, returning `(data,
    /// uncompressed_len)`.  The containing chunk comes from the
    /// verified-chunk cache, or is read and verified first, so
    /// corruption found on disk is caught before any codec sees the
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] past the end; [`ServeError::Corrupt`]
    /// naming the chunk on a digest/length mismatch.
    pub fn read_block(&self, block: usize) -> Result<(Vec<u8>, usize), ServeError> {
        let entry =
            *self.index.get(block).ok_or_else(|| ServeError::NotFound(format!("block {block}")))?;
        let ci = self
            .manifest
            .chunk_for_block(block as u64)
            .expect("in-range block has a chunk (validated at open)");
        let chunk = self.verified_chunk(ci)?;
        let local = (entry.offset - self.chunk_starts[ci]) as usize;
        let end = local + entry.compressed_len as usize;
        // In range: open checked that every entry lies inside its
        // chunk, and the chunk's length matched the manifest.
        Ok((chunk[local..end].to_vec(), entry.uncompressed_len as usize))
    }

    /// Chunk `ci`'s bytes: the cached verified copy, or a fresh read
    /// and check that is cached once it passes.  The lock covers only
    /// the lookup and the insert, never the read or the hash, so two
    /// connections missing the same chunk at once may both load it.
    fn verified_chunk(&self, ci: usize) -> Result<Arc<[u8]>, ServeError> {
        if let Some(bytes) = self.chunk_cache().get(ci) {
            self.chunk_hits.fetch_add(1, Ordering::Relaxed);
            obs::SERVE_CHUNK_HITS.incr();
            return Ok(bytes);
        }
        let bytes: Arc<[u8]> = read_chunk(&self.dir, &self.manifest, ci)?.into();
        self.chunk_loads.fetch_add(1, Ordering::Relaxed);
        obs::SERVE_CHUNK_LOADS.incr();
        self.chunk_cache().insert(ci, bytes.clone(), bytes.len());
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
        let mut out = Vec::with_capacity(self.manifest.original_len as usize);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::chunk_file_name;
    use crate::publish::{ArtifactMeta, Publisher};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn publish_blocks(dir: &Path, blocks: &[Vec<u8>]) {
        let meta = ArtifactMeta {
            algorithm: "samc".into(),
            isa: "mips".into(),
            class: 0,
            endianness: 1,
            entry: 0,
            block_size: 64,
            model_bytes: 10,
        };
        let mut p = Publisher::create(dir, meta, b"model", 64).unwrap();
        for b in blocks {
            p.push_block(b, b.len()).unwrap();
        }
        p.finish().unwrap();
    }

    #[test]
    fn every_block_reads_back_byte_identical() {
        let dir = temp_dir("roundtrip");
        let blocks: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i ^ 0x5a; 10 + 7 * i as usize]).collect();
        publish_blocks(&dir, &blocks);
        let artifact = Artifact::open(&dir).unwrap();
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
        publish_blocks(&dir, &blocks);
        let artifact = Artifact::open(&dir).unwrap();
        let ci = artifact.manifest().chunk_for_block(4).unwrap();
        let victim = dir.join("chunks").join(chunk_file_name(ci));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        // A chunk that fails its check is not cached: every read of it
        // fails the same way.
        for _ in 0..2 {
            let err = artifact.read_block(4).unwrap_err();
            assert!(err.to_string().contains(&chunk_file_name(ci)), "{err}");
        }
        assert_eq!(artifact.chunk_stats().resident_bytes, 0);
        // Blocks in other chunks still read fine — corruption is local.
        let other = (0..blocks.len())
            .find(|&b| artifact.manifest().chunk_for_block(b as u64) != Some(ci))
            .expect("payload 64 splits 6×30-byte blocks across chunks");
        artifact.read_block(other).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_chunk_is_read_and_verified_once() {
        let dir = temp_dir("once");
        let blocks: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20]).collect();
        publish_blocks(&dir, &blocks);
        let artifact = Artifact::open(&dir).unwrap();
        let chunks = artifact.manifest().chunks.len();
        for _ in 0..3 {
            for (i, expect) in blocks.iter().enumerate() {
                assert_eq!(&artifact.read_block(i).unwrap().0, expect, "block {i}");
            }
        }
        let stats = artifact.chunk_stats();
        assert_eq!(stats.loads, chunks as u64);
        assert_eq!(stats.hits, 3 * blocks.len() as u64 - chunks as u64);
        assert_eq!(stats.resident_bytes as u64, artifact.manifest().data_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_dense_index_entry_is_refused_at_open() {
        // Chunk 0 holds blocks 0..=2 (3 × 20 = 60 <= 64); block 3 spills.
        let dir = temp_dir("nondense");
        publish_blocks(&dir, &(0..4u8).map(|i| vec![i; 20]).collect::<Vec<_>>());
        let (mut manifest, _) = read_manifest(&dir).unwrap();
        assert!(manifest.chunks.len() >= 2, "need at least 2 chunks");
        // Point block 1 (chunk 0's second block) past its chunk but
        // still inside the payload, then re-sign index and manifest so
        // every digest is consistent.
        let index_path = dir.join("index.bin");
        let mut index = fs::read(&index_path).unwrap();
        let bogus_offset = manifest.data_len - 30;
        index[16..24].copy_from_slice(&bogus_offset.to_be_bytes());
        index[24..28].copy_from_slice(&30u32.to_be_bytes());
        fs::write(&index_path, &index).unwrap();
        manifest.index.sha256 = crate::sha256::digest(&index);
        manifest.total_sha256 = manifest.compute_total();
        fs::write(dir.join("manifest.json"), manifest.to_json()).unwrap();
        let err = match Artifact::open(&dir) {
            Ok(_) => panic!("open accepted an entry outside its chunk"),
            Err(err) => err,
        };
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("index.bin"), "{err}");
        assert!(crate::verify_dir(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_digest_mismatch_is_typed() {
        let dir = temp_dir("model");
        publish_blocks(&dir, &[vec![1; 8]]);
        fs::write(dir.join("model.bin"), b"modeX").unwrap();
        let artifact = Artifact::open(&dir).unwrap();
        assert!(matches!(artifact.read_model(), Err(ServeError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_manifest_fails_open_with_typed_error() {
        let dir = temp_dir("truncmanifest");
        publish_blocks(&dir, &[vec![1; 8], vec![2; 8]]);
        let path = dir.join("manifest.json");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(Artifact::open(&dir), Err(ServeError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
