//! Publishing and verifying content-addressed artifact directories.
//!
//! [`Publisher`] streams compressed blocks into fixed-payload chunk
//! files and emits the manifest; [`verify_dir`] re-hashes a published
//! directory end to end and names the exact piece that fails.  The
//! directory layout is fixed:
//!
//! ```text
//! <dir>/manifest.json         versioned manifest (see manifest.rs)
//! <dir>/model.bin             serialized codec (BlockCodec::to_bytes)
//! <dir>/index.bin             16-byte per-block entries, v2 encoding
//! <dir>/chunks/00000000.chunk fixed-width, index-named chunk files
//! ```

use crate::error::ServeError;
use crate::manifest::{
    chunk_file_name, ChunkEntry, Manifest, SectionDigest, MAX_CHUNK_PAYLOAD, MAX_MANIFEST_LEN,
    MIN_CHUNK_PAYLOAD,
};
use crate::sha256;
use cce_codec::BlockImage;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default chunk payload target: 64 KiB of compressed blocks per file.
pub const DEFAULT_CHUNK_PAYLOAD: u64 = 64 << 10;

/// Codec identity and geometry the caller supplies at publish time.
#[derive(Debug, Clone)]
pub struct ArtifactMeta {
    /// Registry name of the codec (e.g. `"samc"`).
    pub algorithm: String,
    /// ISA name (e.g. `"mips"`).
    pub isa: String,
    /// ELF class tag (0 = ELF32, 1 = ELF64).
    pub class: u64,
    /// Endianness tag (0 = little, 1 = big).
    pub endianness: u64,
    /// ELF entry point.
    pub entry: u64,
    /// Nominal uncompressed block size in bytes.
    pub block_size: u64,
    /// Codec model bytes in the paper's accounting.
    pub model_bytes: u64,
}

/// What [`Publisher::finish`] wrote.
#[derive(Debug, Clone)]
pub struct PublishSummary {
    /// The manifest as written to `manifest.json`.
    pub manifest: Manifest,
    /// Number of chunk files emitted.
    pub chunk_files: usize,
}

/// Streams blocks into a new artifact directory.
pub struct Publisher {
    dir: PathBuf,
    meta: ArtifactMeta,
    chunk_payload: u64,
    model: SectionDigest,
    index: Vec<u8>,
    chunks: Vec<ChunkEntry>,
    current: Vec<u8>,
    current_first: u64,
    current_blocks: u64,
    current_ulen: u64,
    blocks: u64,
    data_len: u64,
    original_len: u64,
}

impl Publisher {
    /// Creates `<dir>` (and `<dir>/chunks/`), writes `model.bin`, and
    /// returns a publisher ready for [`push_block`](Self::push_block).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the directory exists non-empty or any
    /// write fails; [`ServeError::Corrupt`] on an out-of-range
    /// `chunk_payload` or block size.
    pub fn create(
        dir: &Path,
        meta: ArtifactMeta,
        model_bytes: &[u8],
        chunk_payload: u64,
    ) -> Result<Self, ServeError> {
        if !(MIN_CHUNK_PAYLOAD..=MAX_CHUNK_PAYLOAD).contains(&chunk_payload) {
            return Err(ServeError::corrupt(
                "publish request",
                format!(
                    "chunk payload {chunk_payload} outside [{MIN_CHUNK_PAYLOAD}, {MAX_CHUNK_PAYLOAD}]"
                ),
            ));
        }
        if meta.block_size == 0 || meta.block_size > BlockImage::MAX_BLOCK_SIZE as u64 {
            return Err(ServeError::corrupt(
                "publish request",
                format!("block size {}", meta.block_size),
            ));
        }
        fs::create_dir_all(dir)?;
        if fs::read_dir(dir)?.next().is_some() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("artifact directory {} is not empty", dir.display()),
            )));
        }
        fs::create_dir(dir.join("chunks"))?;
        fs::write(dir.join("model.bin"), model_bytes)?;
        let model =
            SectionDigest { len: model_bytes.len() as u64, sha256: sha256::digest(model_bytes) };
        Ok(Self {
            dir: dir.to_path_buf(),
            meta,
            chunk_payload,
            model,
            index: Vec::new(),
            chunks: Vec::new(),
            current: Vec::new(),
            current_first: 0,
            current_blocks: 0,
            current_ulen: 0,
            blocks: 0,
            data_len: 0,
            original_len: 0,
        })
    }

    /// Appends one compressed block (`data`) that decodes to
    /// `uncompressed_len` bytes.  Blocks must arrive in index order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the block violates the image caps;
    /// [`ServeError::Io`] when a chunk file write fails.
    pub fn push_block(&mut self, data: &[u8], uncompressed_len: usize) -> Result<(), ServeError> {
        if uncompressed_len > self.meta.block_size as usize + BlockImage::BLOCK_SLACK {
            return Err(ServeError::corrupt(
                format!("block {}", self.blocks),
                format!("uncompressed length {uncompressed_len} exceeds the block cap"),
            ));
        }
        if data.len() > u32::MAX as usize || uncompressed_len > u32::MAX as usize {
            return Err(ServeError::corrupt(
                format!("block {}", self.blocks),
                "length does not fit the 32-bit index encoding",
            ));
        }
        if self.current_blocks > 0 && self.current.len() + data.len() > self.chunk_payload as usize
        {
            self.flush_chunk()?;
        }
        if self.current_blocks == 0 {
            self.current_first = self.blocks;
        }
        // Index entry mirrors the v2 container: global offset, lengths.
        self.index.extend_from_slice(&self.data_len.to_be_bytes());
        self.index.extend_from_slice(&(data.len() as u32).to_be_bytes());
        self.index.extend_from_slice(&(uncompressed_len as u32).to_be_bytes());
        self.current.extend_from_slice(data);
        self.current_blocks += 1;
        self.current_ulen += uncompressed_len as u64;
        self.blocks += 1;
        self.data_len += data.len() as u64;
        self.original_len += uncompressed_len as u64;
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), ServeError> {
        let name = chunk_file_name(self.chunks.len());
        let path = self.dir.join("chunks").join(&name);
        let mut file = fs::File::create(&path)?;
        file.write_all(&self.current)?;
        file.sync_all()?;
        self.chunks.push(ChunkEntry {
            first_block: self.current_first,
            blocks: self.current_blocks,
            compressed_len: self.current.len() as u64,
            uncompressed_len: self.current_ulen,
            sha256: sha256::digest(&self.current),
        });
        self.current.clear();
        self.current_blocks = 0;
        self.current_ulen = 0;
        Ok(())
    }

    /// Flushes the final chunk, writes `index.bin` and
    /// `manifest.json`, and returns the summary.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when no block was pushed; otherwise
    /// I/O failures.
    pub fn finish(mut self) -> Result<PublishSummary, ServeError> {
        if self.blocks == 0 {
            return Err(ServeError::corrupt("publish request", "no blocks pushed"));
        }
        if self.current_blocks > 0 {
            self.flush_chunk()?;
        }
        fs::write(self.dir.join("index.bin"), &self.index)?;
        let mut manifest = Manifest {
            algorithm: self.meta.algorithm.clone(),
            isa: self.meta.isa.clone(),
            class: self.meta.class,
            endianness: self.meta.endianness,
            entry: self.meta.entry,
            block_size: self.meta.block_size,
            blocks: self.blocks,
            original_len: self.original_len,
            data_len: self.data_len,
            model_bytes: self.meta.model_bytes,
            chunk_payload: self.chunk_payload,
            model: self.model.clone(),
            index: SectionDigest {
                len: self.index.len() as u64,
                sha256: sha256::digest(&self.index),
            },
            chunks: std::mem::take(&mut self.chunks),
            total_sha256: [0; 32],
        };
        manifest.total_sha256 = manifest.compute_total();
        manifest.validate()?;
        fs::write(self.dir.join("manifest.json"), manifest.to_json().as_bytes())?;
        let chunk_files = manifest.chunks.len();
        Ok(PublishSummary { manifest, chunk_files })
    }
}

/// Reads a file that the manifest claims is `expect_len` bytes,
/// refusing anything larger (no unbounded reads from disk).  The length
/// is checked again after the read, so a file that changes in between
/// is refused too.
fn read_exact_len(path: &Path, what: &str, expect_len: u64) -> Result<Vec<u8>, ServeError> {
    let check = |len: u64| {
        if len == expect_len {
            Ok(())
        } else {
            Err(ServeError::corrupt(
                what,
                format!("stored length {len} != manifest length {expect_len}"),
            ))
        }
    };
    let meta = fs::metadata(path)
        .map_err(|e| ServeError::corrupt(what, format!("cannot stat {}: {e}", path.display())))?;
    check(meta.len())?;
    let bytes = fs::read(path)?;
    check(bytes.len() as u64)?;
    Ok(bytes)
}

/// Reads `<dir>/<file>` and checks it against its manifest `section`:
/// its length, then its SHA-256.
pub(crate) fn read_section(
    dir: &Path,
    file: &str,
    section: &SectionDigest,
) -> Result<Vec<u8>, ServeError> {
    let bytes = read_exact_len(&dir.join(file), file, section.len)?;
    if sha256::digest(&bytes) != section.sha256 {
        return Err(ServeError::corrupt(file, "sha-256 mismatch"));
    }
    Ok(bytes)
}

/// Reads chunk file `index` of `manifest` and checks its length and
/// SHA-256, so its bytes are exactly the ones published.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming the chunk on a length or digest
/// mismatch, or when the file is missing.
pub(crate) fn read_chunk(
    dir: &Path,
    manifest: &Manifest,
    index: usize,
) -> Result<Vec<u8>, ServeError> {
    let chunk = &manifest.chunks[index];
    let name = chunk_file_name(index);
    let what = format!("chunk {name}");
    let bytes = read_exact_len(&dir.join("chunks").join(&name), &what, chunk.compressed_len)?;
    if sha256::digest(&bytes) != chunk.sha256 {
        return Err(ServeError::corrupt(what, "sha-256 mismatch"));
    }
    Ok(bytes)
}

/// Reads and parses `<dir>/manifest.json` with the size cap applied.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on an oversized or invalid manifest.
pub fn read_manifest(dir: &Path) -> Result<(Manifest, Vec<u8>), ServeError> {
    let path = dir.join("manifest.json");
    let meta = fs::metadata(&path)
        .map_err(|e| ServeError::corrupt("manifest", format!("cannot stat: {e}")))?;
    if meta.len() > MAX_MANIFEST_LEN as u64 {
        return Err(ServeError::corrupt(
            "manifest",
            format!("{} bytes exceeds the {MAX_MANIFEST_LEN}-byte cap", meta.len()),
        ));
    }
    let bytes = fs::read(&path)?;
    let manifest = Manifest::parse(&bytes)?;
    Ok((manifest, bytes))
}

/// What [`verify_dir`] checked.
#[derive(Debug, Clone)]
pub struct VerifySummary {
    /// Blocks covered by the manifest.
    pub blocks: u64,
    /// Chunk files re-hashed.
    pub chunks: usize,
    /// Compressed payload bytes verified.
    pub data_len: u64,
    /// Uncompressed bytes the artifact decodes to.
    pub original_len: u64,
}

/// Re-hashes and cross-checks every piece of a published artifact.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming the exact failing piece — e.g.
/// `corrupt chunk 00000003: sha-256 mismatch` — or [`ServeError::Io`]
/// when a file cannot be read at all.
pub fn verify_dir(dir: &Path) -> Result<VerifySummary, ServeError> {
    let (manifest, _) = read_manifest(dir)?;
    read_section(dir, "model.bin", &manifest.model)?;
    let index = read_section(dir, "index.bin", &manifest.index)?;
    // Cross-checks the per-block index against the chunk table.
    parse_index(&index, &manifest)?;
    for ci in 0..manifest.chunks.len() {
        read_chunk(dir, &manifest, ci)?;
    }
    Ok(VerifySummary {
        blocks: manifest.blocks,
        chunks: manifest.chunks.len(),
        data_len: manifest.data_len,
        original_len: manifest.original_len,
    })
}

/// One decoded 16-byte index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Global byte offset of the block in the concatenated payload.
    pub offset: u64,
    /// Compressed length in bytes.
    pub compressed_len: u32,
    /// Uncompressed length in bytes.
    pub uncompressed_len: u32,
}

/// Decodes `index.bin` and validates each entry against the
/// (validated) manifest's geometry: every block fits the block caps,
/// and each chunk's blocks tile its byte range densely, in order, so a
/// block sliced out of its chunk at `offset - chunk start` never leaves
/// the chunk.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming `index.bin` on a length mismatch, an
/// entry that exceeds the block caps, or an entry outside the dense
/// layout of its chunk.
pub(crate) fn parse_index(
    index: &[u8],
    manifest: &Manifest,
) -> Result<Vec<IndexEntry>, ServeError> {
    if index.len() as u64 != manifest.blocks * 16 {
        return Err(ServeError::corrupt(
            "index.bin",
            format!("{} bytes for {} blocks", index.len(), manifest.blocks),
        ));
    }
    let max_ulen = manifest.block_size as usize + BlockImage::BLOCK_SLACK;
    let mut entries = Vec::with_capacity(manifest.blocks as usize);
    for (i, raw) in index.chunks_exact(16).enumerate() {
        let offset = u64::from_be_bytes(raw[..8].try_into().expect("8 bytes"));
        let compressed_len = u32::from_be_bytes(raw[8..12].try_into().expect("4 bytes"));
        let uncompressed_len = u32::from_be_bytes(raw[12..16].try_into().expect("4 bytes"));
        if uncompressed_len as usize > max_ulen {
            return Err(ServeError::corrupt(
                "index.bin",
                format!("block {i} uncompressed length {uncompressed_len} exceeds the cap"),
            ));
        }
        entries.push(IndexEntry { offset, compressed_len, uncompressed_len });
    }
    // The validated manifest's chunks cover `[0, blocks)` in order.
    let mut chunk_start = 0u64;
    for (ci, chunk) in manifest.chunks.iter().enumerate() {
        let (mut clen, mut ulen) = (0u64, 0u64);
        let first = chunk.first_block as usize;
        for (block, e) in entries[first..first + chunk.blocks as usize].iter().enumerate() {
            if e.offset != chunk_start + clen {
                return Err(ServeError::corrupt(
                    "index.bin",
                    format!("block {} offset {} breaks dense layout", first + block, e.offset),
                ));
            }
            clen += e.compressed_len as u64;
            ulen += e.uncompressed_len as u64;
        }
        if clen != chunk.compressed_len || ulen != chunk.uncompressed_len {
            return Err(ServeError::corrupt(
                "index.bin",
                format!(
                    "block sums ({clen}, {ulen}) disagree with chunk {} in the manifest",
                    chunk_file_name(ci)
                ),
            ));
        }
        chunk_start += chunk.compressed_len;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-publish-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> ArtifactMeta {
        ArtifactMeta {
            algorithm: "samc".into(),
            isa: "mips".into(),
            class: 0,
            endianness: 1,
            entry: 0x1000,
            block_size: 32,
            model_bytes: 100,
        }
    }

    fn publish_sample(dir: &Path, chunk_payload: u64) -> PublishSummary {
        let mut p = Publisher::create(dir, meta(), b"model!", chunk_payload).unwrap();
        for i in 0..10u8 {
            let block = vec![i; 20 + i as usize];
            p.push_block(&block, 32).unwrap();
        }
        p.finish().unwrap()
    }

    #[test]
    fn publish_then_verify_is_clean() {
        let dir = temp_dir("clean");
        let summary = publish_sample(&dir, 64);
        assert!(summary.chunk_files > 1, "payload 64 should split 10 blocks");
        let v = verify_dir(&dir).unwrap();
        assert_eq!(v.blocks, 10);
        assert_eq!(v.chunks, summary.chunk_files);
        assert_eq!(v.original_len, 320);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_chunk_holds_at_least_one_block_and_respects_payload() {
        let dir = temp_dir("payload");
        let summary = publish_sample(&dir, 64);
        for c in &summary.manifest.chunks {
            assert!(c.blocks >= 1);
            // A chunk only exceeds the payload when a single block does.
            assert!(c.compressed_len <= 64 || c.blocks == 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipping_one_chunk_byte_names_that_chunk() {
        let dir = temp_dir("flip");
        publish_sample(&dir, 64);
        let victim = dir.join("chunks").join(chunk_file_name(1));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("00000001.chunk"), "error must name the chunk: {msg}");
        assert!(matches!(err, ServeError::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_the_index_is_detected() {
        let dir = temp_dir("index");
        publish_sample(&dir, 64);
        let index = dir.join("index.bin");
        let bytes = fs::read(&index).unwrap();
        fs::write(&index, &bytes[..bytes.len() - 16]).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("index.bin"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_to_publish_into_a_nonempty_directory() {
        let dir = temp_dir("nonempty");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("stray"), b"x").unwrap();
        assert!(Publisher::create(&dir, meta(), b"m", 4096).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_block_is_rejected_with_a_typed_error() {
        let dir = temp_dir("oversize");
        let mut p = Publisher::create(&dir, meta(), b"m", 4096).unwrap();
        let err = p.push_block(&[0u8; 10], 33 + BlockImage::BLOCK_SLACK).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
