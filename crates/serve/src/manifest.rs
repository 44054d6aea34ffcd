//! The versioned artifact manifest: schema, digests, and validation.
//!
//! A published artifact directory is described by one `manifest.json`
//! whose schema string is [`SCHEMA`].  The manifest carries everything
//! a client needs to fetch and verify blocks without trusting the
//! server: the codec identity, per-chunk SHA-256 digests, compressed
//! and uncompressed lengths, and a total digest binding the pieces
//! together.  Filenames are *derived* from chunk indices, never read
//! from the manifest, so a hostile manifest has no path-traversal
//! surface.  Every numeric field is capped ([`Manifest::validate`])
//! before any allocation is sized from it.

use crate::error::ServeError;
use crate::json::{self, Json};
use crate::sha256;
use cce_codec::BlockImage;
use cce_obs::json_string;

/// Manifest schema identifier; bump on any incompatible change.
pub const SCHEMA: &str = "cce-artifact/1";

/// Largest manifest file a client will read (defensive cap).
pub const MAX_MANIFEST_LEN: usize = 16 << 20;

/// Smallest accepted chunk payload target, in bytes.
pub const MIN_CHUNK_PAYLOAD: u64 = 64;

/// Largest accepted chunk payload target, in bytes.
pub const MAX_CHUNK_PAYLOAD: u64 = 16 << 20;

/// Largest accepted block count (matches a 4 GiB artifact of minimum
/// blocks — far past anything the pipeline emits).
pub const MAX_BLOCKS: u64 = 1 << 24;

/// Length and digest of one stored section (`model.bin`, `index.bin`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDigest {
    /// Stored length in bytes.
    pub len: u64,
    /// SHA-256 of the stored bytes.
    pub sha256: [u8; 32],
}

/// One chunk file: a dense run of whole compressed blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Index of the first block stored in this chunk.
    pub first_block: u64,
    /// Number of blocks stored in this chunk (≥ 1).
    pub blocks: u64,
    /// Total compressed bytes in the chunk file.
    pub compressed_len: u64,
    /// Total uncompressed bytes the chunk's blocks decode to.
    pub uncompressed_len: u64,
    /// SHA-256 of the chunk file bytes.
    pub sha256: [u8; 32],
}

/// The parsed, validated artifact manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Registry name of the codec (e.g. `"samc"`).
    pub algorithm: String,
    /// ISA name (e.g. `"mips"`).
    pub isa: String,
    /// ELF class tag (0 = ELF32, 1 = ELF64), mirroring the container.
    pub class: u64,
    /// Endianness tag (0 = little, 1 = big), mirroring the container.
    pub endianness: u64,
    /// ELF entry point of the original executable.
    pub entry: u64,
    /// Nominal uncompressed block size in bytes.
    pub block_size: u64,
    /// Total block count across all chunks.
    pub blocks: u64,
    /// Uncompressed text length.
    pub original_len: u64,
    /// Total compressed block payload bytes.
    pub data_len: u64,
    /// Codec model bytes charged in the paper's accounting.
    pub model_bytes: u64,
    /// Target chunk payload size used at publish time.
    pub chunk_payload: u64,
    /// Digest of `model.bin` (the serialized codec).
    pub model: SectionDigest,
    /// Digest of `index.bin` (16-byte per-block entries).
    pub index: SectionDigest,
    /// Chunk table, dense and ascending over `[0, blocks)`.
    pub chunks: Vec<ChunkEntry>,
    /// Digest binding schema, model, index, and every chunk digest.
    pub total_sha256: [u8; 32],
}

impl Manifest {
    /// Recomputes the binding digest over schema string, model digest,
    /// index digest, and each chunk digest in order.
    pub fn compute_total(&self) -> [u8; 32] {
        let mut h = sha256::Sha256::new();
        h.update(SCHEMA.as_bytes());
        h.update(&self.model.sha256);
        h.update(&self.index.sha256);
        for chunk in &self.chunks {
            h.update(&chunk.sha256);
        }
        h.finalize()
    }

    /// The chunk containing `block`, or `None` when out of range.
    pub fn chunk_for_block(&self, block: u64) -> Option<usize> {
        if block >= self.blocks {
            return None;
        }
        // Chunks are dense and ascending (validated), so binary search.
        let idx = self.chunks.partition_point(|c| c.first_block + c.blocks <= block);
        (idx < self.chunks.len()).then_some(idx)
    }

    /// Structural validation: caps, dense coverage, digest binding.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] naming the failing field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |what: &str, detail: String| Err(ServeError::corrupt(what, detail));
        if self.algorithm.is_empty() || self.algorithm.len() > 64 {
            return bad("manifest", format!("algorithm name length {}", self.algorithm.len()));
        }
        if self.isa.is_empty() || self.isa.len() > 64 {
            return bad("manifest", format!("isa name length {}", self.isa.len()));
        }
        if self.class > 1 || self.endianness > 1 {
            return bad("manifest", "class/endianness tag out of range".into());
        }
        if self.block_size == 0 || self.block_size > BlockImage::MAX_BLOCK_SIZE as u64 {
            return bad("manifest", format!("block_size {}", self.block_size));
        }
        if self.blocks == 0 || self.blocks > MAX_BLOCKS {
            return bad("manifest", format!("block count {}", self.blocks));
        }
        if !(MIN_CHUNK_PAYLOAD..=MAX_CHUNK_PAYLOAD).contains(&self.chunk_payload) {
            return bad("manifest", format!("chunk_payload {}", self.chunk_payload));
        }
        if self.index.len != self.blocks * 16 {
            return bad(
                "manifest",
                format!("index length {} for {} blocks", self.index.len, self.blocks),
            );
        }
        if self.model.len > MAX_MANIFEST_LEN as u64 {
            return bad("manifest", format!("model length {}", self.model.len));
        }
        if self.chunks.is_empty() {
            return bad("manifest", "empty chunk table".into());
        }
        let max_block_total = self.block_size + BlockImage::BLOCK_SLACK as u64;
        let mut next_block = 0u64;
        let (mut clen_sum, mut ulen_sum) = (0u64, 0u64);
        for (i, chunk) in self.chunks.iter().enumerate() {
            if chunk.first_block != next_block {
                return bad(
                    "manifest",
                    format!(
                        "chunk {i} starts at block {} expected {next_block}",
                        chunk.first_block
                    ),
                );
            }
            if chunk.blocks == 0 {
                return bad("manifest", format!("chunk {i} holds zero blocks"));
            }
            if chunk.uncompressed_len > chunk.blocks.saturating_mul(max_block_total) {
                return bad(
                    "manifest",
                    format!("chunk {i} uncompressed_len {} too large", chunk.uncompressed_len),
                );
            }
            if chunk.compressed_len > MAX_CHUNK_PAYLOAD + 2 * max_block_total {
                return bad(
                    "manifest",
                    format!("chunk {i} compressed_len {} too large", chunk.compressed_len),
                );
            }
            next_block = next_block.saturating_add(chunk.blocks);
            clen_sum = clen_sum.saturating_add(chunk.compressed_len);
            ulen_sum = ulen_sum.saturating_add(chunk.uncompressed_len);
        }
        if next_block != self.blocks {
            return bad("manifest", format!("chunks cover {next_block} of {} blocks", self.blocks));
        }
        if clen_sum != self.data_len {
            return bad(
                "manifest",
                format!("chunk bytes {clen_sum} != data_len {}", self.data_len),
            );
        }
        if ulen_sum != self.original_len {
            return bad(
                "manifest",
                format!("chunk text {ulen_sum} != original_len {}", self.original_len),
            );
        }
        if self.total_sha256 != self.compute_total() {
            return bad("manifest", "total_sha256 does not bind the section digests".into());
        }
        Ok(())
    }

    /// Renders the newline-terminated manifest JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.chunks.len() * 160);
        out.push_str(&format!(
            "{{\"schema\":{},\"algorithm\":{},\"isa\":{},\"class\":{},\"endianness\":{},\
             \"entry\":{},\"block_size\":{},\"blocks\":{},\"original_len\":{},\"data_len\":{},\
             \"model_bytes\":{},\"chunk_payload\":{},",
            json_string(SCHEMA),
            json_string(&self.algorithm),
            json_string(&self.isa),
            self.class,
            self.endianness,
            self.entry,
            self.block_size,
            self.blocks,
            self.original_len,
            self.data_len,
            self.model_bytes,
            self.chunk_payload,
        ));
        out.push_str(&format!(
            "\"model\":{{\"len\":{},\"sha256\":\"{}\"}},\"index\":{{\"len\":{},\"sha256\":\"{}\"}},",
            self.model.len,
            sha256::to_hex(&self.model.sha256),
            self.index.len,
            sha256::to_hex(&self.index.sha256),
        ));
        out.push_str("\"chunks\":[");
        for (i, c) in self.chunks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"first_block\":{},\"blocks\":{},\"compressed_len\":{},\
                 \"uncompressed_len\":{},\"sha256\":\"{}\"}}",
                c.first_block,
                c.blocks,
                c.compressed_len,
                c.uncompressed_len,
                sha256::to_hex(&c.sha256),
            ));
        }
        out.push_str(&format!("],\"total_sha256\":\"{}\"}}\n", sha256::to_hex(&self.total_sha256)));
        out
    }

    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on oversized input, malformed JSON,
    /// missing/unknown/ill-typed fields, or any [`Self::validate`]
    /// failure.
    pub fn parse(bytes: &[u8]) -> Result<Self, ServeError> {
        if bytes.len() > MAX_MANIFEST_LEN {
            return Err(ServeError::corrupt(
                "manifest",
                format!("{} bytes exceeds the {MAX_MANIFEST_LEN}-byte cap", bytes.len()),
            ));
        }
        let root = json::parse(bytes).map_err(|e| ServeError::corrupt("manifest", e))?;
        let obj = root.as_obj().ok_or_else(|| ServeError::corrupt("manifest", "not an object"))?;
        const KEYS: [&str; 16] = [
            "schema",
            "algorithm",
            "isa",
            "class",
            "endianness",
            "entry",
            "block_size",
            "blocks",
            "original_len",
            "data_len",
            "model_bytes",
            "chunk_payload",
            "model",
            "index",
            "chunks",
            "total_sha256",
        ];
        for key in obj.keys() {
            if !KEYS.contains(&key.as_str()) {
                return Err(ServeError::corrupt("manifest", format!("unknown field {key:?}")));
            }
        }
        let field = |name: &str| -> Result<&Json, ServeError> {
            obj.get(name).ok_or_else(|| ServeError::corrupt("manifest", format!("missing {name}")))
        };
        let num = |name: &str| -> Result<u64, ServeError> {
            field(name)?
                .as_u64()
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{name} not an integer")))
        };
        let string = |name: &str| -> Result<String, ServeError> {
            Ok(field(name)?
                .as_str()
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{name} not a string")))?
                .to_string())
        };
        let schema = string("schema")?;
        if schema != SCHEMA {
            return Err(ServeError::corrupt("manifest", format!("unknown schema {schema:?}")));
        }
        let hex = |value: &Json, what: &str| -> Result<[u8; 32], ServeError> {
            value
                .as_str()
                .and_then(sha256::from_hex)
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{what} not a hex digest")))
        };
        let section = |name: &str| -> Result<SectionDigest, ServeError> {
            let sec = field(name)?
                .as_obj()
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{name} not an object")))?;
            let len = sec
                .get("len")
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{name}.len invalid")))?;
            let digest = sec
                .get("sha256")
                .ok_or_else(|| ServeError::corrupt("manifest", format!("{name}.sha256 missing")))?;
            Ok(SectionDigest { len, sha256: hex(digest, &format!("{name}.sha256"))? })
        };
        let chunk_items = field("chunks")?
            .as_arr()
            .ok_or_else(|| ServeError::corrupt("manifest", "chunks not an array"))?;
        let mut chunks = Vec::with_capacity(chunk_items.len().min(4096));
        for (i, item) in chunk_items.iter().enumerate() {
            let c = item.as_obj().ok_or_else(|| {
                ServeError::corrupt("manifest", format!("chunk {i} not an object"))
            })?;
            let cnum = |name: &str| -> Result<u64, ServeError> {
                c.get(name).and_then(Json::as_u64).ok_or_else(|| {
                    ServeError::corrupt("manifest", format!("chunk {i} {name} invalid"))
                })
            };
            let digest = c.get("sha256").ok_or_else(|| {
                ServeError::corrupt("manifest", format!("chunk {i} sha256 missing"))
            })?;
            chunks.push(ChunkEntry {
                first_block: cnum("first_block")?,
                blocks: cnum("blocks")?,
                compressed_len: cnum("compressed_len")?,
                uncompressed_len: cnum("uncompressed_len")?,
                sha256: hex(digest, &format!("chunk {i} sha256"))?,
            });
        }
        let manifest = Manifest {
            algorithm: string("algorithm")?,
            isa: string("isa")?,
            class: num("class")?,
            endianness: num("endianness")?,
            entry: num("entry")?,
            block_size: num("block_size")?,
            blocks: num("blocks")?,
            original_len: num("original_len")?,
            data_len: num("data_len")?,
            model_bytes: num("model_bytes")?,
            chunk_payload: num("chunk_payload")?,
            model: section("model")?,
            index: section("index")?,
            chunks,
            total_sha256: hex(field("total_sha256")?, "total_sha256")?,
        };
        manifest.validate()?;
        Ok(manifest)
    }
}

/// The derived filename of chunk `index`: 8 hex digits plus `.chunk`.
pub fn chunk_file_name(index: usize) -> String {
    format!("{index:08x}.chunk")
}

#[cfg(test)]
pub(crate) fn sample_manifest() -> Manifest {
    let chunk_data = [b"first chunk bytes".as_slice(), b"second chunk".as_slice()];
    let model = b"model bytes";
    let index = vec![0u8; 3 * 16];
    let chunks = vec![
        ChunkEntry {
            first_block: 0,
            blocks: 2,
            compressed_len: chunk_data[0].len() as u64,
            uncompressed_len: 64,
            sha256: sha256::digest(chunk_data[0]),
        },
        ChunkEntry {
            first_block: 2,
            blocks: 1,
            compressed_len: chunk_data[1].len() as u64,
            uncompressed_len: 20,
            sha256: sha256::digest(chunk_data[1]),
        },
    ];
    let mut m = Manifest {
        algorithm: "samc".into(),
        isa: "mips".into(),
        class: 0,
        endianness: 1,
        entry: 0x400000,
        block_size: 32,
        blocks: 3,
        original_len: 84,
        data_len: (chunk_data[0].len() + chunk_data[1].len()) as u64,
        model_bytes: 123,
        chunk_payload: 4096,
        model: SectionDigest { len: model.len() as u64, sha256: sha256::digest(model) },
        index: SectionDigest { len: index.len() as u64, sha256: sha256::digest(&index) },
        chunks,
        total_sha256: [0; 32],
    };
    m.total_sha256 = m.compute_total();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_validates_and_round_trips() {
        let m = sample_manifest();
        m.validate().unwrap();
        let json = m.to_json();
        assert!(json.ends_with('\n'));
        let back = Manifest::parse(json.as_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn chunk_lookup_maps_blocks_to_chunks() {
        let m = sample_manifest();
        assert_eq!(m.chunk_for_block(0), Some(0));
        assert_eq!(m.chunk_for_block(1), Some(0));
        assert_eq!(m.chunk_for_block(2), Some(1));
        assert_eq!(m.chunk_for_block(3), None);
    }

    #[test]
    fn validation_rejects_broken_tables() {
        let mut gap = sample_manifest();
        gap.chunks[1].first_block = 3;
        assert!(gap.validate().is_err());

        let mut sum = sample_manifest();
        sum.data_len += 1;
        assert!(sum.validate().is_err());

        let mut binding = sample_manifest();
        binding.total_sha256[0] ^= 1;
        assert!(binding.validate().is_err());

        let mut index = sample_manifest();
        index.index.len = 17;
        assert!(index.validate().is_err());

        let mut payload = sample_manifest();
        payload.chunk_payload = 1;
        assert!(payload.validate().is_err());
    }

    #[test]
    fn parse_rejects_unknown_and_missing_fields() {
        let m = sample_manifest();
        let json = m.to_json();
        let extra = json.replacen("{\"schema\"", "{\"evil\":1,\"schema\"", 1);
        assert!(Manifest::parse(extra.as_bytes()).is_err());
        let missing = json.replacen("\"blocks\":3,", "", 1);
        assert!(Manifest::parse(missing.as_bytes()).is_err());
        let wrong_schema = json.replacen("cce-artifact/1", "cce-artifact/9", 1);
        assert!(Manifest::parse(wrong_schema.as_bytes()).is_err());
    }

    #[test]
    fn chunk_names_are_fixed_width() {
        assert_eq!(chunk_file_name(0), "00000000.chunk");
        assert_eq!(chunk_file_name(0xabc), "00000abc.chunk");
    }
}
