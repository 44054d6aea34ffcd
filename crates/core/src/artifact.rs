//! The container side of the serving tier.
//!
//! [`cce_serve`] is container-agnostic: it serves blocks at the offsets
//! it is given and checks each run it loads against the digest it is
//! given.  This module opens a CCE2 container for it ([`open`]):
//! [`ContainerV2Reader`] parses the digest section and checks the head
//! and the index, and the daemon gets the file, the runs and the block
//! table.  It also defines the `get-manifest` reply ([`ArtifactInfo`]).
//! [`ContainerV2Reader`] stays the only parser of the block index and
//! the digests.

use crate::container::{ContainerIdentity, ContainerV2Reader, IDENTITY_LEN};
pub use crate::publish::{open_with_codec, publish_container};
use cce_codec::{BlockCodec, BlockImage};
use cce_serve::store::{Artifact, BlockEntry};
use cce_serve::ServeError;
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::path::Path;

/// Opens the container at `path` for serving and rebuilds its codec:
/// the one-call path `cce serve` uses.  The container is parsed by
/// [`ContainerV2Reader`] (head, index and digest section checked) and
/// the codec rebuilt from its identity as `cce decompress` does; the
/// runs are checked as the daemon loads them.
///
/// # Errors
///
/// [`ServeError::Io`] naming `path` when it cannot be opened;
/// [`ServeError::Corrupt`] naming `path` when the container does not
/// parse or the codec model does not load; any [`Artifact::open`]
/// failure.
pub fn open(path: &Path) -> Result<(Artifact, Box<dyn BlockCodec>), ServeError> {
    let corrupt = |e| ServeError::corrupt(path.display(), e);
    let file = File::open(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let reader = ContainerV2Reader::open(BufReader::new(file.try_clone()?)).map_err(corrupt)?;
    let codec = reader.block_codec().map_err(corrupt)?;
    let blocks = (0..reader.block_count())
        .map(|i| {
            let range = reader.block_range(i);
            BlockEntry {
                offset: range.start,
                len: (range.end - range.start) as u32,
                uncompressed_len: reader.block_uncompressed_len(i) as u32,
            }
        })
        .collect();
    let info = ArtifactInfo::of(&reader).encode();
    Ok((Artifact::open(file, reader.runs().collect(), blocks, info)?, codec))
}

/// The `get-manifest` reply: what a client needs to fetch a served
/// container's text and rebuild its executable.  Encoded in
/// [`ArtifactInfo::LEN`] bytes, all integers big-endian:
///
/// ```text
/// offset  size  field
///      0    12  container identity (the CCE2 header encoding)
///     12     4  nominal block size
///     16     8  block count
///     24     8  original text length
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Codec and ELF identity of the served container.
    pub identity: ContainerIdentity,
    /// Nominal uncompressed block size in bytes.
    pub block_size: usize,
    /// Blocks the daemon serves.
    pub blocks: u64,
    /// Text length the blocks decode to.
    pub original_len: u64,
}

impl ArtifactInfo {
    /// Encoded length in bytes.
    pub const LEN: usize = IDENTITY_LEN + 4 + 8 + 8;

    /// The info of an open container.
    pub fn of<R: Read + Seek>(reader: &ContainerV2Reader<R>) -> Self {
        Self {
            identity: reader.identity(),
            block_size: reader.block_size(),
            blocks: reader.block_count() as u64,
            original_len: reader.original_len(),
        }
    }

    /// The wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        self.identity.encode(&mut out);
        out.extend_from_slice(&(self.block_size as u32).to_be_bytes());
        out.extend_from_slice(&self.blocks.to_be_bytes());
        out.extend_from_slice(&self.original_len.to_be_bytes());
        out
    }

    /// Parses a `get-manifest` reply with the container's own identity
    /// parser.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on a length other than [`Self::LEN`], an
    /// identity the container parser refuses, a block size outside
    /// `1..=BlockImage::MAX_BLOCK_SIZE`, or an original length the
    /// blocks cannot hold.
    pub fn parse(bytes: &[u8]) -> Result<Self, ServeError> {
        let bad = |detail: &str| ServeError::corrupt("artifact info", detail);
        if bytes.len() != Self::LEN {
            return Err(bad("wrong length"));
        }
        let identity = ContainerIdentity::parse(bytes[..IDENTITY_LEN].try_into().expect("12"))
            .map_err(|e| ServeError::corrupt("artifact info", e))?;
        let field = |at: usize, len: usize| {
            bytes[at..at + len].iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b))
        };
        let block_size = field(12, 4) as usize;
        let (blocks, original_len) = (field(16, 8), field(24, 8));
        if block_size == 0 || block_size > BlockImage::MAX_BLOCK_SIZE {
            return Err(bad("block size out of range"));
        }
        let most = blocks.saturating_mul((block_size + BlockImage::BLOCK_SLACK) as u64);
        if original_len > most {
            return Err(bad("original length exceeds what the blocks hold"));
        }
        Ok(Self { identity, block_size, blocks, original_len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{digest_extents, encode_image, with_section};
    use crate::registry::Algorithm;
    use crate::serve::verify_dir;
    use cce_elf::{Class, Endianness};
    use cce_isa::Isa;
    use std::fs;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-core-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A trained huffman container over the first `len` bytes of a MIPS
    /// `go` workload, in memory.
    fn sample_container(len: usize) -> Vec<u8> {
        use cce_workload::{generate_mips, Spec95};
        let profile = Spec95::by_name("go").unwrap();
        let mut text = cce_isa::mips::encode_text(&generate_mips(profile, 2.0));
        text.truncate(len);
        let handle = Algorithm::ByteHuffman.build(Isa::Mips, 32).train(&text).unwrap();
        let codec = handle.as_block().unwrap();
        let image = codec.compress(&text).unwrap();
        let identity = ContainerIdentity {
            algorithm: Algorithm::ByteHuffman,
            isa: Isa::Mips,
            class: Class::Elf32,
            endianness: Endianness::Big,
            entry: 0x40_0000,
        };
        encode_image(identity, &codec.to_bytes(), &image).unwrap()
    }

    /// Through the benchmark wrappers: the published image is the
    /// container byte for byte, verifies with every run, and serves an
    /// info record that mirrors the container.
    #[test]
    fn published_container_verifies_and_matches_its_summary() {
        // More than 64 KiB of payload, so the container has two runs.
        let container = sample_container(128 << 10);
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("publish").join("artifact");
        let published =
            publish_container(&mut reader, &dir, crate::serve::DEFAULT_CHUNK_PAYLOAD).unwrap();
        assert_eq!(fs::read(dir.join("image.cce")).unwrap(), container, "published byte for byte");
        assert_eq!(published, container.len() as u64);
        assert!(reader.runs().len() > 1, "more than 64 KiB of payload splits into runs");
        assert_eq!(verify_dir(&dir).unwrap(), reader.runs().len());
        let (artifact, _) = open_with_codec(&dir).unwrap();
        let info = ArtifactInfo::parse(artifact.info()).unwrap();
        assert_eq!(info, ArtifactInfo::of(&reader));
        assert_eq!(info.blocks as usize, artifact.block_count());
        fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn published_artifact_decodes_byte_identically_to_the_container() {
        let container = sample_container(4096);
        let dir = temp_dir("decode");
        let path = dir.join("prog.cce");
        fs::write(&path, &container).unwrap();
        let (artifact, codec) = open(&path).unwrap();
        let served = artifact.decode_text(codec.as_ref()).unwrap();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let direct = reader.decode_text(reader.block_codec().unwrap().as_ref()).unwrap();
        assert_eq!(served, direct);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A well-formed digest section whose first run ends one byte into
    /// a block: every digest matches its bytes, but the runs no longer
    /// end on block boundaries, so the container is refused at open.
    #[test]
    fn a_record_off_the_container_layout_is_refused() {
        let container = sample_container(4096);
        let mut extents = digest_extents(&container);
        let (head, run) = (extents[0], extents[1]);
        let digest = |start: u64, len: u64| {
            cce_serve::sha256::digest(&container[start as usize..(start + len) as usize])
        };
        extents.splice(
            1..2,
            [(run.0 - 1, digest(head.0, run.0 - 1)), (1, digest(head.0 + run.0 - 1, 1))],
        );
        let dir = temp_dir("layout");
        let path = dir.join("shifted.cce");
        fs::write(&path, with_section(&container, &extents)).unwrap();
        let err = open(&path).err().expect("a misaligned section opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("digest runs miss the block boundaries"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_round_trips_and_refuses_bad_fields() {
        let container = sample_container(4096);
        let reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let info = ArtifactInfo::of(&reader);
        let bytes = info.encode();
        assert_eq!(bytes.len(), ArtifactInfo::LEN);
        assert_eq!(&bytes[..16], &container[4..20], "identity and block size as in CCE2");
        assert_eq!(ArtifactInfo::parse(&bytes).unwrap(), info);
        let refused = |at: usize, byte: u8| {
            let mut bad = bytes.clone();
            bad[at] = byte;
            ArtifactInfo::parse(&bad).is_err()
        };
        assert!(refused(0, Algorithm::Gzip.tag()), "file-oriented codec");
        assert!(refused(1, 7), "unknown isa");
        assert!(refused(12, 0xff), "block size over the cap");
        assert!(refused(24, 0xff), "original length the blocks cannot hold");
        assert!(ArtifactInfo::parse(&bytes[..31]).is_err());
    }
}
