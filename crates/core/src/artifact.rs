//! The container side of the serving tier.
//!
//! [`cce_serve`] is container-agnostic: it checks byte extents of an
//! image file against a digest record and serves blocks at offsets it
//! is given.  This module publishes a v2 container as that image
//! ([`publish_container`]: head = header and model, runs of whole
//! blocks, tail = index and footer), checks on open that a record's
//! extents fall on the container's section and block boundaries, hands
//! the daemon the container's block table ([`open_with_codec`]), and
//! defines the `get-manifest` reply ([`ArtifactInfo`]).
//! [`ContainerV2Reader`] stays the only decoder of the block index.

use crate::container::{ContainerIdentity, ContainerV2Reader, IDENTITY_LEN};
use cce_codec::{BlockCodec, BlockImage};
use cce_serve::record::IMAGE_FILE;
use cce_serve::store::{Artifact, BlockEntry};
use cce_serve::{pack_runs, publish, DigestRecord, PublishSummary, ServeError};
use std::io::{BufReader, Read, Seek};
use std::path::Path;

/// Publishes an open v2 container into the directory `dir`: the
/// container byte for byte, and a digest record whose runs pack whole
/// blocks to `chunk_payload` bytes.
///
/// # Errors
///
/// [`ServeError::Io`] when `dir` exists non-empty or a write fails;
/// [`ServeError::Corrupt`] on an out-of-range `chunk_payload` or when a
/// container read fails.
pub fn publish_container<R: Read + Seek>(
    reader: &mut ContainerV2Reader<R>,
    dir: &Path,
    chunk_payload: u64,
) -> Result<PublishSummary, ServeError> {
    let blocks = (0..reader.block_count()).map(|i| {
        let range = reader.block_range(i);
        range.end - range.start
    });
    let mut bounds = vec![0, reader.data_start()];
    for run in pack_runs(blocks, chunk_payload)? {
        bounds.push(bounds[bounds.len() - 1] + run);
    }
    bounds.push(reader.summary().total_len);
    let extents = bounds.windows(2).map(|pair| reader.read_raw(pair[0]..pair[1]).map_err(corrupt));
    publish(dir, extents)
}

/// Opens a published directory and rebuilds its codec: the one-call
/// path `cce serve` and `cce verify` use.  The container is parsed by
/// [`ContainerV2Reader`], its layout checked against the digest record,
/// and the codec rebuilt from its identity as `cce decompress` does.
///
/// # Errors
///
/// [`ServeError::Corrupt`] when the record or the container does not
/// parse, the record's head, tail or total length disagree with the
/// container's sections, or the codec model does not load; any
/// [`Artifact::open`] failure.
pub fn open_with_codec(dir: &Path) -> Result<(Artifact, Box<dyn BlockCodec>), ServeError> {
    let record = DigestRecord::read(dir)?;
    let file = std::fs::File::open(dir.join(IMAGE_FILE))?;
    let reader = ContainerV2Reader::open(BufReader::new(file)).map_err(corrupt)?;
    let data_end = reader.data_start() + reader.summary().data_len;
    let layout = [
        ("head length", record.head().len, reader.data_start()),
        ("tail start", record.tail().start, data_end),
        ("image length", record.image_len(), reader.summary().total_len),
    ];
    for (what, recorded, actual) in layout {
        if recorded != actual {
            let detail = format!("digest record {what} {recorded}, container has {actual}");
            return Err(ServeError::corrupt(IMAGE_FILE, detail));
        }
    }
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
    Ok((Artifact::open(dir, record, blocks, info)?, codec))
}

/// A container error, as the serving tier reports it.
fn corrupt(e: cce_codec::CodecError) -> ServeError {
    ServeError::corrupt(IMAGE_FILE, e)
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
    use crate::container::encode_image;
    use crate::registry::Algorithm;
    use cce_elf::{Class, Endianness};
    use cce_isa::Isa;
    use cce_serve::verify_dir;
    use std::fs;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-core-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A trained huffman container over a small MIPS workload, in memory.
    fn sample_container() -> Vec<u8> {
        use cce_workload::{generate_mips, Spec95};
        let profile = Spec95::by_name("ijpeg").unwrap();
        let mut text = cce_isa::mips::encode_text(&generate_mips(profile, 0.02));
        text.truncate(4096);
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

    #[test]
    fn published_container_verifies_and_matches_its_summary() {
        let container = sample_container();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("publish");
        let published = publish_container(&mut reader, &dir, 256).unwrap();
        assert_eq!(fs::read(dir.join(IMAGE_FILE)).unwrap(), container, "published byte for byte");
        assert_eq!(published.image_len, container.len() as u64);
        assert!(published.runs > 1, "256-byte runs split the container");
        let verified = verify_dir(&dir).unwrap();
        assert_eq!((verified.runs, verified.image_len), (published.runs, published.image_len));
        let (artifact, _) = open_with_codec(&dir).unwrap();
        let info = ArtifactInfo::parse(artifact.info()).unwrap();
        assert_eq!(info, ArtifactInfo::of(&reader));
        assert_eq!(info.blocks as usize, artifact.block_count());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn published_artifact_decodes_byte_identically_to_the_container() {
        let container = sample_container();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("decode");
        publish_container(&mut reader, &dir, 512).unwrap();
        let (artifact, codec) = open_with_codec(&dir).unwrap();
        let served = artifact.decode_text(codec.as_ref()).unwrap();
        let direct = reader.decode_text(reader.block_codec().unwrap().as_ref()).unwrap();
        assert_eq!(served, direct);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_off_the_container_layout_is_refused() {
        let container = sample_container();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("layout");
        publish_container(&mut reader, &dir, 512).unwrap();
        // A well-formed record whose head swallows the first block's
        // bytes: every digest matches, but the head no longer ends
        // where the blocks start.
        let record = DigestRecord::read(&dir).unwrap();
        let mut extents: Vec<_> = record.extents().iter().map(|e| (e.len, e.sha256)).collect();
        let shift = reader.block_range(0).end - reader.block_range(0).start;
        let digest = |start: u64, len: u64| {
            cce_serve::sha256::digest(&container[start as usize..(start + len) as usize])
        };
        extents[0] = (extents[0].0 + shift, digest(0, extents[0].0 + shift));
        extents[1] =
            (extents[1].0 - shift, digest(record.runs()[0].start + shift, extents[1].0 - shift));
        let shifted = DigestRecord::new(&extents).unwrap();
        fs::write(dir.join(cce_serve::record::RECORD_FILE), shifted.encode()).unwrap();
        verify_dir(&dir).expect("every digest still matches");
        let err = open_with_codec(&dir).err().expect("a misaligned record opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("head length"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_round_trips_and_refuses_bad_fields() {
        let container = sample_container();
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
