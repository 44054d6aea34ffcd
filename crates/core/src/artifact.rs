//! Bridge between the `.cce` v2 container and the serving tier.
//!
//! The serving crate ([`cce_serve`]) is codec-generic: it stores the
//! codec identity as registry *names* and knows nothing about
//! containers.  This module is the glue — it maps a
//! [`ContainerV2Reader`]'s identity into an [`ArtifactMeta`], streams
//! every container block through a [`Publisher`]
//! ([`publish_container`]), and rebuilds the concrete codec from a
//! manifest's `algorithm`/`isa` strings plus the published model bytes
//! ([`codec_from_manifest`]).  The numeric tags mirror the container
//! encoding exactly: class 0 = ELF32 / 1 = ELF64, endianness 0 =
//! little / 1 = big.

use crate::container::ContainerV2Reader;
use crate::registry::{Algorithm, CodecHandle};
use cce_codec::BlockCodec;
use cce_elf::{Class, Endianness};
use cce_isa::Isa;
use cce_serve::publish::{ArtifactMeta, PublishSummary, Publisher};
use cce_serve::store::Artifact;
use cce_serve::{Manifest, ServeError};
use std::io::{Read, Seek};
use std::path::Path;

/// The lowercase registry name stored in manifests for `algorithm`
/// (round-trips through [`Algorithm::by_name`]).
pub fn registry_name(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::UnixCompress => "compress",
        Algorithm::Gzip => "gzip",
        Algorithm::ByteHuffman => "huffman",
        Algorithm::Samc => "samc",
        Algorithm::Sadc => "sadc",
        Algorithm::SamcRans => "samc-rans",
    }
}

/// The lowercase ISA name stored in manifests for `isa`.
pub fn isa_name(isa: Isa) -> &'static str {
    match isa {
        Isa::Mips => "mips",
        Isa::X86 => "x86",
    }
}

/// Parses a manifest `isa` string (case-insensitive).
pub fn isa_by_name(name: &str) -> Option<Isa> {
    match name.to_ascii_lowercase().as_str() {
        "mips" => Some(Isa::Mips),
        "x86" => Some(Isa::X86),
        _ => None,
    }
}

/// The [`ArtifactMeta`] describing an open v2 container.
pub fn container_meta<R: Read + Seek>(reader: &ContainerV2Reader<R>) -> ArtifactMeta {
    let identity = reader.identity();
    ArtifactMeta {
        algorithm: registry_name(identity.algorithm).to_string(),
        isa: isa_name(identity.isa).to_string(),
        class: match identity.class {
            Class::Elf32 => 0,
            Class::Elf64 => 1,
        },
        endianness: match identity.endianness {
            Endianness::Little => 0,
            Endianness::Big => 1,
        },
        entry: identity.entry,
        block_size: reader.block_size() as u64,
        model_bytes: reader.summary().model_bytes as u64,
    }
}

/// Publishes an open v2 container into the artifact directory `dir`:
/// the serialized codec becomes `model.bin` and every compressed block
/// streams, in index order, into `chunk_payload`-sized chunk files.
///
/// # Errors
///
/// [`ServeError::Io`] when `dir` exists non-empty or a write fails;
/// [`ServeError::Corrupt`] when the container geometry violates the
/// artifact caps, or (via [`From`]) when a container block read fails.
pub fn publish_container<R: Read + Seek>(
    reader: &mut ContainerV2Reader<R>,
    dir: &Path,
    chunk_payload: u64,
) -> Result<PublishSummary, ServeError> {
    let meta = container_meta(reader);
    let codec_bytes = reader.codec_bytes().to_vec();
    let mut publisher = Publisher::create(dir, meta, &codec_bytes, chunk_payload)?;
    for index in 0..reader.block_count() {
        let (data, uncompressed_len) = reader.read_block(index)?;
        publisher.push_block(&data, uncompressed_len)?;
    }
    publisher.finish()
}

/// Rebuilds the concrete codec a manifest names, from the published
/// `model.bin` bytes.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on an unknown algorithm/ISA name or a
/// file-oriented algorithm (those never serve blocks), and any
/// [`codec_from_bytes`](crate::registry::CodecBuilder::codec_from_bytes)
/// parse failure.
pub fn codec_from_manifest(
    manifest: &Manifest,
    model: &[u8],
) -> Result<Box<dyn BlockCodec>, ServeError> {
    let algorithm = Algorithm::by_name(&manifest.algorithm).ok_or_else(|| {
        ServeError::corrupt("manifest", format!("unknown algorithm {:?}", manifest.algorithm))
    })?;
    if !algorithm.random_access() {
        return Err(ServeError::corrupt(
            "manifest",
            format!("`{algorithm}` is file-oriented; only random-access codecs serve blocks"),
        ));
    }
    let isa = isa_by_name(&manifest.isa).ok_or_else(|| {
        ServeError::corrupt("manifest", format!("unknown isa {:?}", manifest.isa))
    })?;
    let handle = algorithm.build(isa, manifest.block_size as usize).codec_from_bytes(model)?;
    match handle {
        CodecHandle::Block(codec) => Ok(codec),
        CodecHandle::File(_) => Err(ServeError::corrupt(
            "manifest",
            format!("`{algorithm}` deserialized to a non-block codec"),
        )),
    }
}

/// Opens `dir` and rebuilds its codec: the one-call path `cce serve`
/// and `cce fetch` use.
///
/// # Errors
///
/// Any [`Artifact::open`], model-digest, or [`codec_from_manifest`]
/// failure.
pub fn open_with_codec(dir: &Path) -> Result<(Artifact, Box<dyn BlockCodec>), ServeError> {
    let artifact = Artifact::open(dir)?;
    let model = artifact.read_model()?;
    let codec = codec_from_manifest(artifact.manifest(), &model)?;
    Ok((artifact, codec))
}

/// The ELF identity a manifest carries, for rebuilding an executable
/// around fetched text (the `cce fetch` output path).
///
/// # Errors
///
/// [`ServeError::Corrupt`] on an out-of-range tag or unknown ISA name.
pub fn manifest_identity(manifest: &Manifest) -> Result<(Isa, Class, Endianness, u64), ServeError> {
    let isa = isa_by_name(&manifest.isa).ok_or_else(|| {
        ServeError::corrupt("manifest", format!("unknown isa {:?}", manifest.isa))
    })?;
    let class = match manifest.class {
        0 => Class::Elf32,
        1 => Class::Elf64,
        other => return Err(ServeError::corrupt("manifest", format!("class tag {other}"))),
    };
    let endianness = match manifest.endianness {
        0 => Endianness::Little,
        1 => Endianness::Big,
        other => return Err(ServeError::corrupt("manifest", format!("endianness tag {other}"))),
    };
    Ok((isa, class, endianness, manifest.entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{encode_image, ContainerIdentity};
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
        let summary = reader.summary();
        let dir = temp_dir("publish");
        let published = publish_container(&mut reader, &dir, 1024).unwrap();
        let m = &published.manifest;
        assert_eq!(m.algorithm, "huffman");
        assert_eq!(m.isa, "mips");
        assert_eq!(m.blocks as usize, summary.blocks);
        assert_eq!(m.original_len, summary.original_len);
        assert_eq!(m.data_len, summary.data_len);
        assert_eq!(m.model_bytes as usize, summary.model_bytes);
        let verified = verify_dir(&dir).unwrap();
        assert_eq!(verified.blocks, m.blocks);
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
        let direct = {
            let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
            let handle = Algorithm::ByteHuffman
                .build(Isa::Mips, reader.block_size())
                .codec_from_bytes(reader.codec_bytes())
                .unwrap();
            reader.decode_text(handle.as_block().unwrap()).unwrap()
        };
        assert_eq!(served, direct);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_round_trip_and_file_codecs_are_refused() {
        for algorithm in Algorithm::ALL {
            assert_eq!(Algorithm::by_name(registry_name(algorithm)), Some(algorithm));
        }
        for isa in [Isa::Mips, Isa::X86] {
            assert_eq!(isa_by_name(isa_name(isa)), Some(isa));
        }
        assert_eq!(isa_by_name("arm"), None);
        let container = sample_container();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("refuse");
        let mut manifest = publish_container(&mut reader, &dir, 1024).unwrap().manifest;
        manifest.algorithm = "gzip".into();
        let err = match codec_from_manifest(&manifest, b"") {
            Ok(_) => panic!("file-oriented algorithm built a block codec"),
            Err(err) => err,
        };
        assert!(err.to_string().contains("file-oriented"), "{err}");
        assert!(matches!(err, ServeError::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
