//! The retired `DIR/image.cce` layout, as thin wrappers kept only until
//! the benchmark harness moves to container paths.
//!
//! A container carries its own run digests, so publishing is a copy:
//! [`publish_container`] copies a container into `DIR/image.cce`,
//! [`verify_dir`] re-checks every run of that copy, and
//! [`open_with_codec`] opens it for serving ([`crate::artifact::open`]).

use crate::container::{ContainerV2Reader, RUN_BYTES};
use cce_codec::BlockCodec;
use cce_serve::{Artifact, ServeError};
use std::fs;
use std::io::{BufReader, Read, Seek};
use std::path::Path;

/// The container's file name inside a published directory.
const IMAGE_FILE: &str = "image.cce";

/// The fixed run size ([`RUN_BYTES`]), under its former name.
pub const DEFAULT_CHUNK_PAYLOAD: u64 = RUN_BYTES;

/// Copies the open container into `<dir>/image.cce`, creating `dir`,
/// and returns the bytes written.
///
/// # Errors
///
/// [`ServeError::Corrupt`] for a `chunk_payload` other than
/// [`DEFAULT_CHUNK_PAYLOAD`] (runs are fixed by the format) or a failed
/// container read; [`ServeError::Io`] when `dir` exists non-empty or a
/// write fails.
pub fn publish_container<R: Read + Seek>(
    reader: &mut ContainerV2Reader<R>,
    dir: &Path,
    chunk_payload: u64,
) -> Result<u64, ServeError> {
    if chunk_payload != RUN_BYTES {
        let detail = format!("runs are fixed at {RUN_BYTES} bytes, not {chunk_payload}");
        return Err(ServeError::corrupt("publish request", detail));
    }
    fs::create_dir_all(dir)?;
    if fs::read_dir(dir)?.next().is_some() {
        return Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("artifact directory {} is not empty", dir.display()),
        )));
    }
    let bytes = reader.read_raw(0..reader.summary().total_len)?;
    fs::write(dir.join(IMAGE_FILE), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Opens `<dir>/image.cce` and re-checks every run
/// ([`ContainerV2Reader::verify`]); returns the number of runs.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming the container, and the first failing
/// run (`run 3: sha-256 mismatch`), when it does not open or verify.
pub fn verify_dir(dir: &Path) -> Result<usize, ServeError> {
    let path = dir.join(IMAGE_FILE);
    let corrupt = |e| ServeError::corrupt(path.display(), e);
    let file = fs::File::open(&path)?;
    ContainerV2Reader::open(BufReader::new(file)).and_then(|mut r| r.verify()).map_err(corrupt)
}

/// Opens `<dir>/image.cce` for serving ([`crate::artifact::open`]).
///
/// # Errors
///
/// As [`crate::artifact::open`].
pub fn open_with_codec(dir: &Path) -> Result<(Artifact, Box<dyn BlockCodec>), ServeError> {
    crate::artifact::open(&dir.join(IMAGE_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{encode_image, pack_runs, ContainerIdentity, MAX_RUN_LEN};
    use crate::registry::Algorithm;
    use cce_codec::BlockImage;
    use cce_elf::{Class, Endianness};
    use cce_isa::Isa;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-core-publish-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn identity() -> ContainerIdentity {
        ContainerIdentity {
            algorithm: Algorithm::ByteHuffman,
            isa: Isa::Mips,
            class: Class::Elf32,
            endianness: Endianness::Big,
            entry: 0x40_0000,
        }
    }

    /// A container of ten raw blocks of 20..=29 KiB: 245 KiB of payload
    /// in five runs.
    fn sample() -> Vec<u8> {
        let blocks: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (20 + i as usize) << 10]).collect();
        let lens = vec![32; blocks.len()];
        let image = BlockImage::new(blocks, lens, 32, 320, 0);
        encode_image(identity(), &[], &image).unwrap()
    }

    /// Publishes [`sample`] into `dir`.
    fn publish_sample(dir: &Path) -> Vec<u8> {
        let container = sample();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        publish_container(&mut reader, dir, DEFAULT_CHUNK_PAYLOAD).unwrap();
        container
    }

    #[test]
    fn publish_then_verify_is_clean() {
        let dir = temp_dir("clean");
        let container = publish_sample(&dir);
        assert_eq!(fs::read(dir.join(IMAGE_FILE)).unwrap(), container);
        assert_eq!(verify_dir(&dir).unwrap(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_chunk_holds_at_least_one_block_and_respects_payload() {
        let lens = [20u64, 30, 10, 70, 5, 5, 64, 1];
        let runs: Vec<u64> =
            pack_runs(&lens, 64).into_iter().map(|run| lens[run].iter().sum()).collect();
        assert_eq!(runs, [60, 70, 10, 64, 1]);
        assert!(pack_runs(&[], 64).is_empty());
        // The run size is the format's, not the caller's.
        let container = sample();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        let dir = temp_dir("payload");
        let err = publish_container(&mut reader, &dir, 4096).unwrap_err();
        assert!(err.to_string().contains("runs are fixed at 65536 bytes"), "{err}");
        assert!(!dir.exists(), "a refused publish created its directory");
    }

    #[test]
    fn flipping_one_chunk_byte_names_that_chunk() {
        let dir = temp_dir("flip");
        publish_sample(&dir);
        let path = dir.join(IMAGE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let reader = ContainerV2Reader::open(Cursor::new(&bytes)).unwrap();
        let run = reader.runs().nth(1).unwrap();
        bytes[run.start as usize] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }));
        assert!(err.to_string().contains("run 1: sha-256 mismatch"), "must name the run: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_the_index_is_detected() {
        let dir = temp_dir("index");
        publish_sample(&dir);
        let path = dir.join(IMAGE_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains(IMAGE_FILE), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_to_publish_into_a_nonempty_directory() {
        let dir = temp_dir("nonempty");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("stray"), b"x").unwrap();
        let container = sample();
        let mut reader = ContainerV2Reader::open(Cursor::new(&container)).unwrap();
        assert!(publish_container(&mut reader, &dir, DEFAULT_CHUNK_PAYLOAD).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The writer refuses a block no run may hold.
    #[test]
    fn oversized_block_is_rejected_with_a_typed_error() {
        let block = vec![0u8; (MAX_RUN_LEN + 1) as usize];
        let image = BlockImage::new(vec![block], vec![32], 32, 32, 0);
        let err = encode_image(identity(), &[], &image).unwrap_err();
        assert!(matches!(err, cce_codec::CodecError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("block 0 exceeds the run cap"), "{err}");
    }
}
