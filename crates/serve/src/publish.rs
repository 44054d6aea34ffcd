//! Publishing and verifying an image directory.
//!
//! [`publish()`] copies an image into `<dir>/image.cce` extent by extent,
//! hashing each, and writes the [`DigestRecord`] next to it;
//! [`verify_dir`] re-hashes every extent and names the first that
//! fails.  [`pack_runs`] groups whole blocks into the runs between the
//! head and the tail.

use crate::error::ServeError;
use crate::record::{DigestRecord, IMAGE_FILE, MAX_CHUNK_PAYLOAD, MIN_CHUNK_PAYLOAD, RECORD_FILE};
use crate::sha256;
use std::fs::{self, File};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Default run target: 64 KiB of compressed blocks per digest.
pub const DEFAULT_CHUNK_PAYLOAD: u64 = 64 << 10;

/// Groups blocks of the given compressed lengths, in order, into runs
/// of at most `chunk_payload` bytes, and returns each run's length.  A
/// run is closed when the next block would take it past the target, so
/// a run is longer only when its one block is.
///
/// # Errors
///
/// [`ServeError::Corrupt`] when `chunk_payload` is outside
/// [`MIN_CHUNK_PAYLOAD`]..=[`MAX_CHUNK_PAYLOAD`].
pub fn pack_runs(
    block_lens: impl IntoIterator<Item = u64>,
    chunk_payload: u64,
) -> Result<Vec<u64>, ServeError> {
    if !(MIN_CHUNK_PAYLOAD..=MAX_CHUNK_PAYLOAD).contains(&chunk_payload) {
        return Err(ServeError::corrupt(
            "publish request",
            format!(
                "chunk payload {chunk_payload} outside [{MIN_CHUNK_PAYLOAD}, {MAX_CHUNK_PAYLOAD}]"
            ),
        ));
    }
    let mut runs = Vec::new();
    let mut current: Option<u64> = None;
    for len in block_lens {
        current = match current {
            Some(run) if run + len <= chunk_payload => Some(run + len),
            Some(run) => {
                runs.push(run);
                Some(len)
            }
            None => Some(len),
        };
    }
    runs.extend(current);
    Ok(runs)
}

/// What [`publish`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishSummary {
    /// Runs between the head and the tail.
    pub runs: usize,
    /// Bytes in `image.cce`.
    pub image_len: u64,
}

/// Creates `<dir>`, writes the image to [`IMAGE_FILE`] one extent at a
/// time (head, runs, tail, in order) and the digest record over those
/// extents to [`RECORD_FILE`].
///
/// # Errors
///
/// [`ServeError::Io`] if the directory exists non-empty or a write
/// fails; the first error `extents` yields; [`ServeError::Corrupt`]
/// when the extents break a [`DigestRecord::new`] cap.
pub fn publish(
    dir: &Path,
    extents: impl IntoIterator<Item = Result<Vec<u8>, ServeError>>,
) -> Result<PublishSummary, ServeError> {
    fs::create_dir_all(dir)?;
    if fs::read_dir(dir)?.next().is_some() {
        return Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("artifact directory {} is not empty", dir.display()),
        )));
    }
    let mut image = File::create(dir.join(IMAGE_FILE))?;
    let mut digests = Vec::new();
    for bytes in extents {
        let bytes = bytes?;
        image.write_all(&bytes)?;
        digests.push((bytes.len() as u64, sha256::digest(&bytes)));
    }
    image.sync_all()?;
    let record = DigestRecord::new(&digests)?;
    let mut file = File::create(dir.join(RECORD_FILE))?;
    file.write_all(&record.encode())?;
    file.sync_all()?;
    Ok(PublishSummary { runs: record.runs().len(), image_len: record.image_len() })
}

/// Opens `<dir>/`[`IMAGE_FILE`] and checks that its length is the one
/// `record` tiles, so no extent read can reach past the file.
pub(crate) fn open_image(dir: &Path, record: &DigestRecord) -> Result<File, ServeError> {
    let image = File::open(dir.join(IMAGE_FILE))
        .map_err(|e| ServeError::corrupt(IMAGE_FILE, format!("cannot open: {e}")))?;
    let len = image.metadata()?.len();
    if len != record.image_len() {
        return Err(ServeError::corrupt(
            IMAGE_FILE,
            format!("{len} bytes, but the digest record covers {}", record.image_len()),
        ));
    }
    Ok(image)
}

/// Reads extent `i` of `image` with one positioned read and checks its
/// SHA-256, so its bytes are exactly the ones published.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming the extent (`image.cce run 3`) when
/// the read comes up short or the digest differs.
pub(crate) fn read_extent(
    image: &File,
    record: &DigestRecord,
    i: usize,
) -> Result<Vec<u8>, ServeError> {
    let extent = record.extents()[i];
    let what = || format!("{IMAGE_FILE} {}", record.extent_name(i));
    let mut bytes = vec![0u8; extent.len as usize];
    image
        .read_exact_at(&mut bytes, extent.start)
        .map_err(|e| ServeError::corrupt(what(), format!("cannot read: {e}")))?;
    if sha256::digest(&bytes) != extent.sha256 {
        return Err(ServeError::corrupt(what(), "sha-256 mismatch"));
    }
    Ok(bytes)
}

/// What [`verify_dir`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifySummary {
    /// Runs re-hashed (head and tail are checked too).
    pub runs: usize,
    /// Bytes in `image.cce`.
    pub image_len: u64,
}

/// Re-hashes every extent of a published directory, in order.
///
/// # Errors
///
/// [`ServeError::Corrupt`] naming the exact failing piece — e.g.
/// `corrupt image.cce run 3: sha-256 mismatch` — when the record does
/// not parse, the image length differs from the record's, or a digest
/// differs.
pub fn verify_dir(dir: &Path) -> Result<VerifySummary, ServeError> {
    let record = DigestRecord::read(dir)?;
    let image = open_image(dir, &record)?;
    for i in 0..record.extents().len() {
        read_extent(&image, &record, i)?;
    }
    Ok(VerifySummary { runs: record.runs().len(), image_len: record.image_len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-publish-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// An 8-byte head, ten blocks of 20..=29 bytes packed to a 64-byte
    /// target, and a 16-byte tail.
    fn publish_sample(dir: &Path) -> (PublishSummary, Vec<u64>) {
        let blocks: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 20 + i as usize]).collect();
        let runs = pack_runs(blocks.iter().map(|b| b.len() as u64), 64).unwrap();
        let mut extents = vec![b"headhead".to_vec()];
        let mut next = blocks.iter();
        for &run in &runs {
            let mut bytes = Vec::new();
            while (bytes.len() as u64) < run {
                bytes.extend_from_slice(next.next().unwrap());
            }
            extents.push(bytes);
        }
        extents.push(vec![0xee; 16]);
        (publish(dir, extents.into_iter().map(Ok)).unwrap(), runs)
    }

    #[test]
    fn publish_then_verify_is_clean() {
        let dir = temp_dir("clean");
        let (summary, runs) = publish_sample(&dir);
        assert!(summary.runs > 1, "payload 64 should split 10 blocks");
        assert_eq!(summary.runs, runs.len());
        let v = verify_dir(&dir).unwrap();
        assert_eq!(v.runs, summary.runs);
        assert_eq!(v.image_len, 8 + (20..30).sum::<u64>() + 16);
        assert_eq!(fs::read(dir.join(IMAGE_FILE)).unwrap().len() as u64, v.image_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_chunk_holds_at_least_one_block_and_respects_payload() {
        let lens = [20u64, 30, 10, 70, 5, 5, 64, 1];
        let runs = pack_runs(lens, 64).unwrap();
        assert_eq!(runs, [60, 70, 10, 64, 1]);
        assert_eq!(runs.iter().sum::<u64>(), lens.iter().sum::<u64>());
        assert!(pack_runs([], 64).unwrap().is_empty());
        assert!(pack_runs([1], MIN_CHUNK_PAYLOAD - 1).is_err());
        assert!(pack_runs([1], MAX_CHUNK_PAYLOAD + 1).is_err());
    }

    #[test]
    fn flipping_one_chunk_byte_names_that_chunk() {
        let dir = temp_dir("flip");
        publish_sample(&dir);
        let record = DigestRecord::read(&dir).unwrap();
        let path = dir.join(IMAGE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[record.runs()[1].start as usize] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = verify_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("image.cce run 1:"), "error must name the run: {err}");
        assert!(matches!(err, ServeError::Corrupt { .. }));
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
        assert!(publish(&dir, [Ok(vec![1]), Ok(vec![2])]).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_block_is_rejected_with_a_typed_error() {
        let dir = temp_dir("oversize");
        let run = vec![0u8; (crate::record::MAX_RUN_LEN + 1) as usize];
        let err = publish(&dir, [Ok(vec![1]), Ok(run), Ok(vec![2])]).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
