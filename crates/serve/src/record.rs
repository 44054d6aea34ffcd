//! The digest record: SHA-256 digests over byte extents that tile a
//! published image file.
//!
//! The extents run in order from offset 0: the *head*, then *runs*
//! (each a whole number of blocks), then the *tail*.  The record knows
//! nothing else about the image; `cce-core` checks that the extents
//! fall on the container's section and block boundaries.  Layout, all
//! integers big-endian:
//!
//! ```text
//! offset  size   field
//!      0     4   magic "CCD1" (the digit is the record version)
//!      4     4   extent count E (head and tail, so at least 2)
//!      8  40×E   per extent: u64 byte length, SHA-256 of those bytes
//! 8+40E     32   SHA-256 of bytes [0, 8+40E)
//! ```
//!
//! [`DigestRecord::parse`] checks every field, the self-digest
//! included, before anything is sized from them.

use crate::error::ServeError;
use crate::sha256::{self, DIGEST_LEN};
use cce_codec::BlockImage;
use std::path::Path;

/// Magic opening a digest record.
const RECORD_MAGIC: &[u8; 4] = b"CCD1";

/// The image file in a published directory: the container, unchanged.
pub const IMAGE_FILE: &str = "image.cce";

/// The digest record's file in a published directory.
pub const RECORD_FILE: &str = "image.digests";

/// Largest record file a reader will read.
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// Bytes per extent entry: u64 length + SHA-256.
const ENTRY_LEN: usize = 8 + DIGEST_LEN;

/// Most extents a record may list (what fits in [`MAX_RECORD_LEN`]).
pub const MAX_EXTENTS: usize = (MAX_RECORD_LEN - 8 - DIGEST_LEN) / ENTRY_LEN;

/// Smallest accepted `--chunk-size` run target, in bytes.
pub const MIN_CHUNK_PAYLOAD: u64 = 64;

/// Largest accepted `--chunk-size` run target, in bytes.
pub const MAX_CHUNK_PAYLOAD: u64 = 16 << 20;

/// Longest run a record may declare: the largest target plus two
/// maximal blocks (a run exceeds its target only by one block).
pub const MAX_RUN_LEN: u64 =
    MAX_CHUNK_PAYLOAD + 2 * (BlockImage::MAX_BLOCK_SIZE + BlockImage::BLOCK_SLACK) as u64;

/// One digested byte range of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset in the image (the sum of the lengths before it).
    pub start: u64,
    /// Byte length.
    pub len: u64,
    /// SHA-256 of the bytes.
    pub sha256: [u8; DIGEST_LEN],
}

impl Extent {
    /// One past the extent's last byte.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// A parsed, checked digest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRecord {
    extents: Vec<Extent>,
}

impl DigestRecord {
    /// The record over `extents`, given as `(length, SHA-256)` in image
    /// order: head, runs, tail.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on fewer than 2 or more than
    /// [`MAX_EXTENTS`] extents, a run over [`MAX_RUN_LEN`], or lengths
    /// whose sum overflows.
    pub fn new(extents: &[(u64, [u8; DIGEST_LEN])]) -> Result<Self, ServeError> {
        let bad = |detail: String| Err(ServeError::corrupt(RECORD_FILE, detail));
        if !(2..=MAX_EXTENTS).contains(&extents.len()) {
            return bad(format!("{} extents", extents.len()));
        }
        let mut start = 0u64;
        let mut out = Vec::with_capacity(extents.len());
        for (i, &(len, sha256)) in extents.iter().enumerate() {
            if (1..extents.len() - 1).contains(&i) && len > MAX_RUN_LEN {
                return bad(format!(
                    "run {} is {len} bytes, over the {MAX_RUN_LEN}-byte cap",
                    i - 1
                ));
            }
            out.push(Extent { start, len, sha256 });
            start = match start.checked_add(len) {
                Some(end) => end,
                None => return bad("extent lengths overflow".into()),
            };
        }
        Ok(Self { extents: out })
    }

    /// Parses and checks an encoded record.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] naming [`RECORD_FILE`] on an oversized
    /// input, a wrong magic, an extent count outside `2..=MAX_EXTENTS`,
    /// a length other than the count implies, a self-digest mismatch,
    /// or any [`Self::new`] failure.
    pub fn parse(bytes: &[u8]) -> Result<Self, ServeError> {
        let bad = |detail: &str| Err(ServeError::corrupt(RECORD_FILE, detail));
        if bytes.len() > MAX_RECORD_LEN {
            return bad("over the size cap");
        }
        if bytes.len() < 8 || &bytes[..4] != RECORD_MAGIC {
            return bad("not a digest record");
        }
        let count = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if !(2..=MAX_EXTENTS).contains(&count) {
            return bad("extent count out of range");
        }
        let body = 8 + count * ENTRY_LEN;
        if bytes.len() != body + DIGEST_LEN {
            return bad("length disagrees with the extent count");
        }
        if sha256::digest(&bytes[..body]) != bytes[body..] {
            return bad("sha-256 mismatch");
        }
        let extents: Vec<(u64, [u8; DIGEST_LEN])> = bytes[8..body]
            .chunks_exact(ENTRY_LEN)
            .map(|e| {
                let len = u64::from_be_bytes(e[..8].try_into().expect("8 bytes"));
                (len, e[8..].try_into().expect("digest"))
            })
            .collect();
        Self::new(&extents)
    }

    /// Reads and parses `<dir>/`[`RECORD_FILE`], checking its size
    /// before reading it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when the file is missing, oversized, or
    /// fails [`Self::parse`].
    pub fn read(dir: &Path) -> Result<Self, ServeError> {
        let path = dir.join(RECORD_FILE);
        let len = std::fs::metadata(&path)
            .map_err(|e| ServeError::corrupt(RECORD_FILE, format!("cannot stat: {e}")))?
            .len();
        if len > MAX_RECORD_LEN as u64 {
            return Err(ServeError::corrupt(RECORD_FILE, "over the size cap"));
        }
        Self::parse(&std::fs::read(&path)?)
    }

    /// The canonical encoding ([`Self::parse`] reads it back).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.extents.len() * ENTRY_LEN + DIGEST_LEN);
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&(self.extents.len() as u32).to_be_bytes());
        for extent in &self.extents {
            out.extend_from_slice(&extent.len.to_be_bytes());
            out.extend_from_slice(&extent.sha256);
        }
        let digest = sha256::digest(&out);
        out.extend_from_slice(&digest);
        out
    }

    /// Every extent in image order: head, runs, tail.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The first extent.
    pub fn head(&self) -> &Extent {
        &self.extents[0]
    }

    /// The last extent.
    pub fn tail(&self) -> &Extent {
        &self.extents[self.extents.len() - 1]
    }

    /// The extents between head and tail.
    pub fn runs(&self) -> &[Extent] {
        &self.extents[1..self.extents.len() - 1]
    }

    /// The image length the extents tile.
    pub fn image_len(&self) -> u64 {
        self.tail().end()
    }

    /// How errors name extent `i`: `head`, `run N` or `tail`.
    pub fn extent_name(&self, i: usize) -> String {
        match i {
            0 => "head".into(),
            i if i + 1 == self.extents.len() => "tail".into(),
            i => format!("run {}", i - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DigestRecord {
        let parts: [&[u8]; 4] = [b"head", b"run zero", b"run one", b"tail"];
        let extents: Vec<_> = parts.iter().map(|p| (p.len() as u64, sha256::digest(p))).collect();
        DigestRecord::new(&extents).unwrap()
    }

    #[test]
    fn record_round_trips_and_tiles_the_image() {
        let record = sample();
        let bytes = record.encode();
        assert_eq!(bytes.len(), 8 + 4 * ENTRY_LEN + DIGEST_LEN);
        assert_eq!(DigestRecord::parse(&bytes).unwrap(), record);
        assert_eq!(record.runs().len(), 2);
        assert_eq!(record.runs()[1].start, 12);
        assert_eq!(record.image_len(), 4 + 8 + 7 + 4);
        let names: Vec<_> = (0..4).map(|i| record.extent_name(i)).collect();
        assert_eq!(names, ["head", "run 0", "run 1", "tail"]);
    }

    #[test]
    fn truncated_or_garbled_records_are_refused() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(DigestRecord::parse(&bytes[..len]).is_err(), "prefix of {len} bytes parsed");
        }
        for at in [0, 5, 12, 40, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let err = DigestRecord::parse(&bad).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt { .. }), "byte {at}: {err}");
            assert!(err.to_string().contains(RECORD_FILE), "{err}");
        }
    }

    #[test]
    fn caps_are_enforced_before_use() {
        let digest = [0u8; DIGEST_LEN];
        assert!(DigestRecord::new(&[(1, digest)]).is_err(), "head alone");
        assert!(DigestRecord::new(&[(1, digest), (MAX_RUN_LEN + 1, digest), (1, digest)]).is_err());
        assert!(DigestRecord::new(&[(u64::MAX, digest), (1, digest)]).is_err(), "overflow");
        // Head and tail are not runs: only the file length bounds them.
        assert!(DigestRecord::new(&[(MAX_RUN_LEN + 1, digest), (1, digest)]).is_ok());
    }
}
