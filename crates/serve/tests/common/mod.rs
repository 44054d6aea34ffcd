//! Fixtures shared by the integration tests: an identity codec and a
//! bare published image (8-byte head, the blocks back to back, 8-byte
//! tail) with the block table `Artifact::open` takes.

use cce_serve::store::{Artifact, BlockEntry};
use cce_serve::{pack_runs, publish, DigestRecord, ServeError};
use std::path::Path;

const HEAD: &[u8] = b"headhead";
const TAIL: &[u8] = b"tailtail";

/// A codec whose "compression" is identity (these suites exercise the
/// serving tier, not entropy coding).
pub struct Identity;

impl cce_codec::BlockCodec for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }
    fn block_size(&self) -> usize {
        64
    }
    fn model_bytes(&self) -> usize {
        0
    }
    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, cce_codec::CodecError> {
        Ok(chunk.to_vec())
    }
    fn decompress_block(
        &self,
        block: &[u8],
        _out_len: usize,
    ) -> Result<Vec<u8>, cce_codec::CodecError> {
        Ok(block.to_vec())
    }
}

/// Publishes `blocks` into `dir`, packed into runs of `chunk_payload`
/// bytes, and returns how many runs that made.
pub fn publish_blocks(dir: &Path, blocks: &[Vec<u8>], chunk_payload: u64) -> usize {
    let runs = pack_runs(blocks.iter().map(|b| b.len() as u64), chunk_payload).unwrap();
    let mut extents = vec![HEAD.to_vec()];
    let mut next = blocks.iter();
    for &run in &runs {
        let mut bytes = Vec::new();
        while (bytes.len() as u64) < run {
            bytes.extend_from_slice(next.next().unwrap());
        }
        extents.push(bytes);
    }
    extents.push(TAIL.to_vec());
    publish(dir, extents.into_iter().map(Ok)).unwrap();
    runs.len()
}

/// Opens what [`publish_blocks`] wrote for `blocks`; the
/// `get-manifest` reply is `b"info"`.
pub fn open_blocks(dir: &Path, blocks: &[Vec<u8>]) -> Result<Artifact, ServeError> {
    let mut offset = HEAD.len() as u64;
    let table = blocks
        .iter()
        .map(|b| {
            let entry =
                BlockEntry { offset, len: b.len() as u32, uncompressed_len: b.len() as u32 };
            offset += b.len() as u64;
            entry
        })
        .collect();
    Artifact::open(dir, DigestRecord::read(dir)?, table, b"info".to_vec())
}
