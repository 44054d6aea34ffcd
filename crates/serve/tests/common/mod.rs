//! Fixtures shared by the integration tests: an identity codec and a
//! bare image (8-byte head, the blocks back to back in runs of at most
//! [`RUN_TARGET`] bytes, 8-byte tail) with the runs and block table
//! `Artifact::open` takes.
#![allow(dead_code)]

use cce_serve::sha256;
use cce_serve::store::{Artifact, BlockEntry, Run};
use cce_serve::ServeError;
use std::path::Path;

const HEAD: &[u8] = b"headhead";
const TAIL: &[u8] = b"tailtail";

/// Most bytes of whole blocks per run (a lone longer block gets a run
/// of its own).
pub const RUN_TARGET: u64 = 128;

/// The image file [`publish_blocks`] writes in its directory.
pub const IMAGE: &str = "image";

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

/// Where `blocks` lie in the image, and the runs holding them with the
/// digests of the intended bytes.
fn layout(blocks: &[Vec<u8>]) -> (Vec<Run>, Vec<BlockEntry>) {
    let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut table = Vec::new();
    let mut offset = HEAD.len() as u64;
    for block in blocks {
        match runs.last_mut() {
            Some((_, bytes)) if (bytes.len() + block.len()) as u64 <= RUN_TARGET => {
                bytes.extend_from_slice(block)
            }
            _ => runs.push((offset, block.clone())),
        }
        table.push(BlockEntry {
            offset,
            len: block.len() as u32,
            uncompressed_len: block.len() as u32,
        });
        offset += block.len() as u64;
    }
    let runs = runs
        .into_iter()
        .map(|(start, bytes)| Run {
            start,
            len: bytes.len() as u64,
            sha256: sha256::digest(&bytes),
        })
        .collect();
    (runs, table)
}

/// Writes `blocks` to `<dir>/`[`IMAGE`] and returns how many runs hold
/// them.
pub fn publish_blocks(dir: &Path, blocks: &[Vec<u8>]) -> usize {
    let image: Vec<u8> = [HEAD, &blocks.concat(), TAIL].concat();
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(IMAGE), image).unwrap();
    layout(blocks).0.len()
}

/// Opens what [`publish_blocks`] wrote for `blocks`; the
/// `get-manifest` reply is `b"info"`.
pub fn open_blocks(dir: &Path, blocks: &[Vec<u8>]) -> Result<Artifact, ServeError> {
    let (runs, table) = layout(blocks);
    let file = std::fs::File::open(dir.join(IMAGE))?;
    Artifact::open(file, runs, table, b"info".to_vec())
}
