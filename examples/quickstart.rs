//! Quickstart: compress an embedded program for a compressed-code memory
//! system and pull one cache block back out, as the refill engine would.
//!
//! Run with: `cargo run --example quickstart`

use cce_core::codec::BlockCodec;
use cce_core::isa::mips::encode_text;
use cce_core::samc::{SamcCodec, SamcConfig};
use cce_core::workload::{generate_mips, Spec95};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Get a program. Here: the synthetic stand-in for SPEC95 `go`
    //    (substitute your own `.text` bytes — see `compress_firmware.rs`).
    let profile = Spec95::by_name("go").expect("known benchmark");
    let text = encode_text(&generate_mips(profile, 0.5));
    println!("program: {} bytes of MIPS text", text.len());

    // 2. Train SAMC (pass 1: Markov statistics over the whole program)
    //    and compress (pass 2: arithmetic-code each 32-byte cache block).
    let codec = SamcCodec::train(&text, SamcConfig::mips())?;
    let image = codec.compress(&text)?;
    println!(
        "compressed: {} bytes in {} blocks (model {} bytes, LAT {} bytes)",
        image.compressed_len(),
        image.block_count(),
        codec.model().model_bytes(),
        image.lat_bytes(),
    );
    println!("compression ratio: {:.3}", image.ratio());

    // 3. On an I-cache miss the refill engine decompresses ONE block —
    //    no other state needed. Decode block 7 in isolation:
    let block_index = 7;
    let block = codec.decompress_block(image.block(block_index), 32)?;
    assert_eq!(&block[..], &text[block_index * 32..block_index * 32 + 32]);
    println!("block {block_index} decompressed independently: {} bytes ok", block.len());

    // 4. And the whole image round-trips.
    assert_eq!(codec.decompress(&image)?, text);
    println!("full round trip verified");
    Ok(())
}
