//! Build-system workflow: train once at link time, ship one `.cce`
//! container, decompress blocks at "runtime" from what it holds.
//!
//! A real compressed-code build splits into two halves: the *toolchain*
//! side trains a codec and produces the ROM image, and the *device* side
//! (the decompression hardware / boot firmware) holds only the serialized
//! model and the compressed blocks, found through the block index (the
//! paper's line address table).  This example round-trips both halves
//! through one container file.
//!
//! Run with: `cargo run --example persistence`

use cce_core::codec::BlockCodec;
use cce_core::container::{self, ContainerIdentity, ContainerV2Reader};
use cce_core::elf::{Class, Endianness};
use cce_core::isa::Isa;
use cce_core::samc::{SamcCodec, SamcConfig};
use cce_core::workload::spec95_suite;
use cce_core::Algorithm;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("cce-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // ---- toolchain side -------------------------------------------------
    let programs = spec95_suite(Isa::Mips, 0.5);
    let program = programs.iter().find(|p| p.name == "wave5").expect("in suite");
    let codec = SamcCodec::train(&program.text, SamcConfig::mips())?;
    let image = codec.compress(&program.text)?;

    let identity = ContainerIdentity {
        algorithm: Algorithm::Samc,
        isa: Isa::Mips,
        class: Class::Elf32,
        endianness: Endianness::Big,
        entry: 0x40_0000,
    };
    let path = dir.join("wave5.cce");
    std::fs::write(&path, container::encode_image(identity, &codec.to_bytes(), &image)?)?;
    println!(
        "toolchain: trained on {} bytes, wrote a {}-byte container",
        program.text.len(),
        std::fs::metadata(&path)?.len(),
    );
    println!("           text ratio {:.3} (model tables included)", image.ratio());

    // ---- device side ----------------------------------------------------
    // Nothing from the toolchain's memory survives: reopen from disk.
    let mut reader = ContainerV2Reader::open(std::io::BufReader::new(std::fs::File::open(&path)?))?;
    let device_codec = SamcCodec::from_bytes(reader.codec_bytes())?;

    // Serve a few "cache misses": each reads one block through the index.
    for block in [0usize, 17, reader.block_count() - 1] {
        let start = block * reader.block_size();
        let (data, len) = reader.read_block(block)?;
        let bytes = device_codec.decompress_block(&data, len)?;
        assert_eq!(&bytes[..], &program.text[start..start + len]);
        println!("device:    refilled block {block} ({len} bytes) ok");
    }

    // And the whole program decompresses identically.
    assert_eq!(reader.decode_text(&device_codec)?, program.text);
    println!("device:    full image verified against the original text");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
