//! Full-pipeline integration: ELF in → compress → decompress → identical
//! text out, for both ISAs and both of the paper's codecs.

use cce_core::codec::BlockCodec;
use cce_core::elf::ElfImage;
use cce_core::isa::Isa;
use cce_core::sadc::{MipsSadc, MipsSadcConfig, X86Sadc, X86SadcConfig};
use cce_core::samc::{SamcCodec, SamcConfig};
use cce_core::workload::spec95_suite;

/// The workflow an embedded build system would run: take an executable,
/// compress its text section, and verify the refill engine reproduces it.
#[test]
fn elf_to_samc_and_back_mips() {
    let program = &spec95_suite(Isa::Mips, 0.05)[4]; // gcc
    let elf_bytes = program.to_elf().to_bytes();

    let parsed = ElfImage::parse(&elf_bytes).expect("valid ELF");
    let text = parsed.text().expect("has .text");

    let codec = SamcCodec::train(text, SamcConfig::mips()).expect("trainable");
    let image = codec.compress(text).unwrap();
    assert_eq!(codec.decompress(&image).expect("decompressible"), text);
}

#[test]
fn elf_to_samc_and_back_x86() {
    let program = &spec95_suite(Isa::X86, 0.05)[4];
    let elf_bytes = program.to_elf().to_bytes();
    let parsed = ElfImage::parse(&elf_bytes).expect("valid ELF");
    let text = parsed.text().expect("has .text");

    let codec = SamcCodec::train(text, SamcConfig::x86()).expect("trainable");
    let image = codec.compress(text).unwrap();
    assert_eq!(codec.decompress(&image).expect("decompressible"), text);
}

#[test]
fn elf_to_sadc_and_back_mips() {
    let program = &spec95_suite(Isa::Mips, 0.05)[10]; // perl
    let elf_bytes = program.to_elf().to_bytes();
    let parsed = ElfImage::parse(&elf_bytes).expect("valid ELF");
    let text = parsed.text().expect("has .text");

    let codec = MipsSadc::train(text, MipsSadcConfig::default()).expect("trainable");
    let image = codec.compress(text).unwrap();
    assert_eq!(codec.decompress(&image).expect("decompressible"), text);
    // The compressed image plus tables must be smaller than the original.
    assert!(image.ratio() < 1.0, "ratio {}", image.ratio());
}

#[test]
fn elf_to_sadc_and_back_x86() {
    let program = &spec95_suite(Isa::X86, 0.05)[10];
    let elf_bytes = program.to_elf().to_bytes();
    let parsed = ElfImage::parse(&elf_bytes).expect("valid ELF");
    let text = parsed.text().expect("has .text");

    let codec = X86Sadc::train(text, X86SadcConfig::default()).expect("trainable");
    let image = codec.compress(text).unwrap();
    assert_eq!(codec.decompress(&image).expect("decompressible"), text);
}

/// A miss-driven refill never needs anything but the block bytes and the
/// model: simulate random access patterns against SAMC block storage.
#[test]
fn random_access_refill_pattern() {
    let program = &spec95_suite(Isa::Mips, 0.05)[13]; // tomcatv
    let text = &program.text;
    let codec = SamcCodec::train(text, SamcConfig::mips()).expect("trainable");
    let image = codec.compress(text).unwrap();

    // Visit blocks in a scrambled order, as cache misses would.
    let n = image.block_count();
    for k in 0..n {
        let i = (k * 2654435761) % n;
        let start = i * 32;
        let len = (text.len() - start).min(32);
        let block = codec.decompress_block(image.block(i), len).expect("block decodes");
        assert_eq!(&block[..], &text[start..start + len], "block {i}");
    }
}
