//! Registry-driven fuzz targets: every decode surface of every codec.
//!
//! The `cce-fuzz` crate supplies the seeded mutation engine and driver;
//! this module knows the *targets* — for each registered [`Algorithm`]
//! it trains a golden codec on a representative workload and exposes
//! every input-facing decode path as a [`FuzzTarget`]:
//!
//! * **codec model bytes** — `CodecBuilder::codec_from_bytes` on mutated
//!   serialized models, then a decode of the pristine image with whatever
//!   deserialized (a tampered-codebook probe);
//! * **`.cce` container bytes** — [`ContainerV2Reader::open`] and
//!   [`ContainerV2Reader::verify`] on mutated containers (header, codec
//!   model, blocks, offset index and footer all in the mutation surface,
//!   the digest section resealed over each mutant so the tampering gets
//!   past it), then a block-by-block decode cross-checked
//!   *differentially* against a full decode of the same blocks rebuilt
//!   as a [`BlockImage`];
//! * **program text** — the *differential* compress path: serial
//!   [`BlockCodec::compress`] vs [`compress_parallel`] must agree
//!   byte-for-byte (or fail identically), and whatever compresses must
//!   round-trip;
//! * **file streams** — the `compress(1)`/`gzip` decoders on mutated
//!   streams, with the LZW output budget engaged;
//! * **model-store records** — SAMC's cached-model record parser
//!   ([`cce_samc::store::ModelRecord`]) on mutated records, with a
//!   canonical re-serialization check on anything it accepts;
//! * **serving tier** ([`serve_targets`]) — a golden container's
//!   digest section, mutated in place and read back through
//!   [`ContainerV2Reader`] (count/length/digest corruption), and the
//!   daemon's wire-frame
//!   reader + request parser on mutated request streams (bad magic,
//!   oversized declared lengths, truncation, unknown opcodes).  Both
//!   must reject with typed errors — a panic or a non-canonical
//!   accept is a violation, exactly as for the codec surfaces.
//!
//! Per-case cost is bounded without trusting the decoders: any mutated
//! image claiming more than [`case budget`](#output-budget) output is
//! rejected by the harness itself, so a hang or allocation blowup in a
//! decoder shows up as a slow/failing case instead of a stuck process.
//!
//! # Output budget
//!
//! Targets reject mutated inputs whose *claimed* decompressed size
//! exceeds `16 × golden + 64 KiB`. Format-level caps (block size ≤ 1 MiB,
//! per-block length ≤ block size + slack) bound each field, but a
//! thousand maximal blocks still add up; the budget keeps every fuzz
//! case O(golden size).

use crate::container::{self, ContainerIdentity, ContainerV2Reader};
use crate::registry::{Algorithm, CodecBuilder};
use cce_codec::{compress_parallel, BlockCodec, BlockImage, CodecError};
use cce_fuzz::{fuzz_target, Artifact};
pub use cce_fuzz::{Failure, FailureKind, FuzzConfig, FuzzReport, FuzzTarget, Outcome};
use cce_isa::Isa;
use cce_lz::{Gzip, Lzw};
use cce_workload::{generate_mips, generate_x86, Spec95};
use std::ops::Range;

/// Extra headroom above `16 × golden` in the per-case output budget.
const BUDGET_SLACK: usize = 64 * 1024;

/// Workers used on the parallel side of the differential compress check.
/// Deliberately not 1 (that would be the serial path again) and fixed so
/// reports stay machine-independent.
const DIFFERENTIAL_WORKERS: usize = 3;

/// The golden MIPS program text targets are trained on.
fn mips_text() -> Vec<u8> {
    let profile = Spec95::by_name("ijpeg").expect("known benchmark");
    let mut text = cce_isa::mips::encode_text(&generate_mips(profile, 0.02));
    text.truncate(8192); // keep per-case work small; stays 4-byte aligned
    text
}

/// The golden x86 program text (instruction-aligned, so untruncated).
fn x86_text() -> Vec<u8> {
    let profile = Spec95::by_name("ijpeg").expect("known benchmark");
    generate_x86(profile, 0.01)
}

/// Per-case output budget derived from the golden artifact size.
fn budget_for(golden_len: usize) -> usize {
    golden_len.saturating_mul(16) + BUDGET_SLACK
}

/// The synthesized rejection for inputs whose claimed output exceeds the
/// case budget (counted as `Rejected`, like any typed refusal).
fn over_budget() -> CodecError {
    CodecError::corrupt("fuzz harness", "claimed output exceeds case budget")
}

// ---------------------------------------------------------------------
// Block-codec targets
// ---------------------------------------------------------------------

/// Mutates the serialized codec model; a parse that succeeds must also
/// survive decoding the pristine image.
struct CodecBytesTarget {
    label: String,
    builder: CodecBuilder,
    codec_bytes: Vec<u8>,
    golden_image: BlockImage,
}

impl FuzzTarget for CodecBytesTarget {
    fn name(&self) -> String {
        format!("{}/codec", self.label)
    }

    fn artifact(&self) -> Artifact {
        let len = self.codec_bytes.len();
        Artifact::with_boundaries(
            "codec model",
            self.codec_bytes.clone(),
            vec![4, 6, 10, 11, len / 2],
        )
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let handle = match self.builder.codec_from_bytes(bytes) {
            Ok(handle) => handle,
            Err(e) => return Outcome::Rejected(e),
        };
        let codec = match handle.as_block() {
            Some(codec) => codec,
            None => return Outcome::Violation("registry built a non-block codec".into()),
        };
        // A mutated model that parses is a *valid* model — decoding the
        // golden image may yield different bytes (or a typed error), but
        // never a panic or hang.
        match codec.decompress(&self.golden_image) {
            Ok(_) => Outcome::Decoded,
            Err(e) => Outcome::Rejected(e),
        }
    }
}

/// Mutates a whole v2 (indexed) `.cce` container: header, codec model,
/// blocks, index and footer all sit in the mutation surface, and the
/// digest section is resealed over each mutant (`container::reseal`).
/// Whatever [`ContainerV2Reader::open`] and
/// [`ContainerV2Reader::verify`] accept must decode block by block
/// without panic or blowup, and agree with a full decode of the same
/// blocks rebuilt as a [`BlockImage`].
struct ContainerV2Target {
    label: String,
    container_bytes: Vec<u8>,
    codec_len: usize,
    budget: usize,
}

impl FuzzTarget for ContainerV2Target {
    fn name(&self) -> String {
        format!("{}/container-v2", self.label)
    }

    fn artifact(&self) -> Artifact {
        // Header fields (each identity byte on its own), codec model,
        // block data, index, digest section, footer and its digest
        // section offset field.
        let bytes = &self.container_bytes;
        let len = bytes.len();
        let section = u64::from_be_bytes(bytes[len - 12..len - 4].try_into().expect("8 bytes"));
        Artifact::with_boundaries(
            "container v2",
            bytes.clone(),
            vec![
                4,
                5,
                6,
                7,
                8,
                16,
                20,
                24,
                28,
                28 + self.codec_len,
                section as usize,
                len - 36,
                len - 12,
                len - 4,
            ],
        )
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        // Reseal the digests over the mutant, so a tampered header,
        // model, index or payload reaches the parser and the decoders
        // (the section's own corruption is `serve/digests`' surface).
        let resealed = container::reseal(bytes);
        let bytes = resealed.as_deref().unwrap_or(bytes);
        let mut reader = match ContainerV2Reader::open(std::io::Cursor::new(bytes)) {
            Ok(reader) => reader,
            Err(e) => return Outcome::Rejected(e),
        };
        if reader.original_len() > self.budget as u64 {
            return Outcome::Rejected(over_budget());
        }
        if let Err(e) = reader.verify() {
            return Outcome::Rejected(e);
        }
        // The mutated tag byte may redirect to another algorithm; build
        // the codec from the *container's* claimed identity, like the
        // CLI does.
        let identity = reader.identity();
        let builder = identity.algorithm.build(identity.isa, reader.block_size());
        let handle = match builder.codec_from_bytes(reader.codec_bytes()) {
            Ok(handle) => handle,
            Err(e) => return Outcome::Rejected(e),
        };
        let codec = match handle.as_block() {
            Some(codec) => codec,
            None => return Outcome::Violation("container accepted a non-block codec".into()),
        };
        let mut blocks = Vec::with_capacity(reader.block_count());
        let mut lens = Vec::with_capacity(reader.block_count());
        for index in 0..reader.block_count() {
            match reader.read_block(index) {
                Ok((data, len)) => {
                    blocks.push(data);
                    lens.push(len);
                }
                Err(e) => return Outcome::Rejected(e),
            }
        }
        let original_len = reader.original_len() as usize;
        let image = BlockImage::new(blocks, lens, reader.block_size(), original_len, 0);
        // Differential: the indexed block-by-block decode and the full
        // image decode must agree, in success and in content.
        match (reader.decode_text(codec), codec.decompress(&image)) {
            (Ok(text), Ok(full)) if text == full => Outcome::Decoded,
            (Ok(_), Ok(_)) => Outcome::Violation("indexed and full decode disagree".into()),
            (Err(e), Err(_)) => Outcome::Rejected(e),
            (Ok(_), Err(e)) => {
                Outcome::Violation(format!("indexed decode succeeded but full decode failed: {e}"))
            }
            (Err(e), Ok(_)) => {
                Outcome::Violation(format!("full decode succeeded but indexed decode failed: {e}"))
            }
        }
    }
}

/// Mutates the *uncompressed* text: serial and parallel compression must
/// agree byte-for-byte (or fail identically), and success must round-trip.
struct TextDifferentialTarget {
    label: String,
    codec: Box<dyn BlockCodec>,
    text: Vec<u8>,
}

impl FuzzTarget for TextDifferentialTarget {
    fn name(&self) -> String {
        format!("{}/text-diff", self.label)
    }

    fn artifact(&self) -> Artifact {
        let block = self.codec.block_size();
        let len = self.text.len();
        Artifact::with_boundaries("text", self.text.clone(), vec![4, block, 2 * block, len / 2])
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let serial = self.codec.compress(bytes);
        let parallel = compress_parallel(self.codec.as_ref(), bytes, DIFFERENTIAL_WORKERS);
        match (serial, parallel) {
            (Ok(serial), Ok(parallel)) => {
                if serial != parallel {
                    return Outcome::Violation(
                        "serial and parallel compression produced different images".into(),
                    );
                }
                match self.codec.decompress(&serial) {
                    Ok(restored) if restored == bytes => Outcome::Decoded,
                    Ok(_) => Outcome::Violation("compressed text did not round-trip".into()),
                    Err(e) => {
                        Outcome::Violation(format!("own compressed image failed to decode: {e}"))
                    }
                }
            }
            (Err(serial), Err(parallel)) => {
                if serial.to_string() == parallel.to_string() {
                    Outcome::Rejected(serial)
                } else {
                    Outcome::Violation(format!(
                        "serial and parallel rejections differ: `{serial}` vs `{parallel}`"
                    ))
                }
            }
            (Ok(_), Err(e)) => {
                Outcome::Violation(format!("parallel failed where serial succeeded: {e}"))
            }
            (Err(e), Ok(_)) => {
                Outcome::Violation(format!("serial failed where parallel succeeded: {e}"))
            }
        }
    }
}

/// Mutates a serialized model-store record ([`cce_samc::store`]): any
/// parse failure must be a typed rejection, and a parse that succeeds
/// must re-serialize to exactly the bytes it was parsed from (the record
/// format is canonical — checksum, exact framing, no trailing slack).
struct StoreRecordTarget {
    record_bytes: Vec<u8>,
    codec_len: usize,
}

impl FuzzTarget for StoreRecordTarget {
    fn name(&self) -> String {
        "SAMC/store-record".into()
    }

    fn artifact(&self) -> Artifact {
        // Magic, version, key, cost, codec length, codec payload, checksum.
        Artifact::with_boundaries(
            "model-store record",
            self.record_bytes.clone(),
            vec![4, 6, 14, 22, 26, 26 + self.codec_len],
        )
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let record = match cce_samc::store::ModelRecord::from_bytes(bytes) {
            Ok(record) => record,
            Err(e) => return Outcome::Rejected(e),
        };
        if record.to_bytes() == bytes {
            Outcome::Decoded
        } else {
            Outcome::Violation("accepted record did not re-serialize canonically".into())
        }
    }
}

// ---------------------------------------------------------------------
// File-codec targets
// ---------------------------------------------------------------------

/// Mutates a compressed file stream and decodes it (LZW under its output
/// budget; gzip's decoder is internally bounded by the declared length).
struct FileStreamTarget {
    algorithm: Algorithm,
    stream: Vec<u8>,
    budget: usize,
}

impl FuzzTarget for FileStreamTarget {
    fn name(&self) -> String {
        format!("{}/stream", self.algorithm)
    }

    fn artifact(&self) -> Artifact {
        let len = self.stream.len();
        Artifact::with_boundaries("stream", self.stream.clone(), vec![3, 4, len / 2])
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let result = match self.algorithm {
            Algorithm::UnixCompress => Lzw::new()
                .decompress_bounded(bytes, self.budget)
                .map_err(|e| CodecError::corrupt("compress", e)),
            Algorithm::Gzip => {
                Gzip::new().decompress(bytes).map_err(|e| CodecError::corrupt("gzip", e))
            }
            _ => return Outcome::Violation("file target built for a block algorithm".into()),
        };
        match result {
            Ok(_) => Outcome::Decoded,
            Err(e) => Outcome::Rejected(e),
        }
    }
}

/// Mutates the uncompressed text for a file codec: compression is total,
/// and its output must round-trip.
struct FileTextTarget {
    algorithm: Algorithm,
    text: Vec<u8>,
}

impl FuzzTarget for FileTextTarget {
    fn name(&self) -> String {
        format!("{}/text-diff", self.algorithm)
    }

    fn artifact(&self) -> Artifact {
        let len = self.text.len();
        Artifact::with_boundaries("text", self.text.clone(), vec![4, len / 2])
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let handle = self
            .algorithm
            .build(Isa::Mips, 32)
            .train(&[])
            .expect("file codecs train unconditionally");
        let codec = match handle.as_file() {
            Some(codec) => codec,
            None => return Outcome::Violation("registry built a non-file codec".into()),
        };
        let compressed = codec.compress(bytes);
        match codec.decompress(&compressed) {
            Ok(restored) if restored == bytes => Outcome::Decoded,
            Ok(_) => Outcome::Violation("file codec round trip mismatch".into()),
            Err(e) => Outcome::Violation(format!("own compressed stream failed to decode: {e}")),
        }
    }
}

/// Mutates one raw interleaved-rANS block stream: the header tag, the
/// per-lane final states, and the renorm word stream all sit in the
/// mutation surface.  The decoder must reject malformed streams with
/// typed errors (truncation mid-refill, bad lane tag, lane-state
/// under-run) and never panic; a stream it accepts must produce exactly
/// the block's declared output length.
struct RansStreamTarget {
    codec: cce_rans::SamcRansCodec,
    block_bytes: Vec<u8>,
    out_len: usize,
}

impl FuzzTarget for RansStreamTarget {
    fn name(&self) -> String {
        "samc-rans/stream".into()
    }

    fn artifact(&self) -> Artifact {
        // Header tag, each lane's 4-byte final state, then the shared
        // renorm word stream (spliced at a word boundary).
        let lanes = self.codec.lanes().get();
        let mut boundaries: Vec<usize> = (0..=lanes).map(|i| 1 + 4 * i).collect();
        let words_mid = 1 + 4 * lanes + (self.block_bytes.len() - 1 - 4 * lanes) / 4 * 2;
        boundaries.push(words_mid);
        Artifact::with_boundaries("rans stream", self.block_bytes.clone(), boundaries)
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        match self.codec.decompress_block(bytes, self.out_len) {
            Ok(block) if block.len() == self.out_len => Outcome::Decoded,
            Ok(block) => Outcome::Violation(format!(
                "decoder returned {} bytes for a {}-byte block",
                block.len(),
                self.out_len
            )),
            Err(e) => Outcome::Rejected(e),
        }
    }
}

// ---------------------------------------------------------------------
// Serving-tier targets
// ---------------------------------------------------------------------

/// Wraps a serving-tier rejection as the [`CodecError`] the fuzz
/// harness counts; the typed [`cce_serve::ServeError`] message rides
/// along.
fn serve_reject(e: cce_serve::ServeError) -> CodecError {
    CodecError::corrupt("serve", e.to_string())
}

/// Mutates the digest section of a golden container: three raw 40 KiB
/// blocks (three runs) under a huffman tag.  Whatever the reader
/// accepts must verify, and must be the section the writer wrote (its
/// own SHA-256 leaves no slack for another).
struct DigestSectionTarget {
    container: Vec<u8>,
    /// Where the digest section lies in `container`.
    section: Range<usize>,
}

impl DigestSectionTarget {
    fn golden() -> Self {
        let blocks: Vec<Vec<u8>> = (0..3u8).map(|i| vec![0xa5 ^ i; 40 << 10]).collect();
        let image = BlockImage::new(blocks, vec![32; 3], 32, 96, 0);
        let identity = ContainerIdentity {
            algorithm: Algorithm::ByteHuffman,
            isa: Isa::Mips,
            class: cce_elf::Class::Elf32,
            endianness: cce_elf::Endianness::Big,
            entry: 0x40_0000,
        };
        let container = container::encode_image(identity, &[], &image).expect("golden container");
        let len = container.len();
        let start = u64::from_be_bytes(container[len - 12..len - 4].try_into().expect("8 bytes"));
        Self { section: start as usize..len - 36, container }
    }
}

impl FuzzTarget for DigestSectionTarget {
    fn name(&self) -> String {
        "serve/digests".into()
    }

    fn artifact(&self) -> Artifact {
        // Extent count, each extent's length and digest, the section's
        // own digest.
        let section = self.container[self.section.clone()].to_vec();
        let mut boundaries: Vec<usize> = (0..5).flat_map(|e| [4 + 40 * e, 12 + 40 * e]).collect();
        boundaries.push(section.len() - 32);
        Artifact::with_boundaries("digest section", section, boundaries)
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        let container =
            [&self.container[..self.section.start], bytes, &self.container[self.section.end..]]
                .concat();
        let mut reader = match ContainerV2Reader::open(std::io::Cursor::new(&container)) {
            Ok(reader) => reader,
            Err(e) => return Outcome::Rejected(e),
        };
        match reader.verify() {
            Ok(_) if bytes == &self.container[self.section.clone()] => Outcome::Decoded,
            Ok(_) => {
                Outcome::Violation("accepted a digest section the writer did not write".into())
            }
            Err(e) => Outcome::Rejected(e),
        }
    }
}

/// Mutates a pipelined request stream (every opcode, back to back):
/// the frame reader and request parser must reject malformed input
/// with typed errors, and anything accepted must round-trip through
/// its canonical encoding.
struct ServeFrameTarget {
    stream: Vec<u8>,
    boundaries: Vec<usize>,
}

impl ServeFrameTarget {
    fn golden() -> Self {
        use cce_serve::proto::Request;
        let requests = [
            Request::GetManifest,
            Request::GetBlock(3),
            Request::DecodeBlock(1),
            Request::Stats,
            Request::Shutdown,
        ];
        let mut stream = Vec::new();
        let mut boundaries = vec![4, 5]; // magic and opcode of the first frame
        for req in requests {
            stream.extend_from_slice(&req.encode());
            boundaries.push(stream.len());
        }
        boundaries.pop(); // end-of-stream is not a splice point
        Self { stream, boundaries }
    }
}

impl FuzzTarget for ServeFrameTarget {
    fn name(&self) -> String {
        "serve/frame".into()
    }

    fn artifact(&self) -> Artifact {
        Artifact::with_boundaries("request stream", self.stream.clone(), self.boundaries.clone())
    }

    fn run(&self, bytes: &[u8]) -> Outcome {
        use cce_serve::proto::{read_frame, Request, MAX_REQUEST_PAYLOAD};
        let mut cursor = bytes;
        loop {
            let frame = match read_frame(&mut cursor, MAX_REQUEST_PAYLOAD) {
                Ok(None) => return Outcome::Decoded,
                Ok(Some(frame)) => frame,
                // The server treats this as a fatal desync: typed
                // error, connection closed, daemon alive.
                Err(e) => return Outcome::Rejected(serve_reject(e)),
            };
            let request = match Request::parse(&frame) {
                Ok(request) => request,
                // The server's Malformed path: BadRequest, keep going —
                // either way a typed rejection, never a panic.
                Err(e) => return Outcome::Rejected(serve_reject(e)),
            };
            let reencoded = request.encode();
            let again = match read_frame(&mut reencoded.as_slice(), MAX_REQUEST_PAYLOAD) {
                Ok(Some(frame)) => Request::parse(&frame).ok(),
                _ => return Outcome::Violation("canonical encoding failed to read back".into()),
            };
            if again != Some(request) {
                return Outcome::Violation(format!(
                    "request {request:?} did not round-trip its canonical encoding"
                ));
            }
        }
    }
}

/// The serving-tier fuzz targets (a container's digest section and
/// wire frames).
pub fn serve_targets() -> Vec<Box<dyn FuzzTarget>> {
    vec![Box::new(DigestSectionTarget::golden()), Box::new(ServeFrameTarget::golden())]
}

// ---------------------------------------------------------------------
// Target construction and entry points
// ---------------------------------------------------------------------

/// Builds the block-codec target set for one (algorithm, ISA, label).
fn block_targets_for(
    algorithm: Algorithm,
    isa: Isa,
    label: &str,
    text: Vec<u8>,
) -> Vec<Box<dyn FuzzTarget>> {
    let builder = algorithm.build(isa, 32);
    let handle =
        builder.train(&text).unwrap_or_else(|e| panic!("{label}: golden training failed: {e}"));
    let crate::registry::CodecHandle::Block(codec) = handle else {
        panic!("{label}: expected a block codec")
    };
    let golden_image = codec.compress(&text).expect("golden compression succeeds");
    let codec_bytes = codec.to_bytes();
    let codec_len = codec_bytes.len();
    let budget = budget_for(text.len());
    let identity = ContainerIdentity {
        algorithm,
        isa,
        class: cce_elf::Class::Elf32,
        endianness: cce_elf::Endianness::Big,
        entry: 0x40_0000,
    };
    let container_bytes =
        container::encode_image(identity, &codec_bytes, &golden_image).expect("golden container");

    vec![
        Box::new(CodecBytesTarget { label: label.to_string(), builder, codec_bytes, golden_image }),
        Box::new(ContainerV2Target {
            label: label.to_string(),
            container_bytes,
            codec_len,
            budget,
        }),
        Box::new(TextDifferentialTarget { label: label.to_string(), codec, text }),
    ]
}

/// All fuzz targets for `algorithm`.
///
/// Block algorithms get three targets (codec model, `.cce` container,
/// differential text); SAMC additionally gets the model-store record
/// target, SADC the x86 variants of all three since its two ISA
/// variants are distinct decoders, and samc-rans a raw-stream target
/// putting the rANS header, lane states, and renorm words in the
/// mutation surface.  File algorithms get a mutated-stream target and a
/// round-trip text target.
///
/// # Panics
///
/// Panics if golden training fails — the golden workload is fixed, so
/// that is a build regression, not an input condition.
pub fn targets(algorithm: Algorithm) -> Vec<Box<dyn FuzzTarget>> {
    match algorithm {
        Algorithm::UnixCompress | Algorithm::Gzip => {
            let text = mips_text();
            let stream = match algorithm {
                Algorithm::UnixCompress => Lzw::new().compress(&text),
                _ => Gzip::new().compress(&text),
            };
            vec![
                Box::new(FileStreamTarget { algorithm, stream, budget: budget_for(text.len()) }),
                Box::new(FileTextTarget { algorithm, text }),
            ]
        }
        Algorithm::ByteHuffman => {
            block_targets_for(algorithm, Isa::Mips, &algorithm.to_string(), mips_text())
        }
        Algorithm::Samc => {
            let text = mips_text();
            let mut all =
                block_targets_for(algorithm, Isa::Mips, &algorithm.to_string(), text.clone());
            // SAMC's extra decode surface: the model-cache record wrapping
            // its serialized codec.
            let codec = cce_samc::SamcCodec::train(&text, cce_samc::SamcConfig::mips())
                .expect("SAMC: golden training failed (store record)");
            let key = cce_samc::store::ModelKey::for_request(
                &text,
                codec.config(),
                &cce_samc::OptimizeConfig::default(),
            );
            let codec_len = codec.to_bytes().len();
            let record = cce_samc::store::ModelRecord::new(key, 0.0, codec);
            all.push(Box::new(StoreRecordTarget { record_bytes: record.to_bytes(), codec_len }));
            all
        }
        Algorithm::Sadc => {
            let mut all = block_targets_for(algorithm, Isa::Mips, "SADC", mips_text());
            // The x86 variant is a different decoder (byte-aligned dictionary
            // with instruction grouping); fuzz its serialized surfaces too.
            let mut x86 = block_targets_for(algorithm, Isa::X86, "SADC[x86]", x86_text());
            all.append(&mut x86);
            all
        }
        Algorithm::SamcRans => {
            let text = mips_text();
            let mut all =
                block_targets_for(algorithm, Isa::Mips, &algorithm.to_string(), text.clone());
            // The rANS-specific decode surface: one raw block stream with
            // its self-describing header in the mutation surface.
            let codec = cce_rans::SamcRansCodec::train(
                &text,
                cce_samc::SamcConfig::mips(),
                cce_rans::Lanes::default(),
            )
            .expect("samc-rans: golden training failed (stream target)");
            let image = codec.compress(&text).expect("samc-rans: golden compression succeeds");
            let block_bytes = image.block(0).to_vec();
            let out_len = image.block_uncompressed_len(0);
            all.push(Box::new(RansStreamTarget { codec, block_bytes, out_len }));
            all
        }
    }
}

/// Fuzzes every target of `algorithm` and returns one report per target.
pub fn run(algorithm: Algorithm, config: &FuzzConfig) -> Vec<FuzzReport> {
    targets(algorithm).iter().map(|target| fuzz_target(target.as_ref(), config)).collect()
}

/// Fuzzes the serving-tier targets ([`serve_targets`]).
pub fn run_serve(config: &FuzzConfig) -> Vec<FuzzReport> {
    serve_targets().iter().map(|target| fuzz_target(target.as_ref(), config)).collect()
}

/// Fuzzes every registered algorithm, then the serving tier.
pub fn run_all(config: &FuzzConfig) -> Vec<FuzzReport> {
    let mut reports: Vec<FuzzReport> =
        Algorithm::ALL.into_iter().flat_map(|algorithm| run(algorithm, config)).collect();
    reports.extend(run_serve(config));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_has_targets() {
        assert_eq!(targets(Algorithm::UnixCompress).len(), 2);
        assert_eq!(targets(Algorithm::Gzip).len(), 2);
        assert_eq!(targets(Algorithm::ByteHuffman).len(), 3);
        assert_eq!(targets(Algorithm::Samc).len(), 4);
        assert_eq!(targets(Algorithm::Sadc).len(), 6);
        assert_eq!(targets(Algorithm::SamcRans).len(), 4);
        assert_eq!(serve_targets().len(), 2);
    }

    #[test]
    fn target_names_are_distinct() {
        let mut names: Vec<String> = Algorithm::ALL
            .into_iter()
            .flat_map(|a| targets(a).iter().map(|t| t.name()).collect::<Vec<_>>())
            .chain(serve_targets().iter().map(|t| t.name()))
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate target names");
    }

    #[test]
    fn pristine_artifacts_decode() {
        // Case 0 aside, the *unmutated* artifact must decode cleanly for
        // every target — otherwise the fuzz results are meaningless.
        let all = Algorithm::ALL.into_iter().flat_map(targets).chain(serve_targets());
        for target in all {
            let artifact = target.artifact();
            assert!(
                matches!(target.run(&artifact.bytes), Outcome::Decoded),
                "{} failed on its pristine artifact",
                target.name()
            );
        }
    }
}
