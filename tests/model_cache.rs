//! Integration tests for the SAMC model cache: warm-start economics,
//! worker invariance, store round-trips, and the hardened record parser.

use cce_core::codec::{compress_parallel, BlockCodec};
use cce_core::fuzz::Outcome;
use cce_core::samc::store::{CacheSource, CachedTrainer, ModelRecord, ModelStore};
use cce_core::samc::{optimize_division_with_workers, OptimizeConfig, SamcCodec, SamcConfig};
use cce_core::workload::{generate_mips_seeded, Spec95};
use cce_core::Algorithm;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cce-model-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A deterministic MIPS program small enough for quick searches.
fn program(name: &str, seed: u64) -> Vec<u8> {
    let profile = Spec95::by_name(name).expect("known benchmark");
    cce_core::isa::mips::encode_text(&generate_mips_seeded(profile, 0.05, seed))
}

fn units_of(text: &[u8]) -> Vec<u32> {
    text.chunks_exact(4).map(|c| u32::from_be_bytes(c.try_into().expect("4 bytes"))).collect()
}

/// A short search config so each test case stays fast.
fn quick_opt() -> OptimizeConfig {
    OptimizeConfig { iterations: 12, sample_units: 1024, ..OptimizeConfig::default() }
}

/// Warm-starting from the cold optimum of the *same* program can never
/// cost more than the cold search: the climb starts at the cold result
/// and only accepts improvements.  Checked across several workloads.
#[test]
fn warm_start_cost_never_exceeds_cold() {
    for (name, seed) in [("go", 3u64), ("ijpeg", 7), ("compress", 11)] {
        let units = units_of(&program(name, seed));
        let cold_config = quick_opt();
        let (cold_division, cold_cost) =
            optimize_division_with_workers(&units, 32, &cold_config, 2);
        let warm_config = OptimizeConfig { warm_start: Some(cold_division), ..cold_config.clone() };
        let (_, warm_cost) = optimize_division_with_workers(&units, 32, &warm_config, 2);
        assert!(
            warm_cost <= cold_cost,
            "{name}/{seed}: warm cost {warm_cost} exceeds cold cost {cold_cost}"
        );
    }
}

/// The cold cache path trains exactly what the worker-invariant search
/// finds: `train_optimized` (which fans across `worker_count()` threads)
/// must agree with an explicitly serial search.
#[test]
fn cold_training_is_worker_invariant_end_to_end() {
    let text = program("go", 5);
    let opt = quick_opt();
    let (codec, cost) =
        SamcCodec::train_optimized(&text, SamcConfig::mips(), &opt).expect("training succeeds");
    let units = units_of(&text);
    let full = OptimizeConfig {
        block_units: SamcConfig::mips().block_units(),
        markov: SamcConfig::mips().markov,
        ..opt
    };
    let (serial_division, serial_cost) = optimize_division_with_workers(&units, 32, &full, 1);
    assert_eq!(codec.config().division, serial_division);
    assert_eq!(cost.to_bits(), serial_cost.to_bits());
}

/// Store round-trip: a saved record loads back with an identical
/// division hash, identical codec bytes, and byte-identical compressed
/// output.
#[test]
fn store_round_trip_preserves_division_and_output() {
    let dir = temp_dir("roundtrip");
    let text = program("ijpeg", 9);
    let opt = quick_opt();
    let mut trainer = CachedTrainer::new(ModelStore::open(&dir).unwrap(), 4);
    let outcome = trainer.train(&text, &SamcConfig::mips(), &opt).expect("cold training");
    assert_eq!(outcome.source, CacheSource::ColdMiss);

    let store = ModelStore::open(&dir).unwrap();
    let record = store.load(outcome.key).expect("store readable").expect("record saved");
    assert_eq!(
        record.codec().config().division.division_hash(),
        outcome.codec.config().division.division_hash()
    );
    assert_eq!(record.codec().to_bytes(), outcome.codec.to_bytes());
    assert_eq!(record.search_cost().to_bits(), outcome.search_cost.to_bits());

    let direct = compress_parallel(&outcome.codec, &text, 2).expect("compresses");
    let restored = compress_parallel(record.codec(), &text, 2).expect("compresses");
    assert_eq!(direct, restored);
    std::fs::remove_dir_all(&dir).ok();
}

/// The trainer's full lifecycle across two programs and a process
/// restart: cold miss, memory hit, disk hit (fresh trainer), warm miss
/// (different program) — with hits bit-identical to the original.
#[test]
fn trainer_reuses_and_warm_starts() {
    let dir = temp_dir("lifecycle");
    let first = program("go", 13);
    let second = program("compress", 13);
    let opt = quick_opt();

    let mut trainer = CachedTrainer::new(ModelStore::open(&dir).unwrap(), 4);
    let cold = trainer.train(&first, &SamcConfig::mips(), &opt).expect("cold");
    assert_eq!(cold.source, CacheSource::ColdMiss);

    let hit = trainer.train(&first, &SamcConfig::mips(), &opt).expect("hit");
    assert_eq!(hit.source, CacheSource::MemoryHit);
    assert_eq!(hit.codec.to_bytes(), cold.codec.to_bytes());
    let cold_image = compress_parallel(&cold.codec, &first, 2).expect("compresses");
    let hit_image = compress_parallel(&hit.codec, &first, 2).expect("compresses");
    assert_eq!(cold_image, hit_image);

    // A fresh trainer over the same directory models a process restart.
    let mut restarted = CachedTrainer::new(ModelStore::open(&dir).unwrap(), 4);
    let disk = restarted.train(&first, &SamcConfig::mips(), &opt).expect("disk");
    assert_eq!(disk.source, CacheSource::DiskHit);
    assert_eq!(disk.codec.to_bytes(), cold.codec.to_bytes());

    // A different program of the same shape warm-starts and round-trips.
    let warm = trainer.train(&second, &SamcConfig::mips(), &opt).expect("warm");
    assert_eq!(warm.source, CacheSource::WarmMiss);
    let image = compress_parallel(&warm.codec, &second, 2).expect("compresses");
    assert_eq!(warm.codec.decompress(&image).expect("decodes"), second);

    assert!(trainer.cache().stats().hits >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The store-record fuzz target is registered for SAMC, accepts its
/// pristine artifact, and rejects (never panics on, never mis-accepts)
/// truncations, version bumps, and bit flips at every byte.
#[test]
fn store_record_surface_is_hardened() {
    let targets = cce_core::fuzz::targets(Algorithm::Samc);
    let target = targets
        .iter()
        .find(|t| t.name() == "SAMC/store-record")
        .expect("store-record target is registered");
    let artifact = target.artifact();
    let bytes = artifact.bytes.clone();
    assert!(matches!(target.run(&bytes), Outcome::Decoded), "pristine record must decode");

    // Truncations at every boundary and a sweep of interior cuts.
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        match target.run(&bytes[..cut]) {
            Outcome::Rejected(_) => {}
            other => panic!("truncation at {cut} produced {other:?}"),
        }
    }
    // A version bump must be a typed rejection, not a misparse.
    let mut bumped = bytes.clone();
    bumped[5] ^= 0x01;
    assert!(matches!(target.run(&bumped), Outcome::Rejected(_)));
    // Single-byte corruption anywhere: the checksum (or a stricter field
    // check) catches it.
    for i in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        match target.run(&bad) {
            Outcome::Rejected(_) => {}
            other => panic!("corruption at {i} produced {other:?}"),
        }
    }
    // An accepted record re-serializes canonically (the target's own
    // invariant); feeding the pristine bytes back through ModelRecord
    // directly double-checks the round trip.
    let record = ModelRecord::from_bytes(&bytes).expect("pristine parses");
    assert_eq!(record.to_bytes(), bytes);
}
