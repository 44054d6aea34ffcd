//! Persistent model store and warm-start cache for trained SAMC codecs.
//!
//! The paper trains a per-program Markov model and searches stream
//! divisions from scratch for every input; at production request rates
//! that training dominates end-to-end compression cost.  This module
//! amortizes it:
//!
//! * [`ModelRecord`] — a versioned, checksummed on-disk record holding a
//!   trained codec (stream division + Markov tables via
//!   [`BlockCodec::to_bytes`]) under a [`ModelKey`] derived from the
//!   program text and every training parameter.
//! * [`ModelStore`] — a directory of records, written atomically
//!   (temp file + rename) and loaded back with the same typed-`Corrupt`
//!   discipline as every other serialized surface in the workspace.
//! * [`ModelCache`] — a bounded LRU cache in front of the store, with
//!   [`HitMiss`] result counters and `samc.cache.{hits,misses,evictions}`
//!   obs metrics.
//! * [`CachedTrainer`] — the composition: exact-key hits reuse the
//!   trained codec outright; misses seed the division search from the
//!   most recently used shape-compatible cached division
//!   ([`crate::OptimizeConfig::warm_start`]) before falling back to a
//!   cold Phase-1 pass, then persist the result for the next request.
//!
//! # Record layout
//!
//! All integers big-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CCMS"
//!      4     2  format version (= 1)
//!      6     8  model key (FNV-1a 64 of text + training parameters)
//!     14     8  search cost in bits (f64 bit pattern)
//!     22     4  codec payload length N (≤ 16 MiB)
//!     26     N  serialized codec (BlockCodec::to_bytes)
//!   26+N     8  FNV-1a 64 checksum of bytes [0, 26+N)
//! ```
//!
//! # Examples
//!
//! ```
//! use cce_codec::BlockCodec;
//! use cce_samc::store::{CachedTrainer, CacheSource, ModelStore};
//! use cce_samc::{OptimizeConfig, SamcConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("cce-store-doc-{}", std::process::id()));
//! let text: Vec<u8> = (0..4096u32).flat_map(|i| ((i % 9) << 3).to_be_bytes()).collect();
//!
//! let mut trainer = CachedTrainer::new(ModelStore::open(&dir)?, 16);
//! let opt = OptimizeConfig { iterations: 8, ..OptimizeConfig::default() };
//! let cold = trainer.train(&text, &SamcConfig::mips(), &opt)?;
//! assert_eq!(cold.source, CacheSource::ColdMiss);
//! let warm = trainer.train(&text, &SamcConfig::mips(), &opt)?;
//! assert_eq!(warm.source, CacheSource::MemoryHit);
//! assert_eq!(warm.codec.to_bytes(), cold.codec.to_bytes());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::codec::{SamcCodec, SamcConfig};
use crate::obs;
use crate::optimize::OptimizeConfig;
use crate::streams::StreamDivision;
use cce_codec::{BlockCodec, CodecError};
use cce_obs::HitMiss;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

const RECORD_MAGIC: &[u8; 4] = b"CCMS";
const RECORD_VERSION: u16 = 1;
/// Bytes before the codec payload (magic, version, key, cost, length).
const HEADER_LEN: usize = 26;
/// Trailing checksum width.
const CHECKSUM_LEN: usize = 8;
/// Cap on the codec payload: far above any real model (a 16-bit stream's
/// table is ~786 KiB), small enough to bound hostile allocations.
const MAX_CODEC_LEN: usize = 16 << 20;
/// Name used in [`CodecError::Corrupt`] raised by record parsing.
const NAME: &str = "model store";

fn corrupt(what: &'static str) -> CodecError {
    CodecError::corrupt(NAME, what)
}

/// FNV-1a 64 over a byte slice — the same machinery as
/// [`StreamDivision::division_hash`], applied to raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    bytes.iter().fold(OFFSET, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Errors from the disk-backed [`ModelStore`].
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A record (or the codec inside it) was malformed, or training the
    /// replacement model failed.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "model store: {e}"),
            Self::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// Content/configuration hash identifying one training request.
///
/// Two requests share a key exactly when they would train the same model
/// from a cold start: same text bytes and same training parameters.  The
/// optimizer's [`OptimizeConfig::warm_start`] seed is deliberately
/// excluded — it changes where the search *starts*, not what is being
/// requested — so a warm-trained record satisfies later exact-key hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey(u64);

impl ModelKey {
    /// Derives the key for training `text` under `config` + `optimize`.
    pub fn for_request(text: &[u8], config: &SamcConfig, optimize: &OptimizeConfig) -> Self {
        let mut bytes = Vec::with_capacity(64);
        bytes.push(config.division.width());
        bytes.extend_from_slice(&(config.block_size as u64).to_be_bytes());
        bytes.push(config.markov.context_bits);
        bytes.push(u8::from(config.markov.prob_mode == cce_arith::ProbMode::Pow2));
        for field in [
            optimize.streams as u64,
            optimize.iterations as u64,
            optimize.seed,
            optimize.sample_units as u64,
            optimize.restarts as u64,
        ] {
            bytes.extend_from_slice(&field.to_be_bytes());
        }
        let params = fnv1a(&bytes);
        Self(params ^ fnv1a(text).rotate_left(1))
    }

    /// The raw 64-bit key value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One stored training result: the key, the search's evaluated cost, and
/// the trained codec.
#[derive(Debug, Clone)]
pub struct ModelRecord {
    key: ModelKey,
    search_cost: f64,
    codec: SamcCodec,
}

impl ModelRecord {
    /// Packages a trained codec under its request key.
    ///
    /// # Panics
    ///
    /// Panics if `search_cost` is not finite and non-negative (a cost in
    /// bits is both; anything else would poison the record format).
    pub fn new(key: ModelKey, search_cost: f64, codec: SamcCodec) -> Self {
        assert!(
            search_cost.is_finite() && search_cost >= 0.0,
            "search cost must be a finite bit count"
        );
        Self { key, search_cost, codec }
    }

    /// The request key this record answers.
    pub fn key(&self) -> ModelKey {
        self.key
    }

    /// The division search's evaluated code length in bits.
    pub fn search_cost(&self) -> f64 {
        self.search_cost
    }

    /// The trained codec.
    pub fn codec(&self) -> &SamcCodec {
        &self.codec
    }

    /// Serializes the record (layout in the [module docs](self)).
    pub fn to_bytes(&self) -> Vec<u8> {
        let codec_bytes = self.codec.to_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + codec_bytes.len() + CHECKSUM_LEN);
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_be_bytes());
        out.extend_from_slice(&self.key.0.to_be_bytes());
        out.extend_from_slice(&self.search_cost.to_bits().to_be_bytes());
        out.extend_from_slice(&(codec_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&codec_bytes);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_be_bytes());
        out
    }

    /// Deserializes a record written by [`ModelRecord::to_bytes`].
    ///
    /// Every field is validated before use — bad magic, unsupported
    /// version, truncation, trailing garbage, checksum mismatch, and a
    /// malformed codec payload all yield [`CodecError::Corrupt`], never a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] as above.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN || &bytes[0..4] != RECORD_MAGIC {
            return Err(corrupt("not a model-store record"));
        }
        let version = u16::from_be_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != RECORD_VERSION {
            return Err(corrupt("unsupported record version"));
        }
        let key = ModelKey(u64::from_be_bytes(bytes[6..14].try_into().expect("8 bytes")));
        let search_cost =
            f64::from_bits(u64::from_be_bytes(bytes[14..22].try_into().expect("8 bytes")));
        if !(search_cost.is_finite() && search_cost >= 0.0) {
            return Err(corrupt("search cost is not a finite bit count"));
        }
        let codec_len = u32::from_be_bytes(bytes[22..26].try_into().expect("4 bytes")) as usize;
        if codec_len > MAX_CODEC_LEN {
            return Err(corrupt("codec payload length exceeds the format cap"));
        }
        // Exact framing: a record is one codec payload plus the checksum,
        // nothing more — trailing bytes mean tampering, not extensions.
        if bytes.len() != HEADER_LEN + codec_len + CHECKSUM_LEN {
            return Err(corrupt("record length does not match the codec payload"));
        }
        let (body, checksum_bytes) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let stored = u64::from_be_bytes(checksum_bytes.try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let codec = SamcCodec::from_bytes(&body[HEADER_LEN..]).map_err(|e| e.named(NAME))?;
        Ok(Self { key, search_cost, codec })
    }
}

/// A directory of [`ModelRecord`]s, one file per key.
///
/// Writes are atomic (temp file + rename), so a crashed writer never
/// leaves a half-record where a reader will find it; a corrupted record
/// surfaces as a typed error from [`ModelStore::load`].
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// File extension of stored records.
    const EXTENSION: &'static str = "ccms";

    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates [`io::Error`] from directory creation.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: ModelKey) -> PathBuf {
        self.dir.join(format!("{key}.{}", Self::EXTENSION))
    }

    /// Loads the record for `key`, or `None` when the store has no entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures other than a missing
    /// file; [`StoreError::Codec`] when the record exists but is corrupt.
    pub fn load(&self, key: ModelKey) -> Result<Option<ModelRecord>, StoreError> {
        let bytes = match std::fs::read(self.path_for(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let record = ModelRecord::from_bytes(&bytes)?;
        if record.key != key {
            // A record renamed onto the wrong key must not satisfy it.
            return Err(corrupt("record key does not match its filename").into());
        }
        Ok(Some(record))
    }

    /// Persists `record`, replacing any previous entry for its key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or rename failures.
    pub fn save(&self, record: &ModelRecord) -> Result<(), StoreError> {
        let path = self.path_for(record.key);
        let tmp = path.with_extension(format!("{}.tmp-{}", Self::EXTENSION, std::process::id()));
        std::fs::write(&tmp, record.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// All stored keys, sorted, so scans are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates [`io::Error`] from the directory walk.
    pub fn keys(&self) -> io::Result<Vec<ModelKey>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(Self::EXTENSION) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if let Ok(key) = u64::from_str_radix(stem, 16) {
                keys.push(ModelKey(key));
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

/// A bounded most-recently-used cache of [`ModelRecord`]s.
///
/// Lookups and insertions maintain LRU order in a small vector (front =
/// most recent); at `capacity` the least recently used entry is evicted.
/// Hit/miss totals are kept as a [`HitMiss`] *result* (always counted)
/// and mirrored into the `samc.cache.*` obs counters.
#[derive(Debug)]
pub struct ModelCache {
    /// Front = most recently used.
    entries: Vec<ModelRecord>,
    capacity: usize,
    stats: HitMiss,
    evictions: u64,
}

impl ModelCache {
    /// An empty cache holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing would
    /// turn every lookup into a miss and every insert into an eviction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { entries: Vec::new(), capacity, stats: HitMiss::new(), evictions: 0 }
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss totals over every [`ModelCache::get`] so far.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// How many records have been evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, marking the entry most recently used on a hit.
    pub fn get(&mut self, key: ModelKey) -> Option<&ModelRecord> {
        let hit = self.entries.iter().position(|r| r.key == key);
        if self.stats.record(hit.is_some()) {
            obs::CACHE_HITS.incr();
        } else {
            obs::CACHE_MISSES.incr();
        }
        let index = hit?;
        let record = self.entries.remove(index);
        self.entries.insert(0, record);
        self.entries.first()
    }

    /// Inserts (or refreshes) `record` as most recently used, evicting
    /// the least recently used entry when at capacity.
    pub fn insert(&mut self, record: ModelRecord) {
        if let Some(index) = self.entries.iter().position(|r| r.key == record.key) {
            self.entries.remove(index);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
            self.evictions += 1;
            obs::CACHE_EVICTIONS.incr();
        }
        self.entries.insert(0, record);
    }

    /// The most recently used cached division whose shape fits a search
    /// for `width`-bit instructions in `streams` equal streams — the
    /// warm-start seed for a miss on a similar program.
    pub fn warm_division(&self, width: u8, streams: usize) -> Option<&StreamDivision> {
        self.entries
            .iter()
            .map(|r| &r.codec.config().division)
            .find(|d| d.splits_evenly(width, streams))
    }
}

/// Where a [`CachedTrainer::train`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Exact-key hit in the in-memory cache — no training at all.
    MemoryHit,
    /// Exact-key hit in the on-disk store — deserialized, no training.
    DiskHit,
    /// Trained, with the division search warm-started from a cached
    /// division of a similar program.
    WarmMiss,
    /// Trained from scratch (cold Phase-1 correlation pass).
    ColdMiss,
}

impl CacheSource {
    /// Whether the codec was reused rather than trained.
    pub fn is_hit(self) -> bool {
        matches!(self, Self::MemoryHit | Self::DiskHit)
    }
}

impl fmt::Display for CacheSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::MemoryHit => "memory hit",
            Self::DiskHit => "disk hit",
            Self::WarmMiss => "warm miss",
            Self::ColdMiss => "cold miss",
        })
    }
}

/// One [`CachedTrainer::train`] result.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained (or reused) codec.
    pub codec: SamcCodec,
    /// How the codec was obtained.
    pub source: CacheSource,
    /// The division search's evaluated cost in bits (stored cost for
    /// hits, fresh search cost for misses).
    pub search_cost: f64,
    /// The request key the result is cached under.
    pub key: ModelKey,
}

/// Memory cache + disk store composed into a training front end.
#[derive(Debug)]
pub struct CachedTrainer {
    store: ModelStore,
    cache: ModelCache,
}

impl CachedTrainer {
    /// A trainer over `store` with an in-memory cache of `capacity`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see [`ModelCache::new`]).
    pub fn new(store: ModelStore, capacity: usize) -> Self {
        Self { store, cache: ModelCache::new(capacity) }
    }

    /// The in-memory cache (for stats inspection).
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// The backing store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Trains (or reuses) a codec for `text` under `config`, resolving in
    /// order: in-memory cache, on-disk store, warm-started search, cold
    /// search.  Misses are persisted to the store and promoted into the
    /// cache before returning.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when training fails or a stored record is
    /// corrupt; [`StoreError::Io`] on filesystem failures.
    pub fn train(
        &mut self,
        text: &[u8],
        config: &SamcConfig,
        optimize: &OptimizeConfig,
    ) -> Result<TrainOutcome, StoreError> {
        let key = ModelKey::for_request(text, config, optimize);
        if let Some(record) = self.cache.get(key) {
            return Ok(TrainOutcome {
                codec: record.codec.clone(),
                source: CacheSource::MemoryHit,
                search_cost: record.search_cost,
                key,
            });
        }
        if let Some(record) = self.store.load(key)? {
            let outcome = TrainOutcome {
                codec: record.codec.clone(),
                source: CacheSource::DiskHit,
                search_cost: record.search_cost,
                key,
            };
            self.cache.insert(record);
            return Ok(outcome);
        }
        let warm = self
            .cache
            .warm_division(config.division.width(), optimize.streams)
            .cloned()
            .map(Some)
            .unwrap_or_else(|| self.warm_division_from_store(config, optimize));
        let source = if warm.is_some() { CacheSource::WarmMiss } else { CacheSource::ColdMiss };
        let optimize = OptimizeConfig { warm_start: warm, ..optimize.clone() };
        let (codec, search_cost) = SamcCodec::train_optimized(text, config.clone(), &optimize)?;
        let record = ModelRecord::new(key, search_cost, codec.clone());
        self.store.save(&record)?;
        self.cache.insert(record);
        Ok(TrainOutcome { codec, source, search_cost, key })
    }

    /// Scans the store (in sorted key order, so deterministically) for a
    /// shape-compatible division to warm-start from.  Unreadable or
    /// corrupt records are skipped — a damaged neighbor must not fail an
    /// unrelated request.
    fn warm_division_from_store(
        &self,
        config: &SamcConfig,
        optimize: &OptimizeConfig,
    ) -> Option<StreamDivision> {
        let width = config.division.width();
        for key in self.store.keys().ok()? {
            let Ok(Some(record)) = self.store.load(key) else { continue };
            let division = &record.codec.config().division;
            if division.splits_evenly(width, optimize.streams) {
                return Some(division.clone());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ModelStore {
        let dir = std::env::temp_dir().join(format!("cce-samc-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ModelStore::open(dir).expect("store opens")
    }

    fn training_text() -> Vec<u8> {
        (0..2048u32).flat_map(|i| ((i % 11) << 2 | 0x8000_0000).to_be_bytes()).collect()
    }

    fn quick_opt() -> OptimizeConfig {
        OptimizeConfig { iterations: 6, sample_units: 512, ..OptimizeConfig::default() }
    }

    fn sample_record(cost: f64) -> ModelRecord {
        let text = training_text();
        let codec = SamcCodec::train(&text, SamcConfig::mips()).unwrap();
        let key = ModelKey::for_request(&text, codec.config(), &quick_opt());
        ModelRecord::new(key, cost, codec)
    }

    #[test]
    fn record_round_trips() {
        let record = sample_record(1234.5);
        let bytes = record.to_bytes();
        let restored = ModelRecord::from_bytes(&bytes).unwrap();
        assert_eq!(restored.key(), record.key());
        assert_eq!(restored.search_cost(), record.search_cost());
        assert_eq!(restored.codec().to_bytes(), record.codec().to_bytes());
        assert_eq!(
            restored.codec().config().division.division_hash(),
            record.codec().config().division.division_hash()
        );
        // Canonical serialization: re-serializing reproduces the bytes.
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn version_bump_is_a_typed_error() {
        let mut bytes = sample_record(1.0).to_bytes();
        bytes[5] = 2; // version 2
        assert!(matches!(
            ModelRecord::from_bytes(&bytes),
            Err(CodecError::Corrupt { codec: "model store", .. })
        ));
    }

    #[test]
    fn truncation_and_extension_are_typed_errors() {
        let bytes = sample_record(1.0).to_bytes();
        for cut in [0, 3, 5, 13, 25, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(ModelRecord::from_bytes(&bytes[..cut]), Err(CodecError::Corrupt { .. })),
                "cut {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ModelRecord::from_bytes(&extended).is_err());
    }

    #[test]
    fn any_corruption_fails_cleanly_never_panics() {
        let bytes = sample_record(42.0).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            // Every single-byte corruption flips the checksum or a
            // validated field; either way the parse must error, not abort.
            assert!(ModelRecord::from_bytes(&bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn non_finite_cost_is_rejected() {
        let mut bytes = sample_record(1.0).to_bytes();
        bytes[14..22].copy_from_slice(&f64::NAN.to_bits().to_be_bytes());
        // Re-stamp the checksum so only the cost field is at fault.
        let body_len = bytes.len() - CHECKSUM_LEN;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_be_bytes());
        assert!(matches!(
            ModelRecord::from_bytes(&bytes),
            Err(CodecError::Corrupt { codec: "model store", .. })
        ));
    }

    #[test]
    fn store_saves_and_loads() {
        let store = temp_store("roundtrip");
        let record = sample_record(99.0);
        assert!(store.load(record.key()).unwrap().is_none());
        store.save(&record).unwrap();
        let loaded = store.load(record.key()).unwrap().expect("present");
        assert_eq!(loaded.codec().to_bytes(), record.codec().to_bytes());
        assert_eq!(store.keys().unwrap(), vec![record.key()]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_stored_record_is_a_typed_error() {
        let store = temp_store("corrupt");
        let record = sample_record(7.0);
        store.save(&record).unwrap();
        let path = store.dir().join(format!("{}.ccms", record.key()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(record.key()), Err(StoreError::Codec(_))));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn lru_cache_evicts_and_counts() {
        let base = sample_record(1.0);
        let record_with_key =
            |k: u64| ModelRecord::new(ModelKey(k), base.search_cost, base.codec.clone());
        let mut cache = ModelCache::new(2);
        cache.insert(record_with_key(1));
        cache.insert(record_with_key(2));
        assert!(cache.get(ModelKey(1)).is_some()); // 1 is now MRU
        cache.insert(record_with_key(3)); // evicts 2 (LRU)
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(ModelKey(2)).is_none());
        assert!(cache.get(ModelKey(1)).is_some());
        assert!(cache.get(ModelKey(3)).is_some());
        assert_eq!(cache.stats(), HitMiss { hits: 3, misses: 1 });
        // Re-inserting a resident key refreshes rather than evicts.
        cache.insert(record_with_key(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn warm_division_respects_shape() {
        let unequal = StreamDivision::new(
            vec![(0..8).collect(), (8..16).collect(), (16..20).collect(), (20..32).collect()],
            32,
        )
        .unwrap();
        // (cached division, requested width, requested streams, fits)
        let rows = [
            (StreamDivision::bytes(32), 32, 4, true),
            (StreamDivision::bytes(32), 32, 8, false),
            (StreamDivision::bytes(32), 8, 4, false),
            (StreamDivision::bytes(32), 32, 0, false),
            (StreamDivision::bytes(32), 32, 5, false),
            // The optimizer's warm-start cases: wrong width, wrong stream
            // count, unequal streams.
            (StreamDivision::bytes(8), 32, 4, false),
            (StreamDivision::contiguous(32, 8), 32, 4, false),
            (unequal, 32, 4, false),
        ];
        for (division, width, streams, fits) in rows {
            let config = SamcConfig::mips().with_division(division.clone());
            let codec = SamcCodec::train(&training_text(), config).unwrap();
            let key = ModelKey::for_request(&training_text(), codec.config(), &quick_opt());
            let mut cache = ModelCache::new(4);
            cache.insert(ModelRecord::new(key, 1.0, codec));
            assert_eq!(
                cache.warm_division(width, streams),
                fits.then_some(&division),
                "{division:?} for {streams} streams of {width} bits"
            );
        }
    }

    #[test]
    fn trainer_cold_then_hits_then_warm() {
        let store = temp_store("trainer");
        let dir = store.dir().to_path_buf();
        let text = training_text();
        let opt = quick_opt();
        let mut trainer = CachedTrainer::new(store, 4);

        let cold = trainer.train(&text, &SamcConfig::mips(), &opt).unwrap();
        assert_eq!(cold.source, CacheSource::ColdMiss);
        let memory = trainer.train(&text, &SamcConfig::mips(), &opt).unwrap();
        assert_eq!(memory.source, CacheSource::MemoryHit);
        assert_eq!(memory.codec.to_bytes(), cold.codec.to_bytes());
        assert_eq!(memory.search_cost, cold.search_cost);

        // A fresh trainer over the same directory: disk hit.
        let mut fresh = CachedTrainer::new(ModelStore::open(&dir).unwrap(), 4);
        let disk = fresh.train(&text, &SamcConfig::mips(), &opt).unwrap();
        assert_eq!(disk.source, CacheSource::DiskHit);
        assert_eq!(disk.codec.to_bytes(), cold.codec.to_bytes());

        // A different program of the same shape warm-starts.
        let other: Vec<u8> =
            (0..2048u32).flat_map(|i| ((i % 5) << 7 | 0x0400_0000).to_be_bytes()).collect();
        let warm = trainer.train(&other, &SamcConfig::mips(), &opt).unwrap();
        assert_eq!(warm.source, CacheSource::WarmMiss);
        assert_ne!(warm.key, cold.key);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_differ_by_text_and_config() {
        let text = training_text();
        let opt = quick_opt();
        let key = ModelKey::for_request(&text, &SamcConfig::mips(), &opt);
        assert_ne!(key, ModelKey::for_request(&text[4..], &SamcConfig::mips(), &opt));
        assert_ne!(
            key,
            ModelKey::for_request(&text, &SamcConfig::mips().with_block_size(64), &opt)
        );
        let other_opt = OptimizeConfig { seed: 1, ..quick_opt() };
        assert_ne!(key, ModelKey::for_request(&text, &SamcConfig::mips(), &other_opt));
        // Warm-start seeding does not change the request identity.
        let warm_opt =
            OptimizeConfig { warm_start: Some(StreamDivision::bytes(32)), ..quick_opt() };
        assert_eq!(key, ModelKey::for_request(&text, &SamcConfig::mips(), &warm_opt));
    }
}
