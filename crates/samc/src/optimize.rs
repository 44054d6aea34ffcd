//! Stream-division optimization (paper §3).
//!
//! The paper chooses which instruction bits share a stream by (1) grouping
//! strongly correlated bits together, then (2) randomly exchanging bits
//! between streams, keeping exchanges that lower the model-coded entropy.
//! This module reproduces both phases.  The objective evaluated is the
//! exact quantity the codec will pay: the Markov-model code length of the
//! program (plus nothing — model storage is identical across divisions of
//! the same shape).
//!
//! # Search kernels
//!
//! The search is the hottest path in SAMC, so both phases run on
//! count-based kernels instead of per-candidate model walks:
//!
//! * **Phase 1** transposes the sample into one packed `u64` column per
//!   bit position ([`BitColumns`]); every pairwise Pearson correlation is
//!   then `popcount(col_a & col_b)` plus per-column popcounts — one
//!   O(sample × width) transpose replaces O(width²) sample walks, and the
//!   integer sums reproduce the float walk bit-for-bit (exact in `f64`).
//! * **Phase 2** keeps per-stream cost contributions in an [`Evaluator`]:
//!   a bit exchange between streams s₁ and s₂ only perturbs those two
//!   streams (plus each successor whose incoming context bit moved), so a
//!   candidate re-costs only the affected streams via
//!   [`crate::model::stream_cost_from_counts`] with reused buffers —
//!   no `MarkovModel` retrain, no division clone, no allocation.
//!
//! [`optimize_division_reference`] preserves the pre-kernel
//! implementation (full retrain + walk per candidate) so benchmarks and
//! tests can measure and pin the rewrite against it.
//!
//! On top, [`OptimizeConfig::restarts`] fans independent hill-climbing
//! restarts across [`cce_codec::parallel_map`]; seeds derive from
//! [`OptimizeConfig::seed`] by restart index and the winner is picked by
//! (cost, restart) order, so the result is identical for any worker
//! count.

use crate::model::{self, MarkovConfig, MarkovModel};
use crate::obs;
use crate::streams::StreamDivision;
use cce_rng::Rng;

/// Options for [`optimize_division`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeConfig {
    /// Number of streams to form (each gets `width / streams` bits).
    pub streams: usize,
    /// Random-exchange iterations.
    pub iterations: usize,
    /// RNG seed (the paper's search is randomized; we make it repeatable).
    pub seed: u64,
    /// At most this many instruction units are used to evaluate entropy
    /// (sampling keeps the search fast on large programs).
    pub sample_units: usize,
    /// Model options used for evaluation.
    pub markov: MarkovConfig,
    /// Block size (in units) used for evaluation.
    pub block_units: usize,
    /// Independent hill-climbing restarts (minimum 1).
    ///
    /// Restart `r` runs the full random-exchange phase from the shared
    /// Phase-1 grouping with a seed derived from [`OptimizeConfig::seed`]
    /// and `r`; restart 0 uses `seed` itself, so `restarts: 1` reproduces
    /// the single-restart search exactly.  Restarts fan out across the
    /// worker pool and the winner is the lowest (cost, restart) pair, so
    /// the output does not depend on the worker count.
    pub restarts: usize,
    /// Warm-start division seeding the hill climb (model-cache reuse).
    ///
    /// When set — and shape-compatible with this search (same width,
    /// `streams` streams of `width / streams` bits each) — the random
    /// exchanges start from this division instead of the Phase-1
    /// correlation grouping, so a division cached for a similar program
    /// is refined rather than rediscovered.  A shape-incompatible warm
    /// start (a cached division from another ISA or stream count) is
    /// ignored and the search falls back to the cold Phase-1 pass.
    pub warm_start: Option<StreamDivision>,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self {
            streams: 4,
            iterations: 64,
            seed: 0xDAC1998,
            sample_units: 4096,
            markov: MarkovConfig::default(),
            block_units: 8,
            restarts: 1,
            warm_start: None,
        }
    }
}

/// Seed for restart `restart`: a Weyl sequence over the base seed, so
/// restart 0 is the base seed itself and later restarts decorrelate.
fn restart_seed(seed: u64, restart: usize) -> u64 {
    seed.wrapping_add((restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The sample transposed into one packed column per instruction bit:
/// bit `i` of `cols[b]` is bit `b` (MSB-first) of `units[i]`.
struct BitColumns {
    cols: Vec<Vec<u64>>,
}

impl BitColumns {
    fn new(units: &[u32], width: u8) -> Self {
        let words = units.len().div_ceil(64);
        let mut cols = vec![vec![0u64; words]; usize::from(width)];
        for (i, &unit) in units.iter().enumerate() {
            for (b, col) in cols.iter_mut().enumerate() {
                let bit = unit >> (usize::from(width) - 1 - b) & 1;
                col[i / 64] |= u64::from(bit) << (i % 64);
            }
        }
        Self { cols }
    }

    /// Population count of column `b` (how many sample units set bit `b`).
    fn ones(&self, b: usize) -> u64 {
        self.cols[b].iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// How many sample units set both bits `a` and `b`.
    fn and_ones(&self, a: usize, b: usize) -> u64 {
        self.cols[a].iter().zip(&self.cols[b]).map(|(x, y)| u64::from((x & y).count_ones())).sum()
    }
}

/// Pearson correlation of two binary variables from their sums.
///
/// `sa`, `sb`, `sab` are the per-bit and joint ones-counts as `f64`;
/// counts below 2⁵³ are exact in `f64`, and the expression order here is
/// the same as the sample walk in [`bit_correlation`], so both paths
/// return bit-identical values.
fn correlation_from_sums(n: f64, sa: f64, sb: f64, sab: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    let ma = sa / n;
    let mb = sb / n;
    let cov = sab / n - ma * mb;
    let va = ma * (1.0 - ma);
    let vb = mb * (1.0 - mb);
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// Pearson correlation of two instruction bits over the sample, computed
/// by walking the sample once per pair.
///
/// This is the reference implementation; the search itself gets the same
/// values from [`BitColumns`] popcounts in one transpose pass.
fn bit_correlation(units: &[u32], width: u8, a: u8, b: u8) -> f64 {
    let n = units.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let bit = |w: u32, i: u8| (w >> (width - 1 - i) & 1) as f64;
    let (mut sa, mut sb, mut sab) = (0.0, 0.0, 0.0);
    for &w in units {
        let xa = bit(w, a);
        let xb = bit(w, b);
        sa += xa;
        sb += xb;
        sab += xa * xb;
    }
    correlation_from_sums(n, sa, sb, sab)
}

/// Phase 1: greedy correlation grouping.  Seeds each stream with the
/// most-correlated unassigned bit, then grows it by best summed |corr|.
///
/// Deterministic (no RNG involved), so multi-restart searches share one
/// grouping.  Returns sorted per-stream bit lists forming a partition of
/// `0..width`.
fn correlation_grouping(sample: &[u32], width: u8, streams: usize) -> Vec<Vec<u8>> {
    let per_stream = usize::from(width) / streams;
    let cols = BitColumns::new(sample, width);
    let n = sample.len() as f64;
    let ones: Vec<f64> = (0..usize::from(width)).map(|b| cols.ones(b) as f64).collect();
    let mut corr = vec![vec![0.0f64; usize::from(width)]; usize::from(width)];
    for a in 0..usize::from(width) {
        for b in a + 1..usize::from(width) {
            let c = correlation_from_sums(n, ones[a], ones[b], cols.and_ones(a, b) as f64).abs();
            corr[a][b] = c;
            corr[b][a] = c;
        }
    }
    let mut unassigned: Vec<u8> = (0..width).collect();
    let mut groups: Vec<Vec<u8>> = Vec::with_capacity(streams);
    for _ in 0..streams {
        // Seed: the unassigned bit with the highest total correlation.
        let seed_pos = unassigned
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                let sum = |x: u8| -> f64 {
                    unassigned.iter().map(|&y| corr[usize::from(x)][usize::from(y)]).sum()
                };
                sum(a).partial_cmp(&sum(b)).expect("correlations are finite")
            })
            .map(|(i, _)| i)
            .expect("unassigned non-empty");
        let mut stream = vec![unassigned.swap_remove(seed_pos)];
        while stream.len() < per_stream {
            let best = unassigned
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    let avg = |x: u8| -> f64 {
                        stream.iter().map(|&y| corr[usize::from(x)][usize::from(y)]).sum()
                    };
                    avg(a).partial_cmp(&avg(b)).expect("correlations are finite")
                })
                .map(|(i, _)| i)
                .expect("unassigned non-empty");
            stream.push(unassigned.swap_remove(best));
        }
        stream.sort_unstable();
        groups.push(stream);
    }
    groups
}

/// The Phase-1 bit grouping from a shape-compatible warm-start division,
/// or `None` when the search must run the cold correlation pass.
///
/// The hill climb indexes streams as `streams` equal groups of
/// `width / streams` bits, so a warm division only applies when it has
/// exactly that shape; anything else (cached under a different ISA,
/// stream count, or unequal grouping) silently falls back to cold.
fn warm_seed(config: &OptimizeConfig, width: u8) -> Option<Vec<Vec<u8>>> {
    let division = config.warm_start.as_ref()?;
    division
        .splits_evenly(width, config.streams)
        .then(|| (0..division.stream_count()).map(|s| division.stream_bits(s).to_vec()).collect())
}

/// Upper bound on streams a single exchange can dirty: the two swapped
/// streams plus up to `context_bits` (≤ 3) successors of each.
const MAX_AFFECTED: usize = 8;

/// Incremental evaluator for Phase 2: caches per-stream cost
/// contributions and re-costs only the streams an exchange perturbs.
///
/// Stream `t`'s cost depends on its own bit list and on the *last-bit
/// indices* of the `context_bits` streams preceding it in serialized
/// order (see [`model::stream_cost_from_counts`]); everything else is
/// untouched by a swap, so its cached contribution stays valid.
struct Evaluator<'a> {
    sample: &'a [u32],
    width: u8,
    markov: MarkovConfig,
    block_units: usize,
    /// Current per-stream bit lists (each sorted).
    bits: Vec<Vec<u8>>,
    /// `bits[s].last()` for each stream — the context-feeding bit.
    last_bits: Vec<u8>,
    /// Cached cost contribution of each stream.
    stream_cost: Vec<f64>,
    /// Scratch for `stream_cost_from_counts` (reused, never reallocated
    /// once warm).
    counts: Vec<(u64, u64)>,
    /// Candidate bit lists for the two swapped streams (reused buffers).
    cand_bits: [Vec<u8>; 2],
    /// Which streams `cand_bits` describes.
    cand_pair: (usize, usize),
    /// Candidate last-bit indices for every stream.
    cand_last: Vec<u8>,
    /// `(stream, new_cost)` for each affected stream of the candidate.
    cand_costs: Vec<(usize, f64)>,
}

impl<'a> Evaluator<'a> {
    fn new(
        sample: &'a [u32],
        width: u8,
        bits: Vec<Vec<u8>>,
        markov: MarkovConfig,
        block_units: usize,
    ) -> Self {
        let last_bits: Vec<u8> =
            bits.iter().map(|b| *b.last().expect("streams are non-empty")).collect();
        let mut counts = Vec::new();
        let stream_cost: Vec<f64> = (0..bits.len())
            .map(|t| {
                model::stream_cost_from_counts(
                    sample,
                    width,
                    bits.len(),
                    t,
                    &bits[t],
                    &last_bits,
                    markov,
                    block_units,
                    &mut counts,
                )
            })
            .collect();
        Self {
            sample,
            width,
            markov,
            block_units,
            cand_last: last_bits.clone(),
            bits,
            last_bits,
            stream_cost,
            counts,
            cand_bits: [Vec::new(), Vec::new()],
            cand_pair: (0, 0),
            cand_costs: Vec::with_capacity(MAX_AFFECTED),
        }
    }

    /// Total cost of the current division (summed in stream order, so it
    /// is bit-identical however many exchanges have been committed).
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for &c in &self.stream_cost {
            total += c;
        }
        total
    }

    /// Cost of the division with `bits[s1][i1]` and `bits[s2][i2]`
    /// exchanged (`s1 != s2`).  Only affected streams are re-costed; the
    /// candidate state is held in reusable buffers until [`Self::commit`].
    fn candidate_cost(&mut self, s1: usize, i1: usize, s2: usize, i2: usize) -> f64 {
        debug_assert_ne!(s1, s2, "within-stream exchanges never change the division");
        let stream_count = self.bits.len();
        self.cand_bits[0].clear();
        self.cand_bits[0].extend_from_slice(&self.bits[s1]);
        self.cand_bits[1].clear();
        self.cand_bits[1].extend_from_slice(&self.bits[s2]);
        let tmp = self.cand_bits[0][i1];
        self.cand_bits[0][i1] = self.cand_bits[1][i2];
        self.cand_bits[1][i2] = tmp;
        self.cand_bits[0].sort_unstable();
        self.cand_bits[1].sort_unstable();
        self.cand_pair = (s1, s2);
        self.cand_last.clear();
        self.cand_last.extend_from_slice(&self.last_bits);
        self.cand_last[s1] = *self.cand_bits[0].last().expect("non-empty stream");
        self.cand_last[s2] = *self.cand_bits[1].last().expect("non-empty stream");

        // Affected set: the swapped streams, plus each successor whose
        // incoming context bit moved (an unchanged last-bit index means an
        // unchanged context column, so successors stay clean).
        let mut affected = [0usize; MAX_AFFECTED];
        affected[0] = s1;
        affected[1] = s2;
        let mut affected_len = 2;
        for &s in &[s1, s2] {
            if self.cand_last[s] != self.last_bits[s] {
                for j in 1..=usize::from(self.markov.context_bits) {
                    let succ = (s + j) % stream_count;
                    if !affected[..affected_len].contains(&succ) {
                        affected[affected_len] = succ;
                        affected_len += 1;
                    }
                }
            }
        }

        self.cand_costs.clear();
        for &t in &affected[..affected_len] {
            let t_bits: &[u8] = if t == s1 {
                &self.cand_bits[0]
            } else if t == s2 {
                &self.cand_bits[1]
            } else {
                &self.bits[t]
            };
            let cost = model::stream_cost_from_counts(
                self.sample,
                self.width,
                stream_count,
                t,
                t_bits,
                &self.cand_last,
                self.markov,
                self.block_units,
                &mut self.counts,
            );
            self.cand_costs.push((t, cost));
        }

        // Re-sum in stream order (substituting the candidate values) so
        // totals never accumulate float drift across accepted exchanges.
        let mut total = 0.0;
        for t in 0..stream_count {
            let mut cost = self.stream_cost[t];
            for &(a, c) in &self.cand_costs {
                if a == t {
                    cost = c;
                }
            }
            total += cost;
        }
        total
    }

    /// Accepts the candidate from the last [`Self::candidate_cost`] call.
    fn commit(&mut self) {
        let (s1, s2) = self.cand_pair;
        std::mem::swap(&mut self.bits[s1], &mut self.cand_bits[0]);
        std::mem::swap(&mut self.bits[s2], &mut self.cand_bits[1]);
        std::mem::swap(&mut self.last_bits, &mut self.cand_last);
        for &(t, cost) in &self.cand_costs {
            self.stream_cost[t] = cost;
        }
    }
}

/// One hill-climbing restart from the shared Phase-1 grouping.
fn run_restart(
    sample: &[u32],
    width: u8,
    config: &OptimizeConfig,
    seed: u64,
    phase1: &[Vec<u8>],
) -> (Vec<Vec<u8>>, f64) {
    let _span = obs::OPTIMIZE_RESTART_SPAN.time();
    let per_stream = usize::from(width) / config.streams;
    let mut rng = Rng::seed_from_u64(seed);
    let mut eval =
        Evaluator::new(sample, width, phase1.to_vec(), config.markov, config.block_units);
    let mut best_cost = eval.total();
    let (mut candidates, mut accepts) = (0u64, 0u64);
    for _ in 0..config.iterations {
        let s1 = rng.random_range(0..config.streams);
        let mut s2 = rng.random_range(0..config.streams);
        if s1 == s2 {
            s2 = (s2 + 1) % config.streams;
        }
        let i1 = rng.random_range(0..per_stream);
        let i2 = rng.random_range(0..per_stream);
        candidates += 1;
        if s1 == s2 {
            // Single-stream config: a within-stream exchange is the same
            // division, never an improvement.  (RNG already advanced.)
            continue;
        }
        let cost = eval.candidate_cost(s1, i1, s2, i2);
        if cost < best_cost {
            eval.commit();
            best_cost = cost;
            accepts += 1;
        }
    }
    obs::OPTIMIZE_CANDIDATES.add(candidates);
    obs::OPTIMIZE_ACCEPTS.add(accepts);
    (eval.bits, best_cost)
}

/// Searches for a good division of `width`-bit instructions into
/// `config.streams` equal streams.
///
/// Returns the division and its evaluated code length in bits (over the
/// sample, not the whole program).  With `config.restarts > 1` the search
/// fans restarts across [`cce_codec::worker_count`] threads; use
/// [`optimize_division_with_workers`] to pick the worker count yourself.
///
/// # Panics
///
/// Panics if `config.streams` does not divide `width`, or `units` is empty.
pub fn optimize_division(
    units: &[u32],
    width: u8,
    config: &OptimizeConfig,
) -> (StreamDivision, f64) {
    optimize_division_with_workers(units, width, config, cce_codec::worker_count())
}

/// [`optimize_division`] with an explicit worker count for the restart
/// fan-out.
///
/// The result is independent of `workers`: restarts are seeded by restart
/// index and the winner is the lowest (cost, restart) pair.
///
/// # Panics
///
/// Panics if `config.streams` does not divide `width`, or `units` is empty.
pub fn optimize_division_with_workers(
    units: &[u32],
    width: u8,
    config: &OptimizeConfig,
    workers: usize,
) -> (StreamDivision, f64) {
    assert!(!units.is_empty(), "need instructions to optimize over");
    assert!(
        config.streams > 0 && usize::from(width) % config.streams == 0,
        "stream count must divide the width"
    );
    let sample = &units[..units.len().min(config.sample_units)];
    let phase1 = match warm_seed(config, width) {
        Some(seed) => seed,
        None => correlation_grouping(sample, width, config.streams),
    };
    let seeds: Vec<u64> =
        (0..config.restarts.max(1)).map(|r| restart_seed(config.seed, r)).collect();
    let results = cce_codec::parallel_map(workers, &seeds, |_, &seed| {
        run_restart(sample, width, config, seed, &phase1)
    });
    // min_by keeps the first of equally-cheap results, i.e. the lowest
    // restart index — deterministic for any worker count.
    let (bits, cost) = results
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("at least one restart");
    (StreamDivision::new(bits, width).expect("search preserves the partition"), cost)
}

/// Pre-kernel reference implementation of the single-restart search:
/// per-pair correlation walks and a full `MarkovModel` retrain + sample
/// walk per candidate.
///
/// Kept (ignoring [`OptimizeConfig::restarts`]) so the optimizer
/// micro-bench and the equivalence tests can measure the fast path
/// against the exact pre-rewrite behavior — same RNG sequence, same
/// accept decisions.
pub fn optimize_division_reference(
    units: &[u32],
    width: u8,
    config: &OptimizeConfig,
) -> (StreamDivision, f64) {
    fn evaluate(units: &[u32], division: &StreamDivision, config: &OptimizeConfig) -> f64 {
        let model = MarkovModel::train(units, division, config.markov, config.block_units);
        model.code_length_bits(units, config.block_units)
    }

    assert!(!units.is_empty(), "need instructions to optimize over");
    assert!(
        config.streams > 0 && usize::from(width) % config.streams == 0,
        "stream count must divide the width"
    );
    let per_stream = usize::from(width) / config.streams;
    let sample = &units[..units.len().min(config.sample_units)];
    let mut rng = Rng::seed_from_u64(config.seed);

    let mut corr = vec![vec![0.0f64; usize::from(width)]; usize::from(width)];
    for a in 0..width {
        for b in a + 1..width {
            let c = bit_correlation(sample, width, a, b).abs();
            corr[usize::from(a)][usize::from(b)] = c;
            corr[usize::from(b)][usize::from(a)] = c;
        }
    }
    let mut unassigned: Vec<u8> = (0..width).collect();
    let mut streams: Vec<Vec<u8>> = Vec::with_capacity(config.streams);
    for _ in 0..config.streams {
        let seed_pos = unassigned
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                let sum = |x: u8| -> f64 {
                    unassigned.iter().map(|&y| corr[usize::from(x)][usize::from(y)]).sum()
                };
                sum(a).partial_cmp(&sum(b)).expect("correlations are finite")
            })
            .map(|(i, _)| i)
            .expect("unassigned non-empty");
        let mut stream = vec![unassigned.swap_remove(seed_pos)];
        while stream.len() < per_stream {
            let best = unassigned
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    let avg = |x: u8| -> f64 {
                        stream.iter().map(|&y| corr[usize::from(x)][usize::from(y)]).sum()
                    };
                    avg(a).partial_cmp(&avg(b)).expect("correlations are finite")
                })
                .map(|(i, _)| i)
                .expect("unassigned non-empty");
            stream.push(unassigned.swap_remove(best));
        }
        stream.sort_unstable();
        streams.push(stream);
    }
    let mut best = StreamDivision::new(streams, width).expect("greedy grouping forms a partition");
    let mut best_cost = evaluate(sample, &best, config);

    for _ in 0..config.iterations {
        let s1 = rng.random_range(0..config.streams);
        let mut s2 = rng.random_range(0..config.streams);
        if s1 == s2 {
            s2 = (s2 + 1) % config.streams;
        }
        let i1 = rng.random_range(0..per_stream);
        let i2 = rng.random_range(0..per_stream);
        let mut candidate_bits: Vec<Vec<u8>> =
            (0..config.streams).map(|s| best.stream_bits(s).to_vec()).collect();
        let tmp = candidate_bits[s1][i1];
        candidate_bits[s1][i1] = candidate_bits[s2][i2];
        candidate_bits[s2][i2] = tmp;
        for s in [s1, s2] {
            candidate_bits[s].sort_unstable();
        }
        let candidate =
            StreamDivision::new(candidate_bits, width).expect("swap preserves the partition");
        let cost = evaluate(sample, &candidate, config);
        if cost < best_cost {
            best = candidate;
            best_cost = cost;
        }
    }
    (best, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words whose bits 0..8 are perfectly correlated with each other and
    /// bits 8..16 anti-correlated with them, rest noise.
    fn structured_units(n: usize) -> Vec<u32> {
        let n = u32::try_from(n).expect("test sizes must fit in u32, not wrap");
        (0..n)
            .map(|i| {
                let flag = i % 3 == 0;
                let hi = if flag { 0xFFu32 } else { 0x00 };
                let mid = if flag { 0x00u32 } else { 0xFF };
                let noise = i.wrapping_mul(0x9E37_79B9) & 0xFFFF;
                hi << 24 | mid << 16 | noise
            })
            .collect()
    }

    #[test]
    fn correlation_detects_structure() {
        let units = structured_units(2000);
        // Bits 0 and 1 move together.
        assert!(bit_correlation(&units, 32, 0, 1) > 0.99);
        // Bits 0 and 8 move oppositely.
        assert!(bit_correlation(&units, 32, 0, 8) < -0.99);
        // Constant bits have zero correlation by convention.
        let zeros = vec![0u32; 100];
        assert_eq!(bit_correlation(&zeros, 32, 0, 1), 0.0);
    }

    #[test]
    fn popcount_correlation_matches_walk_exactly() {
        // Odd length exercises the partial last u64 word of each column.
        let units = structured_units(1001);
        let cols = BitColumns::new(&units, 32);
        let n = units.len() as f64;
        for a in 0..32usize {
            assert_eq!(
                cols.ones(a),
                units.iter().filter(|&&w| w >> (31 - a) & 1 == 1).count() as u64
            );
            for b in a + 1..32usize {
                let fast = correlation_from_sums(
                    n,
                    cols.ones(a) as f64,
                    cols.ones(b) as f64,
                    cols.and_ones(a, b) as f64,
                );
                let walk = bit_correlation(&units, 32, a as u8, b as u8);
                assert_eq!(fast.to_bits(), walk.to_bits(), "bits {a},{b}: {fast} vs {walk}");
            }
        }
    }

    #[test]
    fn optimizer_returns_a_valid_partition() {
        let units = structured_units(1024);
        let config = OptimizeConfig { iterations: 8, sample_units: 512, ..Default::default() };
        let (division, cost) = optimize_division(&units, 32, &config);
        assert_eq!(division.stream_count(), 4);
        assert_eq!(division.total_bits(), 32);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn optimizer_beats_or_matches_naive_bytes_on_structured_data() {
        let units = structured_units(2048);
        let config = OptimizeConfig { iterations: 24, sample_units: 1024, ..Default::default() };
        let (_, optimized_cost) = optimize_division(&units, 32, &config);
        let sample = &units[..1024];
        let naive = MarkovModel::code_length_from_counts(
            sample,
            &StreamDivision::bytes(32),
            config.markov,
            config.block_units,
        );
        assert!(
            optimized_cost <= naive * 1.001,
            "optimized {optimized_cost:.0} vs naive {naive:.0}"
        );
    }

    #[test]
    fn optimizer_is_deterministic() {
        let units = structured_units(512);
        let config = OptimizeConfig { iterations: 6, sample_units: 256, ..Default::default() };
        let (a, ca) = optimize_division(&units, 32, &config);
        let (b, cb) = optimize_division(&units, 32, &config);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    }

    #[test]
    fn single_restart_matches_reference_division() {
        let units = structured_units(1024);
        let config = OptimizeConfig { iterations: 32, sample_units: 512, ..Default::default() };
        let (fast, fast_cost) = optimize_division_with_workers(&units, 32, &config, 1);
        let (reference, reference_cost) = optimize_division_reference(&units, 32, &config);
        assert_eq!(fast, reference);
        let tolerance = 1e-6 * reference_cost.abs().max(1.0);
        assert!(
            (fast_cost - reference_cost).abs() <= tolerance,
            "fast {fast_cost} vs reference {reference_cost}"
        );
    }

    #[test]
    fn extra_restarts_never_hurt() {
        let units = structured_units(1024);
        let single = OptimizeConfig { iterations: 16, sample_units: 512, ..Default::default() };
        let multi = OptimizeConfig { restarts: 4, ..single.clone() };
        let (_, cost1) = optimize_division(&units, 32, &single);
        let (_, cost4) = optimize_division(&units, 32, &multi);
        assert!(cost4 <= cost1, "4 restarts {cost4} vs 1 restart {cost1}");
    }

    #[test]
    fn warm_start_never_costs_more_than_cold() {
        let units = structured_units(1024);
        let cold = OptimizeConfig { iterations: 24, sample_units: 512, ..Default::default() };
        let (division, cold_cost) = optimize_division(&units, 32, &cold);
        // Re-searching from the cold optimum can only keep or lower the
        // cost: the climb starts at cold_cost and accepts improvements.
        let warm = OptimizeConfig { warm_start: Some(division), ..cold };
        let (_, warm_cost) = optimize_division(&units, 32, &warm);
        assert!(warm_cost <= cold_cost, "warm {warm_cost} vs cold {cold_cost}");
    }

    #[test]
    fn incompatible_warm_start_falls_back_to_cold() {
        let units = structured_units(512);
        let cold = OptimizeConfig { iterations: 8, sample_units: 256, ..Default::default() };
        let (cold_division, cold_cost) = optimize_division(&units, 32, &cold);
        // Wrong width and wrong stream count: both must be ignored.
        for bad in [StreamDivision::bytes(8), StreamDivision::contiguous(32, 8)] {
            let warm = OptimizeConfig { warm_start: Some(bad), ..cold.clone() };
            let (division, cost) = optimize_division(&units, 32, &warm);
            assert_eq!(division, cold_division);
            assert_eq!(cost.to_bits(), cold_cost.to_bits());
        }
    }

    #[test]
    fn warm_start_is_worker_count_invariant() {
        let units = structured_units(512);
        let (seed_division, _) = optimize_division(
            &units,
            32,
            &OptimizeConfig { iterations: 8, sample_units: 256, ..Default::default() },
        );
        let warm = OptimizeConfig {
            iterations: 12,
            sample_units: 256,
            restarts: 4,
            warm_start: Some(seed_division),
            ..Default::default()
        };
        let (division1, cost1) = optimize_division_with_workers(&units, 32, &warm, 1);
        for workers in [2, 8] {
            let (division, cost) = optimize_division_with_workers(&units, 32, &warm, workers);
            assert_eq!(division, division1, "{workers} workers");
            assert_eq!(cost.to_bits(), cost1.to_bits(), "{workers} workers");
        }
    }
}
