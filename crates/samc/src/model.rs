//! Semiadaptive Markov models over bit streams.

use crate::streams::StreamDivision;
use cce_arith::{Prob, ProbMode, PROB_ONE};
use std::sync::OnceLock;

/// Markov-model options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovConfig {
    /// How many bits of inter-stream context condition each tree.
    ///
    /// `0` = independent trees; `1` = the paper's *connected* trees
    /// (Fig. 4): each stream's tree is conditioned on the last bit of the
    /// previous stream, wrapping from one instruction to the next inside a
    /// block; `2`/`3` extend the window over the last 2/3 bits — the
    /// "better Markov model" direction the paper leaves as future work
    /// (model storage doubles per extra bit).  Maximum 3.
    pub context_bits: u8,
    /// Probability representation (exact 12-bit, or shift-only powers of
    /// two for multiplier-free hardware).
    pub prob_mode: ProbMode,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        Self { context_bits: 1, prob_mode: ProbMode::Exact }
    }
}

impl MarkovConfig {
    /// The paper's unconnected baseline (independent trees).
    pub fn unconnected() -> Self {
        Self { context_bits: 0, ..Self::default() }
    }

    /// Number of context variants per stream (`2^context_bits`).
    ///
    /// # Panics
    ///
    /// Panics if `context_bits > 3` (storage grows 8× per tree already).
    pub fn contexts(&self) -> usize {
        assert!(self.context_bits <= 3, "context_bits must be 0..=3");
        1usize << self.context_bits
    }

    /// Mask applied to the sliding context window.
    pub(crate) fn context_mask(&self) -> usize {
        self.contexts() - 1
    }
}

/// One binary Markov tree per (stream, context).
///
/// Trees are complete binary trees over each stream's bits: the node
/// reached by the bits decoded so far predicts the next bit.  Node indices
/// are heap-style with the root at 1 and `child = 2·node + bit`, so a
/// k-bit stream stores `2^k − 1` probabilities — the count the paper
/// derives ("for a stream of k bits we need to store (2^{k+1} − 2)/2
/// probabilities").
///
/// All trees live in one flat array, streams in order and each stream's
/// contexts contiguous: [`MarkovModel::tree`] hands the coder one tree as
/// a slice, and [`MarkovModel::shifts`] the shifts that move each of the
/// stream's bits to the low bit of a unit word, so the per-bit walk is a
/// slice index and a shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkovModel {
    division: StreamDivision,
    config: MarkovConfig,
    /// Every tree's `P(0)` per heap node; stream `s`'s tree under context
    /// `ctx` is `probs[streams[s].base + ctx · nodes..][..nodes]`.
    probs: Vec<Prob>,
    streams: Vec<StreamLayout>,
}

/// Where one stream's trees sit in [`MarkovModel`]'s flat array.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StreamLayout {
    /// Offset of the stream's context-0 tree.
    base: usize,
    /// Slots per tree: `2^k` for a k-bit stream (slot 0 is never visited,
    /// which keeps heap indexing exact).
    nodes: usize,
    /// `width − 1 − bit` for each of the stream's bits, in walk order.
    shifts: Vec<u32>,
}

/// The flat layout of `division`'s trees under `contexts` contexts, and
/// the total slot count.
fn layout(division: &StreamDivision, contexts: usize) -> (Vec<StreamLayout>, usize) {
    let width = division.width();
    let mut base = 0;
    let streams = (0..division.stream_count())
        .map(|s| {
            let bits = division.stream_bits(s);
            let nodes = 1usize << bits.len();
            let shifts = bits.iter().map(|&b| u32::from(width - 1 - b)).collect();
            let stream = StreamLayout { base, nodes, shifts };
            base += contexts * nodes;
            stream
        })
        .collect();
    (streams, base)
}

impl MarkovModel {
    /// Trains a model on `units` (instruction words already split out of
    /// the text), gathering statistics with the same block-restart walk the
    /// codec uses, so train and compression see identical contexts.
    ///
    /// `block_units` is the number of instruction units per cache block.
    ///
    /// # Panics
    ///
    /// Panics if `block_units == 0`.
    pub fn train(
        units: &[u32],
        division: &StreamDivision,
        config: MarkovConfig,
        block_units: usize,
    ) -> Self {
        assert!(block_units > 0, "blocks must hold at least one unit");
        let (streams, slots) = layout(division, config.contexts());
        let mask = config.context_mask();
        // (zeros, ones) per slot, laid out like the probabilities.
        let mut counts = vec![(0u64, 0u64); slots];
        for block in units.chunks(block_units) {
            let mut ctx = 0usize;
            for &unit in block {
                for stream in &streams {
                    let tree = &mut counts[stream.base + ctx * stream.nodes..][..stream.nodes];
                    let mut node = 1usize;
                    for &shift in &stream.shifts {
                        let bit = unit >> shift & 1;
                        let slot = &mut tree[node];
                        slot.0 += u64::from(bit ^ 1);
                        slot.1 += u64::from(bit);
                        node = 2 * node + bit as usize;
                    }
                    ctx = (ctx << 1 | (node & 1)) & mask;
                }
            }
        }
        let probs = counts
            .into_iter()
            .map(|(zeros, ones)| Prob::from_counts(zeros, ones).quantize(config.prob_mode))
            .collect();
        Self { division: division.clone(), config, probs, streams }
    }

    /// Ideal coded size (in bits) of `units` under a model trained on
    /// those same `units`, computed from symbol counts instead of a
    /// second walk.
    ///
    /// Training already collects per-node `(zeros, ones)` counts, and the
    /// ideal code length is a pure function of them:
    /// `Σ zeros·(−log₂ p₀) + ones·(−log₂ p₁)` over model nodes — O(nodes)
    /// summation work instead of the O(units × width) walk that
    /// [`MarkovModel::train`] + [`MarkovModel::code_length_bits`] pays.
    /// This is the stream-division optimizer's objective; it matches the
    /// walk to within floating-point summation error (property-tested at
    /// 1e-6 relative tolerance in `tests/optimize_incremental.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `block_units == 0`.
    pub fn code_length_from_counts(
        units: &[u32],
        division: &StreamDivision,
        config: MarkovConfig,
        block_units: usize,
    ) -> f64 {
        assert!(block_units > 0, "blocks must hold at least one unit");
        let stream_count = division.stream_count();
        let last_bits: Vec<u8> = (0..stream_count)
            .map(|s| *division.stream_bits(s).last().expect("streams are non-empty"))
            .collect();
        let mut counts = Vec::new();
        (0..stream_count)
            .map(|t| {
                stream_cost_from_counts(
                    units,
                    division.width(),
                    stream_count,
                    t,
                    division.stream_bits(t),
                    &last_bits,
                    config,
                    block_units,
                    &mut counts,
                )
            })
            .sum()
    }

    /// Reassembles a model from serialized parts (crate-internal):
    /// `read` yields each visited node's probability in flat order
    /// (stream, then context, then node 1..2^k); unvisited slot 0 is
    /// [`Prob::HALF`], as training leaves it.
    pub(crate) fn from_parts<E>(
        division: StreamDivision,
        config: MarkovConfig,
        mut read: impl FnMut() -> Result<Prob, E>,
    ) -> Result<Self, E> {
        let (streams, slots) = layout(&division, config.contexts());
        let mut probs = Vec::with_capacity(slots);
        for stream in &streams {
            for _ in 0..config.contexts() {
                probs.push(Prob::HALF);
                for _ in 1..stream.nodes {
                    probs.push(read()?);
                }
            }
        }
        Ok(Self { division, config, probs, streams })
    }

    /// The division this model was trained with.
    pub fn division(&self) -> &StreamDivision {
        &self.division
    }

    /// The model options.
    pub fn config(&self) -> MarkovConfig {
        self.config
    }

    /// Stream `s`'s tree under context `ctx`: `P(next bit = 0)` per heap
    /// node, root at index 1, `2^k` slots for a k-bit stream.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range (codec-internal misuse).
    pub fn tree(&self, stream: usize, ctx: usize) -> &[Prob] {
        let layout = &self.streams[stream];
        assert!(ctx < self.config.contexts(), "context {ctx} out of range");
        &self.probs[layout.base + ctx * layout.nodes..][..layout.nodes]
    }

    /// `width − 1 − bit` for each bit of stream `s`, in walk order: the
    /// right shift that brings the bit to the low end of a unit word.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shifts(&self, stream: usize) -> &[u32] {
        &self.streams[stream].shifts
    }

    /// P(next bit = 0) at `node` of stream `s` under context `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range (codec-internal misuse).
    pub fn prob(&self, stream: usize, ctx: usize, node: usize) -> Prob {
        self.tree(stream, ctx)[node]
    }

    /// Number of stored probabilities across all trees.
    pub fn prob_count(&self) -> usize {
        // Slot 0 of each tree is never visited (root is 1), so subtract it.
        self.probs.len() - self.streams.len() * self.config.contexts()
    }

    /// Serialized model size in bytes: 12 bits per probability in exact
    /// mode, 4 bits (sign + 3-bit exponent) in power-of-two mode.
    pub fn model_bytes(&self) -> usize {
        let bits_per_prob = match self.config.prob_mode {
            ProbMode::Exact => 12,
            ProbMode::Pow2 => 4,
        };
        (self.prob_count() * bits_per_prob).div_ceil(8)
    }

    /// Ideal coded size (in bits) of `units` under this model with the
    /// given block size — the entropy objective the stream-division
    /// optimizer minimizes.
    pub fn code_length_bits(&self, units: &[u32], block_units: usize) -> f64 {
        let mut total = 0.0;
        for block in units.chunks(block_units) {
            let mut ctx = 0usize;
            for &unit in block {
                for s in 0..self.streams.len() {
                    let tree = self.tree(s, ctx);
                    let mut node = 1usize;
                    for &shift in self.shifts(s) {
                        let bit = unit >> shift & 1;
                        total += tree[node].code_length(bit == 1);
                        node = 2 * node + bit as usize;
                    }
                    ctx = (ctx << 1 | (node & 1)) & self.config.context_mask();
                }
            }
        }
        total
    }
}

/// Per-probability code lengths, indexed by `Prob::raw()`.
///
/// `Prob::code_length` is two float divides and a `log2` per visited bit;
/// the raw probability space is only 12 bits, so the optimizer looks the
/// values up instead.  Entries hold *exactly* `Prob::from_raw(r)
/// .code_length(bit)` so count-based costs agree with the walk bit-for-bit
/// at each node.
struct CodeLengthTable {
    zero: Vec<f64>,
    one: Vec<f64>,
}

fn code_length_table() -> &'static CodeLengthTable {
    static TABLE: OnceLock<CodeLengthTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut zero = vec![0.0; PROB_ONE as usize];
        let mut one = vec![0.0; PROB_ONE as usize];
        for raw in 1..PROB_ONE {
            let prob = Prob::from_raw(raw);
            zero[raw as usize] = prob.code_length(false);
            one[raw as usize] = prob.code_length(true);
        }
        CodeLengthTable { zero, one }
    })
}

/// Count-based coded size (in bits) of one stream `t` of the division.
///
/// This is the optimizer's incremental kernel: it reconstructs stream
/// `t`'s contexts directly from the data — the context entering stream `t`
/// of unit `i` is the last bit of each of the `context_bits` preceding
/// streams in serialized order (zero past the block boundary), which
/// depends only on those streams' *last-bit indices* (`last_bits`), not on
/// the rest of the division.  Streams can therefore be costed
/// independently, and a bit exchange only dirties the streams whose bits
/// or incoming context bits changed.
///
/// `counts` is caller-owned scratch (cleared and resized here) so the
/// optimizer's hot loop does not allocate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_cost_from_counts(
    units: &[u32],
    width: u8,
    stream_count: usize,
    t: usize,
    t_bits: &[u8],
    last_bits: &[u8],
    config: MarkovConfig,
    block_units: usize,
    counts: &mut Vec<(u64, u64)>,
) -> f64 {
    let contexts = config.contexts();
    let nodes = 1usize << t_bits.len();
    counts.clear();
    counts.resize(contexts * nodes, (0, 0));
    let t_shifts: Vec<u32> = t_bits.iter().map(|&b| u32::from(width - 1 - b)).collect();
    let last_shifts: Vec<u32> = last_bits.iter().map(|&b| u32::from(width - 1 - b)).collect();
    let context_bits = usize::from(config.context_bits);
    for (i, &unit) in units.iter().enumerate() {
        let mut ctx = 0usize;
        if context_bits > 0 {
            // Serialized bit-stream position of stream t in unit i; context
            // bit j is the last bit of the stream at position p − j, with
            // the window clamped at the block restart.
            let base = i * stream_count + t;
            let block_floor = (i - i % block_units) * stream_count;
            for j in 1..=context_bits {
                if base >= block_floor + j {
                    let p = base - j;
                    let bit = units[p / stream_count] >> last_shifts[p % stream_count] & 1;
                    ctx |= (bit as usize) << (j - 1);
                }
            }
        }
        let mut node = 1usize;
        let slots = &mut counts[ctx * nodes..(ctx + 1) * nodes];
        for &sh in &t_shifts {
            let bit = unit >> sh & 1;
            let slot = &mut slots[node];
            slot.0 += u64::from(bit ^ 1);
            slot.1 += u64::from(bit);
            node = 2 * node + bit as usize;
        }
    }
    let table = code_length_table();
    let mut total = 0.0;
    for &(zeros, ones) in counts.iter() {
        if zeros | ones == 0 {
            continue;
        }
        let raw = Prob::from_counts(zeros, ones).quantize(config.prob_mode).raw() as usize;
        if zeros > 0 {
            total += zeros as f64 * table.zero[raw];
        }
        if ones > 0 {
            total += ones as f64 * table.one[raw];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::StreamDivision;

    #[test]
    fn prob_count_matches_paper_formula() {
        // 4 streams of 8 bits, unconnected: 4 · (2^8 − 1) = 1020.
        let model = MarkovModel::train(
            &[0u32; 16],
            &StreamDivision::bytes(32),
            MarkovConfig::unconnected(),
            8,
        );
        assert_eq!(model.prob_count(), 4 * 255);
        // Connected doubles the contexts.
        let model =
            MarkovModel::train(&[0u32; 16], &StreamDivision::bytes(32), MarkovConfig::default(), 8);
        assert_eq!(model.prob_count(), 2 * 4 * 255);
    }

    #[test]
    fn constant_stream_learns_certainty() {
        // All-zero words: every visited node should predict 0 strongly.
        let model = MarkovModel::train(
            &[0u32; 1000],
            &StreamDivision::bytes(32),
            MarkovConfig::default(),
            8,
        );
        assert!(model.prob(0, 0, 1).as_f64() > 0.99);
    }

    #[test]
    fn learned_probabilities_reflect_bias() {
        // Bit 0 (MSB) set in 1 of 4 words.
        let units: Vec<u32> =
            (0..4000u32).map(|i| if i % 4 == 0 { 0x8000_0000 } else { 0 }).collect();
        let model =
            MarkovModel::train(&units, &StreamDivision::bytes(32), MarkovConfig::unconnected(), 8);
        let p = model.prob(0, 0, 1).as_f64();
        assert!((p - 0.75).abs() < 0.02, "P(0)={p}");
    }

    #[test]
    fn connected_context_separates_statistics() {
        // Alternate words: when the previous word's last bit is 1, the next
        // word's first bit is 1, else 0.  A connected model learns this;
        // an unconnected one cannot.
        let units: Vec<u32> =
            (0..2000u32).map(|i| if i % 2 == 0 { 0x8000_0001 } else { 0 }).collect();
        let connected = MarkovModel::train(
            &units,
            &StreamDivision::bytes(32),
            MarkovConfig::default(),
            u32::MAX as usize,
        );
        // ctx=1 (previous word's last bit was 1): the next word is all-zero,
        // so P(MSB = 0 | ctx=1) should be high.
        let after_one = connected.prob(0, 1, 1).as_f64();
        let after_zero = connected.prob(0, 0, 1).as_f64();
        assert!(after_one > 0.9, "after a 1-ending word the MSB is 0: {after_one}");
        assert!(after_zero < 0.6, "after_zero {after_zero}");
        let code_connected = connected.code_length_bits(&units, u32::MAX as usize);
        let unconnected = MarkovModel::train(
            &units,
            &StreamDivision::bytes(32),
            MarkovConfig::unconnected(),
            u32::MAX as usize,
        );
        let code_unconnected = unconnected.code_length_bits(&units, u32::MAX as usize);
        assert!(
            code_connected < code_unconnected,
            "connected {code_connected} vs unconnected {code_unconnected}"
        );
    }

    #[test]
    fn model_bytes_scales_with_mode() {
        let exact = MarkovModel::train(
            &[0u32; 8],
            &StreamDivision::bytes(32),
            MarkovConfig::unconnected(),
            8,
        );
        let pow2 = MarkovModel::train(
            &[0u32; 8],
            &StreamDivision::bytes(32),
            MarkovConfig { context_bits: 0, prob_mode: ProbMode::Pow2 },
            8,
        );
        assert_eq!(exact.model_bytes(), (4 * 255 * 12usize).div_ceil(8));
        assert_eq!(pow2.model_bytes(), (4 * 255 * 4usize).div_ceil(8));
    }

    #[test]
    fn code_length_lower_for_biased_data() {
        let biased: Vec<u32> = vec![0x0102_0304; 512];
        let mixed: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let division = StreamDivision::bytes(32);
        let model_biased = MarkovModel::train(&biased, &division, MarkovConfig::default(), 8);
        let model_mixed = MarkovModel::train(&mixed, &division, MarkovConfig::default(), 8);
        let len_biased = model_biased.code_length_bits(&biased, 8);
        let len_mixed = model_mixed.code_length_bits(&mixed, 8);
        assert!(len_biased < len_mixed / 4.0, "{len_biased} vs {len_mixed}");
    }
}
