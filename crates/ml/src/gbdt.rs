//! Gradient-boosted regression trees — the paper's `GB` model (after Dutt
//! et al. \[5\], whose reference implementation is LightGBM).
//!
//! Squared-loss boosting: each tree fits the current residuals. Split
//! finding is histogram-based like LightGBM's: features are quantile-binned
//! to at most `max_bins` values once before training, and each candidate
//! split only scans per-bin aggregates. Trees grow leaf-wise (best gain
//! first) up to `max_leaves` / `max_depth`.
//!
//! Each node's histogram is one flat buffer of per-bin residual sums and
//! row counts, laid out over the tree's sampled feature list (a constant
//! feature gets no slots). Expanding a node uses LightGBM's histogram
//! subtraction: only the child with fewer rows is accumulated from its
//! rows, and the larger child's histogram is derived as parent − smaller,
//! in place in the parent's buffer. A frontier node keeps its histogram
//! only if both of its children could be searched (at least
//! `4 · min_samples_leaf` rows and room for one more level); otherwise it
//! is dropped at once and that node's children are built directly, which
//! keeps the live histogram memory of wide trees down. Every bin still
//! accumulates its rows in row order, and the split scan keeps the exact
//! gain formula, so trees are the same as from direct builds.
//!
//! The resulting estimator is small (kilobytes) and trains in seconds —
//! reproducing the paper's Section 5.7 observation that GB is the smallest
//! and fastest-to-train estimator.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use qfe_core::featurize::FeatureBinner;
use qfe_core::parallel::ThreadPool;

use crate::compiled::CompiledGbdt;
use crate::matrix::Matrix;
use crate::train::Regressor;

/// Feature columns per parallel chunk of cut / split work (and per
/// row-outer histogram accumulation). Fixed — never derived from the
/// thread count — so training is bit-identical at any `QFE_THREADS` (see
/// `qfe_core::parallel` for the contract: fixed chunk boundaries +
/// chunk-order reduction).
const FEATURE_CHUNK: usize = 8;
/// Rows per parallel binning / residual / prediction-update chunk. Also
/// fixed; the per-round loss is reduced from per-chunk partial sums in
/// chunk order.
const ROW_CHUNK: usize = 2048;
/// Histogram row-features (rows accumulated × features) per pool task of
/// a split pass; a smaller pass runs inline. Waking a pool worker costs
/// tens of microseconds on small VMs, so a task must carry real work.
/// The task count is a function of the data only, and tasks cover whole
/// feature chunks, so every thread count computes the same bits.
const SPLIT_PAR_MIN_WORK: usize = 1 << 14;
/// Rows below which `predict_batch` stays inline. Per-row sums always
/// accumulate in tree order, so this gate cannot change results either.
const PREDICT_PAR_MIN_ROWS: usize = 256;

/// GBDT hyperparameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Maximum number of leaves per tree (leaf-wise growth).
    pub max_leaves: usize,
    /// Minimum samples in each child of a split.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values.
    pub lambda: f32,
    /// Maximum histogram bins per feature.
    pub max_bins: usize,
    /// Fraction of features considered per tree (column subsampling).
    pub colsample: f64,
    /// RNG seed (column subsampling).
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_trees: 120,
            learning_rate: 0.12,
            max_depth: 8,
            max_leaves: 31,
            min_samples_leaf: 10,
            lambda: 1.0,
            max_bins: 64,
            colsample: 1.0,
            seed: 0,
        }
    }
}

/// Reference tree node — the representation training grows and the
/// snapshot format serializes. Inference goes through the flattened
/// [`CompiledGbdt`] form compiled from these (see [`crate::compiled`]).
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Go left if `x[feature] <= threshold`.
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
    },
    Leaf(f32),
}

#[derive(Debug, Clone)]
pub(crate) struct Tree {
    pub(crate) nodes: Vec<Node>,
}

impl Tree {
    pub(crate) fn predict(&self, x: &[f32]) -> f32 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Footprint of the reference representation: the enum nodes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
    }
}

/// A node's best split: `(gain, feature, threshold_bin)`.
type Split = (f64, u32, u8);

/// Replace `best` with `cand` only if `cand` gains strictly more, so ties
/// stay with the earlier candidate (earliest feature in list order, then
/// lowest bin).
fn keep_better(best: &mut Option<Split>, cand: Split) {
    if best.as_ref().is_none_or(|b| cand.0 > b.0) {
        *best = Some(cand);
    }
}

/// Slot layout of a node histogram over one tree's sampled feature list:
/// `features[i]` owns slots `offsets[i]..offsets[i + 1]`, one per bin, and
/// a constant feature owns none. A chunk of `FEATURE_CHUNK` features maps
/// to one contiguous slot range, so a pass can hand every pool task its
/// own disjoint slice of each histogram.
struct Layout<'a> {
    features: &'a [u32],
    offsets: Vec<usize>,
}

impl<'a> Layout<'a> {
    fn new(features: &'a [u32], cuts: &[Vec<f32>]) -> Self {
        let mut offsets = Vec::with_capacity(features.len() + 1);
        let mut at = 0;
        offsets.push(at);
        for &f in features {
            let n_bins = cuts[f as usize].len() + 1;
            if n_bins >= 2 {
                at += n_bins;
            }
            offsets.push(at);
        }
        Layout { features, offsets }
    }

    fn slots(&self) -> usize {
        self.offsets[self.features.len()]
    }
}

/// One node's histogram over a [`Layout`]: per-bin residual sums
/// (accumulated in row order) and row counts.
struct Hist {
    sum: Vec<f64>,
    cnt: Vec<u32>,
}

impl Hist {
    fn zeroed(slots: usize) -> Self {
        Hist {
            sum: vec![0.0; slots],
            cnt: vec![0; slots],
        }
    }
}

/// Split `buf` into the consecutive pieces delimited by `bounds`.
fn split_at_bounds<'b, T>(mut buf: &'b mut [T], bounds: &[usize]) -> Vec<&'b mut [T]> {
    bounds
        .windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(w[1] - w[0]);
            buf = tail;
            head
        })
        .collect()
}

/// Row-major binned features: `row(r)[f]` is row `r`'s bin of feature
/// `f`. Row-major so a histogram build can walk each row once and update
/// several features' histograms from it.
struct Bins {
    cols: usize,
    data: Vec<u8>,
}

impl Bins {
    fn row(&self, r: u32) -> &[u8] {
        let at = r as usize * self.cols;
        &self.data[at..at + self.cols]
    }
}

/// Add `rows`' residuals into one chunk's histogram slices. `features`
/// pairs each non-constant feature with its first slot (relative to the
/// slices). Rows are the outer loop so the chunk's per-feature updates
/// are independent of each other and overlap; every bin still receives
/// its rows in row order.
fn accumulate(
    bins: &Bins,
    residuals: &[f32],
    rows: &[u32],
    features: &[(usize, usize)],
    sum: &mut [f64],
    cnt: &mut [u32],
) {
    for &r in rows {
        let v = residuals[r as usize] as f64;
        let row = bins.row(r);
        for &(f, at) in features {
            let slot = at + row[f] as usize;
            sum[slot] += v;
            cnt[slot] += 1;
        }
    }
}

/// A node one pass produces a histogram for.
struct Side<'a> {
    /// The node's rows. Iterated only when the histogram is built
    /// directly; a derived side uses just their count.
    rows: &'a [u32],
    /// Residual sum over `rows` (row order).
    total: f64,
    /// `total² / (n + λ)`: the no-split score gains are measured against.
    score: f64,
    /// Histogram = parent − the directly-built sibling, computed in place
    /// in the parent's buffer.
    derived: bool,
    /// Scan for a split; false when the histogram is only built so the
    /// sibling can be derived from it.
    search: bool,
}

/// A leaf-wise growth candidate: a leaf with a split worth expanding.
struct Candidate {
    node_slot: usize,
    rows: Vec<u32>,
    depth: usize,
    split: Split,
    /// Kept only when both children could be searched (see
    /// [`TreeBuilder::push_candidate`]); the larger child's histogram is
    /// then derived from it instead of being rebuilt.
    hist: Option<Hist>,
}

/// The gradient-boosting ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    config: GbdtConfig,
    trees: Vec<Tree>,
    base: f32,
    input_dim: usize,
    /// Flattened inference form, rebuilt after every fit and decode
    /// (never serialized — the snapshot format carries the reference
    /// trees). `None` only before training or for forests outside the
    /// compiled index space; prediction then falls back to the reference
    /// walk.
    compiled: Option<CompiledGbdt>,
}

impl Gbdt {
    /// Create an untrained model.
    pub fn new(config: GbdtConfig) -> Self {
        assert!(config.n_trees >= 1);
        assert!(config.max_bins >= 2 && config.max_bins <= 256);
        assert!(config.max_leaves >= 2);
        Gbdt {
            config,
            trees: Vec::new(),
            base: 0.0,
            input_dim: 0,
            compiled: None,
        }
    }

    /// Number of trained trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// True when the flattened inference form is active (every forest the
    /// trainer or decoder can realistically produce compiles; see
    /// `CompiledGbdt::compile` for the index-space limits).
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// The compiled forest, if built.
    pub fn compiled(&self) -> Option<&CompiledGbdt> {
        self.compiled.as_ref()
    }

    /// Heap footprint of the reference (pointer-free enum) trees alone —
    /// the baseline the compiled layout is measured against. The
    /// flattened form must come out *smaller* (12-byte packed splits + a
    /// 4-byte threshold and 4-byte leaf each, vs 20 bytes per enum node),
    /// which `compiled_smaller_than_reference` in the equivalence suite
    /// pins.
    pub fn reference_memory_bytes(&self) -> usize {
        self.trees.iter().map(Tree::memory_bytes).sum::<usize>()
    }

    /// Deterministic byte image of the compiled layout (for the
    /// thread-count determinism gate); `None` when not compiled.
    pub fn compiled_fingerprint_bytes(&self) -> Option<Vec<u8>> {
        self.compiled.as_ref().map(CompiledGbdt::fingerprint_bytes)
    }

    /// Quantile cut points for one feature column.
    fn cuts_for_feature(&self, x: &Matrix, f: usize) -> Vec<f32> {
        let n = x.rows();
        let mut vals: Vec<f32> = (0..n).map(|r| x.get(r, f)).collect();
        vals.sort_by(f32::total_cmp);
        vals.dedup();
        let want = self.config.max_bins - 1;
        let mut c: Vec<f32> = if vals.len() <= want {
            // Few distinct values: cut between every pair.
            vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
        } else {
            (1..=want)
                .map(|i| vals[i * (vals.len() - 1) / want])
                .collect()
        };
        c.dedup();
        c
    }

    /// Per-feature quantile cut points, feature-parallel. Each feature's
    /// cuts depend only on its own column, so placement cannot change
    /// results; chunk-order collection keeps the output layout fixed.
    fn build_cuts(&self, pool: &ThreadPool, x: &Matrix) -> Vec<Vec<f32>> {
        let cols: Vec<usize> = (0..x.cols()).collect();
        pool.par_chunks(&cols, FEATURE_CHUNK, |_, chunk| {
            chunk
                .iter()
                .map(|&f| self.cuts_for_feature(x, f))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Bin every feature of every row, row-parallel. Each value's bin
    /// depends only on its own column's cuts, so chunking cannot change
    /// the result.
    fn bin_features(pool: &ThreadPool, x: &Matrix, cuts: &[Vec<f32>]) -> Bins {
        let cols = x.cols();
        let mut data = vec![0u8; x.rows() * cols];
        pool.par_chunks_mut(&mut data, ROW_CHUNK * cols.max(1), |ci, chunk| {
            for (j, row) in chunk.chunks_mut(cols).enumerate() {
                let r = ci * ROW_CHUNK + j;
                for (f, bin) in row.iter_mut().enumerate() {
                    let v = x.get(r, f);
                    *bin = cuts[f].partition_point(|&edge| edge < v) as u8;
                }
            }
        });
        Bins { cols, data }
    }
}

/// One tree's growth: the inputs every pass reads, plus a free list of
/// histogram buffers, so a tree allocates only as many histograms as are
/// ever live at once.
struct TreeBuilder<'a> {
    config: &'a GbdtConfig,
    pool: &'a ThreadPool,
    layout: Layout<'a>,
    residuals: &'a [f32],
    bins: &'a Bins,
    /// `inv[k] = 1 / (k + λ)` for every row count `k`, which the scan's
    /// pruning bound multiplies by; empty when `λ ≤ 0` (no pruning).
    inv: &'a [f64],
    spare: Vec<Hist>,
}

impl TreeBuilder<'_> {
    /// A zeroed histogram, reusing a spare buffer when there is one.
    fn hist(&mut self) -> Hist {
        match self.spare.pop() {
            Some(mut h) => {
                h.sum.fill(0.0);
                h.cnt.fill(0);
                h
            }
            None => Hist::zeroed(self.layout.slots()),
        }
    }

    /// Describe a node for [`pass`](Self::pass).
    fn side<'r>(&self, rows: &'r [u32], derived: bool, search: bool) -> Side<'r> {
        let total = node_sum(rows, self.residuals);
        Side {
            rows,
            total,
            score: total * total / (rows.len() as f64 + self.config.lambda as f64),
            derived,
            search,
        }
    }

    fn leaf_value(&self, rows: &[u32]) -> f32 {
        let sum = node_sum(rows, self.residuals);
        (sum / (rows.len() as f64 + self.config.lambda as f64)) as f32
    }

    /// Scan one feature's histogram for its best threshold, folding it
    /// into `best` (strict `>`: ties keep the earlier feature, then the
    /// lower bin, and a gain must exceed `1e-9`).
    ///
    /// - Empty bins need no special case. Every histogram holds `+0.0` in
    ///   a count-0 slot (see [`pass_features`](Self::pass_features)), so a
    ///   threshold at an empty bin repeats the previous threshold's sums
    ///   and gain bit for bit, and the strict `>` never picks it.
    /// - The exact gain's two divisions are only paid for thresholds that
    ///   could win. With `λ > 0` both score terms are non-negative, and
    ///   the bound `l²·inv[nl] + r²·inv[nr]` is within 6 ulps of the exact
    ///   `l²/(nl + λ) + r²/(nr + λ)` (same squares, same denominators, a
    ///   few roundings each). Padded by `1e-12` relative on both sides of
    ///   the comparison, it is an upper bound, so a threshold that fails
    ///   it provably cannot beat the bar. A NaN bound fails the comparison
    ///   and takes the exact path.
    fn scan(
        &self,
        sum: &[f64],
        cnt: &[u32],
        node: &Side<'_>,
        feature: u32,
        best: &mut Option<Split>,
    ) {
        let lambda = self.config.lambda as f64;
        let min_child = self.config.min_samples_leaf;
        let n = node.rows.len() as u32;
        let mut left_sum = 0.0f64;
        let mut left_cnt = 0u32;
        let mut bar = best.as_ref().map_or(1e-9, |b| b.0);
        let mut need = (node.score + bar) * (1.0 - 1e-12);
        for t in 0..sum.len() - 1 {
            left_sum += sum[t];
            left_cnt += cnt[t];
            let right_cnt = n - left_cnt;
            if (right_cnt as usize) < min_child {
                break; // only shrinks from here on
            }
            if (left_cnt as usize) < min_child {
                continue;
            }
            let right_sum = node.total - left_sum;
            if !self.inv.is_empty() {
                let bound = left_sum * left_sum * self.inv[left_cnt as usize]
                    + right_sum * right_sum * self.inv[right_cnt as usize];
                if bound * (1.0 + 1e-12) <= need {
                    continue;
                }
            }
            let score = left_sum * left_sum / (left_cnt as f64 + lambda)
                + right_sum * right_sum / (right_cnt as f64 + lambda);
            let gain = score - node.score;
            if gain > bar {
                *best = Some((gain, feature, t as u8));
                bar = gain;
                need = (node.score + bar) * (1.0 - 1e-12);
            }
        }
    }

    /// Accumulate `rows` into one chunk's zeroed histogram slices (see
    /// [`accumulate`]). A pool task (`private`) accumulates into a buffer
    /// of its own and stores the result once: neighbouring tasks' slices
    /// share cache lines at their edges, and a few-bin chunk's whole slice
    /// can fit in a line or two, so accumulating in place would have the
    /// cores fight over those lines on every row. The stored bits are the
    /// same either way (each slot is `0.0 + its sum`).
    fn build(
        &self,
        rows: &[u32],
        owned: &[(usize, usize)],
        sum: &mut [f64],
        cnt: &mut [u32],
        private: bool,
    ) {
        if private {
            let (mut s, mut c) = (vec![0.0; sum.len()], vec![0; cnt.len()]);
            accumulate(self.bins, self.residuals, rows, owned, &mut s, &mut c);
            sum.copy_from_slice(&s);
            cnt.copy_from_slice(&c);
        } else {
            accumulate(self.bins, self.residuals, rows, owned, sum, cnt);
        }
    }

    /// One pass over a run of features: build side `a`'s histogram from
    /// its rows, build side `b`'s from its rows or derive it as parent −
    /// `a` in place, then scan each side that searches, in feature order.
    /// A derived slot whose count drops to 0 gets a sum of `+0.0`, as a
    /// direct build would give it, rather than the subtraction's rounding
    /// residue.
    /// `offsets` are the run's absolute slot offsets (one per feature plus
    /// the end); the histogram slices start at `offsets[0]`.
    fn pass_features(
        &self,
        features: &[u32],
        offsets: &[usize],
        (a, a_sum, a_cnt): (&Side<'_>, &mut [f64], &mut [u32]),
        mut b: Option<(&Side<'_>, &mut [f64], &mut [u32])>,
        private: bool,
    ) -> (Option<Split>, Option<Split>) {
        let base = offsets[0];
        for (k, chunk) in features.chunks(FEATURE_CHUNK).enumerate() {
            let first = k * FEATURE_CHUNK;
            let (lo, hi) = (offsets[first] - base, offsets[first + chunk.len()] - base);
            // The chunk's features that own slots, with their first slot
            // relative to the chunk's.
            let mut owned = [(0usize, 0usize); FEATURE_CHUNK];
            let mut m = 0;
            for (j, &f) in chunk.iter().enumerate() {
                let i = first + j;
                if offsets[i + 1] > offsets[i] {
                    owned[m] = (f as usize, offsets[i] - base - lo);
                    m += 1;
                }
            }
            let owned = &owned[..m];
            self.build(
                a.rows,
                owned,
                &mut a_sum[lo..hi],
                &mut a_cnt[lo..hi],
                private,
            );
            if let Some((side, b_sum, b_cnt)) = b.as_mut().filter(|(side, ..)| !side.derived) {
                self.build(
                    side.rows,
                    owned,
                    &mut b_sum[lo..hi],
                    &mut b_cnt[lo..hi],
                    private,
                );
            }
        }
        if let Some((_, b_sum, b_cnt)) = b.as_mut().filter(|(side, ..)| side.derived) {
            for (cb, ca) in b_cnt.iter_mut().zip(a_cnt.iter()) {
                *cb -= ca;
            }
            for ((sb, sa), cb) in b_sum.iter_mut().zip(a_sum.iter()).zip(b_cnt.iter()) {
                *sb = if *cb == 0 { 0.0 } else { *sb - sa };
            }
        }
        let (mut best_a, mut best_b) = (None, None);
        for (i, &f) in features.iter().enumerate() {
            let (lo, hi) = (offsets[i] - base, offsets[i + 1] - base);
            if lo == hi {
                continue; // constant feature: no slots, no split
            }
            if a.search {
                self.scan(&a_sum[lo..hi], &a_cnt[lo..hi], a, f, &mut best_a);
            }
            if let Some((side, b_sum, b_cnt)) = b.as_ref().filter(|(side, ..)| side.search) {
                self.scan(&b_sum[lo..hi], &b_cnt[lo..hi], side, f, &mut best_b);
            }
        }
        (best_a, best_b)
    }

    /// Produce the histograms of side `a` (into the zeroed `a_hist`) and
    /// optionally side `b` (into a zeroed buffer, or the parent's buffer
    /// when `b` is derived), returning each side's best split.
    ///
    /// A pass whose histogram builds add at least `SPLIT_PAR_MIN_WORK`
    /// row-features runs on the pool, as one task per `SPLIT_PAR_MIN_WORK`
    /// (at most one per `FEATURE_CHUNK`); each task covers a run of whole
    /// feature chunks and owns disjoint histogram slices. Smaller passes
    /// run inline. The task bests are reduced in task order with a strict
    /// `>`, exactly as one serial scan would, and the task count depends
    /// on the data only, so the result is bit-identical at every thread
    /// count.
    fn pass(
        &self,
        (a, a_hist): (&Side<'_>, &mut Hist),
        b: Option<(&Side<'_>, &mut Hist)>,
    ) -> (Option<Split>, Option<Split>) {
        let Layout { features, offsets } = &self.layout;
        let nf = features.len();
        let built = a.rows.len()
            + b.as_ref()
                .filter(|(side, _)| !side.derived)
                .map_or(0, |(side, _)| side.rows.len());
        let n_chunks = nf.div_ceil(FEATURE_CHUNK);
        let n_tasks = (built * nf / SPLIT_PAR_MIN_WORK).clamp(1, n_chunks.max(1));
        if n_tasks == 1 {
            return self.pass_features(
                features,
                offsets,
                (a, &mut a_hist.sum, &mut a_hist.cnt),
                b.map(|(side, h)| (side, &mut h.sum[..], &mut h.cnt[..])),
                false,
            );
        }
        // Task `t` covers features `starts[t]..starts[t + 1]`, whole chunks.
        let starts: Vec<usize> = (0..=n_tasks)
            .map(|t| (t * n_chunks / n_tasks * FEATURE_CHUNK).min(nf))
            .collect();
        let bounds: Vec<usize> = starts.iter().map(|&i| offsets[i]).collect();
        let a_segs = split_at_bounds(&mut a_hist.sum, &bounds)
            .into_iter()
            .zip(split_at_bounds(&mut a_hist.cnt, &bounds));
        let b_segs: Vec<_> = match b {
            Some((side, hist)) => split_at_bounds(&mut hist.sum, &bounds)
                .into_iter()
                .zip(split_at_bounds(&mut hist.cnt, &bounds))
                .map(|(s, c)| Some((side, s, c)))
                .collect(),
            None => (0..n_tasks).map(|_| None).collect(),
        };
        let tasks: Vec<_> = a_segs
            .zip(b_segs)
            .zip(starts.windows(2))
            .map(|(((a_sum, a_cnt), b_seg), w)| {
                let (features, offsets) = (&features[w[0]..w[1]], &offsets[w[0]..=w[1]]);
                move || self.pass_features(features, offsets, (a, a_sum, a_cnt), b_seg, true)
            })
            .collect();
        let (mut best_a, mut best_b) = (None, None);
        for (ta, tb) in self.pool.scoped(tasks) {
            ta.into_iter().for_each(|s| keep_better(&mut best_a, s));
            tb.into_iter().for_each(|s| keep_better(&mut best_b, s));
        }
        (best_a, best_b)
    }

    /// Enqueue a searched node if it found a split. Its histogram is kept
    /// only if both of its children could be searched — at least
    /// `4 · min_samples_leaf` rows and room for one more level — since
    /// only then can it spare a direct build; otherwise the buffer goes
    /// back to the free list and the node's children are built directly
    /// when it is expanded.
    fn push_candidate(
        &mut self,
        frontier: &mut Vec<Candidate>,
        (node_slot, rows, depth): (usize, Vec<u32>, usize),
        split: Option<Split>,
        hist: Option<Hist>,
    ) {
        let Some(split) = split else {
            self.spare.extend(hist);
            return;
        };
        let keep =
            rows.len() >= 4 * self.config.min_samples_leaf && depth + 1 < self.config.max_depth;
        let hist = if keep {
            hist
        } else {
            self.spare.extend(hist);
            None
        };
        frontier.push(Candidate {
            node_slot,
            rows,
            depth,
            split,
            hist,
        });
    }

    /// Grow one tree on the residuals, leaf-wise.
    ///
    /// Each expansion builds the smaller child's histogram from its rows
    /// and, when the parent kept its histogram, derives the larger child's
    /// as parent − smaller in the parent's buffer (LightGBM's histogram
    /// subtraction), so per level only the smaller half of the rows is
    /// accumulated.
    fn grow(mut self, cuts: &[Vec<f32>], n: usize) -> Tree {
        let min_search = 2 * self.config.min_samples_leaf;
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![Node::Leaf(self.leaf_value(&all_rows))];
        let mut root_hist = self.hist();
        let root = self.side(&all_rows, false, true);
        let (split, _) = self.pass((&root, &mut root_hist), None);
        let mut frontier: Vec<Candidate> = Vec::new();
        self.push_candidate(&mut frontier, (0, all_rows, 0), split, Some(root_hist));

        let mut leaves = 1usize;
        while leaves < self.config.max_leaves {
            // Expand the candidate with the highest gain.
            let Some(best_idx) = frontier
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.split.0.total_cmp(&b.1.split.0))
                .map(|(i, _)| i)
            else {
                break;
            };
            let cand = frontier.swap_remove(best_idx);
            let (_, feature, threshold_bin) = cand.split;
            let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = cand
                .rows
                .iter()
                .partition(|&&r| self.bins.row(r)[feature as usize] <= threshold_bin);
            let left_slot = nodes.len();
            nodes.push(Node::Leaf(self.leaf_value(&left_rows)));
            let right_slot = nodes.len();
            nodes.push(Node::Leaf(self.leaf_value(&right_rows)));
            nodes[cand.node_slot] = Node::Split {
                feature,
                threshold: cuts[feature as usize][threshold_bin as usize],
                left: left_slot as u32,
                right: right_slot as u32,
            };
            leaves += 1;

            let depth = cand.depth + 1;
            let left_small = left_rows.len() <= right_rows.len();
            let (small, large) = if left_small {
                (&left_rows, &right_rows)
            } else {
                (&right_rows, &left_rows)
            };
            if depth >= self.config.max_depth || large.len() < min_search {
                self.spare.extend(cand.hist);
                continue; // neither child can be searched
            }
            // Search the children: the smaller one is built from its rows
            // (if it can split, or to derive its sibling); the larger one is
            // derived from the parent's histogram when it was kept, built
            // directly otherwise.
            let s = self.side(small, false, small.len() >= min_search);
            let (small_split, large_split, small_hist, large_hist) = match cand.hist {
                Some(mut parent) => {
                    let mut small_hist = self.hist();
                    let l = self.side(large, true, true);
                    let (ss, ls) = self.pass((&s, &mut small_hist), Some((&l, &mut parent)));
                    (ss, ls, Some(small_hist), parent)
                }
                None if s.search => {
                    let (mut small_hist, mut built) = (self.hist(), self.hist());
                    let l = self.side(large, false, true);
                    let (ss, ls) = self.pass((&s, &mut small_hist), Some((&l, &mut built)));
                    (ss, ls, Some(small_hist), built)
                }
                None => {
                    let mut built = self.hist();
                    let l = self.side(large, false, true);
                    let (ls, _) = self.pass((&l, &mut built), None);
                    (None, ls, None, built)
                }
            };
            // Enqueue in (left, right) order, as ties in the frontier's
            // max-gain pick depend on it.
            let (left, right) = if left_small {
                ((small_split, small_hist), (large_split, Some(large_hist)))
            } else {
                ((large_split, Some(large_hist)), (small_split, small_hist))
            };
            self.push_candidate(&mut frontier, (left_slot, left_rows, depth), left.0, left.1);
            self.push_candidate(
                &mut frontier,
                (right_slot, right_rows, depth),
                right.0,
                right.1,
            );
        }
        Tree { nodes }
    }
}

/// Residual sum over `rows`, in row order.
fn node_sum(rows: &[u32], residuals: &[f32]) -> f64 {
    rows.iter().map(|&r| residuals[r as usize] as f64).sum()
}

impl Gbdt {
    /// Encode the trained model into the `QFEGB002` payload (everything
    /// after the magic + checksum frame; see [`crate::serialize`]).
    pub(crate) fn encode(&self) -> Vec<u8> {
        // Exact payload size: 16-byte header (base, input_dim, lr, tree
        // count), then per tree a 4-byte node count plus 5 bytes per leaf
        // (tag + value) and 17 per split (tag + feature + threshold +
        // children). The old `trees.len() * 64` guess undershot by an
        // order of magnitude for real trees (~31 leaves ≈ 700+ bytes),
        // forcing several reallocations of a buffer we can size exactly.
        let payload = 16
            + self
                .trees
                .iter()
                .map(|t| {
                    4 + t
                        .nodes
                        .iter()
                        .map(|n| match n {
                            Node::Leaf(_) => 5,
                            Node::Split { .. } => 17,
                        })
                        .sum::<usize>()
                })
                .sum::<usize>();
        let mut out = Vec::with_capacity(payload);
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&(self.input_dim as u32).to_le_bytes());
        out.extend_from_slice(&self.config.learning_rate.to_le_bytes());
        out.extend_from_slice(&(self.trees.len() as u32).to_le_bytes());
        for tree in &self.trees {
            out.extend_from_slice(&(tree.nodes.len() as u32).to_le_bytes());
            for node in &tree.nodes {
                match node {
                    Node::Leaf(v) => {
                        out.push(0);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        out.push(1);
                        out.extend_from_slice(&feature.to_le_bytes());
                        out.extend_from_slice(&threshold.to_le_bytes());
                        out.extend_from_slice(&left.to_le_bytes());
                        out.extend_from_slice(&right.to_le_bytes());
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), payload, "encode capacity estimate drifted");
        out
    }

    /// Decode a model from the `QFEGB002` payload (the caller —
    /// [`crate::serialize::gbdt_from_bytes`] — has already verified the
    /// magic and checksum). The returned model predicts identically to the
    /// encoded one; training-only state (bins, histograms) is not
    /// serialized, so refitting starts fresh.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, crate::serialize::DecodeError> {
        use crate::serialize::{DecodeError, Reader};
        let mut r = Reader::new(bytes);
        let base = r.f32()?;
        let input_dim = r.u32()? as usize;
        let learning_rate = r.f32()?;
        if !base.is_finite() || !learning_rate.is_finite() {
            return Err(DecodeError::Corrupt("non-finite model parameter"));
        }
        let n_trees = r.u32()? as usize;
        if n_trees == 0 || n_trees > 1_000_000 {
            return Err(DecodeError::Corrupt("implausible tree count"));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let n_nodes = r.u32()? as usize;
            if n_nodes == 0 || n_nodes > 10_000_000 {
                return Err(DecodeError::Corrupt("implausible node count"));
            }
            let mut nodes = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                match r.u8()? {
                    0 => {
                        let v = r.f32()?;
                        if !v.is_finite() {
                            return Err(DecodeError::Corrupt("non-finite leaf value"));
                        }
                        nodes.push(Node::Leaf(v));
                    }
                    1 => {
                        let feature = r.u32()?;
                        let threshold = r.f32()?;
                        let left = r.u32()?;
                        let right = r.u32()?;
                        if feature as usize >= input_dim.max(1) {
                            return Err(DecodeError::Corrupt("split feature out of range"));
                        }
                        if !threshold.is_finite() {
                            return Err(DecodeError::Corrupt("non-finite split threshold"));
                        }
                        nodes.push(Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        });
                    }
                    _ => return Err(DecodeError::Corrupt("unknown node tag")),
                }
            }
            // Child indices must stay inside the node table.
            for node in &nodes {
                if let Node::Split { left, right, .. } = node {
                    if *left as usize >= nodes.len() || *right as usize >= nodes.len() {
                        return Err(DecodeError::Corrupt("child index out of range"));
                    }
                }
            }
            trees.push(Tree { nodes });
        }
        if !r.finished() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        // Recompile the flattened inference form from the decoded trees —
        // this is what makes a warm restart (qfe-store) serve compiled
        // predictions without any change to the snapshot format.
        let compiled = CompiledGbdt::compile(&trees, input_dim);
        Ok(Gbdt {
            config: GbdtConfig {
                n_trees,
                learning_rate,
                ..GbdtConfig::default()
            },
            trees,
            base,
            input_dim,
            compiled,
        })
    }
}

impl Gbdt {
    /// The boosting loop shared by [`Regressor::fit`] (check = false,
    /// infallible) and [`Regressor::try_fit`] (check = true: the per-round
    /// squared loss is verified finite and divergence aborts training).
    /// `should_continue`, when present, is polled before every round so an
    /// external deadline can abort training between trees
    /// ([`Regressor::try_fit_within`]).
    fn fit_impl(
        &mut self,
        x: &Matrix,
        y: &[f32],
        check: bool,
        mut should_continue: Option<&mut dyn FnMut() -> bool>,
    ) -> Result<(), crate::train::TrainError> {
        self.input_dim = x.cols();
        self.trees.clear();
        self.base = y.iter().sum::<f32>() / y.len() as f32;

        // Resolve the pool once: worker threads do not inherit the
        // caller's thread-local override, so every parallel op below
        // must use this handle rather than re-resolving `current()`.
        let pool = qfe_core::parallel::current();
        let cuts = self.build_cuts(&pool, x);
        let bins = Self::bin_features(&pool, x, &cuts);
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut pred = vec![self.base; n];
        let mut residuals = vec![0.0f32; n];
        let all_features: Vec<u32> = (0..x.cols() as u32).collect();
        let lambda = self.config.lambda as f64;
        let inv: Vec<f64> = if lambda > 0.0 {
            (0..=n).map(|k| 1.0 / (k as f64 + lambda)).collect()
        } else {
            Vec::new()
        };
        // At least one feature per tree; none at all for a zero-column
        // matrix, whose trees are then single leaves (the constant model).
        let n_sampled = ((x.cols() as f64 * self.config.colsample).ceil() as usize)
            .clamp(1.min(x.cols()), x.cols());

        for round in 0..self.config.n_trees {
            if let Some(go_on) = should_continue.as_deref_mut() {
                if !go_on() {
                    return Err(crate::train::TrainError::Interrupted { round });
                }
            }
            // Residual refresh + loss, row-parallel over fixed chunks.
            // Each chunk's partial loss is an independent f64 sum; the
            // partials are folded in chunk order, so the total is the
            // same at every thread count (though its grouping differs
            // from a single flat serial sum — the contract is
            // thread-count invariance, not equality with old bits).
            let loss: f64 = if n <= ROW_CHUNK {
                let mut loss = 0.0f64;
                for i in 0..n {
                    residuals[i] = y[i] - pred[i];
                    loss += (residuals[i] as f64).powi(2);
                }
                loss
            } else {
                pool.par_chunks_mut(&mut residuals, ROW_CHUNK, |ci, chunk| {
                    let base = ci * ROW_CHUNK;
                    let mut partial = 0.0f64;
                    for (j, r) in chunk.iter_mut().enumerate() {
                        let i = base + j;
                        *r = y[i] - pred[i];
                        partial += (*r as f64).powi(2);
                    }
                    partial
                })
                .into_iter()
                .sum()
            };
            if check && !loss.is_finite() {
                return Err(crate::train::TrainError::NonFiniteLoss { round });
            }
            let features: Vec<u32> = if n_sampled == x.cols() {
                all_features.clone()
            } else {
                let mut fs = all_features.clone();
                fs.shuffle(&mut rng);
                fs.truncate(n_sampled);
                fs
            };
            let tree = TreeBuilder {
                config: &self.config,
                pool: &pool,
                layout: Layout::new(&features, &cuts),
                residuals: &residuals,
                bins: &bins,
                inv: &inv,
                spare: Vec::new(),
            }
            .grow(&cuts, n);
            let lr = self.config.learning_rate;
            // Prediction update is per-row independent: chunking only
            // changes scheduling, never the arithmetic on any row.
            if n <= ROW_CHUNK {
                for (i, p) in pred.iter_mut().enumerate() {
                    *p += lr * tree.predict(x.row(i));
                }
            } else {
                let tree_ref = &tree;
                pool.par_chunks_mut(&mut pred, ROW_CHUNK, |ci, chunk| {
                    let base = ci * ROW_CHUNK;
                    for (j, p) in chunk.iter_mut().enumerate() {
                        *p += lr * tree_ref.predict(x.row(base + j));
                    }
                });
            }
            self.trees.push(tree);
        }
        // Flatten the finished forest for inference. Compilation reads
        // only the trees (deterministic at any thread count), so the
        // compiled bytes inherit training's determinism contract.
        self.compiled = CompiledGbdt::compile(&self.trees, self.input_dim);
        Ok(())
    }
}

impl Gbdt {
    /// Run `fill(base_row, chunk)` over the accumulator, serially for
    /// small batches and over fixed row chunks on the shared pool
    /// otherwise. Rows are independent, so the gate and chunking only
    /// shape scheduling — outputs are bit-identical at any thread count.
    fn accumulate<F>(&self, fill: F, rows: usize) -> Vec<f32>
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let mut acc = vec![0.0f32; rows];
        if rows < PREDICT_PAR_MIN_ROWS {
            fill(0, &mut acc);
        } else {
            let pool = qfe_core::parallel::current();
            pool.par_chunks_mut(&mut acc, ROW_CHUNK, |ci, chunk| {
                fill(ci * ROW_CHUNK, chunk);
            });
        }
        acc
    }

    /// `base + lr * sum` over the tree-order accumulator.
    fn finish(&self, acc: Vec<f32>) -> Vec<f32> {
        let lr = self.config.learning_rate;
        acc.iter().map(|&sum| self.base + lr * sum).collect()
    }

    /// The reference prediction path: the enum-node tree walk the model
    /// trained with. Kept as the bit-exactness baseline for the compiled
    /// walk (and as the fallback for forests outside the compiled index
    /// space).
    ///
    /// Trees-outer / rows-inner: each tree's node array stays hot in
    /// cache while the whole batch streams through its walk. Each
    /// accumulator receives the per-tree contributions in tree order, so
    /// the f32 summation order — and therefore the result — is
    /// bit-identical to the rows-outer singleton path at any thread
    /// count.
    ///
    /// # Panics
    /// Panics if the model is untrained or `x` has the wrong width (same
    /// contract as [`Regressor::predict_batch`]).
    pub fn predict_batch_reference(&self, x: &Matrix) -> Vec<f32> {
        assert!(
            !self.trees.is_empty(),
            "predict called before fit — the GBDT has no trees yet"
        );
        if x.rows() == 0 {
            return Vec::new();
        }
        assert_eq!(
            x.cols(),
            self.input_dim,
            "input dimension {} does not match trained dimension {}",
            x.cols(),
            self.input_dim
        );
        self.finish(self.accumulate(
            |base_row, acc| {
                for tree in &self.trees {
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += tree.predict(x.row(base_row + j));
                    }
                }
            },
            x.rows(),
        ))
    }
}

impl Regressor for Gbdt {
    fn fit(&mut self, x: &Matrix, y: &[f32]) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot fit on zero samples");
        let _ = self.fit_impl(x, y, false, None); // check = false: cannot fail
    }

    fn try_fit(&mut self, x: &Matrix, y: &[f32]) -> Result<(), crate::train::TrainError> {
        crate::train::validate_training_set(x, y)?;
        // Train a candidate so a mid-training abort cannot leave `self`
        // half-boosted (provably: `self` is only written on success).
        let mut candidate = self.clone();
        candidate.fit_impl(x, y, true, None)?;
        *self = candidate;
        Ok(())
    }

    fn try_fit_within(
        &mut self,
        x: &Matrix,
        y: &[f32],
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<(), crate::train::TrainError> {
        crate::train::validate_training_set(x, y)?;
        // Same candidate-then-commit discipline as `try_fit`: an
        // interrupt between rounds leaves `self` exactly as it was.
        let mut candidate = self.clone();
        candidate.fit_impl(x, y, true, Some(should_continue))?;
        *self = candidate;
        Ok(())
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f32> {
        assert!(
            !self.trees.is_empty(),
            "predict called before fit — the GBDT has no trees yet"
        );
        // Empty-batch contract: 0 rows → 0 predictions, before the width
        // check (a `0×0` from `Matrix::from_rows(&[])` carries no width to
        // check against).
        if x.rows() == 0 {
            return Vec::new();
        }
        assert_eq!(
            x.cols(),
            self.input_dim,
            "input dimension {} does not match trained dimension {}",
            x.cols(),
            self.input_dim
        );
        // The compiled walk takes the same branches and accumulates in
        // the same tree order as the reference walk below, so the two are
        // bit-identical (proptested in tests/compiled_equivalence.rs).
        if let Some(compiled) = &self.compiled {
            return self.finish(self.accumulate(
                |base_row, acc| {
                    compiled.accumulate_rows(x, base_row, acc);
                },
                x.rows(),
            ));
        }
        self.predict_batch_reference(x)
    }

    fn feature_binner(&self) -> Option<&FeatureBinner> {
        self.compiled.as_ref().map(CompiledGbdt::binner)
    }

    fn predict_batch_binned(&self, rows: usize, bins: &[u16]) -> Option<Vec<f32>> {
        let compiled = self.compiled.as_ref()?;
        if rows == 0 {
            return Some(Vec::new());
        }
        if bins.len() != rows.checked_mul(self.input_dim)? {
            return None; // shape mismatch: let the caller take the f32 path
        }
        Some(self.finish(self.accumulate(
            |base_row, acc| {
                compiled.accumulate_binned(bins, base_row, acc);
            },
            rows,
        )))
    }

    fn memory_bytes(&self) -> usize {
        // Both representations are live: the reference trees (kept for
        // serialization and as the equivalence baseline) plus the
        // compiled arrays actually serving predictions.
        self.reference_memory_bytes()
            + self.compiled.as_ref().map_or(0, CompiledGbdt::memory_bytes)
            + 8
    }

    fn model_name(&self) -> &'static str {
        "GB"
    }

    fn to_bytes(&self) -> Option<Vec<u8>> {
        if self.trees.is_empty() {
            return None; // untrained: nothing durable to persist
        }
        Some(crate::serialize::gbdt_to_bytes(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy_problem(n: usize) -> (Matrix, Vec<f32>) {
        // A piecewise function with an interaction: trees should nail this.
        let mut rng = StdRng::seed_from_u64(4);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen();
            let b: f32 = rng.gen();
            rows.push(vec![a, b]);
            y.push(if a > 0.5 && b > 0.5 {
                1.0
            } else if a > 0.5 {
                0.4
            } else {
                0.1
            });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_piecewise_function() {
        let (x, y) = toy_problem(2000);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 40,
            max_depth: 4,
            max_leaves: 8,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        let err = crate::train::mse(&gb.predict_batch(&x), &y);
        assert!(err < 5e-3, "mse {err}");
        assert_eq!(gb.tree_count(), 40);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x = Matrix::from_rows(&(0..50).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y = vec![3.0f32; 50];
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 5,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        for p in gb.predict_batch(&x) {
            assert!((p - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_features_yield_mean() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 40]);
        let y: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 10,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        let mean = y.iter().sum::<f32>() / 40.0;
        for p in gb.predict_batch(&x) {
            assert!((p - mean).abs() < 1e-3);
        }
    }

    #[test]
    fn respects_min_samples_leaf() {
        // With min_samples_leaf = n, no split is allowed: single leaf.
        let (x, y) = toy_problem(100);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 3,
            min_samples_leaf: 100,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        // Predictions must be constant (root leaves only).
        let preds = gb.predict_batch(&x);
        let first = preds[0];
        assert!(preds.iter().all(|&p| (p - first).abs() < 1e-6));
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = toy_problem(300);
        let cfg = GbdtConfig {
            n_trees: 10,
            colsample: 0.5,
            seed: 11,
            ..GbdtConfig::default()
        };
        let mut a = Gbdt::new(cfg.clone());
        let mut b = Gbdt::new(cfg);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn colsample_still_learns() {
        let (x, y) = toy_problem(1000);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 60,
            colsample: 0.5,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        // With only 2 features, colsample 0.5 gives each tree a single
        // axis; the interaction is still learned across trees, just less
        // sharply.
        let err = crate::train::mse(&gb.predict_batch(&x), &y);
        assert!(err < 5e-2, "mse {err}");
    }

    #[test]
    fn memory_is_kilobytes_not_megabytes() {
        // Paper Section 5.7: GB is the smallest estimator (~4.8 kB there).
        let (x, y) = toy_problem(1000);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 30,
            max_leaves: 8,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        assert!(gb.memory_bytes() < 200_000, "{} bytes", gb.memory_bytes());
        assert_eq!(gb.model_name(), "GB");
    }

    #[test]
    fn binning_boundaries_are_respected() {
        // Feature with exactly two values: split must separate them.
        let x = Matrix::from_rows(
            &(0..100)
                .map(|i| vec![if i < 50 { 0.0 } else { 1.0 }])
                .collect::<Vec<_>>(),
        );
        let y: Vec<f32> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 20,
            min_samples_leaf: 5,
            ..GbdtConfig::default()
        });
        gb.fit(&x, &y);
        let p0 = gb.predict(&[0.0]);
        let p1 = gb.predict(&[1.0]);
        assert!(p0 < 0.1, "p0 = {p0}");
        assert!(p1 > 0.9, "p1 = {p1}");
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let gb = Gbdt::new(GbdtConfig::default());
        let _ = gb.predict_batch(&Matrix::zeros(1, 2));
    }

    #[test]
    fn try_fit_matches_fit_on_clean_data() {
        let (x, y) = toy_problem(300);
        let cfg = GbdtConfig {
            n_trees: 10,
            ..GbdtConfig::default()
        };
        let mut a = Gbdt::new(cfg.clone());
        let mut b = Gbdt::new(cfg);
        a.fit(&x, &y);
        b.try_fit(&x, &y).unwrap();
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn try_fit_aborts_on_divergence_without_poisoning_state() {
        // All-f32::MAX labels overflow the base mean to ∞, so the round-0
        // residuals (and loss) are non-finite.
        let x = Matrix::from_rows(&(0..4).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y = vec![f32::MAX; 4];
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 3,
            min_samples_leaf: 1,
            ..GbdtConfig::default()
        });
        let err = gb.try_fit(&x, &y).unwrap_err();
        assert!(
            matches!(err, crate::train::TrainError::NonFiniteLoss { round: 0 }),
            "{err:?}"
        );
        // The model must be untouched — still untrained.
        assert_eq!(gb.tree_count(), 0);
    }

    #[test]
    fn try_fit_within_interrupts_between_rounds_without_poisoning() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f32>> = (0..64).map(|_| vec![rng.gen::<f32>()]).collect();
        let y: Vec<f32> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);

        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 10,
            ..GbdtConfig::default()
        });
        gb.try_fit(&x, &y).unwrap();
        let before = gbdt_snapshot(&gb, &x);

        // Allow exactly 3 round checks, then pull the plug.
        let mut budget = 3u32;
        let err = gb
            .try_fit_within(&x, &y, &mut || {
                let go = budget > 0;
                budget = budget.saturating_sub(1);
                go
            })
            .unwrap_err();
        assert_eq!(err, crate::train::TrainError::Interrupted { round: 3 });
        assert_eq!(gbdt_snapshot(&gb, &x), before, "model must be unchanged");

        // With an always-true check, training completes normally.
        gb.try_fit_within(&x, &y, &mut || true).unwrap();
        assert_eq!(gb.tree_count(), 10);
    }

    fn gbdt_snapshot(gb: &Gbdt, x: &Matrix) -> (usize, Vec<f32>) {
        (gb.tree_count(), gb.predict_batch(x))
    }

    #[test]
    fn validate_probe_accepts_trained_and_rejects_nan_emitters() {
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<Vec<f32>> = (0..64).map(|_| vec![rng.gen::<f32>()]).collect();
        let y: Vec<f32> = rows.iter().map(|r| r[0] + 1.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut gb = Gbdt::new(GbdtConfig::default());
        gb.try_fit(&x, &y).unwrap();
        gb.validate_probe(&x).unwrap();

        let chaos =
            crate::chaos::ChaosRegressor::new(gb, crate::chaos::RegressorFault::Nan, 1.0, 9);
        assert!(matches!(
            chaos.validate_probe(&x).unwrap_err(),
            crate::train::TrainError::NonFinitePrediction { .. }
        ));
    }

    #[test]
    fn zero_column_matrix_trains_the_constant_model() {
        let x = Matrix::zeros(4, 0);
        let y = [1.0f32, 2.0, 3.0, 6.0];
        let cfg = GbdtConfig {
            n_trees: 3,
            min_samples_leaf: 1,
            ..GbdtConfig::default()
        };
        let mut fitted = Gbdt::new(cfg.clone());
        fitted.fit(&x, &y);
        let mut tried = Gbdt::new(cfg.clone());
        tried.try_fit(&x, &y).unwrap();
        let mut within = Gbdt::new(cfg);
        within.try_fit_within(&x, &y, &mut || true).unwrap();
        for gb in [&fitted, &tried, &within] {
            assert_eq!(gb.tree_count(), 3);
            assert!(gb
                .trees
                .iter()
                .all(|t| matches!(t.nodes[..], [Node::Leaf(_)])));
            for p in gb.predict_batch(&x) {
                assert!((p - 3.0).abs() < 1e-5, "{p}");
            }
        }
    }

    /// A tree builder over `bins`/`residuals` for the histogram tests.
    fn with_builder<R>(
        bins: &Bins,
        residuals: &[f32],
        cuts: &[Vec<f32>],
        features: &[u32],
        f: impl FnOnce(&mut TreeBuilder<'_>) -> R,
    ) -> R {
        let config = GbdtConfig {
            min_samples_leaf: 1,
            ..GbdtConfig::default()
        };
        let pool = ThreadPool::new(1);
        let inv: Vec<f64> = (0..=residuals.len())
            .map(|k| 1.0 / (k as f64 + 1.0))
            .collect();
        let mut builder = TreeBuilder {
            config: &config,
            pool: &pool,
            layout: Layout::new(features, cuts),
            residuals,
            bins,
            inv: &inv,
            spare: Vec::new(),
        };
        f(&mut builder)
    }

    /// Random binned data: `n_bins[f]` bins for feature `f` (1 = constant),
    /// with residuals `k / 2¹⁰` for integer `|k| ≤ 2²⁰` — dyadic, so every
    /// partial sum of at most a few thousand of them is exact in `f64`.
    fn dyadic_problem(n: usize, n_bins: &[usize], seed: u64) -> (Bins, Vec<f32>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = n_bins.len();
        let mut data = vec![0u8; n * cols];
        for row in data.chunks_mut(cols) {
            for (b, &nb) in row.iter_mut().zip(n_bins) {
                *b = rng.gen_range(0..nb as u32) as u8;
            }
        }
        let residuals = (0..n)
            .map(|_| rng.gen_range(0..(1u32 << 21) + 1) as f32 - (1u32 << 20) as f32)
            .map(|k| k / 1024.0)
            .collect();
        let cuts = n_bins
            .iter()
            .map(|&nb| (1..nb).map(|c| c as f32).collect())
            .collect();
        (Bins { cols, data }, residuals, cuts)
    }

    /// Build `rows`' histogram directly.
    fn direct(builder: &mut TreeBuilder<'_>, rows: &[u32]) -> Hist {
        let mut h = builder.hist();
        let side = builder.side(rows, false, false);
        builder.pass((&side, &mut h), None);
        h
    }

    #[test]
    fn derived_histograms_match_direct_builds() {
        // Constant, 2-, 3- and 256-bin features; children from empty to
        // the whole parent.
        let n_bins = [1, 2, 3, 256, 17, 1, 256, 64];
        let features: Vec<u32> = (0..n_bins.len() as u32).rev().collect();
        for seed in 0..6 {
            let n = 300;
            let (bins, residuals, cuts) = dyadic_problem(n, &n_bins, seed);
            with_builder(&bins, &residuals, &cuts, &features, |b| {
                let mut rng = StdRng::seed_from_u64(seed + 100);
                let parent_rows: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.8)).collect();
                for keep in [0.0, 0.1, 0.5, 1.0] {
                    let (small, large): (Vec<u32>, Vec<u32>) =
                        parent_rows.iter().partition(|_| rng.gen_bool(keep));
                    let mut parent = direct(b, &parent_rows);
                    let mut small_hist = b.hist();
                    let s = b.side(&small, false, false);
                    let l = b.side(&large, true, false);
                    b.pass((&s, &mut small_hist), Some((&l, &mut parent)));
                    let want = direct(b, &large);
                    assert_eq!(parent.cnt, want.cnt, "counts, seed {seed} keep {keep}");
                    assert_eq!(parent.sum, want.sum, "sums, seed {seed} keep {keep}");
                    assert_eq!(small_hist.cnt, direct(b, &small).cnt);
                }
            });
        }
    }

    /// Exhaustive reference scan: every threshold of every feature, exact
    /// gain, strict `>` in feature-list order then bin order.
    fn reference_split(b: &TreeBuilder<'_>, h: &Hist, node: &Side<'_>) -> Option<Split> {
        let lambda = b.config.lambda as f64;
        let min_child = b.config.min_samples_leaf;
        let mut best = None;
        for (i, &f) in b.layout.features.iter().enumerate() {
            let (lo, hi) = (b.layout.offsets[i], b.layout.offsets[i + 1]);
            let (mut ls, mut lc) = (0.0f64, 0u32);
            for t in lo..hi.saturating_sub(1) {
                ls += h.sum[t];
                lc += h.cnt[t];
                let rc = node.rows.len() as u32 - lc;
                if (lc as usize) < min_child || (rc as usize) < min_child {
                    continue;
                }
                let rs = node.total - ls;
                let gain =
                    ls * ls / (lc as f64 + lambda) + rs * rs / (rc as f64 + lambda) - node.score;
                if gain > 1e-9 {
                    keep_better(&mut best, (gain, f, (t - lo) as u8));
                }
            }
        }
        best
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan() {
        let n_bins = [3, 64, 2, 256, 1, 3, 9];
        let features: Vec<u32> = vec![6, 0, 3, 1, 4, 2, 5];
        for seed in 0..20 {
            let n = 40 + 20 * seed as usize;
            let (bins, mut residuals, cuts) = dyadic_problem(n, &n_bins, seed);
            if seed % 2 == 1 {
                // Non-dyadic residuals as well.
                residuals.iter_mut().for_each(|r| *r = (*r * 0.37).sin());
            }
            with_builder(&bins, &residuals, &cuts, &features, |b| {
                let rows: Vec<u32> = (0..n as u32).collect();
                let mut h = b.hist();
                let side = b.side(&rows, false, true);
                let (got, _) = b.pass((&side, &mut h), None);
                assert_eq!(got, reference_split(b, &h, &side), "seed {seed}");
            });
        }
    }

    #[test]
    fn pruned_scan_keeps_near_ties() {
        // Feature `k` bins the residual plus noise that shrinks with `k`,
        // so along the feature list each best split edges out the last by
        // a small margin — exactly where a loose pruning bound would skip
        // the winner.
        let (n, nf, nb) = (400usize, 48usize, 32usize);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let residuals: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            let mut data = vec![0u8; n * nf];
            for (r, row) in data.chunks_mut(nf).enumerate() {
                for (k, b) in row.iter_mut().enumerate() {
                    let noise = (rng.gen::<f32>() * 2.0 - 1.0) * (1.0 - k as f32 / nf as f32);
                    let v = (residuals[r] + noise + 2.0) / 4.0;
                    *b = ((v * nb as f32) as usize).min(nb - 1) as u8;
                }
            }
            let bins = Bins { cols: nf, data };
            let cuts: Vec<Vec<f32>> = (0..nf)
                .map(|_| (1..nb).map(|c| c as f32).collect())
                .collect();
            let features: Vec<u32> = (0..nf as u32).collect();
            with_builder(&bins, &residuals, &cuts, &features, |b| {
                let rows: Vec<u32> = (0..n as u32).collect();
                let mut h = b.hist();
                let side = b.side(&rows, false, true);
                let (got, _) = b.pass((&side, &mut h), None);
                assert_eq!(got, reference_split(b, &h, &side), "seed {seed}");
            });
        }
    }

    #[test]
    fn duplicated_column_splits_on_the_lower_index() {
        let (x, y) = toy_problem(400);
        // Columns: a, b, a — the copy of `a` ties with it at every split.
        let rows: Vec<Vec<f32>> = (0..x.rows())
            .map(|r| vec![x.get(r, 0), x.get(r, 1), x.get(r, 0)])
            .collect();
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 10,
            ..GbdtConfig::default()
        });
        gb.fit(&Matrix::from_rows(&rows), &y);
        let used: Vec<u32> = gb
            .trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                Node::Leaf(_) => None,
            })
            .collect();
        assert!(used.contains(&0), "{used:?}");
        assert!(
            !used.contains(&2),
            "the later duplicate won a tie: {used:?}"
        );
    }

    #[test]
    fn threshold_sits_at_the_lowest_bin_before_empty_bins() {
        // Values 0..4 and 10..14 with nothing in between: bins 5..=9 of a
        // cut at every integer are empty, and every threshold from bin 4
        // to bin 9 makes the same split. The earliest one must win.
        let n_bins = [16usize];
        let mut data = Vec::new();
        let mut residuals = Vec::new();
        for v in (0u8..5).chain(10..15) {
            for _ in 0..4 {
                data.push(v);
                residuals.push(if v < 5 { -1.0 } else { 1.0 });
            }
        }
        let bins = Bins { cols: 1, data };
        let cuts: Vec<Vec<f32>> = n_bins
            .iter()
            .map(|&nb| (1..nb).map(|c| c as f32).collect())
            .collect();
        with_builder(&bins, &residuals, &cuts, &[0], |b| {
            let rows: Vec<u32> = (0..residuals.len() as u32).collect();
            let mut h = b.hist();
            let side = b.side(&rows, false, true);
            let (got, _) = b.pass((&side, &mut h), None);
            assert_eq!(got.map(|s| (s.1, s.2)), Some((0, 4)));
        });
    }

    #[test]
    fn try_fit_rejects_non_finite_features() {
        let x = Matrix::from_rows(&[vec![1.0], vec![f32::NAN]]);
        let mut gb = Gbdt::new(GbdtConfig::default());
        let err = gb.try_fit(&x, &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            crate::train::TrainError::NonFiniteFeature { row: 1, col: 0 }
        );
    }
}
