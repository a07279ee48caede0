//! Compiled inference: flattened GBDT forests and SIMD-friendly MLP
//! kernels.
//!
//! # GBDT ([`CompiledGbdt`])
//!
//! The reference [`crate::gbdt`] walk chases a `Vec<Node>` of 20-byte
//! enums per tree — every step re-matches the tag and loads a fresh cache
//! line. The compiled form is the treelite/lleaves layout: **splits only**
//! in one contiguous array of 12-byte [`CompiledNode`]s across the whole
//! forest, leaf values in a parallel `f32` array, and a per-tree root ref.
//! A child ref with [`LEAF_BIT`] set indexes the leaf array; otherwise it
//! indexes the node array. The walk is a branch-predictable
//! `while r & LEAF_BIT == 0` loop with no enum tags.
//!
//! Rows reach the walk as `u16` bin ids from the forest's own
//! [`FeatureBinner`], and each split compares `bins[f] <= threshold_bin`
//! — integer compares, no float loads. The binner is built from the
//! forest's split thresholds, and the quantization contract
//! (`bin(v) <= k ⇔ v <= cuts[k]`, see `qfe_core::featurize::binned`,
//! with `NaN` mapping to `BIN_OVERFLOW`) makes every branch decision —
//! and therefore every prediction bit — identical to the reference
//! compare `x[f] <= t`. An `f32` row is answered by binning it first
//! (`Gbdt::predict_batch`), so this is the one walk every prediction of
//! a compiled forest takes.
//!
//! The walk accumulates per-row leaf sums in tree order, matching the
//! reference accumulation order, so `base + lr * acc` reproduces the
//! reference output exactly. Compilation is total for every forest the
//! trainer or decoder can produce; `CompiledGbdt::compile` returns
//! `None` (callers keep the reference walk) only for shapes outside the
//! `u16`/`u32` index space — >65536 features, >65534 distinct thresholds
//! on one feature, or >2³¹ nodes.
//!
//! # MLP ([`CompiledMlp`])
//!
//! The reference forward pass allocates a fresh matrix per layer and
//! clones the input. The compiled form stores each layer's weights
//! **transposed** (`out × in`, one neuron's weights contiguous) so the
//! per-neuron dot product streams both operands sequentially, and runs
//! rows through caller-owned ping-pong scratch ([`MlpScratch`]) with zero
//! allocation after warm-up. The scalar kernel keeps eight independent
//! accumulator lanes (autovectorizable); on `x86_64` a runtime-detected
//! AVX2+FMA kernel ([`mlp_simd_active`]) takes over. FMA fuses the
//! multiply-add rounding, so SIMD output is *tolerance-pinned* — not
//! bit-identical — against the scalar kernel; the equivalence tests pin
//! that tolerance. Set `QFE_MLP_SIMD=0` to force the scalar kernel.

use qfe_core::featurize::FeatureBinner;

/// High bit of a child ref: set → the remaining 31 bits index the leaf
/// array; clear → they index the split-node array.
pub const LEAF_BIT: u32 = 1 << 31;

/// One flattened split node. 12 bytes: the split threshold is stored
/// only as its index in the feature's cut array.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct CompiledNode {
    /// Feature index (`input_dim <= 65536` is enforced at compile time).
    pub feature: u16,
    /// Index of this split's threshold in the feature's cut array: go
    /// left iff `bins[feature] <= threshold_bin`.
    pub threshold_bin: u16,
    /// Child refs ([`LEAF_BIT`]-encoded).
    pub left: u32,
    pub right: u32,
}

/// A whole forest flattened for inference. Built once at fit/decode time
/// by `CompiledGbdt::compile`; immutable afterwards.
#[derive(Debug, Clone)]
pub struct CompiledGbdt {
    /// All trees' split nodes, contiguous, tree-major.
    nodes: Vec<CompiledNode>,
    /// All trees' leaf values, contiguous, tree-major.
    leaves: Vec<f32>,
    /// Per-tree root ref ([`LEAF_BIT`]-encoded: a single-leaf tree's root
    /// points straight into `leaves`).
    roots: Vec<u32>,
    /// Per-feature cut arrays derived from the forest's own split
    /// thresholds — what [`Self::binner`] hands to featurization.
    binner: FeatureBinner,
    input_dim: usize,
}

impl CompiledGbdt {
    /// Flatten a trained forest. Returns `None` when the forest does not
    /// fit the compiled index space (callers keep the reference
    /// representation — never an error):
    ///
    /// * more than 65536 input features (feature ids are `u16`),
    /// * more than [`qfe_core::featurize::binned::MAX_CUTS_PER_FEATURE`]
    ///   distinct thresholds on one feature,
    /// * more than 2³¹ split nodes or leaves (`u32` refs with the high
    ///   bit reserved),
    /// * an empty forest (nothing to compile),
    /// * a non-finite threshold (cannot enter a cut array).
    pub(crate) fn compile(trees: &[crate::gbdt::Tree], input_dim: usize) -> Option<CompiledGbdt> {
        use crate::gbdt::Node;
        if trees.is_empty() || input_dim == 0 || input_dim > u16::MAX as usize + 1 {
            return None;
        }
        // Per-feature threshold sets. Sorting with total_cmp and deduping
        // by `==` leaves a strictly increasing finite cut array (−0.0 and
        // 0.0 compare equal, so only one survives — and `v <= -0.0` agrees
        // with `v <= 0.0` for every v, so either representative preserves
        // branch decisions).
        let mut per_feature: Vec<Vec<f32>> = vec![Vec::new(); input_dim];
        for tree in trees {
            for node in &tree.nodes {
                if let Node::Split {
                    feature, threshold, ..
                } = node
                {
                    per_feature.get_mut(*feature as usize)?.push(*threshold);
                }
            }
        }
        for cuts in &mut per_feature {
            cuts.sort_by(f32::total_cmp);
            cuts.dedup();
        }
        let binner = FeatureBinner::from_cuts(&per_feature)?;

        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        let mut roots = Vec::with_capacity(trees.len());
        for tree in trees {
            // Pass 1: give every enum node its compiled ref (splits get
            // node slots, leaves get leaf slots).
            let mut refs = vec![0u32; tree.nodes.len()];
            for (i, node) in tree.nodes.iter().enumerate() {
                match node {
                    Node::Leaf(v) => {
                        if leaves.len() >= LEAF_BIT as usize {
                            return None;
                        }
                        refs[i] = LEAF_BIT | leaves.len() as u32;
                        leaves.push(*v);
                    }
                    Node::Split {
                        feature, threshold, ..
                    } => {
                        if nodes.len() >= LEAF_BIT as usize {
                            return None;
                        }
                        refs[i] = nodes.len() as u32;
                        nodes.push(CompiledNode {
                            feature: u16::try_from(*feature).ok()?,
                            threshold_bin: binner.cut_index(*feature as usize, *threshold)?,
                            left: 0,
                            right: 0,
                        });
                    }
                }
            }
            // Pass 2: wire children through the ref table.
            for (i, node) in tree.nodes.iter().enumerate() {
                if let Node::Split { left, right, .. } = node {
                    let slot = refs[i] as usize;
                    let l = *refs.get(*left as usize)?;
                    let r = *refs.get(*right as usize)?;
                    let n = nodes.get_mut(slot)?;
                    n.left = l;
                    n.right = r;
                }
            }
            roots.push(*refs.first()?);
        }
        Some(CompiledGbdt {
            nodes,
            leaves,
            roots,
            binner,
            input_dim,
        })
    }

    /// The per-feature cut arrays the forest's splits induce — hand this
    /// to `Featurizer::featurize_binned_into` / `BinnedFeatureMatrix` to
    /// produce rows for [`Self::accumulate_binned`].
    pub fn binner(&self) -> &FeatureBinner {
        &self.binner
    }

    /// Walk one tree from `root` over a binned row. Integer compares
    /// only; branch decisions match the reference walk by the
    /// quantization contract.
    #[inline]
    fn walk_binned(&self, root: u32, row: &[u16]) -> f32 {
        let mut r = root;
        while r & LEAF_BIT == 0 {
            let n = &self.nodes[r as usize];
            r = if row[n.feature as usize] <= n.threshold_bin {
                n.left
            } else {
                n.right
            };
        }
        self.leaves[(r & !LEAF_BIT) as usize]
    }

    /// Add every tree's contribution for rows `base_row ..
    /// base_row + acc.len()` of a row-major `u16` bin arena (`input_dim`
    /// ids per row) into `acc`, trees-outer / rows-inner (one tree's
    /// nodes stay hot while the batch streams through).
    ///
    /// Rows advance eight abreast (lleaves-style): the tree walk is a
    /// chain of dependent loads, so eight independent cursors hide most
    /// of each other's latency. Per row the trees still accumulate in
    /// tree order — the reference order — so the sums stay bit-identical.
    pub fn accumulate_binned(&self, bins: &[u16], base_row: usize, acc: &mut [f32]) {
        const LANES: usize = 8;
        let cols = self.input_dim;
        let row_of = |j: usize| &bins[(base_row + j) * cols..(base_row + j + 1) * cols];
        for &root in &self.roots {
            let mut blocks = acc.chunks_exact_mut(LANES);
            let mut j = 0;
            for block in &mut blocks {
                let rows: [&[u16]; LANES] = std::array::from_fn(|k| row_of(j + k));
                let mut r = [root; LANES];
                loop {
                    let mut descended = false;
                    for (c, row) in r.iter_mut().zip(&rows) {
                        if *c & LEAF_BIT == 0 {
                            let n = &self.nodes[*c as usize];
                            *c = if row[n.feature as usize] <= n.threshold_bin {
                                n.left
                            } else {
                                n.right
                            };
                            descended = true;
                        }
                    }
                    if !descended {
                        break;
                    }
                }
                for (a, c) in block.iter_mut().zip(&r) {
                    *a += self.leaves[(c & !LEAF_BIT) as usize];
                }
                j += LANES;
            }
            for (k, a) in blocks.into_remainder().iter_mut().enumerate() {
                *a += self.walk_binned(root, row_of(j + k));
            }
        }
    }

    /// True in-memory footprint of the compiled arrays (what
    /// `Gbdt::memory_bytes` adds to the retained reference trees).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<CompiledNode>()
            + self.leaves.len() * 4
            + self.roots.len() * 4
            + self.binner.memory_bytes()
    }

    /// Deterministic byte image of the compiled layout (little-endian
    /// indices, f32 bit patterns). This is fingerprint material for the
    /// 1-vs-4-thread determinism gate: compiled construction must produce
    /// identical bytes at any thread count. Not a durable format — the
    /// snapshot format serializes the reference trees and recompiles on
    /// decode.
    ///
    /// `trees` are the reference trees this forest was compiled from:
    /// their split thresholds, in tree-major node order (the order
    /// [`Self::compile`] numbered the split nodes), follow the nodes.
    pub(crate) fn fingerprint_bytes(&self, trees: &[crate::gbdt::Tree]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nodes.len() * 12 + self.leaves.len() * 4 + 64);
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for n in &self.nodes {
            out.extend_from_slice(&n.feature.to_le_bytes());
            out.extend_from_slice(&n.threshold_bin.to_le_bytes());
            out.extend_from_slice(&n.left.to_le_bytes());
            out.extend_from_slice(&n.right.to_le_bytes());
        }
        for node in trees.iter().flat_map(|t| &t.nodes) {
            if let crate::gbdt::Node::Split { threshold, .. } = node {
                out.extend_from_slice(&threshold.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.leaves.len() as u64).to_le_bytes());
        for &v in &self.leaves {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for &r in &self.roots {
            out.extend_from_slice(&r.to_le_bytes());
        }
        self.binner.fingerprint_bytes(&mut out);
        out
    }
}

/// One MLP layer with weights transposed for compiled inference:
/// `w_t[o * input .. (o + 1) * input]` is neuron `o`'s weight row, so the
/// per-neuron dot product reads both operands contiguously.
#[derive(Debug, Clone)]
struct CompiledLayer {
    w_t: Vec<f32>,
    bias: Vec<f32>,
    input: usize,
    output: usize,
}

/// Ping-pong activation buffers for [`CompiledMlp::forward_row`]. Own one
/// per thread (or thread-local) and every forward pass after warm-up is
/// allocation-free.
#[derive(Debug, Default)]
pub struct MlpScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl MlpScratch {
    /// Empty scratch; buffers grow to the network's widest layer on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        MlpScratch::default()
    }
}

/// A feed-forward network compiled for inference (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledMlp {
    layers: Vec<CompiledLayer>,
    input_dim: usize,
}

impl CompiledMlp {
    /// Transpose every layer's weights into the contiguous-per-neuron
    /// layout. Infallible: any trained network compiles.
    pub(crate) fn compile(layers: &[crate::mlp::Linear]) -> CompiledMlp {
        let compiled = layers
            .iter()
            .map(|l| {
                let (input, output) = (l.w.rows(), l.w.cols());
                let mut w_t = vec![0.0f32; input * output];
                for i in 0..input {
                    for o in 0..output {
                        w_t[o * input + i] = l.w.get(i, o);
                    }
                }
                CompiledLayer {
                    w_t,
                    bias: l.b.clone(),
                    input,
                    output,
                }
            })
            .collect::<Vec<_>>();
        let input_dim = compiled.first().map_or(0, |l| l.input);
        CompiledMlp {
            layers: compiled,
            input_dim,
        }
    }

    /// Feature width the network was trained on.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Forward one row, dispatching to the FMA kernel when the host
    /// supports it (see [`mlp_simd_active`]).
    #[inline]
    pub fn forward_row(&self, row: &[f32], scratch: &mut MlpScratch) -> f32 {
        self.forward_row_with(row, scratch, mlp_simd_active())
    }

    /// Forward one row with an explicit kernel choice. `use_simd` is only
    /// honored on hosts where the FMA kernel exists and is safe to run —
    /// this is the hook the scalar-vs-SIMD tolerance tests use to drive
    /// both kernels on the same host.
    pub fn forward_row_with(&self, row: &[f32], scratch: &mut MlpScratch, use_simd: bool) -> f32 {
        debug_assert_eq!(row.len(), self.input_dim);
        let MlpScratch { a, b } = scratch;
        a.clear();
        a.extend_from_slice(row);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            b.resize(layer.output, 0.0);
            layer_forward(
                &layer.w_t,
                &layer.bias,
                layer.input,
                &a[..layer.input],
                &mut b[..layer.output],
                use_simd,
            );
            if i < last {
                for v in b.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            std::mem::swap(a, b);
        }
        a.first().copied().unwrap_or(0.0)
    }

    /// Footprint of the transposed weight copies.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.w_t.len() + l.bias.len()) * 4)
            .sum()
    }
}

/// `out[o] = bias[o] + x · w_t[o]` for every neuron of one layer.
#[inline]
fn layer_forward(w_t: &[f32], bias: &[f32], input: usize, x: &[f32], out: &mut [f32], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd && fma_available() {
        // Safety: `fma_available` runtime-checked avx2+fma on this host.
        unsafe { x86::layer_forward_fma(w_t, bias, input, x, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    for (o, (out_v, &b)) in out.iter_mut().zip(bias).enumerate() {
        *out_v = b + dot_scalar(x, &w_t[o * input..(o + 1) * input]);
    }
}

/// Eight-lane scalar dot product. The fixed lane structure gives the
/// compiler eight independent accumulators to vectorize/unroll, and makes
/// the summation order deterministic (lane tree, then remainder in
/// order) — the scalar reference the SIMD tolerance test compares against.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for (l, (&x, &y)) in lanes.iter_mut().zip(xs.iter().zip(ys)) {
            *l += x * y;
        }
    }
    let s0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let s1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    let mut s = s0 + s1;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// Whether the MLP FMA kernel is in use on this host: `x86_64` with
/// runtime-detected AVX2+FMA, overridable with `QFE_MLP_SIMD=0` (force
/// scalar) / `QFE_MLP_SIMD=1` (request SIMD — still requires hardware
/// support). Resolved once per process.
pub fn mlp_simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if let Ok(v) = std::env::var("QFE_MLP_SIMD") {
                if v == "0" || v.eq_ignore_ascii_case("off") {
                    return false;
                }
            }
            fma_available()
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Raw hardware capability (no env override): can the FMA kernel run?
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Raw hardware capability: no x86_64, no FMA kernel.
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// FMA layer kernel: per-neuron 8-wide fused multiply-add.
    ///
    /// # Safety
    /// The caller must have verified `avx2` and `fma` via runtime
    /// detection ([`super::fma_available`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn layer_forward_fma(
        w_t: &[f32],
        bias: &[f32],
        input: usize,
        x: &[f32],
        out: &mut [f32],
    ) {
        for (o, (out_v, &b)) in out.iter_mut().zip(bias).enumerate() {
            *out_v = b + dot_fma(x, &w_t[o * input..(o + 1) * input]);
        }
    }

    /// # Safety
    /// Requires `avx2` + `fma` (enforced by the caller's runtime check).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            acc = _mm256_fmadd_ps(va, vb, acc);
        }
        // Horizontal sum of the 8 lanes.
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let quad = _mm_add_ps(lo, hi);
        let dual = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let single = _mm_add_ss(dual, _mm_shuffle_ps(dual, dual, 0b01));
        let mut s = _mm_cvtss_f32(single);
        for i in chunks * 8..n {
            s += a.get_unchecked(i) * b.get_unchecked(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_node_is_twelve_bytes() {
        // The whole point of the layout: 12-byte nodes (vs the 20-byte
        // reference enum), leaves out-of-line.
        assert_eq!(std::mem::size_of::<CompiledNode>(), 12);
    }

    #[test]
    fn scalar_dot_handles_all_lengths() {
        for n in [0usize, 1, 7, 8, 9, 16, 37] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 1.0).collect();
            let b: Vec<f32> = (0..n).map(|i| 0.25 * i as f32 + 0.1).collect();
            let expect: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64) * (y as f64))
                .sum();
            let got = dot_scalar(&a, &b) as f64;
            assert!((got - expect).abs() < 1e-3, "n={n}: {got} vs {expect}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_dot_matches_scalar_within_tolerance() {
        if !fma_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        for n in [1usize, 8, 13, 64, 338] {
            let a: Vec<f32> = (0..n)
                .map(|i| ((i * 37 % 100) as f32 - 50.0) / 25.0)
                .collect();
            let b: Vec<f32> = (0..n)
                .map(|i| ((i * 61 % 100) as f32 - 50.0) / 50.0)
                .collect();
            let mut scalar = vec![0.0f32; 1];
            let mut simd = vec![0.0f32; 1];
            layer_forward(&b, &[0.0], n, &a, &mut scalar, false);
            layer_forward(&b, &[0.0], n, &a, &mut simd, true);
            let denom = scalar[0].abs().max(1.0);
            assert!(
                (scalar[0] - simd[0]).abs() / denom < 1e-5,
                "n={n}: scalar {} vs fma {}",
                scalar[0],
                simd[0]
            );
        }
    }
}
