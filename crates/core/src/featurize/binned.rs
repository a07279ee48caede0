//! Feature quantization for compiled inference.
//!
//! A [`FeatureBinner`] holds one sorted cut array per feature and maps
//! `f32` feature values to `u16` bin ids. The contract that makes the
//! compiled GBDT path *bit-identical* to the reference tree walk:
//!
//! > `bin(v) <= k` **iff** `v <= cuts[k]` for every finite `v` and every
//! > cut index `k`, where `bin(v)` counts the cuts strictly less than `v`.
//!
//! A split node that stores the *index* of its threshold in the feature's
//! cut array therefore takes exactly the same branch under the integer
//! compare `bin(v) <= threshold_bin` as the reference walk does under the
//! float compare `v <= threshold` — including for values that land
//! exactly **on** a cut (both paths go left). Non-finite values keep the
//! IEEE behaviour of the float compare: `+∞` and `NaN` never satisfy
//! `v <= t`, so they map past every cut; `-∞` satisfies it for every cut,
//! so it maps to bin 0.
//!
//! [`BinnedFeatureMatrix`] is the `u16` sibling of
//! [`FeatureMatrix`](super::FeatureMatrix): one contiguous row-major
//! arena of bin ids with per-row error slots, built through
//! [`super::Featurizer::featurize_binned_into`] so featurization stays
//! zero-alloc and binning happens once, in place.

use crate::error::QfeError;
use crate::query::Query;

use super::Featurizer;

/// Bin id for values past every cut (`NaN`, `+∞`, and any value greater
/// than the last cut on a feature with 65534 cuts). `u16::MAX` is never a
/// valid threshold index, so a compiled split can never send it left.
pub const BIN_OVERFLOW: u16 = u16::MAX;

/// Largest usable number of cuts per feature: bin ids span
/// `0..=cuts.len()`, and [`BIN_OVERFLOW`] must stay out of that range.
pub const MAX_CUTS_PER_FEATURE: usize = u16::MAX as usize - 1;

/// Per-feature sorted cut arrays mapping `f32` features to `u16` bins.
///
/// Stored flattened (one `Vec<f32>` plus offsets) so a binner with
/// hundreds of features is two allocations, not hundreds.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBinner {
    /// `offsets[f]..offsets[f + 1]` indexes feature `f`'s cuts in `cuts`.
    offsets: Vec<u32>,
    /// All cut values, per-feature ascending and deduplicated.
    cuts: Vec<f32>,
    /// Features with at least one cut, as `(feature, start, end)` into
    /// `cuts`. GBDT splits concentrate on few features, so most features
    /// bin everything to 0 and the `NaN` fix-up path only inspects these.
    active: Vec<(u32, u32, u32)>,
    /// Dense compare operands for the vectorized [`Self::bin_row`] pass:
    /// feature `f`'s first two cuts in `cut1[f]` / `cut2[f]`, padded
    /// with `+∞` — `u16::from(cut1[f] < v) + u16::from(cut2[f] < v)` is
    /// then the correct bin for every feature with at most two cuts
    /// (cutless features compare `v < +∞` twice and stay 0) in one
    /// branch-free, autovectorizable sweep.
    cut1: Vec<f32>,
    cut2: Vec<f32>,
    /// Features with three or more cuts (same layout as `active`) — the
    /// only ones the dense sweep cannot answer.
    multi: Vec<(u32, u32, u32)>,
    /// `bin(1.0)` per feature: the bin row of the all-ones vector. The
    /// conjunctive encoders default every unpredicated attribute to 1.0,
    /// so their fused featurize-and-bin path starts from this template
    /// with one memcpy instead of re-binning the constant majority of the
    /// row — see [`Self::bin_ones_into`].
    ones: Vec<u16>,
}

impl FeatureBinner {
    /// Build from per-feature cut lists.
    ///
    /// Each list must be sorted ascending, deduplicated, finite, and hold
    /// at most [`MAX_CUTS_PER_FEATURE`] cuts; returns `None` otherwise
    /// (callers treat an unbinnable model as "keep the reference path",
    /// never as an error).
    pub fn from_cuts(per_feature: &[Vec<f32>]) -> Option<Self> {
        let mut offsets = Vec::with_capacity(per_feature.len() + 1);
        let mut cuts = Vec::with_capacity(per_feature.iter().map(Vec::len).sum());
        let mut at = 0u32;
        offsets.push(at);
        for fc in per_feature {
            if fc.len() > MAX_CUTS_PER_FEATURE {
                return None;
            }
            if fc.iter().any(|c| !c.is_finite()) {
                return None;
            }
            if fc.windows(2).any(|w| w[0] >= w[1]) {
                return None; // unsorted or duplicated (all finite by now)
            }
            at = at.checked_add(fc.len() as u32)?;
            cuts.extend_from_slice(fc);
            offsets.push(at);
        }
        let active: Vec<(u32, u32, u32)> = offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] != w[1])
            .map(|(f, w)| (f as u32, w[0], w[1]))
            .collect();
        let nth_or_inf = |w: &[u32], i: u32| {
            if w[1] - w[0] > i && w[1] - w[0] <= 2 {
                cuts[(w[0] + i) as usize]
            } else {
                f32::INFINITY
            }
        };
        let cut1 = offsets.windows(2).map(|w| nth_or_inf(w, 0)).collect();
        let cut2 = offsets.windows(2).map(|w| nth_or_inf(w, 1)).collect();
        let multi = active
            .iter()
            .copied()
            .filter(|&(_, s, e)| e - s > 2)
            .collect();
        let ones = offsets
            .windows(2)
            .map(|w| bin_in(&cuts[w[0] as usize..w[1] as usize], 1.0))
            .collect();
        Some(FeatureBinner {
            offsets,
            cuts,
            active,
            cut1,
            cut2,
            multi,
            ones,
        })
    }

    /// Number of features this binner covers (== the featurizer `dim()`
    /// it was derived for).
    pub fn features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted cut array of feature `f`.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }

    /// Index of `threshold` in feature `f`'s cut array, if present
    /// (exact float equality — the compiled-forest builder looks up
    /// thresholds it inserted itself).
    pub fn cut_index(&self, f: usize, threshold: f32) -> Option<u16> {
        let cuts = self.cuts(f);
        let i = cuts.partition_point(|&c| c < threshold);
        (cuts.get(i).copied() == Some(threshold)).then_some(i as u16)
    }

    /// Bin one value of feature `f`: the number of cuts strictly less
    /// than `v` (see the module docs for why this makes integer compares
    /// agree with the reference float compares, cut-exact values
    /// included). `NaN` maps to [`BIN_OVERFLOW`] — except on features
    /// with no cuts at all, where every value (`NaN` included) shares the
    /// single bin 0: such a feature backs no split, so no compiled
    /// compare ever reads the id, and the constant lets [`Self::bin_row`]
    /// skip cutless features entirely.
    #[inline]
    pub fn bin_value(&self, f: usize, v: f32) -> u16 {
        bin_in(self.cuts(f), v)
    }

    /// Bin a full feature row into `out`.
    ///
    /// Three passes, ordered hot to cold: one dense branch-free sweep
    /// answers every cutless and single-cut feature (`cut1` docs), a
    /// short loop patches the multi-cut features, and — only when the
    /// row actually contains a `NaN` — a fix-up re-bins the active
    /// features so `NaN` maps to [`BIN_OVERFLOW`] wherever a split could
    /// read it.
    ///
    /// # Panics
    /// Panics if `row` and `out` are shorter than [`features`](Self::features).
    #[inline]
    pub fn bin_row(&self, row: &[f32], out: &mut [u16]) {
        let n = self.features();
        let (row, out) = (&row[..n], &mut out[..n]);
        for (w, ((&v, &c1), &c2)) in out
            .iter_mut()
            .zip(row.iter().zip(&self.cut1).zip(&self.cut2))
        {
            *w = u16::from(c1 < v) + u16::from(c2 < v);
        }
        for &(f, s, e) in &self.multi {
            out[f as usize] = bin_in(&self.cuts[s as usize..e as usize], row[f as usize]);
        }
        if row.iter().map(|v| u32::from(v.is_nan())).sum::<u32>() != 0 {
            for &(f, s, e) in &self.active {
                out[f as usize] = bin_in(&self.cuts[s as usize..e as usize], row[f as usize]);
            }
        }
    }

    /// Bin a contiguous span of features starting at feature `f0` —
    /// identical bits to [`Self::bin_row`] restricted to
    /// `f0..f0 + seg.len()`, using the same dense sweep. Lets fused
    /// featurize-and-bin paths re-bin just the segments they touched.
    ///
    /// # Panics
    /// Panics if the span exceeds [`features`](Self::features) or `out`
    /// is shorter than `seg`.
    #[inline]
    pub fn bin_span(&self, f0: usize, seg: &[f32], out: &mut [u16]) {
        let n = seg.len();
        let out = &mut out[..n];
        let within = |f: u32| (f as usize) >= f0 && (f as usize) < f0 + n;
        for (w, ((&v, &c1), &c2)) in out.iter_mut().zip(
            seg.iter()
                .zip(&self.cut1[f0..f0 + n])
                .zip(&self.cut2[f0..f0 + n]),
        ) {
            *w = u16::from(c1 < v) + u16::from(c2 < v);
        }
        for &(f, s, e) in &self.multi {
            if within(f) {
                out[f as usize - f0] =
                    bin_in(&self.cuts[s as usize..e as usize], seg[f as usize - f0]);
            }
        }
        if seg.iter().map(|v| u32::from(v.is_nan())).sum::<u32>() != 0 {
            for &(f, s, e) in &self.active {
                if within(f) {
                    out[f as usize - f0] =
                        bin_in(&self.cuts[s as usize..e as usize], seg[f as usize - f0]);
                }
            }
        }
    }

    /// Write the bin row of the all-ones vector — identical to
    /// [`Self::bin_row`] over `[1.0; features()]`, but a straight copy of
    /// the precomputed template (see the `ones` field).
    ///
    /// # Panics
    /// Panics if `out` is shorter than [`features`](Self::features).
    #[inline]
    pub fn bin_ones_into(&self, out: &mut [u16]) {
        out[..self.ones.len()].copy_from_slice(&self.ones);
    }

    /// Bin a whole row-major `f32` arena (`features()` values per row)
    /// into a parallel `u16` arena: [`Self::bin_row`] streamed down the
    /// batch.
    ///
    /// # Panics
    /// Panics if `data` and `out` are not equal-length multiples of
    /// [`features`](Self::features).
    pub fn bin_matrix(&self, data: &[f32], out: &mut [u16]) {
        let n = self.features();
        assert_eq!(data.len(), out.len());
        assert_eq!(data.len() % n.max(1), 0);
        for (r_out, r_in) in out.chunks_exact_mut(n).zip(data.chunks_exact(n)) {
            self.bin_row(r_in, r_out);
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.cuts.len() * 4
            + (self.cut1.len() + self.cut2.len()) * 4
            + (self.active.len() + self.multi.len()) * std::mem::size_of::<(u32, u32, u32)>()
            + self.ones.len() * 2
    }

    /// Stable byte serialization of the cut layout (little-endian offsets
    /// then cut bit patterns) — determinism-fingerprint material, not a
    /// durable format.
    pub fn fingerprint_bytes(&self, out: &mut Vec<u8>) {
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &c in &self.cuts {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
}

/// Cuts per feature up to which binning counts linearly (branch-free,
/// autovectorizable) instead of binary-searching. GBDT split thresholds
/// spread over hundreds of features leave most cut arrays this short, so
/// the branchy `partition_point` is reserved for genuinely long arrays.
const LINEAR_SEARCH_CUTS: usize = 64;

/// Count the cuts strictly below `v` — the shared kernel behind
/// [`FeatureBinner::bin_value`] and [`FeatureBinner::bin_row`].
#[inline]
fn bin_in(cuts: &[f32], v: f32) -> u16 {
    if cuts.is_empty() {
        // No splits on this feature: one bin covers the whole line, NaN
        // included (see `bin_value`'s docs).
        return 0;
    }
    if v.is_nan() {
        return BIN_OVERFLOW;
    }
    if cuts.len() <= LINEAR_SEARCH_CUTS {
        // Sums at most `LINEAR_SEARCH_CUTS` ones — no u16 overflow.
        cuts.iter().map(|&c| u16::from(c < v)).sum()
    } else {
        cuts.partition_point(|&c| c < v) as u16
    }
}

/// A batch of featurized-and-quantized queries: one contiguous row-major
/// `u16` arena with per-row error slots — the integer sibling of
/// [`FeatureMatrix`](super::FeatureMatrix).
#[derive(Debug)]
pub struct BinnedFeatureMatrix {
    rows: usize,
    cols: usize,
    bins: Vec<u16>,
    errors: Vec<Option<QfeError>>,
}

impl BinnedFeatureMatrix {
    /// Featurize and quantize every query into a fresh arena, through
    /// one reused `f32` scratch row.
    ///
    /// Rows the featurizer rejects are zero-filled with their error
    /// recorded, exactly like the `f32` arena. The binner must cover the
    /// featurizer's width; a mismatch is a caller bug, and
    /// [`Featurizer::featurize_binned_into`] poisons every row with
    /// [`QfeError::ShapeMismatch`] rather than panicking.
    pub fn build<F: Featurizer + ?Sized>(
        featurizer: &F,
        binner: &FeatureBinner,
        queries: &[Query],
    ) -> Self {
        let (rows, cols) = (queries.len(), featurizer.dim());
        let mut bins = vec![0u16; rows * cols];
        let mut scratch = vec![0.0f32; cols];
        let errors = queries
            .iter()
            .zip(0..)
            .map(|(query, r)| {
                let row = &mut bins[r * cols..(r + 1) * cols];
                let binned = featurizer.featurize_binned_into(query, binner, &mut scratch, row);
                if binned.is_err() {
                    // All-zero error rows (bin 0, not `bin(0.0)` — they
                    // differ on features with negative cuts).
                    row.fill(0);
                }
                binned.err()
            })
            .collect();
        BinnedFeatureMatrix {
            rows,
            cols,
            bins,
            errors,
        }
    }

    /// Number of rows (== number of queries passed to [`build`](Self::build)).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimension (== the featurizer's `dim()`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `r`-th bin row. Zero-filled if the row errored.
    pub fn row(&self, r: usize) -> &[u16] {
        &self.bins[r * self.cols..(r + 1) * self.cols]
    }

    /// The error recorded for row `r`, if featurization rejected it.
    pub fn row_error(&self, r: usize) -> Option<&QfeError> {
        self.errors[r].as_ref()
    }

    /// Number of rows that featurized successfully.
    pub fn ok_rows(&self) -> usize {
        self.errors.iter().filter(|e| e.is_none()).count()
    }

    /// The whole arena as one row-major slice.
    pub fn as_slice(&self) -> &[u16] {
        &self.bins
    }

    /// Decompose into `(rows, cols, arena, per-row errors)` without copying.
    pub fn into_raw(self) -> (usize, usize, Vec<u16>, Vec<Option<QfeError>>) {
        (self.rows, self.cols, self.bins, self.errors)
    }

    /// Approximate in-memory footprint in bytes — half the `f32` arena's
    /// data cost, which is the point.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.bins.len() * std::mem::size_of::<u16>()
            + self.errors.len() * std::mem::size_of::<Option<QfeError>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
    use crate::query::ColumnRef;
    use crate::schema::{ColumnId, TableId};

    fn binner2() -> FeatureBinner {
        FeatureBinner::from_cuts(&[vec![0.25, 0.5, 0.75], vec![10.0]]).unwrap()
    }

    #[test]
    fn bin_value_counts_cuts_below() {
        let b = binner2();
        assert_eq!(b.features(), 2);
        assert_eq!(b.bin_value(0, 0.0), 0);
        assert_eq!(b.bin_value(0, 0.25), 0, "value on a cut stays left of it");
        assert_eq!(b.bin_value(0, 0.3), 1);
        assert_eq!(b.bin_value(0, 0.5), 1);
        assert_eq!(b.bin_value(0, 0.7500001), 3);
        assert_eq!(b.bin_value(1, 9.0), 0);
        assert_eq!(b.bin_value(1, 11.0), 1);
    }

    #[test]
    fn bin_agrees_with_float_compare_on_every_cut() {
        // The exact contract the compiled forest relies on: for every cut
        // index k and every probe v, `bin(v) <= k  ⇔  v <= cuts[k]`.
        let b = binner2();
        for f in 0..b.features() {
            let cuts = b.cuts(f).to_vec();
            let mut probes = vec![f32::NEG_INFINITY, f32::INFINITY, -1.0, 0.0, 100.0];
            for &c in &cuts {
                // Adjacent representable floats, MSRV-friendly (f32::next_up
                // is post-1.82): positive cuts step via the bit pattern.
                let below = f32::from_bits(c.to_bits() - 1);
                let above = f32::from_bits(c.to_bits() + 1);
                probes.extend([c, c - f32::EPSILON, c + f32::EPSILON, below, above]);
            }
            for (k, &cut) in cuts.iter().enumerate() {
                for &v in &probes {
                    assert_eq!(
                        b.bin_value(f, v) <= k as u16,
                        v <= cut,
                        "feature {f}, cut {k} ({cut}), probe {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_maps_to_overflow_bin() {
        let b = binner2();
        assert_eq!(b.bin_value(0, f32::NAN), BIN_OVERFLOW);
        // Like `NaN <= t`, the overflow bin never satisfies `bin <= k`.
        assert!(BIN_OVERFLOW > MAX_CUTS_PER_FEATURE as u16);
    }

    #[test]
    fn ones_template_matches_bin_row_of_all_ones() {
        // Includes a >2-cut feature (dense sweep can't answer it) and a
        // cutless one.
        let b =
            FeatureBinner::from_cuts(&[vec![0.25, 0.5, 0.75], vec![10.0], vec![], vec![0.5, 2.0]])
                .unwrap();
        let mut expect = vec![0u16; 4];
        b.bin_row(&[1.0; 4], &mut expect);
        let mut got = vec![9u16; 4];
        b.bin_ones_into(&mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn bin_span_matches_bin_row_restriction() {
        let b = FeatureBinner::from_cuts(&[
            vec![0.25, 0.5, 0.75], // multi-cut
            vec![10.0],
            vec![],
            vec![-1.0, 2.0],
            vec![0.0],
        ])
        .unwrap();
        let rows: &[[f32; 5]] = &[
            [0.6, 11.0, 3.0, -0.5, 0.0],
            [f32::NAN, 9.0, f32::NAN, 2.0, 0.1],
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        for row in rows {
            let mut full = vec![0u16; 5];
            b.bin_row(row, &mut full);
            for f0 in 0..5 {
                for f1 in f0..=5 {
                    let mut seg = vec![7u16; f1 - f0];
                    b.bin_span(f0, &row[f0..f1], &mut seg);
                    assert_eq!(seg, &full[f0..f1], "span {f0}..{f1} of {row:?}");
                }
            }
        }
    }

    #[test]
    fn cut_index_finds_exact_thresholds_only() {
        let b = binner2();
        assert_eq!(b.cut_index(0, 0.5), Some(1));
        assert_eq!(b.cut_index(0, 0.51), None);
        assert_eq!(b.cut_index(1, 10.0), Some(0));
    }

    #[test]
    fn from_cuts_rejects_malformed_inputs() {
        assert!(FeatureBinner::from_cuts(&[vec![1.0, 1.0]]).is_none(), "dup");
        assert!(
            FeatureBinner::from_cuts(&[vec![2.0, 1.0]]).is_none(),
            "unsorted"
        );
        assert!(
            FeatureBinner::from_cuts(&[vec![f32::NAN]]).is_none(),
            "NaN cut"
        );
        assert!(
            FeatureBinner::from_cuts(&[vec![f32::INFINITY]]).is_none(),
            "infinite cut"
        );
        assert!(FeatureBinner::from_cuts(&[vec![]]).is_some(), "empty ok");
    }

    /// Featurizer emitting `[n_preds, n_preds + 0.4]`, rejecting odd
    /// predicate counts — mirrors the `FeatureMatrix` test double.
    struct Picky;

    impl Featurizer for Picky {
        fn name(&self) -> &'static str {
            "picky"
        }

        fn dim(&self) -> usize {
            2
        }

        fn featurize_into(&self, query: &Query, out: &mut [f32]) -> Result<(), QfeError> {
            if query.predicates.len() % 2 == 1 {
                return Err(QfeError::UnsupportedQuery("odd".into()));
            }
            let n = query.predicates.len() as f32;
            out.copy_from_slice(&[n, n + 0.4]);
            Ok(())
        }
    }

    fn q(n_preds: usize) -> Query {
        let preds = (0..n_preds)
            .map(|i| {
                CompoundPredicate::conjunction(
                    ColumnRef::new(TableId(0), ColumnId(i)),
                    vec![SimplePredicate::new(CmpOp::Eq, 1)],
                )
            })
            .collect();
        Query::single_table(TableId(0), preds)
    }

    #[test]
    fn binned_arena_matches_scalar_binning() {
        let f = Picky;
        let b = FeatureBinner::from_cuts(&[vec![1.0, 3.0], vec![2.4]]).unwrap();
        let queries = [q(0), q(2), q(4)];
        let m = BinnedFeatureMatrix::build(&f, &b, &queries);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.ok_rows(), 3);
        for (i, query) in queries.iter().enumerate() {
            let fv = f.featurize(query).unwrap();
            let mut expect = vec![0u16; 2];
            b.bin_row(fv.as_slice(), &mut expect);
            assert_eq!(m.row(i), &expect[..], "row {i}");
        }
    }

    #[test]
    fn failed_rows_are_zeroed_and_carry_their_error() {
        let b = FeatureBinner::from_cuts(&[vec![1.0], vec![1.0]]).unwrap();
        let m = BinnedFeatureMatrix::build(&Picky, &b, &[q(2), q(1)]);
        assert_eq!(m.ok_rows(), 1);
        assert!(m.row_error(0).is_none());
        assert!(matches!(
            m.row_error(1),
            Some(QfeError::UnsupportedQuery(_))
        ));
        assert_eq!(m.row(1), &[0, 0]);
    }

    #[test]
    fn width_mismatch_poisons_every_row_with_a_typed_error() {
        let b = FeatureBinner::from_cuts(&[vec![1.0]]).unwrap(); // 1 feature, dim 2
        let m = BinnedFeatureMatrix::build(&Picky, &b, &[q(0), q(2)]);
        assert_eq!(m.ok_rows(), 0);
        for r in 0..2 {
            assert!(matches!(
                m.row_error(r),
                Some(QfeError::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    fn empty_batch_and_raw_decomposition() {
        let b = binner2();
        let m = BinnedFeatureMatrix::build(&Picky, &b, &[]);
        assert_eq!((m.rows(), m.cols()), (0, 2));
        let (rows, cols, bins, errors) = m.into_raw();
        assert_eq!((rows, cols), (0, 2));
        assert!(bins.is_empty() && errors.is_empty());
    }

    #[test]
    fn fingerprint_bytes_are_stable_and_value_sensitive() {
        let mut a = Vec::new();
        binner2().fingerprint_bytes(&mut a);
        let mut b = Vec::new();
        binner2().fingerprint_bytes(&mut b);
        assert_eq!(a, b);
        let mut c = Vec::new();
        FeatureBinner::from_cuts(&[vec![0.25, 0.5, 0.75], vec![11.0]])
            .unwrap()
            .fingerprint_bytes(&mut c);
        assert_ne!(a, c);
    }
}
