//! Equivalence gates for the compiled inference layer.
//!
//! The contract being enforced (see DESIGN.md §16):
//!
//! * The flattened GBDT's quantized `u16` walk — over caller-binned
//!   arenas and behind `predict_batch`, which bins `f32` rows itself — is
//!   **bit-identical** to the reference enum-tree walk, including at the
//!   exact split thresholds and their neighboring representable floats,
//!   where a `<` vs `<=` slip would show first, and on `NaN`, `±0.0` and
//!   `±∞`.
//! * The compiled MLP kernels (scalar and FMA) are **tolerance-pinned**
//!   against the reference matmul forward pass: f32 re-association
//!   changes the bits, so the gate is relative error, not equality.
//! * The compiled forest must be *smaller* than the enum trees it
//!   shadows — it exists to be the cache-resident form.

use proptest::prelude::*;
use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::matrix::Matrix;
use qfe_ml::mlp::{Mlp, MlpConfig};
use qfe_ml::train::Regressor;
use qfe_ml::{fma_available, MlpScratch};

/// Deterministic synthetic workload: `dims` features of interleaved
/// periodic ramps, a nonlinear label.
fn workload(rows: usize, dims: usize) -> (Matrix, Vec<f32>) {
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|i| {
            (0..dims)
                .map(|d| ((i * (d + 3) + d) % (13 + d)) as f32 * 0.37 - 1.5)
                .collect()
        })
        .collect();
    let y: Vec<f32> = data
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(d, v)| v * (d as f32 + 0.5))
                .sum()
        })
        .collect();
    (Matrix::from_rows(&data), y)
}

fn trained_gbdt(rows: usize, dims: usize, trees: usize, seed: u64) -> (Gbdt, Matrix) {
    let (x, y) = workload(rows, dims);
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees: trees,
        max_depth: 5,
        min_samples_leaf: 2,
        seed,
        ..GbdtConfig::default()
    });
    gb.try_fit(&x, &y).expect("fit");
    assert!(gb.is_compiled(), "trained forest must compile");
    (gb, x)
}

/// Quantize a feature matrix through the model's own binner.
fn binned(gb: &Gbdt, x: &Matrix) -> Vec<u16> {
    let binner = gb.feature_binner().expect("compiled model has a binner");
    let mut bins = vec![0u16; x.rows() * x.cols()];
    for r in 0..x.rows() {
        binner.bin_row(x.row(r), &mut bins[r * x.cols()..(r + 1) * x.cols()]);
    }
    bins
}

#[test]
fn compiled_gbdt_is_bit_identical_on_training_data() {
    let (gb, x) = trained_gbdt(400, 4, 40, 7);
    let reference = gb.predict_batch_reference(&x);
    let compiled = gb.predict_batch(&x);
    assert_eq!(reference, compiled, "compiled f32 walk diverged");
    let via_bins = gb
        .predict_batch_binned(x.rows(), &binned(&gb, &x))
        .expect("binned path available");
    assert_eq!(reference, via_bins, "binned walk diverged");
}

#[test]
fn boundary_values_bin_and_predict_identically() {
    // Probe every split threshold of every feature, plus its adjacent
    // representable floats: the exact values where the reference `v <=
    // t` compare and the quantized `bin(v) <= bin(t)` compare could
    // disagree if either side rounded the boundary differently.
    let (gb, _x) = trained_gbdt(300, 3, 30, 11);
    let binner = gb.feature_binner().expect("binner");
    let dims = binner.features();
    let mut probes: Vec<Vec<f32>> = Vec::new();
    for f in 0..dims {
        for &cut in binner.cuts(f) {
            for v in [
                f32::from_bits(cut.to_bits().wrapping_sub(1)),
                cut,
                f32::from_bits(cut.to_bits().wrapping_add(1)),
            ] {
                let mut row = vec![0.25f32; dims];
                row[f] = v;
                probes.push(row);
            }
        }
    }
    assert!(!probes.is_empty(), "forest with no splits probes nothing");
    let px = Matrix::from_rows(&probes);
    let reference = gb.predict_batch_reference(&px);
    assert_eq!(reference, gb.predict_batch(&px), "f32 walk at boundaries");
    assert_eq!(
        reference,
        gb.predict_batch_binned(px.rows(), &binned(&gb, &px))
            .expect("binned"),
        "binned walk at boundaries"
    );
}

/// `predict_batch` quantizes its `f32` rows and takes the binned walk; it
/// must match the reference walk bit for bit on the values where a float
/// compare and a bin compare could part ways — `NaN` (never `<=`, bins to
/// `BIN_OVERFLOW`), `±0.0` (equal under `<=`, one survives dedup as a
/// cut), `±∞` and exact cuts — alone and mixed in one row, and across the
/// pool's row chunks.
#[test]
fn predict_batch_is_bit_identical_on_special_values() {
    let (gb, _x) = trained_gbdt(300, 3, 30, 13);
    let binner = gb.feature_binner().expect("binner");
    let dims = binner.features();
    let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
    let mut probes: Vec<Vec<f32>> = specials.iter().map(|&v| vec![v; dims]).collect();
    for f in 0..dims {
        for &v in specials.iter().chain(binner.cuts(f)) {
            for fill in [0.25, f32::NAN, -0.0, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row = vec![fill; dims];
                row[f] = v;
                probes.push(row);
            }
        }
    }
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let px = Matrix::from_rows(&probes);
    let reference = bits(gb.predict_batch_reference(&px));
    assert_eq!(reference, bits(gb.predict_batch(&px)), "special values");
    for (r, &want) in reference.iter().enumerate() {
        assert_eq!(gb.predict(px.row(r)).to_bits(), want, "singleton row {r}");
    }
    // Enough rows for several parallel row chunks: each chunk bins its
    // own slice of the matrix.
    let many: Vec<Vec<f32>> = probes.iter().cycle().take(5000).cloned().collect();
    let mx = Matrix::from_rows(&many);
    assert_eq!(
        bits(gb.predict_batch_reference(&mx)),
        bits(gb.predict_batch(&mx)),
        "special values across row chunks"
    );
}

#[test]
fn compiled_forest_is_smaller_than_reference_trees() {
    let (gb, _x) = trained_gbdt(500, 4, 60, 3);
    let compiled = gb.compiled().expect("compiled").memory_bytes();
    let reference = gb.reference_memory_bytes();
    assert!(
        compiled < reference,
        "flattened layout ({compiled} B) must undercut the enum trees ({reference} B)"
    );
    // And the reported total accounts for both live representations.
    assert!(gb.memory_bytes() >= compiled + reference);
}

#[test]
fn binned_path_rejects_malformed_arenas() {
    let (gb, x) = trained_gbdt(100, 3, 10, 5);
    let bins = binned(&gb, &x);
    // Wrong row count for the arena length: refuse, don't misread.
    assert!(gb.predict_batch_binned(x.rows() + 1, &bins).is_none());
    assert!(gb.predict_batch_binned(x.rows(), &bins[1..]).is_none());
    // Empty batch is a supported edge, not a refusal.
    assert_eq!(gb.predict_batch_binned(0, &[]), Some(Vec::new()));
}

#[test]
fn compiled_mlp_matches_reference_within_tolerance() {
    let (x, y) = workload(256, 6);
    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![32, 16],
        epochs: 8,
        ..MlpConfig::default()
    });
    mlp.try_fit(&x, &y).expect("fit");
    assert!(mlp.is_compiled());
    let reference = mlp.predict_batch_reference(&x);
    let compiled = mlp.predict_batch(&x);
    for (i, (&r, &c)) in reference.iter().zip(&compiled).enumerate() {
        let tol = 1e-4f32 * r.abs().max(1.0);
        assert!(
            (r - c).abs() <= tol,
            "row {i}: reference {r} vs compiled {c}"
        );
    }
}

#[test]
fn mlp_scalar_and_simd_kernels_agree() {
    if !fma_available() {
        eprintln!("skipping: no AVX2+FMA on this host");
        return;
    }
    let (x, y) = workload(128, 5);
    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![24, 24],
        epochs: 6,
        ..MlpConfig::default()
    });
    mlp.try_fit(&x, &y).expect("fit");
    let compiled = mlp.compiled().expect("compiled");
    let (mut s_scalar, mut s_simd) = (MlpScratch::new(), MlpScratch::new());
    for r in 0..x.rows() {
        let scalar = compiled.forward_row_with(x.row(r), &mut s_scalar, false);
        let simd = compiled.forward_row_with(x.row(r), &mut s_simd, true);
        let tol = 1e-4f32 * scalar.abs().max(1.0);
        assert!(
            (scalar - simd).abs() <= tol,
            "row {r}: scalar {scalar} vs simd {simd}"
        );
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Random small forests over random inputs: the compiled walk (both
    /// traversal modes) never drifts a single bit from the enum walk.
    #[test]
    fn compiled_gbdt_bit_identity_holds_under_random_inputs(
        seed in 0u64..1_000,
        trees in 3usize..20,
        dims in 1usize..5,
        probe in proptest::collection::vec(-4.0f32..4.0, 1..24),
    ) {
        let (gb, _x) = trained_gbdt(120, dims, trees, seed);
        let rows: Vec<Vec<f32>> = probe
            .chunks(dims)
            .filter(|c| c.len() == dims)
            .map(<[f32]>::to_vec)
            .collect();
        prop_assume!(!rows.is_empty());
        let px = Matrix::from_rows(&rows);
        let reference = gb.predict_batch_reference(&px);
        prop_assert_eq!(&reference, &gb.predict_batch(&px));
        let via_bins = gb
            .predict_batch_binned(px.rows(), &binned(&gb, &px))
            .expect("binned path");
        prop_assert_eq!(&reference, &via_bins);
    }
}
