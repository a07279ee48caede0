//! CI accuracy gate: trains the GB model on the synthetic forest
//! workload at smoke scale for each of the four QFTs, asserts the median
//! q-error stays within the committed per-QFT bound, and writes the
//! machine-readable record to `ACCURACY.json` (override with
//! `QFE_ACCURACY_JSON`).
//!
//! The record is **timing-free by design**: everything in it is a pure
//! function of the seeded training run, so CI can run this bin twice —
//! once with `QFE_THREADS=1`, once with `QFE_THREADS=4` — and `diff` the
//! two outputs byte-for-byte. Any difference is a violation of the
//! determinism contract in `qfe_core::parallel` (fixed chunk boundaries,
//! chunk-order reduction). To make that check bite on the model itself
//! and not just its q-error quantiles, the record embeds FNV-1a
//! fingerprints of a GBDT's serialized bytes *and* of the compiled
//! inference form built from it (flattened node arrays, leaf table, and
//! quantization cuts), so compiled-model construction is under the same
//! determinism gate as training.
//!
//! Per-phase wall times (environment build = generate + label, featurize,
//! train, evaluate) go to stderr only, never into the record.
//!
//! Exits non-zero if any QFT's median q-error exceeds its bound.

use qfe_bench::envs::ForestEnv;
use qfe_bench::trainers::{make_featurizer, q_errors, train_single_table, ModelKind, QftKind};
use qfe_bench::Scale;
use qfe_core::featurize::{AttributeSpace, FeatureMatrix};
use qfe_core::metrics::ErrorSummary;
use qfe_core::TableId;
use qfe_ml::{gbdt_to_bytes, Gbdt, GbdtConfig, Matrix, Regressor};
use std::time::{Duration, Instant};

/// Committed per-QFT median q-error bounds at smoke scale (GB model,
/// fixed seeds). Derived from the committed `ACCURACY.json` medians with
/// ≈50% headroom so legitimate refactors don't trip the gate while a
/// real accuracy regression (bad featurization, broken reduction order)
/// still does.
const BOUNDS: [(QftKind, f64); 4] = [
    (QftKind::Simple, 5.0),
    (QftKind::Range, 4.0),
    (QftKind::Conjunctive, 3.0),
    (QftKind::Complex, 2.7),
];

/// FNV-1a 64-bit over `bytes`, rendered as fixed-width hex.
fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Run `f`, adding its wall time to `total`.
fn timed<R>(total: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

fn main() {
    let scale = Scale::smoke();
    let (mut env_time, mut featurize_time, mut train_time, mut eval_time) = Default::default();
    eprintln!("building forest environment at scale '{}'…", scale.label);
    let env = timed(&mut env_time, || ForestEnv::build(&scale));

    // A raw GBDT training run whose serialized bytes go into the record:
    // the strongest possible determinism witness (every split threshold,
    // leaf value, and tree shape must match bit-for-bit across thread
    // counts for the fingerprint to agree).
    let space = AttributeSpace::for_table(env.db.catalog(), TableId(0));
    let featurizer = make_featurizer(QftKind::Conjunctive, space, scale.buckets, true);
    let fm = timed(&mut featurize_time, || {
        FeatureMatrix::build(featurizer.as_ref(), &env.conj_train.queries)
    });
    let (rows, cols, data, _errors) = fm.into_raw();
    let x = Matrix::from_vec(rows, cols, data);
    let y: Vec<f32> = env
        .conj_train
        .cardinalities
        .iter()
        .map(|&c| (1.0 + c).ln() as f32)
        .collect();
    let mut gb = Gbdt::new(GbdtConfig {
        n_trees: scale.gbdt_trees,
        min_samples_leaf: 3,
        max_leaves: 64,
        seed: 0,
        ..GbdtConfig::default()
    });
    timed(&mut train_time, || gb.fit(&x, &y));
    let gb_fp = fingerprint(&gbdt_to_bytes(&gb));
    eprintln!("gbdt fingerprint: {gb_fp}");
    // Same witness for the compiled-inference layer: the flattened node
    // arrays, leaf table, and quantization cuts compiled from that model
    // must also be identical across thread counts, or the binned serving
    // path would silently depend on the training pool.
    let compiled_fp = fingerprint(
        &gb.compiled_fingerprint_bytes()
            .expect("trained GB compiles"),
    );
    eprintln!("compiled fingerprint: {compiled_fp}");

    let mut rows_json = Vec::new();
    let mut failed = false;
    println!(
        "accuracy gate: GB on forest at scale '{}' (median q-error ≤ bound)",
        scale.label
    );
    for (qft, bound) in BOUNDS {
        let (train, test) = match qft {
            QftKind::Complex => (&env.mixed_train, &env.mixed_test),
            _ => (&env.conj_train, &env.conj_test),
        };
        // Fitting an estimator featurizes its training set too; that
        // featurization is counted as training here.
        let est = timed(&mut train_time, || {
            train_single_table(
                env.db.catalog(),
                TableId(0),
                train,
                qft,
                ModelKind::Gb,
                &scale,
                true,
            )
        });
        let errors = timed(&mut eval_time, || q_errors(&est, test));
        let summary = ErrorSummary::from_errors(&errors);
        let ok = summary.median <= bound;
        failed |= !ok;
        println!(
            "  GB + {:<7} median {:>8.3}   p95 {:>9.3}   p99 {:>9.3}   bound {:>5.1}   {}",
            qft.label(),
            summary.median,
            summary.p95,
            summary.p99,
            bound,
            if ok { "ok" } else { "FAIL" }
        );
        // Full-precision Display (shortest round-trip) so any bit-level
        // difference between thread counts shows up in the byte diff.
        rows_json.push(format!(
            "\"{}\":{{\"median\":{},\"p95\":{},\"p99\":{},\"max\":{},\"bound\":{}}}",
            qft.label(),
            summary.median,
            summary.p95,
            summary.p99,
            summary.max,
            bound
        ));
    }

    eprintln!(
        "phase wall times: environment (generate + label) {:.3} s | featurize {:.3} s | \
         train {:.3} s | evaluate {:.3} s",
        env_time.as_secs_f64(),
        featurize_time.as_secs_f64(),
        train_time.as_secs_f64(),
        eval_time.as_secs_f64()
    );

    let json = format!(
        "{{\"workload\":\"forest\",\"scale\":\"{}\",\"model\":\"GB\",\"gbdt_fingerprint\":\"{}\",\"compiled_fingerprint\":\"{}\",\"qfts\":{{{}}}}}\n",
        scale.label,
        gb_fp,
        compiled_fp,
        rows_json.join(",")
    );
    let path = std::env::var("QFE_ACCURACY_JSON").unwrap_or_else(|_| "ACCURACY.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    if failed {
        eprintln!("ACCURACY REGRESSION: at least one QFT exceeded its committed bound");
        std::process::exit(1);
    }
}
