//! Property tests of the featurization fast paths behind compiled
//! inference. Each fast path replaces a general composition and claims
//! **bit-identical** output; these tests pin that claim over arbitrary
//! workloads:
//!
//! * the conjunctive and complex QFTs' fused `featurize_binned_into`
//!   overrides (template copy + span re-bin) against the default
//!   featurize-then-`bin_row` composition,
//! * the by-reference distinct-column encode against the merging
//!   `group_by_column` path (driven by comparing a repeated-attribute
//!   query with its premerged equivalent),
//! * `Region::selectivity` against the `RegionSet` machinery it
//!   short-circuits, and `RegionSet::measure`'s in-place merge against
//!   the sorting implementation it replaced,
//! * the complex QFT's borrowed-leaf encoder against the cloning encoder
//!   it replaced, and the borrowed DNF expansion behind `to_dnf` against
//!   the cloning expansion it replaced; both old implementations are kept
//!   below as oracles.

use std::collections::HashSet;

use proptest::prelude::*;
use qfe_core::featurize::{
    AttributeSpace, FeatureBinner, Featurizer, LimitedDisjunctionEncoding,
    UniversalConjunctionEncoding,
};
use qfe_core::interval::{Region, RegionSet};
use qfe_core::predicate::MAX_DNF_TERMS;
use qfe_core::{
    AttributeDomain, CmpOp, ColumnId, ColumnRef, CompoundPredicate, PredicateExpr, QfeError, Query,
    SimplePredicate, TableId, Value,
};

fn col(i: usize) -> ColumnRef {
    ColumnRef::new(TableId(0), ColumnId(i))
}

/// Three integral attributes of very different widths (exact-bucket mode
/// kicks in on the third when `max_buckets` exceeds its cardinality).
fn space() -> AttributeSpace {
    AttributeSpace::new(vec![
        (col(0), AttributeDomain::integers(-20, 90)),
        (col(1), AttributeDomain::integers(0, 999)),
        (col(2), AttributeDomain::integers(1, 4)),
    ])
}

fn any_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn any_leaf() -> impl Strategy<Value = PredicateExpr> {
    (any_op(), -30i64..1010).prop_map(|(op, v)| PredicateExpr::leaf(op, v))
}

/// Conjunctive expression shapes the encoder accepts: leaves, `And`
/// nests, single-child `Or` wrappers, and the unsatisfiable `Or([])`.
fn conjunctive_expr() -> impl Strategy<Value = PredicateExpr> {
    any_leaf().prop_recursive(3, 12, 4, |inner| {
        prop_oneof![
            4 => prop::collection::vec(inner.clone(), 1..4).prop_map(PredicateExpr::And),
            1 => inner.prop_map(|e| PredicateExpr::Or(vec![e])),
            1 => Just(PredicateExpr::Or(vec![])),
        ]
    })
}

/// A query over `space()`, possibly predicating the same attribute more
/// than once (repeats drive the `group_by_column` slow path).
fn any_query() -> impl Strategy<Value = Query> {
    prop::collection::vec((0usize..3, conjunctive_expr()), 0..5).prop_map(|preds| {
        Query::single_table(
            TableId(0),
            preds
                .into_iter()
                .map(|(c, expr)| CompoundPredicate {
                    column: col(c),
                    expr,
                })
                .collect(),
        )
    })
}

/// A deterministic binner of width `dim`: the seed picks each feature's
/// cut count and values cheaply.
fn seeded_binner(dim: usize, seed: u64) -> FeatureBinner {
    let mut per = vec![Vec::new(); dim];
    let mut s = seed;
    for cuts in per.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = (s >> 60) as usize % 4;
        for k in 0..n {
            cuts.push(((s >> (8 * k)) & 0xFF) as f32 / 64.0 - 1.5);
        }
        cuts.sort_by(f32::total_cmp);
        cuts.dedup();
    }
    FeatureBinner::from_cuts(&per).expect("sorted finite cuts")
}

type Bins = Result<Vec<u16>, QfeError>;

/// Bins from `featurize_binned_into` and from the default composition
/// (full `f32` row, then `bin_row`); errors are part of the result.
fn fused_and_composed_bins(
    enc: &dyn Featurizer,
    query: &Query,
    binner: &FeatureBinner,
) -> (Bins, Bins) {
    let dim = enc.dim();
    let mut scratch = vec![0.0f32; dim];
    let mut fused = vec![0u16; dim];
    let fused = enc
        .featurize_binned_into(query, binner, &mut scratch, &mut fused)
        .map(|()| fused);
    let mut row = vec![0.0f32; dim];
    let composed = enc.featurize_into(query, &mut row).map(|()| {
        let mut bins = vec![0u16; dim];
        binner.bin_row(&row, &mut bins);
        bins
    });
    (fused, composed)
}

/// Leaves that collide often (half come from a pool of four, so DNF
/// deduplication has work); literals include `5` next to `5.0`, both
/// zeros, NaN and a raw string the encoders must reject.
fn mixed_leaf() -> impl Strategy<Value = PredicateExpr> {
    let hot = (prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne)], 1i64..3)
        .prop_map(|(op, v)| PredicateExpr::leaf(op, v));
    let value = prop_oneof![
        6 => (-3i64..4).prop_map(Value::Int),
        3 => (-30i64..1010).prop_map(Value::Int),
        1 => Just(Value::Float(5.0)),
        1 => Just(Value::Int(5)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(0.0)),
        1 => Just(Value::Float(f64::NAN)),
        1 => (-30.0f64..1010.0).prop_map(Value::Float),
        1 => Just(Value::Str("raw".into())),
    ];
    let any = (any_op(), value)
        .prop_map(|(op, value)| PredicateExpr::Leaf(SimplePredicate { op, value }));
    prop_oneof![1 => hot, 1 => any]
}

/// `RegionSet::measure` before its in-place merge: a second vector for the
/// merged intervals and a sorted, deduplicated vector of candidate points.
fn old_region_set_measure(regions: &[Region], domain: &AttributeDomain) -> f64 {
    let mut intervals: Vec<(f64, f64)> = regions
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| (r.lo, r.hi))
        .collect();
    if intervals.is_empty() {
        return 0.0;
    }
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    let glue = if domain.integral { 1.0 } else { 0.0 };
    for (lo, hi) in intervals {
        match merged.last_mut() {
            Some(last) if lo <= last.1 + glue => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    let mut total: f64 = merged
        .iter()
        .map(|&(lo, hi)| {
            Region {
                lo,
                hi,
                nots: Vec::new(),
            }
            .measure(domain)
        })
        .sum();
    if domain.integral {
        let mut candidates: Vec<f64> = regions
            .iter()
            .flat_map(|r| r.nots.iter().copied())
            .filter(|&v| merged.iter().any(|&(lo, hi)| v >= lo && v <= hi))
            .collect();
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        for v in candidates {
            if !regions.iter().any(|r| r.contains(v)) {
                total -= 1.0;
            }
        }
    }
    total.max(0.0)
}

/// Regions as `Region::from_conjunct` builds them, and raw ones whose
/// excluded points may repeat, fall outside `[lo, hi]` or be `-0.0`.
/// Bounds and points come from small pools around zero, so regions
/// touch, overlap and share excluded points.
fn any_region() -> impl Strategy<Value = Region> {
    let bound = |lo: i64, hi: i64| {
        prop_oneof![
            6 => (lo..hi).prop_map(|v| v as f64),
            1 => lo as f64..hi as f64,
        ]
    };
    let point = prop_oneof![
        6 => (-2i64..3).prop_map(|v| v as f64),
        1 => Just(-0.0),
        1 => -2.0f64..2.0,
    ];
    let raw = (
        bound(-6, 2),
        bound(-2, 7),
        prop::collection::vec(point, 0..4),
    )
        .prop_map(|(lo, hi, nots)| Region { lo, hi, nots });
    let folded = prop::collection::vec((any_op(), -4i64..5), 0..4).prop_map(|preds| {
        let preds: Vec<SimplePredicate> = preds
            .into_iter()
            .map(|(op, v)| SimplePredicate::new(op, v))
            .collect();
        Region::from_conjunct(&preds, &AttributeDomain::integers(-8, 8))
    });
    prop_oneof![2 => raw, 1 => folded]
}

/// `k` ANDed binary disjunctions: `2^k` terms, over the cap from k = 13.
fn and_of_or_pairs(k: i64) -> PredicateExpr {
    PredicateExpr::And(
        (0..k)
            .map(|v| {
                PredicateExpr::Or(vec![
                    PredicateExpr::leaf(CmpOp::Eq, v),
                    PredicateExpr::leaf(CmpOp::Ne, v),
                ])
            })
            .collect(),
    )
}

/// Arbitrary AND/OR nests (empty `And`/`Or` included), well below the cap.
fn nested_expr() -> impl Strategy<Value = PredicateExpr> {
    mixed_leaf().prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            3 => prop::collection::vec(inner.clone(), 0..4).prop_map(PredicateExpr::And),
            3 => prop::collection::vec(inner.clone(), 0..4).prop_map(PredicateExpr::Or),
            // `TRUE OR e`: ANDing these makes products repeat terms.
            2 => inner.prop_map(|e| PredicateExpr::Or(vec![PredicateExpr::And(vec![]), e])),
        ]
    })
}

/// Nests plus inputs at and over the DNF cap.
fn mixed_expr() -> impl Strategy<Value = PredicateExpr> {
    prop_oneof![
        12 => nested_expr(),
        1 => (11i64..14).prop_map(and_of_or_pairs),
    ]
}

/// A mixed query over `space()`, possibly repeating an attribute and
/// occasionally naming one outside the space.
fn mixed_query() -> impl Strategy<Value = Query> {
    let column = prop_oneof![12 => 0usize..3, 1 => Just(7usize)];
    prop::collection::vec((column, mixed_expr()), 0..5).prop_map(|preds| {
        Query::single_table(
            TableId(0),
            preds
                .into_iter()
                .map(|(c, expr)| CompoundPredicate {
                    column: col(c),
                    expr,
                })
                .collect(),
        )
    })
}

/// The complex encoder before its borrowed-leaf rewrite: merge repeated
/// attributes by cloning, expand each attribute through `to_dnf`, encode
/// every disjunct with Algorithm 1 (here a one-attribute conjunctive
/// QFT), merge by entry-wise max and take the union selectivity from a
/// `RegionSet`.
fn complex_oracle(
    space: &AttributeSpace,
    max_buckets: usize,
    attr_sel: bool,
    ternary: bool,
    query: &Query,
) -> Result<Vec<f32>, QfeError> {
    let mut offsets = vec![0];
    for pos in 0..space.len() {
        let width = space.domain(pos).bucket_count(max_buckets) + usize::from(attr_sel);
        offsets.push(offsets[pos] + width);
    }
    let mut out = vec![1.0f32; offsets[space.len()]];
    let mut grouped: Vec<(ColumnRef, Vec<PredicateExpr>)> = Vec::new();
    for cp in &query.predicates {
        match grouped.iter_mut().find(|(c, _)| *c == cp.column) {
            Some((_, exprs)) => exprs.push(cp.expr.clone()),
            None => grouped.push((cp.column, vec![cp.expr.clone()])),
        }
    }
    for (column, mut exprs) in grouped {
        let expr = if exprs.len() == 1 {
            exprs.pop().expect("one expression")
        } else {
            PredicateExpr::And(exprs)
        };
        let Some(pos) = space.position(column) else {
            return Err(QfeError::InvalidQuery(format!(
                "predicate on attribute outside the featurizer's space: table {} column {}",
                column.table.0, column.column.0
            )));
        };
        let domain = space.domain(pos);
        let n_a = domain.bucket_count(max_buckets);
        let algorithm1 = UniversalConjunctionEncoding::new(
            AttributeSpace::new(vec![(col(0), domain.clone())]),
            max_buckets,
        )
        .expect("max_buckets >= 1")
        .with_attr_sel(false)
        .with_ternary(ternary);
        let slot = &mut out[offsets[pos]..offsets[pos] + n_a];
        slot.fill(0.0);
        let mut regions = Vec::new();
        for conjunct in expr.to_dnf()? {
            let v = algorithm1.featurize(&Query::single_table(
                TableId(0),
                vec![CompoundPredicate::conjunction(col(0), conjunct.clone())],
            ))?;
            for (m, e) in slot.iter_mut().zip(&v.0) {
                *m = m.max(*e);
            }
            regions.push(Region::from_conjunct(&conjunct, domain));
        }
        if attr_sel {
            out[offsets[pos] + n_a] = RegionSet::new(regions).selectivity(domain) as f32;
        }
    }
    Ok(out)
}

/// `to_dnf` before the borrowed expansion: cloned leaves, a `HashSet` of
/// byte keys per `Or` and per `And` step, and the `And` arm checked
/// against `1 << 20` after building each product.
fn old_to_dnf(expr: &PredicateExpr) -> Result<Vec<Vec<SimplePredicate>>, QfeError> {
    fn cap_error() -> QfeError {
        QfeError::UnsupportedQuery(format!(
            "DNF expansion of compound predicate exceeds {MAX_DNF_TERMS} terms"
        ))
    }
    fn dedup_terms(terms: &mut Vec<Vec<SimplePredicate>>) {
        let mut seen = HashSet::with_capacity(terms.len());
        terms.retain(|t| seen.insert(term_key(t)));
    }
    fn inner(expr: &PredicateExpr) -> Result<Vec<Vec<SimplePredicate>>, QfeError> {
        match expr {
            PredicateExpr::Leaf(p) => Ok(vec![vec![p.clone()]]),
            PredicateExpr::Or(children) => {
                let mut terms: Vec<Vec<SimplePredicate>> = Vec::new();
                let mut seen = HashSet::new();
                for child in children {
                    for term in inner(child)? {
                        if seen.insert(term_key(&term)) {
                            terms.push(term);
                        }
                    }
                    if terms.len() > MAX_DNF_TERMS {
                        return Err(cap_error());
                    }
                }
                Ok(terms)
            }
            PredicateExpr::And(children) => {
                let mut acc: Vec<Vec<SimplePredicate>> = vec![vec![]];
                for child in children {
                    let child_dnf = inner(child)?;
                    let mut next = Vec::with_capacity(acc.len() * child_dnf.len());
                    for left in &acc {
                        for right in &child_dnf {
                            let mut term = left.clone();
                            term.extend(right.iter().cloned());
                            next.push(term);
                        }
                    }
                    dedup_terms(&mut next);
                    if next.len() > 1 << 20 {
                        return Err(QfeError::UnsupportedQuery(
                            "DNF expansion blow-up".to_owned(),
                        ));
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
    }
    let mut dnf = inner(expr)?;
    dedup_terms(&mut dnf);
    if dnf.len() > MAX_DNF_TERMS {
        return Err(cap_error());
    }
    Ok(dnf)
}

/// Order-preserving identity key of a DNF term: operator, literal variant
/// and literal bits per leaf.
fn term_key(term: &[SimplePredicate]) -> Vec<u8> {
    let mut out = Vec::with_capacity(term.len() * 10);
    for p in term {
        out.push(p.op as u8);
        match &p.value {
            Value::Int(i) => {
                out.push(b'i');
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(b'f');
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(b's');
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused featurize-and-bin override must produce exactly the bins
    /// of the default composition (full `f32` row, then `bin_row`) — and
    /// agree on which queries error.
    #[test]
    fn fused_binned_path_matches_encode_then_bin(
        query in any_query(),
        buckets in 2usize..24,
        attr_sel in prop_oneof![Just(true), Just(false)],
        seed in 0u64..u64::MAX,
    ) {
        let enc = UniversalConjunctionEncoding::new(space(), buckets)
            .unwrap()
            .with_attr_sel(attr_sel);
        let binner = seeded_binner(enc.dim(), seed);
        let (fused, reference) = fused_and_composed_bins(&enc, &query, &binner);
        prop_assert_eq!(fused, reference);
    }

    /// A query repeating an attribute (merged through `group_by_column`)
    /// must featurize identically to the premerged single-compound form
    /// (taken by the by-reference fast path).
    #[test]
    fn repeated_attribute_matches_premerged_conjunction(
        exprs in prop::collection::vec(conjunctive_expr(), 2..4),
        attr in 0usize..3,
        buckets in 2usize..24,
    ) {
        let enc = UniversalConjunctionEncoding::new(space(), buckets).unwrap();
        let repeated = Query::single_table(
            TableId(0),
            exprs
                .iter()
                .map(|e| CompoundPredicate { column: col(attr), expr: e.clone() })
                .collect(),
        );
        let premerged = Query::single_table(
            TableId(0),
            vec![CompoundPredicate {
                column: col(attr),
                expr: PredicateExpr::And(exprs.clone()),
            }],
        );
        match (enc.featurize(&repeated), enc.featurize(&premerged)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "paths disagree on acceptance: {a:?} vs {b:?}"),
        }
    }

    /// `Region::selectivity` claims bit-identity with
    /// `RegionSet::new(vec![region]).selectivity(domain)`; pin it over
    /// arbitrary conjuncts on both integral and real domains.
    #[test]
    fn region_selectivity_matches_region_set(
        preds in prop::collection::vec((any_op(), -40i64..140), 0..6),
        integral in prop_oneof![Just(true), Just(false)],
        lo in -20i64..20,
        span in 0i64..120,
    ) {
        let domain = if integral {
            AttributeDomain::integers(lo, lo + span)
        } else {
            AttributeDomain::reals(lo as f64, (lo + span) as f64)
        };
        let preds: Vec<SimplePredicate> = preds
            .into_iter()
            .map(|(op, v)| SimplePredicate::new(op, v))
            .collect();
        let region = Region::from_conjunct(&preds, &domain);
        let fast = region.selectivity(&domain);
        let slow = RegionSet::new(vec![region.clone()]).selectivity(&domain);
        prop_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "region {:?}: fast {} vs set {}",
            region,
            fast,
            slow
        );
    }

    /// The complex QFT's borrowed-leaf encoder must produce exactly the
    /// features of the cloning encoder it replaced, and the same error.
    #[test]
    fn complex_encoder_matches_the_cloning_oracle(
        query in mixed_query(),
        buckets in 1usize..24,
        attr_sel in prop_oneof![Just(true), Just(false)],
        ternary in prop_oneof![Just(true), Just(false)],
    ) {
        let enc = LimitedDisjunctionEncoding::new(space(), buckets)
            .unwrap()
            .with_attr_sel(attr_sel)
            .with_ternary(ternary);
        let mut row = vec![f32::NAN; enc.dim()];
        let got = enc.featurize_into(&query, &mut row).map(|()| bits(&row));
        let expected = complex_oracle(enc.space(), buckets, attr_sel, ternary, &query)
            .map(|row| bits(&row));
        prop_assert_eq!(got, expected);
    }

    /// The complex QFT's fused featurize-and-bin path must produce exactly
    /// the bins of featurize-then-`bin_row`, and the same error.
    #[test]
    fn complex_fused_binned_path_matches_encode_then_bin(
        query in mixed_query(),
        buckets in 2usize..24,
        attr_sel in prop_oneof![Just(true), Just(false)],
        seed in 0u64..u64::MAX,
    ) {
        let enc = LimitedDisjunctionEncoding::new(space(), buckets)
            .unwrap()
            .with_attr_sel(attr_sel);
        let binner = seeded_binner(enc.dim(), seed);
        let (fused, reference) = fused_and_composed_bins(&enc, &query, &binner);
        prop_assert_eq!(fused, reference);
    }
}

proptest! {
    // Products repeat terms and regions share excluded points only in
    // particular shapes; many cheap cases make sure both are exercised.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `RegionSet::measure` must keep the sorting implementation's result
    /// bit for bit, on integral and real domains.
    #[test]
    fn region_set_measure_matches_the_sorting_oracle(
        regions in prop::collection::vec(any_region(), 0..5),
        integral in prop_oneof![Just(true), Just(false)],
    ) {
        let domain = if integral {
            AttributeDomain::integers(-8, 8)
        } else {
            AttributeDomain::reals(-8.0, 8.0)
        };
        let fast = RegionSet::new(regions.clone()).measure(&domain);
        let slow = old_region_set_measure(&regions, &domain);
        prop_assert_eq!(fast.to_bits(), slow.to_bits(), "regions {:?}", regions);
    }
    /// Below the cap, `to_dnf` must return the old expansion's terms, in
    /// its order, leaf for leaf down to the literal bits.
    #[test]
    fn to_dnf_matches_the_cloning_expansion(expr in nested_expr()) {
        let old = old_to_dnf(&expr).expect("nests stay below the cap");
        let new = expr.to_dnf().expect("nests stay below the cap");
        let keys = |dnf: &[Vec<SimplePredicate>]| dnf.iter().map(|t| term_key(t)).collect::<Vec<_>>();
        prop_assert_eq!(keys(&new), keys(&old));
    }
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}
