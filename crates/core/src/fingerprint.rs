//! Semantic query fingerprints for sub-plan estimate caching.
//!
//! A join-order optimizer probes a cardinality estimator once per
//! connected table subset — up to 2^20 probes per query — and consecutive
//! queries in a real workload overlap heavily in their sub-plans. Caching
//! those estimates (Hyrise's `CardinalityEstimationCache` pattern) needs a
//! key under which *semantically identical* sub-queries collide even when
//! they are written differently: `a < 5 AND b = 2` must hit the entry
//! filled by `b = 2 AND a < 5`.
//!
//! [`QueryFingerprint`] is that key: a stable 128-bit FNV-1a hash of a
//! *canonical encoding* of the query. Canonicalization applies
//!
//! * **table normalization** — the accessed-table set is sorted and
//!   deduplicated (a [`crate::query::SubSchema`] in the paper's terms);
//! * **join normalization** — each equi-join's sides are ordered so the
//!   smaller `(table, column)` pair comes first (`a = b` ≡ `b = a`), and
//!   the join list is sorted and deduplicated;
//! * **predicate normalization** — compound predicates are grouped per
//!   attribute (several compound predicates on one attribute conjoin,
//!   matching [`crate::featurize`] semantics), and each AND/OR expression
//!   is flattened (nested `And` in `And` splice), its children sorted by
//!   canonical encoding and deduplicated, with singleton `And`/`Or`
//!   wrappers unwrapped.
//!
//! The normalization is sound but deliberately incomplete: equal
//! fingerprints are only produced for queries the rules prove equivalent
//! (commutativity, associativity, idempotence); semantically equal queries
//! written with different *literals* (`a < 5 AND a < 7` vs `a < 7`) hash
//! differently and merely cost a duplicate cache entry, never a wrong
//! estimate. Collisions of the 128-bit hash itself are negligible at any
//! realistic cache size.
//!
//! [`CanonicalQuery`] is the optimizer-facing form: it canonicalizes a
//! query **once** and pre-serializes one byte chunk per table (with its
//! predicates) and per join, so the fingerprint of every table-subset
//! sub-plan is a cheap incremental hash over the selected chunks — no
//! sub-`Query` is cloned, no predicate vector copied, just to look up the
//! cache ([`CanonicalQuery::subset_fingerprint`]).

use crate::predicate::{CmpOp, PredicateExpr, SimplePredicate};
use crate::query::{ColumnRef, Query};
use crate::schema::TableId;
use crate::value::Value;

/// Version tag of the canonical encoding; bump on any layout change so
/// persisted or cross-process fingerprints can never be confused across
/// incompatible canonicalization rules.
const ENCODING_VERSION: u8 = 1;

/// Chunk/node tags of the canonical encoding. Distinct tags keep the
/// byte stream prefix-free, so chunk concatenation is unambiguous
/// without outer length framing.
const TAG_LEAF: u8 = b'L';
const TAG_AND: u8 = b'A';
const TAG_OR: u8 = b'O';
const TAG_TABLE: u8 = b'T';
const TAG_COLUMN: u8 = b'P';
const TAG_JOIN: u8 = b'J';
const TAG_ORPHAN: u8 = b'X';

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Incremental 128-bit FNV-1a hasher. FNV is byte-sequential, so a
/// fingerprint can be composed from pre-serialized chunks without
/// materializing the concatenated encoding.
#[derive(Debug, Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// A stable 128-bit semantic fingerprint of a [`Query`] (see the module
/// docs for the equivalence it certifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u128);

impl QueryFingerprint {
    /// Fingerprint of `query`. Equivalent to
    /// `CanonicalQuery::new(query).fingerprint()`; build a
    /// [`CanonicalQuery`] instead when many sub-plan fingerprints of the
    /// same query are needed.
    pub fn of(query: &Query) -> Self {
        CanonicalQuery::new(query).fingerprint()
    }
}

impl std::fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Canonical fingerprint of a single per-attribute predicate expression:
/// two expressions with equal fingerprints featurize to bit-identical
/// per-attribute segments.
pub fn expr_fingerprint(expr: &PredicateExpr) -> u128 {
    let mut h = Fnv128::new();
    h.write(&[ENCODING_VERSION]);
    h.write(&canon_expr(expr));
    h.finish()
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(b'i');
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(b'f');
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(b's');
            push_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn op_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Lt => 1,
        CmpOp::Gt => 2,
        CmpOp::Le => 3,
        CmpOp::Ge => 4,
        CmpOp::Ne => 5,
    }
}

fn encode_leaf(out: &mut Vec<u8>, p: &SimplePredicate) {
    out.push(TAG_LEAF);
    out.push(op_code(p.op));
    encode_value(out, &p.value);
}

/// Canonical encoding of one AND/OR expression: flattened, children
/// sorted by encoding and deduplicated, singleton wrappers unwrapped.
/// `And([])` (true) and `Or([])` (false) stay distinct.
fn canon_expr(expr: &PredicateExpr) -> Vec<u8> {
    match expr {
        PredicateExpr::Leaf(p) => {
            let mut out = Vec::with_capacity(16);
            encode_leaf(&mut out, p);
            out
        }
        PredicateExpr::And(children) => canon_children(TAG_AND, children),
        PredicateExpr::Or(children) => canon_children(TAG_OR, children),
    }
}

fn canon_children(tag: u8, children: &[PredicateExpr]) -> Vec<u8> {
    // Canonicalize and flatten: a child that canonicalized to the same
    // node type splices its children in (associativity). Splicing is done
    // on the *encoded* form — a same-tag child's encoding is
    // `[tag][count u32][children…]`, so its body can be re-framed without
    // re-walking the AST.
    let mut parts: Vec<Vec<u8>> = Vec::with_capacity(children.len());
    for child in children {
        let enc = canon_expr(child);
        if enc.first() == Some(&tag) {
            let n = u32::from_le_bytes([enc[1], enc[2], enc[3], enc[4]]) as usize;
            parts.extend(split_nodes(&enc[5..], n));
        } else {
            parts.push(enc);
        }
    }
    parts.sort_unstable();
    parts.dedup();
    if parts.len() == 1 {
        // And([x]) ≡ Or([x]) ≡ x.
        return parts.pop().expect("len checked");
    }
    let mut out = Vec::with_capacity(5 + parts.iter().map(Vec::len).sum::<usize>());
    out.push(tag);
    push_u32(&mut out, parts.len() as u32);
    for p in &parts {
        out.extend_from_slice(p);
    }
    out
}

/// Split a concatenation of `n` encoded expression nodes back into the
/// individual encodings (used to splice nested same-tag nodes).
fn split_nodes(mut bytes: &[u8], n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = node_len(bytes);
        out.push(bytes[..len].to_vec());
        bytes = &bytes[len..];
    }
    debug_assert!(bytes.is_empty(), "trailing bytes after {n} nodes");
    out
}

/// Byte length of the encoded expression node starting at `bytes[0]`.
fn node_len(bytes: &[u8]) -> usize {
    match bytes[0] {
        TAG_LEAF => {
            // tag + op + value
            2 + match bytes[2] {
                b'i' | b'f' => 9,
                b's' => {
                    let n = u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]) as usize;
                    5 + n
                }
                other => unreachable!("bad value tag {other}"),
            }
        }
        TAG_AND | TAG_OR => {
            let n = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
            let mut len = 5;
            for _ in 0..n {
                len += node_len(&bytes[len..]);
            }
            len
        }
        other => unreachable!("bad node tag {other}"),
    }
}

/// A query canonicalized once, pre-serialized into per-table and per-join
/// byte chunks so that every table-subset fingerprint is an incremental
/// hash over the selected chunks.
///
/// The table order is the sorted [`crate::query::SubSchema`] order — the
/// same order [`crate::Query::sub_schema`] reports and the optimizer's
/// subset masks index, so bit `i` of a mask selects `tables()[i]`.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    tables: Vec<TableId>,
    /// One chunk per entry of `tables`: the table id plus its grouped,
    /// canonicalized predicates.
    table_chunks: Vec<Vec<u8>>,
    /// Sorted, deduplicated join chunks with the indices (into `tables`)
    /// of the two sides.
    join_chunks: Vec<JoinChunk>,
    /// Predicates on tables the query does not access (only possible on
    /// queries that would fail validation). Included in
    /// [`fingerprint`](Self::fingerprint) — they are part of the query —
    /// but never in a subset: table-subset restriction (the optimizer's
    /// `subset_query`) drops them.
    orphan_chunks: Vec<Vec<u8>>,
}

#[derive(Debug, Clone)]
struct JoinChunk {
    left_idx: usize,
    right_idx: usize,
    bytes: Vec<u8>,
}

impl CanonicalQuery {
    /// Canonicalize `query` (see the module docs for the rules).
    pub fn new(query: &Query) -> Self {
        let tables = query.sub_schema().tables().to_vec();
        let index_of = |t: TableId| tables.binary_search(&t).ok();

        // Group predicate expressions per attribute; several compound
        // predicates on one attribute conjoin (Definition 3.3 allows one
        // per attribute; featurization already merges repeats the same
        // way).
        let mut per_column: Vec<(ColumnRef, Vec<&PredicateExpr>)> = Vec::new();
        for cp in &query.predicates {
            match per_column.iter_mut().find(|(c, _)| *c == cp.column) {
                Some((_, exprs)) => exprs.push(&cp.expr),
                None => per_column.push((cp.column, vec![&cp.expr])),
            }
        }
        let mut column_chunks: Vec<(ColumnRef, Vec<u8>)> = per_column
            .into_iter()
            .map(|(col, exprs)| {
                let canon = if exprs.len() == 1 {
                    canon_expr(exprs[0])
                } else {
                    canon_children(
                        TAG_AND,
                        &exprs.iter().map(|e| (*e).clone()).collect::<Vec<_>>(),
                    )
                };
                let mut chunk = Vec::with_capacity(17 + canon.len());
                chunk.push(TAG_COLUMN);
                push_u64(&mut chunk, col.column.0 as u64);
                chunk.extend_from_slice(&canon);
                (col, chunk)
            })
            .collect();
        column_chunks.sort_by(|(a, ab), (b, bb)| a.cmp(b).then_with(|| ab.cmp(bb)));

        let mut table_chunks = Vec::with_capacity(tables.len());
        for &t in &tables {
            let mut chunk = Vec::new();
            chunk.push(TAG_TABLE);
            push_u64(&mut chunk, t.0 as u64);
            let cols: Vec<&[u8]> = column_chunks
                .iter()
                .filter(|(c, _)| c.table == t)
                .map(|(_, b)| b.as_slice())
                .collect();
            push_u32(&mut chunk, cols.len() as u32);
            for c in cols {
                chunk.extend_from_slice(c);
            }
            table_chunks.push(chunk);
        }

        let orphan_chunks: Vec<Vec<u8>> = column_chunks
            .iter()
            .filter(|(c, _)| index_of(c.table).is_none())
            .map(|(c, b)| {
                let mut chunk = Vec::with_capacity(9 + b.len());
                chunk.push(TAG_ORPHAN);
                push_u64(&mut chunk, c.table.0 as u64);
                chunk.extend_from_slice(b);
                chunk
            })
            .collect();

        let mut join_chunks: Vec<JoinChunk> = query
            .joins
            .iter()
            .filter_map(|j| {
                // Commutativity: order the sides by (table, column).
                let (a, b) = if (j.left.table, j.left.column) <= (j.right.table, j.right.column) {
                    (j.left, j.right)
                } else {
                    (j.right, j.left)
                };
                let (left_idx, right_idx) = (index_of(a.table)?, index_of(b.table)?);
                let mut bytes = Vec::with_capacity(33);
                bytes.push(TAG_JOIN);
                push_u64(&mut bytes, a.table.0 as u64);
                push_u64(&mut bytes, a.column.0 as u64);
                push_u64(&mut bytes, b.table.0 as u64);
                push_u64(&mut bytes, b.column.0 as u64);
                Some(JoinChunk {
                    left_idx,
                    right_idx,
                    bytes,
                })
            })
            .collect();
        join_chunks.sort_by(|a, b| a.bytes.cmp(&b.bytes));
        join_chunks.dedup_by(|a, b| a.bytes == b.bytes);

        CanonicalQuery {
            tables,
            table_chunks,
            join_chunks,
            orphan_chunks,
        }
    }

    /// The canonical (sorted, deduplicated) table order; bit `i` of a
    /// subset mask selects `tables()[i]`.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// Fingerprint of the whole query, including any predicates on
    /// non-accessed tables.
    pub fn fingerprint(&self) -> QueryFingerprint {
        let full = self.full_mask();
        let mut h = self.hash_subset(full);
        for chunk in &self.orphan_chunks {
            h.write(chunk);
        }
        QueryFingerprint(h.finish())
    }

    /// Mask selecting every table.
    pub fn full_mask(&self) -> u32 {
        assert!(
            self.tables.len() <= 32,
            "subset masks support at most 32 tables"
        );
        if self.tables.is_empty() {
            0
        } else {
            u32::MAX >> (32 - self.tables.len())
        }
    }

    /// Fingerprint of the query restricted to the tables selected by
    /// `mask`: exactly `QueryFingerprint::of(&subset_query(query, tables,
    /// mask))` for the sorted table order, computed without building the
    /// sub-`Query` (no clones, one incremental hash over pre-serialized
    /// chunks).
    pub fn subset_fingerprint(&self, mask: u32) -> QueryFingerprint {
        QueryFingerprint(self.hash_subset(mask).finish())
    }

    fn hash_subset(&self, mask: u32) -> Fnv128 {
        debug_assert!(self.tables.len() <= 32);
        let mut h = Fnv128::new();
        h.write(&[ENCODING_VERSION]);
        let mut bits = mask & self.full_mask();
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            h.write(&self.table_chunks[i]);
        }
        for j in &self.join_chunks {
            if mask >> j.left_idx & 1 == 1 && mask >> j.right_idx & 1 == 1 {
                h.write(&j.bytes);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompoundPredicate;
    use crate::query::JoinPredicate;
    use crate::schema::ColumnId;

    fn col(t: usize, c: usize) -> ColumnRef {
        ColumnRef::new(TableId(t), ColumnId(c))
    }

    fn leaf(op: CmpOp, v: i64) -> PredicateExpr {
        PredicateExpr::leaf(op, v)
    }

    fn cp(c: ColumnRef, expr: PredicateExpr) -> CompoundPredicate {
        CompoundPredicate { column: c, expr }
    }

    #[test]
    fn predicate_order_is_commutative() {
        // a < 5 AND b = 2 ≡ b = 2 AND a < 5 (the issue's motivating pair).
        let a = cp(col(0, 0), leaf(CmpOp::Lt, 5));
        let b = cp(col(0, 1), leaf(CmpOp::Eq, 2));
        let q1 = Query::single_table(TableId(0), vec![a.clone(), b.clone()]);
        let q2 = Query::single_table(TableId(0), vec![b, a]);
        assert_eq!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q2));
    }

    #[test]
    fn and_or_children_are_commutative_and_associative() {
        let e1 = PredicateExpr::And(vec![
            leaf(CmpOp::Ge, 1),
            PredicateExpr::And(vec![leaf(CmpOp::Le, 9), leaf(CmpOp::Ne, 5)]),
        ]);
        let e2 = PredicateExpr::And(vec![
            leaf(CmpOp::Ne, 5),
            leaf(CmpOp::Ge, 1),
            leaf(CmpOp::Le, 9),
        ]);
        assert_eq!(expr_fingerprint(&e1), expr_fingerprint(&e2));
        let o1 = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 1), leaf(CmpOp::Eq, 2)]);
        let o2 = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 2), leaf(CmpOp::Eq, 1)]);
        assert_eq!(expr_fingerprint(&o1), expr_fingerprint(&o2));
        assert_ne!(expr_fingerprint(&e1), expr_fingerprint(&o1));
    }

    #[test]
    fn duplicate_children_and_singleton_wrappers_normalize() {
        let dup = PredicateExpr::Or(vec![leaf(CmpOp::Eq, 3), leaf(CmpOp::Eq, 3)]);
        assert_eq!(
            expr_fingerprint(&dup),
            expr_fingerprint(&leaf(CmpOp::Eq, 3))
        );
        let wrapped = PredicateExpr::And(vec![PredicateExpr::Or(vec![leaf(CmpOp::Lt, 7)])]);
        assert_eq!(
            expr_fingerprint(&wrapped),
            expr_fingerprint(&leaf(CmpOp::Lt, 7))
        );
        // Empty And (true) and empty Or (false) stay distinct.
        assert_ne!(
            expr_fingerprint(&PredicateExpr::And(vec![])),
            expr_fingerprint(&PredicateExpr::Or(vec![]))
        );
    }

    #[test]
    fn semantically_different_queries_differ() {
        let base = Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 5))]);
        for other in [
            Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Le, 5))]),
            Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 6))]),
            Query::single_table(TableId(0), vec![cp(col(0, 1), leaf(CmpOp::Lt, 5))]),
            Query::single_table(TableId(1), vec![cp(col(1, 0), leaf(CmpOp::Lt, 5))]),
            Query::single_table(TableId(0), vec![]),
        ] {
            assert_ne!(
                QueryFingerprint::of(&base),
                QueryFingerprint::of(&other),
                "{other:?}"
            );
        }
        // Int and Float literals featurize through different integrality
        // rules, so they must not collide.
        let int5 = Query::single_table(TableId(0), vec![cp(col(0, 0), leaf(CmpOp::Lt, 5))]);
        let float5 = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), PredicateExpr::leaf(CmpOp::Lt, 5.0))],
        );
        assert_ne!(QueryFingerprint::of(&int5), QueryFingerprint::of(&float5));
    }

    #[test]
    fn join_sides_and_order_normalize() {
        let j = |l: ColumnRef, r: ColumnRef| JoinPredicate { left: l, right: r };
        let q1 = Query {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![j(col(0, 0), col(1, 0)), j(col(1, 1), col(2, 0))],
            predicates: vec![],
        };
        let q2 = Query {
            tables: vec![TableId(2), TableId(0), TableId(1)],
            joins: vec![j(col(2, 0), col(1, 1)), j(col(1, 0), col(0, 0))],
            predicates: vec![],
        };
        assert_eq!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q2));
        // Joining along a different column is a different query.
        let q3 = Query {
            joins: vec![j(col(0, 0), col(1, 1)), j(col(1, 1), col(2, 0))],
            ..q1.clone()
        };
        assert_ne!(QueryFingerprint::of(&q1), QueryFingerprint::of(&q3));
    }

    #[test]
    fn repeated_attribute_predicates_conjoin() {
        // [cp(a, X), cp(a, Y)] ≡ [cp(a, And(X, Y))] — the grouping the
        // featurizers apply.
        let x = leaf(CmpOp::Ge, 1);
        let y = leaf(CmpOp::Le, 9);
        let split = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), x.clone()), cp(col(0, 0), y.clone())],
        );
        let merged = Query::single_table(
            TableId(0),
            vec![cp(col(0, 0), PredicateExpr::And(vec![x, y]))],
        );
        assert_eq!(QueryFingerprint::of(&split), QueryFingerprint::of(&merged));
    }

    #[test]
    fn subset_fingerprints_match_direct_fingerprints() {
        let q = Query {
            tables: vec![TableId(2), TableId(0), TableId(1)],
            joins: vec![
                JoinPredicate {
                    left: col(0, 0),
                    right: col(1, 0),
                },
                JoinPredicate {
                    left: col(1, 1),
                    right: col(2, 0),
                },
            ],
            predicates: vec![
                cp(col(1, 2), leaf(CmpOp::Gt, 10)),
                cp(col(0, 1), leaf(CmpOp::Eq, 3)),
            ],
        };
        let canon = CanonicalQuery::new(&q);
        assert_eq!(canon.tables(), &[TableId(0), TableId(1), TableId(2)]);
        let tables = canon.tables().to_vec();
        for mask in 1u32..=canon.full_mask() {
            // Reference: restrict by hand exactly like the optimizer's
            // subset_query and fingerprint the restricted query directly.
            let selected: Vec<TableId> = tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t)
                .collect();
            let sub = Query {
                joins: q
                    .joins
                    .iter()
                    .filter(|j| {
                        selected.contains(&j.left.table) && selected.contains(&j.right.table)
                    })
                    .cloned()
                    .collect(),
                predicates: q
                    .predicates
                    .iter()
                    .filter(|p| selected.contains(&p.column.table))
                    .cloned()
                    .collect(),
                tables: selected,
            };
            assert_eq!(
                canon.subset_fingerprint(mask),
                QueryFingerprint::of(&sub),
                "mask {mask:b}"
            );
        }
        assert_eq!(
            canon.subset_fingerprint(canon.full_mask()),
            canon.fingerprint()
        );
    }

    #[test]
    fn display_is_stable_hex() {
        let q = Query::single_table(TableId(0), vec![]);
        let fp = QueryFingerprint::of(&q);
        let s = fp.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s, QueryFingerprint::of(&q).to_string());
    }
}
