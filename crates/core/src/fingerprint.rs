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

use std::ops::Range;

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
    let mut enc = Encoder::default();
    enc.expr(expr);
    let mut h = Fnv128::new();
    h.write(&[ENCODING_VERSION]);
    h.write(&enc.bytes);
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

/// Canonical encoder that appends to one byte buffer. `parts` is the
/// child-range stack shared by the whole recursion: a node pushes its
/// children's ranges above the entries of its ancestors and pops them when
/// it is done, so encoding a query allocates nothing per node.
#[derive(Default)]
struct Encoder {
    bytes: Vec<u8>,
    parts: Vec<(usize, usize)>,
}

impl Encoder {
    /// Append the canonical encoding of one AND/OR expression: flattened,
    /// children sorted by encoding and deduplicated, singleton wrappers
    /// unwrapped. `And([])` (true) and `Or([])` (false) stay distinct.
    fn expr(&mut self, expr: &PredicateExpr) {
        match expr {
            PredicateExpr::Leaf(p) => encode_leaf(&mut self.bytes, p),
            PredicateExpr::And(children) => self.children(TAG_AND, children.iter()),
            PredicateExpr::Or(children) => self.children(TAG_OR, children.iter()),
        }
    }

    fn children<'e>(&mut self, tag: u8, children: impl Iterator<Item = &'e PredicateExpr>) {
        let start = self.bytes.len();
        let base = self.parts.len();
        // Canonicalize and flatten: a child that canonicalized to the same
        // node type splices its children in (associativity). Splicing is
        // done on the *encoded* form — a same-tag child's encoding is
        // `[tag][count u32][children…]`, so its body can be re-framed
        // without re-walking the AST.
        for child in children {
            let at = self.bytes.len();
            self.expr(child);
            if self.bytes[at] == tag {
                let b = &self.bytes;
                let n = u32::from_le_bytes([b[at + 1], b[at + 2], b[at + 3], b[at + 4]]);
                let mut pos = at + 5;
                for _ in 0..n {
                    let len = node_len(&b[pos..]);
                    self.parts.push((pos, pos + len));
                    pos += len;
                }
                debug_assert_eq!(pos, b.len(), "trailing bytes after {n} nodes");
            } else {
                self.parts.push((at, self.bytes.len()));
            }
        }
        let b = &self.bytes;
        let parts = &mut self.parts[base..];
        parts.sort_unstable_by(|x, y| b[x.0..x.1].cmp(&b[y.0..y.1]));
        let mut kept = 0;
        for i in 0..parts.len() {
            let (s, e) = parts[i];
            if kept == 0 || b[parts[kept - 1].0..parts[kept - 1].1] != b[s..e] {
                parts[kept] = (s, e);
                kept += 1;
            }
        }
        let end = self.bytes.len();
        if kept == 1 {
            // And([x]) ≡ Or([x]) ≡ x.
            let (s, e) = parts[0];
            self.bytes.copy_within(s..e, start);
            self.bytes.truncate(start + (e - s));
        } else {
            self.bytes.push(tag);
            push_u32(&mut self.bytes, kept as u32);
            for &(s, e) in &self.parts[base..base + kept] {
                self.bytes.extend_from_within(s..e);
            }
            self.bytes.copy_within(end.., start);
            self.bytes.truncate(start + (self.bytes.len() - end));
        }
        self.parts.truncate(base);
    }
}

/// Length of `expr`'s encoding before flattening, deduplication and
/// unwrapping (which only shrink it): a bound on its canonical encoding.
fn raw_len(expr: &PredicateExpr) -> usize {
    match expr {
        PredicateExpr::Leaf(p) => match &p.value {
            Value::Str(s) => 7 + s.len(),
            Value::Int(_) | Value::Float(_) => 11,
        },
        PredicateExpr::And(children) | PredicateExpr::Or(children) => {
            5 + children.iter().map(raw_len).sum::<usize>()
        }
    }
}

/// A bound on the arena bytes [`CanonicalQuery::new`] writes, so the arena
/// is allocated once. Per predicate: its column chunk (9-byte header plus
/// a grouping `And` frame and the expression) is at most doubled while its
/// children are sorted, then copied once more into a table or orphan
/// chunk (9 more bytes for an orphan header); per table, the 13-byte
/// table header.
fn arena_bound(query: &Query, tables: usize) -> usize {
    let predicates: usize = query
        .predicates
        .iter()
        .map(|cp| 3 * (14 + raw_len(&cp.expr)) + 9)
        .sum();
    predicates + 13 * tables
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
    /// Every chunk's bytes, back to back; the chunks below are ranges into
    /// it.
    arena: Vec<u8>,
    /// One chunk per entry of `tables`: the table id plus its grouped,
    /// canonicalized predicates.
    table_chunks: Vec<Range<usize>>,
    /// Sorted, deduplicated join chunks with the indices (into `tables`)
    /// of the two sides.
    join_chunks: Vec<JoinChunk>,
    /// Predicates on tables the query does not access (only possible on
    /// queries that would fail validation), one chunk each, back to back.
    /// Included in [`fingerprint`](Self::fingerprint) — they are part of
    /// the query — but never in a subset: table-subset restriction (the
    /// optimizer's `subset_query`) drops them.
    orphans: Range<usize>,
}

/// Encoded length of a join chunk: tag plus four `u64` ids.
const JOIN_CHUNK_LEN: usize = 33;

#[derive(Debug, Clone)]
struct JoinChunk {
    left_idx: usize,
    right_idx: usize,
    bytes: [u8; JOIN_CHUNK_LEN],
}

impl CanonicalQuery {
    /// Canonicalize `query` (see the module docs for the rules).
    pub fn new(query: &Query) -> Self {
        let mut tables = query.tables.clone();
        tables.sort_unstable();
        tables.dedup();
        let index_of = |t: TableId| tables.binary_search(&t).ok();

        // Column chunks first, at the front of the arena: predicates are
        // grouped per attribute, in order of first appearance; several
        // compound predicates on one attribute conjoin (Definition 3.3
        // allows one per attribute; featurization already merges repeats
        // the same way).
        let capacity = arena_bound(query, tables.len());
        let mut enc = Encoder {
            bytes: Vec::with_capacity(capacity),
            parts: Vec::new(),
        };
        let mut columns: Vec<(ColumnRef, Range<usize>)> =
            Vec::with_capacity(query.predicates.len());
        for (i, cp) in query.predicates.iter().enumerate() {
            let col = cp.column;
            if query.predicates[..i].iter().any(|p| p.column == col) {
                continue;
            }
            let start = enc.bytes.len();
            enc.bytes.push(TAG_COLUMN);
            push_u64(&mut enc.bytes, col.column.0 as u64);
            let exprs = query.predicates[i..].iter().filter(|p| p.column == col);
            if exprs.clone().nth(1).is_none() {
                enc.expr(&cp.expr);
            } else {
                enc.children(TAG_AND, exprs.map(|p| &p.expr));
            }
            columns.push((col, start..enc.bytes.len()));
        }
        let Encoder {
            bytes: mut arena, ..
        } = enc;
        columns.sort_by(|(a, ar), (b, br)| {
            a.cmp(b)
                .then_with(|| arena[ar.clone()].cmp(&arena[br.clone()]))
        });

        // Then the table chunks, then the orphans, copied from the column
        // chunks; the column chunks themselves are never hashed.
        let mut table_chunks = Vec::with_capacity(tables.len());
        for &t in &tables {
            let start = arena.len();
            arena.push(TAG_TABLE);
            push_u64(&mut arena, t.0 as u64);
            let cols = columns.iter().filter(|(c, _)| c.table == t);
            push_u32(&mut arena, cols.clone().count() as u32);
            for (_, r) in cols {
                arena.extend_from_within(r.clone());
            }
            table_chunks.push(start..arena.len());
        }
        let orphans_start = arena.len();
        for (c, r) in &columns {
            if index_of(c.table).is_none() {
                arena.push(TAG_ORPHAN);
                push_u64(&mut arena, c.table.0 as u64);
                arena.extend_from_within(r.clone());
            }
        }
        let orphans = orphans_start..arena.len();
        debug_assert_eq!(arena.capacity(), capacity, "the arena outgrew its bound");

        let mut join_chunks = Vec::with_capacity(query.joins.len());
        join_chunks.extend(query.joins.iter().filter_map(|j| {
            // Commutativity: order the sides by (table, column).
            let (a, b) = if (j.left.table, j.left.column) <= (j.right.table, j.right.column) {
                (j.left, j.right)
            } else {
                (j.right, j.left)
            };
            let (left_idx, right_idx) = (index_of(a.table)?, index_of(b.table)?);
            let mut bytes = [TAG_JOIN; JOIN_CHUNK_LEN];
            for (k, id) in [a.table.0, a.column.0, b.table.0, b.column.0]
                .into_iter()
                .enumerate()
            {
                bytes[1 + 8 * k..9 + 8 * k].copy_from_slice(&(id as u64).to_le_bytes());
            }
            Some(JoinChunk {
                left_idx,
                right_idx,
                bytes,
            })
        }));
        join_chunks.sort_by_key(|a| a.bytes);
        join_chunks.dedup_by(|a, b| a.bytes == b.bytes);

        CanonicalQuery {
            tables,
            arena,
            table_chunks,
            join_chunks,
            orphans,
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
        h.write(&self.arena[self.orphans.clone()]);
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
            h.write(&self.arena[self.table_chunks[i].clone()]);
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
