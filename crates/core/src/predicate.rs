//! Predicates: simple comparisons and per-attribute compound predicates.
//!
//! Following Definition 3.3 of the paper, a *compound predicate* for some
//! attribute `A` is an arbitrary AND/OR combination of simple predicates on
//! `A`. Mixed queries are conjunctions of compound predicates over a subset
//! of attributes. Compound predicates do **not** have to be in CNF or DNF;
//! [`PredicateExpr::to_dnf`] normalizes them into the
//! disjunction-of-conjunctions form that Algorithm 2 consumes.

use std::ops::Range;

use crate::error::QfeError;
use crate::value::Value;

/// Comparison operators supported in simple predicates
/// (`{=, >, <, >=, <=, <>}`, Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<>` / `!=`
    Ne,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        }
    }

    /// Evaluate the comparison on numeric values.
    pub fn eval_f64(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// Evaluate the comparison on integer values.
    pub fn eval_i64(&self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// All six operators, for workload generation and exhaustive tests.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Lt,
        CmpOp::Gt,
        CmpOp::Le,
        CmpOp::Ge,
        CmpOp::Ne,
    ];
}

/// A simple predicate `A op literal` (the attribute is carried by the
/// enclosing [`CompoundPredicate`]; a simple predicate itself only stores
/// the operator and literal).
#[derive(Debug, Clone, PartialEq)]
pub struct SimplePredicate {
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal the attribute is compared against.
    pub value: Value,
}

impl SimplePredicate {
    /// Construct a predicate `op value`.
    pub fn new(op: CmpOp, value: impl Into<Value>) -> Self {
        SimplePredicate {
            op,
            value: value.into(),
        }
    }

    /// Whether a numeric attribute value satisfies this predicate.
    pub fn matches_f64(&self, attr_value: f64) -> bool {
        match self.value.as_f64() {
            Some(rhs) => self.op.eval_f64(attr_value, rhs),
            None => false,
        }
    }
}

/// An arbitrary AND/OR combination of simple predicates on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateExpr {
    /// A simple predicate leaf.
    Leaf(SimplePredicate),
    /// Conjunction of sub-expressions.
    And(Vec<PredicateExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<PredicateExpr>),
}

impl PredicateExpr {
    /// Leaf constructor.
    pub fn leaf(op: CmpOp, value: impl Into<Value>) -> Self {
        PredicateExpr::Leaf(SimplePredicate::new(op, value))
    }

    /// Conjunction of simple predicates (the common case for conjunctive
    /// workloads).
    pub fn all_of(preds: Vec<SimplePredicate>) -> Self {
        PredicateExpr::And(preds.into_iter().map(PredicateExpr::Leaf).collect())
    }

    /// Number of simple-predicate leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            PredicateExpr::Leaf(_) => 1,
            PredicateExpr::And(children) | PredicateExpr::Or(children) => {
                children.iter().map(|c| c.leaf_count()).sum()
            }
        }
    }

    /// True if the expression contains no `Or` node (i.e. is a pure
    /// conjunction usable with Universal Conjunction Encoding).
    pub fn is_conjunctive(&self) -> bool {
        match self {
            PredicateExpr::Leaf(_) => true,
            PredicateExpr::And(children) => children.iter().all(|c| c.is_conjunctive()),
            PredicateExpr::Or(children) => {
                children.len() <= 1 && children.iter().all(|c| c.is_conjunctive())
            }
        }
    }

    /// Gather the leaves of a *conjunctive* expression (see
    /// [`Self::is_conjunctive`]) by reference, in exactly the order
    /// [`Self::to_dnf`] would emit them in its single term — depth-first,
    /// left to right, duplicates kept. Returns `false` (leaving `out` in
    /// an unspecified state) when the expression contains an empty
    /// disjunction: its DNF has *no* terms, i.e. it is unsatisfiable.
    ///
    /// This is the zero-clone hot path of per-attribute featurization;
    /// callers must have checked `is_conjunctive()` first — a multi-child
    /// `Or` (not conjunctive) also reports `false` rather than expanding.
    pub(crate) fn conjunct_leaf_refs<'a>(&'a self, out: &mut Vec<&'a SimplePredicate>) -> bool {
        match self {
            PredicateExpr::Leaf(p) => {
                out.push(p);
                true
            }
            PredicateExpr::And(children) => children.iter().all(|c| c.conjunct_leaf_refs(out)),
            PredicateExpr::Or(children) => match children.as_slice() {
                [only] => only.conjunct_leaf_refs(out),
                _ => false,
            },
        }
    }

    /// Evaluate against a single numeric attribute value. Empty `And` is
    /// `true`, empty `Or` is `false` (the usual identities).
    pub fn matches_f64(&self, attr_value: f64) -> bool {
        match self {
            PredicateExpr::Leaf(p) => p.matches_f64(attr_value),
            PredicateExpr::And(children) => children.iter().all(|c| c.matches_f64(attr_value)),
            PredicateExpr::Or(children) => children.iter().any(|c| c.matches_f64(attr_value)),
        }
    }

    /// Normalize into disjunctive normal form: a list of conjunctions, each
    /// a list of simple predicates. This is the `Split(cp, "OR")` step of
    /// Algorithm 2, generalized to arbitrary nesting.
    ///
    /// Terms come in distribution order: an `Or` concatenates its
    /// children's terms, an `And` forms the left-major cross product of
    /// its children's terms. Exact duplicate conjunctions (same
    /// predicates in the same order) are removed, keeping first
    /// occurrences — `x = 1 OR x = 1` yields one term — which keeps the
    /// output stable under input duplication without perturbing term
    /// order. Reordered conjunctions stay distinct terms: featurization
    /// is order-sensitive in its ternary marks. Leaves match on operator,
    /// literal variant and bit pattern, so `5` and `5.0` differ and a NaN
    /// literal matches itself.
    ///
    /// The expansion is exponential in the worst case; compound predicates
    /// in practice are small (the paper's workloads use at most three
    /// disjuncts per attribute). The cap applies in both arms: an `Or`
    /// fails with [`QfeError::UnsupportedQuery`] once its distinct terms
    /// exceed [`MAX_DNF_TERMS`] after any child, an `And` as soon as its
    /// deduplicated product does. No node holds more than twice the cap,
    /// so an adversarial input errors long before its full blow-up. An
    /// `And` with an unsatisfiable child (empty DNF, e.g. `Or([])`) has no
    /// terms and stops there, without expanding its later children.
    ///
    /// This clones the leaves out of the crate's borrowed expansion,
    /// `dnf_into`, which the featurizers use directly.
    pub fn to_dnf(&self) -> Result<Vec<Vec<SimplePredicate>>, QfeError> {
        let mut dnf = DnfTerms::default();
        self.dnf_into(&mut dnf)?;
        Ok(dnf
            .iter()
            .map(|term| term.iter().map(|&p| p.clone()).collect())
            .collect())
    }

    /// [`Self::to_dnf`] over **borrowed** leaves, replacing `dnf`'s
    /// previous contents: a caller encoding many expressions reuses one
    /// [`DnfTerms`] and clones nothing.
    pub(crate) fn dnf_into<'a>(&'a self, dnf: &mut DnfTerms<'a>) -> Result<(), QfeError> {
        dnf.leaves.clear();
        dnf.ends.clear();
        self.expand(dnf)
    }

    /// Append this node's deduplicated terms to `dnf` (whose stored terms
    /// belong to enclosing nodes and are left untouched).
    fn expand<'a>(&'a self, dnf: &mut DnfTerms<'a>) -> Result<(), QfeError> {
        match self {
            PredicateExpr::Leaf(p) => {
                dnf.leaves.push(p);
                dnf.ends.push(dnf.leaves.len());
            }
            PredicateExpr::Or(children) => {
                let base = dnf.ends.len();
                let mut seen = TermIndex::new(base);
                for child in children {
                    let first = dnf.ends.len();
                    child.expand(dnf)?;
                    // Keep the child's terms not seen yet, compacted in
                    // order behind the node's earlier terms.
                    let mut write = first;
                    let mut write_leaf = dnf.start(first);
                    let mut read_leaf = write_leaf;
                    for k in first..dnf.ends.len() {
                        let term = read_leaf..dnf.ends[k];
                        read_leaf = term.end;
                        if seen.insert_new(dnf, term.clone(), write) {
                            dnf.leaves.copy_within(term.clone(), write_leaf);
                            write_leaf += term.len();
                            dnf.ends[write] = write_leaf;
                            write += 1;
                        }
                    }
                    dnf.ends.truncate(write);
                    dnf.leaves.truncate(write_leaf);
                    if write - base > MAX_DNF_TERMS {
                        return Err(dnf_cap_error());
                    }
                }
            }
            PredicateExpr::And(children) => {
                let base = dnf.ends.len();
                let base_leaf = dnf.leaves.len();
                let Some((head, tail)) = children.split_first() else {
                    // The empty conjunction: one empty term.
                    dnf.ends.push(base_leaf);
                    return Ok(());
                };
                head.expand(dnf)?;
                for child in tail {
                    let first = dnf.ends.len();
                    if first == base {
                        // An unsatisfiable child emptied the product.
                        break;
                    }
                    child.expand(dnf)?;
                    let last = dnf.ends.len();
                    if last == first {
                        dnf.ends.truncate(base);
                        dnf.leaves.truncate(base_leaf);
                    } else if first - base == 1 && last - first == 1 {
                        // One term times one term: the child's leaves
                        // already follow the accumulator's; join them.
                        dnf.ends[base] = dnf.ends[first];
                        dnf.ends.truncate(first);
                    } else {
                        dnf.product(base, first, last)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Upper bound on DNF terms a single compound predicate — and every node
/// inside it — may expand to (see [`PredicateExpr::to_dnf`]).
pub const MAX_DNF_TERMS: usize = 4096;

fn dnf_cap_error() -> QfeError {
    QfeError::UnsupportedQuery(format!(
        "DNF expansion of compound predicate exceeds {MAX_DNF_TERMS} terms"
    ))
}

/// A disjunctive normal form over borrowed leaves, filled by
/// [`PredicateExpr::dnf_into`]: the terms' leaves back to back in one
/// flat run, plus each term's end offset into it.
#[derive(Debug, Default)]
pub(crate) struct DnfTerms<'a> {
    leaves: Vec<&'a SimplePredicate>,
    ends: Vec<usize>,
}

impl<'a> DnfTerms<'a> {
    /// Number of terms (disjuncts); zero means unsatisfiable.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The leaves of term `k`, a conjunction.
    pub(crate) fn term(&self, k: usize) -> &[&'a SimplePredicate] {
        &self.leaves[self.start(k)..self.ends[k]]
    }

    /// The terms in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[&'a SimplePredicate]> + '_ {
        (0..self.len()).map(|k| self.term(k))
    }

    fn start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1]
        }
    }

    /// Replace the accumulator terms `base..first` and the child terms
    /// `first..last` (the tail of the store) with their deduplicated
    /// left-major cross product, failing as soon as it exceeds the cap.
    fn product(&mut self, base: usize, first: usize, last: usize) -> Result<(), QfeError> {
        let base_leaf = self.start(base);
        let prod_leaf = self.leaves.len();
        let mut seen = TermIndex::new(last);
        for a in base..first {
            for c in first..last {
                let start = self.leaves.len();
                self.leaves.extend_from_within(self.start(a)..self.ends[a]);
                self.leaves.extend_from_within(self.start(c)..self.ends[c]);
                if seen.insert_new(self, start..self.leaves.len(), self.ends.len()) {
                    self.ends.push(self.leaves.len());
                    if self.ends.len() - last > MAX_DNF_TERMS {
                        return Err(dnf_cap_error());
                    }
                } else {
                    self.leaves.truncate(start);
                }
            }
        }
        let shift = prod_leaf - base_leaf;
        self.leaves.drain(base_leaf..prod_leaf);
        self.ends.drain(base..last);
        for end in &mut self.ends[base..] {
            *end -= shift;
        }
        Ok(())
    }
}

/// Terms one node compares pairwise before it indexes them by hash.
const SCAN_TERMS: usize = 16;

/// Order-preserving duplicate filter over one node's terms, numbered from
/// `base` in a [`DnfTerms`]. Few terms are compared directly; from
/// [`SCAN_TERMS`] on, an open-addressing table of term hashes keeps the
/// cost per candidate proportional to its length.
struct TermIndex {
    base: usize,
    /// `(hash, term number + 1)`; `0` marks a free slot. Empty until the
    /// node reaches `SCAN_TERMS` terms, then at most half full.
    slots: Vec<(u64, usize)>,
}

impl TermIndex {
    fn new(base: usize) -> Self {
        TermIndex {
            base,
            slots: Vec::new(),
        }
    }

    /// Whether the candidate at leaf range `cand` of `dnf` differs from
    /// every kept term `base..next`; if it does, it is recorded as term
    /// `next`.
    fn insert_new(&mut self, dnf: &DnfTerms<'_>, cand: Range<usize>, next: usize) -> bool {
        let cand = &dnf.leaves[cand];
        if self.slots.is_empty() {
            if next - self.base < SCAN_TERMS {
                return !(self.base..next).any(|t| same_term(dnf.term(t), cand));
            }
            self.slots = vec![(0, 0); 4 * SCAN_TERMS];
            for t in self.base..next {
                self.place(term_hash(dnf.term(t)), t);
            }
        }
        let hash = term_hash(cand);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, 0) => break,
                (h, t) if h == hash && same_term(dnf.term(t - 1), cand) => return false,
                _ => i = (i + 1) & mask,
            }
        }
        self.slots[i] = (hash, next + 1);
        if 2 * (next + 1 - self.base) > self.slots.len() {
            let grown = vec![(0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (h, t) in old.into_iter().filter(|&(_, t)| t != 0) {
                self.place(h, t - 1);
            }
        }
        true
    }

    fn place(&mut self, hash: u64, term: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, term + 1);
    }
}

fn same_leaf(a: &SimplePredicate, b: &SimplePredicate) -> bool {
    a.op == b.op
        && match (&a.value, &b.value) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
}

fn same_term(a: &[&SimplePredicate], b: &[&SimplePredicate]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_leaf(x, y))
}

/// Hash consistent with [`same_term`]: operator, literal variant and bits.
fn term_hash(term: &[&SimplePredicate]) -> u64 {
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    term.iter().fold(0, |h, p| {
        let (tag, bits) = match &p.value {
            Value::Int(i) => (0, *i as u64),
            Value::Float(f) => (1, f.to_bits()),
            Value::Str(s) => (2, s.bytes().fold(s.len() as u64, |h, b| mix(h, b.into()))),
        };
        mix(mix(h, p.op as u64 | tag << 3), bits)
    })
}

/// A compound predicate: an AND/OR combination of simple predicates over a
/// single attribute of a single table (Definition 3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CompoundPredicate {
    /// The attribute all simple predicates refer to.
    pub column: crate::query::ColumnRef,
    /// The AND/OR expression.
    pub expr: PredicateExpr,
}

impl CompoundPredicate {
    /// A pure conjunction of simple predicates on `column`.
    pub fn conjunction(column: crate::query::ColumnRef, preds: Vec<SimplePredicate>) -> Self {
        CompoundPredicate {
            column,
            expr: PredicateExpr::all_of(preds),
        }
    }

    /// Number of simple predicates inside.
    pub fn predicate_count(&self) -> usize {
        self.expr.leaf_count()
    }

    /// True if the compound predicate contains no disjunction.
    pub fn is_conjunctive(&self) -> bool {
        self.expr.is_conjunctive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ColumnRef;
    use crate::schema::{ColumnId, TableId};

    fn col() -> ColumnRef {
        ColumnRef {
            table: TableId(0),
            column: ColumnId(0),
        }
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval_f64(2.0, 2.0));
        assert!(CmpOp::Lt.eval_f64(1.0, 2.0));
        assert!(CmpOp::Gt.eval_i64(3, 2));
        assert!(CmpOp::Le.eval_i64(2, 2));
        assert!(CmpOp::Ge.eval_f64(2.0, 2.0));
        assert!(CmpOp::Ne.eval_i64(1, 2));
        assert!(!CmpOp::Ne.eval_i64(2, 2));
    }

    #[test]
    fn sql_spellings() {
        let spellings: Vec<_> = CmpOp::ALL.iter().map(|op| op.sql()).collect();
        assert_eq!(spellings, vec!["=", "<", ">", "<=", ">=", "<>"]);
    }

    #[test]
    fn simple_predicate_matching() {
        let p = SimplePredicate::new(CmpOp::Ge, 10);
        assert!(p.matches_f64(10.0));
        assert!(p.matches_f64(11.5));
        assert!(!p.matches_f64(9.9));
    }

    #[test]
    fn expr_evaluation_and_identities() {
        // (x > 0 AND x < 10) OR x = 42
        let e = PredicateExpr::Or(vec![
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Gt, 0),
                PredicateExpr::leaf(CmpOp::Lt, 10),
            ]),
            PredicateExpr::leaf(CmpOp::Eq, 42),
        ]);
        assert!(e.matches_f64(5.0));
        assert!(e.matches_f64(42.0));
        assert!(!e.matches_f64(20.0));
        assert!(PredicateExpr::And(vec![]).matches_f64(1.0));
        assert!(!PredicateExpr::Or(vec![]).matches_f64(1.0));
    }

    #[test]
    fn leaf_count_and_conjunctive_detection() {
        let conj = PredicateExpr::all_of(vec![
            SimplePredicate::new(CmpOp::Ge, 1),
            SimplePredicate::new(CmpOp::Le, 9),
            SimplePredicate::new(CmpOp::Ne, 5),
        ]);
        assert_eq!(conj.leaf_count(), 3);
        assert!(conj.is_conjunctive());

        let disj = PredicateExpr::Or(vec![
            PredicateExpr::leaf(CmpOp::Eq, 1),
            PredicateExpr::leaf(CmpOp::Eq, 2),
        ]);
        assert_eq!(disj.leaf_count(), 2);
        assert!(!disj.is_conjunctive());
    }

    #[test]
    fn dnf_of_conjunction_is_single_term() {
        let conj = PredicateExpr::all_of(vec![
            SimplePredicate::new(CmpOp::Ge, 1),
            SimplePredicate::new(CmpOp::Le, 9),
        ]);
        let dnf = conj.to_dnf().unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].len(), 2);
    }

    #[test]
    fn dnf_distributes_and_over_or() {
        // (a OR b) AND (c OR d) => ac, ad, bc, bd
        let e = PredicateExpr::And(vec![
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Eq, 1),
                PredicateExpr::leaf(CmpOp::Eq, 2),
            ]),
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Ne, 3),
                PredicateExpr::leaf(CmpOp::Ne, 4),
            ]),
        ]);
        let dnf = e.to_dnf().unwrap();
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|term| term.len() == 2));
    }

    #[test]
    fn dnf_preserves_semantics() {
        // ((x >= 2 AND x <= 5) OR x = 9) evaluated both ways for all x.
        let e = PredicateExpr::Or(vec![
            PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Ge, 2),
                PredicateExpr::leaf(CmpOp::Le, 5),
            ]),
            PredicateExpr::leaf(CmpOp::Eq, 9),
        ]);
        let dnf = e.to_dnf().unwrap();
        for x in 0..12 {
            let direct = e.matches_f64(x as f64);
            let via_dnf = dnf
                .iter()
                .any(|term| term.iter().all(|p| p.matches_f64(x as f64)));
            assert_eq!(direct, via_dnf, "x = {x}");
        }
    }

    #[test]
    fn dnf_dedups_exact_duplicate_terms() {
        // x = 1 OR x = 1 OR x = 2 → two terms, first occurrence order.
        let e = PredicateExpr::Or(vec![
            PredicateExpr::leaf(CmpOp::Eq, 1),
            PredicateExpr::leaf(CmpOp::Eq, 1),
            PredicateExpr::leaf(CmpOp::Eq, 2),
        ]);
        let dnf = e.to_dnf().unwrap();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0], vec![SimplePredicate::new(CmpOp::Eq, 1)]);
        assert_eq!(dnf[1], vec![SimplePredicate::new(CmpOp::Eq, 2)]);
        // Reordered conjunctions are distinct terms, not duplicates.
        let ab = PredicateExpr::And(vec![
            PredicateExpr::leaf(CmpOp::Ge, 1),
            PredicateExpr::leaf(CmpOp::Le, 9),
        ]);
        let ba = PredicateExpr::And(vec![
            PredicateExpr::leaf(CmpOp::Le, 9),
            PredicateExpr::leaf(CmpOp::Ge, 1),
        ]);
        let both = PredicateExpr::Or(vec![ab, ba]);
        assert_eq!(both.to_dnf().unwrap().len(), 2);
        // Int and Float literals never collapse into one term.
        let mixed = PredicateExpr::Or(vec![
            PredicateExpr::leaf(CmpOp::Eq, 5),
            PredicateExpr::leaf(CmpOp::Eq, 5.0),
        ]);
        assert_eq!(mixed.to_dnf().unwrap().len(), 2);
    }

    #[test]
    fn dnf_cap_fires_incrementally_in_or_arm() {
        // 2^13 = 8192 distinct terms via 13 ANDed binary disjunctions;
        // must be rejected (and is rejected mid-expansion, before the
        // full cross product of the enclosing Or is realized).
        let or_pair = |v: i64| {
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Eq, v),
                PredicateExpr::leaf(CmpOp::Ne, v),
            ])
        };
        let big = PredicateExpr::And((0..13).map(or_pair).collect());
        let wide = PredicateExpr::Or(vec![big, PredicateExpr::leaf(CmpOp::Eq, 0)]);
        let err = wide.to_dnf().unwrap_err();
        assert!(matches!(err, QfeError::UnsupportedQuery(_)), "{err:?}");
        // Duplication alone must NOT trip the cap: 5000 copies of the
        // same disjunct dedup to one term.
        let dup = PredicateExpr::Or(vec![PredicateExpr::leaf(CmpOp::Eq, 7); 5000]);
        assert_eq!(dup.to_dnf().unwrap().len(), 1);
    }

    #[test]
    fn dnf_cap_applies_in_and_arm() {
        // 24 ANDed binary disjunctions would be 2^24 terms; the product
        // must fail at the cap (2^13 > 4096 distinct terms), not build
        // millions of terms and report a different error afterwards.
        let or_pair = |v: i64| {
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Eq, v),
                PredicateExpr::leaf(CmpOp::Ne, v),
            ])
        };
        let big = PredicateExpr::And((0..24).map(or_pair).collect());
        assert_eq!(big.to_dnf().unwrap_err(), dnf_cap_error());
        // Exactly at the cap is fine.
        let at_cap = PredicateExpr::And((0..12).map(or_pair).collect());
        assert_eq!(at_cap.to_dnf().unwrap().len(), MAX_DNF_TERMS);
    }

    #[test]
    fn unsatisfiable_and_child_empties_the_product() {
        let e = PredicateExpr::And(vec![
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Eq, 1),
                PredicateExpr::leaf(CmpOp::Eq, 2),
            ]),
            PredicateExpr::Or(vec![]),
            PredicateExpr::leaf(CmpOp::Ne, 3),
        ]);
        assert!(e.to_dnf().unwrap().is_empty());
        // The expansion stops at the empty child: a later child over the
        // cap is never expanded.
        let over_cap = PredicateExpr::And(
            (0..13)
                .map(|v| {
                    PredicateExpr::Or(vec![
                        PredicateExpr::leaf(CmpOp::Eq, v),
                        PredicateExpr::leaf(CmpOp::Ne, v),
                    ])
                })
                .collect(),
        );
        assert!(over_cap.to_dnf().is_err());
        let e = PredicateExpr::And(vec![PredicateExpr::Or(vec![]), over_cap]);
        assert!(e.to_dnf().unwrap().is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrences_past_the_scan_limit() {
        // Or of 0..50 twice: the second half is all duplicates, found
        // through the hash index once the node holds SCAN_TERMS terms.
        let leaves: Vec<_> = (0..50)
            .chain(0..50)
            .map(|v| PredicateExpr::leaf(CmpOp::Eq, v))
            .collect();
        let dnf = PredicateExpr::Or(leaves).to_dnf().unwrap();
        let expected: Vec<_> = (0..50)
            .map(|v| vec![SimplePredicate::new(CmpOp::Eq, v)])
            .collect();
        assert_eq!(dnf, expected);
        // (TRUE OR x = 1) ANDed 40 times: 41 distinct terms x^0 .. x^40 in
        // order of length, out of 2^k candidates per step.
        let maybe_x = PredicateExpr::Or(vec![
            PredicateExpr::And(vec![]),
            PredicateExpr::leaf(CmpOp::Eq, 1),
        ]);
        let dnf = PredicateExpr::And(vec![maybe_x; 40]).to_dnf().unwrap();
        assert_eq!(dnf.len(), 41);
        for (k, term) in dnf.iter().enumerate() {
            assert_eq!(term, &vec![SimplePredicate::new(CmpOp::Eq, 1); k]);
        }
    }

    #[test]
    fn dnf_into_borrows_leaves_and_reuses_the_store() {
        // (a OR b) AND c → [a, c], [b, c], borrowed from the tree itself.
        let e = PredicateExpr::And(vec![
            PredicateExpr::Or(vec![
                PredicateExpr::leaf(CmpOp::Ge, 1),
                PredicateExpr::leaf(CmpOp::Le, 9),
            ]),
            PredicateExpr::leaf(CmpOp::Ne, 5),
        ]);
        let PredicateExpr::And(children) = &e else {
            unreachable!()
        };
        let PredicateExpr::Leaf(c) = &children[1] else {
            unreachable!()
        };
        let mut dnf = DnfTerms::default();
        e.dnf_into(&mut dnf).unwrap();
        assert_eq!(dnf.len(), 2);
        assert!(std::ptr::eq(dnf.term(0)[1], c) && std::ptr::eq(dnf.term(1)[1], c));
        let single = PredicateExpr::leaf(CmpOp::Eq, 4);
        single.dnf_into(&mut dnf).unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf.term(0), &[&SimplePredicate::new(CmpOp::Eq, 4)]);
    }

    #[test]
    fn conjunct_leaf_refs_matches_dnf_single_term() {
        // Nested And/single-child-Or shape: the gathered references must
        // equal the DNF's one term, in the same depth-first order,
        // duplicates included.
        let expr = PredicateExpr::And(vec![
            PredicateExpr::leaf(CmpOp::Ge, 1),
            PredicateExpr::Or(vec![PredicateExpr::And(vec![
                PredicateExpr::leaf(CmpOp::Le, 9),
                PredicateExpr::leaf(CmpOp::Ne, 5),
                PredicateExpr::leaf(CmpOp::Ne, 5),
            ])]),
        ]);
        assert!(expr.is_conjunctive());
        let mut leaves = Vec::new();
        assert!(expr.conjunct_leaf_refs(&mut leaves));
        let dnf = expr.to_dnf().unwrap();
        assert_eq!(dnf.len(), 1);
        let gathered: Vec<SimplePredicate> = leaves.into_iter().cloned().collect();
        assert_eq!(gathered, dnf[0]);
    }

    #[test]
    fn conjunct_leaf_refs_reports_unsatisfiable_and_non_conjunctive() {
        // An empty disjunction anywhere makes the whole conjunct
        // unsatisfiable: `false`, nothing gathered past it.
        let unsat = PredicateExpr::And(vec![
            PredicateExpr::leaf(CmpOp::Ge, 1),
            PredicateExpr::Or(vec![]),
        ]);
        let mut leaves = Vec::new();
        assert!(!unsat.conjunct_leaf_refs(&mut leaves));
        // A multi-child Or is outside the conjunctive shape; the method
        // declines it (callers gate on `is_conjunctive` first).
        let wide = PredicateExpr::Or(vec![
            PredicateExpr::leaf(CmpOp::Eq, 1),
            PredicateExpr::leaf(CmpOp::Eq, 2),
        ]);
        leaves.clear();
        assert!(!wide.conjunct_leaf_refs(&mut leaves));
    }

    #[test]
    fn compound_predicate_counts() {
        let cp = CompoundPredicate::conjunction(
            col(),
            vec![
                SimplePredicate::new(CmpOp::Ge, 1),
                SimplePredicate::new(CmpOp::Le, 9),
            ],
        );
        assert_eq!(cp.predicate_count(), 2);
        assert!(cp.is_conjunctive());
    }
}
