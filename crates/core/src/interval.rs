//! Exact per-attribute qualifying regions.
//!
//! Every conjunction of simple predicates over one attribute reduces to a
//! closed interval `[lo, hi]` minus a finite set of excluded points (from
//! `<>` predicates) — this is the observation behind Range Predicate
//! Encoding (Section 3.1). A compound predicate (Definition 3.3) therefore
//! reduces to a *union* of such regions.
//!
//! [`Region`] and [`RegionSet`] give exact membership tests and exact
//! uniformity-assumption selectivities. They are used for
//!
//! * the per-attribute selectivity entries appended by Algorithm 1 (the
//!   "gray" entries of Section 3.2),
//! * the disjunction-aware selectivity entries of Limited Disjunction
//!   Encoding,
//! * empirical verification of the lossless property (Definition 3.1 and
//!   Lemma 3.2) in [`crate::featurize::lossless`].

use crate::predicate::{CmpOp, SimplePredicate};
use crate::schema::AttributeDomain;

/// A closed interval `[lo, hi]` minus finitely many excluded points, over
/// one attribute's domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Points excluded by `<>` predicates (only those inside `[lo, hi]`
    /// matter).
    pub nots: Vec<f64>,
}

impl Region {
    /// The full-domain region (no predicate).
    pub fn full(domain: &AttributeDomain) -> Self {
        Region {
            lo: domain.min,
            hi: domain.max,
            nots: Vec::new(),
        }
    }

    /// Fold a conjunction of simple predicates into a region, exactly as
    /// Section 3.1 prescribes: every point/range predicate becomes a closed
    /// range (using the domain step to close open bounds), `<>` predicates
    /// are collected as excluded points.
    ///
    /// Predicates with non-numeric literals yield an empty region (they can
    /// never match after dictionary encoding, which is enforced upstream).
    pub fn from_conjunct<'a, I>(preds: I, domain: &AttributeDomain) -> Self
    where
        I: IntoIterator<Item = &'a SimplePredicate>,
    {
        let mut region = Region::empty();
        region.set_conjunct(preds, domain);
        region
    }

    /// [`Self::from_conjunct`] in place, reusing this region's storage for
    /// excluded points.
    pub(crate) fn set_conjunct<'a, I>(&mut self, preds: I, domain: &AttributeDomain)
    where
        I: IntoIterator<Item = &'a SimplePredicate>,
    {
        self.lo = domain.min;
        self.hi = domain.max;
        self.nots.clear();
        let step = domain.step();
        for p in preds {
            let Some(v) = p.value.as_f64() else {
                (self.lo, self.hi) = (1.0, 0.0);
                self.nots.clear();
                return;
            };
            match p.op {
                CmpOp::Eq => {
                    self.lo = self.lo.max(v);
                    self.hi = self.hi.min(v);
                }
                CmpOp::Ge => self.lo = self.lo.max(v),
                CmpOp::Gt => self.lo = self.lo.max(v + step),
                CmpOp::Le => self.hi = self.hi.min(v),
                CmpOp::Lt => self.hi = self.hi.min(v - step),
                CmpOp::Ne => self.nots.push(v),
            }
        }
        let (lo, hi) = (self.lo, self.hi);
        self.nots.retain(|&v| v >= lo && v <= hi);
        self.nots.sort_by(f64::total_cmp);
        self.nots.dedup();
    }

    /// A region containing no values.
    pub fn empty() -> Self {
        Region {
            lo: 1.0,
            hi: 0.0,
            nots: Vec::new(),
        }
    }

    /// True if the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Exact membership test.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi && !self.nots.contains(&v)
    }

    /// Measure of the region with respect to the domain: number of integers
    /// for integral domains (minus excluded points), interval length for
    /// real domains (excluded points have measure zero).
    pub fn measure(&self, domain: &AttributeDomain) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        if domain.integral {
            let lo = self.lo.ceil();
            let hi = self.hi.floor();
            if lo > hi {
                return 0.0;
            }
            let count = hi - lo + 1.0;
            let excluded = self
                .nots
                .iter()
                .filter(|&&n| n >= lo && n <= hi && n.fract() == 0.0)
                .count() as f64;
            (count - excluded).max(0.0)
        } else {
            self.hi - self.lo
        }
    }

    /// Selectivity of this region alone — **bit-identical** to
    /// `RegionSet::new(vec![self.clone()]).selectivity(domain)` without
    /// building the set. This is the hot per-attribute path of Algorithm 1
    /// (one region per attribute), where the set machinery's allocations
    /// dominated featurization.
    ///
    /// Precondition inherited from [`Region::from_conjunct`]: `nots` is
    /// sorted, deduplicated, and confined to `[lo, hi]` — exactly the
    /// state the set path's candidate filtering re-establishes, so every
    /// retained point subtracts one from the measure. Note the set path
    /// applies *no* integrality filter to the excluded points (unlike
    /// [`Region::measure`]); this replica must not either.
    pub fn selectivity(&self, domain: &AttributeDomain) -> f64 {
        let total = if domain.integral {
            domain.max - domain.min + 1.0
        } else {
            domain.max - domain.min
        };
        if total <= 0.0 {
            // Single-value domain: selectivity is 1 if that value qualifies.
            return if self.contains(domain.min) { 1.0 } else { 0.0 };
        }
        let mut measure = if self.is_empty() {
            0.0
        } else {
            Region {
                lo: self.lo,
                hi: self.hi,
                nots: Vec::new(),
            }
            .measure(domain)
        };
        if domain.integral && !self.is_empty() {
            debug_assert!(self.nots.iter().all(|&v| v >= self.lo && v <= self.hi));
            // Subtract sequentially, 1.0 at a time, to keep the float
            // arithmetic identical to `RegionSet::measure`'s loop.
            for _ in &self.nots {
                measure -= 1.0;
            }
        }
        measure = measure.max(0.0);
        (measure / total).clamp(0.0, 1.0)
    }
}

/// A union of [`Region`]s — the exact qualifying set of a compound
/// predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSet {
    regions: Vec<Region>,
}

impl RegionSet {
    /// Union of the given regions.
    pub fn new(regions: Vec<Region>) -> Self {
        RegionSet { regions }
    }

    /// The regions forming the union.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Take the regions back, e.g. to reuse their vector's allocation.
    pub(crate) fn into_regions(self) -> Vec<Region> {
        self.regions
    }

    /// A value qualifies if at least one region contains it.
    pub fn contains(&self, v: f64) -> bool {
        self.regions.iter().any(|r| r.contains(v))
    }

    /// Exact measure of the union with respect to the domain.
    ///
    /// For the interval parts we merge overlapping `[lo, hi]` ranges. A
    /// point excluded by `<>` inside some region only reduces the measure if
    /// *every* region covering it excludes it (OR semantics).
    pub fn measure(&self, domain: &AttributeDomain) -> f64 {
        let mut merged: Vec<(f64, f64)> = self
            .regions
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| (r.lo, r.hi))
            .collect();
        if merged.is_empty() {
            return 0.0;
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Merge in place. For integral domains, intervals [a, b] and
        // [b+1, c] are adjacent and must merge; for reals only true
        // overlap merges.
        let glue = if domain.integral { 1.0 } else { 0.0 };
        let mut last = 0;
        for k in 1..merged.len() {
            let (lo, hi) = merged[k];
            if lo <= merged[last].1 + glue {
                merged[last].1 = merged[last].1.max(hi);
            } else {
                last += 1;
                merged[last] = (lo, hi);
            }
        }
        merged.truncate(last + 1);
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
            // Candidate excluded points: nots lying inside the union, each
            // distinct value once (at its first occurrence). Every
            // exclusion subtracts the same 1.0, so the order they are
            // found in cannot change the result.
            for (i, r) in self.regions.iter().enumerate() {
                for (k, &v) in r.nots.iter().enumerate() {
                    let first = !r.nots[..k].contains(&v)
                        && !self.regions[..i].iter().any(|p| p.nots.contains(&v));
                    if first
                        && merged.iter().any(|&(lo, hi)| v >= lo && v <= hi)
                        && !self.contains(v)
                    {
                        total -= 1.0;
                    }
                }
            }
        }
        total.max(0.0)
    }

    /// Measure divided by the domain's total measure — the exact
    /// uniformity-assumption selectivity of the compound predicate.
    pub fn selectivity(&self, domain: &AttributeDomain) -> f64 {
        let total = if domain.integral {
            domain.max - domain.min + 1.0
        } else {
            domain.max - domain.min
        };
        if total <= 0.0 {
            // Single-value domain: selectivity is 1 if that value qualifies.
            return if self.contains(domain.min) { 1.0 } else { 0.0 };
        }
        (self.measure(domain) / total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_domain() -> AttributeDomain {
        AttributeDomain::integers(0, 99)
    }

    fn pred(op: CmpOp, v: i64) -> SimplePredicate {
        SimplePredicate::new(op, v)
    }

    #[test]
    fn full_region_covers_domain() {
        let d = int_domain();
        let r = Region::full(&d);
        assert!(r.contains(0.0));
        assert!(r.contains(99.0));
        assert_eq!(r.measure(&d), 100.0);
    }

    #[test]
    fn conjunct_folds_to_closed_range() {
        let d = int_domain();
        // 10 <= A < 20 AND A <> 15
        let r = Region::from_conjunct(
            &[
                pred(CmpOp::Ge, 10),
                pred(CmpOp::Lt, 20),
                pred(CmpOp::Ne, 15),
            ],
            &d,
        );
        assert_eq!(r.lo, 10.0);
        assert_eq!(r.hi, 19.0); // `< 20` closes to 19 on an integral domain
        assert!(r.contains(10.0));
        assert!(r.contains(19.0));
        assert!(!r.contains(15.0));
        assert!(!r.contains(20.0));
        assert_eq!(r.measure(&d), 9.0); // 10..=19 minus the excluded 15
    }

    #[test]
    fn equality_pins_both_bounds() {
        let d = int_domain();
        let r = Region::from_conjunct(&[pred(CmpOp::Eq, 42)], &d);
        assert_eq!((r.lo, r.hi), (42.0, 42.0));
        assert_eq!(r.measure(&d), 1.0);
    }

    #[test]
    fn contradictory_conjunct_is_empty() {
        let d = int_domain();
        let r = Region::from_conjunct(&[pred(CmpOp::Gt, 50), pred(CmpOp::Lt, 10)], &d);
        assert!(r.is_empty());
        assert_eq!(r.measure(&d), 0.0);
    }

    #[test]
    fn nots_outside_range_are_dropped() {
        let d = int_domain();
        let r = Region::from_conjunct(
            &[pred(CmpOp::Le, 10), pred(CmpOp::Ne, 50), pred(CmpOp::Ne, 5)],
            &d,
        );
        assert_eq!(r.nots, vec![5.0]);
    }

    #[test]
    fn real_domain_open_bounds_use_small_step() {
        let d = AttributeDomain::reals(0.0, 100.0);
        let r = Region::from_conjunct(&[pred(CmpOp::Gt, 10), pred(CmpOp::Lt, 20)], &d);
        assert!(r.lo > 10.0 && r.lo < 10.001);
        assert!(r.hi < 20.0 && r.hi > 19.999);
        let m = r.measure(&d);
        assert!((m - 10.0).abs() < 0.01, "measure {m}");
    }

    #[test]
    fn union_measure_merges_overlaps() {
        let d = int_domain();
        let set = RegionSet::new(vec![
            Region::from_conjunct(&[pred(CmpOp::Ge, 0), pred(CmpOp::Le, 10)], &d),
            Region::from_conjunct(&[pred(CmpOp::Ge, 5), pred(CmpOp::Le, 20)], &d),
        ]);
        assert_eq!(set.measure(&d), 21.0); // 0..=20
        assert!((set.selectivity(&d) - 0.21).abs() < 1e-12);
    }

    #[test]
    fn union_merges_adjacent_integer_intervals() {
        let d = int_domain();
        let set = RegionSet::new(vec![
            Region::from_conjunct(&[pred(CmpOp::Ge, 0), pred(CmpOp::Le, 10)], &d),
            Region::from_conjunct(&[pred(CmpOp::Ge, 11), pred(CmpOp::Le, 20)], &d),
        ]);
        assert_eq!(set.measure(&d), 21.0);
    }

    #[test]
    fn not_only_excluded_if_all_covering_regions_exclude() {
        let d = int_domain();
        // (0 <= A <= 10 AND A <> 5) OR (3 <= A <= 7): 5 still qualifies.
        let set = RegionSet::new(vec![
            Region::from_conjunct(
                &[pred(CmpOp::Ge, 0), pred(CmpOp::Le, 10), pred(CmpOp::Ne, 5)],
                &d,
            ),
            Region::from_conjunct(&[pred(CmpOp::Ge, 3), pred(CmpOp::Le, 7)], &d),
        ]);
        assert!(set.contains(5.0));
        assert_eq!(set.measure(&d), 11.0);

        // Both disjuncts exclude 5 => it is excluded from the union.
        let set = RegionSet::new(vec![
            Region::from_conjunct(
                &[pred(CmpOp::Ge, 0), pred(CmpOp::Le, 10), pred(CmpOp::Ne, 5)],
                &d,
            ),
            Region::from_conjunct(
                &[pred(CmpOp::Ge, 3), pred(CmpOp::Le, 7), pred(CmpOp::Ne, 5)],
                &d,
            ),
        ]);
        assert!(!set.contains(5.0));
        assert_eq!(set.measure(&d), 10.0);
    }

    #[test]
    fn empty_set_measures_zero() {
        let d = int_domain();
        let set = RegionSet::new(vec![Region::empty()]);
        assert_eq!(set.measure(&d), 0.0);
        assert_eq!(set.selectivity(&d), 0.0);
    }

    #[test]
    fn measure_agrees_with_brute_force_membership() {
        let d = int_domain();
        let set = RegionSet::new(vec![
            Region::from_conjunct(
                &[
                    pred(CmpOp::Gt, 3),
                    pred(CmpOp::Le, 30),
                    pred(CmpOp::Ne, 7),
                    pred(CmpOp::Ne, 60),
                ],
                &d,
            ),
            Region::from_conjunct(&[pred(CmpOp::Ge, 42), pred(CmpOp::Ne, 50)], &d),
        ]);
        let brute = (0..100).filter(|&v| set.contains(v as f64)).count() as f64;
        assert_eq!(set.measure(&d), brute);
    }

    #[test]
    fn single_value_domain_selectivity() {
        let d = AttributeDomain::integers(5, 5);
        let yes = RegionSet::new(vec![Region::from_conjunct(&[pred(CmpOp::Eq, 5)], &d)]);
        assert_eq!(yes.selectivity(&d), 1.0);
        let no = RegionSet::new(vec![Region::from_conjunct(&[pred(CmpOp::Eq, 6)], &d)]);
        assert_eq!(no.selectivity(&d), 0.0);
    }
}
