//! Cost-based join-order optimization, parameterized by a cardinality
//! estimator.
//!
//! This is the substrate for the paper's end-to-end experiment (Table 4):
//! the same query is optimized three times — with PostgreSQL-style
//! estimates, with the learned estimator, and with true cardinalities —
//! and the chosen plans are executed to compare runtimes.
//!
//! The optimizer is a textbook dynamic program over connected table
//! subsets (bushy plans allowed) with a hash-join cost model
//! `cost(L ⋈ R) = cost(L) + cost(R) + |L| + |R| + |L ⋈ R|`,
//! where all cardinalities come from the injected
//! [`CardinalityEstimator`]. The DP table is dense — one entry per subset
//! mask holding the subset's cardinality, its best cost and a back-pointer
//! (left input, connecting join) — and the winning [`JoinPlan`] tree is
//! built once, from the back-pointers, after the DP finishes.
//!
//! # Estimation is fallible
//!
//! Every sub-plan cardinality goes through
//! [`CardinalityEstimator::try_estimate`]; a failing estimator aborts the
//! optimization with a typed [`OptimizeError::Estimate`] naming the
//! sub-plan, instead of silently planning on garbage. (An earlier version
//! called `estimate().max(1.0)`, which swallowed every failure into the
//! least informative legal estimate — the plan choice then depended on
//! *which* sub-plans happened to fail.)
//!
//! # Sub-plan estimate caching
//!
//! Within one `optimize()` call every table subset is estimated at most
//! once by construction (the DP visits each mask once, and distinct masks
//! are distinct table sets), so no per-call memo is kept. Across calls,
//! [`Optimizer::with_cache`] installs an [`EstimateCache`] — Hyrise's
//! `CardinalityEstimationCache` design — shared across `optimize()` calls
//! (and threads) that answers sub-plans seen in earlier queries, keyed by
//! their canonical
//! [`QueryFingerprint`](qfe_core::fingerprint::QueryFingerprint). Its
//! generation protocol invalidates everything when the underlying model
//! hot-swaps.
//!
//! On a cache hit the sub-query is never materialized and never
//! featurized, and nothing is allocated; [`OptimizeStats`] reports how
//! often that happened.

use std::sync::Arc;

use qfe_core::error::EstimateError;
use qfe_core::estimator::CardinalityEstimator;
use qfe_core::fingerprint::CanonicalQuery;
use qfe_core::query::JoinPredicate;
use qfe_core::{QfeError, Query, TableId};
use qfe_obs::{NoopRecorder, Recorder};

use crate::cache::{EstimateCache, Probe};

/// Counter bumped once per sub-plan whose estimation failed (the failure
/// also surfaces as [`OptimizeError::Estimate`]; the counter exists so
/// fleet dashboards see optimizer-scope estimate failures without parsing
/// errors).
const ESTIMATE_FAIL: &str = "optimizer.estimate.fail";

/// Gauge set at the end of every `optimize()` call: percentage of sub-plan
/// estimate probes answered by either cache scope, rounded to an integer.
const CACHE_HIT_RATE_PCT: &str = "optimizer.cache.hit_rate_pct";

/// A physical plan: scans joined by binary hash joins.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinPlan {
    /// Scan one table with all its pushed-down predicates.
    Scan(TableId),
    /// Hash join of two sub-plans along `join`.
    Join {
        /// Build side.
        left: Box<JoinPlan>,
        /// Probe side.
        right: Box<JoinPlan>,
        /// The equi-join connecting the sides.
        join: JoinPredicate,
    },
}

impl JoinPlan {
    /// Tables of the plan in left-to-right order.
    pub fn tables(&self) -> Vec<TableId> {
        match self {
            JoinPlan::Scan(t) => vec![*t],
            JoinPlan::Join { left, right, .. } => {
                let mut v = left.tables();
                v.extend(right.tables());
                v
            }
        }
    }

    /// Human-readable plan rendering, e.g. `((t0 ⋈ t1) ⋈ t2)`.
    pub fn render(&self) -> String {
        match self {
            JoinPlan::Scan(t) => format!("t{}", t.0),
            JoinPlan::Join { left, right, .. } => {
                format!("({} ⋈ {})", left.render(), right.render())
            }
        }
    }
}

/// Why [`Optimizer::optimize`] gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The query itself is malformed or unsupported (no tables, too many
    /// tables, disconnected join graph).
    Query(QfeError),
    /// The estimator failed on a sub-plan. The failure is typed and named
    /// after the sub-plan's tables so callers can react per failure class
    /// instead of planning on a silently substituted estimate.
    Estimate {
        /// Tables of the sub-plan whose estimation failed.
        tables: Vec<TableId>,
        /// The estimator's own failure classification.
        error: EstimateError,
    },
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Query(e) => write!(f, "{e}"),
            OptimizeError::Estimate { tables, error } => {
                write!(f, "estimating sub-plan over tables [")?;
                for (i, t) in tables.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "t{}", t.0)?;
                }
                write!(f, "]: {error}")
            }
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizeError::Query(e) => Some(e),
            OptimizeError::Estimate { error, .. } => Some(error),
        }
    }
}

impl From<QfeError> for OptimizeError {
    fn from(e: QfeError) -> Self {
        OptimizeError::Query(e)
    }
}

/// Per-call estimation accounting of one [`Optimizer::optimize`] run.
///
/// Conservation law (asserted in tests and by `bench_optimizer`): every
/// sub-plan estimate request is exactly one of a cross-call hit or a miss
/// — `probes == call_hits + cross_hits + misses`, with `call_hits`
/// always `0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Sub-plan estimate requests issued by the dynamic program.
    pub probes: u64,
    /// Always `0`: the DP probes every table subset once, so a per-call
    /// memo could never hit and none is kept. The field stays so existing
    /// readers of the stats keep compiling.
    pub call_hits: u64,
    /// Probes answered by the shared cross-call [`EstimateCache`].
    pub cross_hits: u64,
    /// Probes that reached the estimator.
    pub misses: u64,
    /// Freshly computed estimates that were produced by a fallback stage
    /// rather than the primary estimator.
    pub fallbacks: u64,
    /// Deepest fallback chain observed among freshly computed estimates.
    pub max_fallback_depth: usize,
}

impl OptimizeStats {
    /// Probes answered without consulting the estimator.
    pub fn hits(&self) -> u64 {
        self.call_hits + self.cross_hits
    }

    /// Fraction of probes answered from either cache scope, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits() as f64 / self.probes as f64
        }
    }
}

/// The optimization result: the best plan and its estimated cost.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// Chosen plan.
    pub plan: JoinPlan,
    /// Estimated total cost under the injected estimator.
    pub cost: f64,
    /// Estimated cardinality of the full join.
    pub estimated_cardinality: f64,
    /// Estimation accounting for this call.
    pub stats: OptimizeStats,
}

/// Dynamic-programming join-order optimizer.
pub struct Optimizer<'a, E: CardinalityEstimator> {
    estimator: &'a E,
    cache: Option<Arc<EstimateCache>>,
    recorder: Arc<dyn Recorder>,
}

/// Most tables one `optimize()` call plans (the DP table has `2^n`
/// entries).
const MAX_TABLES: usize = 20;

/// Membership bits of a query's joins and predicates over one table list:
/// the restriction rules of [`subset_query`], computed once so that
/// restricting to a subset mask is a bit test per join and predicate.
struct Restriction {
    /// `(left_bit, right_bit)` of every join, parallel to `query.joins`;
    /// a side on a table outside the list has bit `0`, so that join
    /// belongs to no subset and connects no split.
    join_bits: Vec<(u32, u32)>,
    /// Bit of each predicate's table, parallel to `query.predicates`; `0`
    /// for tables outside the list, which no subset includes.
    pred_bits: Vec<u32>,
}

impl Restriction {
    fn new(query: &Query, tables: &[TableId]) -> Self {
        // A table listed twice takes its last position (the optimizer's
        // lists hold no duplicates).
        let bit = |t: TableId| {
            tables
                .iter()
                .rposition(|&x| x == t)
                .map_or(0u32, |i| 1 << i)
        };
        Restriction {
            join_bits: query
                .joins
                .iter()
                .map(|j| (bit(j.left.table), bit(j.right.table)))
                .collect(),
            pred_bits: query
                .predicates
                .iter()
                .map(|cp| bit(cp.column.table))
                .collect(),
        }
    }

    /// Overwrite `out` with `query` restricted to the tables of `mask`:
    /// those tables, the joins with both sides among them and the
    /// predicates on them. `out`'s buffers are reused.
    fn restrict_into(&self, query: &Query, tables: &[TableId], mask: u32, out: &mut Query) {
        out.tables.clear();
        out.tables.extend(
            tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t),
        );
        out.joins.clear();
        out.joins.extend(
            query
                .joins
                .iter()
                .zip(&self.join_bits)
                .filter(|(_, &(l, r))| mask & l != 0 && mask & r != 0)
                .map(|(j, _)| *j),
        );
        out.predicates.clear();
        out.predicates.extend(
            query
                .predicates
                .iter()
                .zip(&self.pred_bits)
                .filter(|(_, &b)| mask & b != 0)
                .map(|(cp, _)| cp.clone()),
        );
    }

    /// Index (into `query.joins`) of the first join with one side in
    /// `left` and the other in `right`.
    fn connecting_join(&self, left: u32, right: u32) -> Option<usize> {
        self.join_bits.iter().position(|&(l, r)| {
            (l & left != 0 && r & right != 0) || (l & right != 0 && r & left != 0)
        })
    }
}

/// Everything about one query the sub-plan loop needs, precomputed once
/// per `optimize()` call: the canonical form (for O(sub-plan-size)
/// fingerprints; its sorted table list is the one subset masks index) and
/// the restriction bits, so materializing a sub-query never scans a
/// `Vec<TableId>`.
struct SubsetCtx<'q> {
    query: &'q Query,
    canon: CanonicalQuery,
    restriction: Restriction,
}

impl<'q> SubsetCtx<'q> {
    fn new(query: &'q Query) -> Self {
        let canon = CanonicalQuery::new(query);
        let restriction = Restriction::new(query, canon.tables());
        SubsetCtx {
            query,
            canon,
            restriction,
        }
    }

    fn tables(&self) -> &[TableId] {
        self.canon.tables()
    }
}

/// One DP table entry, indexed by its table-subset mask.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Estimated cardinality of the subset (set for every estimated
    /// subset, planned or not).
    card: f64,
    /// Cost of the best plan.
    cost: f64,
    /// Back-pointer: the best plan's left input (a proper submask), the
    /// mask itself for a single-table scan, `0` while no plan is known.
    left: u32,
    /// Index into `query.joins` of the join connecting the two inputs.
    join: u32,
}

impl Entry {
    const UNPLANNED: Entry = Entry {
        card: 0.0,
        cost: 0.0,
        left: 0,
        join: 0,
    };
}

impl<'a, E: CardinalityEstimator> Optimizer<'a, E> {
    /// Create an optimizer using `estimator` for all cardinalities.
    pub fn new(estimator: &'a E) -> Self {
        Optimizer {
            estimator,
            cache: None,
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Share `cache` across `optimize()` calls: sub-plans fingerprint-equal
    /// to ones estimated earlier (by any optimizer holding the same cache)
    /// are answered without consulting the estimator. Only sound while the
    /// estimator does not change underneath the cache — tie the cache to a
    /// generation source ([`EstimateCache::with_generation_source`]) when
    /// it can.
    pub fn with_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Route optimizer metrics (estimate-failure counter, per-call cache
    /// hit-rate gauge) to `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Find the cheapest bushy hash-join plan for `query`.
    ///
    /// Supports up to 20 tables (subset DP); the paper's JOB-light queries
    /// have at most 5.
    ///
    /// # Errors
    /// [`OptimizeError::Query`] for malformed queries (no tables, more
    /// than 20 tables, disconnected join graph);
    /// [`OptimizeError::Estimate`] when the estimator fails on any
    /// sub-plan — estimation failures abort planning instead of being
    /// silently replaced.
    pub fn optimize(&self, query: &Query) -> Result<OptimizedPlan, OptimizeError> {
        if query.tables.is_empty() {
            return Err(QfeError::InvalidQuery("query accesses no table".into()).into());
        }
        let ctx = SubsetCtx::new(query);
        if ctx.tables().len() > MAX_TABLES {
            return Err(
                QfeError::UnsupportedQuery("optimizer supports at most 20 tables".into()).into(),
            );
        }
        let mut state = CallState {
            sub: Query {
                tables: Vec::new(),
                joins: Vec::new(),
                predicates: Vec::new(),
            },
            stats: OptimizeStats::default(),
        };
        let result = self.optimize_inner(&ctx, &mut state);
        self.recorder.set_gauge(
            CACHE_HIT_RATE_PCT,
            (state.stats.hit_rate() * 100.0).round() as u64,
        );
        result.map(|(plan, cost, estimated_cardinality)| OptimizedPlan {
            plan,
            cost,
            estimated_cardinality,
            stats: state.stats,
        })
    }

    /// The DP over connected subsets, on a dense table indexed by subset
    /// mask. Subsets are visited in increasing mask order (every proper
    /// submask before its superset); each is estimated before its splits
    /// are enumerated, the splits in decreasing order of the left input,
    /// and the first strictly cheaper one wins.
    fn optimize_inner(
        &self,
        ctx: &SubsetCtx<'_>,
        state: &mut CallState,
    ) -> Result<(JoinPlan, f64, f64), OptimizeError> {
        let n = ctx.tables().len();
        let mut adjacency = [0u32; MAX_TABLES];
        for &(l, r) in &ctx.restriction.join_bits {
            if l != 0 && r != 0 {
                adjacency[l.trailing_zeros() as usize] |= r;
                adjacency[r.trailing_zeros() as usize] |= l;
            }
        }

        let full = (1u32 << n) - 1;
        let mut dp = vec![Entry::UNPLANNED; 1 << n];
        for i in 0..n {
            let mask = 1u32 << i;
            let card = self.subset_estimate(ctx, state, mask)?;
            dp[mask as usize] = Entry {
                card,
                cost: card,
                left: mask,
                join: 0,
            };
        }
        for mask in 1..=full {
            if mask.is_power_of_two() || !subset_connected(mask, &adjacency) {
                continue;
            }
            let card = self.subset_estimate(ctx, state, mask)?;
            let mut best = Entry {
                card,
                ..Entry::UNPLANNED
            };
            // Splits whose left input holds the lowest bit (halving the
            // enumeration): `s` walks the submasks of the other bits.
            let low = mask & mask.wrapping_neg();
            let rest = mask ^ low;
            let mut s = rest;
            while s != 0 {
                s = (s - 1) & rest;
                let left = low | s;
                let right = mask ^ left;
                let (l, r) = (dp[left as usize], dp[right as usize]);
                if l.left == 0 || r.left == 0 {
                    continue;
                }
                let Some(join) = ctx.restriction.connecting_join(left, right) else {
                    continue;
                };
                let cost = l.cost + r.cost + l.card + r.card + card;
                if best.left == 0 || cost < best.cost {
                    best.cost = cost;
                    best.left = left;
                    best.join = join as u32;
                }
            }
            dp[mask as usize] = best;
        }

        let root = dp[full as usize];
        if root.left == 0 {
            return Err(QfeError::InvalidQuery(
                "join graph does not connect all accessed tables".into(),
            )
            .into());
        }
        Ok((build_plan(&dp, ctx, full), root.cost, root.card))
    }

    /// Estimated cardinality of the query restricted to the tables in
    /// `mask`, through the cross-call cache when one is installed,
    /// reaching the estimator only on a miss.
    fn subset_estimate(
        &self,
        ctx: &SubsetCtx<'_>,
        state: &mut CallState,
        mask: u32,
    ) -> Result<f64, OptimizeError> {
        state.stats.probes += 1;
        let mut fill = None;
        if let Some(cache) = &self.cache {
            let fp = ctx.canon.subset_fingerprint(mask);
            match cache.probe(fp) {
                Probe::Hit(card) => {
                    state.stats.cross_hits += 1;
                    return Ok(card);
                }
                Probe::Miss(token) => fill = Some((cache, fp, token)),
            }
        }
        ctx.restriction
            .restrict_into(ctx.query, ctx.tables(), mask, &mut state.sub);
        let est = match self.estimator.try_estimate(&state.sub) {
            Ok(est) => est,
            Err(error) => {
                self.recorder.incr(ESTIMATE_FAIL);
                return Err(OptimizeError::Estimate {
                    tables: std::mem::take(&mut state.sub.tables),
                    error,
                });
            }
        };
        state.stats.misses += 1;
        if est.fell_back() {
            state.stats.fallbacks += 1;
            state.stats.max_fallback_depth = state.stats.max_fallback_depth.max(est.fallback_depth);
        }
        let card = est.value;
        if let Some((cache, fp, token)) = fill {
            cache.fill(fp, est, token);
        }
        Ok(card)
    }
}

/// Rebuild the best plan for `mask` from the DP's back-pointers.
fn build_plan(dp: &[Entry], ctx: &SubsetCtx<'_>, mask: u32) -> JoinPlan {
    let e = dp[mask as usize];
    if e.left == mask {
        return JoinPlan::Scan(ctx.tables()[mask.trailing_zeros() as usize]);
    }
    JoinPlan::Join {
        left: Box::new(build_plan(dp, ctx, e.left)),
        right: Box::new(build_plan(dp, ctx, mask ^ e.left)),
        join: ctx.query.joins[e.join as usize],
    }
}

/// Per-`optimize()` mutable state: the sub-query buffer every miss
/// restricts into, and the call's [`OptimizeStats`].
struct CallState {
    sub: Query,
    stats: OptimizeStats,
}

/// The query restricted to the tables selected by `mask`: their joins and
/// predicates only. Bit `i` of `mask` selects `tables[i]`; joins and
/// predicates on tables outside `tables` are never included.
pub fn subset_query(query: &Query, tables: &[TableId], mask: u32) -> Query {
    let mut out = Query {
        tables: Vec::new(),
        joins: Vec::new(),
        predicates: Vec::new(),
    };
    Restriction::new(query, tables).restrict_into(query, tables, mask, &mut out);
    out
}

fn subset_connected(mask: u32, adjacency: &[u32]) -> bool {
    let start = mask.trailing_zeros() as usize;
    let mut reached = 1u32 << start;
    let mut frontier = reached;
    while frontier != 0 {
        let mut next = 0u32;
        let mut f = frontier;
        while f != 0 {
            let i = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adjacency[i] & mask & !reached;
        }
        reached |= next;
        frontier = next;
    }
    reached == mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::query::ColumnRef;
    use qfe_core::ColumnId;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Estimator with hardcoded per-sub-schema cardinalities, to force
    /// specific plan choices.
    struct Scripted(HashMap<Vec<TableId>, f64>);

    impl CardinalityEstimator for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn estimate(&self, query: &Query) -> f64 {
            let key = query.sub_schema().tables().to_vec();
            *self.0.get(&key).unwrap_or(&1.0)
        }
    }

    /// Estimator that counts how often the optimizer actually reaches it.
    struct Counting {
        calls: AtomicU64,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                calls: AtomicU64::new(0),
            }
        }
    }

    impl CardinalityEstimator for Counting {
        fn name(&self) -> String {
            "counting".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            10.0
        }
    }

    /// Estimator that fails on sub-schemata listed in its set.
    struct Failing(Vec<Vec<TableId>>);

    impl CardinalityEstimator for Failing {
        fn name(&self) -> String {
            "failing".into()
        }

        fn estimate(&self, query: &Query) -> f64 {
            if self.0.contains(&query.sub_schema().tables().to_vec()) {
                f64::NAN
            } else {
                10.0
            }
        }
    }

    fn chain_query(n: usize) -> Query {
        // t0 — t1 — t2 — … joined on column 0.
        Query {
            tables: (0..n).map(TableId).collect(),
            joins: (1..n)
                .map(|i| JoinPredicate {
                    left: ColumnRef::new(TableId(i - 1), ColumnId(0)),
                    right: ColumnRef::new(TableId(i), ColumnId(0)),
                })
                .collect(),
            predicates: vec![],
        }
    }

    fn t(ids: &[usize]) -> Vec<TableId> {
        ids.iter().map(|&i| TableId(i)).collect()
    }

    #[test]
    fn single_table_plan() {
        let est = Scripted(HashMap::from([(t(&[0]), 50.0)]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(1)).unwrap();
        assert_eq!(plan.plan, JoinPlan::Scan(TableId(0)));
        assert_eq!(plan.estimated_cardinality, 50.0);
        assert_eq!(plan.stats.probes, 1);
        assert_eq!(plan.stats.misses, 1);
    }

    #[test]
    fn two_table_plan() {
        let est = Scripted(HashMap::from([
            (t(&[0]), 10.0),
            (t(&[1]), 20.0),
            (t(&[0, 1]), 5.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(2)).unwrap();
        assert_eq!(plan.plan.tables().len(), 2);
        assert_eq!(plan.estimated_cardinality, 5.0);
        // cost = 10 + 20 (scans) + 10 + 20 (inputs) + 5 (output).
        assert_eq!(plan.cost, 65.0);
    }

    #[test]
    fn optimizer_prefers_selective_first_join() {
        // Chain t0-t1-t2. Joining t1⋈t2 first is much cheaper.
        let est = Scripted(HashMap::from([
            (t(&[0]), 1000.0),
            (t(&[1]), 1000.0),
            (t(&[2]), 1000.0),
            (t(&[0, 1]), 100_000.0),
            (t(&[1, 2]), 10.0),
            (t(&[0, 1, 2]), 50.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(3)).unwrap();
        // The first join executed must be t1 ⋈ t2.
        fn first_join_tables(p: &JoinPlan) -> Vec<TableId> {
            match p {
                JoinPlan::Scan(_) => vec![],
                JoinPlan::Join { left, right, .. } => {
                    let l = first_join_tables(left);
                    if !l.is_empty() {
                        return l;
                    }
                    let r = first_join_tables(right);
                    if !r.is_empty() {
                        return r;
                    }
                    let mut tables = left.tables();
                    tables.extend(right.tables());
                    tables
                }
            }
        }
        let mut first = first_join_tables(&plan.plan);
        first.sort();
        assert_eq!(first, t(&[1, 2]), "plan: {}", plan.plan.render());
    }

    #[test]
    fn misleading_estimates_produce_a_different_plan() {
        // Same query, but the estimator believes t0⋈t1 is tiny: the chosen
        // plan changes — the mechanism behind the paper's Table 4.
        let est = Scripted(HashMap::from([
            (t(&[0]), 1000.0),
            (t(&[1]), 1000.0),
            (t(&[2]), 1000.0),
            (t(&[0, 1]), 1.0),
            (t(&[1, 2]), 500_000.0),
            (t(&[0, 1, 2]), 50.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(3)).unwrap();
        assert!(
            plan.plan.render().contains("(t0 ⋈ t1)"),
            "{}",
            plan.plan.render()
        );
    }

    #[test]
    fn cross_product_is_rejected() {
        let est = Scripted(HashMap::new());
        let opt = Optimizer::new(&est);
        let mut q = chain_query(3);
        q.joins.remove(0); // disconnect t0
        let err = opt.optimize(&q).unwrap_err();
        assert!(matches!(err, OptimizeError::Query(_)), "{err}");
    }

    #[test]
    fn five_table_chain_optimizes() {
        let mut cards = HashMap::new();
        // Any subset estimate defaults to 1.0 via Scripted's fallback.
        cards.insert(t(&[0, 1, 2, 3, 4]), 42.0);
        let est = Scripted(cards);
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(5)).unwrap();
        assert_eq!(plan.plan.tables().len(), 5);
        assert_eq!(plan.estimated_cardinality, 42.0);
    }

    #[test]
    fn estimate_failure_propagates_with_subplan_context() {
        // The estimator fails on the {t1, t2} sub-plan: the optimizer must
        // surface the typed error, not plan around a substituted value.
        let est = Failing(vec![t(&[1, 2])]);
        let opt = Optimizer::new(&est);
        let err = opt.optimize(&chain_query(3)).unwrap_err();
        match err {
            OptimizeError::Estimate { tables, error } => {
                assert_eq!(tables, t(&[1, 2]));
                assert!(
                    matches!(error, EstimateError::NonFinite { .. }),
                    "{error:?}"
                );
            }
            other => panic!("expected Estimate error, got {other:?}"),
        }
    }

    #[test]
    fn estimate_failures_are_counted() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let est = Failing(vec![t(&[0])]);
        let opt = Optimizer::new(&est).with_recorder(recorder.clone());
        assert!(opt.optimize(&chain_query(2)).is_err());
        assert_eq!(recorder.counter(ESTIMATE_FAIL), 1);
    }

    #[test]
    fn stats_conserve_probes() {
        let est = Counting::new();
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(4)).unwrap();
        let s = plan.stats;
        assert_eq!(s.probes, s.call_hits + s.cross_hits + s.misses);
        // No cross-call cache installed.
        assert_eq!(s.cross_hits, 0);
        // Every miss is exactly one estimator call.
        assert_eq!(est.calls.load(Ordering::Relaxed), s.misses);
        // The chain query has no predicates, so all sub-plans of equal
        // shape are distinct (different tables) — every probe misses.
        assert_eq!(s.call_hits, 0);
    }

    #[test]
    fn cross_call_cache_answers_repeat_queries() {
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est).with_cache(cache.clone());
        let q = chain_query(3);
        let first = opt.optimize(&q).unwrap();
        let calls_after_first = est.calls.load(Ordering::Relaxed);
        assert!(calls_after_first > 0);
        let second = opt.optimize(&q).unwrap();
        // The second call is answered entirely from the cross-call cache.
        assert_eq!(est.calls.load(Ordering::Relaxed), calls_after_first);
        assert_eq!(second.stats.misses, 0);
        assert_eq!(second.stats.cross_hits, second.stats.probes);
        // And it chose the identical plan at the identical cost.
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.cost, second.cost);
        assert_eq!(first.estimated_cardinality, second.estimated_cardinality);
    }

    #[test]
    fn reordered_predicates_hit_the_cross_call_cache() {
        // Two predicates on the same column in either order: the sub-plans
        // for {t0} under both orderings fingerprint identically, so within
        // one call the estimator is asked once per distinct sub-plan even
        // without a cross-call cache.
        use qfe_core::{CmpOp, CompoundPredicate, SimplePredicate};
        let col = ColumnRef::new(TableId(0), ColumnId(1));
        let mut q = chain_query(2);
        q.predicates = vec![
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Ge, 1)]),
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Le, 9)]),
        ];
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est).with_cache(cache.clone());
        opt.optimize(&q).unwrap();

        let mut q2 = chain_query(2);
        q2.predicates = vec![
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Le, 9)]),
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Ge, 1)]),
        ];
        let calls_before = est.calls.load(Ordering::Relaxed);
        let plan = opt.optimize(&q2).unwrap();
        // Reordered predicates hit the cache filled by the first query.
        assert_eq!(est.calls.load(Ordering::Relaxed), calls_before);
        assert_eq!(plan.stats.misses, 0);
    }

    #[test]
    fn hit_rate_gauge_is_set_per_call() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est)
            .with_cache(cache)
            .with_recorder(recorder.clone());
        let q = chain_query(3);
        opt.optimize(&q).unwrap();
        assert_eq!(recorder.gauge(CACHE_HIT_RATE_PCT), 0);
        opt.optimize(&q).unwrap();
        assert_eq!(recorder.gauge(CACHE_HIT_RATE_PCT), 100);
    }

    #[test]
    fn subset_query_restricts_everything() {
        let mut q = chain_query(3);
        q.predicates.push(qfe_core::CompoundPredicate::conjunction(
            ColumnRef::new(TableId(2), ColumnId(0)),
            vec![qfe_core::SimplePredicate::new(qfe_core::CmpOp::Eq, 1)],
        ));
        let sub = subset_query(&q, &t(&[0, 1, 2]), 0b011);
        assert_eq!(sub.tables, t(&[0, 1]));
        assert_eq!(sub.joins.len(), 1);
        assert!(sub.predicates.is_empty());
    }

    #[test]
    fn subset_query_ignores_unknown_tables() {
        // Predicates and joins on tables absent from the table list are
        // excluded no matter the mask (same contract as the scan-based
        // implementation this replaced).
        let mut q = chain_query(2);
        q.predicates.push(qfe_core::CompoundPredicate::conjunction(
            ColumnRef::new(TableId(9), ColumnId(0)),
            vec![qfe_core::SimplePredicate::new(qfe_core::CmpOp::Eq, 1)],
        ));
        let sub = subset_query(&q, &t(&[0, 1]), 0b11);
        assert_eq!(sub.tables, t(&[0, 1]));
        assert!(sub.predicates.is_empty());
    }

    /// Cardinality of every table set, drawn once per set from a seeded
    /// generator over several orders of magnitude, so that float rounding
    /// of the cost sums matters.
    fn random_cards(tables: &[TableId], rng: &mut impl rand::Rng) -> HashMap<Vec<TableId>, f64> {
        let mut sorted = tables.to_vec();
        sorted.sort();
        (1u32..1 << sorted.len())
            .map(|mask| {
                let set: Vec<TableId> = sorted
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &t)| t)
                    .collect();
                let card = 1.0 + rng.gen::<f64>() * 10f64.powi(rng.gen_range(0..7));
                (set, card)
            })
            .collect()
    }

    /// The cost of every bushy plan of `mask` whose joins each have a
    /// connecting join predicate, enumerated tree by tree, with the left
    /// input holding the subset's lowest table and the cost summed as
    /// `lc + rc + |L| + |R| + |L ⋈ R|`. Empty if no plan exists.
    fn brute_force(mask: u32, joins: &[(u32, u32)], card: &dyn Fn(u32) -> f64) -> Vec<f64> {
        if mask.is_power_of_two() {
            return vec![card(mask)];
        }
        let low = mask & mask.wrapping_neg();
        let mut costs = Vec::new();
        for left in 1..mask {
            let right = mask ^ left;
            if left & mask != left || left & low == 0 {
                continue;
            }
            let connects = joins.iter().any(|&(l, r)| {
                (l & left != 0 && r & right != 0) || (l & right != 0 && r & left != 0)
            });
            if !connects {
                continue;
            }
            let (lcs, rcs) = (
                brute_force(left, joins, card),
                brute_force(right, joins, card),
            );
            for &lc in &lcs {
                for &rc in &rcs {
                    costs.push(lc + rc + card(left) + card(right) + card(mask));
                }
            }
        }
        costs
    }

    /// Recompute a plan's cost from its tree; also checks that every join
    /// node's predicate connects its two inputs.
    fn tree_cost(plan: &JoinPlan, cards: &HashMap<Vec<TableId>, f64>) -> f64 {
        let card_of = |p: &JoinPlan| {
            let mut set = p.tables();
            set.sort();
            cards[&set]
        };
        match plan {
            JoinPlan::Scan(_) => card_of(plan),
            JoinPlan::Join { left, right, join } => {
                let (lt, rt) = (left.tables(), right.tables());
                assert!(
                    (lt.contains(&join.left.table) && rt.contains(&join.right.table))
                        || (lt.contains(&join.right.table) && rt.contains(&join.left.table)),
                    "join {join:?} does not connect {}",
                    plan.render()
                );
                tree_cost(left, cards)
                    + tree_cost(right, cards)
                    + card_of(left)
                    + card_of(right)
                    + card_of(plan)
            }
        }
    }

    #[test]
    fn dp_cost_is_the_exhaustive_minimum_over_random_join_graphs() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0D9);
        let edge = |a: TableId, b: TableId, c: usize| JoinPredicate {
            left: ColumnRef::new(a, ColumnId(c)),
            right: ColumnRef::new(b, ColumnId(c + 1)),
        };
        let mut checked = 0;
        for case in 0..300 {
            let n = 2 + case % 5;
            // Sparse, shuffled table ids: bit i of a mask is the i-th
            // smallest id, not the i-th listed table.
            let mut ids: Vec<TableId> = (0..n).map(|i| TableId(3 * i + 1)).collect();
            ids.shuffle(&mut rng);
            let mut pairs: Vec<(usize, usize)> = match case / 5 % 5 {
                0 => (1..n).map(|i| (i - 1, i)).collect(),       // chain
                1 => (1..n).map(|i| (0, i)).collect(),           // star
                2 => (0..n).map(|i| (i, (i + 1) % n)).collect(), // cycle
                3 => (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .collect(), // clique
                _ => (1..n).map(|i| (rng.gen_range(0..i), i)).collect(), // random tree
            };
            // Extra edges, and duplicate edges (either orientation).
            for _ in 0..rng.gen_range(0..3) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    pairs.push((a, b));
                }
            }
            for _ in 0..rng.gen_range(0..3) {
                let &(a, b) = pairs.choose(&mut rng).unwrap();
                pairs.push(if rng.gen_bool(0.5) { (a, b) } else { (b, a) });
            }
            pairs.shuffle(&mut rng);
            let query = Query {
                tables: ids.clone(),
                joins: pairs
                    .iter()
                    .map(|&(a, b)| edge(ids[a], ids[b], rng.gen_range(0..3)))
                    .collect(),
                predicates: vec![],
            };
            let cards = random_cards(&ids, &mut rng);
            let est = Scripted(cards.clone());
            let plan = Optimizer::new(&est).optimize(&query).unwrap();

            let mut sorted = ids.clone();
            sorted.sort();
            let bit = |t: TableId| 1u32 << sorted.iter().position(|&x| x == t).unwrap();
            let joins: Vec<(u32, u32)> = query
                .joins
                .iter()
                .map(|j| (bit(j.left.table), bit(j.right.table)))
                .collect();
            let card = |mask: u32| {
                let set: Vec<TableId> = sorted
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &t)| t)
                    .collect();
                cards[&set]
            };
            let full = (1u32 << n) - 1;
            let best = brute_force(full, &joins, &card)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                plan.cost.to_bits(),
                best.to_bits(),
                "case {case}: {}",
                plan.plan.render()
            );
            assert_eq!(
                tree_cost(&plan.plan, &cards).to_bits(),
                plan.cost.to_bits(),
                "case {case}"
            );
            assert_eq!(plan.estimated_cardinality, card(full));
            let mut planned = plan.plan.tables();
            planned.sort();
            assert_eq!(planned, sorted);
            checked += 1;
        }
        assert_eq!(checked, 300);
    }
}
