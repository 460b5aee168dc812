//! Static join planner: orders rule bodies most-bound-first.
//!
//! For every rule and every choice of *delta position* (the body atom
//! matched against a newly derived tuple in semi-naive evaluation), the
//! planner fixes — once, at program load — the order in which the
//! remaining body atoms are joined and which argument columns are bound
//! when each of them is probed. The evaluator turns each step into either
//! a membership test (all columns bound) or a probe of a column-keyed
//! index (some columns bound), so the plan fully determines which indices
//! an evaluation can ever need: they are enumerated here and addressed by
//! dense *slot* ids, sparing the evaluator a hash lookup per probe.
//!
//! The cost model is greedy most-bound-first with exact statistics for
//! predicates defined by facts (the `makeP` EDB relations: timeline
//! orders, `gapjoin`/`gapstore` tables) and flat defaults for intensional
//! predicates. Statistics are quantized to powers of two — the planner
//! only needs order-of-magnitude selectivity. Fully bound atoms cost
//! nearly nothing and are always hoisted; otherwise the estimated
//! candidate count after index filtering decides.
//!
//! Planning is on the critical path of every guess in the `makeP` fleet
//! (one program per guess), and `makeP` emits rules in large structurally
//! identical families (same term shapes, same statistics, different
//! predicate ids). Two memoization layers keep it off the profile:
//!
//! * **within a program** — each unique *body signature* (canonicalized
//!   term structure plus statistics) is planned once ([`BodyPlan`]) and
//!   every rule sharing it keeps only its own dense index-slot table
//!   ([`RulePlans::slots`]);
//! * **across programs** — [`PlanCache`] shares whole plans between
//!   programs whose rule lists are equal up to fact content and constant
//!   values (one `makeP` guess fleet), and pools [`BodyPlan`]s across
//!   the remaining misses.

use crate::ast::{PredId, Program, Rule, Term};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cheap word-mixing hasher for the planner's internal maps (signature
/// memos, slot dedup, fact statistics). Planning happens once per
/// program but for every rule, and SipHash on multi-word keys showed up
/// as the planner's single largest cost on the `makeP` fleet.
#[derive(Default)]
struct FxWords(u64);

impl FxWords {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxWords {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxWords>>;
type FxSet<T> = HashSet<T, BuildHasherDefault<FxWords>>;

/// The slot value meaning "this step probes no index" (fully bound, or a
/// column set that cannot be bitmask-keyed).
pub const NO_SLOT: u32 = u32::MAX;

/// One join step: probe body atom `pos` with `cols` bound. The index slot
/// probed, if any, lives in the owning rule's [`RulePlans::slots`] (steps
/// are shared between rules, slots are not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// The body position being solved at this step.
    pub pos: usize,
    /// The argument columns (positions) whose values are known when the
    /// probe happens: constants in the pattern plus already-bound
    /// variables. Sorted ascending.
    pub cols: Vec<u8>,
    /// Whether *every* argument is known — the probe degenerates to a
    /// membership test on the tuple arena.
    pub fully_bound: bool,
}

/// The join order for one (rule, delta-position) pair.
#[derive(Debug, Clone, Default)]
pub struct DeltaPlan {
    /// The remaining body atoms in join order (the delta atom itself is
    /// excluded — it is matched first, against the new tuple).
    pub steps: Vec<JoinStep>,
}

/// The join orders of one *body shape*, shared by every rule whose body
/// has the same canonical term structure and statistics.
#[derive(Debug, Clone, Default)]
pub struct BodyPlan {
    /// `per_delta[bi]` is the plan when body atom `bi` is the delta.
    pub per_delta: Vec<DeltaPlan>,
    /// Flat step offset of each delta position into a rule's
    /// [`RulePlans::slots`] table.
    offsets: Vec<usize>,
    /// Total steps across all delta positions (a rule's slot-table size).
    n_steps: usize,
}

impl BodyPlan {
    /// The slot table range of delta position `bi`.
    #[inline]
    pub fn slot_offset(&self, bi: usize) -> usize {
        self.offsets[bi]
    }
}

/// All plans of one rule: a shared [`BodyPlan`] plus the rule's own
/// index-slot table.
#[derive(Debug, Clone, Default)]
pub struct RulePlans {
    /// Index of the shared body plan in [`Plan::body_plan`].
    pub body_plan: usize,
    /// Dense index-slot per step, flattened over delta positions
    /// (`slots[body.slot_offset(bi) + si]` pairs with
    /// `body.per_delta[bi].steps[si]`); [`NO_SLOT`] for membership tests
    /// and unindexable column sets.
    pub slots: Vec<u32>,
    /// One more than the largest variable id in the rule (substitution
    /// buffer size).
    pub n_vars: usize,
    /// The distinct predicates of the rule's body. If any of them has an
    /// empty relation the rule cannot fire this round — the evaluator
    /// checks this before any join work.
    pub body_preds: Vec<PredId>,
}

/// A join index required by some plan step: a predicate and the bound
/// columns (ascending) the probes key on.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// The indexed predicate.
    pub pred: PredId,
    /// The key columns, ascending.
    pub cols: Vec<u8>,
}

/// Default estimated relation size for intensional predicates.
const DEFAULT_SIZE: f64 = 256.0;
/// Default estimated distinct values per column for intensional
/// predicates.
const DEFAULT_DISTINCT: f64 = 8.0;

/// Per-predicate statistics driving the cost model. Sizes and distinct
/// counts are quantized to powers of two: the greedy planner only needs
/// order-of-magnitude selectivity, and coarse stats let structurally
/// identical rules over same-shaped relations share one memoized plan.
#[derive(Debug, Clone)]
struct PredStats {
    /// Estimated number of tuples.
    size: f64,
    /// Reciprocal of the estimated distinct values per column (the cost
    /// model only ever divides by distinct counts).
    inv_distinct: Vec<f64>,
}

/// The static plan for a whole program.
#[derive(Debug, Clone)]
pub struct Plan {
    rules: Vec<RulePlans>,
    body_plans: Vec<Arc<BodyPlan>>,
    indices: Vec<IndexSpec>,
    /// For each predicate, every (rule, body position) where it occurs —
    /// the semi-naive "uses" of a delta atom. Predicates past the end of
    /// the vector (possible for fact-only predicates of a cache-shared
    /// program) have no uses.
    uses: Vec<Vec<(u32, u32)>>,
    max_vars: usize,
    /// The statistics the rules were planned with; an extension plan
    /// ([`PlanCache::plan_extension`]) is planned with its base's.
    stats: Vec<PredStats>,
}

/// The bitmask of a sorted column set (all columns < 64).
fn colmask(cols: &[u8]) -> u64 {
    cols.iter().fold(0u64, |m, &c| m | (1u64 << c))
}

/// Whether a column set can be served by a bitmask-keyed index.
fn indexable(cols: &[u8]) -> bool {
    !cols.is_empty() && cols.iter().all(|&c| c < 64)
}

/// Cross-program pool of [`BodyPlan`]s keyed by body signature. One
/// `makeP` fleet produces many structurally overlapping programs even
/// when their rule lists differ; the pool plans every body shape once per
/// [`PlanCache`] lifetime.
#[derive(Default)]
struct BodyPool {
    entries: FxMap<u64, Vec<PoolEntry>>,
}

struct PoolEntry {
    sig: Vec<u64>,
    body: Arc<BodyPlan>,
}

impl Plan {
    /// Computes the plan for `program` (once per load; evaluation only
    /// reads it).
    pub fn new(program: &Program) -> Plan {
        Plan::new_in(program, &mut BodyPool::default())
    }

    /// Computes the plan for `program`, drawing memoized body plans from
    /// (and contributing new ones to) `pool`.
    fn new_in(program: &Program, pool: &mut BodyPool) -> Plan {
        Plan::build(
            program.rules(),
            collect_stats(program),
            pool,
            FxMap::default(),
            Vec::new(),
        )
    }

    /// Plans `rules` as an *extension* of `base`: the rules are indexed
    /// from 0 in their own list, but index slots live in `base`'s slot
    /// space — a probe `base` already indexes reuses its slot (and so the
    /// index a saturated base database already holds), and new probes get
    /// slots numbered after `base`'s. [`Plan::indices`] of the result is
    /// `base`'s list followed by the new specs.
    fn extension_in(base: &Plan, rules: &[Rule], pool: &mut BodyPool) -> Plan {
        let slot_ids = base
            .indices
            .iter()
            .enumerate()
            .map(|(s, spec)| ((spec.pred, colmask(&spec.cols)), s as u32))
            .collect();
        Plan::build(
            rules,
            base.stats.clone(),
            pool,
            slot_ids,
            base.indices.clone(),
        )
    }

    /// The planner proper, over `rules` with fixed statistics, continuing
    /// the slot table `slot_ids`/`indices`.
    fn build(
        rules: &[Rule],
        stats: Vec<PredStats>,
        pool: &mut BodyPool,
        mut slot_ids: FxMap<(PredId, u64), u32>,
        mut indices: Vec<IndexSpec>,
    ) -> Plan {
        let mut body_plans: Vec<Arc<BodyPlan>> = Vec::new();
        // This plan's body-plan ids per pooled signature, and a
        // per-flat-step (predicate → slot) memo: rules sharing a body
        // plan mostly probe the same predicates (the glue EDB relations
        // of their family), so the memo turns most slot lookups into one
        // comparison. Both are plan-local — slot ids are.
        let mut local_ids: FxMap<u64, Vec<(usize, usize)>> = FxMap::default();
        let mut step_memos: Vec<Vec<(PredId, u32)>> = Vec::new();
        let mut uses: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut max_vars = 0usize;
        // Reusable planning scratch: `bound[v]` plus the list of set
        // entries for O(bound) clearing between delta positions.
        let mut bound: Vec<bool> = Vec::new();
        let mut bound_list: Vec<u32> = Vec::new();
        let mut sig: Vec<u64> = Vec::new();
        let mut canon: Vec<u32> = Vec::new();
        let rules = rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| {
                let n_vars = rule_n_vars(rule);
                max_vars = max_vars.max(n_vars);
                if bound.len() < n_vars {
                    bound.resize(n_vars, false);
                    canon.resize(n_vars, u32::MAX);
                }
                let mut body_preds: Vec<PredId> = rule.body.iter().map(|a| a.pred).collect();
                body_preds.sort_unstable_by_key(|p| p.0);
                body_preds.dedup();
                for (bi, atom) in rule.body.iter().enumerate() {
                    let p = atom.pred.0 as usize;
                    if uses.len() <= p {
                        uses.resize_with(p + 1, Vec::new);
                    }
                    uses[p].push((ri as u32, bi as u32));
                }

                let digest = body_signature(rule, &stats, &mut sig, &mut canon);
                // Resolve the signature to a plan-local body-plan id:
                // first in this plan's own table, then the cross-program
                // pool, planning from scratch only on a double miss.
                let locals = local_ids.entry(digest).or_default();
                let mut body_plan = usize::MAX;
                for &(pi, id) in locals.iter() {
                    if pool.entries[&digest][pi].sig == sig {
                        body_plan = id;
                        break;
                    }
                }
                if body_plan == usize::MAX {
                    let pooled = pool.entries.entry(digest).or_default();
                    let mut pool_idx = usize::MAX;
                    for (pi, e) in pooled.iter().enumerate() {
                        if e.sig == sig {
                            pool_idx = pi;
                            break;
                        }
                    }
                    if pool_idx == usize::MAX {
                        let mut offsets = Vec::with_capacity(rule.body.len());
                        let mut flat = 0usize;
                        let per_delta: Vec<DeltaPlan> = (0..rule.body.len())
                            .map(|bi| {
                                let dp = plan_delta(rule, bi, &stats, &mut bound, &mut bound_list);
                                for v in bound_list.drain(..) {
                                    bound[v as usize] = false;
                                }
                                offsets.push(flat);
                                flat += dp.steps.len();
                                dp
                            })
                            .collect();
                        pool_idx = pooled.len();
                        pooled.push(PoolEntry {
                            sig: sig.clone(),
                            body: Arc::new(BodyPlan {
                                per_delta,
                                offsets,
                                n_steps: flat,
                            }),
                        });
                    }
                    let body = Arc::clone(&pooled[pool_idx].body);
                    body_plan = body_plans.len();
                    locals.push((pool_idx, body_plan));
                    // An impossible predicate: every memo entry starts as
                    // a guaranteed miss.
                    step_memos.push(vec![(PredId(u32::MAX), NO_SLOT); body.n_steps]);
                    body_plans.push(body);
                }

                // The rule's own slot table: same step shapes, its own
                // body predicates.
                let bp = &body_plans[body_plan];
                let memo = &mut step_memos[body_plan];
                let mut slots = Vec::with_capacity(bp.n_steps);
                let mut fi = 0usize;
                for dp in &bp.per_delta {
                    for step in &dp.steps {
                        let slot = if step.fully_bound || !indexable(&step.cols) {
                            NO_SLOT
                        } else {
                            let pred = rule.body[step.pos].pred;
                            if memo[fi].0 == pred {
                                memo[fi].1
                            } else {
                                let s = *slot_ids
                                    .entry((pred, colmask(&step.cols)))
                                    .or_insert_with(|| {
                                        indices.push(IndexSpec {
                                            pred,
                                            cols: step.cols.clone(),
                                        });
                                        (indices.len() - 1) as u32
                                    });
                                memo[fi] = (pred, s);
                                s
                            }
                        };
                        slots.push(slot);
                        fi += 1;
                    }
                }
                RulePlans {
                    body_plan,
                    slots,
                    n_vars,
                    body_preds,
                }
            })
            .collect();
        Plan {
            rules,
            body_plans,
            indices,
            uses,
            max_vars,
            stats,
        }
    }

    /// The plans of rule `ri`.
    #[inline]
    pub fn rule(&self, ri: usize) -> &RulePlans {
        &self.rules[ri]
    }

    /// The shared body plan referenced by a [`RulePlans`].
    #[inline]
    pub fn body_plan(&self, id: usize) -> &BodyPlan {
        &self.body_plans[id]
    }

    /// Every join index any plan step can probe, in slot order.
    pub fn indices(&self) -> &[IndexSpec] {
        &self.indices
    }

    /// Every (rule, body position) in which predicate `p` occurs — where
    /// a delta atom of `p` can fire.
    #[inline]
    pub fn uses(&self, p: PredId) -> &[(u32, u32)] {
        self.uses
            .get(p.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct body shapes planned (diagnostics: how well the
    /// signature memoization compresses the program's rule families).
    pub fn n_body_plans(&self) -> usize {
        self.body_plans.len()
    }

    /// The largest `n_vars` over all rules (shared substitution buffer
    /// size).
    pub fn max_vars(&self) -> usize {
        self.max_vars
    }
}

/// Shares plans across programs with compatible rule lists, and body
/// plans across all programs it ever sees.
///
/// The `makeP` fleet evaluates one program per guess; the guess changes
/// the *facts* (which messages exist) and the message constants baked
/// into rule bodies, but plans hold only body positions, bound-column
/// sets, and (predicate, column-set) index slots — none of which can see
/// a constant's value, only that the column is bound. A plan computed for
/// one program is therefore **correct** for any program whose rule list
/// matches predicates, arities, and variable ids position for position
/// (facts, whose plans are empty, match as wildcards); the fact-derived
/// statistics only tune join-order quality. The full shape is compared on
/// every digest hit, so a reused plan is always exact, never
/// probabilistic.
///
/// Extension plans ([`PlanCache::plan_extension`]) are cached the same
/// way, keyed by the extension's rule shape *and* the identity of the
/// base plan they continue.
#[derive(Default)]
pub struct PlanCache {
    entries: FxMap<u64, Vec<CacheEntry>>,
    pool: BodyPool,
    shape_buf: Vec<u64>,
}

struct CacheEntry {
    shape: Vec<u64>,
    plan: Arc<Plan>,
    /// The base plan an extension plan continues (`None` for whole
    /// programs). Holding it keeps its address — mixed into the digest —
    /// from being reused while the entry lives.
    base: Option<Arc<Plan>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of distinct rule shapes planned so far.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether no plan has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The plan for `program`, computed on first sight of its rule shape
    /// and shared afterwards.
    pub fn plan(&mut self, program: &Program) -> Arc<Plan> {
        let digest = rules_shape(program.rules(), &mut self.shape_buf);
        self.lookup_or_plan(digest, None, |pool| Plan::new_in(program, pool))
    }

    /// The plan for `rules` evaluated as an extension of a program planned
    /// as `base` (see [`Evaluator::extend`](crate::eval::Evaluator::extend)):
    /// only `rules` is hashed, so the lookup costs the extension's size,
    /// not the base's. `base` must come from this cache or outlive the
    /// returned plan's use; slot ids continue `base`'s.
    pub fn plan_extension(&mut self, base: &Arc<Plan>, rules: &[Rule]) -> Arc<Plan> {
        let digest = rules_shape(rules, &mut self.shape_buf)
            ^ (Arc::as_ptr(base) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.lookup_or_plan(digest, Some(base), |pool| {
            Plan::extension_in(base, rules, pool)
        })
    }

    /// Returns the entry matching `shape_buf` (and `base`) under `digest`,
    /// planning and inserting it on a miss.
    fn lookup_or_plan(
        &mut self,
        digest: u64,
        base: Option<&Arc<Plan>>,
        make: impl FnOnce(&mut BodyPool) -> Plan,
    ) -> Arc<Plan> {
        if let Some(entries) = self.entries.get(&digest) {
            for e in entries {
                let same_base = match (&e.base, base) {
                    (None, None) => true,
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    _ => false,
                };
                if same_base && e.shape == self.shape_buf {
                    return Arc::clone(&e.plan);
                }
            }
        }
        let plan = Arc::new(make(&mut self.pool));
        self.entries.entry(digest).or_default().push(CacheEntry {
            shape: self.shape_buf.clone(),
            plan: Arc::clone(&plan),
            base: base.cloned(),
        });
        plan
    }
}

/// Flattens a rule list to the words that determine plan validity — per
/// non-fact rule: head and body atoms with predicate ids, arities, and
/// exact variable ids, constants collapsed to a token; facts collapse to
/// a marker (their plans are empty whatever their content). Two rule
/// lists with equal shapes produce position-for-position valid plans for
/// each other. Returns the shape's digest.
fn rules_shape(rules: &[Rule], shape: &mut Vec<u64>) -> u64 {
    shape.clear();
    let mut h = FxWords::default();
    let mut word = |shape: &mut Vec<u64>, w: u64| {
        shape.push(w);
        h.mix(w);
    };
    for rule in rules {
        if rule.is_fact() {
            word(shape, 0xFAC7);
            continue;
        }
        word(shape, 0x517e);
        for atom in std::iter::once(&rule.head).chain(&rule.body) {
            word(shape, atom.pred.0 as u64);
            word(shape, atom.terms.len() as u64);
            for t in &atom.terms {
                word(
                    shape,
                    match t {
                        Term::Var(v) => (1u64 << 32) | *v as u64,
                        Term::Const(_) => 2u64 << 32,
                    },
                );
            }
        }
    }
    h.finish()
}

/// One more than the largest variable id in `rule`.
fn rule_n_vars(rule: &Rule) -> usize {
    let mut max: Option<u32> = None;
    let mut see = |t: &Term| {
        if let Term::Var(v) = t {
            max = Some(max.map_or(*v, |m: u32| m.max(*v)));
        }
    };
    rule.head.terms.iter().for_each(&mut see);
    for a in &rule.body {
        a.terms.iter().for_each(&mut see);
    }
    max.map(|m| m as usize + 1).unwrap_or(0)
}

/// Everything `plan_delta` reads from a rule body, flattened to words:
/// per atom, its statistics (size and per-column distinct counts, as raw
/// f64 bits) and its term structure. The structure is *canonicalized* —
/// every constant becomes one token (the planner only cares that the
/// column is bound, never which value) and variables are renumbered by
/// first occurrence (only the sharing pattern matters) — so the large
/// rule families `makeP` emits collapse to a handful of signatures.
/// Rules with equal signatures get byte-identical join orders. Returns
/// the signature's digest (the memo key; equality is re-checked against
/// the words on digest hits). `canon` is caller-provided scratch mapping
/// var id → canonical id, `u32::MAX`-filled at entry and restored before
/// returning.
fn body_signature(rule: &Rule, stats: &[PredStats], sig: &mut Vec<u64>, canon: &mut [u32]) -> u64 {
    sig.clear();
    let mut h = FxWords::default();
    let mut word = |sig: &mut Vec<u64>, w: u64| {
        sig.push(w);
        h.mix(w);
    };
    let mut next = 0u32;
    let mut assigned: Vec<u32> = Vec::new();
    for atom in &rule.body {
        let st = &stats[atom.pred.0 as usize];
        word(sig, st.size.to_bits());
        for d in &st.inv_distinct {
            word(sig, d.to_bits());
        }
        word(sig, 0xa707); // atom separator
        for t in &atom.terms {
            word(
                sig,
                match t {
                    Term::Var(v) => {
                        let c = &mut canon[*v as usize];
                        if *c == u32::MAX {
                            *c = next;
                            assigned.push(*v);
                            next += 1;
                        }
                        (1u64 << 32) | *c as u64
                    }
                    Term::Const(_) => 2u64 << 32,
                },
            );
        }
    }
    for v in assigned {
        canon[v as usize] = u32::MAX;
    }
    h.finish()
}

/// Rounds a count up to a power of two (the quantization grid).
fn quantize(n: f64) -> f64 {
    (n.max(1.0) as u64).next_power_of_two() as f64
}

/// Statistics for predicates defined by facts (quantized), defaults
/// otherwise.
fn collect_stats(program: &Program) -> Vec<PredStats> {
    let n_preds = program.predicates().count();
    let mut stats: Vec<PredStats> = (0..n_preds)
        .map(|p| PredStats {
            size: quantize(DEFAULT_SIZE),
            inv_distinct: vec![
                1.0 / quantize(DEFAULT_DISTINCT);
                program.pred_arity(PredId(p as u32))
            ],
        })
        .collect();
    // Count facts and per-column distinct constants; `seen` is allocated
    // only for predicates that actually have facts.
    let mut counts = vec![0usize; n_preds];
    let mut seen: Vec<Vec<FxSet<u32>>> = vec![Vec::new(); n_preds];
    for rule in program.rules() {
        if !rule.is_fact() {
            continue;
        }
        let p = rule.head.pred.0 as usize;
        counts[p] += 1;
        if seen[p].is_empty() {
            seen[p] = vec![FxSet::default(); rule.head.terms.len()];
        }
        for (col, t) in rule.head.terms.iter().enumerate() {
            if let Term::Const(c) = t {
                seen[p][col].insert(c.0);
            }
        }
    }
    for p in 0..n_preds {
        if counts[p] > 0 {
            stats[p].size = quantize(counts[p] as f64);
            for (col, s) in seen[p].iter().enumerate() {
                stats[p].inv_distinct[col] = 1.0 / quantize(s.len() as f64);
            }
        }
    }
    stats
}

/// Greedy most-bound-first order for one (rule, delta-position) pair.
/// `bound` is caller-provided scratch (all false on entry); every variable
/// set true is pushed onto `bound_list` so the caller can clear it.
fn plan_delta(
    rule: &Rule,
    delta_pos: usize,
    stats: &[PredStats],
    bound: &mut [bool],
    bound_list: &mut Vec<u32>,
) -> DeltaPlan {
    let mut bind = |bound: &mut [bool], v: u32| {
        if !bound[v as usize] {
            bound[v as usize] = true;
            bound_list.push(v);
        }
    };
    for t in &rule.body[delta_pos].terms {
        if let Term::Var(v) = t {
            bind(bound, *v);
        }
    }
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&b| b != delta_pos).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Pick the cheapest next atom; ties resolve to the lowest body
        // position so plans are deterministic.
        let mut choice = 0usize;
        let mut best = f64::INFINITY;
        for (i, &pos) in remaining.iter().enumerate() {
            let c = cost(rule, pos, bound, stats);
            if c < best {
                best = c;
                choice = i;
            }
        }
        let pos = remaining.remove(choice);
        let atom = &rule.body[pos];
        let mut cols = Vec::with_capacity(atom.terms.len());
        let mut fully = true;
        for (col, t) in atom.terms.iter().enumerate() {
            let known = match t {
                Term::Const(_) => true,
                Term::Var(v) => bound[*v as usize],
            };
            if known {
                cols.push(col as u8);
            } else {
                fully = false;
            }
        }
        steps.push(JoinStep {
            pos,
            cols,
            fully_bound: fully,
        });
        for t in &atom.terms {
            if let Term::Var(v) = t {
                bind(bound, *v);
            }
        }
    }
    DeltaPlan { steps }
}

/// Estimated candidates to scan when probing body atom `pos` given the
/// currently bound variables.
fn cost(rule: &Rule, pos: usize, bound: &[bool], stats: &[PredStats]) -> f64 {
    let atom = &rule.body[pos];
    let st = &stats[atom.pred.0 as usize];
    let mut est = st.size;
    let mut fully = true;
    for (col, t) in atom.terms.iter().enumerate() {
        let known = match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[*v as usize],
        };
        if known {
            est *= st.inv_distinct.get(col).copied().unwrap_or(1.0);
        } else {
            fully = false;
        }
    }
    if fully {
        // A membership test beats any enumeration.
        return 0.5;
    }
    est.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Program, Term};

    /// The (step, slot) pairs of one delta position.
    fn steps_of(plan: &Plan, ri: usize, bi: usize) -> Vec<(&JoinStep, u32)> {
        let rp = plan.rule(ri);
        let bp = plan.body_plan(rp.body_plan);
        let off = bp.slot_offset(bi);
        bp.per_delta[bi]
            .steps
            .iter()
            .enumerate()
            .map(|(si, s)| (s, rp.slots[off + si]))
            .collect()
    }

    #[test]
    fn fully_bound_atoms_are_hoisted() {
        // r(X) :- p(X), q(X), edge(X, Y) with delta = edge: p and q become
        // fully bound checks and must precede nothing unbound — any order
        // of the two is fine but both are fully_bound.
        let mut prog = Program::new();
        let p = prog.predicate("p", 1);
        let q = prog.predicate("q", 1);
        let edge = prog.predicate("edge", 2);
        let r = prog.predicate("r", 1);
        let a = prog.constant("a");
        let b = prog.constant("b");
        prog.fact(edge, vec![a, b]).unwrap();
        prog.rule(
            Atom::new(r, vec![Term::Var(0)]),
            vec![
                Atom::new(p, vec![Term::Var(0)]),
                Atom::new(q, vec![Term::Var(0)]),
                Atom::new(edge, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let steps = steps_of(&plan, 1, 2); // rule 0 is the fact; delta = edge
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|(s, _)| s.fully_bound));
        assert!(steps.iter().all(|(_, slot)| *slot == NO_SLOT));
        assert_eq!(plan.rule(1).n_vars, 2);
        assert_eq!(plan.rule(1).body_preds, vec![p, q, edge]);
        // Delta uses: edge occurs at (rule 1, position 2).
        assert_eq!(plan.uses(edge), &[(1, 2)]);
        assert!(plan.uses(r).is_empty());
    }

    #[test]
    fn selective_edb_atom_ordered_after_binding_atom() {
        // goal(Y) :- big(X), link(X, Y) with delta = big: link must be
        // probed with column 0 bound.
        let mut prog = Program::new();
        let big = prog.predicate("big", 1);
        let link = prog.predicate("link", 2);
        let goal = prog.predicate("goal", 1);
        let consts: Vec<_> = (0..10).map(|i| prog.constant(&format!("c{i}"))).collect();
        for w in consts.windows(2) {
            prog.fact(link, vec![w[0], w[1]]).unwrap();
        }
        prog.rule(
            Atom::new(goal, vec![Term::Var(1)]),
            vec![
                Atom::new(big, vec![Term::Var(0)]),
                Atom::new(link, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let ri = prog.rules().len() - 1;
        let steps = steps_of(&plan, ri, 0);
        assert_eq!(steps.len(), 1);
        let (step, slot) = steps[0];
        assert_eq!(step.pos, 1);
        assert_eq!(step.cols, vec![0]);
        assert!(!step.fully_bound);
        // The probe got a dense slot, and the plan exposes its spec.
        assert_ne!(slot, NO_SLOT);
        let spec = &plan.indices()[slot as usize];
        assert_eq!(spec.pred, link);
        assert_eq!(spec.cols, vec![0]);
    }

    #[test]
    fn constants_count_as_bound_columns() {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let out = prog.predicate("out", 1);
        let a = prog.constant("a");
        let trigger = prog.predicate("t", 0);
        let _ = a;
        prog.rule(
            Atom::new(out, vec![Term::Var(0)]),
            vec![
                Atom::new(trigger, vec![]),
                Atom::new(e, vec![Term::Const(a), Term::Var(0)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let steps = steps_of(&plan, 0, 0);
        assert_eq!(steps[0].0.pos, 1);
        assert_eq!(steps[0].0.cols, vec![0]);
    }

    #[test]
    fn every_delta_position_gets_a_plan() {
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let tri = prog.predicate("tri", 3);
        prog.rule(
            Atom::new(tri, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                Atom::new(e, vec![Term::Var(2), Term::Var(0)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let rp = plan.rule(0);
        let bp = plan.body_plan(rp.body_plan);
        assert_eq!(bp.per_delta.len(), 3);
        assert_eq!(rp.body_preds, vec![e]);
        assert_eq!(plan.uses(e), &[(0, 0), (0, 1), (0, 2)]);
        for (bi, dp) in bp.per_delta.iter().enumerate() {
            assert_eq!(dp.steps.len(), 2);
            // Each remaining atom shares a variable with what is already
            // bound, so every probe has at least one bound column.
            for s in &dp.steps {
                assert_ne!(s.pos, bi);
                assert!(!s.cols.is_empty());
            }
        }
        // Both probe column sets of `e` ({0} and {1}) get distinct slots.
        assert_eq!(plan.indices().len(), 2);
        assert_eq!(plan.max_vars(), 3);
    }

    #[test]
    fn structurally_identical_rules_share_a_body_plan() {
        // Two transitive-closure-style rules over different predicates but
        // identical term shapes and statistics: one BodyPlan, two slot
        // tables (the probed predicates differ).
        let mut prog = Program::new();
        let e1 = prog.predicate("e1", 2);
        let e2 = prog.predicate("e2", 2);
        let a1 = prog.predicate("a1", 1);
        let a2 = prog.predicate("a2", 1);
        for (a, e) in [(a1, e1), (a2, e2)] {
            prog.rule(
                Atom::new(a, vec![Term::Var(1)]),
                vec![
                    Atom::new(a, vec![Term::Var(0)]),
                    Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                ],
            )
            .unwrap();
        }
        let plan = Plan::new(&prog);
        assert_eq!(plan.rule(0).body_plan, plan.rule(1).body_plan);
        assert_eq!(plan.n_body_plans(), 1);
        // Same shape, but each rule probes its own predicate's index.
        let s0 = steps_of(&plan, 0, 0)[0].1;
        let s1 = steps_of(&plan, 1, 0)[0].1;
        assert_ne!(s0, NO_SLOT);
        assert_ne!(s1, NO_SLOT);
        assert_ne!(s0, s1, "distinct predicates need distinct indices");
        assert_eq!(plan.indices().len(), 2);
    }

    #[test]
    fn shared_slots_deduplicate_identical_probes() {
        // Two rules probing the same predicate on the same column set must
        // share one index slot (even though their body plans differ).
        let mut prog = Program::new();
        let e = prog.predicate("e", 2);
        let a = prog.predicate("a", 1);
        let c = prog.predicate("c", 1);
        let b = prog.predicate("b", 2);
        prog.rule(
            Atom::new(a, vec![Term::Var(1)]),
            vec![
                Atom::new(a, vec![Term::Var(0)]),
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        prog.rule(
            Atom::new(b, vec![Term::Var(0), Term::Var(1)]),
            vec![
                Atom::new(c, vec![Term::Var(0)]),
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let plan = Plan::new(&prog);
        let slots0: Vec<u32> = plan.rule(0).slots.clone();
        let slots1: Vec<u32> = plan.rule(1).slots.clone();
        let used0: Vec<u32> = slots0.into_iter().filter(|&s| s != NO_SLOT).collect();
        let used1: Vec<u32> = slots1.into_iter().filter(|&s| s != NO_SLOT).collect();
        assert!(used0.iter().any(|s| used1.contains(s)));
    }

    #[test]
    fn plan_cache_shares_across_fact_and_constant_changes() {
        // Same rules, different fact tuples and body constants: one plan.
        let build = |fact_consts: &[&str], body_const: &str| {
            let mut prog = Program::new();
            let e = prog.predicate("e", 2);
            let out = prog.predicate("out", 1);
            let k = prog.constant(body_const);
            for w in fact_consts.windows(2) {
                let a = prog.constant(w[0]);
                let b = prog.constant(w[1]);
                prog.fact(e, vec![a, b]).unwrap();
            }
            prog.rule(
                Atom::new(out, vec![Term::Var(0)]),
                vec![Atom::new(e, vec![Term::Const(k), Term::Var(0)])],
            )
            .unwrap();
            prog
        };
        let p1 = build(&["a", "b", "c"], "a");
        let p2 = build(&["x", "y", "z"], "y");
        let mut cache = PlanCache::new();
        let plan1 = cache.plan(&p1);
        let plan2 = cache.plan(&p2);
        assert!(Arc::ptr_eq(&plan1, &plan2), "shape-equal programs share");
        assert_eq!(cache.len(), 1);
        // A structurally different program does not share.
        let mut p3 = build(&["a", "b"], "a");
        let e = p3.lookup_pred("e").unwrap();
        let out = p3.lookup_pred("out").unwrap();
        p3.rule(
            Atom::new(out, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(0)])],
        )
        .unwrap();
        let plan3 = cache.plan(&p3);
        assert!(!Arc::ptr_eq(&plan1, &plan3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pooled_body_plans_are_shared_between_cached_plans() {
        // Two programs with different rule counts still share the pooled
        // body plan of their common rule shape.
        let chain = |n: usize| {
            let mut prog = Program::new();
            let e = prog.predicate("e", 2);
            let path = prog.predicate("path", 2);
            let extra = prog.predicate("extra", 1);
            prog.rule(
                Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
                vec![
                    Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                    Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                ],
            )
            .unwrap();
            if n > 1 {
                prog.rule(
                    Atom::new(extra, vec![Term::Var(0)]),
                    vec![Atom::new(path, vec![Term::Var(0), Term::Var(0)])],
                )
                .unwrap();
            }
            prog
        };
        let p1 = chain(1);
        let p2 = chain(2);
        let mut cache = PlanCache::new();
        let plan1 = cache.plan(&p1);
        let plan2 = cache.plan(&p2);
        assert!(!Arc::ptr_eq(&plan1, &plan2), "different shapes");
        assert_eq!(cache.len(), 2);
        // The recursive rule's body plan object is pooled: same Arc.
        let b1 = plan1.body_plan(plan1.rule(0).body_plan) as *const BodyPlan;
        let b2 = plan2.body_plan(plan2.rule(0).body_plan) as *const BodyPlan;
        assert_eq!(b1, b2, "pooled body plans are shared by pointer");
    }
}
