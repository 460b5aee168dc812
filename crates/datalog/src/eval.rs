//! Indexed semi-naive bottom-up evaluation over an interned tuple arena.
//!
//! Computes the least model of a positive Datalog program. The evaluation
//! substrate is built for speed:
//!
//! * **Tuple arena** ([`arena::TupleStore`](crate::arena::TupleStore)) —
//!   every derived ground tuple is interned once and handled by a `Copy`
//!   [`AtomId`]; no `GroundAtom` is cloned on the insert path.
//! * **Column-keyed join indices** — each rule body is solved following a
//!   static [`Plan`](crate::plan::Plan); partially bound probes go through
//!   a hash index keyed on the bound columns, built lazily per
//!   (predicate, bound-column-set) and caught up incrementally from the
//!   semi-naive deltas at the start of every round.
//! * **Derivation hints** — every inserted atom records one 12-byte
//!   origin: a fact, or the (rule, delta atom, delta body position) of
//!   the firing that inserted it. [`Database::derivation`] rebuilds that
//!   firing on demand by re-running the rule's delta plan over the atoms
//!   with a smaller index; witness extraction
//!   ([`cache::schedule_from_database`](crate::cache::schedule_from_database))
//!   rebuilds only the goal's cone, and no evaluation runs twice.
//! * **Parallel delta batches** — each round's delta is expanded by
//!   `parra-search`'s [`ordered_map`] and merged sequentially in delta
//!   order, so the resulting database (and every statistic derived from
//!   it) is byte-identical for every thread count
//!   ([`Evaluator::with_threads`]).
//!
//! * **Incremental extension** — [`Evaluator::extend`] continues a
//!   saturated database with extra facts and rules by semi-naive
//!   evaluation seeded with the new facts only: the `makeP` fleet
//!   saturates its guess-invariant base once and evaluates only each
//!   guess's extension on a copy.
//!
//! The pre-rewrite engine survives as [`naive`](crate::naive) and pins
//! this one differentially (the `eval-agree` fuzz oracle).

use crate::arena::{hash_key, AtomId, TupleStore};
use crate::ast::{Const, GroundAtom, PredId, Program, Rule, Term};
use crate::plan::{DeltaPlan, Plan, NO_SLOT};
use parra_limits::{InterruptReason, ResourceBudget};
use parra_obs::{Counter, Phase, PhaseTimer, Recorder};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Hasher for keys that are already well-mixed 64-bit hashes (the FNV
/// digests produced by [`hash_key`]): a single multiply-xor finisher
/// instead of SipHash. Probes are the evaluator's innermost loop.
#[derive(Default)]
pub struct PrehashedU64(u64);

impl Hasher for PrehashedU64 {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedU64 only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // splitmix64-style finisher: cheap, and spreads FNV's
        // low-entropy high bits into the low bits HashMap uses.
        let mut z = n.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        self.0 = z;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PrehashedU64>>;

/// A hash index over one predicate keyed by a set of bound columns.
/// Indices exist one per plan *slot* (see [`Plan::indices`]) and are
/// addressed by slot id — no hash lookup decides which index a probe
/// uses.
#[derive(Debug, Clone)]
struct ColumnIndex {
    /// The indexed predicate.
    pred: PredId,
    /// The key columns, ascending.
    cols: Vec<u8>,
    /// Key hash → matching tuples, in insertion order. Hash collisions are
    /// harmless: every candidate is re-verified against the pattern.
    map: PrehashedMap<Vec<AtomId>>,
    /// How many tuples of the predicate have been indexed (prefix of the
    /// per-predicate list); the catch-up cursor.
    upto: usize,
}

/// `Origin::delta` of a fact: no firing inserted it.
const NO_DELTA: u32 = u32::MAX;
/// `Origin::rule` of a fact passed to [`Evaluator::extend`].
const EXT_FACT: u32 = u32::MAX;

/// How an atom entered the database — its derivation hint. A fact, or
/// the firing that inserted it: the rule (id across layers), and the
/// delta atom the firing was seeded with at its body position. The rest
/// of the firing's body is rebuilt on demand ([`Database::derivation`]).
#[derive(Debug, Clone, Copy)]
struct Origin {
    /// Rule id across layers; a program fact's own rule id, or
    /// [`EXT_FACT`].
    rule: u32,
    /// The delta atom's index, or [`NO_DELTA`] for a fact.
    delta: u32,
    /// The delta atom's body position.
    pos: u32,
}

impl Origin {
    fn fact(rule: u32) -> Origin {
        Origin {
            rule,
            delta: NO_DELTA,
            pos: 0,
        }
    }
}

/// One rule list an evaluation runs and its join plan. A plain run has
/// one layer ([`Evaluator::layer`]); an extended database
/// ([`Evaluator::extend`]) has two — the program's and the extension's —
/// and rule ids of a later layer continue an earlier one's.
#[derive(Debug, Clone, Copy)]
pub struct Layer<'a> {
    /// The rules.
    pub rules: &'a [Rule],
    /// Their plan, as the evaluation used it.
    pub plan: &'a Plan,
}

/// A rebuilt derivation of one database atom ([`Database::derivation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The rule that derived the atom, by its id across the layers; for
    /// a program fact its own rule; `None` for a fact given to
    /// [`Evaluator::extend`].
    pub rule: Option<usize>,
    /// Database indices of the body atoms in body order, each smaller
    /// than the derived atom's (empty for a fact).
    pub body: Vec<usize>,
}

/// The set of derived ground atoms: an interned arena, per-predicate
/// lists, lazily built join indices, and one derivation hint per atom.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The tuple arena. [`AtomId`]s double as derivation-order indices.
    store: TupleStore,
    /// Tuples of each predicate in derivation order.
    per_pred: Vec<Vec<AtomId>>,
    /// Per atom, how it was inserted.
    origins: Vec<Origin>,
    /// Join indices in plan-slot order (see [`Plan::indices`]).
    indices: Vec<ColumnIndex>,
    /// Set when the resource governor stopped evaluation before the least
    /// model (or the goal) was reached; the database is a sound but
    /// possibly incomplete under-approximation.
    interrupted: Option<InterruptReason>,
    /// Whether evaluation ran to the least model (no early stop at a
    /// goal, no interruption) — what [`Evaluator::extend`] requires of a
    /// base.
    fixpoint: bool,
}

impl Database {
    fn new(n_preds: usize, plan: &Plan) -> Database {
        Database {
            store: TupleStore::new(),
            per_pred: vec![Vec::new(); n_preds],
            origins: Vec::new(),
            indices: plan
                .indices()
                .iter()
                .map(|spec| ColumnIndex {
                    pred: spec.pred,
                    cols: spec.cols.clone(),
                    map: PrehashedMap::default(),
                    upto: 0,
                })
                .collect(),
            interrupted: None,
            fixpoint: false,
        }
    }

    /// Why the governor stopped evaluation early, if it did. A `Some`
    /// database may be missing derivable atoms: "goal not derived" is then
    /// inconclusive, not a refutation.
    pub fn interrupted(&self) -> Option<InterruptReason> {
        self.interrupted
    }

    /// Whether `g` was derived.
    pub fn contains(&self, g: &GroundAtom) -> bool {
        self.store.lookup(g.pred, &g.args).is_some()
    }

    /// Number of derived atoms.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing was derived.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The database index of `g`, if derived. Indices are derivation
    /// order: index `i` is the `i`-th derived atom.
    pub fn index_of(&self, g: &GroundAtom) -> Option<usize> {
        self.store.lookup(g.pred, &g.args).map(AtomId::index)
    }

    /// Materializes the atom at `idx` (cold paths: witnesses, display).
    pub fn ground(&self, idx: usize) -> GroundAtom {
        self.store.ground(AtomId(idx as u32))
    }

    /// The predicate of the atom at `idx`.
    pub fn pred_of(&self, idx: usize) -> PredId {
        self.store.pred(AtomId(idx as u32))
    }

    /// All derived atoms in derivation order, materialized.
    pub fn iter(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        (0..self.len()).map(|i| self.ground(i))
    }

    /// The atoms of a predicate, in derivation order.
    pub fn of_pred(&self, p: PredId) -> impl Iterator<Item = AtomId> + '_ {
        self.per_pred
            .get(p.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Rebuilds the derivation of the atom at `idx` from its hint.
    /// `layers` must be the rule lists and plans the evaluation that
    /// built this database ran ([`Evaluator::layer`], plus the extension
    /// for a database from [`Evaluator::extend`]).
    ///
    /// The hinted rule's delta plan is re-run, seeded with the recorded
    /// delta atom and with the head bound to atom `idx`, over candidates
    /// with an index below `idx` only; the first firing found is
    /// returned. One exists: the firing that inserted the atom read only
    /// atoms present when its round began, and all of those precede it.
    /// `None` means no such firing exists — an engine bug — or `idx` is
    /// out of range.
    pub fn derivation(&self, idx: usize, layers: &[Layer]) -> Option<Derivation> {
        let origin = *self.origins.get(idx)?;
        if origin.delta == NO_DELTA {
            return Some(Derivation {
                rule: (origin.rule != EXT_FACT).then_some(origin.rule as usize),
                body: Vec::new(),
            });
        }
        let mut ri = origin.rule as usize;
        let mut layer = None;
        for l in layers {
            if ri < l.rules.len() {
                layer = Some(l);
                break;
            }
            ri -= l.rules.len();
        }
        let layer = layer?;
        let rule = &layer.rules[ri];
        let plans = layer.plan.rule(ri);
        let bi = origin.pos as usize;
        let body = layer.plan.body_plan(plans.body_plan);
        let dp = &body.per_delta[bi];
        let slots = &plans.slots[body.slot_offset(bi)..][..dp.steps.len()];
        let counters = Counters::disabled();
        let mut found = None;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            if scratch.subst.len() < plans.n_vars {
                scratch.subst.resize(plans.n_vars, None);
            }
            scratch.used.clear();
            scratch.used.resize(rule.body.len(), 0);
            let delta = AtomId(origin.delta);
            // Binding the head first makes every firing found derive
            // atom `idx`, and prunes the join to it.
            if match_pattern(self, &rule.head, AtomId(idx as u32), scratch)
                && match_pattern(self, &rule.body[bi], delta, scratch)
            {
                scratch.used[bi] = delta.index();
                join_steps(
                    self,
                    rule,
                    dp,
                    slots,
                    0,
                    idx as u32,
                    scratch,
                    &counters,
                    &mut |s: &JoinScratch| {
                        found = Some(s.used.clone());
                        true
                    },
                );
            }
            unwind(scratch, 0);
        });
        found.map(|body| Derivation {
            rule: Some(origin.rule as usize),
            body,
        })
    }

    /// The underlying tuple arena.
    pub fn arena(&self) -> &TupleStore {
        &self.store
    }

    /// Whether evaluation reached the least model: it neither stopped at
    /// its goal nor was interrupted.
    pub fn is_fixpoint(&self) -> bool {
        self.fixpoint
    }

    fn insert(&mut self, pred: PredId, args: &[Const], origin: Origin) -> Option<AtomId> {
        let (id, fresh) = self.store.intern(pred, args);
        if !fresh {
            return None;
        }
        self.per_pred[pred.0 as usize].push(id);
        self.origins.push(origin);
        Some(id)
    }

    /// Catches every index up with its predicate's tuple list; returns the
    /// number of indices materialized for the first time (they saw their
    /// first tuples).
    fn catch_up_indices(&mut self) -> u64 {
        let store = &self.store;
        let mut built = 0u64;
        let mut key: Vec<Const> = Vec::new();
        for ix in &mut self.indices {
            let list = &self.per_pred[ix.pred.0 as usize];
            if ix.upto == list.len() {
                continue;
            }
            if ix.upto == 0 {
                built += 1;
            }
            for &id in &list[ix.upto..] {
                key.clear();
                let args = store.args(id);
                for &c in &ix.cols {
                    key.push(args[c as usize]);
                }
                ix.map.entry(hash_key(&key)).or_default().push(id);
            }
            ix.upto = list.len();
        }
        built
    }

    /// The candidates of an index probe (empty if the key has no tuples).
    #[inline]
    fn probe(&self, slot: u32, key_hash: u64) -> &[AtomId] {
        self.indices[slot as usize]
            .map
            .get(&key_hash)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The head tuples one delta item produced, merged sequentially. Their
/// arguments share one buffer, so a delta item allocates per batch, not
/// per candidate.
#[derive(Default)]
struct Batch {
    /// Per head: the firing's hint (recorded if the tuple is new), the
    /// predicate, and where its arguments end in `args`.
    heads: Vec<(Origin, PredId, usize)>,
    args: Vec<Const>,
}

impl Batch {
    /// The heads in production order, with their arguments.
    fn iter(&self) -> impl Iterator<Item = (Origin, PredId, &[Const])> {
        self.heads.iter().scan(0, |start, &(origin, pred, end)| {
            let args = &self.args[*start..end];
            *start = end;
            Some((origin, pred, args))
        })
    }
}

/// The evaluator's hot-loop counters (near-no-ops when the recorder is
/// disabled).
struct Counters {
    fired: Counter,
    joins: Counter,
    index_builds: Counter,
    index_hits: Counter,
}

impl Counters {
    fn of(rec: &Recorder) -> Counters {
        Counters {
            fired: rec.counter("rules_fired"),
            joins: rec.counter("join_attempts"),
            index_builds: rec.counter("index_builds"),
            index_hits: rec.counter("index_hits"),
        }
    }

    /// Counters that record nothing: rebuilding a derivation is not
    /// evaluation work.
    fn disabled() -> Counters {
        Counters::of(&Recorder::disabled())
    }
}

/// Why [`Evaluator::extend`] refused an extension: continuing from the
/// base database would not be complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtendError {
    /// The base database is not a least model (interrupted, or stopped
    /// early at a goal), so base rules may still have work to do.
    BaseNotSaturated,
    /// Extension rule `rule` reads only predicates the base model already
    /// has atoms of, so it could fire on base atoms alone — a firing
    /// seeding from the extension's facts never sees.
    ReadsOnlyBase {
        /// Index of the offending rule in the extension.
        rule: usize,
    },
    /// The extension plan does not continue the base plan's index slots.
    PlanMismatch,
}

impl fmt::Display for ExtendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtendError::BaseNotSaturated => write!(f, "base database is not a least model"),
            ExtendError::ReadsOnlyBase { rule } => write!(
                f,
                "extension rule {rule} reads no predicate that is empty in the base model"
            ),
            ExtendError::PlanMismatch => {
                write!(f, "extension plan does not continue the base plan")
            }
        }
    }
}

impl std::error::Error for ExtendError {}

/// Per-worker scratch for one delta item's rule firings. Kept in a
/// thread-local so the `makeP` fleet (thousands of delta items across
/// many small programs) allocates it once per worker thread, not once
/// per delta item.
#[derive(Default)]
struct JoinScratch {
    /// Variable bindings, indexed by variable id.
    subst: Vec<Option<Const>>,
    /// Bound-variable trail for backtracking.
    trail: Vec<u32>,
    /// The body atom (database index) matched at each body position.
    used: Vec<usize>,
    /// Instantiation buffer for keys, membership tests, and heads.
    buf: Vec<Const>,
}

thread_local! {
    /// The trail fully unwinds after every use, so `subst` is all-`None`
    /// between delta items and the scratch can be shared across programs
    /// (growing `subst` as larger plans come along).
    static SCRATCH: std::cell::RefCell<JoinScratch> =
        std::cell::RefCell::new(JoinScratch::default());
}

/// Bottom-up evaluator.
///
/// # Example
///
/// ```
/// use parra_datalog::eval::Evaluator;
/// use parra_datalog::parser::{parse_ground_atom, parse_program};
///
/// let mut prog = parse_program(
///     "edge(a, b). edge(b, c).
///      path(X, Y) :- edge(X, Y).
///      path(X, Z) :- path(X, Y), edge(Y, Z).",
/// )?;
/// let goal = parse_ground_atom(&mut prog, "path(a, c)")?;
/// assert!(Evaluator::new(&prog).query(&goal));
/// # Ok::<(), parra_datalog::parser::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p Program,
    plan: Arc<Plan>,
    rec: Recorder,
    events: bool,
    threads: usize,
    gov: ResourceBudget,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator for `program`. The join plan is computed here,
    /// once; evaluation is sequential by default.
    pub fn new(program: &'p Program) -> Evaluator<'p> {
        Evaluator::with_plan(program, Arc::new(Plan::new(program)))
    }

    /// Creates an evaluator reusing a precomputed plan — typically from a
    /// [`PlanCache`](crate::plan::PlanCache), which shares one plan across
    /// a whole guess fleet.
    ///
    /// `plan` must have been computed for a program with an identical rule
    /// list (the cache guarantees this); plans reference rules by index
    /// and body positions, so a mismatched plan derives wrong models.
    pub fn with_plan(program: &'p Program, plan: Arc<Plan>) -> Evaluator<'p> {
        Evaluator {
            program,
            plan,
            rec: Recorder::disabled(),
            events: false,
            threads: 1,
            gov: ResourceBudget::unlimited(),
        }
    }

    /// The same evaluator reporting metrics through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Evaluator<'p> {
        self.rec = rec;
        self
    }

    /// Turns per-round flight-recorder events on (off by default).
    ///
    /// Callers must only enable this for evaluations whose schedule is
    /// deterministic across thread counts — e.g. a single-guess run, or
    /// the sequential reference evaluator. A multi-guess fleet races its
    /// workers, so the set of evaluated guesses (and hence their rounds)
    /// is thread-count-dependent and would break the event-log contract.
    pub fn with_events(mut self, on: bool) -> Evaluator<'p> {
        self.events = on;
        self
    }

    /// Expands each semi-naive round's delta with `threads` workers. The
    /// database is identical for every value: workers only produce
    /// candidate tuples, and a sequential merge walking the delta in order
    /// makes every insertion decision. `1` (the default) never spawns.
    pub fn with_threads(mut self, threads: usize) -> Evaluator<'p> {
        self.threads = threads.max(1);
        self
    }

    /// The same evaluator governed by `gov`, checked once per semi-naive
    /// round. An exhausted budget stops evaluation at the round boundary
    /// and marks the returned database [`Database::interrupted`]; a run
    /// that completes is identical to an ungoverned run.
    pub fn with_governor(mut self, gov: ResourceBudget) -> Evaluator<'p> {
        self.gov = gov;
        self
    }

    /// This evaluator's program rules and plan: the layer a database from
    /// [`Evaluator::run_until`] rebuilds derivations against, and the
    /// first layer of one from [`Evaluator::extend`].
    pub fn layer(&self) -> Layer<'_> {
        Layer {
            rules: self.program.rules(),
            plan: &self.plan,
        }
    }

    /// Computes the least model, stopping early if `stop_at` is derived.
    pub fn run_until(&self, stop_at: Option<&GroundAtom>) -> Database {
        let _span = self.rec.span_debug("eval.run");
        let db = self.run_until_inner(stop_at);
        self.record_db(&db);
        db
    }

    /// Continues the saturated `base` database of this evaluator's program
    /// with `facts` and `rules` — the least model of the program extended
    /// by both (or, with `stop_at`, an early stop once it is derived).
    ///
    /// Evaluation is semi-naive seeded with `facts` only: `base` is a
    /// fixpoint of the program's rules, so every firing still missing
    /// uses an atom that is new. That covers base rules, and covers each
    /// extension rule provided it reads some predicate with no atom in
    /// `base` — checked here, not assumed. `plan` must come from
    /// over this evaluator's plan and `rules`. Derivations of the result
    /// are rebuilt against [`Evaluator::layer`] followed by `rules` and
    /// `plan`; the thread count, governor and recorder apply as in
    /// [`Evaluator::run_until`].
    ///
    /// # Errors
    ///
    /// [`ExtendError`] when continuing from `base` would be incomplete.
    pub fn extend(
        &self,
        base: &Database,
        facts: &[GroundAtom],
        rules: &[Rule],
        plan: &Plan,
        stop_at: Option<&GroundAtom>,
    ) -> Result<Database, ExtendError> {
        if !base.fixpoint {
            return Err(ExtendError::BaseNotSaturated);
        }
        for (ri, rule) in rules.iter().enumerate() {
            let fresh = rule.body.iter().any(|a| {
                base.per_pred
                    .get(a.pred.0 as usize)
                    .is_none_or(Vec::is_empty)
            });
            if !fresh {
                return Err(ExtendError::ReadsOnlyBase { rule: ri });
            }
        }
        let specs = plan.indices();
        if specs.len() < base.indices.len()
            || base
                .indices
                .iter()
                .zip(specs)
                .any(|(ix, spec)| ix.pred != spec.pred || ix.cols != spec.cols)
        {
            return Err(ExtendError::PlanMismatch);
        }
        let _span = self.rec.span_debug("eval.extend");
        let counters = Counters::of(&self.rec);
        let mut db = base.clone();
        db.fixpoint = false;
        db.indices
            .extend(specs[base.indices.len()..].iter().map(|spec| ColumnIndex {
                pred: spec.pred,
                cols: spec.cols.clone(),
                map: PrehashedMap::default(),
                upto: 0,
            }));
        let mut delta = Vec::with_capacity(facts.len());
        for f in facts {
            if let Some(id) = db.insert(f.pred, &f.args, Origin::fact(EXT_FACT)) {
                counters.fired.incr();
                delta.push(id);
            }
        }
        if stop_at.is_none_or(|g| !db.contains(g)) {
            let layers = [self.layer(), Layer { rules, plan }];
            self.saturate(&mut db, delta, &layers, stop_at, &counters);
        }
        self.record_db(&db);
        Ok(db)
    }

    /// Per-predicate atom counts and arena gauges of a finished database.
    fn record_db(&self, db: &Database) {
        if self.rec.is_enabled() {
            // Per-predicate atom counts, keyed by predicate name so traces
            // across guesses aggregate.
            for p in self.program.predicates() {
                let n = db.of_pred(p).count() as u64;
                if n > 0 {
                    self.rec
                        .counter(&format!("atoms/{}", self.program.pred_name(p)))
                        .add(n);
                }
            }
            self.rec.gauge("arena_atoms").set(db.store.len() as u64);
            self.rec
                .gauge("arena_bytes")
                .set(db.store.heap_bytes() as u64);
        }
    }

    fn run_until_inner(&self, stop_at: Option<&GroundAtom>) -> Database {
        let counters = Counters::of(&self.rec);
        let n_preds = self.program.predicates().count();
        let mut db = Database::new(n_preds, &self.plan);

        // Facts are the first delta.
        let mut delta: Vec<AtomId> = Vec::new();
        for (ri, rule) in self.program.rules().iter().enumerate() {
            if rule.is_fact() {
                let g = rule.head.to_ground();
                if let Some(id) = db.insert(g.pred, &g.args, Origin::fact(ri as u32)) {
                    counters.fired.incr();
                    delta.push(id);
                }
            }
        }
        if let Some(goal) = stop_at {
            if db.contains(goal) {
                return db;
            }
        }
        self.saturate(&mut db, delta, &[self.layer()], stop_at, &counters);
        db
    }

    /// Semi-naive rounds from `delta` until the least model of `layers`
    /// (marking `db` a fixpoint), the goal, or the governor's stop.
    fn saturate(
        &self,
        db: &mut Database,
        mut delta: Vec<AtomId>,
        layers: &[Layer],
        stop_at: Option<&GroundAtom>,
        counters: &Counters,
    ) {
        // Round-based semi-naive: expand the delta (in parallel), merge the
        // candidate tuples sequentially in delta order. Indices catch up
        // with the previous round's insertions first, so the workers only
        // ever read them. The (body predicate → rule occurrence) table
        // driving the expansion lives in the plan ([`Plan::uses`]).
        let phases = PhaseTimer::new(&self.rec);
        let mut round: u64 = 0;
        while !delta.is_empty() {
            if let Err(reason) = self.gov.check() {
                self.rec
                    .counter(&format!("eval_interrupted_{}", reason.as_str()))
                    .incr();
                db.interrupted = Some(reason);
                return;
            }
            let t0 = phases.is_enabled().then(Instant::now);
            counters.index_builds.add(db.catch_up_indices());
            if let Some(t0) = t0 {
                phases.add_us(Phase::IndexBuild, t0.elapsed().as_micros() as u64);
            }
            let t0 = phases.is_enabled().then(Instant::now);
            let batches: Vec<Batch> =
                parra_search::ordered_map(self.threads.min(delta.len()), &delta, |_w, _i, &d| {
                    self.derive_from(db, d, layers, counters)
                });
            let mut next_delta = Vec::new();
            let mut goal_hit = false;
            for (origin, pred, args) in batches.iter().flat_map(Batch::iter) {
                let hit = stop_at
                    .map(|g| g.pred == pred && g.args[..] == *args)
                    .unwrap_or(false);
                if let Some(id) = db.insert(pred, args, origin) {
                    counters.fired.incr();
                    next_delta.push(id);
                    if hit {
                        goal_hit = true;
                        break;
                    }
                }
            }
            if let Some(t0) = t0 {
                phases.add_us(Phase::Fixpoint, t0.elapsed().as_micros() as u64);
            }
            if self.events && self.rec.is_enabled() {
                self.rec.event_with(
                    "round",
                    &[
                        ("round", round.into()),
                        ("delta", delta.len().into()),
                        ("derived", next_delta.len().into()),
                        ("atoms", db.store.len().into()),
                    ],
                    &self.gov.headroom().volatile_fields(),
                );
            }
            if goal_hit {
                return;
            }
            round += 1;
            delta = next_delta;
        }
        db.fixpoint = true;
    }

    /// Computes the full least model.
    pub fn run(&self) -> Database {
        self.run_until(None)
    }

    /// `Prog ⊢ g`: query evaluation with early exit.
    pub fn query(&self, goal: &GroundAtom) -> bool {
        self.run_until(Some(goal)).contains(goal)
    }

    /// All rule firings in which the delta atom `d` participates (at every
    /// body position of its predicate, in every layer). Read-only over
    /// `db`.
    fn derive_from(
        &self,
        db: &Database,
        d: AtomId,
        layers: &[Layer],
        counters: &Counters,
    ) -> Batch {
        let pred = db.store.pred(d);
        let mut out = Batch::default();
        if layers.iter().all(|l| l.plan.uses(pred).is_empty()) {
            return out;
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // The trail fully unwinds between uses, so `subst` only ever
            // needs growing, never clearing.
            let max_vars = layers.iter().map(|l| l.plan.max_vars()).max().unwrap_or(0);
            if scratch.subst.len() < max_vars {
                scratch.subst.resize(max_vars, None);
            }
            let mut offset = 0;
            for layer in layers {
                derive_in(db, d, layer, offset, scratch, &mut out, counters);
                offset += layer.rules.len();
            }
        });
        out
    }
}

/// [`Evaluator::derive_from`] over one layer whose rule ids start at
/// `offset`.
fn derive_in(
    db: &Database,
    d: AtomId,
    layer: &Layer,
    offset: usize,
    scratch: &mut JoinScratch,
    out: &mut Batch,
    counters: &Counters,
) {
    let plan = layer.plan;
    'uses: for &(ri, bi) in plan.uses(db.store.pred(d)) {
        let rule = &layer.rules[ri as usize];
        let plans = plan.rule(ri as usize);
        // A rule with an empty body relation cannot fire: skip it
        // before any matching work.
        for p in &plans.body_preds {
            if db.per_pred[p.0 as usize].is_empty() {
                continue 'uses;
            }
        }
        scratch.used.clear();
        scratch.used.resize(rule.body.len(), 0);
        counters.joins.incr();
        if match_pattern(db, &rule.body[bi as usize], d, scratch) {
            scratch.used[bi as usize] = d.index();
            let body = plan.body_plan(plans.body_plan);
            let dp = &body.per_delta[bi as usize];
            let slots = &plans.slots[body.slot_offset(bi as usize)..][..dp.steps.len()];
            let origin = Origin {
                rule: (offset + ri as usize) as u32,
                delta: d.0,
                pos: bi,
            };
            join_steps(
                db,
                rule,
                dp,
                slots,
                0,
                u32::MAX,
                scratch,
                counters,
                &mut |s: &JoinScratch| {
                    out.args.extend_from_slice(&s.buf);
                    out.heads.push((origin, rule.head.pred, out.args.len()));
                    false
                },
            );
        }
        unwind(scratch, 0);
    }
}

/// Matches `pattern` against the stored tuple `id`, extending the
/// substitution (bindings land on the trail).
fn match_pattern(
    db: &Database,
    pattern: &crate::ast::Atom,
    id: AtomId,
    scratch: &mut JoinScratch,
) -> bool {
    if db.store.pred(id) != pattern.pred {
        return false;
    }
    let args = db.store.args(id);
    let mark = scratch.trail.len();
    for (t, c) in pattern.terms.iter().zip(args) {
        let ok = match t {
            Term::Const(k) => k == c,
            Term::Var(v) => match scratch.subst[*v as usize] {
                Some(bound) => bound == *c,
                None => {
                    scratch.subst[*v as usize] = Some(*c);
                    scratch.trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            unwind(scratch, mark);
            return false;
        }
    }
    true
}

/// Solves plan steps `si..` over atoms with an index below `below`, and
/// hands each full match to `emit` with the head tuple in `scratch.buf`
/// and the body atoms in `scratch.used`. Returns `true` as soon as
/// `emit` does (stop).
#[allow(clippy::too_many_arguments)]
fn join_steps<F: FnMut(&JoinScratch) -> bool>(
    db: &Database,
    rule: &Rule,
    dp: &DeltaPlan,
    slots: &[u32],
    si: usize,
    below: u32,
    scratch: &mut JoinScratch,
    counters: &Counters,
    emit: &mut F,
) -> bool {
    if si == dp.steps.len() {
        scratch.buf.clear();
        for t in &rule.head.terms {
            scratch.buf.push(match t {
                Term::Const(c) => *c,
                Term::Var(v) => scratch.subst[*v as usize].expect("safe rule: head var bound"),
            });
        }
        return emit(scratch);
    }
    let step = &dp.steps[si];
    let pattern = &rule.body[step.pos];
    if step.fully_bound {
        // Membership test on the arena.
        scratch.buf.clear();
        for t in &pattern.terms {
            scratch.buf.push(match t {
                Term::Const(c) => *c,
                Term::Var(v) => scratch.subst[*v as usize].expect("planner: bound"),
            });
        }
        counters.joins.incr();
        if let Some(id) = db.store.lookup(pattern.pred, &scratch.buf) {
            if id.0 < below {
                scratch.used[step.pos] = id.index();
                return join_steps(db, rule, dp, slots, si + 1, below, scratch, counters, emit);
            }
        }
        return false;
    }
    // Candidate enumeration: an index probe on the bound columns when
    // possible, otherwise the full per-predicate list. Both are in
    // insertion order, so the first candidate at or past `below` ends it.
    let slot = slots[si];
    let candidates: &[AtomId] = if slot != NO_SLOT {
        scratch.buf.clear();
        for &c in &step.cols {
            scratch.buf.push(match &pattern.terms[c as usize] {
                Term::Const(k) => *k,
                Term::Var(v) => scratch.subst[*v as usize].expect("planner: bound col"),
            });
        }
        counters.index_hits.incr();
        db.probe(slot, hash_key(&scratch.buf))
    } else {
        &db.per_pred[pattern.pred.0 as usize]
    };
    for &id in candidates {
        if id.0 >= below {
            break;
        }
        counters.joins.incr();
        let mark = scratch.trail.len();
        if match_pattern(db, pattern, id, scratch) {
            scratch.used[step.pos] = id.index();
            let stop = join_steps(db, rule, dp, slots, si + 1, below, scratch, counters, emit);
            unwind(scratch, mark);
            if stop {
                return true;
            }
        }
    }
    false
}

/// Pops trail entries down to `mark`, unbinding their variables.
fn unwind(scratch: &mut JoinScratch, mark: usize) {
    while scratch.trail.len() > mark {
        let v = scratch.trail.pop().expect("trail len checked");
        scratch.subst[v as usize] = None;
    }
}

/// The derivations of `goal`'s cone — the derivation DAG unwound from the
/// goal, rebuilt from the hints against `layers` (see
/// [`Database::derivation`]) — keyed by database index. `None` if the
/// goal was not derived or some derivation cannot be rebuilt.
pub fn derivation_cone(
    db: &Database,
    layers: &[Layer],
    goal: &GroundAtom,
) -> Option<BTreeMap<usize, Derivation>> {
    let root = db.index_of(goal)?;
    let mut cone = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if let Entry::Vacant(slot) = cone.entry(i) {
            let d = db.derivation(i, layers)?;
            stack.extend(d.body.iter().copied());
            slot.insert(d);
        }
    }
    Some(cone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term};
    use crate::naive::NaiveEvaluator;
    use std::collections::HashSet;

    /// Transitive closure over a path a → b → c → d.
    fn tc_program() -> (Program, PredId, Vec<Const>) {
        let mut p = Program::new();
        let edge = p.predicate("edge", 2);
        let path = p.predicate("path", 2);
        let names = ["a", "b", "c", "d"];
        let consts: Vec<Const> = names.iter().map(|n| p.constant(n)).collect();
        for w in consts.windows(2) {
            p.fact(edge, vec![w[0], w[1]]).unwrap();
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(edge, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(edge, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        (p, path, consts)
    }

    #[test]
    fn transitive_closure() {
        let (p, path, c) = tc_program();
        let db = Evaluator::new(&p).run();
        // paths: all i < j pairs: 6.
        assert_eq!(db.of_pred(path).count(), 6);
        assert!(db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
        assert!(!db.contains(&GroundAtom::new(path, vec![c[3], c[0]])));
    }

    #[test]
    fn query_early_exit() {
        let (p, path, c) = tc_program();
        let goal = GroundAtom::new(path, vec![c[0], c[1]]);
        assert!(Evaluator::new(&p).query(&goal));
        let bad = GroundAtom::new(path, vec![c[1], c[0]]);
        assert!(!Evaluator::new(&p).query(&bad));
    }

    #[test]
    fn exhausted_deadline_interrupts_before_fixpoint() {
        let (p, path, c) = tc_program();
        let gov = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let db = Evaluator::new(&p).with_governor(gov).run();
        assert_eq!(db.interrupted(), Some(InterruptReason::Deadline));
        // Only facts made it in before the first (checked) round.
        assert!(!db.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
    }

    #[test]
    fn generous_budget_reaches_same_fixpoint() {
        let (p, path, c) = tc_program();
        let base = Evaluator::new(&p).run();
        for threads in [1, 4] {
            let gov =
                ResourceBudget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
            let governed = Evaluator::new(&p)
                .with_threads(threads)
                .with_governor(gov)
                .run();
            assert_eq!(governed.interrupted(), None, "threads {threads}");
            assert_eq!(governed.len(), base.len(), "threads {threads}");
            assert!(governed.contains(&GroundAtom::new(path, vec![c[0], c[3]])));
        }
    }

    /// Whether `d` is a ground instance of its rule with head atom `i`
    /// and body atoms all below `i`.
    fn is_instance(db: &Database, rules: &[Rule], i: usize, d: &Derivation) -> bool {
        let Some(ri) = d.rule else {
            return d.body.is_empty();
        };
        let body: Vec<GroundAtom> = d.body.iter().map(|&j| db.ground(j)).collect();
        rules[ri].is_instance(&db.ground(i), &body) && d.body.iter().all(|&j| j < i)
    }

    #[test]
    fn derivations_are_rebuilt_from_hints() {
        let (p, path, c) = tc_program();
        let ev = Evaluator::new(&p);
        let db = ev.run();
        let layers = [ev.layer()];
        let goal = GroundAtom::new(path, vec![c[0], c[3]]);
        let idx = db.index_of(&goal).unwrap();
        let d = db.derivation(idx, &layers).unwrap();
        assert!(!d.body.is_empty());
        for i in 0..db.len() {
            let d = db.derivation(i, &layers).unwrap();
            assert!(is_instance(&db, p.rules(), i, &d), "atom {i}: {d:?}");
        }
        let cone = derivation_cone(&db, &layers, &goal).unwrap();
        assert!(cone.len() >= 4);
        // Facts have empty derivations.
        assert_eq!(
            db.derivation(0, &layers),
            Some(Derivation {
                rule: Some(0),
                body: vec![]
            })
        );
        assert!(derivation_cone(&db, &layers, &GroundAtom::new(path, vec![c[3], c[0]])).is_none());
    }

    /// The rebuild skips firings that read atoms derived after the atom:
    /// `h(a)` fires in round 0 on `e(a, c)`, `f(c)`; the join meets
    /// `e(a, b)` first, but `f(b)` only arrives three rounds later.
    #[test]
    fn derivations_read_only_earlier_atoms() {
        let mut p = Program::new();
        let [d, e, f, g0, g1, g2, h] = [
            ("d", 1),
            ("e", 2),
            ("f", 1),
            ("g0", 1),
            ("g1", 1),
            ("g2", 1),
            ("h", 1),
        ]
        .map(|(n, arity)| p.predicate(n, arity));
        let [a, b, c] = ["a", "b", "c"].map(|n| p.constant(n));
        p.fact(d, vec![a]).unwrap();
        p.fact(e, vec![a, b]).unwrap();
        p.fact(e, vec![a, c]).unwrap();
        // More `f` facts than `e` facts per key: the planner joins `e`
        // before `f`.
        for n in ["c", "x1", "x2", "x3"] {
            let k = p.constant(n);
            p.fact(f, vec![k]).unwrap();
        }
        p.fact(g0, vec![b]).unwrap();
        let (x, y) = (Term::Var(0), Term::Var(1));
        for (head, body) in [(g1, g0), (g2, g1), (f, g2)] {
            p.rule(Atom::new(head, vec![x]), vec![Atom::new(body, vec![x])])
                .unwrap();
        }
        p.rule(
            Atom::new(h, vec![x]),
            vec![
                Atom::new(d, vec![x]),
                Atom::new(e, vec![x, y]),
                Atom::new(f, vec![y]),
            ],
        )
        .unwrap();
        let ev = Evaluator::new(&p);
        let db = ev.run();
        let layers = [ev.layer()];
        let hi = db.index_of(&GroundAtom::new(h, vec![a])).unwrap();
        assert!(db.index_of(&GroundAtom::new(f, vec![b])).unwrap() > hi);
        let got = db.derivation(hi, &layers).unwrap();
        let want: Vec<usize> = [
            GroundAtom::new(d, vec![a]),
            GroundAtom::new(e, vec![a, c]),
            GroundAtom::new(f, vec![c]),
        ]
        .iter()
        .map(|g| db.index_of(g).unwrap())
        .collect();
        assert_eq!(got.body, want);
        for i in 0..db.len() {
            let d = db.derivation(i, &layers).unwrap();
            assert!(is_instance(&db, p.rules(), i, &d), "atom {i}: {d:?}");
        }
    }

    /// Rule bodies with repeated variables filter correctly.
    #[test]
    fn repeated_variables_in_body() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let loopy = p.predicate("loopy", 1);
        let a = p.constant("a");
        let b = p.constant("b");
        p.fact(e, vec![a, a]).unwrap();
        p.fact(e, vec![a, b]).unwrap();
        p.rule(
            Atom::new(loopy, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(0)])],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert!(db.contains(&GroundAtom::new(loopy, vec![a])));
        assert!(!db.contains(&GroundAtom::new(loopy, vec![b])));
    }

    /// Three-atom bodies join correctly.
    #[test]
    fn triple_join() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let tri = p.predicate("tri", 3);
        let a = p.constant("a");
        let b = p.constant("b");
        let c = p.constant("c");
        p.fact(e, vec![a, b]).unwrap();
        p.fact(e, vec![b, c]).unwrap();
        p.fact(e, vec![c, a]).unwrap();
        p.rule(
            Atom::new(tri, vec![Term::Var(0), Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(e, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
                Atom::new(e, vec![Term::Var(2), Term::Var(0)]),
            ],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert_eq!(db.of_pred(tri).count(), 3); // three rotations
    }

    /// Constants in rule bodies restrict matches.
    #[test]
    fn constants_in_body() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let from_a = p.predicate("from_a", 1);
        let a = p.constant("a");
        let b = p.constant("b");
        let c = p.constant("c");
        p.fact(e, vec![a, b]).unwrap();
        p.fact(e, vec![b, c]).unwrap();
        p.rule(
            Atom::new(from_a, vec![Term::Var(0)]),
            vec![Atom::new(e, vec![Term::Const(a), Term::Var(0)])],
        )
        .unwrap();
        let db = Evaluator::new(&p).run();
        assert!(db.contains(&GroundAtom::new(from_a, vec![b])));
        assert!(!db.contains(&GroundAtom::new(from_a, vec![c])));
    }

    /// The database is byte-identical for every thread count.
    #[test]
    fn threads_do_not_change_the_database() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let path = p.predicate("path", 2);
        let n = 12u32;
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("v{i}"))).collect();
        for i in 0..n as usize {
            for j in 0..n as usize {
                if (i + 2 * j) % 3 == 0 && i != j {
                    p.fact(e, vec![consts[i], consts[j]]).unwrap();
                }
            }
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        let ev = Evaluator::new(&p);
        let base = ev.run();
        let layers = [ev.layer()];
        let base_atoms: Vec<GroundAtom> = base.iter().collect();
        for threads in [2, 4, 7] {
            let db = Evaluator::new(&p).with_threads(threads).run();
            assert_eq!(db.len(), base.len(), "threads={threads}");
            let atoms: Vec<GroundAtom> = db.iter().collect();
            assert_eq!(atoms, base_atoms, "threads={threads}");
            for i in 0..db.len() {
                assert_eq!(
                    db.derivation(i, &layers),
                    base.derivation(i, &layers),
                    "threads={threads}"
                );
            }
        }
    }

    /// The optimized engine agrees with the naive reference on a model
    /// large enough to exercise indices and multiple rounds.
    #[test]
    fn agrees_with_naive_reference() {
        let mut p = Program::new();
        let e = p.predicate("e", 2);
        let path = p.predicate("path", 2);
        let meet = p.predicate("meet", 2);
        let n = 9u32;
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("u{i}"))).collect();
        for i in 0..n as usize {
            let j = (i * 5 + 1) % n as usize;
            if i != j {
                p.fact(e, vec![consts[i], consts[j]]).unwrap();
            }
        }
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
            vec![Atom::new(e, vec![Term::Var(0), Term::Var(1)])],
        )
        .unwrap();
        p.rule(
            Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(e, vec![Term::Var(1), Term::Var(2)]),
            ],
        )
        .unwrap();
        p.rule(
            Atom::new(meet, vec![Term::Var(1), Term::Var(2)]),
            vec![
                Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
                Atom::new(path, vec![Term::Var(0), Term::Var(2)]),
            ],
        )
        .unwrap();
        let fast = Evaluator::new(&p).run();
        let slow = NaiveEvaluator::new(&p).run();
        assert_eq!(fast.len(), slow.len());
        for g in slow.atoms() {
            assert!(fast.contains(g), "missing {g:?}");
        }
    }

    /// `extend` continues a saturated base to the least model of the
    /// extended program, and refuses a base that is not a least model or
    /// an extension rule that could fire on base atoms alone.
    #[test]
    fn extend_reaches_the_extended_least_model() {
        let (mut p, path, c) = tc_program();
        let start = p.predicate("start", 1);
        let reach = p.predicate("reach", 1);
        let plan = Arc::new(Plan::new(&p));
        let ev = Evaluator::with_plan(&p, Arc::clone(&plan));
        let base = ev.run();
        assert!(base.is_fixpoint());
        let (x, y) = (Term::Var(0), Term::Var(1));
        let rules = vec![Rule {
            head: Atom::new(reach, vec![y]),
            body: vec![Atom::new(start, vec![x]), Atom::new(path, vec![x, y])],
        }];
        let facts = vec![GroundAtom::new(start, vec![c[1]])];
        let mut cache = crate::plan::PlanCache::new();
        let ext_plan = cache.plan_extension(&plan, &rules);
        let db = ev.extend(&base, &facts, &rules, &ext_plan, None).unwrap();
        let mut full = p.clone();
        full.fact(start, vec![c[1]]).unwrap();
        full.rule(rules[0].head.clone(), rules[0].body.clone())
            .unwrap();
        let want: HashSet<GroundAtom> = Evaluator::new(&full).run().iter().collect();
        let got: HashSet<GroundAtom> = db.iter().collect();
        assert_eq!(got, want);
        assert!(db.contains(&GroundAtom::new(reach, vec![c[3]])));
        assert!(!db.contains(&GroundAtom::new(reach, vec![c[1]])));
        // Derivations rebuild across both layers; the extension's rule
        // ids follow the program's, and its facts carry no rule.
        let layers = [
            ev.layer(),
            Layer {
                rules: &rules,
                plan: &ext_plan,
            },
        ];
        let all_rules: Vec<Rule> = p.rules().iter().chain(&rules).cloned().collect();
        for i in 0..db.len() {
            let d = db.derivation(i, &layers).unwrap();
            assert!(is_instance(&db, &all_rules, i, &d), "atom {i}: {d:?}");
        }
        let start_idx = db.index_of(&facts[0]).unwrap();
        assert_eq!(db.derivation(start_idx, &layers).unwrap().rule, None);
        let reach_idx = db.index_of(&GroundAtom::new(reach, vec![c[3]])).unwrap();
        assert_eq!(
            db.derivation(reach_idx, &layers).unwrap().rule,
            Some(p.rules().len())
        );

        let base_only = vec![Rule {
            head: Atom::new(reach, vec![y]),
            body: vec![Atom::new(path, vec![x, y])],
        }];
        let plan2 = cache.plan_extension(&plan, &base_only);
        assert_eq!(
            ev.extend(&base, &[], &base_only, &plan2, None).unwrap_err(),
            ExtendError::ReadsOnlyBase { rule: 0 }
        );
        let early = ev.run_until(Some(&GroundAtom::new(path, vec![c[0], c[1]])));
        assert_eq!(
            ev.extend(&early, &facts, &rules, &ext_plan, None)
                .unwrap_err(),
            ExtendError::BaseNotSaturated
        );
    }

    /// Index metrics are emitted when a recorder is attached.
    #[test]
    fn index_counters_recorded() {
        let (p, path, c) = tc_program();
        let rec = Recorder::enabled(parra_obs::Level::Summary);
        let db = Evaluator::new(&p)
            .with_recorder(rec.clone())
            .run_until(Some(&GroundAtom::new(path, vec![c[0], c[3]])));
        assert!(!db.is_empty());
        let snap = rec.snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert!(get("rules_fired") > 0);
        assert!(get("join_attempts") > 0);
        assert!(
            get("index_builds") > 0,
            "recursive rule must build an index"
        );
        assert!(get("index_hits") > 0);
        assert!(snap.gauges.contains_key("arena_atoms"));
    }
}
