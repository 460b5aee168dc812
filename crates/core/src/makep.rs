//! The `makeP` encoding (Section 4.1): safety verification → Datalog
//! query evaluation.
//!
//! `makeP` is a *non-deterministic* polynomial-time procedure: each of its
//! executions guesses the `dis` threads' part of the computation and emits
//! one Datalog query instance `(Prog, g)`; the verification instance is
//! unsafe iff some execution's instance satisfies `Prog ⊢ g` (Lemma 4.3).
//! This module enumerates the guesses explicitly.
//!
//! **A guess** ([`Guess`]) fixes, per distinguished thread, a run skeleton
//! ([`DisGuess`]): a path through its loop-free CFA, the value loaded at
//! each load/CAS on the path, a per-variable-injective integer slot for
//! each store/CAS, and whether each CAS reads an integer-timestamped
//! message (init/`dis`) or an `env` message. Guessing the skeleton keeps
//! the `dis` part of the Datalog program *deterministic* — crucial because
//! Datalog's monotone semantics would otherwise conflate mutually
//! exclusive `dis` executions (two values stored "at the same slot").
//!
//! **The program** uses the paper's predicates, spread over the abstract
//! timeline `{0, 0⁺, …, T, T⁺}` (Section 3.4):
//!
//! * `etp_s(v̄)` — an `env` thread is at control state `s` (location ×
//!   register valuation, grounded) with view `v̄` (one argument per shared
//!   variable);
//! * `emp_x_d(v̄)` / `dmp_x_d(v̄)` — an `env`/`dis` (or initial) message on
//!   `x` with value `d` and view `v̄`;
//! * `dtpᵢ_k(v̄)` — `dis` thread `i` has executed `k` steps of its guessed
//!   skeleton with view `v̄`;
//! * `goal()` — the query atom.
//!
//! Timestamp arithmetic is factored into small extensional relations
//! (`tle`, `tlt`, `tmax`, `gapjoin`, `gapstore_x`), keeping the rule set
//! polynomial in the system size — the shape behind Theorem 4.1. Rules
//! have at most two *intensional* body atoms (a thread predicate and a
//! message predicate), the property the cache bound of Lemma 4.4 exploits.
//!
//! **Base and extension.** A guess fixes only the `dis` part, so a fleet's
//! programs share everything else: [`MakeP::base`] encodes it once (all
//! predicate and constant declarations, the timeline EDB, the initial
//! `dmp`/`etp` facts, the `env` rules, the goal rules, and the
//! `gapstore_x` facts of gaps no fleet guess closes), and
//! [`MakeP::extension`] encodes one guess's rest (the `dtp` seeds, the
//! held-back `gapstore_x` facts the guess leaves open, the `dis` rules).
//! [`MakeP::program`] is base ⊕ extension. Evaluating a guess as "the
//! saturated base model, continued with the extension" is sound and
//! complete: Datalog is monotone, so the base model lies inside every
//! guess's model; held-back gaps are re-added by exactly the guesses that
//! leave them open; and every extension rule reads a `dtp` atom, of which
//! the base model has none, so no extension rule can fire on base atoms
//! alone — delta-seeded continuation from the extension's facts misses
//! nothing (see `parra_datalog::eval::Evaluator::extend`).

use parra_datalog::ast::{Atom, Const, GroundAtom, PredId, Program, Rule, Term};
use parra_obs::{Counter, Recorder};
use parra_program::cfg::{Cfa, Instr, Loc};
use parra_program::expr::RegVal;
use parra_program::ident::VarId;
use parra_program::system::ParamSystem;
use parra_program::value::Val;
use parra_simplified::state::Budget;
use parra_simplified::timestamp::ATime;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// How a guessed CAS obtains its loaded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasRead {
    /// Reads an integer-timestamped message (initial or `dis`) at slot
    /// `store_slot - 1`; the gap in between is closed for `env` stores.
    IntSlot,
    /// Reads (a clone of) an `env` message at the top of gap
    /// `store_slot - 1`.
    EnvMessage,
}

/// One step of a guessed `dis` run skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisStepGuess {
    /// The CFA edge taken.
    pub edge: usize,
    /// For loads and CAS: the value assumed to be loaded.
    pub loaded: Option<Val>,
    /// For stores and CAS: the integer slot of the written message.
    pub slot: Option<u32>,
    /// For CAS: where the loaded message comes from.
    pub cas_read: Option<CasRead>,
}

/// A guessed run skeleton for one `dis` thread: a path through its
/// loop-free CFA with resolved loads and slots. Register valuations along
/// the path are determined by the skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisGuess {
    /// The steps in order (a path from the CFA entry).
    pub steps: Vec<DisStepGuess>,
}

/// A full `makeP` guess: one skeleton per `dis` thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guess {
    /// Per-thread skeletons.
    pub dis: Vec<DisGuess>,
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub struct MakePLimits {
    /// Maximum number of guesses to enumerate.
    pub max_guesses: usize,
    /// Maximum number of grounded `env` control states (`loc × rv`).
    pub max_env_states: usize,
}

impl Default for MakePLimits {
    fn default() -> Self {
        MakePLimits {
            max_guesses: 200_000,
            max_env_states: 50_000,
        }
    }
}

/// Why the encoding is not applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MakePError {
    /// The `env` program uses CAS (undecidable class, Theorem 1.1).
    EnvHasCas,
    /// Some `dis` program has loops; unroll first (`transform::unroll_dis`).
    DisHasLoops {
        /// Index of the looping thread.
        thread: usize,
    },
    /// The grounded `env` state space exceeds the limit.
    TooManyEnvStates {
        /// The number of `loc × rv` combinations.
        states: usize,
    },
    /// Guess enumeration exceeded the limit; verdicts would be incomplete.
    TooManyGuesses,
}

impl fmt::Display for MakePError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MakePError::EnvHasCas => write!(f, "env program uses CAS"),
            MakePError::DisHasLoops { thread } => {
                write!(f, "dis thread {thread} has loops; unroll first")
            }
            MakePError::TooManyEnvStates { states } => {
                write!(f, "grounded env state space too large ({states} states)")
            }
            MakePError::TooManyGuesses => write!(f, "guess enumeration limit exceeded"),
        }
    }
}

impl std::error::Error for MakePError {}

/// What the emitted `goal()` atom captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatalogTarget {
    /// Some thread can execute `assert false`.
    AssertViolation,
    /// The goal message `(x, d, _)` is generated (Message Generation).
    MessageGenerated(VarId, Val),
}

/// The `makeP` encoder.
#[derive(Debug)]
pub struct MakeP<'s> {
    sys: &'s ParamSystem,
    budget: Budget,
    limits: MakePLimits,
    timeline: Vec<ATime>,
    rec: Recorder,
}

impl<'s> MakeP<'s> {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// Rejects systems outside the supported class (env CAS, dis loops) and
    /// blown limits.
    pub fn new(
        sys: &'s ParamSystem,
        budget: Budget,
        limits: MakePLimits,
    ) -> Result<MakeP<'s>, MakePError> {
        if !sys.env.cfa().is_cas_free() {
            return Err(MakePError::EnvHasCas);
        }
        for (i, d) in sys.dis.iter().enumerate() {
            if !d.cfa().is_acyclic() {
                return Err(MakePError::DisHasLoops { thread: i });
            }
        }
        let env_states =
            sys.env.cfa().n_locs() as usize * (sys.dom.size() as usize).pow(sys.env.n_regs());
        if env_states > limits.max_env_states {
            return Err(MakePError::TooManyEnvStates { states: env_states });
        }
        let t = budget.max_slots();
        let mut timeline = Vec::with_capacity(2 * t as usize + 2);
        for i in 0..=t {
            timeline.push(ATime::Int(i));
            timeline.push(ATime::Plus(i));
        }
        Ok(MakeP {
            sys,
            budget,
            limits,
            timeline,
            rec: Recorder::disabled(),
        })
    }

    /// The same encoder reporting metrics/spans through `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> MakeP<'s> {
        self.rec = rec;
        self
    }

    /// Enumerates all guesses (dis run skeletons with slots).
    ///
    /// # Errors
    ///
    /// Fails with [`MakePError::TooManyGuesses`] beyond the limit.
    pub fn guesses(&self) -> Result<Vec<Guess>, MakePError> {
        let span = self.rec.span("makep.guesses");
        // Per-thread skeleton candidates (paths with loaded values).
        let mut per_thread: Vec<Vec<DisGuess>> = Vec::new();
        for d in &self.sys.dis {
            per_thread.push(self.thread_skeletons(d.cfa()));
        }
        self.rec
            .counter("skeletons")
            .add(per_thread.iter().map(|v| v.len() as u64).sum());
        // Product over threads, then assign slots (injective per variable).
        let mut out: Vec<Guess> = Vec::new();
        let mut partial = Vec::new();
        self.product(&per_thread, 0, &mut partial, &mut out)?;
        self.rec.counter("guesses_enumerated").add(out.len() as u64);
        span.arg_u64("guesses", out.len() as u64);
        Ok(out)
    }

    fn product(
        &self,
        per_thread: &[Vec<DisGuess>],
        i: usize,
        partial: &mut Vec<DisGuess>,
        out: &mut Vec<Guess>,
    ) -> Result<(), MakePError> {
        if i == per_thread.len() {
            // Assign slots for all store-ish steps, injective per variable.
            return self.assign_slots(partial, out);
        }
        for skel in &per_thread[i] {
            partial.push(skel.clone());
            self.product(per_thread, i + 1, partial, out)?;
            partial.pop();
        }
        Ok(())
    }

    /// All (maximal) path skeletons of one `dis` thread: DFS over the
    /// acyclic CFA, branching on loaded values. Slots are left `None` here.
    fn thread_skeletons(&self, cfa: &Cfa) -> Vec<DisGuess> {
        let dom = self.sys.dom;
        let mut out = Vec::new();
        // DFS state: (loc, rv, steps so far).
        let mut stack: Vec<(Loc, RegVal, Vec<DisStepGuess>)> =
            vec![(cfa.entry(), RegVal::new(cfa.n_regs() as usize), Vec::new())];
        while let Some((loc, rv, steps)) = stack.pop() {
            let mut extended = false;
            for (ei, edge) in cfa.edges().iter().enumerate() {
                if edge.from != loc {
                    continue;
                }
                let mut push = |loaded: Option<Val>, rv2: RegVal| {
                    let mut s2 = steps.clone();
                    s2.push(DisStepGuess {
                        edge: ei,
                        loaded,
                        slot: None,
                        cas_read: None,
                    });
                    stack.push((edge.to, rv2, s2));
                };
                match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => {
                        push(None, rv.clone());
                        extended = true;
                    }
                    Instr::Assume(e) => {
                        if e.eval(&rv, dom).as_bool() {
                            push(None, rv.clone());
                            extended = true;
                        }
                    }
                    Instr::Assign(r, e) => {
                        let mut rv2 = rv.clone();
                        rv2.set(*r, e.eval(&rv, dom));
                        push(None, rv2);
                        extended = true;
                    }
                    Instr::Load(r, _) => {
                        for d in dom.iter() {
                            let mut rv2 = rv.clone();
                            rv2.set(*r, d);
                            push(Some(d), rv2);
                        }
                        extended = true;
                    }
                    Instr::Store(..) => {
                        push(None, rv.clone());
                        extended = true;
                    }
                    Instr::Cas(_, e1, _) => {
                        // The loaded value must equal e1's value.
                        let want = e1.eval(&rv, dom);
                        push(Some(want), rv.clone());
                        extended = true;
                    }
                }
            }
            if !extended {
                out.push(DisGuess { steps });
            }
        }
        // Deduplicate (diamond CFAs can reconverge).
        out.dedup();
        out
    }

    /// Extends skeletons with slot assignments (injective per variable)
    /// and CAS read kinds.
    fn assign_slots(&self, skeletons: &[DisGuess], out: &mut Vec<Guess>) -> Result<(), MakePError> {
        // Collect store-ish steps: (thread, step index, var, is_cas).
        let mut sites: Vec<(usize, usize, VarId, bool)> = Vec::new();
        for (ti, skel) in skeletons.iter().enumerate() {
            let cfa = self.sys.dis[ti].cfa();
            for (si, step) in skel.steps.iter().enumerate() {
                match &cfa.edges()[step.edge].instr {
                    Instr::Store(x, _) => sites.push((ti, si, *x, false)),
                    Instr::Cas(x, ..) => sites.push((ti, si, *x, true)),
                    _ => {}
                }
            }
        }
        let budget = &self.budget;
        let pruned = self.rec.counter("slot_assignments_pruned");
        // Backtracking assignment.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            sites: &[(usize, usize, VarId, bool)],
            i: usize,
            budget: &Budget,
            used: &mut HashMap<VarId, BTreeSet<u32>>,
            choice: &mut Vec<(u32, Option<CasRead>)>,
            skeletons: &[DisGuess],
            out: &mut Vec<Guess>,
            max: usize,
            pruned: &Counter,
        ) -> Result<(), MakePError> {
            if i == sites.len() {
                // Materialize the guess.
                let mut dis: Vec<DisGuess> = skeletons.to_vec();
                for (k, &(ti, si, _x, is_cas)) in sites.iter().enumerate() {
                    let (slot, cas_read) = choice[k];
                    dis[ti].steps[si].slot = Some(slot);
                    if is_cas {
                        dis[ti].steps[si].cas_read = cas_read;
                    }
                }
                out.push(Guess { dis });
                if out.len() > max {
                    return Err(MakePError::TooManyGuesses);
                }
                return Ok(());
            }
            let (_, _, x, is_cas) = sites[i];
            for slot in 1..=budget.slots(x) {
                if used.get(&x).map(|s| s.contains(&slot)).unwrap_or(false) {
                    pruned.incr();
                    continue;
                }
                used.entry(x).or_default().insert(slot);
                if is_cas {
                    for read in [CasRead::IntSlot, CasRead::EnvMessage] {
                        choice.push((slot, Some(read)));
                        rec(
                            sites,
                            i + 1,
                            budget,
                            used,
                            choice,
                            skeletons,
                            out,
                            max,
                            pruned,
                        )?;
                        choice.pop();
                    }
                } else {
                    choice.push((slot, None));
                    rec(
                        sites,
                        i + 1,
                        budget,
                        used,
                        choice,
                        skeletons,
                        out,
                        max,
                        pruned,
                    )?;
                    choice.pop();
                }
                used.get_mut(&x).unwrap().remove(&slot);
            }
            Ok(())
        }
        rec(
            &sites,
            0,
            budget,
            &mut HashMap::new(),
            &mut Vec::new(),
            skeletons,
            out,
            self.limits.max_guesses,
            &pruned,
        )
    }

    /// Emits the Datalog query instance `(Prog, goal)` for one guess: the
    /// base of the one-guess fleet `[guess]` ⊕ the guess's extension.
    pub fn program(&self, guess: &Guess, target: DatalogTarget) -> (Program, GroundAtom) {
        let base = self.base(std::slice::from_ref(guess), target);
        let ext = self.extension(&base, guess);
        base.into_program(&ext)
    }

    /// Encodes the guess-invariant part of the programs of `fleet`: every
    /// predicate and constant declaration, the timeline EDB, the initial
    /// messages and `env` thread, the `env` rules and the goal rules. The
    /// `gapstore_x` facts of gaps that some guess in `fleet` closes are
    /// held back; each [`MakeP::extension`] re-adds those its guess leaves
    /// open.
    pub fn base(&self, fleet: &[Guess], target: DatalogTarget) -> Base {
        let mut held_back = vec![BTreeSet::new(); self.sys.n_vars() as usize];
        for guess in fleet {
            for (x, gap) in self.closed_gaps(guess) {
                held_back[x.index()].insert(gap);
            }
        }
        BaseEncoder::new(self, target, held_back).build()
    }

    /// Encodes `guess`'s part of its program over `base`: the `dtp` seed
    /// facts, the held-back `gapstore_x` facts of the gaps the guess leaves
    /// open, and the `dis` rules (plus, for
    /// [`DatalogTarget::AssertViolation`], the `dis` goal rules). Every
    /// extension rule reads a `dtp` atom, and the base model has none.
    ///
    /// # Panics
    ///
    /// Panics if `guess` closes a gap `base` does not hold back — i.e. it
    /// was not part of the fleet `base` was built for.
    pub fn extension(&self, base: &Base, guess: &Guess) -> Extension {
        let mut ext = Extension::default();
        let syms = &base.syms;
        let zero: Vec<Const> = (0..syms.n_vars).map(|_| syms.t(ATime::ZERO)).collect();
        for ti in 0..guess.dis.len() {
            ext.facts
                .push(GroundAtom::new(syms.dtp[ti][0], zero.clone()));
        }
        let mut closed = vec![BTreeSet::new(); syms.n_vars];
        for (x, gap) in self.closed_gaps(guess) {
            assert!(
                base.held_back[x.index()].contains(&gap),
                "guess closes gap {gap} of variable {} that the base does not hold back",
                x.0
            );
            closed[x.index()].insert(gap);
        }
        for (x, held) in base.held_back.iter().enumerate() {
            for &g in held.difference(&closed[x]) {
                let cg = syms.t(ATime::Plus(g));
                for &a in self.timeline.iter().filter(|a| a.floor() <= g) {
                    ext.facts
                        .push(GroundAtom::new(syms.gapstore[x], vec![syms.t(a), cg]));
                }
            }
        }
        self.emit_dis_rules(syms, guess, &mut ext.rules);
        if base.target == DatalogTarget::AssertViolation {
            // dis asserts: positions whose next edge is an assert.
            for (ti, skel) in guess.dis.iter().enumerate() {
                let cfa = self.sys.dis[ti].cfa_arc();
                for (pos, step) in skel.steps.iter().enumerate() {
                    if matches!(cfa.edges()[step.edge].instr, Instr::AssertFalse) {
                        let v = syms.vvec(0);
                        ext.rules.emit(
                            Atom::new(syms.goal, vec![]),
                            vec![Atom::new(syms.dtp[ti][pos], v)],
                        );
                    }
                }
            }
        }
        debug_assert!(ext
            .rules
            .iter()
            .all(|r| base.prog.validate(&r.head, &r.body).is_ok()));
        ext
    }

    /// The gaps `(x, g)` whose `gapstore_x` facts `guess` excludes: an
    /// integer-read CAS at slot `s` closes gap `s - 1` of its variable.
    fn closed_gaps(&self, guess: &Guess) -> Vec<(VarId, u32)> {
        let mut out = Vec::new();
        for (ti, skel) in guess.dis.iter().enumerate() {
            let cfa = self.sys.dis[ti].cfa();
            for step in &skel.steps {
                if let Instr::Cas(x, ..) = &cfa.edges()[step.edge].instr {
                    if step.cas_read == Some(CasRead::IntSlot) {
                        let slot = step.slot.expect("cas step has a slot");
                        out.push((*x, slot - 1));
                    }
                }
            }
        }
        out
    }

    /// Dis rules along the guessed skeletons.
    fn emit_dis_rules(&self, syms: &Symbols, guess: &Guess, out: &mut impl Sink) {
        let sys = self.sys;
        let dom = sys.dom;
        for (ti, skel) in guess.dis.iter().enumerate() {
            let cfa = sys.dis[ti].cfa_arc();
            let mut rv = RegVal::new(sys.dis[ti].n_regs() as usize);
            for (pos, step) in skel.steps.iter().enumerate() {
                let src = syms.dtp[ti][pos];
                let dst = syms.dtp[ti][pos + 1];
                let src_atom = Atom::new(src, syms.vvec(0));
                let edge = &cfa.edges()[step.edge];
                match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => {
                        let v = syms.vvec(0);
                        out.emit(Atom::new(dst, v.clone()), vec![Atom::new(src, v)]);
                    }
                    Instr::Assume(e) => {
                        debug_assert!(e.eval(&rv, dom).as_bool());
                        let v = syms.vvec(0);
                        out.emit(Atom::new(dst, v.clone()), vec![Atom::new(src, v)]);
                    }
                    Instr::Assign(r, e) => {
                        rv.set(*r, e.eval(&rv, dom));
                        let v = syms.vvec(0);
                        out.emit(Atom::new(dst, v.clone()), vec![Atom::new(src, v)]);
                    }
                    Instr::Load(r, x) => {
                        let d = step.loaded.expect("load step carries a value");
                        syms.load_rules(out, src_atom, dst, *x, d);
                        rv.set(*r, d);
                    }
                    Instr::Store(x, e) => {
                        let d = e.eval(&rv, dom);
                        let slot = step.slot.expect("store step carries a slot");
                        syms.dis_store_rules(out, src_atom, dst, *x, d, slot);
                    }
                    Instr::Cas(x, e1, e2) => {
                        let d1 = e1.eval(&rv, dom);
                        debug_assert_eq!(step.loaded, Some(d1));
                        let d2 = e2.eval(&rv, dom);
                        let slot = step.slot.expect("cas step carries a slot");
                        let read = step.cas_read.expect("cas step carries a read kind");
                        syms.dis_cas_rules(out, src_atom, dst, *x, (d1, d2), slot, read);
                    }
                }
            }
        }
    }

    /// The extensional (side-condition) predicates of a generated program —
    /// excluded from cache-size accounting and specializable away.
    pub fn edb_predicates(prog: &Program) -> HashSet<PredId> {
        let mut out = HashSet::new();
        for p in prog.predicates() {
            let name = prog.pred_name(p);
            if name.starts_with("tle")
                || name.starts_with("tlt")
                || name.starts_with("tmax")
                || name.starts_with("gapjoin")
                || name.starts_with("gapstore")
            {
                out.insert(p);
            }
        }
        out
    }
}

/// The guess-invariant part of a fleet's `makeP` programs
/// ([`MakeP::base`]). Its program declares every predicate and constant
/// any extension of the fleet uses, so extensions are plain rule lists
/// over the same ids.
#[derive(Debug, Clone)]
pub struct Base {
    prog: Program,
    goal: GroundAtom,
    target: DatalogTarget,
    syms: Symbols,
    /// Per variable, the gaps some fleet guess closes: their `gapstore_x`
    /// facts are held back to the extensions that leave them open.
    held_back: Vec<BTreeSet<u32>>,
}

impl Base {
    /// The base program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The query atom `goal()`.
    pub fn goal(&self) -> &GroundAtom {
        &self.goal
    }

    /// The full program base ⊕ `ext` and its goal.
    pub fn into_program(mut self, ext: &Extension) -> (Program, GroundAtom) {
        for f in &ext.facts {
            self.prog
                .fact(f.pred, f.args.clone())
                .expect("extension facts use base predicates");
        }
        for r in &ext.rules {
            self.prog.emit(r.head.clone(), r.body.clone());
        }
        (self.prog, self.goal)
    }
}

/// One guess's part of its `makeP` program over a [`Base`]'s predicates
/// and constants ([`MakeP::extension`]).
#[derive(Debug, Clone, Default)]
pub struct Extension {
    facts: Vec<GroundAtom>,
    rules: Vec<Rule>,
}

impl Extension {
    /// The seed facts: `dtp` at position 0 and the held-back `gapstore_x`
    /// facts this guess leaves open.
    pub fn facts(&self) -> &[GroundAtom] {
        &self.facts
    }

    /// The rules (no facts), each reading a `dtp` atom.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Facts plus rules: what encoding this guess costs.
    pub fn len(&self) -> usize {
        self.facts.len() + self.rules.len()
    }

    /// Whether the extension adds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where emitted rules go: the base program (validated on insertion) or
/// an extension's rule list (validated against the base in debug builds).
trait Sink {
    fn emit(&mut self, head: Atom, body: Vec<Atom>);
}

impl Sink for Program {
    fn emit(&mut self, head: Atom, body: Vec<Atom>) {
        self.rule(head, body)
            .expect("makeP emits well-formed rules");
    }
}

impl Sink for Vec<Rule> {
    fn emit(&mut self, head: Atom, body: Vec<Atom>) {
        self.push(Rule { head, body });
    }
}

/// The predicate and constant ids of a base program.
#[derive(Debug, Clone)]
struct Symbols {
    n_vars: usize,
    /// Constant per abstract timestamp.
    tc: HashMap<ATime, Const>,
    tle: PredId,
    tlt: PredId,
    tmax: PredId,
    gapjoin: PredId,
    gapstore: Vec<PredId>,
    goal: PredId,
    emp: HashMap<(VarId, Val), PredId>,
    dmp: HashMap<(VarId, Val), PredId>,
    /// env control-state predicates: (loc, rv) → pred, declared as the
    /// env rules reach them.
    etp: HashMap<(Loc, RegVal), PredId>,
    /// dis position predicates, `dtp[thread][position]`.
    dtp: Vec<Vec<PredId>>,
}

impl Symbols {
    fn t(&self, a: ATime) -> Const {
        self.tc[&a]
    }

    /// View variable vector `base..base+n`.
    fn vvec(&self, base: u32) -> Vec<Term> {
        (0..self.n_vars as u32)
            .map(|i| Term::Var(base + i))
            .collect()
    }

    /// Load rules shared by env and dis threads: one rule reading a
    /// `dmp` message (with timestamp check) and one reading an `emp`
    /// message (check-free, gap join).
    ///
    /// Variable layout: `0..n` = V̄ (thread view), `n..2n` = W̄ (message
    /// view), `2n..3n` = V̄' (joined view).
    fn load_rules(&self, out: &mut impl Sink, src_atom: Atom, dst: PredId, x: VarId, d: Val) {
        let n = self.n_vars as u32;
        let v = self.vvec(0);
        let w = self.vvec(n);
        let vp = self.vvec(2 * n);
        let xi = x.index();

        // From a dis/init message: tle(Vx, Wx) and pointwise tmax.
        {
            let mut body = vec![src_atom.clone(), Atom::new(self.dmp[&(x, d)], w.clone())];
            body.push(Atom::new(self.tle, vec![v[xi], w[xi]]));
            for i in 0..self.n_vars {
                body.push(Atom::new(self.tmax, vec![v[i], w[i], vp[i]]));
            }
            out.emit(Atom::new(dst, vp.clone()), body);
        }
        // From an env message: no check; gapjoin on x, tmax elsewhere.
        {
            let mut body = vec![src_atom, Atom::new(self.emp[&(x, d)], w.clone())];
            body.push(Atom::new(self.gapjoin, vec![v[xi], w[xi], vp[xi]]));
            for i in 0..self.n_vars {
                if i != xi {
                    body.push(Atom::new(self.tmax, vec![v[i], w[i], vp[i]]));
                }
            }
            out.emit(Atom::new(dst, vp), body);
        }
    }

    /// Env store: choose a gap via `gapstore_x(Vx, G)`; emit the message
    /// and the moved thread, both with `x ↦ G`.
    fn env_store_rules(&self, out: &mut impl Sink, src_atom: Atom, dst: PredId, x: VarId, d: Val) {
        let n = self.n_vars as u32;
        let v = self.vvec(0);
        let g = Term::Var(n); // the chosen gap
        let xi = x.index();
        let mut head_view = v.clone();
        head_view[xi] = g;
        let body = vec![src_atom, Atom::new(self.gapstore[xi], vec![v[xi], g])];
        out.emit(
            Atom::new(self.emp[&(x, d)], head_view.clone()),
            body.clone(),
        );
        out.emit(Atom::new(dst, head_view), body);
    }

    /// Dis store at the guessed slot: requires `Vx < slot`; emits the
    /// message and the moved thread with `x ↦ slot`.
    #[allow(clippy::too_many_arguments)]
    fn dis_store_rules(
        &self,
        out: &mut impl Sink,
        src_atom: Atom,
        dst: PredId,
        x: VarId,
        d: Val,
        slot: u32,
    ) {
        let v = self.vvec(0);
        let xi = x.index();
        let slot_c = Term::Const(self.t(ATime::Int(slot)));
        let mut head_view = v.clone();
        head_view[xi] = slot_c;
        let body = vec![src_atom, Atom::new(self.tlt, vec![v[xi], slot_c])];
        out.emit(
            Atom::new(self.dmp[&(x, d)], head_view.clone()),
            body.clone(),
        );
        out.emit(Atom::new(dst, head_view), body);
    }

    /// Dis CAS `d1 → d2` at guessed store slot `s₁`: reads slot `s₁-1`
    /// (integer read) or an env message from a gap `≤ (s₁-1)⁺` (env
    /// read); the stored message and the moved thread carry the joined
    /// view with `x ↦ s₁`.
    #[allow(clippy::too_many_arguments)]
    fn dis_cas_rules(
        &self,
        out: &mut impl Sink,
        src_atom: Atom,
        dst: PredId,
        x: VarId,
        (d1, d2): (Val, Val),
        slot: u32,
        read: CasRead,
    ) {
        let n = self.n_vars as u32;
        let v = self.vvec(0);
        let w = self.vvec(n);
        let vp = self.vvec(2 * n);
        let xi = x.index();
        let slot_c = Term::Const(self.t(ATime::Int(slot)));
        let load_ts = ATime::Int(slot - 1);
        let gap_ts = ATime::Plus(slot - 1);

        let mut body = vec![src_atom];
        match read {
            CasRead::IntSlot => {
                // The loaded message sits exactly at slot-1.
                let mut w_pinned = w.clone();
                w_pinned[xi] = Term::Const(self.t(load_ts));
                body.push(Atom::new(self.dmp[&(x, d1)], w_pinned));
                body.push(Atom::new(
                    self.tle,
                    vec![v[xi], Term::Const(self.t(load_ts))],
                ));
            }
            CasRead::EnvMessage => {
                // A clone of the env message at the top of gap slot-1.
                body.push(Atom::new(self.emp[&(x, d1)], w.clone()));
                body.push(Atom::new(
                    self.tle,
                    vec![w[xi], Term::Const(self.t(gap_ts))],
                ));
                body.push(Atom::new(
                    self.tle,
                    vec![v[xi], Term::Const(self.t(gap_ts))],
                ));
            }
        }
        for i in 0..self.n_vars {
            if i != xi {
                body.push(Atom::new(self.tmax, vec![v[i], w[i], vp[i]]));
            }
        }
        let mut head_view = vp.clone();
        head_view[xi] = slot_c;
        out.emit(
            Atom::new(self.dmp[&(x, d2)], head_view.clone()),
            body.clone(),
        );
        out.emit(Atom::new(dst, head_view), body);
    }
}

/// Builds one [`Base`].
struct BaseEncoder<'a, 's> {
    mk: &'a MakeP<'s>,
    target: DatalogTarget,
    held_back: Vec<BTreeSet<u32>>,
    prog: Program,
    syms: Symbols,
}

impl<'a, 's> BaseEncoder<'a, 's> {
    fn new(mk: &'a MakeP<'s>, target: DatalogTarget, held_back: Vec<BTreeSet<u32>>) -> Self {
        let sys = mk.sys;
        let mut prog = Program::new();
        let n_vars = sys.n_vars() as usize;
        let tle = prog.predicate("tle", 2);
        let tlt = prog.predicate("tlt", 2);
        let tmax = prog.predicate("tmax", 3);
        let gapjoin = prog.predicate("gapjoin", 3);
        let gapstore = (0..n_vars)
            .map(|x| prog.predicate(&format!("gapstore_{x}"), 2))
            .collect();
        let goal = prog.predicate("goal", 0);
        let mut tc = HashMap::new();
        for &a in &mk.timeline {
            tc.insert(a, prog.constant(&format!("{a}")));
        }
        let (mut emp, mut dmp) = (HashMap::new(), HashMap::new());
        for x in 0..n_vars as u32 {
            for d in sys.dom.iter() {
                let p = prog.predicate(&format!("emp_{x}_{}", d.0), n_vars);
                emp.insert((VarId(x), d), p);
                let p = prog.predicate(&format!("dmp_{x}_{}", d.0), n_vars);
                dmp.insert((VarId(x), d), p);
            }
        }
        // A path through an acyclic CFA visits each location once, so a
        // skeleton has fewer steps than the CFA has locations.
        let dtp = sys
            .dis
            .iter()
            .enumerate()
            .map(|(ti, d)| {
                (0..d.cfa().n_locs())
                    .map(|pos| prog.predicate(&format!("dtp{ti}_{pos}"), n_vars))
                    .collect()
            })
            .collect();
        BaseEncoder {
            mk,
            target,
            held_back,
            prog,
            syms: Symbols {
                n_vars,
                tc,
                tle,
                tlt,
                tmax,
                gapjoin,
                gapstore,
                goal,
                emp,
                dmp,
                etp: HashMap::new(),
                dtp,
            },
        }
    }

    fn etp_pred(&mut self, loc: Loc, rv: &RegVal) -> PredId {
        if let Some(&p) = self.syms.etp.get(&(loc, rv.clone())) {
            return p;
        }
        let name = format!(
            "etp_{}_{}",
            loc.0,
            rv.iter()
                .map(|v| v.0.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        let p = self.prog.predicate(&name, self.syms.n_vars);
        self.syms.etp.insert((loc, rv.clone()), p);
        p
    }

    fn build(mut self) -> Base {
        self.emit_edb_facts();
        self.emit_initial_facts();
        self.emit_env_rules();
        self.emit_goal_rules();
        Base {
            goal: GroundAtom::new(self.syms.goal, Vec::new()),
            prog: self.prog,
            target: self.target,
            syms: self.syms,
            held_back: self.held_back,
        }
    }

    /// tle/tlt/tmax/gapjoin over the timeline; gapstore per variable,
    /// except the held-back gaps.
    fn emit_edb_facts(&mut self) {
        let syms = &self.syms;
        let timeline = &self.mk.timeline;
        for &a in timeline {
            for &b in timeline {
                let (ca, cb) = (syms.t(a), syms.t(b));
                if a <= b {
                    self.prog.fact(syms.tle, vec![ca, cb]).unwrap();
                }
                if a < b {
                    self.prog.fact(syms.tlt, vec![ca, cb]).unwrap();
                }
                let cmax = syms.t(a.max(b));
                self.prog.fact(syms.tmax, vec![ca, cb, cmax]).unwrap();
                let cgj = syms.t(ATime::Plus(a.floor().max(b.floor())));
                self.prog.fact(syms.gapjoin, vec![ca, cb, cgj]).unwrap();
            }
        }
        for (x, held) in self.held_back.iter().enumerate() {
            let var = VarId(x as u32);
            for &a in timeline {
                for g in a.floor()..=self.mk.budget.slots(var) {
                    if held.contains(&g) {
                        continue;
                    }
                    let (ca, cg) = (syms.t(a), syms.t(ATime::Plus(g)));
                    self.prog.fact(syms.gapstore[x], vec![ca, cg]).unwrap();
                }
            }
        }
    }

    fn emit_initial_facts(&mut self) {
        let zero: Vec<Const> = (0..self.syms.n_vars)
            .map(|_| self.syms.t(ATime::ZERO))
            .collect();
        // Initial messages.
        for x in 0..self.syms.n_vars {
            let p = self.syms.dmp[&(VarId(x as u32), Val::INIT)];
            self.prog.fact(p, zero.clone()).unwrap();
        }
        // Initial env thread.
        let entry = self.mk.sys.env.cfa().entry();
        let rv0 = RegVal::new(self.mk.sys.env.n_regs() as usize);
        let p = self.etp_pred(entry, &rv0);
        self.prog.fact(p, zero).unwrap();
    }

    /// Env transition rules, grounded over register valuations.
    fn emit_env_rules(&mut self) {
        let sys = self.mk.sys;
        let cfa = sys.env.cfa_arc();
        let dom = sys.dom;
        let rvs = enumerate_rvs(sys.env.n_regs() as usize, dom);
        for rv in &rvs {
            for edge in cfa.edges() {
                let src = self.etp_pred(edge.from, rv);
                let src_atom = Atom::new(src, self.syms.vvec(0));
                let dst = match &edge.instr {
                    Instr::Skip | Instr::AssertFalse => Some(self.etp_pred(edge.to, rv)),
                    Instr::Assume(e) => e
                        .eval(rv, dom)
                        .as_bool()
                        .then(|| self.etp_pred(edge.to, rv)),
                    Instr::Assign(r, e) => {
                        let rv2 = rv.with(*r, e.eval(rv, dom));
                        Some(self.etp_pred(edge.to, &rv2))
                    }
                    Instr::Load(r, x) => {
                        for d in dom.iter() {
                            let rv2 = rv.with(*r, d);
                            let dst = self.etp_pred(edge.to, &rv2);
                            self.syms
                                .load_rules(&mut self.prog, src_atom.clone(), dst, *x, d);
                        }
                        None
                    }
                    Instr::Store(x, e) => {
                        let d = e.eval(rv, dom);
                        let dst = self.etp_pred(edge.to, rv);
                        self.syms
                            .env_store_rules(&mut self.prog, src_atom.clone(), dst, *x, d);
                        None
                    }
                    Instr::Cas(..) => unreachable!("env is CAS-free"),
                };
                // Local steps move the thread and keep its view.
                if let Some(dst) = dst {
                    let v = self.syms.vvec(0);
                    self.prog
                        .emit(Atom::new(dst, v.clone()), vec![Atom::new(src, v)]);
                }
            }
        }
    }

    /// Goal rules per target (the `dis` part of
    /// [`DatalogTarget::AssertViolation`] lives in the extensions).
    fn emit_goal_rules(&mut self) {
        let goal = Atom::new(self.syms.goal, vec![]);
        match self.target {
            DatalogTarget::MessageGenerated(x, d) => {
                let v = self.syms.vvec(0);
                let emp = self.syms.emp[&(x, d)];
                self.prog
                    .emit(goal.clone(), vec![Atom::new(emp, v.clone())]);
                let dmp = self.syms.dmp[&(x, d)];
                self.prog.emit(goal, vec![Atom::new(dmp, v)]);
                if d == Val::INIT {
                    // Initial messages already carry d_init.
                    self.prog.fact(self.syms.goal, vec![]).unwrap();
                }
            }
            DatalogTarget::AssertViolation => {
                // env asserts: any etp state at a location with an
                // outgoing assert edge.
                let assert_locs: BTreeSet<Loc> = self
                    .mk
                    .sys
                    .env
                    .cfa()
                    .edges()
                    .iter()
                    .filter(|e| matches!(e.instr, Instr::AssertFalse))
                    .map(|e| e.from)
                    .collect();
                let states: Vec<PredId> = self
                    .syms
                    .etp
                    .iter()
                    .filter(|((l, _), _)| assert_locs.contains(l))
                    .map(|(_, &p)| p)
                    .collect();
                for p in states {
                    let v = self.syms.vvec(0);
                    self.prog.emit(goal.clone(), vec![Atom::new(p, v)]);
                }
            }
        }
    }
}

/// All register valuations over `n_regs` registers.
fn enumerate_rvs(n_regs: usize, dom: parra_program::value::Dom) -> Vec<RegVal> {
    let mut out = vec![RegVal::new(n_regs)];
    for r in 0..n_regs {
        let mut next = Vec::new();
        for rv in &out {
            for d in dom.iter() {
                next.push(rv.with(parra_program::ident::RegId(r as u32), d));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_datalog::eval::Evaluator;
    use parra_program::builder::SystemBuilder;

    fn handshake() -> (ParamSystem, VarId) {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let goal = b.var("goal");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.store(y, 1).load(s, x).assume_eq(s, 1).store(goal, 1);
        let d = d.finish();
        (b.build(env, vec![d]), goal)
    }

    #[test]
    fn guesses_enumerate_skeletons_and_slots() {
        let (sys, _) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        // dis: store y (slot among 2 free on y) × paths over loaded x value
        // {0, 1}; the loaded-0 path blocks at the assume, so skeletons are
        // prefixes... maximal paths: load 0 (stuck after assume) and
        // load 1 → store goal. Plus slot choices.
        assert!(!guesses.is_empty());
        for g in &guesses {
            assert_eq!(g.dis.len(), 1);
        }
    }

    #[test]
    fn unsafe_system_has_a_proving_guess() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
        let proved = mk.guesses().unwrap().iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(proved);
    }

    #[test]
    fn safe_system_has_no_proving_guess() {
        // Same shape but the env thread requires y == 1 twice...
        // make it genuinely safe: env needs y == 1 but dis never stores y.
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let goal = b.var("goal");
        let mut env = b.program("env");
        let r = env.reg("r");
        env.load(r, y).assume_eq(r, 1).store(x, 1);
        let env = env.finish();
        let mut d = b.program("d");
        let s = d.reg("s");
        d.load(s, x).assume_eq(s, 1).store(goal, 1);
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let target = DatalogTarget::MessageGenerated(goal, Val(1));
        let proved = mk.guesses().unwrap().iter().any(|g| {
            let (prog, goal) = mk.program(g, target);
            Evaluator::new(&prog).query(&goal)
        });
        assert!(!proved);
    }

    #[test]
    fn env_cas_rejected() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.cas(x, 0, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let err =
            MakeP::new(&sys, Budget::uniform_for(&sys, 1), MakePLimits::default()).unwrap_err();
        assert_eq!(err, MakePError::EnvHasCas);
    }

    #[test]
    fn looping_dis_rejected() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let env = {
            let mut p = b.program("env");
            p.skip();
            p.finish()
        };
        let mut d = b.program("d");
        d.star(|p| {
            p.store(x, 1);
        });
        let d = d.finish();
        let sys = b.build(env, vec![d]);
        let err =
            MakeP::new(&sys, Budget::uniform_for(&sys, 1), MakePLimits::default()).unwrap_err();
        assert_eq!(err, MakePError::DisHasLoops { thread: 0 });
    }

    #[test]
    fn env_only_system_single_guess() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        assert_eq!(guesses.len(), 1);
        let (prog, goal) = mk.program(&guesses[0], DatalogTarget::MessageGenerated(x, Val(1)));
        assert!(Evaluator::new(&prog).query(&goal));
    }

    #[test]
    fn edb_predicates_detected() {
        let (sys, goal_var) = handshake();
        let budget = Budget::exact(&sys).unwrap();
        let mk = MakeP::new(&sys, budget, MakePLimits::default()).unwrap();
        let guesses = mk.guesses().unwrap();
        let (prog, _) = mk.program(
            &guesses[0],
            DatalogTarget::MessageGenerated(goal_var, Val(1)),
        );
        let edb = MakeP::edb_predicates(&prog);
        assert!(edb.len() >= 4);
        for p in &edb {
            let name = prog.pred_name(*p);
            assert!(
                name.starts_with('t') || name.starts_with("gap"),
                "unexpected EDB predicate {name}"
            );
        }
    }
}
