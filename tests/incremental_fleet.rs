//! The incremental `makeP` fleet (tier 1): saturating the guess-invariant
//! base once and continuing it with each guess's extension must be
//! indistinguishable from evaluating the guess's full program.
//!
//! For every litmus benchmark and *every* guess (not only those up to the
//! winner), at 1 and 4 evaluator threads:
//!
//! * base + extension derives the goal exactly when the full program
//!   `MakeP::program(guess)` does;
//! * the two least models are equal;
//! * every extension rule reads a predicate with no atom in the base
//!   model — the precondition that makes delta-seeded continuation
//!   complete.
//!
//! The second half pins the engine's fleet counters on 2+2w and
//! spinlock-cas: one base per run, and per-guess encoding at most a
//! quarter of the full program.

use parra_core::makep::{DatalogTarget, MakeP};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_datalog::eval::{Database, Evaluator};
use parra_datalog::plan::PlanCache;
use parra_datalog::Program;
use parra_obs::{EventValue, Level, Recorder};
use parra_program::ident::VarId;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A database's atoms rendered by name, so models of programs with
/// different rule lists compare by content.
fn model(prog: &Program, db: &Database) -> BTreeSet<String> {
    db.iter().map(|g| prog.display_ground(&g)).collect()
}

fn makep_of(v: &Verifier) -> (MakeP<'_>, DatalogTarget) {
    let sys = v.goal_system();
    let goal_var = VarId(
        sys.vars
            .lookup(GOAL_VAR_NAME)
            .expect("the verifier adds the goal variable"),
    );
    let mk = MakeP::new(sys, v.budget().clone(), Default::default()).expect("makeP applies");
    (mk, DatalogTarget::MessageGenerated(goal_var, Val(1)))
}

#[test]
fn base_plus_extension_equals_the_full_program_on_every_guess() {
    let mut checked = 0usize;
    for bench in parra_litmus::all() {
        let v = Verifier::new(&bench.system, VerifierOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let (mk, target) = makep_of(&v);
        let guesses = mk.guesses().expect("guesses enumerate");
        let base = mk.base(&guesses, target);
        let mut cache = PlanCache::new();
        let base_plan = cache.plan(base.program());
        // Reference models first: one full-program evaluation per guess.
        let reference: Vec<(BTreeSet<String>, bool)> = guesses
            .iter()
            .map(|g| {
                let (prog, goal) = mk.program(g, target);
                let db = Evaluator::new(&prog).run();
                (model(&prog, &db), db.contains(&goal))
            })
            .collect();
        for threads in [1, 4] {
            let eval =
                Evaluator::with_plan(base.program(), Arc::clone(&base_plan)).with_threads(threads);
            let base_db = eval.run();
            assert!(base_db.is_fixpoint(), "{}: base not saturated", bench.name);
            for (gi, guess) in guesses.iter().enumerate() {
                let ext = mk.extension(&base, guess);
                for (ri, rule) in ext.rules().iter().enumerate() {
                    assert!(
                        rule.body
                            .iter()
                            .any(|a| base_db.of_pred(a.pred).next().is_none()),
                        "{} guess {gi}: extension rule {ri} reads only base-model predicates",
                        bench.name
                    );
                }
                let plan = cache.plan_extension(&base_plan, ext.rules());
                let db = eval
                    .extend(&base_db, ext.facts(), ext.rules(), &plan, None)
                    .unwrap_or_else(|e| panic!("{} guess {gi}: {e}", bench.name));
                let (want_model, want_goal) = &reference[gi];
                assert_eq!(
                    db.contains(base.goal()),
                    *want_goal,
                    "{} guess {gi} threads {threads}: goal verdicts differ",
                    bench.name
                );
                let got = model(base.program(), &db);
                assert!(
                    &got == want_model,
                    "{} guess {gi} threads {threads}: least models differ \
                     (incremental {} atoms, full {}; first missing {:?}, first extra {:?})",
                    bench.name,
                    got.len(),
                    want_model.len(),
                    want_model.difference(&got).next(),
                    got.difference(want_model).next(),
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "only {checked} guess evaluations checked");
}

/// A `u64` field of an event.
fn field(fields: &[(String, EventValue)], name: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        EventValue::U64(n) if k == name => Some(*n),
        _ => None,
    })
}

/// `(base_rules, base_atoms, ext_rules_encoded, guesses evaluated)` of
/// one single-threaded `cache-datalog` run, with the structural checks.
fn fleet_counters(name: &str) -> (u64, u64, u64, usize) {
    let bench = parra_litmus::by_name(name).expect("benchmark exists");
    let rec = Recorder::enabled(Level::Summary);
    let opts = VerifierOptions {
        threads: 1,
        ..VerifierOptions::default()
    };
    let v = Verifier::new_with_recorder(&bench.system, opts, rec.clone()).unwrap();
    let r = v.run(EngineId::CacheDatalog);
    assert!(r.verdict.is_decided(), "{name}: {:?}", r.verdict);
    let events = rec.events();
    let fleets: Vec<_> = events.iter().filter(|e| e.kind == "fleet").collect();
    assert_eq!(fleets.len(), 1, "{name}: one fleet per run");
    let fleet = fleets[0];
    let base_rules = field(&fleet.fields, "base_rules").expect("base_rules field");
    let base_atoms = field(&fleet.fields, "base_atoms").expect("base_atoms field");
    let snap = rec.snapshot();
    let counter = |c: &str| {
        snap.counters
            .get(&format!("cache-datalog/{c}"))
            .copied()
            .unwrap_or_else(|| panic!("{name}: no counter {c} in {:?}", snap.counters))
    };
    // Counters sum over the run: equal to one base means one base built.
    assert_eq!(counter("base_rules"), base_rules, "{name}: base built once");
    assert_eq!(counter("base_atoms"), base_atoms, "{name}: base built once");
    let ext = counter("ext_rules_encoded");
    let vol = |k: &str| fleet.volatile.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert_eq!(vol("ext_rules_encoded"), Some(ext));
    // Single-threaded, the fleet evaluates guesses in order up to the
    // winner (all of them when there is none).
    let evaluated = match r.verdict {
        Verdict::Unsafe => vol("winner").expect("unsafe fleet has a winner") as usize + 1,
        _ => r.stats.guesses,
    };
    // Per guess, the extension is at most a quarter of the full program.
    let full = r.stats.datalog_rules as u64;
    assert!(
        4 * ext <= full * evaluated as u64,
        "{name}: {ext} rules encoded over {evaluated} guesses, full program {full}"
    );
    let (mk, target) = makep_of(&v);
    let guesses = mk.guesses().unwrap();
    let base = mk.base(&guesses, target);
    for (gi, g) in guesses.iter().enumerate() {
        let ext = mk.extension(&base, g).len();
        let full = mk.program(g, target).0.rules().len();
        assert!(
            4 * ext <= full,
            "{name} guess {gi}: extension {ext} of {full}"
        );
    }
    (base_rules, base_atoms, ext, evaluated)
}

#[test]
fn fleet_counters_are_pinned() {
    assert_eq!(fleet_counters("2+2w"), (159, 157, 3659, 131));
    assert_eq!(fleet_counters("spinlock-cas"), (153, 144, 2128, 112));
}
