//! Derivation hints (tier 1): the Lemma 4.6 witness is read off the
//! database the guess fleet already built, with each derivation in the
//! goal's cone rebuilt from its atom's one-entry hint.
//!
//! Over every UNSAFE litmus benchmark, the TQBF reductions of copycat(2),
//! copycat(3) and clairvoyant(2), and `corpus/eval-agree-cas-gaps.ra`, at
//! 1 and 4 evaluator threads:
//!
//! * every cone atom's rebuilt derivation is a ground instance of its
//!   rule (or one of the extension's facts);
//! * every body atom is in the database with a smaller index;
//! * the schedule read off the cone certifies under `⊢ₖ`;
//! * the cone, and the engine's `witness_lines`, `notes` and
//!   `cache_peak`, are identical across thread counts.
//!
//! An exact counter pins that no second fixpoint runs: on a single-guess
//! UNSAFE run, `rules_fired` over the whole run equals the winning
//! database's atom count.

use parra_core::makep::{DatalogTarget, MakeP};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_core::witness;
use parra_datalog::eval::{derivation_cone, Database, Derivation, Evaluator, Layer};
use parra_datalog::plan::PlanCache;
use parra_limits::ResourceBudget;
use parra_litmus::Expected;
use parra_obs::{Level, Recorder};
use parra_program::ident::VarId;
use parra_program::parser::parse_system;
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use std::collections::BTreeMap;
use std::sync::Arc;

fn options(threads: usize) -> VerifierOptions {
    VerifierOptions {
        threads,
        ..VerifierOptions::default()
    }
}

/// The systems of the battery, by name.
fn systems() -> Vec<(String, ParamSystem)> {
    let mut out: Vec<(String, ParamSystem)> = parra_litmus::all()
        .into_iter()
        .filter(|b| b.expected == Expected::Unsafe)
        .map(|b| (b.name.to_string(), b.system))
        .collect();
    for (name, qbf) in [
        ("copycat(2)", parra_qbf::gen::copycat(2)),
        ("copycat(3)", parra_qbf::gen::copycat(3)),
        ("clairvoyant(2)", parra_qbf::gen::clairvoyant(2)),
    ] {
        out.push((name.to_string(), parra_qbf::reduce_to_purera(&qbf).system));
    }
    let text = std::fs::read_to_string("corpus/eval-agree-cas-gaps.ra").unwrap();
    out.push(("eval-agree-cas-gaps".into(), parse_system(&text).unwrap()));
    out
}

/// The fleet, run in guess order as the single-threaded engine runs it:
/// the base saturated once (stopping at the goal), then each guess's
/// extension continued from it until one derives the goal. Checks the
/// rebuilt cone of the winner and returns it with the schedule's step
/// count, or `None` when no guess wins.
fn check_winner(
    name: &str,
    v: &Verifier,
    threads: usize,
) -> Option<(BTreeMap<usize, Derivation>, usize)> {
    let sys = v.goal_system();
    let goal_var = VarId(sys.vars.lookup(GOAL_VAR_NAME).expect("goal variable"));
    let target = DatalogTarget::MessageGenerated(goal_var, Val(1));
    let mk = MakeP::new(sys, v.budget().clone(), Default::default()).expect("makeP applies");
    let guesses = mk.guesses().expect("guesses enumerate");
    let base = mk.base(&guesses, target);
    let goal = base.goal();
    let mut cache = PlanCache::new();
    let base_plan = cache.plan(base.program());
    let eval = Evaluator::with_plan(base.program(), Arc::clone(&base_plan)).with_threads(threads);
    let base_db = eval.run_until(Some(goal));
    let (guess, db, ext) = if base_db.contains(goal) {
        (0, base_db, None)
    } else {
        let mut won = None;
        for (gi, g) in guesses.iter().enumerate() {
            let ext = mk.extension(&base, g);
            let plan = cache.plan_extension(&base_plan, ext.rules());
            let db = eval
                .extend(&base_db, ext.facts(), ext.rules(), &plan, Some(goal))
                .expect("extension applies");
            if db.contains(goal) {
                won = Some((gi, db, Some((ext, plan))));
                break;
            }
        }
        won?
    };
    let mut layers = vec![eval.layer()];
    let mut rules: Vec<_> = base.program().rules().iter().collect();
    if let Some((ext, plan)) = &ext {
        layers.push(Layer {
            rules: ext.rules(),
            plan,
        });
        rules.extend(ext.rules());
    }
    let cone = derivation_cone(&db, &layers, goal)
        .unwrap_or_else(|| panic!("{name} at {threads} threads: cone not rebuilt"));
    for (&i, d) in &cone {
        check_derivation(
            name,
            &db,
            &rules,
            ext.as_ref().map(|(e, _)| e.facts()),
            i,
            d,
        );
    }
    let (prog, full_goal) = mk.program(&guesses[guess], target);
    let w = witness::from_database(
        &prog,
        &full_goal,
        &db,
        &layers,
        &ResourceBudget::unlimited(),
    )
    .unwrap_or_else(|| panic!("{name}: no witness"));
    assert!(
        w.certified,
        "{name} at {threads} threads: schedule does not certify"
    );
    assert_eq!(w.atoms, db.len());
    Some((cone, w.schedule.steps.len()))
}

/// Atom `i`'s derivation `d` is an instance of its rule (or an extension
/// fact), and its body atoms precede it in `db`.
fn check_derivation(
    name: &str,
    db: &Database,
    rules: &[&parra_datalog::Rule],
    ext_facts: Option<&[parra_datalog::GroundAtom]>,
    i: usize,
    d: &Derivation,
) {
    let head = db.ground(i);
    let body: Vec<_> = d.body.iter().map(|&j| db.ground(j)).collect();
    let valid = match d.rule {
        Some(r) => rules[r].is_instance(&head, &body),
        None => body.is_empty() && ext_facts.is_some_and(|f| f.contains(&head)),
    };
    assert!(valid, "{name}: atom {i} ({d:?}) is no instance of its rule");
    for &j in &d.body {
        assert!(j < i && j < db.len(), "{name}: atom {i} reads atom {j}");
    }
}

#[test]
fn rebuilt_cones_are_rule_instances_and_certify_at_every_thread_count() {
    let mut winners = 0;
    for (name, sys) in systems() {
        let seq = Verifier::new(&sys, options(1)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let par = Verifier::new(&sys, options(4)).unwrap();
        let cone = check_winner(&name, &seq, 1);
        assert_eq!(cone, check_winner(&name, &par, 4), "{name}: cones diverge");
        winners += usize::from(cone.is_some());

        let a = seq.run(EngineId::CacheDatalog);
        let b = par.run(EngineId::CacheDatalog);
        assert_eq!(a.verdict, b.verdict, "{name}");
        assert_eq!(a.verdict == Verdict::Unsafe, cone.is_some(), "{name}");
        assert_eq!(
            a.witness_lines, b.witness_lines,
            "{name}: witnesses diverge"
        );
        assert_eq!(a.notes, b.notes, "{name}: notes diverge");
        assert_eq!(
            a.stats.cache_peak, b.stats.cache_peak,
            "{name}: cache peaks diverge"
        );
        if let Some((_, steps)) = cone {
            let note = format!("Lemma 4.6 schedule ({steps} steps) certified");
            assert!(
                a.notes.iter().any(|n| n.starts_with(&note)),
                "{name}: the engine's schedule is not the fleet's: {:?}",
                a.notes
            );
        }
    }
    assert!(winners >= 10, "only {winners} winning fleets checked");
}

#[test]
fn a_single_guess_unsafe_run_evaluates_one_fixpoint() {
    let mut pinned = 0;
    for bench in parra_litmus::all() {
        let rec = Recorder::enabled(Level::Summary);
        let v = Verifier::new_with_recorder(&bench.system, options(1), rec.clone()).unwrap();
        let r = v.run(EngineId::CacheDatalog);
        if r.verdict != Verdict::Unsafe || r.stats.guesses != 1 {
            continue;
        }
        let fired = rec.snapshot().counters["cache-datalog/rules_fired"];
        // With one guess the winner's database is the largest evaluated.
        assert_eq!(
            fired, r.stats.datalog_atoms as u64,
            "{}: rules fired over the run vs atoms of the winning database",
            bench.name
        );
        pinned += 1;
    }
    assert!(pinned > 0, "no single-guess UNSAFE litmus benchmark");
}
