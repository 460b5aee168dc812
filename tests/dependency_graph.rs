//! The dependency graph `simplified-reach` rebuilds from its witness
//! (Definition 1, for the §4.3 env-thread bound) must cover every
//! message the witness reads.

use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_fuzz::oracle::{EnginesAgree, Oracle, OracleOutcome};

/// A dis CAS that closes the gap an env store went through must not
/// lose the env thread behind it when the graph is rebuilt: both exact
/// engines answer UNSAFE, and the §4.3 env-thread bound is reported.
#[test]
fn cas_closing_an_env_gap_keeps_the_env_thread_behind_it() {
    let text = std::fs::read_to_string("corpus/engines-agree-cas-closes-env-gap.ra").unwrap();
    let sys = parra_program::parser::parse_system(&text).unwrap();
    let v = Verifier::new(&sys, VerifierOptions::default()).unwrap();
    let simplified = v.run_isolated(EngineId::SimplifiedReach);
    assert_eq!(
        simplified.verdict,
        Verdict::Unsafe,
        "{:?}",
        simplified.notes
    );
    assert_eq!(simplified.env_thread_bound, Some(3));
    assert_eq!(v.run(EngineId::CacheDatalog).verdict, Verdict::Unsafe);
    assert_eq!(EnginesAgree.check(&sys), OracleOutcome::Pass);
}
