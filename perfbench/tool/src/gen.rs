//! Seeded workload inputs with reference verdicts.
//!
//! Every generated system is written as `pretty::system_to_string` text
//! after checking that print → parse → print reproduces it unchanged, so
//! the client sends exactly what a user would. Litmus jobs carry
//! `Benchmark::expected` and TQBF reductions the verdict of
//! `parra_qbf::eval::evaluate`, which shares no code with any engine.
//! Generated systems are checked against `simplified-reach`, run once at
//! set-up outside every timed section. The small `litmus-serve` programs
//! get it here, in-process. `guess-fleet` systems leave the manifest
//! `PENDING`: the client runs their reference in child processes it can
//! kill, because an in-process search that overruns its deadline cannot
//! be stopped, and a few of these systems take it far past any limit.

use crate::manifest::{Job, Source};
use parra_core::{EngineId, MakeP, MakePLimits, Verdict, Verifier, VerifierOptions};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_litmus::Expected;
use parra_program::parser::parse_system;
use parra_program::pretty::system_to_string;
use parra_program::system::ParamSystem;
use parra_qbf::rng::Rng;
use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

/// The `guess-fleet` family: two `dis` threads long enough that guess
/// counts range from a handful to thousands.
fn fleet_config() -> GenConfig {
    GenConfig {
        n_dis: 2,
        dis_len: 4,
        env_len: 5,
        ..GenConfig::wide()
    }
}

/// `guess-fleet` strata: (largest guess count, inputs per block of 40).
/// Every block has the same mix of fleet sizes, so a run's figures do not
/// hinge on how many large fleets its seed drew. Up to 300 guesses the
/// quotas follow the family's own distribution; fleets of 301–1000
/// guesses get twice their share (4 instead of 2), because the tail
/// latency is set by them and needs enough of them in every run.
const FLEET_STRATA: [(usize, usize); 5] = [(10, 9), (30, 10), (100, 10), (300, 7), (1000, 4)];

/// The largest stratum draws from this generator stream whatever the
/// run's seed. These fleets take 0.2–1.4 s each and set the tail: drawn
/// from the run's seed, the tail's spread over ten seeds reached 23%.
/// The seed still orders them and draws every smaller fleet.
const FLEET_LARGE_SEED: u64 = 0;

/// Systems enumerating more guesses are left out of `guess-fleet`: about
/// 2% of the family, each taking 0.3–20 s, so that one of them would
/// dominate a whole run.
const FLEET_MAX_GUESSES: usize = 1000;

/// Writes `dir/manifest.tsv` and `dir/inputs/*.ra` for `workload`.
///
/// `count` sizes the seeded part of the workload: distinct programs for
/// `litmus-serve`, systems for `guess-fleet`, random matrices for
/// `qbf-hardness`.
pub fn generate(workload: &str, seed: u64, count: usize, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir.join("inputs")).map_err(|e| format!("create inputs: {e}"))?;
    let mut out = Writer {
        dir,
        jobs: Vec::new(),
        files: 0,
    };
    match workload {
        "litmus-serve" => litmus_serve(&mut out, seed, count)?,
        "guess-fleet" => guess_fleet(&mut out, seed, count)?,
        "qbf-hardness" => qbf_hardness(&mut out, seed, count)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    let text: String = out.jobs.iter().map(|j| j.line() + "\n").collect();
    std::fs::write(dir.join("manifest.tsv"), text).map_err(|e| format!("write manifest: {e}"))
}

struct Writer<'d> {
    dir: &'d Path,
    jobs: Vec<Job>,
    files: usize,
}

impl Writer<'_> {
    /// Writes `text` as the next input file and returns its path
    /// relative to the work directory.
    fn file(&mut self, text: &str) -> Result<String, String> {
        let rel = format!("inputs/{:05}.ra", self.files);
        self.files += 1;
        std::fs::write(self.dir.join(&rel), text).map_err(|e| format!("write {rel}: {e}"))?;
        Ok(rel)
    }

    fn job(&mut self, source: Source, engine: EngineId, expected: Option<Verdict>, tag: &str) {
        let id = format!("j{}", self.jobs.len());
        self.jobs.push(Job {
            id,
            source,
            engine,
            expected,
            tag: tag.to_string(),
        });
    }
}

/// A distinct, well-mixed seed per (workload seed, input index).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The system's text, after checking that it survives print → parse →
/// print unchanged.
fn round_trip(sys: &ParamSystem) -> Result<String, String> {
    let text = system_to_string(sys);
    let reparsed =
        parse_system(&text).map_err(|e| format!("generated input fails to parse: {e}"))?;
    if system_to_string(&reparsed) != text {
        return Err(format!("print → parse → print changed the input:\n{text}"));
    }
    Ok(text)
}

/// The in-process `simplified-reach` verdict, if decided within a second.
/// A program without one is reported on standard error and left out: it
/// cannot be checked. A panicking engine counts as undecided.
fn simplified_reference(sys: &ParamSystem, text: &str) -> Result<Option<Verdict>, String> {
    let options = VerifierOptions {
        threads: 1,
        timeout: Some(Duration::from_secs(1)),
        ..VerifierOptions::default()
    };
    let verifier = Verifier::new(sys, options).map_err(|e| format!("reference set-up: {e}"))?;
    let result = verifier.run_isolated(EngineId::SimplifiedReach);
    if result.verdict.is_decided() {
        return Ok(Some(result.verdict));
    }
    eprintln!(
        "parra-perfbench: left out, no reference ({}; {}):\n{text}",
        result.verdict,
        result.notes.join("; ")
    );
    Ok(None)
}

/// All built-in litmus benchmarks under both engines, plus `count`
/// distinct small generated programs under `simplified-reach`.
///
/// The distinct programs stay off `cache-datalog` for now: on about 0.8%
/// of this family its witness extraction (`witness::extract`) runs 30 s
/// and more, past any per-request deadline, and each such request would
/// hold a daemon core for the rest of the run. perfbench/README.md keeps
/// the reproducer; once the defect is fixed, distinct programs go to
/// both engines like the litmus jobs.
fn litmus_serve(out: &mut Writer, seed: u64, count: usize) -> Result<(), String> {
    for bench in parra_litmus::all() {
        let expected = Some(match bench.expected {
            Expected::Safe => Verdict::Safe,
            Expected::Unsafe => Verdict::Unsafe,
        });
        for engine in [EngineId::SimplifiedReach, EngineId::CacheDatalog] {
            out.job(
                Source::Litmus(bench.name.into()),
                engine,
                expected,
                "litmus",
            );
        }
    }
    let gen = SystemGen::new(GenConfig::agreement());
    let mut seen = HashSet::new();
    let mut i = 0;
    let first = out.jobs.len();
    while out.jobs.len() - first < count {
        let sys = gen.case(mix(seed, i)).sys;
        i += 1;
        let text = round_trip(&sys)?;
        if !seen.insert(text.clone()) {
            continue;
        }
        let Some(expected) = simplified_reference(&sys, &text)? else {
            continue;
        };
        let path = out.file(&text)?;
        out.job(
            Source::File(path),
            EngineId::SimplifiedReach,
            Some(expected),
            "distinct",
        );
    }
    Ok(())
}

/// `count` generated two-`dis` systems with at most
/// [`FLEET_MAX_GUESSES`] guesses, in seeded blocks of 40 that each hold
/// the [`FLEET_STRATA`] quotas, the largest from [`FLEET_LARGE_SEED`].
/// Each is verified by the Datalog fleet.
fn guess_fleet(out: &mut Writer, seed: u64, count: usize) -> Result<(), String> {
    let gen = SystemGen::new(fleet_config());
    let limits = MakePLimits {
        max_guesses: FLEET_MAX_GUESSES,
        ..MakePLimits::default()
    };
    let mut strata: Vec<Vec<(String, usize)>> = vec![Vec::new(); FLEET_STRATA.len()];
    let largest = FLEET_STRATA.len() - 1;
    let mut rng = Rng::seed_from_u64(seed);
    // Next case index of the seeded stream and of the fixed one.
    let mut next = [0, 0];
    while out.jobs.len() < count {
        let mut block = Vec::new();
        for (k, &(_, quota)) in FLEET_STRATA.iter().enumerate() {
            while strata[k].len() < quota {
                let fixed = k == largest;
                let stream = usize::from(fixed);
                let case_seed = if fixed { FLEET_LARGE_SEED } else { seed };
                let sys = gen.case(mix(case_seed, next[stream])).sys;
                next[stream] += 1;
                let verifier = Verifier::new(&sys, VerifierOptions::default())
                    .map_err(|e| format!("generated system rejected: {e}"))?;
                let Ok(guesses) =
                    MakeP::new(verifier.goal_system(), verifier.budget().clone(), limits)
                        .and_then(|mk| mk.guesses())
                else {
                    continue;
                };
                let n = guesses.len();
                let s = FLEET_STRATA.iter().position(|&(max, _)| n <= max);
                if let Some(s) = s.filter(|&s| (s == largest) == fixed) {
                    strata[s].push((round_trip(&sys)?, n));
                }
            }
            block.extend(strata[k].drain(..quota));
        }
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(i + 1));
        }
        for (text, n) in block.into_iter().take(count - out.jobs.len()) {
            let path = out.file(&text)?;
            out.job(
                Source::File(path),
                EngineId::CacheDatalog,
                None,
                &format!("guesses={n}"),
            );
        }
    }
    Ok(())
}

/// TQBF reductions of `copycat(n)` / `clairvoyant(n)` for n = 2..=4,
/// under `cache-datalog`, and for n = 2 also under `simplified-reach`
/// (whose world search takes seconds from n = 3 on); plus `count` seeded
/// random matrices with n = 2 under `cache-datalog`.
///
/// The random inputs stay small: a random n = 3 reduction takes 44–484 ms
/// under `cache-datalog` and a random n = 2 one 33–648 ms under
/// `simplified-reach`, so a few of them would decide a run's figures.
/// At n = 2 under `cache-datalog` they take 16–49 ms: many of them set the
/// median, and the fixed reductions set the tail.
fn qbf_hardness(out: &mut Writer, seed: u64, count: usize) -> Result<(), String> {
    use parra_qbf::gen;
    let mut qbfs = Vec::new();
    for n in 2..=4 {
        qbfs.push((format!("copycat-{n}"), n == 2, gen::copycat(n)));
        qbfs.push((format!("clairvoyant-{n}"), n == 2, gen::clairvoyant(n)));
    }
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..count {
        qbfs.push(("random-2".to_string(), false, gen::random(&mut rng, 2, 3)));
    }
    for (tag, simplified, qbf) in qbfs {
        let expected = Some(if parra_qbf::evaluate(&qbf) {
            Verdict::Unsafe
        } else {
            Verdict::Safe
        });
        let sys = parra_qbf::reduce_to_purera(&qbf).system;
        let text = round_trip(&sys)?;
        let path = out.file(&text)?;
        out.job(
            Source::File(path.clone()),
            EngineId::CacheDatalog,
            expected,
            &tag,
        );
        if simplified {
            out.job(
                Source::File(path),
                EngineId::SimplifiedReach,
                expected,
                &tag,
            );
        }
    }
    Ok(())
}
