//! The traced in-process run: the per-layer ledger.
//!
//! Every job of a manifest runs three times. The untraced run calls the
//! public pipeline a host would (`parse_system` → `SystemClass::of` →
//! `Verifier::new` → `Verifier::run`) and times the job as a whole. The
//! traced run replays the same engine through the public API of each
//! layer, one call at a time, with a span around every call:
//!
//! ```text
//! input ─┬─ program.parse        parse_system
//!        ├─ program.classify     SystemClass::of
//!        ├─ core.prepare         Verifier::new
//!        ├─ makep.enumerate      MakeP::new + MakeP::guesses
//!        ├─ makep.encode         MakeP::program            (per guess)
//!        ├─ datalog.plan         PlanCache::plan           (per guess)
//!        ├─ datalog.eval         Evaluator::run_until      (per guess)
//!        ├─ witness.extract      witness::extract          (Unsafe only)
//!        ├─ simplified.search    Reachability::run
//!        └─ simplified.witness   DepGraph::build + cost_of_graph (Unsafe only)
//! ```
//!
//! The Datalog replay mirrors the engine at one thread: guesses in index
//! order, one run-local plan cache, stop at the first winning guess, then
//! re-encode the winner and extract its witness. The replay must
//! reproduce the engine's verdict and guess count on every job, and both
//! must equal the job's reference verdict; anything else is an error.
//!
//! The two run back to back per job, which one first alternating. A
//! final counting pass over the manifest repeats the replay with an enabled `Recorder`
//! handed to the evaluator and the search, and reads the work counters
//! from it. It is kept apart from the traced pass so that recording
//! costs no layer any time.
//!
//! `ledger.residual_ratio` is the share of the untraced time that no
//! replayed layer accounts for: (Σ untraced − Σ layer self time) ÷
//! Σ untraced. `trace.overhead_us` is Σ traced − Σ untraced.

use crate::manifest::{self, Job, Source};
use parra_core::makep::DatalogTarget;
use parra_core::{witness, EngineId, Guess, MakeP, Verdict, Verifier, VerifierOptions};
use parra_datalog::eval::Evaluator;
use parra_datalog::plan::PlanCache;
use parra_limits::ResourceBudget;
use parra_obs::{Level, Recorder};
use parra_program::classify::SystemClass;
use parra_program::ident::VarId;
use parra_program::parser::parse_system;
use parra_program::system::ParamSystem;
use parra_program::transform::GOAL_VAR_NAME;
use parra_program::value::Val;
use parra_simplified::{cost_of_graph, DepGraph, ReachOutcome, Reachability, SimpTarget};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layer spans, in report order. The root span (`input`) is not a
/// layer: its self time is replay bookkeeping.
const LAYERS: [&str; 10] = [
    "program.parse",
    "program.classify",
    "core.prepare",
    "makep.enumerate",
    "makep.encode",
    "datalog.plan",
    "datalog.eval",
    "witness.extract",
    "simplified.search",
    "simplified.witness",
];

struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory and written out once the run is over.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
    }

    /// Self time (µs) per span name: duration minus the children's.
    fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += us(s.end - s.start - c);
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.job,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Work counts summed over the traced pass.
#[derive(Default)]
struct Counts {
    guesses: u64,
    encoded: u64,
    rules: u64,
    plan_calls: u64,
    plan_hits: u64,
    evaluated: u64,
    unsafe_winners: u64,
    unsafe_evaluated: u64,
    states: u64,
    worlds: u64,
}

/// A job with its input loaded (file read / litmus system built) before
/// any timing starts.
struct Loaded {
    job: Job,
    text: Option<String>,
    litmus: Option<ParamSystem>,
}

impl Loaded {
    /// The job's system: parsed from text, or the prebuilt litmus system.
    /// Parsing is the `program.parse` layer; `parse` wraps it.
    fn system<'a>(
        &'a self,
        parsed: &'a mut Option<ParamSystem>,
        parse: impl FnOnce(&str) -> Result<ParamSystem, String>,
    ) -> Result<&'a ParamSystem, String> {
        match (&self.text, &self.litmus) {
            (Some(text), _) => Ok(parsed.insert(parse(text)?)),
            (None, Some(sys)) => Ok(sys),
            (None, None) => unreachable!("every loaded job has a text or a litmus system"),
        }
    }
}

fn load(dir: &Path, job: Job) -> Result<Loaded, String> {
    let (text, litmus) = match &job.source {
        Source::File(rel) => {
            let path = dir.join(rel);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            (Some(text), None)
        }
        Source::Litmus(name) => {
            let bench = parra_litmus::by_name(name)
                .ok_or_else(|| format!("unknown litmus benchmark `{name}`"))?;
            (None, Some(bench.system))
        }
    };
    Ok(Loaded { job, text, litmus })
}

fn parse(text: &str) -> Result<ParamSystem, String> {
    parse_system(text).map_err(|e| format!("parse: {e}"))
}

/// Replays `manifest` (relative to `dir`) and returns the ledger as one
/// JSON object; spans go to `dir/spans.jsonl`.
pub fn run(dir: &Path, manifest: &str, timeout_ms: u64) -> Result<String, String> {
    let jobs = manifest::read(&dir.join(manifest))?;
    let loaded: Vec<Loaded> = jobs
        .into_iter()
        .map(|j| load(dir, j))
        .collect::<Result<_, _>>()?;
    let timeout = Duration::from_millis(timeout_ms);
    let options = VerifierOptions {
        threads: 1,
        timeout: Some(timeout),
        ..VerifierOptions::default()
    };

    // Untraced and traced runs of each job back to back, the first of
    // the two alternating, so that neither gains from running second.
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut untraced_total = Duration::ZERO;
    let mut traced = Duration::ZERO;
    for (i, l) in loaded.iter().enumerate() {
        tracer.job = i;
        let mut engine_run = None;
        let mut replayed = None;
        for untraced_now in [i % 2 == 0, i % 2 != 0] {
            if untraced_now {
                let t0 = Instant::now();
                let mut parsed = None;
                let sys = l.system(&mut parsed, parse)?;
                black_box(SystemClass::of(sys));
                let verifier = Verifier::new(sys, options.clone())
                    .map_err(|e| format!("{}: {e}", l.job.id))?;
                let result = verifier.run(l.job.engine);
                untraced_total += t0.elapsed();
                engine_run = Some((result.verdict, result.stats.guesses));
            } else {
                let root = tracer.begin("input");
                replayed = Some(replay(
                    &mut tracer,
                    &Recorder::disabled(),
                    l,
                    &options,
                    timeout,
                    &mut counts,
                )?);
                tracer.end(root);
                traced += tracer.spans[root].end - tracer.spans[root].start;
            }
        }
        let (verdict, guesses) = replayed.expect("both runs happened");
        let (engine_verdict, engine_guesses) = engine_run.expect("both runs happened");
        if (verdict, guesses) != (engine_verdict, engine_guesses) {
            return Err(format!(
                "{}: replay gave {verdict} with {guesses} guesses, the engine {engine_verdict} \
                 with {engine_guesses}",
                l.job.id
            ));
        }
        let expected = l
            .job
            .expected
            .ok_or_else(|| format!("{}: no reference verdict", l.job.id))?;
        if verdict != expected {
            return Err(format!(
                "{}: WRONG VERDICT {verdict} from {}, reference {expected}",
                l.job.id, l.job.engine
            ));
        }
    }
    tracer.write_jsonl(&dir.join("spans.jsonl"))?;

    // Counting pass: the replay again, counters recorded.
    let rec = Recorder::enabled(Level::Summary);
    for l in &loaded {
        replay(
            &mut Tracer::new(),
            &rec,
            l,
            &options,
            timeout,
            &mut Counts::default(),
        )?;
    }

    let untraced_us = us(untraced_total);
    let self_us = tracer.self_us();
    let layer_us: f64 = LAYERS.iter().filter_map(|l| self_us.get(l)).sum();
    let counter = |name: &str| rec.counter(name).get() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &counts;

    let mut m: Vec<(String, f64)> = LAYERS
        .iter()
        .map(|l| (format!("{l}_us"), self_us.get(l).copied().unwrap_or(0.0)))
        .collect();
    let index_hits = counter("index_hits");
    let index_builds = counter("index_builds");
    m.extend([
        ("makep.guesses".into(), c.guesses as f64),
        (
            "makep.rules_per_guess".into(),
            ratio(c.rules as f64, c.encoded as f64),
        ),
        (
            "datalog.plan_hit_ratio".into(),
            ratio(c.plan_hits as f64, c.plan_calls as f64),
        ),
        ("datalog.guesses_evaluated".into(), c.evaluated as f64),
        (
            "datalog.useful_ratio".into(),
            ratio(c.unsafe_winners as f64, c.unsafe_evaluated as f64),
        ),
        ("datalog.atoms_derived".into(), counter("rules_fired")),
        ("datalog.join_attempts".into(), counter("join_attempts")),
        ("datalog.index_builds".into(), index_builds),
        (
            "datalog.index_hit_ratio".into(),
            ratio(index_hits, index_hits + index_builds),
        ),
        ("simplified.states".into(), c.states as f64),
        ("simplified.worlds".into(), c.worlds as f64),
        (
            "ledger.residual_ratio".into(),
            ratio(untraced_us - layer_us, untraced_us),
        ),
        ("ledger.untraced_us".into(), untraced_us),
        (
            "ledger.replay_other_us".into(),
            self_us.get("input").copied().unwrap_or(0.0),
        ),
        ("trace.overhead_us".into(), us(traced) - untraced_us),
    ]);
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    Ok(format!("{{{}}}", body.join(",")))
}

/// Replays one job layer by layer; returns its verdict and guess count.
fn replay(
    tr: &mut Tracer,
    rec: &Recorder,
    l: &Loaded,
    options: &VerifierOptions,
    timeout: Duration,
    c: &mut Counts,
) -> Result<(Verdict, usize), String> {
    let id = &l.job.id;
    let mut parsed = None;
    let sys = l.system(&mut parsed, |text| {
        let s = tr.begin("program.parse");
        let sys = parse(text);
        tr.end(s);
        sys
    })?;
    let s = tr.begin("program.classify");
    black_box(SystemClass::of(sys));
    tr.end(s);
    let s = tr.begin("core.prepare");
    let verifier = Verifier::new(sys, options.clone()).map_err(|e| format!("{id}: {e}"))?;
    tr.end(s);

    // A system without assertions is trivially safe; every engine
    // answers without running.
    let has_assert = sys.env.com().has_assert() || sys.dis.iter().any(|p| p.com().has_assert());
    if !has_assert {
        return Ok((Verdict::Safe, 0));
    }
    let goal_sys = verifier.goal_system();
    let goal_var = VarId(
        goal_sys
            .vars
            .lookup(GOAL_VAR_NAME)
            .expect("Verifier::new adds the goal variable"),
    );
    let goal_val = Val(1);
    let gov = ResourceBudget::unlimited().with_deadline(timeout);
    let undecided = |what: &str| format!("{id}: {what} undecided within {timeout:?}");

    match l.job.engine {
        EngineId::SimplifiedReach => {
            let s = tr.begin("simplified.search");
            let report = Reachability::new(
                goal_sys.clone(),
                verifier.budget().clone(),
                options.reach_limits,
            )
            .map_err(|e| format!("{id}: {e}"))?
            .with_recorder(rec.clone())
            .with_threads(1)
            .with_governor(gov)
            .run(SimpTarget::MessageGenerated(goal_var, goal_val));
            tr.end(s);
            c.states += report.states as u64;
            c.worlds += report.worlds as u64;
            if let Some(w) = &report.witness {
                // As the engine does: the §4.3 env-thread bound of the bug.
                let s = tr.begin("simplified.witness");
                let graph = DepGraph::build(goal_sys, verifier.budget(), w);
                let goal = graph.find_message(goal_var, goal_val);
                black_box(goal.map(|n| cost_of_graph(&graph, n)));
                tr.end(s);
            }
            match report.outcome {
                ReachOutcome::Safe => Ok((Verdict::Safe, 0)),
                ReachOutcome::Unsafe => Ok((Verdict::Unsafe, 0)),
                _ => Err(undecided("simplified search")),
            }
        }
        EngineId::CacheDatalog => {
            let target = DatalogTarget::MessageGenerated(goal_var, goal_val);
            let s = tr.begin("makep.enumerate");
            let mk = MakeP::new(goal_sys, verifier.budget().clone(), options.makep_limits)
                .map_err(|e| format!("{id}: {e}"))?;
            let guesses = mk.guesses().map_err(|e| format!("{id}: {e}"))?;
            tr.end(s);
            c.guesses += guesses.len() as u64;

            let mut cache = PlanCache::new();
            let mut plan_for = |tr: &mut Tracer, c: &mut Counts, guess: &Guess| {
                let s = tr.begin("makep.encode");
                let (prog, goal) = mk.program(guess, target);
                tr.end(s);
                c.encoded += 1;
                c.rules += prog.rules().len() as u64;
                let s = tr.begin("datalog.plan");
                let before = cache.len();
                let plan = cache.plan(&prog);
                tr.end(s);
                c.plan_calls += 1;
                c.plan_hits += u64::from(cache.len() == before);
                (prog, goal, plan)
            };
            let mut evaluated = 0;
            let mut winner = None;
            for (i, guess) in guesses.iter().enumerate() {
                let (prog, goal, plan) = plan_for(tr, c, guess);
                let s = tr.begin("datalog.eval");
                let db = Evaluator::with_plan(&prog, plan)
                    .with_recorder(rec.clone())
                    .with_threads(1)
                    .with_governor(gov.clone())
                    .run_until(Some(&goal));
                tr.end(s);
                evaluated += 1;
                let won = db.contains(&goal);
                if db.interrupted().is_some() && !won {
                    return Err(undecided("Datalog guess fleet"));
                }
                if won {
                    winner = Some(i);
                    break;
                }
            }
            c.evaluated += evaluated;
            let Some(wi) = winner else {
                return Ok((Verdict::Safe, guesses.len()));
            };
            c.unsafe_winners += 1;
            c.unsafe_evaluated += evaluated;
            // As the engine does: re-encode the winner, reuse its plan,
            // and extract the Lemma 4.6 witness with provenance on.
            let (prog, goal, plan) = plan_for(tr, c, &guesses[wi]);
            let s = tr.begin("witness.extract");
            let w = witness::extract(&prog, &goal, &Recorder::disabled(), 1, Some(plan));
            tr.end(s);
            if w.is_none() {
                return Err(format!("{id}: winning guess does not replay"));
            }
            Ok((Verdict::Unsafe, guesses.len()))
        }
        other => Err(format!("{id}: engine {other} is not part of any workload")),
    }
}
