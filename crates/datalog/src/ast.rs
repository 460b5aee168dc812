//! Datalog abstract syntax: constants, terms, atoms, rules, programs.
//!
//! Programs are *positive* Datalog: no negation. Rules must be *safe*
//! (every head variable occurs in the body; facts are ground). A rule with
//! at most one body atom is *linear*; a program of linear rules and facts
//! is a linear Datalog program (Section 4 of the paper).

use std::collections::HashMap;
use std::fmt;

/// An (opaque) constant. Constants are dense `u32` ids; a [`Program`] can
/// attach display names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Const(pub u32);

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A predicate identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

/// A term: a rule-local variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule-local variable (dense per rule).
    Var(u32),
    /// A constant.
    Const(Const),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(i: u32) -> Term {
        Term::Var(i)
    }

    /// Shorthand for a constant term.
    pub fn cst(c: u32) -> Term {
        Term::Const(Const(c))
    }
}

/// An atom `p(t₁, …, tₙ)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate.
    pub pred: PredId,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(pred: PredId, terms: Vec<Term>) -> Atom {
        Atom { pred, terms }
    }

    /// Whether all terms are constants.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| matches!(t, Term::Const(_)))
    }

    /// The variables occurring in the atom.
    pub fn variables(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = self
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Converts a ground atom view of this atom.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not ground.
    pub fn to_ground(&self) -> GroundAtom {
        GroundAtom {
            pred: self.pred,
            args: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => panic!("atom is not ground: variable X{v}"),
                })
                .collect(),
        }
    }
}

/// A ground atom `p(c₁, …, cₙ)` — the objects inferred by evaluation and
/// stored in caches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: PredId,
    /// The argument constants.
    pub args: Vec<Const>,
}

impl GroundAtom {
    /// Creates a ground atom.
    pub fn new(pred: PredId, args: Vec<Const>) -> GroundAtom {
        GroundAtom { pred, args }
    }
}

/// An inference rule `head :- body₁, …, bodyₜ`. Facts have empty bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms (empty for facts).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Whether the rule is a fact (empty body).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Whether the rule is linear (at most one body atom).
    pub fn is_linear(&self) -> bool {
        self.body.len() <= 1
    }

    /// Whether `head :- body` is a ground instance of the rule: one
    /// substitution maps the head and every body atom, position for
    /// position, onto the given ground atoms.
    pub fn is_instance(&self, head: &GroundAtom, body: &[GroundAtom]) -> bool {
        let mut subst: HashMap<u32, Const> = HashMap::new();
        body.len() == self.body.len()
            && std::iter::once((&self.head, head))
                .chain(self.body.iter().zip(body))
                .all(|(pattern, g)| {
                    pattern.pred == g.pred
                        && pattern.terms.len() == g.args.len()
                        && pattern.terms.iter().zip(&g.args).all(|(t, c)| match t {
                            Term::Const(k) => k == c,
                            Term::Var(v) => subst.entry(*v).or_insert(*c) == c,
                        })
                })
    }
}

/// Why a rule is rejected by [`Program`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A predicate is used with the wrong number of arguments.
    ArityMismatch {
        /// The offending predicate.
        pred: PredId,
        /// Its declared arity.
        expected: usize,
        /// The number of terms supplied.
        got: usize,
    },
    /// A head variable does not occur in the body (unsafe rule).
    UnsafeVariable {
        /// The unbound variable.
        var: u32,
    },
    /// An unknown predicate id.
    UnknownPredicate(PredId),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "predicate p{} used with {got} arguments, declared with {expected}",
                pred.0
            ),
            RuleError::UnsafeVariable { var } => {
                write!(f, "head variable X{var} does not occur in the body")
            }
            RuleError::UnknownPredicate(p) => write!(f, "unknown predicate p{}", p.0),
        }
    }
}

impl std::error::Error for RuleError {}

#[derive(Debug, Clone)]
struct PredInfo {
    name: String,
    arity: usize,
}

/// A positive Datalog program: a predicate registry, constant names, and
/// validated rules.
///
/// # Example
///
/// ```
/// use parra_datalog::ast::{Atom, Program, Term};
///
/// let mut p = Program::new();
/// let edge = p.predicate("edge", 2);
/// let path = p.predicate("path", 2);
/// let a = p.constant("a");
/// let b = p.constant("b");
/// p.fact(edge, vec![a, b]).unwrap();
/// p.rule(
///     Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
///     vec![Atom::new(edge, vec![Term::Var(0), Term::Var(1)])],
/// )
/// .unwrap();
/// assert_eq!(p.rules().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    preds: Vec<PredInfo>,
    pred_index: HashMap<String, PredId>,
    const_names: Vec<String>,
    const_index: HashMap<String, Const>,
    rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declares (or re-uses) a predicate with the given arity.
    ///
    /// # Panics
    ///
    /// Panics if the name was declared before with a different arity.
    pub fn predicate(&mut self, name: &str, arity: usize) -> PredId {
        if let Some(&id) = self.pred_index.get(name) {
            assert_eq!(
                self.preds[id.0 as usize].arity, arity,
                "predicate `{name}` re-declared with different arity"
            );
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredInfo {
            name: name.to_owned(),
            arity,
        });
        self.pred_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a named constant.
    pub fn constant(&mut self, name: &str) -> Const {
        if let Some(&c) = self.const_index.get(name) {
            return c;
        }
        let c = Const(self.const_names.len() as u32);
        self.const_names.push(name.to_owned());
        self.const_index.insert(name.to_owned(), c);
        c
    }

    /// The number of interned constants.
    pub fn n_constants(&self) -> usize {
        self.const_names.len()
    }

    /// The display name of a predicate.
    pub fn pred_name(&self, p: PredId) -> &str {
        &self.preds[p.0 as usize].name
    }

    /// The arity of a predicate.
    pub fn pred_arity(&self, p: PredId) -> usize {
        self.preds[p.0 as usize].arity
    }

    /// The display name of a constant, if it was interned by name.
    pub fn const_name(&self, c: Const) -> Option<&str> {
        self.const_names.get(c.0 as usize).map(String::as_str)
    }

    /// Looks up a predicate by name.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.pred_index.get(name).copied()
    }

    /// All predicates.
    pub fn predicates(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// The validated rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Adds a fact `p(args)`.
    ///
    /// # Errors
    ///
    /// Rejects arity mismatches and unknown predicates.
    pub fn fact(&mut self, pred: PredId, args: Vec<Const>) -> Result<(), RuleError> {
        let head = Atom::new(pred, args.into_iter().map(Term::Const).collect());
        self.rule(head, Vec::new())
    }

    /// Adds a rule `head :- body`, validating arity and safety.
    ///
    /// # Errors
    ///
    /// See [`RuleError`].
    pub fn rule(&mut self, head: Atom, body: Vec<Atom>) -> Result<(), RuleError> {
        self.validate(&head, &body)?;
        self.rules.push(Rule { head, body });
        Ok(())
    }

    /// Checks `head :- body` against this program's predicate registry
    /// (arity, safety) without adding it — for rule lists kept outside the
    /// program, such as the per-guess extension of an incremental fleet
    /// ([`Evaluator::extend`](crate::eval::Evaluator::extend)).
    ///
    /// # Errors
    ///
    /// See [`RuleError`].
    pub fn validate(&self, head: &Atom, body: &[Atom]) -> Result<(), RuleError> {
        for atom in std::iter::once(head).chain(body.iter()) {
            let info = self
                .preds
                .get(atom.pred.0 as usize)
                .ok_or(RuleError::UnknownPredicate(atom.pred))?;
            if info.arity != atom.terms.len() {
                return Err(RuleError::ArityMismatch {
                    pred: atom.pred,
                    expected: info.arity,
                    got: atom.terms.len(),
                });
            }
        }
        let body_vars: std::collections::HashSet<u32> =
            body.iter().flat_map(|a| a.variables()).collect();
        for v in head.variables() {
            if !body_vars.contains(&v) {
                return Err(RuleError::UnsafeVariable { var: v });
            }
        }
        Ok(())
    }

    /// Renders a ground atom with names where available.
    pub fn display_ground(&self, g: &GroundAtom) -> String {
        let args: Vec<String> = g
            .args
            .iter()
            .map(|c| {
                self.const_name(*c)
                    .map(str::to_owned)
                    .unwrap_or_else(|| c.to_string())
            })
            .collect();
        format!("{}({})", self.pred_name(g.pred), args.join(","))
    }

    /// Total size: number of rules plus the number of atoms in all rules —
    /// the `|Prog|` of the paper's complexity statements.
    pub fn size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| {
                1 + r.body.len()
                    + r.head.terms.len()
                    + r.body.iter().map(|a| a.terms.len()).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_interning() {
        let mut p = Program::new();
        let e1 = p.predicate("edge", 2);
        let e2 = p.predicate("edge", 2);
        assert_eq!(e1, e2);
        assert_eq!(p.pred_name(e1), "edge");
        assert_eq!(p.pred_arity(e1), 2);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_conflict_panics() {
        let mut p = Program::new();
        p.predicate("q", 1);
        p.predicate("q", 2);
    }

    #[test]
    fn constants_intern() {
        let mut p = Program::new();
        let a = p.constant("a");
        assert_eq!(p.constant("a"), a);
        assert_eq!(p.const_name(a), Some("a"));
        assert_eq!(p.n_constants(), 1);
    }

    #[test]
    fn fact_arity_checked() {
        let mut p = Program::new();
        let q = p.predicate("q", 2);
        let a = p.constant("a");
        let err = p.fact(q, vec![a]).unwrap_err();
        assert!(matches!(err, RuleError::ArityMismatch { .. }));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let r = p.predicate("r", 1);
        let err = p
            .rule(
                Atom::new(q, vec![Term::Var(1)]),
                vec![Atom::new(r, vec![Term::Var(0)])],
            )
            .unwrap_err();
        assert_eq!(err, RuleError::UnsafeVariable { var: 1 });
    }

    #[test]
    fn linearity() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        p.rule(
            Atom::new(q, vec![Term::Var(0)]),
            vec![Atom::new(q, vec![Term::Var(0)])],
        )
        .unwrap();
        assert!(p.rules()[0].is_linear());
        assert!(!p.rules()[0].is_fact());
    }

    #[test]
    fn ground_atoms_and_display() {
        let mut p = Program::new();
        let q = p.predicate("q", 2);
        let a = p.constant("a");
        let b = p.constant("b");
        p.fact(q, vec![a, b]).unwrap();
        let g = p.rules()[0].head.to_ground();
        assert_eq!(p.display_ground(&g), "q(a,b)");
        assert!(p.rules()[0].head.is_ground());
    }

    #[test]
    fn atom_variables_sorted_dedup() {
        let a = Atom::new(
            PredId(0),
            vec![Term::Var(2), Term::Var(0), Term::Var(2), Term::cst(5)],
        );
        assert_eq!(a.variables(), vec![0, 2]);
        assert!(!a.is_ground());
    }

    #[test]
    fn program_size_counts_atoms() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        p.rule(
            Atom::new(q, vec![Term::Var(0)]),
            vec![Atom::new(q, vec![Term::Var(0)])],
        )
        .unwrap();
        assert!(p.size() >= 4);
    }
}
