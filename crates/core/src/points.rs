//! Compiled access-point representations (§4.2).

use crace_model::{Action, Value};
use crace_spec::{NormAtom, Spec, Term};
use std::fmt;

/// Index of an access-point *class* within a [`CompiledSpec`].
///
/// A class is what remains of the translation's symbolic access points
/// (`o.m:β:ds` and `o.m:β:i:wᵢ`, §6.2) after the Appendix A.3 optimizations
/// merge congruent points and drop conflict-free ones. A concrete access
/// point is a class plus, for value-carrying classes, the concrete slot
/// value — see [`AccessPoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The class index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Whether a class's concrete points carry a slot value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// A `ds` point: witnesses only that the method was invoked (with a
    /// particular β). Conflicts unconditionally with its conflicting
    /// classes. Example: `o:resize`.
    Ds,
    /// A slot point: carries the concrete argument/return value `wᵢ`, and
    /// conflicts with a point of a conflicting class only when the values
    /// are equal (rule 2 of §6.2). Example: `o:w:k`.
    Slot,
}

/// A concrete access point touched by an action: a class plus the slot
/// value for value-carrying classes.
///
/// # Examples
///
/// ```
/// use crace_core::translate;
/// use crace_model::{Action, ObjId, Value};
/// use crace_spec::builtin;
///
/// let spec = builtin::dictionary();
/// let compiled = translate(&spec).unwrap();
/// let put = spec.method_id("put").unwrap();
/// // A fresh insert touches two points: o:w:k and o:resize (Fig. 7b).
/// let action = Action::new(ObjId(0), put, vec![Value::Int(5), Value::Int(1)], Value::Nil);
/// let points = compiled.touched(&action);
/// assert_eq!(points.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessPoint {
    /// The access-point class.
    pub class: ClassId,
    /// The concrete slot value, for [`PointKind::Slot`] classes.
    pub value: Option<Value>,
}

impl fmt::Display for AccessPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{}:{v}", self.class),
            None => write!(f, "{}", self.class),
        }
    }
}

/// How an action of a given method/β touches a class: either as a `ds`
/// point or by contributing the value of slot `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TouchTemplate {
    Ds(ClassId),
    Slot(ClassId, usize),
}

/// Per-method compiled tables.
#[derive(Clone, Debug)]
pub(crate) struct MethodTable {
    /// `B(Φ, m)`: the normalized LB atoms relevant to the method, in a
    /// fixed order; bit `k` of a β index is `atoms[k]`'s truth value.
    pub atoms: Vec<NormAtom>,
    /// `touch[β]`: the surviving access points of an action with that β.
    pub touch: Vec<Vec<TouchTemplate>>,
}

/// Statistics about a translation, before and after the Appendix A.3
/// optimizations. Used by tests and the translation benchmarks to check
/// Theorem 6.6 (bounded conflict degree) quantitatively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationStats {
    /// Symbolic points of the unoptimized §6.2 representation: a `ds`
    /// point and one point per slot for every `(method, β)`.
    pub raw_classes: usize,
    /// Classes after congruence merging and cleanup.
    pub classes: usize,
    /// The largest `|Cₒ(pt)|` over all classes — the per-point work bound
    /// of Algorithm 1 (Theorem 6.6 guarantees this is finite; §5.4 uses it
    /// as the per-action cost).
    pub max_conflict_degree: usize,
}

/// A commutativity specification compiled to its access-point
/// representation `⟨Xₒ, ηₒ, Cₒ⟩` (§4.2, Definition 4.4).
///
/// * `Xₒ` is the set of [`AccessPoint`]s: `(class, value)` pairs,
/// * `ηₒ` is [`CompiledSpec::touched`],
/// * `Cₒ` is [`CompiledSpec::conflicting`] lifted to values (two slot
///   points conflict only on equal values).
///
/// Produced by [`crate::translate`]; Definition 4.5 equivalence with the
/// source [`Spec`] is exercised exhaustively by this crate's tests.
#[derive(Clone, Debug)]
pub struct CompiledSpec {
    pub(crate) spec: Spec,
    pub(crate) methods: Vec<MethodTable>,
    /// `conflicts[c]`: the classes conflicting with class `c` (symmetric).
    pub(crate) conflicts: Vec<Vec<ClassId>>,
    pub(crate) kinds: Vec<PointKind>,
    pub(crate) labels: Vec<String>,
    pub(crate) stats: TranslationStats,
}

impl CompiledSpec {
    /// The source specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Number of access-point classes after optimization.
    pub fn num_classes(&self) -> usize {
        self.conflicts.len()
    }

    /// The classes conflicting with `class` (the finite `Cₒ(pt)` of §5.4).
    pub fn conflicting(&self, class: ClassId) -> &[ClassId] {
        &self.conflicts[class.index()]
    }

    /// The kind of a class.
    pub fn kind(&self, class: ClassId) -> PointKind {
        self.kinds[class.index()]
    }

    /// A human-readable label for a class, synthesized from the symbolic
    /// points merged into it (e.g. `put.w0|get.r0` for the dictionary's
    /// `o:w:k`-style class).
    pub fn label(&self, class: ClassId) -> &str {
        &self.labels[class.index()]
    }

    /// Translation statistics (pre/post-optimization sizes, max degree).
    pub fn stats(&self) -> TranslationStats {
        self.stats
    }

    /// Every `(class, slot)` combination an action of `method` can touch,
    /// over all possible β vectors; `slot` is `None` for `ds` points.
    ///
    /// Used by abstract-lock schemes, which must request locks *before*
    /// the invocation runs and therefore cannot know the actual β — the
    /// pessimism that distinguishes Kulkarni et al.'s setting from the
    /// detector's (§6, "Why ECL?").
    ///
    /// # Panics
    ///
    /// Panics if `method` is out of range for the specification.
    pub fn method_touch_universe(
        &self,
        method: crace_model::MethodId,
    ) -> Vec<(ClassId, Option<usize>)> {
        let table = &self.methods[method.index()];
        let mut set = std::collections::BTreeSet::new();
        for templates in &table.touch {
            for t in templates {
                match *t {
                    TouchTemplate::Ds(c) => {
                        set.insert((c, None));
                    }
                    TouchTemplate::Slot(c, i) => {
                        set.insert((c, Some(i)));
                    }
                }
            }
        }
        set.into_iter().collect()
    }

    /// The largest number of pairwise conflict checks an invocation of
    /// `method` can trigger: the maximum over the method's β vectors of
    /// `Σ_{pt ∈ ηₒ} |Cₒ(pt.class)|`.
    ///
    /// This is the static per-pair bound of Theorem 6.6 — in the ECL
    /// fragment it is a constant independent of trace length, which is
    /// exactly what the fragment-conformance lint reports per method.
    ///
    /// # Panics
    ///
    /// Panics if `method` is out of range for the specification.
    pub fn max_conflict_checks(&self, method: crace_model::MethodId) -> usize {
        self.methods[method.index()]
            .touch
            .iter()
            .map(|templates| {
                templates
                    .iter()
                    .map(|t| {
                        let class = match *t {
                            TouchTemplate::Ds(c) => c,
                            TouchTemplate::Slot(c, _) => c,
                        };
                        self.conflicting(class).len()
                    })
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// Computes the β index of an action: bit `k` holds atom `k`'s truth
    /// value on the action's slots.
    pub(crate) fn beta_of(&self, action: &Action) -> usize {
        let table = &self.methods[action.method().index()];
        fn term<'a>(action: &'a Action, t: &'a Term) -> &'a Value {
            match t {
                Term::Slot(i) => action.slot(*i).expect("arity checked"),
                Term::Const(v) => v,
            }
        }
        let mut beta = 0usize;
        for (k, atom) in table.atoms.iter().enumerate() {
            if atom
                .op()
                .apply(term(action, atom.lhs()), term(action, atom.rhs()))
            {
                beta |= 1 << k;
            }
        }
        beta
    }

    /// `ηₒ(a)`: the finite set of access points touched by an action
    /// (Definition 4.4, item 2), after optimization — points whose class
    /// never conflicts are already dropped.
    ///
    /// # Panics
    ///
    /// Panics if the action's method id or arity does not match the
    /// specification.
    pub fn touched(&self, action: &Action) -> Vec<AccessPoint> {
        let mut points = Vec::new();
        self.touched_into(action, &mut points);
        points
    }

    /// [`CompiledSpec::touched`] into a caller-owned buffer: clears `out`
    /// and fills it with `ηₒ(a)`, so a caller that reuses one buffer
    /// allocates nothing per action.
    ///
    /// # Panics
    ///
    /// As [`CompiledSpec::touched`].
    pub fn touched_into(&self, action: &Action, out: &mut Vec<AccessPoint>) {
        assert!(
            action.method().index() < self.methods.len(),
            "action {action} does not belong to spec `{}`",
            self.spec.name()
        );
        assert_eq!(
            action.arity(),
            self.spec.sig(action.method()).num_slots(),
            "action {action} has wrong arity for `{}`",
            self.spec.sig(action.method())
        );
        let beta = self.beta_of(action);
        let table = &self.methods[action.method().index()];
        out.clear();
        out.extend(table.touch[beta].iter().map(|t| match *t {
            TouchTemplate::Ds(class) => AccessPoint { class, value: None },
            TouchTemplate::Slot(class, i) => AccessPoint {
                class,
                value: Some(action.slot(i).expect("arity checked").clone()),
            },
        }));
    }

    /// Do two concrete actions conflict according to the compiled
    /// representation — i.e. `(ηₒ(a) × ηₒ(b)) ∩ Cₒ ≠ ∅`?
    ///
    /// By Definition 4.5 this must equal `¬ϕ(a, b)`; the equivalence is
    /// what the translation tests check exhaustively.
    pub fn actions_conflict(&self, a: &Action, b: &Action) -> bool {
        let pa = self.touched(a);
        let pb = self.touched(b);
        pa.iter().any(|x| {
            self.conflicting(x.class)
                .iter()
                .any(|&c| pb.iter().any(|y| y.class == c && y.value == x.value))
        })
    }
}

impl fmt::Display for CompiledSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "access points for `{}` ({} classes):",
            self.spec.name(),
            self.num_classes()
        )?;
        for (i, adj) in self.conflicts.iter().enumerate() {
            let kind = match self.kinds[i] {
                PointKind::Ds => "ds",
                PointKind::Slot => "slot",
            };
            let names: Vec<&str> = adj.iter().map(|c| self.label(*c)).collect();
            writeln!(
                f,
                "  {:<24} [{kind}] conflicts {{{}}}",
                self.labels[i],
                names.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::translate;
    use crace_model::{Action, MethodId, ObjId, Value};
    use crace_spec::builtin;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..4) {
            0 => Value::Nil,
            1 => Value::str(["a.com", "b.com"][rng.gen_range(0..2)]),
            _ => Value::Int(rng.gen_range(-2..4)),
        }
    }

    /// One buffer reused across a mixed sequence of methods — wide and
    /// narrow β cases alternating — holds exactly what a fresh
    /// `touched` returns each time: no point of an earlier action stays
    /// behind.
    #[test]
    fn touched_into_a_reused_buffer_equals_a_fresh_touched() {
        let mut rng = StdRng::seed_from_u64(0x70C4);
        for spec in builtin::all() {
            let compiled = translate(&spec).unwrap();
            let mut buffer = Vec::new();
            for _ in 0..2000 {
                let method = MethodId(rng.gen_range(0..spec.num_methods() as u32));
                let args = (0..spec.sig(method).num_args())
                    .map(|_| random_value(&mut rng))
                    .collect();
                let action = Action::new(ObjId(0), method, args, random_value(&mut rng));
                compiled.touched_into(&action, &mut buffer);
                assert_eq!(
                    buffer,
                    compiled.touched(&action),
                    "{}: {action}",
                    spec.name()
                );
            }
        }
    }
}
