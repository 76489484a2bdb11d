//! The vector-clock lattice `VC = Tid → ℕ`.

use crace_model::ThreadId;
use std::cmp::Ordering;
use std::fmt;

/// A vector clock: a finitely-supported map from thread identifiers to local
/// timestamps (§3.2).
///
/// Entries not explicitly stored are zero, so the bottom element `⊥ = λτ.0`
/// is the empty vector. The type forms a lattice under the pointwise order:
///
/// * `c1 ⊑ c2` iff `c1(τ) ≤ c2(τ)` for all `τ` — see [`VectorClock::le`],
/// * `c1 ⊔ c2 = λτ. max(c1(τ), c2(τ))` — see [`VectorClock::join`],
/// * `inc_υ(c)` bumps component `υ` by one — see [`VectorClock::inc`].
///
/// Two events may happen in parallel (`e1 ∥ e2`) exactly when their clocks
/// are incomparable — see [`VectorClock::concurrent_with`].
///
/// Internally the clock is a dense `Vec<u64>` indexed by thread id; thread
/// ids are allocated densely by the runtime so this wastes no space, and the
/// hot operations (`le`, `join`) are simple slice loops. Trailing zeros are
/// kept trimmed so that equal clocks are representationally equal.
///
/// # Examples
///
/// ```
/// use crace_model::ThreadId;
/// use crace_vclock::VectorClock;
///
/// // The clocks from Fig. 3 of the paper.
/// let a1 = VectorClock::from_components([3, 0, 1]);
/// let a2 = VectorClock::from_components([2, 1, 0]);
/// let a3 = VectorClock::from_components([4, 1, 1]);
/// assert!(a1.concurrent_with(&a2));    // the commutativity race pair
/// assert!(a1.le(&a3) && a2.le(&a3));   // joinall orders both before size()
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    components: Vec<u64>,
}

impl VectorClock {
    /// Creates the bottom clock `⊥ = λτ.0`.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// Creates a clock from explicit components, index `i` being thread `i`'s
    /// entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use crace_model::ThreadId;
    /// use crace_vclock::VectorClock;
    /// let c = VectorClock::from_components([2, 1, 0]);
    /// assert_eq!(c.get(ThreadId(0)), 2);
    /// assert_eq!(c.get(ThreadId(7)), 0); // absent entries are zero
    /// ```
    pub fn from_components(components: impl IntoIterator<Item = u64>) -> VectorClock {
        let mut clock = VectorClock {
            components: components.into_iter().collect(),
        };
        clock.trim();
        clock
    }

    fn trim(&mut self) {
        while self.components.last() == Some(&0) {
            self.components.pop();
        }
    }

    /// The timestamp recorded for thread `tid` (zero if absent).
    #[inline]
    pub fn get(&self, tid: ThreadId) -> u64 {
        self.components.get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the timestamp of thread `tid` to `value`.
    pub fn set(&mut self, tid: ThreadId, value: u64) {
        let idx = tid.index();
        if idx >= self.components.len() {
            if value == 0 {
                return;
            }
            self.components.resize(idx + 1, 0);
        }
        self.components[idx] = value;
        self.trim();
    }

    /// Performs `inc_υ`: one timestep increment of component `tid`.
    pub fn inc(&mut self, tid: ThreadId) {
        let idx = tid.index();
        if idx >= self.components.len() {
            self.components.resize(idx + 1, 0);
        }
        self.components[idx] += 1;
    }

    /// Pointwise order `self ⊑ other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        // Trailing components absent in `other` are zero, so any nonzero
        // surplus component of `self` breaks the order.
        self.components
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.components.get(i).copied().unwrap_or(0))
    }

    /// Returns `true` iff the clocks are incomparable — the events they
    /// stamp may happen in parallel (`∥`).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// The least upper bound `self ⊔ other`.
    pub fn join(&self, other: &VectorClock) -> VectorClock {
        let mut joined = self.clone();
        joined.join_in_place(other);
        joined
    }

    /// In-place join, for the hot path of Algorithm 1 phase 2.
    pub fn join_in_place(&mut self, other: &VectorClock) {
        if other.components.len() > self.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (i, &c) in other.components.iter().enumerate() {
            if c > self.components[i] {
                self.components[i] = c;
            }
        }
    }

    /// Returns `true` iff this is the bottom clock `⊥`.
    pub fn is_bottom(&self) -> bool {
        self.components.is_empty()
    }

    /// The stored components, thread 0 first: `dim` of them.
    pub(crate) fn components(&self) -> &[u64] {
        &self.components
    }

    /// Number of stored components (threads with a nonzero entry bound).
    pub fn dim(&self) -> usize {
        self.components.len()
    }
}

impl PartialOrd for VectorClock {
    /// The pointwise partial order; `None` for incomparable (concurrent)
    /// clocks.
    fn partial_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        match (self.le(other), other.le(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vc(components: &[u64]) -> VectorClock {
        VectorClock::from_components(components.iter().copied())
    }

    #[test]
    fn bottom_is_least() {
        let bot = VectorClock::new();
        assert!(bot.is_bottom());
        assert!(bot.le(&vc(&[1, 2, 3])));
        assert!(bot.le(&bot));
    }

    #[test]
    fn trailing_zeros_do_not_affect_equality() {
        assert_eq!(vc(&[1, 0, 0]), vc(&[1]));
        let mut c = vc(&[1, 5]);
        c.set(ThreadId(1), 0);
        assert_eq!(c, vc(&[1]));
    }

    #[test]
    fn inc_bumps_single_component() {
        let mut c = vc(&[2, 1]);
        c.inc(ThreadId(0));
        assert_eq!(c, vc(&[3, 1]));
        c.inc(ThreadId(4));
        assert_eq!(c.get(ThreadId(4)), 1);
    }

    #[test]
    fn fig3_clock_relationships() {
        let a1 = vc(&[3, 0, 1]);
        let a2 = vc(&[2, 1, 0]);
        let a3 = vc(&[4, 1, 1]);
        assert!(a1.concurrent_with(&a2));
        assert!(a2.concurrent_with(&a1));
        assert!(a1.le(&a3));
        assert!(a2.le(&a3));
        assert!(!a3.le(&a1));
        assert_eq!(a1.partial_cmp(&a2), None);
        assert_eq!(a1.partial_cmp(&a3), Some(Ordering::Less));
    }

    #[test]
    fn join_is_pointwise_max() {
        let a = vc(&[3, 0, 1]);
        let b = vc(&[2, 1]);
        assert_eq!(a.join(&b), vc(&[3, 1, 1]));
        assert_eq!(b.join(&a), vc(&[3, 1, 1]));
    }

    #[test]
    fn join_in_place_grows_dimension() {
        let mut a = vc(&[1]);
        a.join_in_place(&vc(&[0, 0, 2]));
        assert_eq!(a, vc(&[1, 0, 2]));
        assert_eq!(a.dim(), 3);
    }

    #[test]
    fn display_uses_angle_brackets() {
        assert_eq!(vc(&[3, 0, 1]).to_string(), "⟨3, 0, 1⟩");
        assert_eq!(VectorClock::new().to_string(), "⟨⟩");
    }

    // Randomized lattice-law checks in the seeded-StdRng style of
    // crates/core/tests/random_formulas.rs. Small dimensions/values make
    // incomparable, equal and ordered pairs all common.
    fn random_clock(rng: &mut StdRng) -> VectorClock {
        let dim = rng.gen_range(0..5usize);
        VectorClock::from_components((0..dim).map(|_| rng.gen_range(0u64..6)))
    }

    #[test]
    fn join_is_least_upper_bound() {
        let mut rng = StdRng::seed_from_u64(0xC10C);
        for _ in 0..2_000 {
            let (a, b) = (random_clock(&mut rng), random_clock(&mut rng));
            let j = a.join(&b);
            assert!(
                a.le(&j) && b.le(&j),
                "{a} ⊔ {b} = {j} is not an upper bound"
            );
            // Least: every component of the join comes from a or b.
            for i in 0..j.dim() {
                let t = ThreadId(i as u32);
                assert_eq!(j.get(t), a.get(t).max(b.get(t)));
            }
        }
    }

    #[test]
    fn join_commutative_associative_idempotent() {
        let mut rng = StdRng::seed_from_u64(0x10B);
        for _ in 0..2_000 {
            let (a, b, c) = (
                random_clock(&mut rng),
                random_clock(&mut rng),
                random_clock(&mut rng),
            );
            assert_eq!(a.join(&b), b.join(&a));
            assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
            assert_eq!(a.join(&a), a);
        }
    }

    #[test]
    fn order_is_reflexive_and_antisymmetric() {
        let mut rng = StdRng::seed_from_u64(0x0D0);
        for _ in 0..2_000 {
            let (a, b) = (random_clock(&mut rng), random_clock(&mut rng));
            assert!(a.le(&a));
            if a.le(&b) && b.le(&a) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn order_is_transitive() {
        let mut rng = StdRng::seed_from_u64(0x7A5);
        for _ in 0..5_000 {
            let (a, b, c) = (
                random_clock(&mut rng),
                random_clock(&mut rng),
                random_clock(&mut rng),
            );
            if a.le(&b) && b.le(&c) {
                assert!(a.le(&c), "{a} ⊑ {b} ⊑ {c} but not {a} ⊑ {c}");
            }
        }
    }

    #[test]
    fn inc_strictly_increases() {
        let mut rng = StdRng::seed_from_u64(0x14C);
        for _ in 0..2_000 {
            let mut a = random_clock(&mut rng);
            let t = rng.gen_range(0u32..5);
            let before = a.clone();
            a.inc(ThreadId(t));
            assert!(before.le(&a));
            assert!(!a.le(&before));
        }
    }

    #[test]
    fn le_agrees_with_partial_cmp() {
        let mut rng = StdRng::seed_from_u64(0x1E);
        for _ in 0..2_000 {
            let (a, b) = (random_clock(&mut rng), random_clock(&mut rng));
            let le = a.le(&b);
            let cmp = a.partial_cmp(&b);
            assert_eq!(
                le,
                matches!(cmp, Some(Ordering::Less) | Some(Ordering::Equal))
            );
        }
    }
}
