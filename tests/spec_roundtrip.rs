//! Pretty-printer ↔ parser round-trip on randomly generated
//! specifications: `Spec::to_source` must produce text that reparses to a
//! *semantically identical* specification (same commutativity verdict on
//! every action pair). Generated specs draw their constants, strings
//! included, from [`Universe::Spelled`].

mod common;

use common::{random_action, random_spec, Universe};
use crace_model::{MethodId, ObjId};
use crace_spec::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn random_specs_round_trip_semantically() {
    let mut checked_pairs = 0u32;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(spec) = random_spec(Universe::Spelled, &mut rng) else {
            continue;
        };
        let source = spec.to_source();
        let reparsed = parse(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{source}", e.render(&source)));
        assert_eq!(reparsed.num_methods(), spec.num_methods());
        assert_eq!(reparsed.is_ecl(), spec.is_ecl(), "seed {seed}\n{source}");
        for _ in 0..40 {
            let a = random_action(&spec, ObjId(0), Universe::Spelled, &mut rng);
            let b = random_action(&spec, ObjId(0), Universe::Spelled, &mut rng);
            assert_eq!(
                spec.commute(&a, &b),
                reparsed.commute(&a, &b),
                "seed {seed}: a = {a}, b = {b}\n{source}"
            );
            checked_pairs += 1;
        }
    }
    assert!(checked_pairs > 4_000);
}

#[test]
fn builtin_specs_round_trip_semantically() {
    let mut rng = StdRng::seed_from_u64(77);
    for spec in crace_spec::builtin::all() {
        let source = spec.to_source();
        let reparsed = parse(&source).expect("builtins round trip");
        for _ in 0..200 {
            let a = random_action(&spec, ObjId(0), Universe::Small, &mut rng);
            let b = random_action(&spec, ObjId(0), Universe::Small, &mut rng);
            assert_eq!(
                spec.commute(&a, &b),
                reparsed.commute(&a, &b),
                "{}: a = {a}, b = {b}",
                spec.name()
            );
        }
    }
}

/// Structural round-trip: `parse(render(s)) == s` — the reparse must
/// rebuild the *same formula trees*, not merely semantically equivalent
/// ones. The property holds on the parser's image (builder-made formulas
/// may contain inexpressible detail, e.g. the side tag of a const-only
/// atom, which the parser constant-folds away), so each generated spec is
/// first projected to canonical form through one parse; on canonical
/// specs render∘parse must be the identity. This is what makes the
/// printer parenthesize right-nested children of the left-associative
/// `&&`/`||`.
#[test]
fn random_specs_round_trip_structurally() {
    let mut checked = 0u32;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(generated) = random_spec(Universe::Spelled, &mut rng) else {
            continue;
        };
        let canonical = generated.to_source();
        let spec = parse(&canonical)
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{canonical}", e.render(&canonical)));
        let source = spec.to_source();
        let reparsed = parse(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: {}\n{source}", e.render(&source)));
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let (x, y) = (MethodId(x), MethodId(y));
            assert_eq!(
                spec.formula(x, y),
                reparsed.formula(x, y),
                "seed {seed}: pair ({x:?}, {y:?})\n{source}"
            );
            checked += 1;
        }
    }
    assert!(checked > 700);
}

#[test]
fn builtin_specs_round_trip_structurally() {
    for spec in crace_spec::builtin::all() {
        let source = spec.to_source();
        let reparsed = parse(&source).expect("builtins round trip");
        assert_eq!(reparsed.name(), spec.name());
        assert_eq!(reparsed.num_methods(), spec.num_methods());
        for i in 0..spec.num_methods() as u32 {
            assert_eq!(
                reparsed.sig(MethodId(i)).name(),
                spec.sig(MethodId(i)).name()
            );
            for j in 0..spec.num_methods() as u32 {
                let (x, y) = (MethodId(i), MethodId(j));
                assert_eq!(
                    spec.formula(x, y),
                    reparsed.formula(x, y),
                    "{}: pair ({x:?}, {y:?})\n{source}",
                    spec.name()
                );
            }
        }
    }
}
