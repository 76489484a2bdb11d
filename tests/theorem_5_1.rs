//! Integration test for Theorem 5.1: Algorithm 1 reports a commutativity
//! race **iff** the observed trace contains one — validated against the
//! quadratic oracle for every builtin specification on many random traces,
//! through every detector path (see `common::assert_all_paths_agree`).
//! Each seed runs both trace shapes: every thread forked, and threads that
//! first appear through an action or an acquire.

mod common;

use common::{assert_all_paths_agree, random_trace, Shape, Universe};
use crace_spec::{builtin, Spec};

const OBJECTS: u64 = 2;

fn check_spec(spec: &Spec, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for shape in [Shape::Structured, Shape::Unforked] {
            let trace = random_trace(spec, shape, Universe::Small, seed, 100, OBJECTS);
            assert_all_paths_agree(spec, &trace, OBJECTS);
        }
    }
}

#[test]
fn dictionary_matches_oracle() {
    check_spec(&builtin::dictionary(), 0..40);
}

#[test]
fn dictionary_ext_matches_oracle() {
    check_spec(&builtin::dictionary_ext(), 100..130);
}

#[test]
fn set_matches_oracle() {
    check_spec(&builtin::set(), 200..230);
}

#[test]
fn counter_matches_oracle() {
    check_spec(&builtin::counter(), 300..330);
}

#[test]
fn register_matches_oracle() {
    check_spec(&builtin::register(), 400..430);
}

#[test]
fn queue_matches_oracle() {
    check_spec(&builtin::queue(), 500..530);
}
