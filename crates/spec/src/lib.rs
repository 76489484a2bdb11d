//! ECL commutativity specifications (§4.1 and §6.1 of the paper).
//!
//! A *logical commutativity specification* `Φ` gives, for every pair of
//! methods of an object, a formula `ϕ_{m1}^{m2}(x⃗₁; x⃗₂)` over the arguments
//! and return values of the two invocations; when the formula holds, the two
//! invocations commute. This crate provides:
//!
//! * a small **specification language** with a lexer, recursive-descent
//!   parser and resolver producing precise, span-carrying diagnostics
//!   (see [`parse`]),
//! * the **resolved formula representation** ([`Formula`], [`Pred`],
//!   [`Term`]) with evaluation against concrete actions,
//! * the **fragment classifier** implementing the grammars of §6.1:
//!   `LS` (Kulkarni et al.'s SIMPLE), `LB`, and their combination `ECL`
//!   (see [`Fragment`] and [`Formula::fragment`]),
//! * **β-substitution** ([`Formula::substitute`]) — plugging truth values of
//!   the LB atoms back into a formula, which by Lemma 6.4 leaves an `LS`
//!   residue ([`LsResidue`]); this is the engine of the ECL→access-point
//!   translation in `crace-core`,
//! * **builtin specifications** for the objects used in the paper and its
//!   evaluation: dictionaries (Fig. 6), sets, counters, registers and queues
//!   (see [`builtin`]).
//!
//! # Example: the dictionary specification of Fig. 6
//!
//! ```
//! use crace_spec::parse;
//!
//! let spec = parse(r#"
//!     spec dictionary {
//!         method put(k, v) -> p;
//!         method get(k) -> v;
//!         method size() -> r;
//!
//!         commute put(k1, v1) -> p1, put(k2, v2) -> p2
//!             when k1 != k2 || (v1 == p1 && v2 == p2);
//!         commute put(k1, v1) -> p1, get(k2) -> v2
//!             when k1 != k2 || v1 == p1;
//!         commute put(k1, v1) -> p1, size() -> r
//!             when (v1 == nil && p1 == nil) || (v1 != nil && p1 != nil);
//!         commute get(_) -> _, get(_) -> _ when true;
//!         commute get(_) -> _, size() -> _ when true;
//!         commute size() -> _, size() -> _ when true;
//!     }
//! "#)?;
//! assert_eq!(spec.name(), "dictionary");
//! assert!(spec.is_ecl());
//! # Ok::<(), crace_spec::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builtin;
mod error;
mod formula;
mod lexer;
mod parser;
mod resolve;
mod spec;

pub use error::{line_col, render_snippet, Span, SpecError};
pub use formula::{CmpOp, Formula, Fragment, LsResidue, NormAtom, Pred, Side, Term};
pub use resolve::{is_symmetric, resolve_methods, resolve_rule, ResolvedRule};
pub use spec::{MethodRef, Spec, SpecBuilder};

/// Parses a single specification to its surface syntax tree without
/// resolving it.
///
/// This is the entry point for tools that apply their own policy to
/// whole-spec invariants — the spec linter resolves rule-by-rule with
/// [`resolve_rule`] so it can report *all* problems instead of stopping at
/// the first.
///
/// # Errors
///
/// Returns a [`SpecError`] for lexical and syntax errors only; name
/// resolution has not happened yet.
pub fn parse_ast(source: &str) -> Result<ast::SpecAst, SpecError> {
    parser::parse_source(source)
}

/// Parses and resolves a single specification from source text.
///
/// # Errors
///
/// Returns a [`SpecError`] with a source span for lexical errors, syntax
/// errors, unknown methods, arity mismatches, variables shared between the
/// two action patterns, and atoms that violate the ECL variable discipline
/// (e.g. cross-action equalities).
///
/// # Examples
///
/// ```
/// use crace_spec::parse;
/// let err = parse("spec s { commute a(), b() when true; }").unwrap_err();
/// assert!(err.to_string().contains("unknown method"));
/// ```
pub fn parse(source: &str) -> Result<Spec, SpecError> {
    let file = parser::parse_source(source)?;
    resolve::resolve(&file)
}
