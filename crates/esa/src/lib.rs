//! # ppchecker-esa
//!
//! Explicit Semantic Analysis (ESA) for the PPChecker reproduction.
//!
//! PPChecker uses ESA (Gabrilovich & Markovitch, 2007) to decide whether two
//! pieces of private information "refer to the same thing" — e.g. the
//! "location" inferred from bytecode versus the "location information"
//! mentioned in a privacy policy — with a similarity threshold of 0.67
//! (following AutoCog). The original runs over Wikipedia; this crate bundles
//! a compact privacy-domain concept corpus ([`kb`]) that covers the
//! vocabulary the pipeline compares.
//!
//! # Examples
//!
//! ```
//! use ppchecker_esa::Interpreter;
//!
//! let esa = Interpreter::shared();
//! assert!(esa.same_thing("latitude", "location"));
//! assert!(!esa.same_thing("camera", "calendar"));
//! ```

#![forbid(unsafe_code)]

pub mod interpreter;
pub mod kb;
pub mod kernel;

pub use interpreter::{cosine, ConceptVector, Interpreter, SIMILARITY_THRESHOLD};
pub use kb::Concept;
pub use kernel::{mask_dot, merge_dot, CsrIndex, SparseVector};
