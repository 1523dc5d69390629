//! The similarity matcher: ESA plus a configurable decision threshold.
//!
//! The paper adopts 0.67 following AutoCog; exposing the threshold lets
//! the benches study its precision/recall trade-off (see
//! `repro_threshold`).

use ppchecker_esa::{Interpreter, SIMILARITY_THRESHOLD};
use ppchecker_nlp::Symbol;

/// An ESA interpreter paired with a decision threshold.
#[derive(Debug, Clone, Copy)]
pub struct Matcher {
    esa: &'static Interpreter,
    threshold: f64,
}

impl Default for Matcher {
    fn default() -> Self {
        Matcher::new()
    }
}

impl Matcher {
    /// The paper's configuration: shared interpreter, threshold 0.67.
    pub fn new() -> Self {
        Matcher { esa: Interpreter::shared(), threshold: SIMILARITY_THRESHOLD }
    }

    /// Same interpreter, custom threshold (clamped to `[0, 1]`).
    pub fn with_threshold(threshold: f64) -> Self {
        Matcher { esa: Interpreter::shared(), threshold: threshold.clamp(0.0, 1.0) }
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying interpreter.
    pub fn esa(&self) -> &'static Interpreter {
        self.esa
    }

    /// The paper's "refer to the same thing" predicate.
    ///
    /// Routed through the interpreter's pruned threshold predicate: pairs
    /// whose norm bound cannot reach the threshold are rejected without a
    /// dot product, with the exact cosine as fallback — the verdict is
    /// identical to comparing [`Interpreter::similarity`] by hand.
    pub fn same_thing(&self, a: &str, b: &str) -> bool {
        self.esa.same_thing_at(a, b, self.threshold)
    }

    /// [`same_thing`] over interned symbols: identical symbols short-circuit,
    /// both concept vectors come from the vector memo, and (at the paper
    /// threshold) repeat pairs are answered from the interpreter's
    /// pair-verdict memo.
    ///
    /// [`same_thing`]: Matcher::same_thing
    pub fn same_thing_sym(&self, a: Symbol, b: Symbol) -> bool {
        a == b || self.esa.same_thing_sym_at(a, b, self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_threshold() {
        let m = Matcher::new();
        assert!((m.threshold() - 0.67).abs() < 1e-12);
        assert!(m.same_thing("location", "gps location"));
        assert!(!m.same_thing("location", "calendar"));
    }

    #[test]
    fn lower_threshold_is_more_permissive() {
        let strict = Matcher::with_threshold(0.95);
        let loose = Matcher::with_threshold(0.3);
        // A related-but-not-identical pair flips between the two.
        let (a, b) = ("location", "latitude");
        assert!(loose.same_thing(a, b));
        assert!(!strict.same_thing(a, b) || strict.esa().similarity(a, b) >= 0.95);
    }

    #[test]
    fn symbol_predicate_matches_string_predicate() {
        use ppchecker_nlp::intern;
        let m = Matcher::new();
        for (a, b) in
            [("location", "gps location"), ("location", "calendar"), ("device id", "device id")]
        {
            assert_eq!(m.same_thing_sym(intern(a), intern(b)), m.same_thing(a, b));
        }
    }

    #[test]
    fn threshold_is_clamped() {
        assert_eq!(Matcher::with_threshold(7.0).threshold(), 1.0);
        assert_eq!(Matcher::with_threshold(-1.0).threshold(), 0.0);
    }
}
