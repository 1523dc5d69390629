//! Leak-level equivalence of the dense-ID taint kernel over the full
//! paper corpus.
//!
//! The production kernel replaces the reference taint engine's hash-map
//! fixpoint with interned labels, bitset taint words and a dirty-bit
//! worklist. None of it may be visible at the leak level: every app of
//! the 1,197-app corpus is analyzed by the reference engine and by the
//! kernel, and the leak vectors must be byte-identical. The corpus never
//! reaches its embedded lib code; the kernel's unit tests cover apps
//! that do.

use ppchecker_corpus::paper_dataset;
use ppchecker_static::apg::Apg;
use ppchecker_static::{reach, taint};

#[test]
fn kernel_leaks_match_reference_across_full_corpus() {
    let dataset = paper_dataset(42);
    let mut apps = 0usize;
    let mut leaky = 0usize;
    for app in dataset.iter_apps() {
        let Ok(apg) = Apg::build(&app.apk) else {
            continue; // adversarially corrupted dex: nothing to compare
        };
        let methods = reach::reachable_methods(&apg);
        let reference = taint::analyze_reference(&apg, &methods);
        let kernel = taint::analyze(&apg, &methods);
        assert_eq!(kernel, reference, "kernel diverged for {}", app.package);
        apps += 1;
        if !reference.is_empty() {
            leaky += 1;
        }
    }
    assert!(apps >= 1000, "corpus should analyze ≥ 1000 apps, got {apps}");
    assert!(leaky > 0, "corpus should contain leaking apps");
}
