//! End-to-end guarantees for the streamed corpus path: generating each
//! app as the engine pulls it must be a pure optimization — byte-identical
//! to materializing the corpus first, and composable with dataset
//! manifests. (Streamed batches over the artifact store are covered by
//! the CLI's `streamed_batch_composes_with_the_store`.)

use ppchecker_core::{AppInput, PPChecker};
use ppchecker_corpus::{
    paper_dataset, stream_scaled, DatasetManifest, GeneratedApp, ScenarioPack, APP_COUNT,
};
use ppchecker_engine::Engine;
use proptest::prelude::*;

/// Everything that makes an app input distinguishable, as one comparable
/// blob (`AppInput` does not implement `PartialEq`; the `Debug` form
/// covers package, policy, description and the full APK byte-for-byte).
fn fingerprint(app: &GeneratedApp) -> String {
    format!("{:?}", app.input)
}

#[test]
fn streamed_prefix_is_byte_identical_to_the_materialized_paper_corpus() {
    let materialized = paper_dataset(42);
    assert_eq!(materialized.apps.len(), APP_COUNT);
    let mut streamed = 0usize;
    for (got, want) in stream_scaled(42, APP_COUNT).zip(&materialized.apps) {
        assert_eq!(got.input.package, want.input.package);
        assert_eq!(got.input.policy_html, want.input.policy_html);
        assert_eq!(got.input.description, want.input.description);
        assert_eq!(fingerprint(&got), fingerprint(want));
        streamed += 1;
    }
    assert_eq!(streamed, APP_COUNT, "stream must cover the whole paper corpus");
}

#[test]
fn run_streamed_agrees_with_materialized_run_over_the_paper_corpus() {
    let engine = Engine::new(PPChecker::new());
    let inputs: Vec<AppInput> = stream_scaled(42, APP_COUNT).map(|g| g.input).collect();

    let batch = engine.run(inputs.clone());
    let mut streamed_records = Vec::with_capacity(APP_COUNT);
    let summary = engine.run_streamed(inputs, |record| streamed_records.push(record));

    assert_eq!(summary.aggregate, batch.aggregate());
    assert_eq!(streamed_records.len(), batch.records.len());
    for (got, want) in streamed_records.iter().zip(&batch.records) {
        assert_eq!(got.index, want.index, "records must arrive in submission order");
        assert_eq!(got.package, want.package);
        assert_eq!(format!("{:?}", got.outcome), format!("{:?}", want.outcome));
    }
}

#[test]
fn scenario_pack_manifests_replay_their_subset_of_the_stream() {
    let space = 2 * APP_COUNT;
    let manifest = ScenarioPack::PathologicalPolicy.manifest(42, space);
    assert!(!manifest.ids.is_empty(), "pack must select something in {space} apps");

    let by_index: Vec<GeneratedApp> = stream_scaled(42, space).collect();
    for (got, &id) in manifest.apps().zip(&manifest.ids) {
        assert_eq!(fingerprint(&got), fingerprint(&by_index[id]), "manifest app {id} must match");
    }
}

proptest! {
    /// Manifests survive a serialize→parse round trip exactly, for any
    /// valid (name, seed, space, ids) combination.
    #[test]
    fn manifest_roundtrips_through_its_text_form(
        name in "[a-z][a-z0-9-]{0,19}",
        seed in any::<u64>(),
        extra in 0usize..1000,
        raw_ids in proptest::collection::vec(0usize..5000, 0..40),
    ) {
        let mut ids = raw_ids;
        ids.sort_unstable();
        ids.dedup();
        let space = ids.last().map_or(0, |m| m + 1) + extra;
        let manifest = DatasetManifest { name, seed, space, ids };
        let parsed = DatasetManifest::parse(&manifest.serialize());
        prop_assert_eq!(parsed.as_ref(), Ok(&manifest));
    }
}
