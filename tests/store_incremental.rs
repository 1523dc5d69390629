//! End-to-end incremental re-analysis: a versioned corpus flows through
//! the engine over one persistent artifact store, across simulated
//! process restarts.
//!
//! This is the issue's acceptance scenario in miniature: a cold batch
//! populates the store; a warm batch over the unchanged snapshot skips
//! every app and reproduces the same records; the next release (policy
//! drift, permission adds, lib swaps on a fraction of apps) re-analyzes
//! only the mutated apps; and the records that differ between releases
//! all belong to changed packages.

use ppchecker_corpus::{versioned_history, CorpusVersion, VersionedHistory};
use ppchecker_engine::{BatchReport, Engine};
use ppchecker_store::Store;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppsuite-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh engine per call simulates a process restart: only the on-disk
/// store carries state across runs.
fn run_version(
    history: &VersionedHistory,
    version: &CorpusVersion,
    dir: &PathBuf,
) -> (BatchReport, u64) {
    let store = Arc::new(Store::open(dir).expect("open store"));
    let engine = Engine::new(history.make_checker()).with_store(Arc::clone(&store));
    let batch = engine.run(version.apps.iter().map(|a| a.input.clone()));
    assert_eq!(batch.metrics.errors, 0, "corpus analyzes cleanly");
    store.flush_index();
    let skipped = batch.metrics.store.map(|s| s.apps_skipped).unwrap_or(0);
    (batch, skipped)
}

fn assert_same_records(a: &BatchReport, b: &BatchReport, why: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{why}");
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{why}");
    }
}

#[test]
fn versioned_corpus_reanalyzes_only_what_changed() {
    let apps = 40;
    let history = versioned_history(17, apps, 3, 15);
    let dir = scratch_store("versioned");

    // Cold: everything is computed and persisted.
    let (cold, skipped) = run_version(&history, &history.versions[0], &dir);
    assert_eq!(skipped, 0, "cold run computes every app");

    // Warm, after a "restart": every app replays, records identical.
    let (warm, skipped) = run_version(&history, &history.versions[0], &dir);
    assert_eq!(skipped as usize, apps, "unchanged snapshot skips every app");
    assert_same_records(&cold, &warm, "replayed record differs");

    // Next release: only the mutated apps pay for analysis.
    let v1 = &history.versions[1];
    let changed = v1.changes.len();
    assert!(changed > 0, "15% of {apps} apps should change");
    let (next, skipped) = run_version(&history, v1, &dir);
    assert_eq!(
        skipped as usize,
        apps - changed,
        "incremental run re-analyzes exactly the changed apps"
    );

    // Same population, and only mutated apps' records move: the others
    // replay their stored reports byte for byte.
    let mutated: Vec<&str> = v1.changes.iter().map(|c| c.package.as_str()).collect();
    assert_eq!(cold.records.len(), next.records.len());
    for (a, b) in cold.records.iter().zip(next.records.iter()) {
        assert_eq!(a.package, b.package, "same packages in submission order");
        if format!("{a:?}") != format!("{b:?}") {
            assert!(
                mutated.contains(&a.package.as_str()),
                "{} moved but was not mutated",
                a.package
            );
        }
    }

    // One more release over the same store still only pays for changes.
    let v2 = &history.versions[2];
    let (_, skipped) = run_version(&history, v2, &dir);
    let changed_v2 = v2.changes.len();
    assert_eq!(skipped as usize, apps - changed_v2, "version 2 re-analyzes only its changes");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_corruption_between_releases() {
    let apps = 12;
    let history = versioned_history(23, apps, 2, 20);
    let dir = scratch_store("corrupt");

    let (cold, _) = run_version(&history, &history.versions[0], &dir);

    // Vandalize every report record on disk.
    let objects = dir.join("objects").join("report");
    let mut truncated = 0;
    for shard in std::fs::read_dir(&objects).expect("report shards") {
        for rec in std::fs::read_dir(shard.expect("shard").path()).expect("records") {
            let path = rec.expect("record").path();
            let bytes = std::fs::read(&path).expect("read record");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate record");
            truncated += 1;
        }
    }
    assert_eq!(truncated, apps, "one report record per app");

    // The next run treats every defect as a miss and recomputes.
    let (recovered, skipped) = run_version(&history, &history.versions[0], &dir);
    assert_eq!(skipped, 0, "corrupt records must not replay");
    assert_same_records(&cold, &recovered, "recompute reproduces the records");

    // And the store is healthy again: a further run replays everything.
    let (_, skipped) = run_version(&history, &history.versions[0], &dir);
    assert_eq!(skipped as usize, apps, "rewritten records replay cleanly");

    let _ = std::fs::remove_dir_all(&dir);
}
