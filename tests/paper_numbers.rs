//! End-to-end reproduction test: runs the full PPChecker pipeline over the
//! calibrated 1,197-app corpus and asserts every statistic of the paper's
//! evaluation section (§V).

use ppchecker_apk::Permission;
use ppchecker_corpus::{evaluate, paper_dataset, small_dataset};
use ppchecker_static::{analyze_with, AnalysisOptions};

#[test]
fn full_dataset_reproduces_every_paper_statistic() {
    let dataset = paper_dataset(42);
    let ev = evaluate(&dataset);

    // §V-A: dataset.
    assert_eq!(ev.total_apps, 1197);
    assert_eq!(ev.apps_with_libs, 879); // 73% embed ≥1 lib

    // §V-C / Table III: incomplete via description.
    assert_eq!(ev.incomplete_desc_flagged, 64);
    let t3 = |p: Permission| ev.table3.get(&p).copied().unwrap_or(0);
    assert_eq!(t3(Permission::AccessCoarseLocation), 14);
    assert_eq!(t3(Permission::AccessFineLocation), 19);
    assert_eq!(t3(Permission::Camera), 6);
    assert_eq!(t3(Permission::GetAccounts), 11);
    assert_eq!(t3(Permission::ReadCalendar), 2);
    assert_eq!(t3(Permission::ReadContacts), 12);
    assert_eq!(t3(Permission::WriteContacts), 1);

    // §V-C / Fig. 13: incomplete via code.
    assert_eq!(ev.incomplete_code_flagged, 195);
    assert_eq!(ev.incomplete_code_tp, 180);
    assert_eq!(ev.incomplete_code_fp, 15);
    assert_eq!(ev.missed_records, 234);
    assert_eq!(ev.retained_records, 32);
    // Location is the most commonly missed information.
    let max_info = ev.fig13.iter().max_by_key(|(_, &c)| c).unwrap();
    assert_eq!(*max_info.0, ppchecker_apk::PrivateInfo::Location);

    // §V-D: incorrect policies.
    assert_eq!(ev.incorrect_desc_flagged, 2);
    assert_eq!(ev.incorrect_code_flagged, 6);
    assert_eq!(ev.incorrect_tp, 4);
    assert_eq!(ev.incorrect_fp, 2);

    // §V-E / Table IV: inconsistent policies.
    assert_eq!(ev.cur.flagged, 46);
    assert_eq!(ev.cur.tp, 41);
    assert_eq!(ev.cur.fp, 5);
    assert!((ev.cur.precision() - 0.891).abs() < 0.001);
    assert_eq!(ev.cur.sample_detected, 11);
    assert_eq!(ev.cur.sample_truth, 12);
    assert!((ev.cur.recall() - 0.917).abs() < 0.001);
    assert!((ev.cur.f1() - 0.904).abs() < 0.001);

    assert_eq!(ev.disclose.flagged, 43);
    assert_eq!(ev.disclose.tp, 39);
    assert_eq!(ev.disclose.fp, 4);
    assert!((ev.disclose.precision() - 0.907).abs() < 0.001);
    assert_eq!(ev.disclose.sample_detected, 12);
    assert_eq!(ev.disclose.sample_truth, 13);
    assert!((ev.disclose.recall() - 0.923).abs() < 0.001);
    assert!((ev.disclose.f1() - 0.915).abs() < 0.001);

    // §V-F: summary.
    assert_eq!(ev.inconsistent_apps, 75);
    assert_eq!(ev.incomplete_apps, 222);
    assert_eq!(ev.problem_apps, 282);
    assert!((ev.problem_rate() - 0.236).abs() < 0.001);
}

#[test]
fn statistics_are_seed_stable() {
    // The planted problems are index-based; text phrasing varies with the
    // seed but the detected statistics must not.
    let ev1 = evaluate(&paper_dataset(7));
    let ev2 = evaluate(&paper_dataset(1234));
    assert_eq!(ev1.problem_apps, ev2.problem_apps);
    assert_eq!(ev1.incomplete_code_tp, ev2.incomplete_code_tp);
    assert_eq!(ev1.cur.flagged, ev2.cur.flagged);
    assert_eq!(ev1.disclose.flagged, ev2.disclose.flagged);
}

/// The static-analysis ablations `repro_ablations` prints over 300 apps:
/// collected info categories with the full analysis, without
/// reachability (dead code becomes findings) and without URI analysis
/// (provider reads vanish), and the sensitive call sites pruned as
/// unreachable.
#[test]
fn static_ablations_match_repro_ablations() {
    let dataset = small_dataset(42, 300);
    let (mut full, mut no_reach, mut no_uri, mut pruned) = (0, 0, 0, 0);
    let collected = |apk: &ppchecker_apk::Apk, reachability, uri_analysis| {
        let opts = AnalysisOptions { reachability, uri_analysis };
        analyze_with(apk, opts).unwrap().collect_code().len()
    };
    for app in &dataset.apps {
        let apk = &app.input.apk;
        full += collected(apk, true, true);
        pruned +=
            analyze_with(apk, AnalysisOptions::default()).unwrap().unreachable_sensitive_calls;
        no_reach += collected(apk, false, true);
        no_uri += collected(apk, true, false);
    }
    assert_eq!((full, no_reach, no_uri, pruned), (262, 270, 210, 308));
}
