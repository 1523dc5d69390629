//! Ablation study: quantifies the design choices the paper credits for
//! its precision — entry-point reachability analysis, content-provider
//! URI analysis (both §III-C, contrasted with Slavin et al. in §VII), and
//! bootstrapped pattern mining (§III-B Step 3).

use ppchecker_corpus::{paper_dataset, small_dataset};
use ppchecker_policy::{match_sentence, Pattern, PolicyAnalyzer};
use ppchecker_static::{analyze_with, AnalysisOptions};

fn main() {
    println!("Ablation study over the corpus\n");

    // --- reachability & URI analysis over 300 apps ---
    let dataset = small_dataset(42, 300);
    let mut full = (0usize, 0usize); // (collected categories, flagged unreachable)
    let mut no_reach = 0usize;
    let mut no_uri = 0usize;
    for app in &dataset.apps {
        let with = analyze_with(&app.input.apk, AnalysisOptions::default()).unwrap();
        full.0 += with.collect_code().len();
        full.1 += with.unreachable_sensitive_calls;
        let without_reach = analyze_with(
            &app.input.apk,
            AnalysisOptions { reachability: false, uri_analysis: true },
        )
        .unwrap();
        no_reach += without_reach.collect_code().len();
        let without_uri = analyze_with(
            &app.input.apk,
            AnalysisOptions { reachability: true, uri_analysis: false },
        )
        .unwrap();
        no_uri += without_uri.collect_code().len();
    }
    println!("== static analysis (300 apps) ==");
    println!("collected info categories, full analysis:        {}", full.0);
    println!(
        "collected info categories, no reachability:      {no_reach} (dead code becomes findings)"
    );
    println!("collected info categories, no URI analysis:      {no_uri} (provider reads vanish)");
    println!("sensitive call sites pruned as unreachable:      {}", full.1);

    // --- pattern bootstrapping over the Fig. 12 labeled positive set ---
    let seeds = Pattern::seeds();
    let fig12 = ppchecker_corpus::fig12::fig12_corpus();
    let mined = ppchecker_policy::Bootstrapper::default().mine(&fig12.mining);
    let mut seed_hits = 0usize;
    let mut full_hits = 0usize;
    let total = fig12.positive.len();
    for sent in &fig12.positive {
        let p = ppchecker_nlp::parse(sent);
        if match_sentence(&p, &seeds).is_some() {
            seed_hits += 1;
        }
        if match_sentence(&p, &mined).is_some() {
            full_hits += 1;
        }
    }
    println!("\n== sentence selection ({total} labeled positive sentences) ==");
    println!("matched by the 5 seed patterns alone:            {seed_hits}");
    println!("matched by seeds + bootstrapped patterns:        {full_hits}");
    println!(
        "bootstrapping contribution:                      +{} sentences ({:+.1}%)",
        full_hits - seed_hits,
        (full_hits as f64 - seed_hits as f64) / total.max(1) as f64 * 100.0
    );

    // --- shipped analyzer vs. seeds on the corpus policies ---
    let analyzer = PolicyAnalyzer::new();
    let fullpats = analyzer.patterns().to_vec();
    let dataset = paper_dataset(42);
    let mut corpus_seed = 0usize;
    let mut corpus_full = 0usize;
    let mut corpus_total = 0usize;
    for app in dataset.apps.iter().take(300) {
        let text = ppchecker_policy::html::extract_text(&app.input.policy_html);
        for sent in ppchecker_nlp::split_sentences(&text).iter() {
            let p = ppchecker_nlp::parse(sent);
            corpus_total += 1;
            if match_sentence(&p, &seeds).is_some() {
                corpus_seed += 1;
            }
            if match_sentence(&p, &fullpats).is_some() {
                corpus_full += 1;
            }
        }
    }
    println!("\n== corpus policies (300 policies, {corpus_total} sentences) ==");
    println!("matched by seeds: {corpus_seed}; by shipped pattern set: {corpus_full}");
    println!("(the generated policies phrase behaviours with seed-pattern templates,");
    println!(" so the shipped extras add nothing here — the labeled set above shows");
    println!(" where bootstrapping pays off)");
}
