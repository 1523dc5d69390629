//! A guided tour of the six-step policy-analysis pipeline (the paper's
//! Fig. 5): HTML extraction, sentence splitting with enumeration repair,
//! dependency parsing, pattern matching, negation analysis, and
//! information-element extraction.
//!
//! ```sh
//! cargo run --example policy_pipeline_tour
//! ```

use ppchecker_nlp::depparse::parse;
use ppchecker_nlp::sentence::split_sentences;
use ppchecker_policy::{html, PolicyAnalyzer};

const POLICY: &str = r#"<html><body>
<h1>Privacy Policy</h1>
<p>This privacy policy describes our practices.</p>
<p>We will collect the following information: your name; your IP address;
your device ID.</p>
<p>We would provide your information to third party companies to improve
service.</p>
<p>We are allowed to access your personal information.</p>
<p>We will not store your real phone number, name and contacts.</p>
<p>Nothing will be collected when you browse anonymously.</p>
<script>analytics.track();</script>
</body></html>"#;

fn main() {
    // Step 1a: HTML extraction (Beautiful Soup substitute).
    let text = html::extract_text(POLICY);
    println!("== extracted text ==\n{}\n", text.trim());

    // Step 1b: sentence splitting with enumeration repair.
    let sentences = split_sentences(&text);
    println!("== {} sentences ==", sentences.len());
    for s in sentences.iter() {
        println!("  • {s}");
    }

    // Step 2: syntactic analysis — typed dependencies for one sentence.
    let sample = "we would provide your information to third party companies to improve service";
    println!("\n== typed dependencies of: «{sample}» ==");
    print!("{}", parse(sample).to_dep_string());

    // Steps 3–6: the full analyzer (patterns, selection, negation,
    // elements).
    let analyzer = PolicyAnalyzer::new();
    println!("\n== pattern inventory: {} patterns ==", analyzer.patterns().len());
    let analysis = analyzer.analyze_html(POLICY);
    println!("\n== useful sentences ==");
    for s in &analysis.sentences {
        println!(
            "  [{}{}] verb={} executor={:?} resources={:?} constraints={}",
            if s.negative { "NOT " } else { "" },
            s.category,
            s.elements.main_verb(),
            s.elements.executor(),
            s.resources().collect::<Vec<_>>(),
            s.elements.constraints.len(),
        );
        println!("      «{}»", s.text);
    }

    println!("\n== derived sets ==");
    for cat in ppchecker_policy::VerbCategory::ALL {
        let pos = analysis.resources(cat, false);
        let neg = analysis.resources(cat, true);
        if !pos.is_empty() {
            println!("  {cat}: {pos:?}");
        }
        if !neg.is_empty() {
            println!("  NOT {cat}: {neg:?}");
        }
    }
}
