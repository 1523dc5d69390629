//! Property-based tests (proptest) over the core data structures and
//! invariants of the pipeline.

use ppchecker_apk::{packer, Dex, Insn, InvokeKind};
use ppchecker_esa::Interpreter;
use ppchecker_nlp::{depparse, intern, resolve, sentence, token};
use proptest::prelude::*;

// ---------- interning ----------

proptest! {
    /// Interning round-trips: `resolve(intern(s)) == s` and re-interning
    /// the resolved text yields the same symbol.
    #[test]
    fn intern_resolve_roundtrip(s in ".{0,60}") {
        let sym = intern(&s);
        prop_assert_eq!(resolve(sym), s.as_str());
        prop_assert_eq!(intern(resolve(sym)), sym);
    }

    /// Symbol equality coincides with string equality: two strings intern
    /// to the same symbol iff they are byte-identical.
    #[test]
    fn symbol_equality_is_string_equality(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
        prop_assert_eq!(intern(&a) == intern(&b), a == b);
    }
}

// ---------- NLP ----------

proptest! {
    /// The tokenizer never panics and never emits whitespace-bearing or
    /// empty tokens.
    #[test]
    fn tokenizer_is_total_and_clean(s in ".{0,200}") {
        let toks = token::tokenize(&s);
        for t in &toks {
            prop_assert!(!t.text().is_empty());
            prop_assert!(!t.text().chars().any(char::is_whitespace));
            prop_assert!(t.start <= s.len());
        }
    }

    /// Sentence splitting never loses alphanumeric content (modulo the
    /// deliberate non-ASCII stripping and lowercasing).
    #[test]
    fn splitter_preserves_ascii_alnum(s in "[a-zA-Z0-9 .,;:!?]{0,300}") {
        let sents = sentence::split_sentences(&s);
        let kept: String = sents
            .iter()
            .collect::<Vec<_>>()
            .join(" ")
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        let original: String = s
            .to_lowercase()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        prop_assert_eq!(kept, original);
    }

    /// After enumeration repair, no sentence but the last ends with a
    /// list-continuation mark.
    #[test]
    fn repair_leaves_no_dangling_separators(s in "[a-z ;,:.]{0,300}") {
        let sents = sentence::split_sentences(&s);
        for sent in sents.iter().rev().skip(1) {
            let t = sent.trim_end();
            prop_assert!(
                !(t.ends_with(';') || t.ends_with(',') || t.ends_with(':')),
                "dangling separator in {sent:?}"
            );
        }
    }

    /// The dependency parser is total and all edges reference real tokens.
    #[test]
    fn parser_edges_are_well_formed(s in "[a-zA-Z ,.';]{0,150}") {
        let p = depparse::parse(&s);
        let n = p.tokens.len();
        if let Some(r) = p.root {
            prop_assert!(r < n);
        }
        for d in &p.deps {
            prop_assert!(d.head < n && d.dep < n);
            prop_assert_ne!(d.head, d.dep);
        }
        for c in &p.chunks {
            prop_assert!(c.start <= c.head && c.head < c.end && c.end <= n);
        }
    }

    /// Verb lemmatization is idempotent.
    #[test]
    fn verb_lemmatization_idempotent(w in "[a-z]{1,12}") {
        let once = ppchecker_nlp::lemma::lemmatize_verb(&w);
        let twice = ppchecker_nlp::lemma::lemmatize_verb(&once);
        prop_assert_eq!(once, twice);
    }
}

// ---------- ESA ----------

proptest! {
    /// Similarity stays in [0, 1] and is symmetric for any pair of texts.
    #[test]
    fn esa_similarity_bounded_and_symmetric(
        a in "[a-z ]{0,60}",
        b in "[a-z ]{0,60}",
    ) {
        let esa = Interpreter::shared();
        let ab = esa.similarity(&a, &b);
        let ba = esa.similarity(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }
}

// ---------- APK / packer ----------

fn arb_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        ("[ -~]{0,40}", 0u32..16).prop_map(|(v, r)| Insn::ConstString { dst: r, value: v }),
        (0u32..16, 0u32..16).prop_map(|(d, s)| Insn::Move { dst: d, src: s }),
        ("[a-zA-Z.$]{1,30}", "[a-zA-Z]{1,15}", proptest::collection::vec(0u32..16, 0..4)).prop_map(
            |(c, m, args)| Insn::Invoke {
                kind: InvokeKind::Virtual,
                class: c,
                method: m,
                args,
                dst: None,
            }
        ),
        ("[a-zA-Z.]{1,20}", "[a-zA-Z]{1,12}", 0u32..16).prop_map(|(c, f, r)| Insn::FieldPut {
            class: c,
            field: f,
            src: r
        }),
        (0u32..16).prop_map(|r| Insn::Return { src: Some(r) }),
        Just(Insn::Nop),
    ]
}

fn arb_dex() -> impl Strategy<Value = Dex> {
    proptest::collection::vec(
        (
            "[a-z][a-z.]{0,20}",
            proptest::collection::vec(
                ("[a-z][a-zA-Z]{0,10}", proptest::collection::vec(arb_insn(), 0..8)),
                0..4,
            ),
        ),
        0..4,
    )
    .prop_map(|classes| {
        let mut b = Dex::builder();
        for (i, (name, methods)) in classes.into_iter().enumerate() {
            // Guarantee distinct class names.
            let name = format!("{name}{i}");
            b = b.class(&name, |c| {
                for (j, (mname, insns)) in methods.into_iter().enumerate() {
                    let mname = format!("{mname}{j}");
                    c.method(&mname, 1, |mb| {
                        for insn in insns {
                            mb.push(insn);
                        }
                    });
                }
            });
        }
        b.build()
    })
}

proptest! {
    /// Serialization round-trips arbitrary dex files.
    #[test]
    fn dex_serialization_round_trips(dex in arb_dex()) {
        let text = packer::serialize(&dex);
        let back = packer::deserialize(&text).expect("own output must parse");
        prop_assert_eq!(dex, back);
    }

    /// Packing + unpacking is the identity for any key.
    #[test]
    fn packer_round_trips(dex in arb_dex(), key: u8) {
        let blob = packer::pack(&dex, key);
        let back = packer::unpack(&blob).expect("own blob must unpack");
        prop_assert_eq!(dex, back);
    }

    /// Unpacking never panics on arbitrary garbage.
    #[test]
    fn unpack_is_total(blob in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = packer::unpack(&blob);
    }
}

// ---------- static analysis ----------

proptest! {
    /// The APG builds for any generated dex, with at most one method id
    /// per declared body, a reachable set over exactly those ids, and an
    /// analysis that completes.
    #[test]
    fn apg_builds_for_arbitrary_dex(dex in arb_dex()) {
        let apk = ppchecker_apk::Apk::new(ppchecker_apk::Manifest::new("com.x"), dex);
        let apg = ppchecker_static::Apg::build(&apk).expect("plain dex");
        prop_assert!(apg.method_count() <= apg.dex().method_count());
        let reachable = ppchecker_static::reach::reachable_methods(&apg);
        prop_assert_eq!(reachable.len(), apg.method_count());
        ppchecker_static::analyze(&apk).expect("plain dex");
    }
}

// ---------- policy pipeline ----------

proptest! {
    /// The policy analyzer is total over arbitrary HTML-ish input.
    #[test]
    fn policy_analyzer_is_total(s in "[a-zA-Z <>/&;.,]{0,300}") {
        let analyzer = ppchecker_policy::PolicyAnalyzer::new();
        let analysis = analyzer.analyze_html(&s);
        prop_assert!(analysis.sentences.len() <= analysis.total_sentences);
    }

    /// One engine cache over many documents that share sentences gives
    /// each document exactly the analyzer's own analysis: the same useful
    /// sentences, disclaimer flag and sentence count.
    #[test]
    fn sentence_cache_equals_direct_analysis(
        pool in prop::collection::vec("[a-zA-Z <>/&;.,]{0,60}", 1..6),
        docs in prop::collection::vec(prop::collection::vec(0usize..8, 0..8), 1..8)
    ) {
        use ppchecker_policy::{encode_analysis, PolicyAnalyzer};
        let fixed = [
            "We are not responsible for the privacy practices of third party sites.",
            "We may collect your location and your device id.",
            "We will not share your contacts without your consent.",
        ];
        let pieces: Vec<&str> = pool.iter().map(String::as_str).chain(fixed).collect();
        let analyzer = PolicyAnalyzer::new();
        let cache = ppchecker_engine::ArtifactCache::new(analyzer.clone());
        for doc in &docs {
            let html: Vec<&str> = doc.iter().map(|&i| pieces[i % pieces.len()]).collect();
            let html = format!("<p>{}</p>", html.join("</p><p>"));
            let (cached, direct) = (cache.policy(&html), analyzer.analyze_html(&html));
            prop_assert_eq!(cached.has_disclaimer, direct.has_disclaimer);
            prop_assert_eq!(cached.total_sentences, direct.total_sentences);
            prop_assert_eq!(encode_analysis(&cached), encode_analysis(&direct));
        }
    }

    /// Every extracted resource is non-empty and every sentence has at
    /// least one resource (pipeline filter invariant).
    #[test]
    fn useful_sentences_always_carry_resources(s in "[a-z .,]{0,200}") {
        let analyzer = ppchecker_policy::PolicyAnalyzer::new();
        for sent in &analyzer.analyze_text(&s).sentences {
            prop_assert!(!sent.resource_symbols().is_empty());
            for r in sent.resources() {
                prop_assert!(!r.is_empty());
            }
        }
    }
}

// ---------- stored-byte decoders ----------

/// The wire encodings of the paper prefix: each app's policy analysis
/// and its report, as the store keeps them.
fn paper_prefix_encodings() -> &'static [(Vec<u8>, Vec<u8>)] {
    static ENCODINGS: std::sync::OnceLock<Vec<(Vec<u8>, Vec<u8>)>> = std::sync::OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let dataset = ppchecker_corpus::paper_dataset(42);
        let checker = dataset.make_checker();
        dataset
            .iter_apps()
            .map(|app| {
                let analysis = checker.analyzer().analyze_html(&app.policy_html);
                let report = checker.check_app(app).expect("paper apps check").report;
                (
                    ppchecker_policy::encode_analysis(&analysis),
                    ppchecker_core::encode_report(&report),
                )
            })
            .collect()
    })
}

/// Decodes `bytes` as an analysis and as a report. An accepted analysis
/// re-encodes to exactly `bytes`; an accepted report gives a value whose
/// encoding decodes and re-encodes to itself.
fn decode_both(bytes: &[u8]) -> Result<(), String> {
    use ppchecker_core::{decode_report, encode_report};
    use ppchecker_policy::{decode_analysis, encode_analysis};
    if let Ok(analysis) = decode_analysis(bytes) {
        prop_assert_eq!(encode_analysis(&analysis), bytes);
    }
    // Only a fixpoint for reports: a finding with payload tag 255 decodes
    // to nothing, so an accepted report is not always canonical.
    if let Ok(report) = decode_report(bytes) {
        let once = encode_report(&report);
        let again = decode_report(&once).map_err(|e| format!("re-decode report: {e}"))?;
        prop_assert_eq!(encode_report(&again), once);
    }
    Ok(())
}

proptest! {
    /// The analysis and report decoders are total over arbitrary bytes.
    #[test]
    fn stored_byte_decoders_are_total(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        decode_both(&bytes)?;
    }

    /// A paper-prefix encoding decodes and re-encodes to its own bytes;
    /// every truncation of it is an error, and changing any one byte of
    /// it gives an error or a value, never a panic.
    #[test]
    fn stored_paper_encodings_round_trip_and_survive_cuts_and_flips(
        app in 0..ppchecker_corpus::APP_COUNT,
        delta in 1u8..255,
    ) {
        use ppchecker_core::{decode_report, encode_report};
        use ppchecker_policy::{decode_analysis, encode_analysis};
        let encodings = paper_prefix_encodings();
        prop_assert_eq!(encodings.len(), ppchecker_corpus::APP_COUNT);
        let (analysis, report) = &encodings[app];
        let decoded = decode_analysis(analysis).map_err(|e| e.to_string())?;
        prop_assert_eq!(&encode_analysis(&decoded), analysis);
        let decoded = decode_report(report).map_err(|e| e.to_string())?;
        prop_assert_eq!(&encode_report(&decoded), report);
        prop_assert!((0..analysis.len()).all(|cut| decode_analysis(&analysis[..cut]).is_err()));
        prop_assert!((0..report.len()).all(|cut| decode_report(&report[..cut]).is_err()));
        for bytes in [analysis, report] {
            for cut in 0..bytes.len() {
                decode_both(&bytes[..cut])?;
            }
            let mut mutated = bytes.clone();
            for i in 0..mutated.len() {
                mutated[i] = bytes[i].wrapping_add(delta);
                decode_both(&mutated)?;
                mutated[i] = bytes[i];
            }
        }
    }
}

// ---------- request decoders (JSON bodies, HTTP heads) ----------

/// The wire app object a client sends for paper-prefix app `index`.
fn paper_app_document(index: usize) -> String {
    static PLAN: std::sync::OnceLock<Vec<ppchecker_corpus::AppSpec>> = std::sync::OnceLock::new();
    let plan = PLAN.get_or_init(ppchecker_corpus::build_plan);
    ppchecker_serve::json::app_to_json(&ppchecker_corpus::generate_scaled(plan, 42, index).input)
}

/// The largest body the request properties accept.
const MAX_BODY: usize = 1 << 20;

proptest! {
    /// The JSON parser is total over strings of JSON's own alphabet, and
    /// whatever follows 129 opening brackets, the nesting cap rejects it.
    #[test]
    fn json_parse_is_total(s in "[{}\\[\\]:,\"\\\\0-9a-z .E+\\-]{0,200}") {
        use ppchecker_serve::json::parse;
        let _ = parse(&s);
        prop_assert!(parse(&format!("{}{s}", "[".repeat(129))).is_err());
    }

    /// A paper-prefix app's wire object decodes and re-encodes to itself;
    /// every cut of it on a char boundary and every one-char replacement
    /// parses, and decodes where it parses, to a value or an error.
    #[test]
    fn wire_app_documents_survive_cuts_and_replacements(
        app in 0..ppchecker_corpus::APP_COUNT,
        replacement in "[{}\\[\\]:,\"\\\\0-9a-z é]",
    ) {
        use ppchecker_serve::json::{app_to_json, parse, parse_app};
        let doc = paper_app_document(app);
        let decoded = parse(&doc).and_then(|value| parse_app(&value))?;
        prop_assert_eq!(app_to_json(&decoded), doc.as_str());
        for (at, c) in doc.char_indices() {
            let _ = parse(&doc[..at]).map(|value| parse_app(&value));
            let changed = format!("{}{replacement}{}", &doc[..at], &doc[at + c.len_utf8()..]);
            let _ = parse(&changed).map(|value| parse_app(&value));
        }
    }

    /// The HTTP request reader is total over arbitrary bytes.
    #[test]
    fn http_read_request_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = ppchecker_serve::http::read_request(&mut std::io::Cursor::new(&bytes), MAX_BODY);
    }

    /// A `POST /check` carrying a paper-prefix app reads back whole; every
    /// cut of it is an error, and changing any one byte of it gives a
    /// request or an error, never a panic.
    #[test]
    fn http_check_requests_survive_cuts_and_flips(
        app in 0..ppchecker_corpus::APP_COUNT,
        delta in 1u8..255,
    ) {
        use ppchecker_serve::http::read_request;
        use std::io::Cursor;
        let body = paper_app_document(app);
        let request = format!(
            "POST /check HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let read =
            read_request(&mut Cursor::new(&request), MAX_BODY).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(read.method.as_str(), "POST");
        prop_assert_eq!(read.path.as_str(), "/check");
        prop_assert_eq!(read.body.as_str(), body.as_str());
        prop_assert!(read.keep_alive);
        for cut in 0..request.len() {
            prop_assert!(read_request(&mut Cursor::new(&request[..cut]), MAX_BODY).is_err());
        }
        let mut changed = request.clone();
        for i in 0..request.len() {
            changed[i] = request[i].wrapping_add(delta);
            let _ = read_request(&mut Cursor::new(&changed), MAX_BODY);
            changed[i] = request[i];
        }
    }
}

// ---------- HTML extraction ----------

proptest! {
    /// The HTML extractor is total and its output never contains tag
    /// delimiters from well-formed markup.
    #[test]
    fn html_extractor_is_total(s in "[a-zA-Z <>/&;=\"']{0,300}") {
        let _ = ppchecker_policy::html::extract_text(&s);
    }

    /// Text wrapped in simple tags always survives extraction.
    #[test]
    fn wrapped_text_survives(words in "[a-z]{1,10}( [a-z]{1,10}){0,5}") {
        let html = format!("<html><body><p>{words}</p></body></html>");
        let text = ppchecker_policy::html::extract_text(&html);
        prop_assert!(text.contains(&words));
    }
}

// ---------- manifest text format ----------

proptest! {
    /// Manifest parsing is total over arbitrary line soup.
    #[test]
    fn manifest_parse_is_total(s in "([a-z ]{0,30}\n){0,10}") {
        let _ = ppchecker_apk::Manifest::from_text(&s);
    }

    /// Any manifest built from generated parts round-trips through the
    /// text format.
    #[test]
    fn manifest_text_round_trips(
        package in "[a-z]{2,8}(\\.[a-z]{2,8}){1,3}",
        perms in proptest::collection::vec(0usize..8, 0..5),
        classes in proptest::collection::vec("[A-Z][a-zA-Z]{1,10}", 0..4),
    ) {
        use ppchecker_apk::{ComponentKind, Manifest, Permission};
        const PERMS: &[Permission] = &[
            Permission::AccessFineLocation,
            Permission::Camera,
            Permission::ReadContacts,
            Permission::GetAccounts,
            Permission::ReadCalendar,
            Permission::RecordAudio,
            Permission::ReadSms,
            Permission::Internet,
        ];
        let mut m = Manifest::new(&package);
        for &p in &perms {
            m.add_permission(PERMS[p].clone());
        }
        for (i, c) in classes.iter().enumerate() {
            m.add_component(ComponentKind::Activity, &format!("{package}.{c}"), i == 0);
        }
        let again = Manifest::from_text(&m.to_text()).expect("own output parses");
        prop_assert_eq!(m, again);
    }
}

// ---------- MinHash (boilerplate detection) ----------

/// Interns a generated word list into the token stream MinHash consumes.
fn intern_words(words: &[String]) -> Vec<ppchecker_nlp::Symbol> {
    words.iter().map(|w| intern(w)).collect()
}

proptest! {
    /// The 64-slot MinHash estimate tracks the exact shingle Jaccard:
    /// bounded, symmetric, exact on identical streams, and within a
    /// statistical band of the true value on arbitrary pairs.
    #[test]
    fn minhash_estimate_tracks_exact_jaccard(
        a in proptest::collection::vec("[a-e]{1,3}", 4..40),
        b in proptest::collection::vec("[a-e]{1,3}", 4..40),
    ) {
        use ppchecker_core::minhash::{exact_jaccard, signature, similarity};
        let (ta, tb) = (intern_words(&a), intern_words(&b));
        let (sa, sb) = (signature(&ta), signature(&tb));
        let est = similarity(&sa, &sb);
        let exact = exact_jaccard(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&est));
        prop_assert_eq!(similarity(&sb, &sa), est);
        // 64 independent min-hash slots: the estimator is a binomial
        // mean with σ ≤ 1/16, so 0.35 is a > 5σ band — flaky only if
        // the estimator is actually broken.
        prop_assert!(
            (est - exact).abs() <= 0.35,
            "estimate {} too far from exact {}", est, exact,
        );
    }

    /// A stream is always a perfect duplicate of itself, and two streams
    /// over disjoint alphabets share nothing.
    #[test]
    fn minhash_identity_and_disjointness(
        a in proptest::collection::vec("[a-c]{1,3}", 4..30),
        b in proptest::collection::vec("[x-z]{1,3}", 4..30),
    ) {
        use ppchecker_core::minhash::{exact_jaccard, signature, similarity};
        let (ta, tb) = (intern_words(&a), intern_words(&b));
        prop_assert_eq!(similarity(&signature(&ta), &signature(&ta)), 1.0);
        prop_assert_eq!(exact_jaccard(&ta, &ta), 1.0);
        prop_assert_eq!(exact_jaccard(&ta, &tb), 0.0);
        // Disjoint shingle sets can only collide through a 64-bit hash
        // collision; the estimate must sit at (or indistinguishably
        // near) zero.
        prop_assert!(similarity(&signature(&ta), &signature(&tb)) < 0.1);
    }
}
