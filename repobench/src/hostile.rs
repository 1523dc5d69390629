//! `hostile-policy`: one caller runs `Engine::check_one` over scale apps
//! whose policies each gain one long enumeration sentence with mixed `,`
//! and `;` separators — the adversarial inputs of the (Un)Reliability
//! study, and the per-byte cost growth of long sentences in `nlp`.
//!
//! Every seed gets the same ladder of sentence lengths (item counts grow
//! geometrically over 8×, the longest sentence stays under 80 KB), so no
//! single check dominates a run and throughput does not depend on which
//! lengths a seed happens to draw. The seed picks the base apps, the
//! words, the separators, and the order.

use crate::batch::{fresh_engine, SETUP_PROBES};
use crate::trace::{self, Counters};
use crate::util::{
    lib_pairs, median, percentiles, probe_setup, recheck, sample_stride, Outcome, RssMeter,
    Settings, Size, Windows,
};
use ppchecker_core::AppInput;
use ppchecker_corpus::{build_plan, scale::generate_scaled};
use ppchecker_serve::json::report_to_json;
use std::time::Instant;

/// Timed passes over the ladder; the figures are medians over passes.
const PASSES: usize = 10;

const QUALIFIERS: &[&str] = &[
    "your",
    "precise",
    "approximate",
    "stored",
    "hashed",
    "historical",
    "secondary",
    "linked",
    "encrypted",
    "derived",
    "aggregated",
    "shared",
];

const ITEMS: &[&str] = &[
    "email address",
    "phone number",
    "device identifier",
    "location",
    "contacts",
    "photos",
    "calendar entries",
    "browsing history",
    "search queries",
    "purchase records",
    "ip address",
    "cookies",
    "account name",
    "payment details",
    "voice recordings",
    "usage statistics",
    "crash logs",
    "advertising identifier",
    "home address",
    "date of birth",
];

/// SplitMix64: a small seeded generator for word and separator choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// One enumeration sentence of `items` items.
fn enumeration(rng: &mut Rng, items: usize) -> String {
    let mut s = String::from("We may collect and share the following information about you: ");
    for i in 0..items {
        if i > 0 {
            s.push_str(if i + 1 == items {
                ", and "
            } else if rng.next().is_multiple_of(3) {
                "; "
            } else {
                ", "
            });
        }
        s.push_str(rng.pick(QUALIFIERS));
        s.push(' ');
        s.push_str(rng.pick(ITEMS));
    }
    s.push('.');
    s
}

/// The item-count ladder: `count` values growing geometrically from `low`
/// to `8 * low`.
fn ladder(count: usize, low: f64) -> Vec<usize> {
    (0..count)
        .map(|k| (low * 8f64.powf(k as f64 / (count - 1).max(1) as f64)).round() as usize)
        .collect()
}

/// Builds the hostile apps: baseline scale apps (bucket 2 of each 50-index
/// block) with one enumeration sentence appended to the policy body.
fn hostile_apps(s: &Settings, count: usize) -> Vec<AppInput> {
    let low = if s.size == Size::Smoke { 60.0 } else { 120.0 };
    let mut rng = Rng(s.seed ^ 0x5EED_0FA1);
    let mut lengths = ladder(count, low);
    for i in (1..lengths.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        lengths.swap(i, j);
    }
    let plan = build_plan();
    let base = 1_200 + (s.seed as usize % 1_000) * 50;
    lengths
        .into_iter()
        .enumerate()
        .map(|(k, items)| {
            let mut app = generate_scaled(&plan, s.seed, base + 50 * k + 2).input;
            let sentence = format!("<p>{}</p>", enumeration(&mut rng, items));
            match app.policy_html.rfind("</body>") {
                Some(at) => app.policy_html.insert_str(at, &sentence),
                None => app.policy_html.push_str(&sentence),
            }
            app
        })
        .collect()
}

pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = median(&mut probe_setup("hostile-policy", s, SETUP_PROBES));
    let count = s.scaled(30, 40);
    let passes = if s.size == Size::Smoke { 2 } else { PASSES };
    let apps = hostile_apps(s, count);
    let longest = apps.iter().map(|a| a.policy_html.len()).max().unwrap_or(0);
    let shortest = apps.iter().map(|a| a.policy_html.len()).min().unwrap_or(0);
    out.note(format!(
        "inputs: {count} apps, policies {shortest}..{longest} bytes with one enumeration each"
    ));

    let mut windows = Windows::default();
    let mut counters = Counters::default();
    let mut first_pass = Vec::with_capacity(count);
    let rss = RssMeter::start();
    let mut rendered = Vec::new();
    let stride = sample_stride(count);
    let mut wall = 0.0;
    for pass in 0..passes {
        // A fresh engine per pass, so every check analyzes its policy.
        let engine = fresh_engine(lib_pairs(), s.jobs);
        let before = engine.metrics_snapshot();
        let t = Instant::now();
        for (i, app) in apps.iter().enumerate() {
            let start = Instant::now();
            let outcome = engine.check_one(app);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            windows.latencies.push(ms);
            counters.apps += 1;
            match &outcome {
                Ok(o) => {
                    counters.findings += ppchecker_core::DetectorId::ALL
                        .iter()
                        .map(|&id| o.detector_findings(id) as u64)
                        .sum::<u64>()
                }
                Err(_) => counters.failed += 1,
            }
            if pass == 0 {
                first_pass.push(ms);
                if i % stride == 0 {
                    let got = match &outcome {
                        Ok(o) => report_to_json(&o.report),
                        Err(e) => format!("error[{}]: {e}", app.package),
                    };
                    rendered.push((app.clone(), got));
                }
            }
        }
        let pass_wall = t.elapsed().as_secs_f64();
        wall += pass_wall;
        windows.close(pass_wall);
        counters.add(&Counters::between(&before, &engine.metrics_snapshot()));
    }
    rss.record(&mut out);
    counters.parallelism = first_pass.iter().sum::<f64>() / 1e3 / (wall / passes as f64);
    counters.record(&mut out);
    let (throughput, p50, p90) = windows.medians(count);
    let mut sorted = first_pass.clone();
    let (_, _, p99) = percentiles(&mut sorted);
    out.note(format!(
        "timed: {passes} passes of {count} check_one calls in {wall:.3} s; {}; first pass p99 \
         {p99:.3} ms, max {:.3} ms",
        windows.describe(count),
        sorted.last().copied().unwrap_or(0.0)
    ));
    out.attempted = (count * passes) as u64;
    out.failed = counters.failed;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", throughput);
    out.set("latency_p50_ms", p50);
    out.set("run.latency_p90_ms", p90);
    out.check("recheck", recheck(&rendered));

    if s.trace {
        // Every third rung of the ladder keeps the traced run short. Each
        // pass gets a fresh engine, so every check analyzes its policy.
        let drive: Vec<AppInput> = apps.iter().step_by(3).cloned().collect();
        let pass = |engine: ppchecker_engine::Engine| {
            for app in &drive {
                drop(std::hint::black_box(engine.check_one(app)));
            }
        };
        let engine = fresh_engine(lib_pairs(), s.jobs);
        let t = Instant::now();
        pass(engine);
        let untraced = t.elapsed().as_secs_f64();
        let engine = fresh_engine(lib_pairs(), s.jobs);
        let (_, events, traced) = trace::capture(|| pass(engine));
        trace::Layers::from_events(&events).record(&mut out, &drive);
        out.set("trace.overhead_ratio", traced / untraced);
        trace::write_events(&mut out, "hostile-policy", s.seed, &events);
    }
    out
}
