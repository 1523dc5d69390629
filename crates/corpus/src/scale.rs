//! The scale corpus: a deterministic app universe of *any* size, streamed.
//!
//! The calibrated paper plan stops at [`APP_COUNT`] = 1,197 apps. The
//! scale corpus extends the index space to arbitrary N: indices below
//! `APP_COUNT` are exactly the paper plan (byte-identical generation), and
//! every index beyond it synthesizes a spec from pure index arithmetic —
//! no global state, no materialized plan beyond the calibrated prefix —
//! so generating app *i* never needs app *i − 1*.
//!
//! Each 50-index block beyond the paper prefix mixes in the scenario
//! variants the scenario packs ([`crate::manifest`]) name:
//!
//! | bucket (`index % 50`) | scenario |
//! |----------------------|----------|
//! | 7                    | packed dex |
//! | 13                   | lib-heavy (8 embedded SDKs) |
//! | 21                   | huge policy (40 filler sections) |
//! | 29                   | malformed policy HTML |
//! | 34                   | adversarial enumeration sentences |
//! | 11                   | near-duplicate family root |
//! | 41, 43, 47           | near-duplicate family members of bucket 11 |
//! | everything else      | baseline |
//!
//! [`stream_scaled`] is the one stream. It generates each app inside
//! `next()`, so an engine run hands it straight to
//! `Engine::run_streamed`: whichever worker holds the scheduler's input
//! lock generates the next app (3–8 µs per app on a 2-vCPU host), peak
//! memory is the engine's in-flight window, and no thread exists only to
//! generate.

use crate::dataset::GeneratedApp;
use crate::generate::generate_app;
use crate::plan::{build_plan, AppSpec, PolicyShape, APP_COUNT};
use ppchecker_apk::PrivateInfo;
use ppchecker_static::KNOWN_LIBS;

/// Which scenario a scale-corpus index belongs to. Pure in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A calibrated paper-plan index (`index < APP_COUNT`).
    Paper,
    /// An ordinary synthesized app.
    Baseline,
    /// Ships a packed dex.
    PackedDex,
    /// Embeds eight third-party SDKs.
    LibHeavy,
    /// Huge policy document.
    HugePolicy,
    /// Structurally broken policy HTML.
    MalformedPolicy,
    /// Adversarial enumeration sentences.
    Enumeration,
    /// Root of a near-duplicate policy family.
    FamilyRoot,
    /// Near-duplicate member of its block's family.
    NearDuplicate,
}

/// Classifies an index. Indices below [`APP_COUNT`] are always
/// [`Scenario::Paper`]; beyond it the 50-index block layout applies.
pub fn scenario_of(index: usize) -> Scenario {
    if index < APP_COUNT {
        return Scenario::Paper;
    }
    match index % 50 {
        7 => Scenario::PackedDex,
        13 => Scenario::LibHeavy,
        21 => Scenario::HugePolicy,
        29 => Scenario::MalformedPolicy,
        34 => Scenario::Enumeration,
        11 => Scenario::FamilyRoot,
        41 | 43 | 47 => Scenario::NearDuplicate,
        _ => Scenario::Baseline,
    }
}

/// The family root a [`Scenario::NearDuplicate`] index duplicates: bucket
/// 11 of its own 50-index block (always smaller than the member index).
pub fn family_root_of(index: usize) -> usize {
    index - index % 50 + 11
}

const INFO_POOL: &[PrivateInfo] = &[
    PrivateInfo::Location,
    PrivateInfo::DeviceId,
    PrivateInfo::Email,
    PrivateInfo::Contact,
    PrivateInfo::PhoneNumber,
    PrivateInfo::Cookie,
    PrivateInfo::Account,
    PrivateInfo::IpAddress,
];

fn push_unique(list: &mut Vec<PrivateInfo>, info: PrivateInfo) {
    if !list.contains(&info) {
        list.push(info);
    }
}

/// An ordinary synthesized app: one or two covered resources, code that
/// collects a covered one, an occasional planted coverage gap, and an
/// embedded SDK on every fourth index.
fn baseline_spec(index: usize) -> AppSpec {
    let mut spec = AppSpec { index, ..AppSpec::default() };
    let a = INFO_POOL[index % INFO_POOL.len()];
    let b = INFO_POOL[(index / INFO_POOL.len()) % INFO_POOL.len()];
    spec.policy_cover.push(a);
    push_unique(&mut spec.policy_cover, b);
    spec.code_collect.push((a, index.is_multiple_of(3)));
    if index % 10 == 3 {
        // Planted incompleteness: the dex collects something the policy
        // never mentions.
        let missed = INFO_POOL[(index / 7 + 3) % INFO_POOL.len()];
        if !spec.policy_cover.contains(&missed) {
            spec.code_collect.push((missed, false));
            spec.truth.incomplete_via_code = true;
            spec.truth.code_missed.push((missed, false));
        }
    }
    if index.is_multiple_of(4) {
        spec.libs.push(KNOWN_LIBS[index % KNOWN_LIBS.len()].id);
        // The embedded SDK body collects a device id; cover it so the
        // baseline stays problem-free on that axis.
        push_unique(&mut spec.policy_cover, PrivateInfo::DeviceId);
        spec.disclaimer = index.is_multiple_of(8);
    }
    spec
}

/// The spec for any index of the scale corpus: the calibrated plan below
/// [`APP_COUNT`], synthesized scenarios beyond it. Pure in
/// `(plan, index)`, so any index generates without its predecessors
/// (what dataset manifests rely on to regenerate a subset).
pub fn scaled_spec(plan: &[AppSpec], index: usize) -> AppSpec {
    if index < plan.len() {
        return plan[index].clone();
    }
    match scenario_of(index) {
        Scenario::Paper => unreachable!("paper indices are covered by the plan prefix"),
        Scenario::Baseline | Scenario::FamilyRoot => baseline_spec(index),
        Scenario::PackedDex => AppSpec { packed: true, ..baseline_spec(index) },
        Scenario::LibHeavy => {
            let mut spec = baseline_spec(index);
            spec.libs.clear();
            for k in 0..8 {
                let lib = KNOWN_LIBS[(index / 50 + k * 7) % KNOWN_LIBS.len()].id;
                if !spec.libs.contains(&lib) {
                    spec.libs.push(lib);
                }
            }
            push_unique(&mut spec.policy_cover, PrivateInfo::DeviceId);
            spec
        }
        Scenario::HugePolicy => {
            AppSpec { policy_shape: PolicyShape::Huge(40), ..baseline_spec(index) }
        }
        Scenario::MalformedPolicy => {
            AppSpec { policy_shape: PolicyShape::Malformed, ..baseline_spec(index) }
        }
        Scenario::Enumeration => {
            let mut spec = baseline_spec(index);
            push_unique(&mut spec.policy_cover, PrivateInfo::PhoneNumber);
            push_unique(&mut spec.policy_cover, PrivateInfo::Cookie);
            spec.policy_shape = PolicyShape::Enumeration(6);
            spec
        }
        Scenario::NearDuplicate => {
            let root = family_root_of(index);
            let mut spec = scaled_spec(plan, root);
            spec.index = index;
            spec.near_dup_of = Some(root);
            spec
        }
    }
}

/// Generates one scale-corpus app. Pure in `(plan, seed, index)`.
pub fn generate_scaled(plan: &[AppSpec], seed: u64, index: usize) -> GeneratedApp {
    let spec = scaled_spec(plan, index);
    GeneratedApp { input: generate_app(&spec, seed), spec }
}

/// The stream over the first `n` scale-corpus indices, each app generated
/// when it is pulled. For `n <= APP_COUNT` this is byte-identical to
/// [`crate::stream_apps`] truncated to `n`.
pub fn stream_scaled(seed: u64, n: usize) -> impl Iterator<Item = GeneratedApp> {
    let plan = build_plan();
    (0..n).map(move |index| generate_scaled(&plan, seed, index))
}

/// Retired: [`stream_scaled`] under its old name, which ignores
/// `_shards`. Kept only until the repository benchmark, which still calls
/// it, moves to [`stream_scaled`].
pub fn stream_scaled_sharded(
    seed: u64,
    n: usize,
    _shards: usize,
) -> impl Iterator<Item = GeneratedApp> {
    stream_scaled(seed, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prefix_is_untouched() {
        let plan = build_plan();
        for index in [0, 5, 500, APP_COUNT - 1] {
            let spec = scaled_spec(&plan, index);
            assert_eq!(spec.policy_shape, PolicyShape::Normal);
            assert!(spec.near_dup_of.is_none());
            assert_eq!(scenario_of(index), Scenario::Paper);
        }
    }

    #[test]
    fn scenarios_land_on_their_buckets() {
        let base = 2000; // any block base beyond the paper prefix
        assert_eq!(scenario_of(base + 7), Scenario::PackedDex);
        assert_eq!(scenario_of(base + 13), Scenario::LibHeavy);
        assert_eq!(scenario_of(base + 21), Scenario::HugePolicy);
        assert_eq!(scenario_of(base + 29), Scenario::MalformedPolicy);
        assert_eq!(scenario_of(base + 34), Scenario::Enumeration);
        assert_eq!(scenario_of(base + 41), Scenario::NearDuplicate);
        assert_eq!(family_root_of(base + 41), base + 11);
    }

    #[test]
    fn scaled_specs_generate_valid_apps() {
        let plan = build_plan();
        for index in [2007, 2013, 2021, 2029, 2034, 2041, 2050] {
            let app = generate_scaled(&plan, 42, index);
            assert!(!app.input.policy_html.is_empty());
            assert!(!app.input.description.is_empty());
            assert_eq!(app.spec.index, index);
        }
    }

    #[test]
    fn packed_scenario_packs_the_dex() {
        let plan = build_plan();
        let app = generate_scaled(&plan, 42, 2007);
        assert!(app.input.apk.is_packed());
    }

    #[test]
    fn lib_heavy_embeds_eight_sdks() {
        let plan = build_plan();
        let app = generate_scaled(&plan, 42, 2013);
        assert_eq!(app.spec.libs.len(), 8);
    }

    #[test]
    fn near_duplicates_share_their_root_body() {
        let plan = build_plan();
        let root = generate_scaled(&plan, 42, 2011);
        let dup_a = generate_scaled(&plan, 42, 2041);
        let dup_b = generate_scaled(&plan, 42, 2043);
        // The duplicate keeps the root's entire body and appends exactly
        // one revision sentence.
        let body_end = root.input.policy_html.len() - "</body></html>".len();
        let root_body = &root.input.policy_html[..body_end];
        assert!(dup_a.input.policy_html.starts_with(root_body));
        assert!(dup_b.input.policy_html.starts_with(root_body));
        assert_ne!(dup_a.input.policy_html, dup_b.input.policy_html);
        assert_ne!(dup_a.input.policy_html, root.input.policy_html);
    }

    #[test]
    fn malformed_policy_still_analyzes() {
        let plan = build_plan();
        let app = generate_scaled(&plan, 42, 2029);
        assert!(!app.input.policy_html.ends_with("</html>"));
        // The parser must degrade gracefully, not panic.
        let analysis = ppchecker_policy::PolicyAnalyzer::new().analyze_html(&app.input.policy_html);
        assert!(analysis.total_sentences > 0);
    }

    #[test]
    fn huge_policy_is_actually_huge() {
        let plan = build_plan();
        let huge = generate_scaled(&plan, 42, 2021);
        let normal = generate_scaled(&plan, 42, 2022);
        assert!(huge.input.policy_html.len() > 4 * normal.input.policy_html.len());
    }
}
