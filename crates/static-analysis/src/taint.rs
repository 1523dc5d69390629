//! Interprocedural static taint analysis (the FlowDroid substitute).
//!
//! Sources are sensitive API invocations and content-provider queries of
//! sensitive URIs; sinks are the log/file/network/SMS/Bluetooth APIs of
//! [`crate::sinks`]. Taint propagates through register moves, fields,
//! framework calls (argument → result), application-method calls
//! (argument → parameter) and returns, iterated to a global fixpoint over
//! the reachable portion of the call graph.
//!
//! Production runs the dense-id bitset kernel (`crate::kernel`) on every
//! app. [`analyze_reference`] is the executable specification the kernel
//! is tested against; nothing in the analysis pipeline calls it.

use crate::apg::Apg;
use crate::consts::{self, UriValue};
use crate::sensitive;
use crate::sinks::{self, SinkKind};
use crate::uris;
use ppchecker_apk::{Insn, Method, PrivateInfo, Reg};
use std::collections::{BTreeSet, HashMap};

/// A detected source→sink flow: the paper's `Retain_code` evidence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Leak {
    /// Information that escapes.
    pub info: PrivateInfo,
    /// Where it escapes to.
    pub sink: SinkKind,
    /// The source API or URI the information came from.
    pub source_api: String,
    /// The sink API (`class.method`).
    pub sink_api: String,
    /// Method containing the sink call (`class.method`).
    pub at_method: String,
}

/// A taint label: what information, and the source-API witness that
/// introduced it (so a leak reports the full source→sink pair, as the
/// paper does: "a path between getLatitude() and Log.i()").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Label {
    pub(crate) info: PrivateInfo,
    pub(crate) source_api: String,
}

type TaintSet = BTreeSet<Label>;

/// Runs the taint analysis over `methods`, a set indexed by method id
/// (normally the reachable set), and returns the sorted, deduplicated
/// leaks.
///
/// # Panics
///
/// Panics if `methods` does not hold one entry per method id.
pub fn analyze(apg: &Apg, methods: &[bool]) -> Vec<Leak> {
    assert_eq!(methods.len(), apg.method_count(), "one scope entry per method id");
    crate::kernel::run(apg, methods)
}

/// The reference engine: string-keyed maps, whole-scope sweeps. The
/// oracle the kernel is tested against; it returns the same leaks as
/// [`analyze`].
///
/// # Panics
///
/// Panics if `methods` does not hold one entry per method id.
pub fn analyze_reference(apg: &Apg, methods: &[bool]) -> Vec<Leak> {
    assert_eq!(methods.len(), apg.method_count(), "one scope entry per method id");
    let mut engine = Engine {
        apg,
        field_taint: HashMap::new(),
        param_taint: HashMap::new(),
        return_taint: HashMap::new(),
        icc_taint: HashMap::new(),
        leaks: BTreeSet::new(),
    };
    engine.run(methods);
    engine.leaks.into_iter().collect()
}

struct Engine<'a> {
    apg: &'a Apg<'a>,
    /// Class → field → taint. Nested (rather than keyed by a
    /// `(String, String)` pair) so the hot read path probes with two
    /// borrowed `&str`s instead of allocating a fresh tuple per lookup.
    field_taint: HashMap<String, HashMap<String, TaintSet>>,
    param_taint: HashMap<u32, TaintSet>,
    return_taint: HashMap<u32, TaintSet>,
    /// Inter-component channel taint: intent extras put for a target
    /// class become readable by that class's `get*Extra` calls (the
    /// data-flow half of IccTA).
    icc_taint: HashMap<String, TaintSet>,
    leaks: BTreeSet<Leak>,
}

impl Engine<'_> {
    fn run(&mut self, methods: &[bool]) {
        // Global fixpoint: method summaries (param/return/field taint) grow
        // monotonically, so iterate until stable.
        let ordered: Vec<u32> =
            (0..methods.len() as u32).filter(|&ix| methods[ix as usize]).collect();
        for _round in 0..8 {
            let before = self.state_size();
            for &mid in &ordered {
                self.process_method(mid, methods);
            }
            if self.state_size() == before {
                break;
            }
        }
    }

    fn state_size(&self) -> usize {
        self.field_taint
            .values()
            .flat_map(|by_field| by_field.values())
            .map(|s| s.len())
            .sum::<usize>()
            + self.param_taint.values().map(|s| s.len()).sum::<usize>()
            + self.return_taint.values().map(|s| s.len()).sum::<usize>()
            + self.icc_taint.values().map(|s| s.len()).sum::<usize>()
            + self.leaks.len()
    }

    fn process_method(&mut self, mid: u32, in_scope: &[bool]) {
        let (class, method) = self.apg.method_def(mid);
        let (class_name, method_name) = (class.name.as_str(), method.name.as_str());

        // Pre-resolve query URIs once.
        let query_uris: HashMap<usize, UriValue> =
            consts::query_sites(method).into_iter().collect();
        // Pre-resolve intent registers → target classes (for extras).
        let intent_targets = intent_targets(method);

        // Parameters share one taint set (the IR is name-resolved, not
        // signature-resolved, so per-index precision is not meaningful).
        // Only the parameter registers the body uses are seeded: no other
        // register is read, and each would add a constant to the stopping
        // rule's sums.
        let incoming = self.param_taint.get(&mid).cloned().unwrap_or_default();
        let mut regs: HashMap<Reg, TaintSet> = HashMap::new();
        if !incoming.is_empty() {
            let mut used = Vec::new();
            body_regs(method, &mut used);
            for &p in used.iter().take_while(|&&r| r < method.param_count) {
                regs.insert(p, incoming.clone());
            }
        }

        // Iterate the body until local state stabilizes (handles loops).
        for _pass in 0..4 {
            let before: usize = regs.values().map(|s| s.len()).sum::<usize>() + self.leaks.len();
            self.interpret(
                method,
                class_name,
                method_name,
                mid,
                &query_uris,
                &intent_targets,
                &mut regs,
                in_scope,
            );
            let after: usize = regs.values().map(|s| s.len()).sum::<usize>() + self.leaks.len();
            if after == before {
                break;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn interpret(
        &mut self,
        method: &Method,
        class_name: &str,
        method_name: &str,
        mid: u32,
        query_uris: &HashMap<usize, UriValue>,
        intent_targets: &HashMap<Reg, String>,
        regs: &mut HashMap<Reg, TaintSet>,
        in_scope: &[bool],
    ) {
        for (idx, insn) in method.instructions.iter().enumerate() {
            match insn {
                Insn::ConstString { dst, .. } => {
                    regs.remove(dst);
                }
                Insn::Move { dst, src } => {
                    let t = regs.get(src).cloned().unwrap_or_default();
                    if t.is_empty() {
                        regs.remove(dst);
                    } else {
                        regs.insert(*dst, t);
                    }
                }
                Insn::NewInstance { dst, .. } => {
                    regs.remove(dst);
                }
                Insn::FieldPut { class, field, src } => {
                    if let Some(t) = regs.get(src) {
                        if !t.is_empty() {
                            // Allocate the String keys only on first sight
                            // of the class/field; steady-state puts probe
                            // with borrowed strs.
                            if !self.field_taint.contains_key(class.as_str()) {
                                self.field_taint.insert(class.clone(), HashMap::new());
                            }
                            let by_field =
                                self.field_taint.get_mut(class.as_str()).expect("just inserted");
                            match by_field.get_mut(field.as_str()) {
                                Some(set) => set.extend(t.iter().cloned()),
                                None => {
                                    by_field.insert(field.clone(), t.clone());
                                }
                            }
                        }
                    }
                }
                Insn::FieldGet { class, field, dst } => {
                    match self.field_taint.get(class.as_str()).and_then(|m| m.get(field.as_str())) {
                        Some(t) if !t.is_empty() => {
                            regs.entry(*dst).or_default().extend(t.iter().cloned());
                        }
                        _ => {}
                    }
                }
                Insn::Return { src: Some(s) } => {
                    if let Some(t) = regs.get(s) {
                        if !t.is_empty() {
                            self.return_taint.entry(mid).or_default().extend(t.iter().cloned());
                        }
                    }
                }
                Insn::Invoke { class, method: callee, args, dst, .. } => {
                    self.handle_invoke(
                        idx,
                        class,
                        callee,
                        args,
                        *dst,
                        class_name,
                        method_name,
                        query_uris,
                        intent_targets,
                        regs,
                        in_scope,
                    );
                }
                _ => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_invoke(
        &mut self,
        idx: usize,
        class: &str,
        callee: &str,
        args: &[Reg],
        dst: Option<Reg>,
        class_name: &str,
        method_name: &str,
        query_uris: &HashMap<usize, UriValue>,
        intent_targets: &HashMap<Reg, String>,
        regs: &mut HashMap<Reg, TaintSet>,
        in_scope: &[bool],
    ) {
        let arg_taint: TaintSet =
            args.iter().filter_map(|r| regs.get(r)).flat_map(|s| s.iter().cloned()).collect();

        // Source: sensitive API.
        if let Some(api) = sensitive::lookup(class, callee) {
            if let Some(d) = dst {
                regs.entry(d)
                    .or_default()
                    .insert(Label { info: api.info, source_api: format!("{class}.{callee}") });
            }
        }

        // Source: content-provider query of a sensitive URI.
        if let Some(uri) = query_uris.get(&idx) {
            let (info, witness) = match uri {
                UriValue::Literal(s) => (uris::match_uri_string(s).map(|u| u.info), s.clone()),
                UriValue::Field(f) => (uris::match_uri_field(f).map(|u| u.info), f.clone()),
            };
            if let (Some(info), Some(d)) = (info, dst) {
                regs.entry(d).or_default().insert(Label { info, source_api: witness });
            }
        }

        // ICC data flow (IccTA): tainted extras put into an intent become
        // visible to the target component's get*Extra reads.
        if class == "android.content.Intent" {
            if callee == "putExtra" && !arg_taint.is_empty() {
                if let Some(target) = args.first().and_then(|r| intent_targets.get(r)) {
                    self.icc_taint
                        .entry(target.clone())
                        .or_default()
                        .extend(arg_taint.iter().cloned());
                }
            }
            if matches!(
                callee,
                "getStringExtra" | "getExtras" | "getParcelableExtra" | "getIntExtra"
            ) {
                if let (Some(d), Some(t)) = (dst, self.icc_taint.get(class_name)) {
                    if !t.is_empty() {
                        regs.entry(d).or_default().extend(t.iter().cloned());
                    }
                }
            }
        }

        // Sink: record a leak for every tainted argument. The api/method
        // witness strings are built once per sink call, not per label.
        if let Some(sink) = sinks::lookup(class, callee) {
            if !arg_taint.is_empty() {
                let sink_api = format!("{class}.{callee}");
                let at_method = format!("{class_name}.{method_name}");
                for label in &arg_taint {
                    self.leaks.insert(Leak {
                        info: label.info,
                        sink: sink.kind,
                        source_api: label.source_api.clone(),
                        sink_api: sink_api.clone(),
                        at_method: at_method.clone(),
                    });
                }
            }
        }

        // Application-internal call: propagate into parameters, pull return
        // taint out. Framework call: taint-through (args → result).
        let mut returned = TaintSet::new();
        let mut is_app_call = false;
        if let Some(target) = self.apg.lookup_ix(class, callee) {
            is_app_call = true;
            if in_scope[target as usize] {
                if !arg_taint.is_empty() {
                    self.param_taint.entry(target).or_default().extend(arg_taint.iter().cloned());
                }
                if let Some(r) = self.return_taint.get(&target) {
                    returned.extend(r.iter().cloned());
                }
            }
        }
        if !is_app_call {
            // Library summary: result carries argument taint
            // (StringBuilder.append, String.format, ...).
            returned.extend(arg_taint.iter().cloned());
        }
        if let Some(d) = dst {
            if !returned.is_empty() {
                regs.entry(d).or_default().extend(returned);
            }
        }
    }
}

/// The sorted distinct registers a body reads or writes, into `out`.
/// Taint reaches no other register, whatever `param_count` says.
pub(crate) fn body_regs(method: &Method, out: &mut Vec<Reg>) {
    out.clear();
    for insn in &method.instructions {
        match insn {
            Insn::ConstString { dst, .. }
            | Insn::NewInstance { dst, .. }
            | Insn::FieldGet { dst, .. } => out.push(*dst),
            Insn::Move { dst, src } => out.extend([*dst, *src]),
            Insn::FieldPut { src, .. } | Insn::Return { src: Some(src) } => out.push(*src),
            Insn::Invoke { args, dst, .. } => {
                out.extend_from_slice(args);
                out.extend(*dst);
            }
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Maps intent registers to their `setClass`-style target classes inside
/// one method (mirrors the APG's IccTA-substitute resolution).
pub(crate) fn intent_targets(method: &Method) -> HashMap<Reg, String> {
    let mut strings: HashMap<Reg, String> = HashMap::new();
    let mut targets: HashMap<Reg, String> = HashMap::new();
    for insn in &method.instructions {
        match insn {
            Insn::ConstString { dst, value } => {
                strings.insert(*dst, value.clone());
            }
            Insn::Invoke { class, method: m, args, .. }
                if class == "android.content.Intent"
                    && matches!(m.as_str(), "setClass" | "setClassName" | "setComponent") =>
            {
                if let (Some(&intent_reg), Some(target)) =
                    (args.first(), args.iter().skip(1).find_map(|r| strings.get(r)))
                {
                    targets.insert(intent_reg, target.clone());
                }
            }
            _ => {}
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    fn analyze_apk(apk: &Apk) -> Vec<Leak> {
        let apg = Apg::build(apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        analyze(&apg, &methods)
    }

    fn manifest() -> Manifest {
        let mut m = Manifest::new("com.x");
        m.add_component(ComponentKind::Activity, "com.x.Main", true);
        m
    }

    #[test]
    fn direct_source_to_log_sink() {
        // The paper's Fig. 9: getInstalledPackages() → Log.e().
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.content.pm.PackageManager",
                        "getInstalledPackages",
                        &[0],
                        Some(1),
                    );
                    m.invoke_static("android.util.Log", "e", &[1], None);
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].info, PrivateInfo::AppList);
        assert_eq!(leaks[0].sink, SinkKind::Log);
        // The witness pair reads like the paper's finding.
        assert_eq!(leaks[0].source_api, "android.content.pm.PackageManager.getInstalledPackages");
        assert_eq!(leaks[0].sink_api, "android.util.Log.e");
    }

    #[test]
    fn taint_through_string_builder() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_virtual("java.lang.StringBuilder", "append", &[2, 1], Some(3));
                    m.invoke_virtual("java.lang.StringBuilder", "toString", &[3], Some(4));
                    m.invoke_static("android.util.Log", "i", &[4], None);
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert!(leaks.iter().any(|l| l.info == PrivateInfo::Location && l.sink == SinkKind::Log));
    }

    #[test]
    fn interprocedural_flow_through_helper() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                    m.invoke_virtual("com.x.Main", "save", &[1], None);
                });
                c.method("save", 1, |m| {
                    m.invoke_virtual("java.io.FileOutputStream", "write", &[0], None);
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert!(leaks.iter().any(|l| l.info == PrivateInfo::DeviceId && l.sink == SinkKind::File));
    }

    #[test]
    fn flow_through_field() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLongitude", &[0], Some(1));
                    m.field_put("com.x.Main", "cached", 1);
                    m.invoke_virtual("com.x.Main", "onClick", &[0], None);
                });
                c.method("onClick", 1, |m| {
                    m.field_get("com.x.Main", "cached", 2);
                    m.invoke_static("android.util.Log", "d", &[2], None);
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert!(leaks.iter().any(|l| l.info == PrivateInfo::Location));
    }

    #[test]
    fn query_uri_source_reaches_sink() {
        // The paper's com.easyxapp.secret case: contacts URI → Log.
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.const_string(1, "content://com.android.contacts");
                    m.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
                    m.invoke_static("android.util.Log", "i", &[2], None);
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert!(leaks.iter().any(|l| l.info == PrivateInfo::Contact && l.sink == SinkKind::Log));
    }

    #[test]
    fn no_leak_without_sink() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                });
            })
            .build();
        assert!(analyze_apk(&Apk::new(manifest(), dex)).is_empty());
    }

    #[test]
    fn unreachable_leak_is_ignored() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |_| {});
                c.method("deadCode", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        assert!(analyze_apk(&Apk::new(manifest(), dex)).is_empty());
    }

    #[test]
    fn const_string_clears_taint() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.const_string(1, "overwritten");
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        assert!(analyze_apk(&Apk::new(manifest(), dex)).is_empty());
    }

    #[test]
    fn sms_sink_kind() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getLine1Number",
                        &[0],
                        Some(1),
                    );
                    m.invoke_virtual(
                        "android.telephony.SmsManager",
                        "sendTextMessage",
                        &[2, 1],
                        None,
                    );
                });
            })
            .build();
        let leaks = analyze_apk(&Apk::new(manifest(), dex));
        assert!(leaks
            .iter()
            .any(|l| l.info == PrivateInfo::PhoneNumber && l.sink == SinkKind::Sms));
    }
}

#[cfg(test)]
mod icc_tests {
    use super::*;
    use crate::reach;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    /// IccTA-style data flow: location → intent extra → started service →
    /// getStringExtra → Log.
    #[test]
    fn taint_flows_through_intent_extras() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        manifest.add_component(ComponentKind::Service, "com.x.Uploader", false);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.new_instance(2, "android.content.Intent");
                    m.const_string(3, "com.x.Uploader");
                    m.invoke_virtual("android.content.Intent", "setClass", &[2, 0, 3], None);
                    m.const_string(4, "lat");
                    m.invoke_virtual("android.content.Intent", "putExtra", &[2, 4, 1], None);
                    m.invoke_virtual("android.app.Activity", "startService", &[0, 2], None);
                });
            })
            .class("com.x.Uploader", |c| {
                c.extends("android.app.Service");
                c.method("onStartCommand", 3, |m| {
                    m.const_string(4, "lat");
                    m.invoke_virtual("android.content.Intent", "getStringExtra", &[1, 4], Some(5));
                    m.invoke_static("android.util.Log", "i", &[5], None);
                });
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        let leaks = analyze(&apg, &methods);
        assert!(
            leaks
                .iter()
                .any(|l| l.info == PrivateInfo::Location && l.at_method.contains("Uploader")),
            "leaks: {leaks:?}"
        );
    }

    /// Extras put for one component do not leak into another.
    #[test]
    fn icc_taint_is_per_target() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        manifest.add_component(ComponentKind::Service, "com.x.Other", false);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.new_instance(2, "android.content.Intent");
                    m.const_string(3, "com.x.Target");
                    m.invoke_virtual("android.content.Intent", "setClass", &[2, 0, 3], None);
                    m.invoke_virtual("android.content.Intent", "putExtra", &[2, 4, 1], None);
                    m.invoke_virtual("com.x.Other", "onStartCommand", &[0], None);
                });
            })
            .class("com.x.Other", |c| {
                c.extends("android.app.Service");
                c.method("onStartCommand", 3, |m| {
                    m.invoke_virtual("android.content.Intent", "getStringExtra", &[1, 4], Some(5));
                    m.invoke_static("android.util.Log", "i", &[5], None);
                });
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        let leaks = analyze(&apg, &methods);
        assert!(leaks.is_empty(), "extras for com.x.Target must not reach com.x.Other");
    }
}
