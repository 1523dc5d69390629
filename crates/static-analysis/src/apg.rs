//! The Android property graph (APG), in dense form.
//!
//! The paper builds its APG with ValHunter and asks it two questions,
//! `Collect_code` and `Retain_code` (§III-C). Both read only the method
//! layer: the method bodies, the methods each one may call, and where
//! the app is entered. So the APG is the dex plus three derived tables:
//!
//! * one dense `u32` id per distinct `(class, method)`, in declaration
//!   order. When a dex declares a pair twice, the first declaration wins
//!   and later bodies are never read;
//! * the callee table in compressed-sparse-row (CSR) form: call edges
//!   resolved by class-hierarchy analysis (CHA), implicit callback edges
//!   (the EdgeMiner substitute, [`crate::callbacks`]) and inter-component
//!   intent edges (the IccTA substitute);
//! * the lifecycle entry methods of the manifest's components.
//!
//! Reachability ([`crate::reach`]), the `Collect_code` scan
//! ([`crate::analysis`]) and both taint engines ([`crate::taint`]) index
//! their per-method state by id.

use crate::callbacks;
use ppchecker_apk::{Apk, Class, ComponentKind, Dex, Insn, Method, MethodRef, ParseDexError, Reg};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Superclass links CHA follows from a class.
const MAX_ANCESTORS: usize = 32;

/// Lifecycle entry methods per component kind.
pub fn lifecycle_methods(kind: ComponentKind) -> &'static [&'static str] {
    match kind {
        ComponentKind::Activity => {
            &["onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy", "onRestart"]
        }
        ComponentKind::Service => &["onCreate", "onStartCommand", "onBind", "onDestroy"],
        ComponentKind::Receiver => &["onReceive"],
        ComponentKind::Provider => &["onCreate", "query", "insert", "update", "delete"],
    }
}

/// The APG of one app: its dex, the method ids and the callee table.
#[derive(Debug)]
pub struct Apg<'a> {
    /// Borrowed when the APK ships a plain dex, unpacked once otherwise.
    dex: Cow<'a, Dex>,
    /// id → the body's position in the dex.
    refs: Vec<MethodRef>,
    /// `(hash of (class, method), id)` for every id, sorted: the name
    /// index. The hasher is keyed per APG, so app-chosen names cannot
    /// be crafted to collide.
    by_name: Vec<(u64, u32)>,
    hasher: RandomState,
    /// CSR row offsets (`method_count + 1` entries) into `callee_ids`.
    callee_rows: Vec<u32>,
    /// Callee ids; each row is sorted and deduplicated.
    callee_ids: Vec<u32>,
    /// Lifecycle entry methods of the manifest's components.
    lifecycle: Vec<u32>,
}

impl<'a> Apg<'a> {
    /// Builds the APG for an APK, unpacking the dex first if needed.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDexError`] if a packed dex cannot be recovered.
    pub fn build(apk: &'a Apk) -> Result<Apg<'a>, ParseDexError> {
        let dex = match apk.plain_dex() {
            Some(dex) => Cow::Borrowed(dex),
            None => Cow::Owned(apk.dex()?),
        };
        let hasher = RandomState::new();
        let (refs, by_name) = index_methods(&dex, &hasher);
        let mut apg = Apg {
            dex,
            refs,
            by_name,
            hasher,
            callee_rows: Vec::new(),
            callee_ids: Vec::new(),
            lifecycle: Vec::new(),
        };
        apg.lifecycle = apk
            .manifest
            .components
            .iter()
            .flat_map(|comp| lifecycle_methods(comp.kind).iter().map(move |&e| (comp, e)))
            .filter_map(|(comp, entry)| apg.lookup_ix(&comp.class_name, entry))
            .collect();
        (apg.callee_rows, apg.callee_ids) = callee_csr(&apg);
        Ok(apg)
    }

    /// The dex the APG was built from.
    pub fn dex(&self) -> &Dex {
        &self.dex
    }

    /// Number of method ids.
    pub fn method_count(&self) -> usize {
        self.refs.len()
    }

    /// The class and body of a method id.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn method_def(&self, ix: u32) -> (&Class, &Method) {
        self.dex.method_at(self.refs[ix as usize])
    }

    /// The callee ids of `ix` over call, implicit callback and intent
    /// edges (sorted, deduplicated).
    pub fn callees(&self, ix: u32) -> &[u32] {
        let (lo, hi) = (self.callee_rows[ix as usize], self.callee_rows[ix as usize + 1]);
        &self.callee_ids[lo as usize..hi as usize]
    }

    /// The id of `(class, method)`, by hash over the name index.
    pub fn lookup_ix(&self, class: &str, method: &str) -> Option<u32> {
        let key = self.hasher.hash_one((class, method));
        let at = self.by_name.partition_point(|&(k, _)| k < key);
        self.by_name[at..].iter().take_while(|&&(k, _)| k == key).map(|&(_, ix)| ix).find(|&ix| {
            let (c, m) = self.method_def(ix);
            c.name == class && m.name == method
        })
    }

    /// The lifecycle entry methods of the manifest's components, in
    /// manifest order.
    pub fn lifecycle_entries(&self) -> &[u32] {
        &self.lifecycle
    }
}

/// Numbers the distinct `(class, method)` pairs in declaration order, the
/// first declaration of a pair winning. Returns the id → body table and
/// the name index.
fn index_methods(dex: &Dex, hasher: &RandomState) -> (Vec<MethodRef>, Vec<(u64, u32)>) {
    let all = dex.method_refs();
    let name = |pos: u32| {
        let (class, method) = dex.method_at(all[pos as usize]);
        (class.name.as_str(), method.name.as_str())
    };
    // Declaration positions by (hash, name, position): the first
    // declaration of a pair comes first, and `dedup_by` keeps it.
    let mut by_name: Vec<(u64, u32)> =
        (0..all.len() as u32).map(|pos| (hasher.hash_one(name(pos)), pos)).collect();
    by_name.sort_unstable_by(|&(ka, a), &(kb, b)| (ka, name(a), a).cmp(&(kb, name(b), b)));
    by_name.dedup_by(|later, first| later.0 == first.0 && name(later.1) == name(first.1));
    // Mark the survivors, then number them in declaration order.
    let mut id_of = vec![u32::MAX; all.len()];
    for &(_, pos) in &by_name {
        id_of[pos as usize] = 0;
    }
    let mut refs = Vec::with_capacity(by_name.len());
    for (pos, &r) in all.iter().enumerate() {
        if id_of[pos] != u32::MAX {
            id_of[pos] = refs.len() as u32;
            refs.push(r);
        }
    }
    for entry in &mut by_name {
        entry.1 = id_of[entry.1 as usize];
    }
    (refs, by_name)
}

/// The callee table: per id, the sorted distinct callees.
fn callee_csr(apg: &Apg) -> (Vec<u32>, Vec<u32>) {
    let overriders = overriders(apg);
    let mut rows = Vec::with_capacity(apg.method_count() + 1);
    rows.push(0);
    let mut ids = Vec::new();
    let mut row = Vec::new();
    for ix in 0..apg.method_count() as u32 {
        row.clear();
        let (class, method) = apg.method_def(ix);
        push_callees(apg, &overriders, class, method, &mut row);
        row.sort_unstable();
        row.dedup();
        ids.extend_from_slice(&row);
        rows.push(ids.len() as u32);
    }
    (rows, ids)
}

/// CHA's index: `(ancestor, method name, id)` for every method whose
/// class has `ancestor` among its first [`MAX_ANCESTORS`] superclass
/// links, sorted and deduplicated. Each link is read from the first
/// declaration of the class, as [`Dex::class`] resolves it.
fn overriders<'d>(apg: &'d Apg) -> Vec<(&'d str, &'d str, u32)> {
    // Class names come from the app: keep the default, collision-resistant hasher.
    let mut first: HashMap<&str, &Class> = HashMap::new();
    for class in &apg.dex.classes {
        first.entry(class.name.as_str()).or_insert(class);
    }
    let mut out = Vec::new();
    for ix in 0..apg.method_count() as u32 {
        let (class, method) = apg.method_def(ix);
        let mut cur = class.name.as_str();
        for _ in 0..MAX_ANCESTORS {
            let Some(c) = first.get(cur) else { break };
            cur = c.superclass.as_str();
            out.push((cur, method.name.as_str(), ix));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Pushes the callees of one body, in any order and with repeats.
fn push_callees(
    apg: &Apg,
    overriders: &[(&str, &str, u32)],
    class: &Class,
    method: &Method,
    out: &mut Vec<u32>,
) {
    const LAUNCHERS: &[(&str, &[&str])] = &[
        ("startActivity", &["onCreate"]),
        ("startService", &["onCreate", "onStartCommand"]),
        ("sendBroadcast", &["onReceive"]),
    ];
    // Register → last string constant, and intent register → target
    // class, as the body's instructions set them up to this point.
    let mut strings: HashMap<Reg, &str> = HashMap::new();
    let mut intents: HashMap<Reg, &str> = HashMap::new();
    for (idx, insn) in method.instructions.iter().enumerate() {
        let (cc, mm, args) = match insn {
            Insn::ConstString { dst, value } => {
                strings.insert(*dst, value);
                continue;
            }
            Insn::Invoke { class: cc, method: mm, args, .. } => (cc.as_str(), mm.as_str(), args),
            _ => continue,
        };
        // Call edges: the named method, plus every override in a class
        // whose superclass links reach the named class.
        out.extend(apg.lookup_ix(cc, mm));
        let lo = overriders.partition_point(|&(a, m, _)| (a, m) < (cc, mm));
        out.extend(
            overriders[lo..].iter().take_while(|&&(a, m, _)| (a, m) == (cc, mm)).map(|o| o.2),
        );
        // Implicit callbacks: the listener instantiated into an argument
        // register, or the registering class itself ("this" receivers).
        if let Some(callback) = callbacks::callback_for(cc, mm) {
            for &arg in args {
                if let Some(listener) = last_new_instance(&method.instructions[..idx], arg) {
                    out.extend(apg.lookup_ix(listener, callback));
                }
            }
            out.extend(apg.lookup_ix(&class.name, callback));
        }
        // Intent edges: `setClass`-style calls name an intent's target;
        // launching the intent enters the target's lifecycle methods.
        if cc == "android.content.Intent"
            && matches!(mm, "setClass" | "setClassName" | "setComponent")
        {
            if let (Some(&intent), Some(&target)) =
                (args.first(), args.iter().skip(1).find_map(|r| strings.get(r)))
            {
                intents.insert(intent, target);
            }
        } else if let Some((_, entries)) = LAUNCHERS.iter().find(|(name, _)| *name == mm) {
            for target in args.iter().skip(1).filter_map(|r| intents.get(r)) {
                out.extend(entries.iter().filter_map(|entry| apg.lookup_ix(target, entry)));
            }
        }
    }
}

/// Finds the class most recently `new-instance`d into `reg` (also follows
/// simple `move` chains), scanning backwards.
fn last_new_instance(insns: &[Insn], reg: Reg) -> Option<&str> {
    let mut wanted = reg;
    for insn in insns.iter().rev() {
        match insn {
            Insn::NewInstance { dst, class } if *dst == wanted => return Some(class),
            Insn::Move { dst, src } if *dst == wanted => wanted = *src,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};
    use std::collections::BTreeSet;

    fn sample_apk() -> Apk {
        let mut manifest = Manifest::new("com.example.app");
        manifest.add_component(ComponentKind::Activity, "com.example.app.Main", true);
        let dex = Dex::builder()
            .class("com.example.app.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.new_instance(2, "com.example.app.Listener");
                    m.invoke_virtual("android.view.View", "setOnClickListener", &[1, 2], None);
                    m.invoke_virtual("com.example.app.Helper", "load", &[0], None);
                });
            })
            .class("com.example.app.Listener", |c| {
                c.implements("android.view.View$OnClickListener");
                c.method("onClick", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(3));
                });
            })
            .class("com.example.app.Helper", |c| {
                c.method("load", 1, |_| {});
            })
            .build();
        Apk::new(manifest, dex)
    }

    fn id(apg: &Apg, class: &str, method: &str) -> u32 {
        apg.lookup_ix(class, method).unwrap_or_else(|| panic!("{class}.{method} has no id"))
    }

    #[test]
    fn ids_follow_declaration_order_and_round_trip_by_name() {
        let apk = sample_apk();
        let apg = Apg::build(&apk).unwrap();
        assert_eq!(apg.method_count(), 3);
        for ix in 0..apg.method_count() as u32 {
            let (class, m) = apg.method_def(ix);
            assert_eq!(apg.lookup_ix(&class.name, &m.name), Some(ix));
        }
        assert_eq!(id(&apg, "com.example.app.Helper", "load"), 2);
        assert_eq!(apg.lookup_ix("com.example.app.Main", "missing"), None);
        assert_eq!(apg.lookup_ix("com.example.app.Missing", "onCreate"), None);
    }

    #[test]
    fn call_and_callback_edges() {
        let apk = sample_apk();
        let apg = Apg::build(&apk).unwrap();
        let caller = id(&apg, "com.example.app.Main", "onCreate");
        let helper = id(&apg, "com.example.app.Helper", "load");
        let listener = id(&apg, "com.example.app.Listener", "onClick");
        assert_eq!(apg.callees(caller), [listener, helper]);
        assert!(apg.callees(listener).is_empty());
    }

    #[test]
    fn lifecycle_entries_come_from_the_manifest() {
        let apk = sample_apk();
        let apg = Apg::build(&apk).unwrap();
        assert_eq!(apg.lifecycle_entries(), [id(&apg, "com.example.app.Main", "onCreate")]);
    }

    #[test]
    fn packed_dex_is_unpacked_once_and_plain_dex_is_borrowed() {
        let plain = sample_apk();
        let packed = Apk::new_packed(plain.manifest.clone(), plain.plain_dex().unwrap(), 0x5C);
        let a = Apg::build(&plain).unwrap();
        let b = Apg::build(&packed).unwrap();
        assert!(std::ptr::eq(a.dex(), plain.plain_dex().unwrap()));
        assert_eq!(a.dex(), b.dex());
        for ix in 0..a.method_count() as u32 {
            assert_eq!(a.callees(ix), b.callees(ix));
        }
    }

    #[test]
    fn icc_edge_to_started_service() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        manifest.add_component(ComponentKind::Service, "com.x.Sync", false);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.new_instance(1, "android.content.Intent");
                    m.const_string(2, "com.x.Sync");
                    m.invoke_virtual("android.content.Intent", "setClass", &[1, 0, 2], None);
                    m.invoke_virtual("android.app.Activity", "startService", &[0, 1], None);
                });
            })
            .class("com.x.Sync", |c| {
                c.extends("android.app.Service");
                c.method("onStartCommand", 3, |_| {});
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        let caller = id(&apg, "com.x.Main", "onCreate");
        assert_eq!(apg.callees(caller), [id(&apg, "com.x.Sync", "onStartCommand")]);
    }

    #[test]
    fn virtual_dispatch_resolves_subclass_override() {
        let dex = Dex::builder()
            .class("com.x.Base", |c| {
                c.method("work", 1, |_| {});
            })
            .class("com.x.Derived", |c| {
                c.extends("com.x.Base");
                c.method("work", 1, |_| {});
            })
            .class("com.x.Caller", |c| {
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.Base", "work", &[0], None);
                });
            })
            .build();
        let apk = Apk::new(Manifest::new("com.x"), dex);
        let apg = Apg::build(&apk).unwrap();
        let caller = id(&apg, "com.x.Caller", "go");
        assert_eq!(
            apg.callees(caller),
            [id(&apg, "com.x.Base", "work"), id(&apg, "com.x.Derived", "work")]
        );
    }

    #[test]
    fn first_declaration_of_a_pair_wins() {
        // com.x.Main is declared twice and `go` three times. The first
        // `go` body owns the id; the later ones are never read. A pair
        // only the second declaration carries still gets its own id, and
        // the superclass comes from the first declaration.
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.extends("com.x.Base");
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.A", "first", &[0], None);
                });
                c.method("go", 1, |_| {});
            })
            .class("com.x.Main", |c| {
                c.extends("com.x.Other");
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.A", "second", &[0], None);
                });
                c.method("extra", 1, |_| {});
            })
            .class("com.x.A", |c| {
                c.method("first", 1, |m| {
                    m.invoke_virtual("com.x.Base", "extra", &[0], None);
                    m.invoke_virtual("com.x.Other", "extra", &[0], None);
                });
                c.method("second", 1, |_| {});
            })
            .build();
        let apk = Apk::new(Manifest::new("com.x"), dex);
        let apg = Apg::build(&apk).unwrap();
        assert_eq!(apg.method_count(), 4);
        let go = id(&apg, "com.x.Main", "go");
        let extra = id(&apg, "com.x.Main", "extra");
        let first = id(&apg, "com.x.A", "first");
        assert_eq!((go, extra, first), (0, 1, 2));
        assert!(std::ptr::eq(apg.method_def(go).1, &apg.dex().classes[0].methods[0]));
        assert_eq!(apg.callees(go), [first]);
        // CHA: Main extends Base (first declaration), not Other.
        assert_eq!(apg.callees(first), [extra]);
    }

    /// Today's CHA resolution, name by name: the named method, plus the
    /// method of every other class whose superclass chain (at most 32
    /// links, each read through `Dex::class`) reaches the named class.
    fn brute_force_targets(dex: &Dex, class: &str, method: &str) -> BTreeSet<(String, String)> {
        let chain_reaches = |start: &str| {
            let mut cur = start.to_string();
            for _ in 0..32 {
                let Some(c) = dex.class(&cur) else { return false };
                if c.superclass == class {
                    return true;
                }
                cur = c.superclass.clone();
            }
            false
        };
        let mut out = BTreeSet::new();
        if dex.classes.iter().any(|c| c.name == class && c.method(method).is_some()) {
            out.insert((class.to_string(), method.to_string()));
        }
        for c in &dex.classes {
            if c.name != class && chain_reaches(&c.name) && c.method(method).is_some() {
                out.insert((c.name.clone(), method.to_string()));
            }
        }
        out
    }

    /// Up to 40 classes under random superclass links: self-links and
    /// cycles, absent framework superclasses, or one chain of 40 (deeper
    /// than CHA's 32 links). Some classes are declared twice, some
    /// `(class, method)` pairs more than once.
    fn random_hierarchy(rng: &mut Rng) -> Dex {
        const METHODS: [&str; 3] = ["a", "b", "c"];
        let chain = rng.below(3) == 0;
        let n = if chain { 40 } else { 2 + rng.below(39) as usize };
        let name = |i: usize| {
            if i < n {
                format!("com.h.C{i}")
            } else {
                "android.app.Activity".to_string()
            }
        };
        let mut builder = Dex::builder();
        for decl in 0..n + n / 4 {
            let i = if decl < n { decl } else { rng.below(n as u64) as usize };
            let superclass = match (chain, i) {
                (true, 0) => "java.lang.Object".to_string(),
                (true, _) => name(i - 1),
                (false, _) => name(rng.below(n as u64 + 2) as usize),
            };
            builder = builder.class(&name(i), |c| {
                c.extends(&superclass);
                for _ in 0..rng.below(4) {
                    let m = METHODS[rng.below(3) as usize];
                    c.method(m, 1, |body| {
                        for _ in 0..rng.below(4) {
                            let target = name(rng.below(n as u64 + 1) as usize);
                            body.invoke_virtual(
                                &target,
                                METHODS[rng.below(3) as usize],
                                &[0],
                                None,
                            );
                        }
                    });
                }
            });
        }
        builder.build()
    }

    #[test]
    fn cha_targets_match_brute_force() {
        for seed in 0..300 {
            let apk = Apk::new(Manifest::new("com.h"), random_hierarchy(&mut Rng(seed)));
            let apg = Apg::build(&apk).unwrap();
            for ix in 0..apg.method_count() as u32 {
                let (_, body) = apg.method_def(ix);
                let mut expected = BTreeSet::new();
                for insn in &body.instructions {
                    if let Insn::Invoke { class, method, .. } = insn {
                        expected.extend(brute_force_targets(apg.dex(), class, method));
                    }
                }
                let actual: BTreeSet<(String, String)> = apg
                    .callees(ix)
                    .iter()
                    .map(|&t| {
                        let (c, m) = apg.method_def(t);
                        (c.name.clone(), m.name.clone())
                    })
                    .collect();
                assert_eq!(actual, expected, "seed {seed}, method {ix}");
            }
        }
    }

    #[test]
    fn deep_hierarchy_builds_in_linear_time() {
        // C{i} extends C{i-1}; C{i}.run invokes C{i+1}.run, which CHA
        // resolves to C{i+1} and the 32 subclasses below it.
        const N: usize = 4000;
        let mut builder = Dex::builder();
        for i in 0..N {
            let superclass = if i == 0 {
                "java.lang.Object".to_string()
            } else {
                format!("com.deep.C{}", i - 1)
            };
            builder = builder.class(&format!("com.deep.C{i}"), |c| {
                c.extends(&superclass);
                c.method("run", 1, |m| {
                    m.invoke_virtual(&format!("com.deep.C{}", (i + 1) % N), "run", &[0], None);
                });
            });
        }
        let apk = Apk::new(Manifest::new("com.deep"), builder.build());
        let started = std::time::Instant::now();
        let apg = Apg::build(&apk).unwrap();
        let took = started.elapsed();
        for i in 0..N as u32 {
            let target = (i + 1) % N as u32;
            let expected: Vec<u32> = (target..=(target + 32).min(N as u32 - 1)).collect();
            assert_eq!(apg.callees(i), expected, "class {i}");
        }
        assert!(took.as_secs_f64() < 2.0, "Apg::build took {took:?} on a {N}-class chain");
    }
}
