//! Entry-point discovery and reachability analysis.
//!
//! The paper conducts "reachability analysis from the app's entry points,
//! including life-cycle callbacks (e.g., `Activity.onCreate()`), major
//! components' entry functions (e.g., `query()` in content provider), and
//! UI related callbacks (e.g., `onClick()`)" and ignores sensitive APIs
//! with no feasible path from an entry point (dead code).
//!
//! Both work on the APG's dense method ids; a method set is a `Vec<bool>`
//! indexed by id.

use crate::apg::Apg;
use crate::callbacks::UI_CALLBACKS;

/// The entry-point method ids of an APG, ascending.
///
/// Entry points: the lifecycle methods of manifest components, and UI
/// callbacks in any application class (handlers wired from XML layouts).
/// Lifecycle-named methods of classes the manifest does not declare are
/// not entries: the paper starts only from declared components.
pub fn entry_points(apg: &Apg) -> Vec<u32> {
    let mut entries = apg.lifecycle_entries().to_vec();
    entries.extend(
        (0..apg.method_count() as u32)
            .filter(|&ix| UI_CALLBACKS.contains(&apg.method_def(ix).1.name.as_str())),
    );
    entries.sort_unstable();
    entries.dedup();
    entries
}

/// The methods reachable from the entry points over call,
/// implicit-callback and intent edges, as a set indexed by method id.
pub fn reachable_methods(apg: &Apg) -> Vec<bool> {
    let mut reached = vec![false; apg.method_count()];
    let mut stack = entry_points(apg);
    for &ix in &stack {
        reached[ix as usize] = true;
    }
    while let Some(ix) = stack.pop() {
        for &next in apg.callees(ix) {
            if !reached[next as usize] {
                reached[next as usize] = true;
                stack.push(next);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apg::Apg;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    fn apk_with_dead_code() -> Apk {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.x.Main", "live", &[0], None);
                });
                c.method("live", 1, |_| {});
                c.method("dead", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                });
            })
            .build();
        Apk::new(manifest, dex)
    }

    fn reached(apg: &Apg, class: &str, method: &str) -> bool {
        reachable_methods(apg)[apg.lookup_ix(class, method).unwrap() as usize]
    }

    #[test]
    fn entry_points_include_lifecycle() {
        let apk = apk_with_dead_code();
        let apg = Apg::build(&apk).unwrap();
        assert_eq!(entry_points(&apg), [apg.lookup_ix("com.x.Main", "onCreate").unwrap()]);
    }

    #[test]
    fn dead_method_is_unreachable() {
        let apk = apk_with_dead_code();
        let apg = Apg::build(&apk).unwrap();
        assert!(reached(&apg, "com.x.Main", "live"));
        assert!(!reached(&apg, "com.x.Main", "dead"));
    }

    #[test]
    fn ui_callbacks_are_entries() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |_| {});
            })
            .class("com.x.ClickHandler", |c| {
                c.method("onClick", 1, |m| {
                    m.invoke_virtual("com.x.Worker", "go", &[0], None);
                });
            })
            .class("com.x.Worker", |c| {
                c.method("go", 1, |_| {});
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        assert!(reached(&apg, "com.x.Worker", "go"));
    }

    #[test]
    fn reachability_through_implicit_callback() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.new_instance(2, "com.x.Task");
                    m.invoke_virtual("java.lang.Thread", "start", &[2], None);
                });
            })
            .class("com.x.Task", |c| {
                c.implements("java.lang.Runnable");
                c.method("run", 1, |m| {
                    m.invoke_virtual("com.x.Deep", "fetch", &[0], None);
                });
            })
            .class("com.x.Deep", |c| {
                c.method("fetch", 1, |_| {});
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        assert!(reached(&apg, "com.x.Deep", "fetch"));
    }

    #[test]
    fn every_ui_callback_is_an_entry() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let mut builder = Dex::builder().class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |_| {});
        });
        for i in 0..24 {
            builder = builder.class(&format!("com.x.Handler{i}"), |c| {
                c.method("onClick", 1, |_| {});
                c.method("onTouch", 1, |_| {});
                c.method("helper", 1, |_| {});
            });
        }
        let apk = Apk::new(manifest, builder.build());
        let apg = Apg::build(&apk).unwrap();
        let entries = entry_points(&apg);
        assert_eq!(entries.len(), 49);
        assert!(entries.iter().all(|&ix| apg.method_def(ix).1.name != "helper"));
    }
}
