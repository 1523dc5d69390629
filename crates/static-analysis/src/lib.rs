//! # ppchecker-static
//!
//! The static analysis module of the PPChecker reproduction: builds an
//! Android property graph from a (simulated) APK, discovers entry points,
//! runs reachability, resolves content-provider URIs, performs
//! interprocedural taint analysis, and reports the information an app
//! collects (`Collect_code`) and retains (`Retain_code`), plus the
//! third-party libraries it embeds.
//!
//! Substitutes, each implemented from scratch:
//! - ValHunter-style APG over a property-graph store ([`graph`], [`apg`])
//! - FlowDroid-style taint analysis ([`taint`], [`sinks`])
//! - EdgeMiner-style implicit callbacks ([`callbacks`])
//! - IccTA-style intent edges (in [`apg`])
//! - PScout-style URI tables ([`uris`]) and the 68-API table ([`sensitive`])
//!
//! # Examples
//!
//! ```
//! use ppchecker_apk::{Apk, Dex, Manifest, ComponentKind, PrivateInfo};
//! use ppchecker_static::analyze;
//!
//! let mut manifest = Manifest::new("com.example.app");
//! manifest.add_component(ComponentKind::Activity, "com.example.app.Main", true);
//! let dex = Dex::builder()
//!     .class("com.example.app.Main", |c| {
//!         c.method("onCreate", 1, |m| {
//!             m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
//!         });
//!     })
//!     .build();
//! let report = analyze(&Apk::new(manifest, dex))?;
//! assert!(report.collect_code().contains(&PrivateInfo::Location));
//! # Ok::<(), ppchecker_apk::ParseDexError>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod apg;
pub mod callbacks;
pub mod consts;
pub mod graph;
mod kernel;
pub mod libs;
pub mod reach;
pub mod sensitive;
pub mod sinks;
pub mod summary;
pub mod taint;
pub mod uris;

pub use analysis::{
    analyze, analyze_with, analyze_with_cache, AnalysisOptions, Callsite, StaticReport,
};
pub use apg::Apg;
pub use libs::{detect_libs, KnownLib, LibKind, KNOWN_LIBS};
pub use sinks::SinkKind;
pub use summary::TaintSummaryCache;
pub use taint::Leak;
