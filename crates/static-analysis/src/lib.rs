//! # ppchecker-static
//!
//! The static analysis module of the PPChecker reproduction: builds an
//! Android property graph (APG) from a (simulated) APK, discovers entry
//! points, runs reachability, resolves content-provider URIs, performs
//! interprocedural taint analysis, and reports the information an app
//! collects (`Collect_code`) and retains (`Retain_code`), plus the
//! third-party libraries it embeds.
//!
//! Substitutes, each implemented from scratch:
//! - ValHunter-style APG as dense method ids over the dex, with a CSR
//!   callee table ([`apg`])
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
mod kernel;
pub mod libs;
pub mod reach;
pub mod sensitive;
pub mod sinks;
pub mod taint;
pub mod uris;

pub use analysis::{analyze, analyze_with, AnalysisOptions, Callsite, StaticReport};
pub use apg::Apg;
pub use libs::{detect_libs, KnownLib, LibKind, KNOWN_LIBS};
pub use sinks::SinkKind;
pub use taint::Leak;

/// splitmix64: seed-deterministic test inputs without a rand dependency.
#[cfg(test)]
pub(crate) struct Rng(pub(crate) u64);

#[cfg(test)]
impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
