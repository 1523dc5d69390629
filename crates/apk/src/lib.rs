//! # ppchecker-apk
//!
//! A simulated Android APK substrate for the PPChecker reproduction: the
//! `AndroidManifest.xml` model ([`manifest`]), a register-based dex-like
//! intermediate representation ([`dex`]) with a fluent builder, and a
//! packer/unpacker ([`packer`]) standing in for DexHunter.
//!
//! The paper analyzes real APKs; this crate provides an equivalent input
//! format that the static-analysis module consumes, expressive enough for
//! every phenomenon the paper's analysis observes (sensitive API calls,
//! content-provider URIs, implicit callbacks, taint flows, packed dex).
//!
//! # Examples
//!
//! ```
//! use ppchecker_apk::{Apk, Dex, Manifest, Permission, ComponentKind};
//!
//! let mut manifest = Manifest::new("com.example.weather");
//! manifest.add_permission(Permission::AccessFineLocation);
//! manifest.add_component(ComponentKind::Activity, "com.example.weather.Main", true);
//!
//! let dex = Dex::builder()
//!     .class("com.example.weather.Main", |c| {
//!         c.extends("android.app.Activity");
//!         c.method("onCreate", 1, |m| {
//!             m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
//!         });
//!     })
//!     .build();
//!
//! let apk = Apk::new(manifest, dex);
//! assert_eq!(apk.manifest.package, "com.example.weather");
//! ```

#![forbid(unsafe_code)]

pub mod apk;
pub mod dex;
pub mod hash;
pub mod info;
pub mod manifest;
pub mod packer;

pub use apk::{Apk, Payload};
pub use dex::{
    stable_hash_classes, Class, Dex, DexBuilder, Insn, InvokeKind, Method, MethodBuilder,
    MethodRef, Reg,
};
pub use hash::{FnvBuild, FnvHasher, FnvMap, FnvSet};
pub use info::PrivateInfo;
pub use manifest::{Component, ComponentKind, Manifest, ParseManifestError, Permission};
pub use packer::ParseDexError;
