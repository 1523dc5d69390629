//! # ppchecker-store
//!
//! The persistent, content-addressed artifact store behind incremental
//! re-analysis.
//!
//! The full problem report of one app is a pure function of its input
//! bytes and the checker configuration. This crate persists reports on
//! disk keyed by the content hash of those inputs, so a re-run over an
//! updated corpus only pays for what actually changed: unchanged apps
//! replay their stored report.
//!
//! The store is deliberately dependency-free (std only) and sits at the
//! bottom of the workspace graph: `ppchecker-policy` and
//! `ppchecker-core` encode policy analyses and reports through [`wire`],
//! and `ppchecker-engine` moves report bytes through a [`Store`].
//!
//! ## On-disk format
//!
//! ```text
//! <root>/
//!   ppstore.index            # advisory: format version + per-kind counts
//!   tmp/                     # in-flight writes (unique names, renamed in)
//!   objects/<kind>/<shard>/<key>.rec
//! ```
//!
//! `<kind>` is one directory per [`RecordKind`], `<shard>` the low byte
//! of the key in hex (256-way fan-out so no directory grows unbounded),
//! `<key>` the full 16-hex-digit content hash. Each record carries a
//! versioned header and a payload checksum; *any* defect — truncation, a
//! bad magic, a stale version, a checksum mismatch, a half-written tmp
//! file left by a killed process — makes the load report a miss so the
//! caller recomputes and overwrites. Corruption can cost time, never
//! correctness.
//!
//! Writes go to `tmp/` under a unique name and `rename(2)` into place,
//! so concurrent writers and crashes leave either the old record, the
//! new record, or garbage in `tmp/` — never a torn record at the final
//! path.

#![forbid(unsafe_code)]

pub mod store;
pub mod wire;

pub use store::{RecordKind, Store, StoreStats};
pub use wire::{WireError, WireReader, WireWriter};

/// The canonical content hash for store keys: FNV-1a folded over 8-byte
/// little-endian chunks with a length prefix, identical across runs and
/// platforms. Callers hash each input (policy HTML, description,
/// manifest text) with this and combine with [`combine_hashes`].
pub fn content_hash(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(PRIME);
    };
    word(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        word(u64::from_le_bytes(buf));
    }
    h ^ (h >> 32)
}

/// Combines several content hashes into one composite key (order
/// matters: `combine_hashes(&[a, b]) != combine_hashes(&[b, a])`).
pub fn combine_hashes(parts: &[u64]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &part in parts {
        h ^= part;
        h = h.wrapping_mul(PRIME);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_length_aware() {
        assert_eq!(content_hash(b"hello"), content_hash(b"hello"));
        assert_ne!(content_hash(b"hello"), content_hash(b"hello\0"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = content_hash(b"a");
        let b = content_hash(b"b");
        assert_ne!(combine_hashes(&[a, b]), combine_hashes(&[b, a]));
        assert_eq!(combine_hashes(&[a, b]), combine_hashes(&[a, b]));
        assert_ne!(combine_hashes(&[a]), combine_hashes(&[a, 0]));
    }
}
