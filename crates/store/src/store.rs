//! The on-disk store: sharded, versioned, atomic, corruption-tolerant.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::content_hash;

/// Magic bytes opening every record file.
const MAGIC: &[u8; 4] = b"PPS1";

/// Store-wide format version, bumped only when the header layout changes.
const FORMAT_VERSION: u32 = 1;

/// The kinds of artifact the store holds. Each kind gets its own
/// directory and its own schema version, so evolving one codec never
/// invalidates the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A parsed policy (`PolicyAnalysis` encoding). The engine writes
    /// none: it analyzes policies through its in-memory sentence cache.
    Policy,
    /// A full per-app problem report, keyed by the combined hash of the
    /// app's inputs and the checker configuration.
    Report,
}

impl RecordKind {
    /// Every kind, for iteration in stats and index rendering.
    pub const ALL: [RecordKind; 2] = [RecordKind::Policy, RecordKind::Report];

    /// Directory name under `objects/`.
    pub fn dir(self) -> &'static str {
        match self {
            RecordKind::Policy => "policy",
            RecordKind::Report => "report",
        }
    }

    /// Per-kind payload schema version. Bump when the artifact's wire
    /// encoding changes; old records then read as misses and are
    /// overwritten on the next save.
    pub fn schema_version(self) -> u32 {
        match self {
            RecordKind::Policy => 1,
            RecordKind::Report => 1,
        }
    }

    fn index(self) -> usize {
        match self {
            RecordKind::Policy => 0,
            RecordKind::Report => 1,
        }
    }
}

/// Hit/miss/write/corrupt counters for one record kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that returned a valid payload.
    pub hits: u64,
    /// Loads that found nothing (or found corruption — also counted in
    /// `corrupt`).
    pub misses: u64,
    /// Records written (including overwrites).
    pub writes: u64,
    /// Loads that found a record but rejected it (bad magic, stale
    /// version, checksum mismatch, truncation).
    pub corrupt: u64,
}

impl StoreStats {
    /// Fraction of loads served from disk, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise difference, for before/after deltas in metrics.
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writes: self.writes - earlier.writes,
            corrupt: self.corrupt - earlier.corrupt,
        }
    }
}

#[derive(Debug, Default)]
struct KindCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
}

impl KindCounters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// The persistent artifact store. Cheap to clone behind an `Arc`; all
/// methods take `&self` and are safe to call from many threads (writes
/// are atomic via tmp+rename, counters are atomics).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    tmp_seq: AtomicU64,
    counters: [KindCounters; 2],
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns `io::Error` when the directory tree cannot be created —
    /// the only failure the store ever raises; everything after open
    /// degrades softly.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("tmp"))?;
        for kind in RecordKind::ALL {
            fs::create_dir_all(root.join("objects").join(kind.dir()))?;
        }
        let store = Store { root, tmp_seq: AtomicU64::new(0), counters: Default::default() };
        store.write_index();
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Counter snapshot for one kind.
    pub fn stats(&self, kind: RecordKind) -> StoreStats {
        self.counters[kind.index()].snapshot()
    }

    /// Number of records currently on disk for `kind` (walks the shard
    /// directories; used by the index file and tests, not hot paths).
    pub fn records_on_disk(&self, kind: RecordKind) -> usize {
        let dir = self.root.join("objects").join(kind.dir());
        let mut n = 0;
        let Ok(shards) = fs::read_dir(&dir) else {
            return 0;
        };
        for shard in shards.flatten() {
            if let Ok(entries) = fs::read_dir(shard.path()) {
                n += entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "rec"))
                    .count();
            }
        }
        n
    }

    /// Fetches the payload for `key`, or `None` on miss *or* corruption
    /// — the caller recomputes either way.
    pub fn load(&self, kind: RecordKind, key: u64) -> Option<Vec<u8>> {
        let counters = &self.counters[kind.index()];
        let path = self.record_path(kind, key);
        match fs::read(&path) {
            Ok(bytes) => match Store::decode_record(kind, key, &bytes) {
                Some(payload) => {
                    counters.hits.fetch_add(1, Ordering::Relaxed);
                    Some(payload)
                }
                None => {
                    counters.corrupt.fetch_add(1, Ordering::Relaxed);
                    counters.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Err(_) => {
                counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists the payload for `key`. Failures are swallowed: a store
    /// that cannot write degrades to a cache miss on the next run, it
    /// never fails the analysis.
    pub fn save(&self, kind: RecordKind, key: u64, payload: &[u8]) {
        let record = Store::encode_record(kind, key, payload);
        let tmp = self.tmp_path();
        let written = fs::File::create(&tmp).and_then(|mut f| f.write_all(&record)).is_ok();
        let final_path = self.record_path(kind, key);
        let renamed = written
            && final_path.parent().is_some_and(|shard| fs::create_dir_all(shard).is_ok())
            && fs::rename(&tmp, &final_path).is_ok();
        if renamed {
            self.counters[kind.index()].writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    fn record_path(&self, kind: RecordKind, key: u64) -> PathBuf {
        self.root
            .join("objects")
            .join(kind.dir())
            .join(format!("{:02x}", key & 0xff))
            .join(format!("{key:016x}.rec"))
    }

    /// Encodes the record file: magic, format version, kind schema
    /// version, key, payload length, payload checksum, payload.
    fn encode_record(kind: RecordKind, key: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + payload.len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.schema_version().to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&content_hash(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Validates a record file and returns its payload, or `None` on any
    /// defect.
    fn decode_record(kind: RecordKind, key: u64, bytes: &[u8]) -> Option<Vec<u8>> {
        const HEADER: usize = 4 + 4 + 4 + 8 + 8 + 8;
        if bytes.len() < HEADER || &bytes[..4] != MAGIC {
            return None;
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if u32_at(4) != FORMAT_VERSION || u32_at(8) != kind.schema_version() {
            return None;
        }
        if u64_at(12) != key {
            return None;
        }
        let len = u64_at(20) as usize;
        let payload = bytes.get(HEADER..)?;
        if payload.len() != len || content_hash(payload) != u64_at(28) {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Best-effort advisory index: format version plus per-kind record
    /// counts. Never read on the hot path; corruption here is harmless.
    fn write_index(&self) {
        let mut text = format!("ppstore format {FORMAT_VERSION}\n");
        for kind in RecordKind::ALL {
            text.push_str(&format!(
                "{} schema {} records {}\n",
                kind.dir(),
                kind.schema_version(),
                self.records_on_disk(kind)
            ));
        }
        let tmp = self.tmp_path();
        if fs::write(&tmp, text).is_ok()
            && fs::rename(&tmp, self.root.join("ppstore.index")).is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Refreshes the advisory index file (called by long-lived owners at
    /// shutdown; cheap enough to call after any batch).
    pub fn flush_index(&self) {
        self.write_index();
    }

    fn tmp_path(&self) -> PathBuf {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        self.root.join("tmp").join(format!("{}-{seq}.part", std::process::id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppstore-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_counters() {
        let root = scratch("roundtrip");
        let store = Store::open(&root).unwrap();
        assert_eq!(store.load(RecordKind::Policy, 42), None);
        store.save(RecordKind::Policy, 42, b"payload");
        assert_eq!(store.load(RecordKind::Policy, 42), Some(b"payload".to_vec()));
        // A fresh handle over the same directory sees the record.
        let reopened = Store::open(&root).unwrap();
        assert_eq!(reopened.load(RecordKind::Policy, 42), Some(b"payload".to_vec()));
        let stats = store.stats(RecordKind::Policy);
        assert_eq!((stats.hits, stats.misses, stats.writes, stats.corrupt), (1, 1, 1, 0));
        // Kinds are independent namespaces.
        assert_eq!(store.load(RecordKind::Report, 42), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_record_is_a_miss_and_overwritable() {
        let root = scratch("truncated");
        let store = Store::open(&root).unwrap();
        store.save(RecordKind::Report, 7, b"report bytes");
        let path = store.record_path(RecordKind::Report, 7);
        let full = fs::read(&path).unwrap();
        for cut in [0, 3, 12, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(store.load(RecordKind::Report, 7), None, "cut at {cut}");
        }
        // Recompute-and-overwrite restores service.
        store.save(RecordKind::Report, 7, b"report bytes");
        assert_eq!(store.load(RecordKind::Report, 7), Some(b"report bytes".to_vec()));
        assert!(store.stats(RecordKind::Report).corrupt >= 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_version_magic_and_checksum_rejected() {
        let root = scratch("versions");
        let store = Store::open(&root).unwrap();
        store.save(RecordKind::Report, 9, b"report");
        let path = store.record_path(RecordKind::Report, 9);
        let pristine = fs::read(&path).unwrap();

        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(store.load(RecordKind::Report, 9), None);

        let mut bad_version = pristine.clone();
        bad_version[4] = 0xEE; // format version
        fs::write(&path, &bad_version).unwrap();
        assert_eq!(store.load(RecordKind::Report, 9), None);

        let mut bad_schema = pristine.clone();
        bad_schema[8] = 0xEE; // kind schema version
        fs::write(&path, &bad_schema).unwrap();
        assert_eq!(store.load(RecordKind::Report, 9), None);

        let mut bad_payload = pristine.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0xFF; // checksum now mismatches
        fs::write(&path, &bad_payload).unwrap();
        assert_eq!(store.load(RecordKind::Report, 9), None);

        fs::write(&path, &pristine).unwrap();
        assert_eq!(store.load(RecordKind::Report, 9), Some(b"report".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_tmp_file_never_shadows_records() {
        let root = scratch("tmpfile");
        let store = Store::open(&root).unwrap();
        // Simulate a killed writer: garbage left in tmp/.
        fs::write(root.join("tmp").join("999-0.part"), b"half a record").unwrap();
        assert_eq!(store.load(RecordKind::Policy, 1), None);
        store.save(RecordKind::Policy, 1, b"fresh");
        assert_eq!(store.load(RecordKind::Policy, 1), Some(b"fresh".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_mismatch_rejected() {
        // A record copied to the wrong path (or a key collision bug)
        // must not serve the wrong payload.
        let root = scratch("keymismatch");
        let store = Store::open(&root).unwrap();
        store.save(RecordKind::Policy, 5, b"five");
        let five = store.record_path(RecordKind::Policy, 5);
        let six = store.record_path(RecordKind::Policy, 6);
        fs::create_dir_all(six.parent().unwrap()).unwrap();
        fs::copy(&five, &six).unwrap();
        assert_eq!(store.load(RecordKind::Policy, 6), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn index_file_reflects_record_counts() {
        let root = scratch("index");
        let store = Store::open(&root).unwrap();
        store.save(RecordKind::Policy, 1, b"a");
        store.save(RecordKind::Policy, 2, b"b");
        store.save(RecordKind::Report, 3, b"c");
        store.flush_index();
        let text = fs::read_to_string(root.join("ppstore.index")).unwrap();
        assert!(text.contains("policy schema 1 records 2"), "{text}");
        assert!(text.contains("report schema 1 records 1"), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_saves_and_loads_are_safe() {
        let root = scratch("concurrent");
        let store = std::sync::Arc::new(Store::open(&root).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let key = i % 4; // deliberate contention
                        store.save(RecordKind::Report, key, format!("v{t}").as_bytes());
                        if let Some(bytes) = store.load(RecordKind::Report, key) {
                            // Whatever wins the race must be a complete record.
                            assert!(bytes.starts_with(b"v"), "torn read: {bytes:?}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let _ = fs::remove_dir_all(&root);
    }
}
