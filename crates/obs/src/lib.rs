//! # ppchecker-obs
//!
//! Zero-dependency observability for the PPChecker pipeline: hierarchical
//! span tracing, lock-free log2 histograms, a Chrome `trace_event`-format
//! exporter, and [`Memo`], the counted cache map every cache of the
//! pipeline is built on (DESIGN.md §12).
//!
//! ## Model
//!
//! Two process-wide toggles gate everything, each one relaxed atomic load
//! on the hot path:
//!
//! - **metrics** ([`set_enabled`]): active [`span!`] guards time
//!   themselves and record their duration into a per-name [`Histogram`]
//!   in the static registry. Disabled, a span is a load + branch — no
//!   `Instant::now`, no allocation.
//! - **tracing** ([`set_tracing`]): active spans additionally emit
//!   balanced `B`/`E` [`TraceEvent`]s into per-thread sinks, drained at
//!   batch end into a Perfetto-loadable JSON file ([`trace::to_chrome_json`]).
//!
//! Spans nest through a thread-local stack, so the trace shows the full
//! hierarchy (`app.check` → `check.policy` → `nlp.depparse` …) and
//! [`span::depth`]/[`span::stack`] expose the current position.
//!
//! ## Examples
//!
//! ```
//! ppchecker_obs::set_enabled(true);
//! {
//!     let _guard = ppchecker_obs::span!("example.work");
//!     // ... the guarded stage ...
//! }
//! let snap = ppchecker_obs::histogram("example.work").snapshot();
//! assert_eq!(snap.count, 1);
//! assert!(snap.p99() >= snap.p50());
//! # ppchecker_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod memo;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS, STRIPES};
pub use memo::{CacheStats, Memo};
pub use span::SpanGuard;
pub use trace::{Phase, TraceCheck, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether span metrics are being recorded. One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span metric recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether trace-event capture is on. One relaxed load.
#[inline(always)]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns trace-event capture on or off (process-wide). Enabling pins the
/// trace epoch, so event timestamps are relative to the first enable.
pub fn set_tracing(on: bool) {
    if on {
        trace::epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// The registry histogram named `name` (created on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    hist::registry().histogram(name)
}

/// Snapshot of every registered histogram, sorted by name.
pub fn snapshot() -> Vec<(&'static str, HistogramSnapshot)> {
    hist::registry().snapshot()
}

/// Opens a named span guard. With one argument the span's duration lands
/// in the histogram of that name; the two-argument form also attaches a
/// display argument to the trace event (evaluated only when tracing is
/// on, so the common path never formats it).
///
/// ```
/// let _g = ppchecker_obs::span!("stage.name");
/// let pkg = "com.example";
/// let _h = ppchecker_obs::span!("app.check", pkg);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::span::SpanGuard::enter_with($name, || ($arg).to_string())
    };
}

/// Serializes tests that flip the process-wide toggles, so parallel test
/// threads don't observe each other's flag changes.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn toggles_round_trip() {
        let _serial = super::test_guard();
        let was = super::enabled();
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(was);
    }
}
