//! Exact allocation counts of a warm check, gated as work counters: the
//! whole `Engine::check_one`, its policy stage (`ArtifactCache::policy`),
//! its description stage (`analyze_description_with`) and its static
//! stage (`analyze_with`), summed over the 1,197-app paper prefix of the
//! scale stream after one warm-up pass. Beside them, the two set-up
//! builds every process pays: the ESA index over the bundled knowledge
//! base and the pre-seeded interner. And the miss path: a fresh policy
//! cache fed the 20,000 policies of the seed-42 stream, gated by its
//! allocation calls and by the heap bytes the cache holds afterwards.
//!
//! Allocation calls and live bytes are a function of the input alone: a
//! warm pass hits every cache, and the counter below counts only this
//! test's thread (debug and release builds count the same). A change
//! that allocates more (or less) per app moves a count and fails here;
//! so can a toolchain whose standard library allocates differently
//! (these were taken with rustc 1.95). Re-derive the expected counts by
//! running `cargo test --release --test allocation_counts` and copying
//! the measured counts from the failure message, and say in the change
//! why they moved.

use ppchecker_core::{AppInput, PPChecker};
use ppchecker_corpus::{stream_scaled, APP_COUNT};
use ppchecker_desc::analyze_description_with;
use ppchecker_engine::{ArtifactCache, Engine};
use ppchecker_esa::{kb, Interpreter};
use ppchecker_nlp::Interner;
use ppchecker_policy::PolicyAnalyzer;
use ppchecker_static::{analyze_with, AnalysisOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting the allocation calls (`alloc` and
/// `realloc`) and the live heap bytes of each thread. A block freed by
/// another thread than the one that allocated it moves both threads'
/// byte counts, so measure bytes only over work that stays on one
/// thread.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(calls: u64, bytes: i64) {
    // Past the thread's teardown there is nothing left to count.
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counting
// touches only this thread's `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls this thread makes while running `f`.
fn calls_of(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Allocation calls this thread makes while running `f` over `apps`.
fn calls_over(apps: &[AppInput], mut f: impl FnMut(&AppInput)) -> u64 {
    let before = CALLS.with(Cell::get);
    for app in apps {
        f(app);
    }
    CALLS.with(Cell::get) - before
}

#[test]
fn warm_check_allocations_are_exact() {
    let engine = Engine::new(PPChecker::new()).with_jobs(1);
    let esa = Interpreter::shared();
    let apps: Vec<AppInput> = stream_scaled(42, APP_COUNT).map(|app| app.input).collect();
    let check = |app: &AppInput| drop(black_box(engine.check_one(app).expect("app checks")));
    for app in &apps {
        check(app);
    }

    let measured = (
        calls_over(&apps, check),
        calls_over(&apps, |app| drop(black_box(engine.cache().policy(&app.policy_html)))),
        calls_over(&apps, |app| drop(black_box(analyze_description_with(&app.description, esa)))),
        calls_over(&apps, |app| {
            drop(black_box(analyze_with(&app.apk, AnalysisOptions::default())))
        }),
    );
    let per_app = |calls: u64| calls as f64 / APP_COUNT as f64;
    assert_eq!(
        measured,
        (37_814, 1_198, 277, 20_717),
        "allocation calls (check_one, policy, description, static) over {APP_COUNT} warm apps; \
         per app {:.2} / {:.2} / {:.2} / {:.2}",
        per_app(measured.0),
        per_app(measured.1),
        per_app(measured.2),
        per_app(measured.3),
    );
}

#[test]
fn set_up_build_allocations_are_exact() {
    let measured = (
        calls_of(|| drop(black_box(Interpreter::new(kb::concepts())))),
        calls_of(|| drop(black_box(Interner::preseeded()))),
    );
    assert_eq!(
        measured,
        (28, 2),
        "allocation calls (ESA index over the bundled KB, pre-seeded interner)"
    );
}

#[test]
fn cold_policy_cache_allocations_and_footprint_are_exact() {
    let policies: Vec<String> =
        stream_scaled(42, 20_000).map(|app| app.input.policy_html).collect();
    // Every word of these policies is interned and this thread's
    // document buffers have grown, so the cold pass below pays only
    // for the cache.
    let analyzer = PolicyAnalyzer::new();
    for html in &policies {
        drop(black_box(analyzer.analyze_html(html)));
    }

    let live_before = LIVE.with(Cell::get);
    let mut cache = None;
    let calls = calls_of(|| {
        let fresh = ArtifactCache::new(PolicyAnalyzer::new());
        for html in &policies {
            drop(black_box(fresh.policy(html)));
        }
        cache = Some(fresh);
    });
    let held = LIVE.with(Cell::get) - live_before;
    let stats = cache.as_ref().expect("filled").stats();
    assert_eq!((stats.misses, stats.entries), (4_273, 4_273), "the seed-42 stream's sentences");
    let per_entry = |n: f64| n / stats.entries as f64;
    assert_eq!(
        (calls, held),
        (88_479, 1_029_010),
        "allocation calls of the cold pass over {} policies and heap bytes the cache holds \
         after it; per resident sentence {:.2} calls / {:.1} B",
        policies.len(),
        per_entry(calls as f64),
        per_entry(held as f64),
    );
}
