//! Hostile policy text for the sentence splitter: runs of dots that each
//! ask the abbreviation check. A splitter that rescans the trailing word
//! at every dot is quadratic here (a 40k-repeat `a.` run took 2.8 s, and
//! one mebibyte takes hours); the splitter reads a tracked word span
//! instead, so each input splits in time linear in its length.
//!
//! These drive the splitter alone: end to end, such a page is one huge
//! sentence, and the dependency parse of one sentence is not yet linear.
//!
//! Beside them, huge documents against the text stages' per-thread
//! buffers: a thread that analyzed a mebibyte policy and description
//! keeps no buffer above the 64 KiB cap.

use ppchecker_desc::analyze_description;
use ppchecker_nlp::sentence::split_sentences;
use ppchecker_policy::{PolicyAnalysis, PolicyAnalyzer, SentenceVerdict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The system allocator, counting the heap bytes each thread holds:
/// what it allocated less what it freed.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // Past the thread's teardown there is nothing left to count.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// The text stages drop their per-thread buffers past this size.
const SCRATCH_CAP: i64 = 64 << 10;

/// Loose enough for a debug build on a noisy host.
const DEADLINE: Duration = Duration::from_secs(5);

const MIB: usize = 1 << 20;

/// Splits `text` on a thread of its own and returns the number of
/// sentences and the length of the first; fails once the split misses
/// [`DEADLINE`] rather than waiting for it.
fn split_within_deadline(text: String) -> (usize, usize) {
    let (tx, rx) = mpsc::channel();
    let split = std::thread::spawn(move || {
        let sentences = split_sentences(&text);
        let _ = tx.send((sentences.len(), sentences.iter().next().map_or(0, |s| s.len())));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => {
            split.join().expect("the split thread finished");
            result
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(split.join().expect_err("the split thread panicked"))
        }
        // The split thread is left behind; the test process ends it.
        Err(RecvTimeoutError::Timeout) => panic!("the split takes over {DEADLINE:?}"),
    }
}

/// `a.a.a.…`: every dot but the last is followed by a letter, so none
/// ends the sentence, and the word before each dot keeps growing.
#[test]
fn a_mebibyte_of_dotted_letters_splits_in_linear_time() {
    assert_eq!(split_within_deadline("a.".repeat(MIB / 2)), (1, MIB));
}

/// `e.g` and then dots: the word before each dot, trailing dots
/// trimmed, is the abbreviation, so no dot ends the sentence.
#[test]
fn a_mebibyte_of_dots_after_an_abbreviation_splits_in_linear_time() {
    assert_eq!(split_within_deadline(format!("e.g{}", ".".repeat(MIB))), (1, MIB + 3));
}

/// A mebibyte policy and a mebibyte description grow the thread's
/// document and description buffers far past the cap, so both are
/// dropped after use: the thread holds no more than before them, give or
/// take the cap.
#[test]
fn a_mebibyte_policy_and_description_leave_no_buffer_above_the_cap() {
    std::thread::spawn(|| {
        let policy = "<p>We may collect your location. We may share your device id.</p>";
        let description = "A fun puzzle game with many levels. ";
        let analyzer = PolicyAnalyzer::new();
        // Each document, once small: the buffers, the interned words, the
        // analyzer's tables and the ESA memo entries exist from here on.
        let analyze = |policy: &str, description: &str| {
            black_box(analyzer.analyze_html(&policy[..policy.len().min(4096)]));
            black_box(PolicyAnalysis::from_html(policy, |_| SentenceVerdict::NotUseful));
            black_box(analyze_description(description));
        };
        analyze(policy, description);
        let before = LIVE.with(Cell::get);
        let mebibyte = |unit: &str| unit.repeat(MIB.div_ceil(unit.len()));
        let (policy, description) = (mebibyte(policy), mebibyte(description));
        analyze(&policy, &description);
        drop((policy, description));
        let retained = LIVE.with(Cell::get) - before;
        assert!(retained < SCRATCH_CAP, "the thread retains {retained} bytes more");
    })
    .join()
    .expect("the analysis thread finished");
}
