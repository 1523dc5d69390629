//! Hostile policy text for the sentence splitter: runs of dots that each
//! ask the abbreviation check. A splitter that rescans the trailing word
//! at every dot is quadratic here (a 40k-repeat `a.` run took 2.8 s, and
//! one mebibyte takes hours); the splitter reads a tracked word span
//! instead, so each input splits in time linear in its length.
//!
//! These drive the splitter alone: end to end, such a page is one huge
//! sentence, and the dependency parse of one sentence is not yet linear.

use ppchecker_nlp::sentence::split_sentences;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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
