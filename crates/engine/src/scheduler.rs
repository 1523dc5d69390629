//! The engine's one scheduler: an ordered fan-out over scoped threads.
//!
//! [`run_scoped_streamed`] is the batch loop behind
//! [`Engine::run_streamed`] (and so [`Engine::run`]), and the serve
//! daemon runs its `/batch` requests and JSONL connections through it
//! too. Jobs flow through one `mpsc` channel whose receiver sits behind
//! a mutex held only for the dequeue itself, so distribution order is
//! FIFO and a slow job never blocks the queue behind a fast worker.
//! Results come back in submission order while the run is in flight.
//!
//! [`Engine::run`]: crate::Engine::run
//! [`Engine::run_streamed`]: crate::Engine::run_streamed

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Runs `process` over every item of `items` on `jobs` workers fed by a
/// job channel `depth` deep, handing each result to `emit` in submission
/// order *while the run is still in flight*. Every channel is bounded:
/// nothing here holds more than `jobs + depth + result-bound` items at
/// once, so memory stays constant no matter how long the input stream is
/// — this is what lets a 100k–1M-app batch run without materializing
/// either the corpus or the result vector.
///
/// The producer moves to a scoped thread (hence the `I::IntoIter: Send`
/// bound) so the calling thread can drain results concurrently; workers
/// push into a *bounded* result channel, so a slow `emit` back-pressures
/// the workers instead of buffering the whole run. Out-of-order
/// completions park in a reorder buffer whose size is capped by the
/// in-flight bound.
///
/// An input whose `size_hint` is exact and no larger than `depth` (a
/// short vector, say) is queued up front instead. It needs no producer
/// thread, and the calling thread works the queue as one of the `jobs`
/// before it emits, so a short run spawns two threads fewer.
///
/// # Panics
///
/// Panics when an exact `size_hint` understates the input, and passes
/// on a panic from `process`.
pub fn run_scoped_streamed<I, R, F, S>(
    items: I,
    jobs: usize,
    depth: usize,
    process: F,
    emit: &mut S,
) where
    I: IntoIterator,
    I::Item: Send,
    I::IntoIter: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
    S: FnMut(usize, R),
{
    let depth = depth.max(1);
    let (job_tx, job_rx) = mpsc::sync_channel::<(usize, I::Item)>(depth);
    let job_rx = Mutex::new(job_rx);
    let (result_tx, result_rx) = mpsc::sync_channel::<(usize, R)>(jobs + depth);
    let work = |result_tx: mpsc::SyncSender<(usize, R)>| loop {
        let wait = ppchecker_obs::span!("engine.queue_wait");
        let job = job_rx.lock().expect("job queue lock").recv();
        drop(wait);
        match job {
            Ok((index, item)) => {
                if result_tx.send((index, process(index, item))).is_err() {
                    break; // collector gone; shut down
                }
            }
            Err(_) => break, // producer done and queue drained
        }
    };

    let mut items = items.into_iter();
    let queued = matches!(items.size_hint(), (n, Some(m)) if n == m && m <= depth);
    if queued {
        for job in items.by_ref().enumerate() {
            assert!(job_tx.try_send(job).is_ok(), "an exact size_hint understated the input");
        }
    }

    thread::scope(|scope| {
        for _ in 0..jobs.saturating_sub(usize::from(queued)) {
            let result_tx = result_tx.clone();
            scope.spawn(move || work(result_tx));
        }
        if queued {
            drop(job_tx);
            work(result_tx);
        } else {
            drop(result_tx);
            scope.spawn(move || {
                for job in items.enumerate() {
                    if job_tx.send(job).is_err() {
                        break; // all workers died; stop feeding
                    }
                }
                // job_tx drops here; workers see the disconnect once drained.
            });
        }

        // In-order reassembly. `pending` can only hold results whose
        // predecessors are still in flight, so it is bounded by the same
        // in-flight cap as the channels.
        let mut next = 0usize;
        let mut pending: std::collections::BTreeMap<usize, R> = std::collections::BTreeMap::new();
        for (index, result) in result_rx.iter() {
            pending.insert(index, result);
            while let Some(result) = pending.remove(&next) {
                emit(next, result);
                next += 1;
            }
        }
        debug_assert!(pending.is_empty(), "stream ended with a gap in indices");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_emits_in_submission_order() {
        let mut seen = Vec::new();
        run_scoped_streamed(
            0..1000usize,
            4,
            8,
            |index, item| {
                assert_eq!(index, item);
                item * 3
            },
            &mut |index, result| seen.push((index, result)),
        );
        assert_eq!(seen.len(), 1000);
        for (i, (index, result)) in seen.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*result, i * 3);
        }
    }

    #[test]
    fn streamed_survives_a_lazy_unsized_source() {
        // An iterator with no usable size hint and more items than any
        // channel bound; the run must still complete in order.
        let source = (0..500usize).filter(|i| i % 2 == 0);
        let mut count = 0usize;
        let mut last = None;
        run_scoped_streamed(source, 3, 2, |_, item| item, &mut |index, item| {
            assert_eq!(index * 2, item);
            last = Some(item);
            count += 1;
        });
        assert_eq!(count, 250);
        assert_eq!(last, Some(498));
    }

    #[test]
    fn a_short_input_is_queued_and_worked_by_the_caller() {
        // Five items fit a depth-8 queue: one job means no spawned thread.
        let caller = thread::current().id();
        let mut seen = Vec::new();
        run_scoped_streamed(
            vec![10, 11, 12, 13, 14],
            1,
            8,
            |index, item| {
                assert_eq!(thread::current().id(), caller);
                (index, item)
            },
            &mut |_, result| seen.push(result),
        );
        assert_eq!(seen, vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]);

        // With more jobs the spawned workers share the queue; order holds.
        let mut seen = Vec::new();
        run_scoped_streamed(vec![1, 2, 3, 4, 5, 6], 3, 6, |_, item| item * 2, &mut |_, r| {
            seen.push(r)
        });
        assert_eq!(seen, vec![2, 4, 6, 8, 10, 12]);
    }
}
