//! The engine's one scheduler: an ordered fan-out whose workers pull
//! their own input and emit their own results.
//!
//! [`run_scoped_streamed`] is the batch loop behind
//! [`Engine::run_streamed`] (and so [`Engine::run`]), and the serve
//! daemon runs its `/batch` requests and JSONL connections through it
//! too. The calling thread and `jobs − 1` scoped threads are the
//! workers. Each takes the next item from the input behind one mutex,
//! processes it, and parks the result in a reorder buffer; whichever
//! worker completes the next index in submission order hands it, and
//! every consecutive result ready behind it, to the sink. There is no
//! producer thread, no collector and no channel, so no item waits for a
//! sleeping thread to be woken.
//!
//! [`Engine::run`]: crate::Engine::run
//! [`Engine::run_streamed`]: crate::Engine::run_streamed

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Runs `process` over every item of `items` on `jobs` workers, handing
/// each result to `emit` in submission order *while the run is still in
/// flight*. At most `jobs + depth` items are in flight — pulled from
/// `items` and not yet emitted — so memory stays constant no matter how
/// long the input stream is; this is what lets a 100k–1M-app batch run
/// without materializing either the corpus or the result vector.
///
/// The calling thread is one of the `jobs` workers, so `jobs = 1` spawns
/// no thread. Each worker pulls `(index, item)` from `items` under one
/// lock, runs `process`, and parks the result in a reorder buffer; the
/// worker that fills the next index in order calls `emit` for it and for
/// every consecutive result ready behind it. `items` and `emit` therefore
/// run on any worker, hence the `I::IntoIter: Send` and `S: Send` bounds.
/// A worker that would pull an index at or beyond `emitted + jobs + depth`
/// waits until emission makes room.
///
/// `items` is fused: it is not read past its first `None`. No emission
/// waits on a worker that is inside `items.next()`, so an interactive
/// source — one whose next item waits on the previous result, like a
/// JSONL client that sends a line only after reading the last answer —
/// gets each result as soon as it is ready.
///
/// # Panics
///
/// Passes on a panic from `items`, `process` or `emit` once every worker
/// has stopped; a worker waiting for room in the window is woken and
/// stops too.
pub fn run_scoped_streamed<I, R, F, S>(
    items: I,
    jobs: usize,
    depth: usize,
    process: F,
    emit: &mut S,
) where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    let jobs = jobs.max(1);
    let run = Run {
        window: jobs + depth,
        input: Mutex::new(Input { items: Some(items.into_iter()), next: 0 }),
        output: Mutex::new(Output {
            sink: Some(emit),
            emitted: 0,
            ready: VecDeque::new(),
            waiters: 0,
        }),
        room: Condvar::new(),
        aborted: AtomicBool::new(false),
        process,
    };
    thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(|| run.work());
        }
        run.work();
    });
    debug_assert!(run.output.into_inner().is_ok_and(|out| out.ready.is_empty()));
}

/// The state every worker of one run shares.
struct Run<'s, It, R, F, S> {
    /// The most items in flight: pulled and not yet emitted.
    window: usize,
    input: Mutex<Input<It>>,
    output: Mutex<Output<'s, R, S>>,
    /// Signalled when emission makes room in the window, or on a panic.
    room: Condvar,
    /// Set when a worker panics: the others stop pulling.
    aborted: AtomicBool,
    process: F,
}

struct Input<It> {
    /// `None` once the iterator has returned `None`.
    items: Option<It>,
    /// The index the next pulled item gets.
    next: usize,
}

struct Output<'s, R, S> {
    /// Taken by the worker that is emitting; `None` means another
    /// worker is emitting and will emit whatever is parked behind it.
    sink: Option<&'s mut S>,
    /// Results handed to the sink so far.
    emitted: usize,
    /// Results parked by index, starting at index `emitted`.
    ready: VecDeque<Option<R>>,
    /// Workers waiting on `room`; emitters notify only when some are.
    waiters: usize,
}

impl<'s, It, R, F, S> Run<'s, It, R, F, S>
where
    It: Iterator,
    F: Fn(usize, It::Item) -> R,
    S: FnMut(usize, R),
{
    /// One worker: pull, process and park until the input runs dry or
    /// another worker panics.
    fn work(&self) {
        let _abort = AbortOnPanic(self);
        while let Some((index, item)) = self.pull() {
            self.park(index, (self.process)(index, item));
        }
    }

    /// Takes the next item and its index, waiting for room in the window
    /// first. `None` once the input is exhausted, or after a panic.
    fn pull(&self) -> Option<(usize, It::Item)> {
        let wait = ppchecker_obs::span!("engine.queue_wait");
        // A poisoned lock means a pull panicked: stop pulling.
        let mut input = self.input.lock().ok()?;
        if input.items.is_none() || self.aborted.load(Ordering::Relaxed) {
            return None;
        }
        let index = input.next;
        let mut out = self.lock_output();
        while index >= out.emitted + self.window {
            if self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            out.waiters += 1;
            out = self.room.wait(out).expect("scheduler output lock");
            out.waiters -= 1;
        }
        drop(out);
        drop(wait);
        let _pull = ppchecker_obs::span!("engine.pull");
        match input.items.as_mut()?.next() {
            Some(item) => {
                input.next += 1;
                Some((index, item))
            }
            None => {
                input.items = None;
                None
            }
        }
    }

    /// Parks `result`; if it is next in order and no other worker is
    /// emitting, emits it and every consecutive result ready behind it.
    fn park(&self, index: usize, result: R) {
        let mut out = self.lock_output();
        let slot = index - out.emitted;
        if out.ready.len() <= slot {
            out.ready.resize_with(slot + 1, || None);
        }
        out.ready[slot] = Some(result);
        while matches!(out.ready.front(), Some(Some(_))) {
            let Some(sink) = out.sink.take() else {
                return; // the emitting worker picks this result up
            };
            // The emptied slot stays until the sink returns: slots are
            // indexed from `emitted`, and the window counts this result
            // as in flight until then.
            let result = out.ready[0].take().expect("the front result is ready");
            let index = out.emitted;
            drop(out);
            {
                let _emit = ppchecker_obs::span!("engine.emit");
                sink(index, result);
            }
            out = self.lock_output();
            out.ready.pop_front();
            out.emitted += 1;
            out.sink = Some(sink);
            if out.waiters > 0 {
                self.room.notify_all();
            }
        }
    }

    fn lock_output(&self) -> MutexGuard<'_, Output<'s, R, S>> {
        self.output.lock().expect("scheduler output lock")
    }
}

/// Wakes every waiting worker and stops the rest from pulling when its
/// worker unwinds, so a panic reaches the caller instead of leaving a
/// worker waiting on an emission that never comes.
struct AbortOnPanic<'r, 's, It, R, F, S>(&'r Run<'s, It, R, F, S>);

impl<It, R, F, S> Drop for AbortOnPanic<'_, '_, It, R, F, S> {
    fn drop(&mut self) {
        if thread::panicking() {
            let run = self.0;
            run.aborted.store(true, Ordering::Relaxed);
            // Taking the lock orders the store before any waiter's next
            // look at the flag.
            let _out = run.output.lock().unwrap_or_else(PoisonError::into_inner);
            run.room.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Runs `f` on its own thread and returns its result, passing on its
    /// panic; fails the test if `f` has not returned within 10 s, so a
    /// scheduler that hangs fails instead of hanging the suite.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let _ = done_tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        let outcome = done_rx.recv_timeout(Duration::from_secs(10)).expect("the run hung");
        runner.join().expect("the runner catches every panic");
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    fn spin(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn streamed_emits_in_submission_order() {
        // Item times are skewed, so later items often finish first.
        for jobs in [1, 2, 4, 8] {
            let seen = within_deadline(move || {
                let mut seen = Vec::new();
                run_scoped_streamed(
                    0..300usize,
                    jobs,
                    2 * jobs,
                    |index, item| {
                        assert_eq!(index, item);
                        spin((item * 7 % 5 * 100) as u64);
                        item * 3
                    },
                    &mut |index, result| seen.push((index, result)),
                );
                seen
            });
            let expected: Vec<_> = (0..300).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, expected, "jobs {jobs}");
        }
    }

    #[test]
    fn streamed_survives_a_lazy_unsized_source() {
        // An iterator with no usable size hint and more items than any
        // window; the run must still complete in order.
        let (count, last) = within_deadline(|| {
            let source = (0..500usize).filter(|i| i % 2 == 0);
            let mut count = 0usize;
            let mut last = None;
            run_scoped_streamed(source, 3, 2, |_, item| item, &mut |index, item| {
                assert_eq!(index * 2, item);
                last = Some(item);
                count += 1;
            });
            (count, last)
        });
        assert_eq!(count, 250);
        assert_eq!(last, Some(498));
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // One job means no spawned thread: the caller does all the work.
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

        // With more jobs the spawned workers share the input; order holds.
        let seen = within_deadline(|| {
            let mut seen = Vec::new();
            run_scoped_streamed(vec![1, 2, 3, 4, 5, 6], 3, 6, |_, item| item * 2, &mut |_, r| {
                seen.push(r)
            });
            seen
        });
        assert_eq!(seen, vec![2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn items_in_flight_never_exceed_jobs_plus_depth() {
        let (jobs, depth) = (4, 2);
        let bound = jobs + depth;
        let (emitted, most) = within_deadline(move || {
            let pulled = AtomicUsize::new(0);
            let emitted = AtomicUsize::new(0);
            let most = AtomicUsize::new(0);
            let source = (0..100usize).inspect(|_| {
                let in_flight =
                    pulled.fetch_add(1, Ordering::SeqCst) + 1 - emitted.load(Ordering::SeqCst);
                most.fetch_max(in_flight, Ordering::SeqCst);
            });
            run_scoped_streamed(
                source,
                jobs,
                depth,
                |index, item| {
                    // Hold the head until some worker pulls past the
                    // window, or for 100 ms; the others keep pulling.
                    let held = Instant::now();
                    while index == 0
                        && pulled.load(Ordering::SeqCst) <= bound
                        && held.elapsed() < Duration::from_millis(100)
                    {
                        thread::yield_now();
                    }
                    item
                },
                &mut |_, _| {
                    emitted.fetch_add(1, Ordering::SeqCst);
                },
            );
            (emitted.into_inner(), most.into_inner())
        });
        assert_eq!(emitted, 100);
        assert_eq!(most, bound, "items in flight at jobs {jobs}, depth {depth}");
    }

    #[test]
    fn an_interactive_source_gets_each_result_before_its_next_item() {
        // Like a JSONL client that sends its next line (or EOF) only once
        // it has read the answer to the last: pulling item k waits until
        // k results are out. Processing item k waits until another worker
        // is inside `next()` for item k + 1, so workers alternate and
        // every one of them both pulls and emits.
        #[derive(Default)]
        struct Client {
            asked: usize,
            answered: usize,
        }
        for jobs in [2, 4] {
            let answered = within_deadline(move || {
                let client = (Mutex::new(Client::default()), Condvar::new());
                let wait_until = |ready: &dyn Fn(&Client) -> bool| {
                    let mut state = client.0.lock().unwrap();
                    while !ready(&state) {
                        state = client.1.wait(state).unwrap();
                    }
                };
                let mut sent = 0usize;
                let source = std::iter::from_fn(|| {
                    client.0.lock().unwrap().asked += 1;
                    client.1.notify_all();
                    wait_until(&|c| c.answered == sent);
                    sent += 1;
                    (sent <= 40).then_some(sent - 1)
                });
                run_scoped_streamed(
                    source,
                    jobs,
                    8,
                    |index, item| {
                        wait_until(&|c| c.asked >= index + 2);
                        item
                    },
                    &mut |index, item| {
                        assert_eq!(index, item);
                        client.0.lock().unwrap().answered += 1;
                        client.1.notify_all();
                    },
                );
                let answered = client.0.lock().unwrap().answered;
                answered
            });
            assert_eq!(answered, 40, "jobs {jobs}");
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_and_wakes_every_worker() {
        // The failing item never leaves, so the other workers fill the
        // window behind it and wait; the panic must wake them.
        for jobs in [1, 4] {
            for fails_in in ["input", "process", "emit"] {
                let fails = move |stage: &str, item: usize| {
                    assert!(stage != fails_in || item != 3, "{stage} fails on item 3");
                };
                let panicked = within_deadline(move || {
                    catch_unwind(|| {
                        run_scoped_streamed(
                            (0..1000usize).inspect(|&item| fails("input", item)),
                            jobs,
                            2,
                            |_, item| {
                                fails("process", item);
                                item
                            },
                            &mut |_, item| fails("emit", item),
                        );
                    })
                    .is_err()
                });
                assert!(panicked, "jobs {jobs}, fails in {fails_in}: the panic was lost");
            }
        }
    }

    #[test]
    fn the_input_is_not_read_past_its_first_none() {
        for jobs in [1, 4] {
            let (seen, calls) = within_deadline(move || {
                // Ends at call 5, then yields five more items.
                let calls = AtomicUsize::new(0);
                let source = std::iter::from_fn(|| {
                    let n = calls.fetch_add(1, Ordering::SeqCst);
                    (n != 5 && n < 11).then_some(n)
                });
                let mut seen = Vec::new();
                run_scoped_streamed(source, jobs, 2, |_, item| item, &mut |_, item| {
                    seen.push(item)
                });
                (seen, calls.into_inner())
            });
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "jobs {jobs}");
            assert_eq!(calls, 6, "jobs {jobs}: next() after its first None");
        }
    }
}
