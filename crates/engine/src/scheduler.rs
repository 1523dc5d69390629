//! The sharded work scheduler, for batch runs and for the daemon.
//!
//! Both share one topology: jobs flow through one `mpsc` channel whose
//! receiver sits behind a mutex held only for the dequeue itself, so
//! distribution order is FIFO and a slow job never blocks the queue
//! behind a fast worker. They differ in lifetime:
//!
//! - `run_scoped_streamed`: the batch loop behind
//!   [`Engine::run_streamed`] (and so [`Engine::run`]). Borrows the
//!   processing closure, spawns scoped workers for one run, feeds them
//!   under backpressure, and emits results in submission order while the
//!   run is in flight.
//! - [`WorkerPool`]: the resident face. `'static` workers pull boxed
//!   jobs for the life of the process; callers must hold an
//!   [`AdmitTicket`] (bounded capacity — the admission-control layer of
//!   the serve daemon) before submitting. Full capacity is an
//!   *immediate, non-blocking* rejection through [`WorkerPool::try_admit`],
//!   which is what turns into an HTTP 429; bulk transports use
//!   [`WorkerPool::admit_blocking`] and get classic backpressure instead.
//!
//! [`Engine::run`]: crate::Engine::run
//! [`Engine::run_streamed`]: crate::Engine::run_streamed

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

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
pub(crate) fn run_scoped_streamed<I, R, F, S>(
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
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (result_tx, result_rx) = mpsc::sync_channel::<(usize, R)>(jobs + depth);

    thread::scope(|scope| {
        for _ in 0..jobs {
            let job_rx = Arc::clone(&job_rx);
            let result_tx = result_tx.clone();
            let process = &process;
            scope.spawn(move || loop {
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
            });
        }
        drop(result_tx);

        let iter = items.into_iter();
        scope.spawn(move || {
            for job in iter.enumerate() {
                if job_tx.send(job).is_err() {
                    break; // all workers died; stop feeding
                }
            }
            // job_tx drops here; workers see the disconnect once drained.
        });

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

/// A unit of resident work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why an admission attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Every queue slot is taken; retry later or shed the request.
    Overloaded,
    /// The pool is draining and admits nothing new.
    Draining,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded => f.write_str("overloaded"),
            AdmitError::Draining => f.write_str("draining"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Debug, Default)]
struct Occupancy {
    inflight: usize,
    draining: bool,
}

/// Capacity accounting shared between the pool and outstanding tickets.
#[derive(Debug)]
struct Gate {
    occupancy: Mutex<Occupancy>,
    freed: Condvar,
    capacity: usize,
}

impl Gate {
    fn acquire(&self, slots: usize, block: bool) -> Result<(), AdmitError> {
        let mut occ = self.occupancy.lock().expect("gate lock");
        loop {
            if occ.draining {
                return Err(AdmitError::Draining);
            }
            if occ.inflight + slots <= self.capacity {
                occ.inflight += slots;
                return Ok(());
            }
            if !block {
                return Err(AdmitError::Overloaded);
            }
            occ = self.freed.wait(occ).expect("gate lock");
        }
    }

    fn release(&self, slots: usize) {
        let mut occ = self.occupancy.lock().expect("gate lock");
        occ.inflight -= slots;
        drop(occ);
        self.freed.notify_all();
    }
}

/// An admitted capacity reservation: proof that the pool has room for
/// `slots` more jobs. Submitting consumes the ticket slot by slot; slots
/// never submitted are released when the ticket drops, and submitted
/// slots are released when their job *finishes* — capacity tracks work
/// in flight, not work enqueued.
#[derive(Debug)]
pub struct AdmitTicket {
    gate: Arc<Gate>,
    remaining: usize,
}

impl AdmitTicket {
    /// Slots still available on this ticket.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Drop for AdmitTicket {
    fn drop(&mut self) {
        if self.remaining > 0 {
            self.gate.release(self.remaining);
        }
    }
}

/// Queue-occupancy counters for a metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Total admission capacity (in-flight job bound).
    pub capacity: usize,
    /// Jobs admitted and not yet finished.
    pub inflight: usize,
    /// Whether the pool has begun draining.
    pub draining: bool,
}

/// The resident worker pool: the engine scheduler's long-lived face,
/// used by the serve daemon for per-request admission control.
///
/// ```
/// use ppchecker_engine::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2, 8);
/// let (tx, rx) = mpsc::channel();
/// let mut ticket = pool.try_admit(1).unwrap();
/// pool.submit(&mut ticket, move || tx.send(21 * 2).unwrap());
/// assert_eq!(rx.recv().unwrap(), 42);
/// pool.drain();
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    job_tx: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    gate: Arc<Gate>,
}

impl WorkerPool {
    /// Spawns `workers` resident threads with room for
    /// `workers + queue_depth` admitted jobs (running + queued).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = workers.max(1);
        let capacity = workers + queue_depth.max(1);
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                thread::Builder::new()
                    .name(format!("ppchecker-worker-{i}"))
                    .spawn(move || loop {
                        let job = job_rx.lock().expect("job queue lock").recv();
                        match job {
                            // A panicking job must not kill its resident
                            // worker (batch runs get the same isolation
                            // from `Engine::check_one`). The
                            // capacity slot still releases: the wrapper's
                            // guard drops during the unwind.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped; queue drained
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            job_tx: Some(job_tx),
            workers: handles,
            gate: Arc::new(Gate {
                occupancy: Mutex::new(Occupancy::default()),
                freed: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Reserves `slots` queue slots without blocking.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Overloaded`] when the reservation does not fit, or
    /// [`AdmitError::Draining`] once [`WorkerPool::start_drain`] ran.
    pub fn try_admit(&self, slots: usize) -> Result<AdmitTicket, AdmitError> {
        self.gate.acquire(slots, false)?;
        Ok(AdmitTicket { gate: Arc::clone(&self.gate), remaining: slots })
    }

    /// Reserves `slots` queue slots, waiting for capacity (backpressure
    /// for bulk transports).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once [`WorkerPool::start_drain`] ran.
    pub fn admit_blocking(&self, slots: usize) -> Result<AdmitTicket, AdmitError> {
        self.gate.acquire(slots, true)?;
        Ok(AdmitTicket { gate: Arc::clone(&self.gate), remaining: slots })
    }

    /// Submits one job against a slot of `ticket`. The slot is released
    /// when the job finishes (even if it panics).
    ///
    /// The time from this call until a worker starts the job lands in the
    /// `serve.queue_wait` histogram: how long the job waited, not how long
    /// a worker sat idle.
    ///
    /// # Panics
    ///
    /// Panics when the ticket has no remaining slots — a ticket is a
    /// counted reservation, not a blanket permission.
    pub fn submit(&self, ticket: &mut AdmitTicket, job: impl FnOnce() + Send + 'static) {
        assert!(ticket.remaining > 0, "submit without an admitted slot");
        ticket.remaining -= 1;
        let gate = Arc::clone(&self.gate);
        let submitted = Instant::now();
        let wrapped: Job = Box::new(move || {
            ppchecker_obs::histogram("serve.queue_wait").record(submitted.elapsed());
            // Release on every exit path: a panicking job must not leak
            // its capacity slot or the pool wedges at full queue.
            struct Release(Arc<Gate>);
            impl Drop for Release {
                fn drop(&mut self) {
                    self.0.release(1);
                }
            }
            let _release = Release(gate);
            job();
        });
        self.job_tx.as_ref().expect("pool not drained").send(wrapped).expect("workers alive");
    }

    /// Marks the pool as draining: every subsequent admission fails with
    /// [`AdmitError::Draining`] while already-admitted jobs keep running.
    pub fn start_drain(&self) {
        self.gate.occupancy.lock().expect("gate lock").draining = true;
        self.gate.freed.notify_all();
    }

    /// Waits until every admitted job has finished. Does not by itself
    /// stop new admissions — call [`WorkerPool::start_drain`] first for a
    /// graceful shutdown.
    pub fn wait_idle(&self) {
        let mut occ = self.gate.occupancy.lock().expect("gate lock");
        while occ.inflight > 0 {
            occ = self.gate.freed.wait(occ).expect("gate lock");
        }
    }

    /// Graceful shutdown: stop admissions, finish in-flight jobs, join
    /// the workers.
    pub fn drain(mut self) {
        self.start_drain();
        self.wait_idle();
        drop(self.job_tx.take()); // workers see Err(disconnect) and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> PoolStats {
        let occ = self.gate.occupancy.lock().expect("gate lock");
        PoolStats {
            workers: self.workers.len(),
            capacity: self.gate.capacity,
            inflight: occ.inflight,
            draining: occ.draining,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

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
    fn pool_runs_jobs_and_reports_occupancy() {
        let pool = WorkerPool::new(2, 4);
        assert_eq!(pool.stats().capacity, 6);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let mut ticket = pool.try_admit(1).unwrap();
            let counter = Arc::clone(&counter);
            pool.submit(&mut ticket, move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(pool.stats().inflight, 0);
        pool.drain();
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        // Fill both slots with jobs that wait for permission to finish.
        let mut tickets = Vec::new();
        for _ in 0..2 {
            let mut ticket = pool.try_admit(1).unwrap();
            let release_rx = Arc::clone(&release_rx);
            pool.submit(&mut ticket, move || {
                let _ = release_rx.lock().unwrap().recv();
            });
            tickets.push(ticket);
        }
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Overloaded);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        pool.wait_idle();
        assert!(pool.try_admit(1).is_ok());
    }

    #[test]
    fn unused_ticket_slots_release_on_drop() {
        let pool = WorkerPool::new(1, 3);
        let ticket = pool.try_admit(4).unwrap();
        assert_eq!(pool.stats().inflight, 4);
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Overloaded);
        drop(ticket);
        assert_eq!(pool.stats().inflight, 0);
    }

    #[test]
    fn draining_pool_rejects_new_admissions_but_finishes_work() {
        let pool = WorkerPool::new(1, 2);
        let mut ticket = pool.try_admit(1).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&done);
        pool.submit(&mut ticket, move || {
            thread::sleep(Duration::from_millis(20));
            flag.fetch_add(1, Ordering::SeqCst);
        });
        pool.start_drain();
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Draining);
        assert_eq!(pool.admit_blocking(1).unwrap_err(), AdmitError::Draining);
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_job_releases_its_slot() {
        let pool = WorkerPool::new(1, 1);
        let mut ticket = pool.try_admit(1).unwrap();
        pool.submit(&mut ticket, || panic!("job blew up"));
        // If the slot leaked, this would deadlock; a timeout-free pass
        // proves release-on-panic.
        pool.wait_idle();
        assert_eq!(pool.stats().inflight, 0);
        assert!(pool.try_admit(2).is_ok());
    }

    #[test]
    fn queue_wait_runs_from_submit_not_from_the_idle_worker() {
        let queue_wait = ppchecker_obs::histogram("serve.queue_wait");
        let pool = WorkerPool::new(1, 1);
        // The worker idles in its dequeue long past the bound below.
        thread::sleep(Duration::from_millis(100));
        let before = queue_wait.snapshot();
        let (tx, rx) = mpsc::channel();
        let mut ticket = pool.try_admit(1).unwrap();
        pool.submit(&mut ticket, move || tx.send(()).unwrap());
        rx.recv().unwrap();
        pool.drain();
        // Other tests' pools may record into the same histogram meanwhile;
        // none of their jobs waits long either.
        let recorded = queue_wait.snapshot().delta_since(&before);
        assert!(recorded.count >= 1, "the job's queue wait was not recorded");
        assert!(
            recorded.total() < Duration::from_millis(50),
            "queue wait {:?} counts the worker's idle time",
            recorded.total()
        );
    }

    #[test]
    fn blocking_admission_waits_for_capacity() {
        let pool = Arc::new(WorkerPool::new(1, 1));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..2 {
            let mut ticket = pool.try_admit(1).unwrap();
            let release_rx = Arc::clone(&release_rx);
            pool.submit(&mut ticket, move || {
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        let waiter = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.admit_blocking(1).map(|t| t.remaining()))
        };
        // Unblock one job; the waiter's reservation must then succeed.
        release_tx.send(()).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
        release_tx.send(()).unwrap();
        pool.wait_idle();
    }
}
