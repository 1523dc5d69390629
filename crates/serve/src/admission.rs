//! Admission control: how many checks the daemon holds at once.
//!
//! One gate bounds two counts. At most `workers + queue_depth` checks are
//! *admitted*, each holding a [`Ticket`], and at most `workers` of them
//! *run* at once. HTTP admits with [`Gate::try_admit`], which fails fast,
//! so a full gate answers `429 overloaded` and a draining one
//! `503 draining`; `/batch` admits all of its apps or none. JSONL admits
//! with [`Gate::admit_blocking`] and stalls its reader instead.
//!
//! A ticket runs its check on the thread that holds it:
//! [`Ticket::run`] waits for a running slot, then calls the job there.
//! Both slots come back when the job returns or unwinds, and a ticket
//! dropped unused gives its admitted slot back. Capacity so counts work
//! admitted and not yet finished, and a drain refuses new admissions
//! while every admitted ticket still runs.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Every admission slot is taken; the caller should back off.
    Overloaded,
    /// The daemon is draining and admits nothing new.
    Draining,
}

#[derive(Debug, Default)]
struct Slots {
    /// Tickets alive: checks running or waiting to run.
    admitted: usize,
    /// Checks running now.
    running: usize,
    draining: bool,
}

/// Queue occupancy, as `/metrics` and `/healthz` report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GateStats {
    /// Checks that may run at once.
    pub(crate) workers: usize,
    /// Checks that may be admitted at once.
    pub(crate) capacity: usize,
    /// Checks admitted and not yet finished.
    pub(crate) inflight: usize,
    /// Whether the drain has begun.
    pub(crate) draining: bool,
}

/// The daemon's one admission gate.
#[derive(Debug)]
pub(crate) struct Gate {
    slots: Mutex<Slots>,
    /// Signalled whenever a slot frees or the drain begins.
    changed: Condvar,
    workers: usize,
    capacity: usize,
}

impl Gate {
    /// A gate that runs at most `workers` checks at once and admits at
    /// most `workers + queue_depth`; each count is at least 1.
    pub(crate) fn new(workers: usize, queue_depth: usize) -> Gate {
        let workers = workers.max(1);
        Gate {
            slots: Mutex::default(),
            changed: Condvar::new(),
            workers,
            capacity: workers + queue_depth.max(1),
        }
    }

    /// Checks that may run at once.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Admits `n` checks, all or none, without blocking.
    pub(crate) fn try_admit(&self, n: usize) -> Result<Vec<Ticket<'_>>, Refused> {
        let mut slots = self.lock();
        if slots.draining {
            return Err(Refused::Draining);
        }
        if slots.admitted + n > self.capacity {
            return Err(Refused::Overloaded);
        }
        slots.admitted += n;
        drop(slots);
        Ok((0..n).map(|_| self.ticket()).collect())
    }

    /// Admits one check, waiting for a free slot. `None` once the daemon
    /// drains.
    pub(crate) fn admit_blocking(&self) -> Option<Ticket<'_>> {
        let mut slots = self.lock();
        loop {
            if slots.draining {
                return None;
            }
            if slots.admitted < self.capacity {
                break;
            }
            slots = self.changed.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        slots.admitted += 1;
        drop(slots);
        Some(self.ticket())
    }

    /// Refuses every later admission; admitted tickets still run.
    pub(crate) fn start_drain(&self) {
        self.lock().draining = true;
        self.changed.notify_all();
    }

    /// Occupancy snapshot.
    pub(crate) fn stats(&self) -> GateStats {
        let slots = self.lock();
        GateStats {
            workers: self.workers,
            capacity: self.capacity,
            inflight: slots.admitted,
            draining: slots.draining,
        }
    }

    fn ticket(&self) -> Ticket<'_> {
        Ticket { gate: self, admitted: Instant::now(), running: false }
    }

    /// Every update of `Slots` is one step that leaves it valid, so a
    /// guard poisoned by a panic elsewhere is still good to use; and a
    /// ticket's `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One admitted check: a slot of the gate until it drops.
#[derive(Debug)]
pub(crate) struct Ticket<'g> {
    gate: &'g Gate,
    admitted: Instant,
    /// Whether this ticket also holds a running slot.
    running: bool,
}

impl Ticket<'_> {
    /// Waits for a running slot, then runs `job` on the calling thread.
    /// The time from admission to start lands in the `serve.queue_wait`
    /// histogram. Both slots are released when `job` returns or unwinds.
    pub(crate) fn run<R>(mut self, job: impl FnOnce() -> R) -> R {
        let mut slots = self.gate.lock();
        while slots.running >= self.gate.workers {
            slots = self.gate.changed.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        slots.running += 1;
        drop(slots);
        self.running = true;
        ppchecker_obs::histogram("serve.queue_wait").record(self.admitted.elapsed());
        job()
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut slots = self.gate.lock();
        slots.admitted -= 1;
        if self.running {
            slots.running -= 1;
        }
        drop(slots);
        self.gate.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Runs `job` once per ticket, each on its own scoped thread.
    fn run_each<'g>(tickets: Vec<Ticket<'g>>, job: &(impl Fn() + Sync)) {
        thread::scope(|scope| {
            for ticket in tickets {
                scope.spawn(move || ticket.run(job));
            }
        });
    }

    /// Counts this run in `live` and `peak`, then holds its running slot
    /// until a second run is live too, or until `patience` runs out.
    fn wait_for_company(live: &AtomicUsize, peak: &AtomicUsize, patience: Duration) {
        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        let deadline = Instant::now() + patience;
        while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        live.fetch_sub(1, Ordering::SeqCst);
    }

    #[test]
    fn gate_runs_jobs_and_reports_occupancy() {
        let gate = Gate::new(2, 4);
        assert_eq!(gate.stats().capacity, 6);
        let counter = AtomicUsize::new(0);
        let tickets = gate.try_admit(6).unwrap();
        assert_eq!(gate.stats().inflight, 6);
        run_each(tickets, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(gate.stats().inflight, 0);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let gate = Gate::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        thread::scope(|scope| {
            // Fill both slots: one check running, one waiting to run.
            for ticket in gate.try_admit(2).unwrap() {
                let release_rx = &release_rx;
                scope.spawn(move || ticket.run(|| release_rx.lock().unwrap().recv()));
            }
            assert_eq!(gate.try_admit(1).unwrap_err(), Refused::Overloaded);
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
        });
        assert!(gate.try_admit(1).is_ok());
    }

    #[test]
    fn unused_ticket_slots_release_on_drop() {
        let gate = Gate::new(1, 3);
        let tickets = gate.try_admit(4).unwrap();
        assert_eq!(gate.stats().inflight, 4);
        assert_eq!(gate.try_admit(1).unwrap_err(), Refused::Overloaded);
        drop(tickets);
        assert_eq!(gate.stats().inflight, 0);
    }

    #[test]
    fn draining_pool_rejects_new_admissions_but_finishes_work() {
        let gate = Gate::new(1, 2);
        let ticket = gate.try_admit(1).unwrap().pop().unwrap();
        gate.start_drain();
        assert_eq!(gate.try_admit(1).unwrap_err(), Refused::Draining);
        assert!(gate.admit_blocking().is_none());
        assert!(gate.stats().draining);
        // The admitted check still runs to completion.
        assert_eq!(ticket.run(|| 21 * 2), 42);
        assert_eq!(gate.stats().inflight, 0);
    }

    #[test]
    fn panicking_job_releases_its_slot() {
        // 'static, so a run stuck behind a leaked slot fails the test on a
        // detached thread instead of hanging it.
        let gate: &'static Gate = Box::leak(Box::new(Gate::new(1, 1)));
        let ticket = gate.try_admit(1).unwrap().pop().unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ticket.run(|| panic!("job blew up"))
        }));
        assert!(unwound.is_err());
        // Both slots came back: the full capacity admits again, and a run
        // finds its running slot free.
        assert_eq!(gate.stats().inflight, 0);
        let ticket = gate.try_admit(2).unwrap().pop().unwrap();
        let (ran_tx, ran_rx) = mpsc::channel();
        let runner = thread::spawn(move || ran_tx.send(ticket.run(|| 7)));
        assert_eq!(ran_rx.recv_timeout(Duration::from_secs(10)), Ok(7), "the running slot leaked");
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn queue_wait_runs_from_admission_to_start() {
        let queue_wait = ppchecker_obs::histogram("serve.queue_wait");
        let gate = Gate::new(1, 1);
        let before = queue_wait.snapshot();
        let ticket = gate.try_admit(1).unwrap().pop().unwrap();
        // Time spent holding the ticket before `run` is queue time too:
        // a `/batch` ticket waits until a worker reaches its app.
        thread::sleep(Duration::from_millis(250));
        ticket.run(|| ());
        // Other tests record into the same histogram meanwhile; none of
        // their waits is this long (the longest, a fourth run behind three
        // of `one_worker_never_runs_two_checks_at_once`, is ~60 ms).
        let recorded = queue_wait.snapshot().delta_since(&before);
        assert!(recorded.count >= 1, "the check's queue wait was not recorded");
        assert!(
            recorded.max_duration() >= Duration::from_millis(250),
            "queue wait {:?} does not start at admission",
            recorded.max_duration()
        );
    }

    #[test]
    fn blocking_admission_waits_for_capacity() {
        let gate = Gate::new(1, 1);
        let mut held = gate.try_admit(2).unwrap();
        let (admitted_tx, admitted_rx) = mpsc::channel();
        thread::scope(|scope| {
            scope.spawn(|| {
                let ticket = gate.admit_blocking().expect("not draining");
                admitted_tx.send(ticket.run(|| 1)).unwrap();
            });
            // The gate is full, so the waiter stays blocked ...
            let waiting = admitted_rx.recv_timeout(Duration::from_millis(50));
            assert_eq!(waiting, Err(mpsc::RecvTimeoutError::Timeout));
            // ... until a slot frees.
            drop(held.pop());
            assert_eq!(admitted_rx.recv().unwrap(), 1);
        });
        drop(held);
        assert_eq!(gate.stats().inflight, 0);
    }

    #[test]
    fn one_worker_never_runs_two_checks_at_once() {
        let gate = Gate::new(1, 3);
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // Each run waits for company; a second run let in beside it ends
        // the wait and shows in `peak`.
        run_each(gate.try_admit(4).unwrap(), &|| {
            wait_for_company(&live, &peak, Duration::from_millis(20));
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "runs overlapped past workers = 1");
    }

    #[test]
    fn two_workers_run_two_checks_at_once() {
        let gate = Gate::new(2, 2);
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        run_each(gate.try_admit(2).unwrap(), &|| {
            wait_for_company(&live, &peak, Duration::from_secs(5));
        });
        assert_eq!(peak.load(Ordering::SeqCst), 2, "workers = 2 ran one check at a time");
    }
}
