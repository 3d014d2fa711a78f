//! A minimal scoped thread pool: shard an indexed job list across
//! `std::thread` workers with a shared atomic work queue.
//!
//! The build is offline (no rayon), so this module provides the two
//! primitives the engines need:
//!
//! * [`map_indexed`] — a deterministic parallel map over a known job
//!   count (the DSE engine's batch phases). Workers claim job indices
//!   from a shared atomic counter (dynamic load balancing — a worker
//!   stuck on an expensive point does not hold up the rest of the queue)
//!   and results are reassembled in index order, so the output is
//!   identical for any worker count or interleaving;
//! * [`for_each_ordered`] — a deterministic streaming pipeline over an
//!   iterator of unknown length (the `serve` loop's stdin requests).
//!   Workers process items concurrently, a reorder buffer hands results
//!   to the sink strictly in input order, and backpressure bounds how far
//!   the pipeline reads ahead of the sink.
//!
//! It also provides [`Gate`], the bounded-admission primitive behind the
//! network server: at most `slots` callers hold a permit concurrently, at
//! most `queue` more wait for one, and any caller beyond that is shed
//! immediately instead of blocking — load shedding as a return value, so
//! the service layer can answer overflow with a well-formed error instead
//! of an unbounded thread pile-up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Runs `job(0..jobs)` across up to `workers` threads and returns the
/// results in index order.
///
/// `workers == 0` or `workers == 1` (or a single job) runs inline on the
/// calling thread — the sequential path, with no thread or synchronization
/// overhead, used as the baseline in the scaling bench. The worker count is
/// clamped to the job count. Otherwise the calling thread is one of the
/// workers: `workers - 1` helper threads are spawned, and the caller claims
/// jobs from the same queue instead of idling in `join`. `job` must be safe
/// to call concurrently from multiple threads.
///
/// # Panics
///
/// Propagates a panic from any `job` invocation, whichever thread ran it,
/// after every helper has been joined.
pub fn map_indexed<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(jobs).max(1);
    if workers == 1 {
        return (0..jobs).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let work = || {
        let mut claimed = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return claimed;
            }
            claimed.push((i, job(i)));
        }
    };
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(jobs);
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // A panic here unwinds out of the scope, which joins the helpers
        // before it re-raises the panic.
        tagged.extend(work());
        for helper in helpers {
            tagged.extend(helper.join().expect("DSE worker panicked"));
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), jobs);
    tagged.into_iter().map(|(_, value)| value).collect()
}

/// The machine's available parallelism, defaulting to 1 when unknown.
/// Read once per process: the query costs tens of microseconds (it reads
/// the cgroup CPU quota), and every `dse` request asks for it.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Streams `items` through `job` on up to `workers` threads and hands every
/// result to `sink` **strictly in input order** — the deterministic
/// pipeline behind `bitfusion-cli serve`.
///
/// Unlike [`map_indexed`] the input length need not be known up front: the
/// iterator is pulled lazily (at most `2 × workers` results are buffered
/// ahead of the sink, so a slow consumer applies backpressure instead of
/// letting the pipeline read arbitrarily far ahead), and each result is
/// delivered as soon as every earlier result has been delivered, not at the
/// end of the batch.
///
/// `workers <= 1` runs everything inline on the calling thread — the
/// sequential baseline with identical observable behaviour.
///
/// # Panics
///
/// Propagates a panic from any `job` or `sink` invocation (remaining
/// workers are released, never left blocked on the reorder buffer).
pub fn for_each_ordered<I, T, F, S>(items: I, workers: usize, job: F, mut sink: S)
where
    I: Iterator + Send,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
    S: FnMut(usize, T),
{
    if workers <= 1 {
        for (i, item) in items.enumerate() {
            let out = job(i, item);
            sink(i, out);
        }
        return;
    }

    struct State<T> {
        /// Results waiting for every earlier index to be emitted.
        buf: BTreeMap<usize, T>,
        /// The next index the sink will receive.
        next_emit: usize,
        /// Workers still running (tracked via a drop guard so a panicking
        /// job cannot leave the consumer waiting forever).
        active: usize,
        /// A job panicked: its index will never insert, so everyone bails
        /// out and the scope join re-raises the panic.
        panicked: bool,
    }

    /// Locks a mutex, tolerating poisoning (a panicked worker must not
    /// wedge the consumer — the panic is re-raised by the scope join).
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    let window = 2 * workers;
    let source = Mutex::new(items.enumerate());
    let state = Mutex::new(State::<T> {
        buf: BTreeMap::new(),
        next_emit: 0,
        active: workers,
        panicked: false,
    });
    let ready = Condvar::new(); // result inserted, or a worker retired
    let slots = Condvar::new(); // the sink drained a buffered result

    struct Retire<'a, T> {
        state: &'a Mutex<State<T>>,
        ready: &'a Condvar,
        slots: &'a Condvar,
    }
    impl<T> Drop for Retire<'_, T> {
        fn drop(&mut self) {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.active -= 1;
            if thread::panicking() {
                // The claimed index will never insert: wake the consumer
                // (stuck on `ready`) and any workers gated on `slots` so
                // nobody waits for it.
                st.panicked = true;
            }
            self.ready.notify_all();
            self.slots.notify_all();
        }
    }

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _retire = Retire {
                    state: &state,
                    ready: &ready,
                    slots: &slots,
                };
                loop {
                    // Backpressure: claim new work only while the reorder
                    // buffer has room. In-flight items always complete and
                    // insert, so the worker holding `next_emit` is never
                    // gated here and the sink always makes progress.
                    {
                        let mut st = lock(&state);
                        while st.buf.len() >= window && !st.panicked {
                            st = slots.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                        if st.panicked {
                            return;
                        }
                    }
                    let claimed = lock(&source).next();
                    let Some((i, item)) = claimed else { break };
                    let out = job(i, item);
                    let mut st = lock(&state);
                    st.buf.insert(i, out);
                    ready.notify_all();
                }
            });
        }

        // The calling thread is the consumer: emit results in index order
        // as they arrive, until every worker has retired and the buffer is
        // drained. The guard mirrors Retire for the sink: if `sink` panics,
        // workers gated on `slots` must wake and bail rather than wait for
        // a drain that will never come (the scope join would deadlock).
        struct Abort<'a, T> {
            state: &'a Mutex<State<T>>,
            slots: &'a Condvar,
        }
        impl<T> Drop for Abort<'_, T> {
            fn drop(&mut self) {
                if thread::panicking() {
                    self.state
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .panicked = true;
                    self.slots.notify_all();
                }
            }
        }
        let _abort = Abort {
            state: &state,
            slots: &slots,
        };
        let mut st = lock(&state);
        loop {
            let i = st.next_emit;
            if let Some(out) = st.buf.remove(&i) {
                st.next_emit += 1;
                slots.notify_all();
                drop(st);
                sink(i, out);
                st = lock(&state);
                continue;
            }
            if st.panicked || st.active == 0 {
                // Indices are claimed contiguously and every claimed item
                // inserts before its worker retires, so a drained pool with
                // `next_emit` absent means the input is exhausted — or a
                // job panicked, in which case that index never arrives and
                // the scope join below re-raises the panic.
                break;
            }
            st = ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    });
}

/// A bounded admission gate: `slots` concurrent permit holders, a wait
/// queue of at most `queue` callers, and immediate shedding beyond that.
///
/// [`Gate::admit`] either returns a [`Permit`] (possibly after waiting in
/// the bounded queue for a slot) or [`Shed`](Admission::Shed) when the
/// queue is already full — it never blocks an over-limit caller. Dropping
/// the permit releases the slot and wakes one waiter. Waiters are woken in
/// arrival order (ticketed FIFO), so a queued caller cannot be starved by
/// later arrivals.
#[derive(Debug)]
pub struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    slots: usize,
    queue: usize,
}

#[derive(Debug)]
struct GateState {
    in_flight: usize,
    queued: usize,
    /// Next ticket to hand to a waiter.
    next_ticket: u64,
    /// The ticket currently allowed to take a freed slot.
    serving: u64,
}

/// The outcome of [`Gate::admit`].
#[derive(Debug)]
pub enum Admission<'a> {
    /// A slot was acquired (immediately or after queueing); work may run.
    Admitted(Permit<'a>),
    /// Both the slots and the wait queue were full; the caller must not
    /// run the work.
    Shed,
}

/// An acquired slot; dropping it releases the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate with `slots` concurrent permits (min 1) and room for
    /// `queue` waiting callers.
    pub fn new(slots: usize, queue: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                in_flight: 0,
                queued: 0,
                next_ticket: 0,
                serving: 0,
            }),
            freed: Condvar::new(),
            slots: slots.max(1),
            queue,
        }
    }

    /// Maximum concurrent permit holders.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Maximum waiting callers before shedding.
    pub fn queue_capacity(&self) -> usize {
        self.queue
    }

    /// Permits currently held.
    pub fn in_flight(&self) -> usize {
        self.lock().in_flight
    }

    /// Callers currently waiting for a slot.
    pub fn queue_depth(&self) -> usize {
        self.lock().queued
    }

    /// Acquires a slot, waiting in the bounded queue if necessary, or
    /// sheds the caller when the queue is full.
    pub fn admit(&self) -> Admission<'_> {
        let mut st = self.lock();
        if st.in_flight < self.slots && st.queued == 0 {
            st.in_flight += 1;
            return Admission::Admitted(Permit { gate: self });
        }
        if st.queued >= self.queue {
            return Admission::Shed;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queued += 1;
        while st.in_flight >= self.slots || st.serving != ticket {
            st = self.freed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.queued -= 1;
        st.serving += 1;
        st.in_flight += 1;
        // The freed slot this waiter just took may not be the only one:
        // wake the next ticket too in case slots opened while it queued.
        self.freed.notify_all();
        Admission::Admitted(Permit { gate: self })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.in_flight -= 1;
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 7, 64] {
            let out = map_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = map_indexed(100, 4, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = map_indexed(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn default_workers_is_positive() {
        // Read once per process, so every call agrees.
        let first = default_workers();
        assert!(first >= 1);
        for _ in 0..3 {
            assert_eq!(default_workers(), first);
        }
    }

    /// Blocks a helper's job until the calling thread has run one, so the
    /// helpers cannot drain the queue first. Gives up after 10 s.
    fn wait_for(flag: &std::sync::atomic::AtomicBool) {
        let start = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(10),
                "the calling thread never claimed a job"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        for workers in [2, 4] {
            let caller = thread::current().id();
            let caller_ran = std::sync::atomic::AtomicBool::new(false);
            let ran_on = map_indexed(16, workers, |_| {
                let me = thread::current().id();
                if me == caller {
                    caller_ran.store(true, Ordering::SeqCst);
                } else {
                    wait_for(&caller_ran);
                }
                me
            });
            assert!(ran_on.contains(&caller), "{workers} workers");
            let threads: std::collections::HashSet<_> = ran_on.iter().collect();
            assert!(threads.len() <= workers, "{workers} workers: {} threads", threads.len());
        }
    }

    #[test]
    fn a_panic_on_the_calling_thread_propagates_after_the_helpers_join() {
        let caller = thread::current().id();
        let caller_ran = std::sync::atomic::AtomicBool::new(false);
        let helper_done = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_indexed(8, 2, |i| {
                if thread::current().id() == caller {
                    caller_ran.store(true, Ordering::SeqCst);
                    panic!("job {i} failed on the calling thread");
                }
                wait_for(&caller_ran);
                std::thread::sleep(std::time::Duration::from_millis(2));
                helper_done.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "the job panic must propagate");
        // The helper drained the queue and was joined before the panic
        // reached us: its count is final.
        let done = helper_done.load(Ordering::SeqCst);
        assert_eq!(done, 7, "every job but the panicked one ran");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(helper_done.load(Ordering::SeqCst), done);
    }

    #[test]
    fn ordered_pipeline_emits_in_input_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 8] {
            let mut seen = Vec::new();
            for_each_ordered(0..37usize, workers, |i, x| (i, x * 2), |i, (ji, out)| {
                assert_eq!(i, ji);
                seen.push(out);
            });
            assert_eq!(
                seen,
                (0..37).map(|x| x * 2).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn ordered_pipeline_handles_uneven_job_times() {
        // Early items are the slowest: the reorder buffer must hold the
        // fast late results until the slow early ones arrive.
        let mut seen = Vec::new();
        for_each_ordered(
            0..16usize,
            4,
            |_, x| {
                if x < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20 - 4 * x as u64));
                }
                x
            },
            |_, out| seen.push(out),
        );
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_pipeline_empty_input() {
        let mut calls = 0;
        for_each_ordered(std::iter::empty::<u32>(), 4, |_, x| x, |_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn ordered_pipeline_propagates_a_panic_even_with_a_full_buffer() {
        // Job 0 panics while the other workers race far ahead and fill the
        // reorder buffer to the backpressure window: the pipeline must
        // panic, not deadlock (regression: workers used to block on
        // `slots` forever while the consumer waited for index 0).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_ordered(
                0..1000usize,
                4,
                |_, x| {
                    if x == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("job 0 failed");
                    }
                    x
                },
                |_, _| {},
            );
        }));
        assert!(result.is_err(), "the job panic must propagate");
    }

    #[test]
    fn ordered_pipeline_propagates_a_sink_panic_without_hanging() {
        // Only the consumer calls the sink; when it unwinds, workers gated
        // on the backpressure window must be released so the scope join
        // can complete and re-raise the panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_ordered(
                0..1000usize,
                4,
                |_, x| x,
                |_, x| {
                    if x == 3 {
                        panic!("sink failed");
                    }
                },
            );
        }));
        assert!(result.is_err(), "the sink panic must propagate");
    }

    #[test]
    fn gate_admits_up_to_slots_immediately() {
        let gate = Gate::new(2, 4);
        let a = gate.admit();
        let b = gate.admit();
        assert!(matches!(a, Admission::Admitted(_)));
        assert!(matches!(b, Admission::Admitted(_)));
        assert_eq!(gate.in_flight(), 2);
        assert_eq!(gate.queue_depth(), 0);
        drop(a);
        assert_eq!(gate.in_flight(), 1);
    }

    #[test]
    fn gate_sheds_beyond_slots_plus_queue() {
        // 1 slot, 0 queue: the second concurrent caller is shed, never
        // blocked.
        let gate = Gate::new(1, 0);
        let held = gate.admit();
        assert!(matches!(held, Admission::Admitted(_)));
        assert!(matches!(gate.admit(), Admission::Shed));
        drop(held);
        assert!(matches!(gate.admit(), Admission::Admitted(_)));
    }

    #[test]
    fn gate_queued_caller_runs_after_a_release() {
        let gate = Gate::new(1, 2);
        let ran = AtomicU64::new(0);
        thread::scope(|scope| {
            let held = gate.admit();
            assert!(matches!(held, Admission::Admitted(_)));
            let waiter = scope.spawn(|| match gate.admit() {
                Admission::Admitted(_) => ran.fetch_add(1, Ordering::Relaxed),
                Admission::Shed => panic!("queue had room"),
            });
            // Wait until the waiter is actually queued, then release.
            while gate.queue_depth() == 0 {
                thread::yield_now();
            }
            assert_eq!(ran.load(Ordering::Relaxed), 0, "queued, not running");
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.queue_depth(), 0);
    }

    #[test]
    fn gate_queue_is_fifo() {
        // Two waiters queue in order; releasing slots serves them in
        // arrival order (tickets), not wakeup-race order.
        let gate = Gate::new(1, 4);
        let order = Mutex::new(Vec::new());
        let (gate, order) = (&gate, &order);
        thread::scope(|scope| {
            let held = gate.admit();
            for tag in 0..3u32 {
                scope.spawn(move || {
                    // Stagger arrivals so tickets are issued in tag order.
                    while gate.queue_depth() < tag as usize {
                        thread::yield_now();
                    }
                    let permit = gate.admit();
                    order.lock().unwrap().push(tag);
                    drop(permit);
                });
                while gate.queue_depth() < (tag + 1) as usize {
                    thread::yield_now();
                }
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn gate_never_exceeds_slots_under_contention() {
        let gate = Gate::new(3, 64);
        let peak = AtomicU64::new(0);
        let live = AtomicU64::new(0);
        thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        if let Admission::Admitted(_p) = gate.admit() {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            live.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "{}", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn ordered_pipeline_runs_every_job_once() {
        let hits = AtomicU64::new(0);
        let mut emitted = 0u64;
        for_each_ordered(
            0..100usize,
            7,
            |_, x| {
                hits.fetch_add(1, Ordering::Relaxed);
                x
            },
            |_, _| emitted += 1,
        );
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(emitted, 100);
    }
}
