//! A hand-rolled work-stealing thread pool over `std::thread::scope`.
//!
//! The workspace builds offline — no `rayon` — so the driver brings its
//! own pool, specialised for the shape of a batch allocation run: the
//! full task list is known up front, tasks are independent, and per-task
//! cost varies by orders of magnitude (a five-instruction xlisp helper vs
//! a cc1 tail function). The classic work-stealing layout fits:
//!
//! * one double-ended queue per worker, seeded round-robin with the
//!   caller's task order, so a cheapest-first schedule stays
//!   cheapest-first within every worker;
//! * a worker pops from the **front** of its own deque (preserving the
//!   scheduler's order locally) and, when empty, steals from the **back**
//!   of a victim's deque — grabbing the victim's most expensive pending
//!   task, which amortises the steal and rebalances exactly when the
//!   size-skewed tail would otherwise serialise the run;
//! * no task ever spawns another, so termination is a single sweep: a
//!   worker exits when every deque is empty.
//!
//! Determinism: results are returned in *item-index order* regardless of
//! which worker ran what or when, so callers observe identical output for
//! any worker count (provided the tasks themselves are deterministic).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-run pool accounting, reported through `DriverStats`.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Time each worker spent executing tasks (index = worker id).
    pub busy: Vec<Duration>,
    /// Tasks executed per worker (index = worker id). The imbalance
    /// between this and an even split is what stealing absorbed.
    pub tasks_per_worker: Vec<usize>,
    /// Tasks each worker claimed from a *victim's* deque rather than its
    /// own (index = worker id) — how often rebalancing actually fired.
    pub steals_per_worker: Vec<usize>,
    /// Time each claimed task spent queued before a worker popped it
    /// (run start to pop, summed per claiming worker). All tasks are
    /// seeded up front, so this is exact, not an approximation.
    pub queue_wait_per_worker: Vec<Duration>,
}

/// Pop a task: own deque first (front), then steal (back) sweeping the
/// victims from `w + 1` around the ring. The flag reports whether the
/// task came from a victim (a steal) rather than the worker's own deque.
fn next_task(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<(usize, bool)> {
    if let Some(i) = deques[w].lock().unwrap().pop_front() {
        return Some((i, false));
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(i) = deques[(w + off) % n].lock().unwrap().pop_back() {
            return Some((i, true));
        }
    }
    None
}

/// Run `f(i, &items[i])` for every index in `order` across `jobs`
/// workers and return the results in item-index order.
///
/// `order` must be a permutation of `0..items.len()`; it controls the
/// *dispatch* order (the scheduler's priority), not the result order.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the item indices, or if a
/// task panics (the panic is propagated once the remaining workers have
/// drained their queues).
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], order: &[usize], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    assert_eq!(order.len(), n, "order must cover every item exactly once");
    let mut seen = vec![false; n];
    for &i in order {
        assert!(i < n && !seen[i], "order must be a permutation");
        seen[i] = true;
    }

    let jobs = jobs.max(1).min(n.max(1));
    let start = Instant::now();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, &i) in order.iter().enumerate() {
        deques[k % jobs].lock().unwrap().push_back(i);
    }

    struct TaskReport<R> {
        index: usize,
        worker: usize,
        result: R,
        busy: Duration,
        stolen: bool,
        queue_wait: Duration,
    }
    let (tx, rx) = mpsc::channel::<TaskReport<R>>();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let deques = &deques;
            let f = &f;
            s.spawn(move || {
                while let Some((i, stolen)) = next_task(deques, w) {
                    // Every task is seeded before the workers start, so
                    // run-start-to-pop is exactly its time in the queue.
                    let queue_wait = start.elapsed();
                    let t0 = Instant::now();
                    let r = f(i, &items[i]);
                    // The receiver outlives the scope; a send can only
                    // fail if the parent thread died, in which case the
                    // panic is already propagating.
                    let _ = tx.send(TaskReport {
                        index: i,
                        worker: w,
                        result: r,
                        busy: t0.elapsed(),
                        stolen,
                        queue_wait,
                    });
                }
            });
        }
    });
    drop(tx);

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut busy = vec![Duration::ZERO; jobs];
    let mut tasks_per_worker = vec![0usize; jobs];
    let mut steals_per_worker = vec![0usize; jobs];
    let mut queue_wait_per_worker = vec![Duration::ZERO; jobs];
    for t in rx {
        results[t.index] = Some(t.result);
        busy[t.worker] += t.busy;
        tasks_per_worker[t.worker] += 1;
        if t.stolen {
            steals_per_worker[t.worker] += 1;
        }
        queue_wait_per_worker[t.worker] += t.queue_wait;
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every index in the permutation produced a result"))
        .collect();
    (
        results,
        PoolStats {
            busy,
            tasks_per_worker,
            steals_per_worker,
            queue_wait_per_worker,
        },
    )
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag, guarded together so a worker can
/// never miss the wake-up that ends its wait.
struct Queue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct ServiceShared {
    queue: Mutex<Queue>,
    cond: Condvar,
    active: AtomicUsize,
}

impl ServiceShared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("jobs run outside the queue lock, so no panic poisons it")
    }
}

/// The long-lived sibling of [`run_indexed`]: one FIFO queue drained by
/// `jobs` workers, accepting jobs continuously instead of a frozen task
/// list — the daemon multiplexes network requests onto it.
///
/// The batch pool steals because its whole task list is known up front
/// and sorted cheapest-first, so the tail's largest tasks must start
/// early. The daemon's jobs arrive one at a time: an idle worker simply
/// takes the oldest one.
///
/// Robustness properties the batch pool never needed:
///
/// * **panic isolation** — a job that panics is caught and its worker
///   keeps serving; a panic can never take the pool down (callers
///   typically also catch panics themselves to turn them into per-request
///   error responses — this is the second line of defense);
/// * **graceful shutdown** — [`ServicePool::shutdown`] lets every queued
///   job run before joining the workers, so an accepted request is never
///   dropped on the floor;
/// * the queue itself is unbounded: *admission control belongs to the
///   caller* (the daemon rejects with `BUSY` before submitting), so the
///   pool never has to make a load-shedding decision it lacks context
///   for.
pub struct ServicePool {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServicePool {
    /// Spin up `jobs` long-lived workers (0 is treated as 1).
    pub fn new(jobs: usize) -> ServicePool {
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            cond: Condvar::new(),
            active: AtomicUsize::new(0),
        });
        let workers = (0..jobs.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("regalloc-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ServicePool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Queue a job behind every job already queued.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.queue().jobs.push_back(Box::new(job));
        self.shared.cond.notify_one();
    }

    /// Jobs queued but not yet claimed by a worker.
    pub fn queued(&self) -> usize {
        self.shared.queue().jobs.len()
    }

    /// Jobs currently executing.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// True when nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.active() == 0
    }

    /// Drain the queue (every already-submitted job runs) and join the
    /// workers. Idempotent; jobs submitted after shutdown never run.
    pub fn shutdown(&self) {
        self.shared.queue().shutting_down = true;
        self.shared.cond.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let job = {
            let mut q = shared.queue();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    // Counted active before the queue lock drops, so
                    // `is_idle` never sees a claimed job in neither place.
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                if q.shutting_down {
                    return;
                }
                q = shared
                    .cond
                    .wait(q)
                    .expect("jobs run outside the queue lock, so no panic poisons it");
            }
        };
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let order: Vec<usize> = (0..items.len()).rev().collect();
        let seq = run_indexed(1, &items, &order, |_, &x| x * x).0;
        for jobs in [2, 4, 8] {
            let par = run_indexed(jobs, &items, &order, |_, &x| x * x).0;
            assert_eq!(par, seq, "jobs={jobs}");
        }
        assert_eq!(seq[10], 100);
    }

    #[test]
    fn skewed_costs_are_stolen_across_workers() {
        // The first task parks its worker until the second worker has
        // started a task (bounded wait, so a starved pool still ends the
        // test); the remaining cheap tasks must then flow to the other
        // worker or the run serialises. This is deterministic where a
        // pure cost skew is not: under CPU contention the second worker
        // can spawn late enough to miss an entire skewed run.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..40).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let started = AtomicUsize::new(0);
        let (res, stats) = run_indexed(2, &items, &order, |i, &x| {
            started.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < 2
                    && t0.elapsed() < std::time::Duration::from_secs(5)
                {
                    std::thread::yield_now();
                }
            }
            let mut acc = x;
            for k in 0..40_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        });
        assert_eq!(res.len(), 40);
        let total: usize = stats.tasks_per_worker.iter().sum();
        assert_eq!(total, 40);
        assert!(
            stats.tasks_per_worker.iter().all(|&t| t > 0),
            "both workers ran tasks: {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    fn steals_and_queue_wait_are_accounted() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..16).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let started = AtomicUsize::new(0);
        let (res, stats) = run_indexed(2, &items, &order, |i, &x| {
            started.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                // Park the first worker until every other task has
                // started — the second worker can only get there by
                // stealing the parked worker's backlog (bounded wait so
                // a starved pool still ends the test).
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < items.len()
                    && t0.elapsed() < std::time::Duration::from_secs(5)
                {
                    std::thread::yield_now();
                }
            }
            x
        });
        assert_eq!(res.len(), 16);
        assert_eq!(stats.steals_per_worker.len(), 2);
        assert_eq!(stats.queue_wait_per_worker.len(), 2);
        let steals: usize = stats.steals_per_worker.iter().sum();
        assert!(
            steals > 0,
            "second worker stole the parked backlog: {:?}",
            stats.steals_per_worker
        );
    }

    #[test]
    fn empty_input_and_oversized_pool() {
        let items: Vec<u32> = Vec::new();
        let (res, _) = run_indexed(8, &items, &[], |_, &x| x);
        assert!(res.is_empty());
        let one = [7u32];
        let (res, stats) = run_indexed(64, &one, &[0], |_, &x| x + 1);
        assert_eq!(res, vec![8]);
        assert_eq!(stats.busy.len(), 1, "pool never exceeds the task count");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_duplicate_order_entries() {
        let items = [1u32, 2];
        run_indexed(2, &items, &[0, 0], |_, &x| x);
    }

    #[test]
    fn service_pool_runs_every_submitted_job() {
        let pool = ServicePool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert!(pool.is_idle());
    }

    #[test]
    fn service_pool_isolates_panics_and_keeps_serving() {
        let pool = ServicePool::new(2);
        let ok = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let (ok, started) = (Arc::clone(&ok), Arc::clone(&started));
            pool.submit(move || {
                started.fetch_add(1, Ordering::SeqCst);
                if i % 4 == 0 {
                    panic!("injected job panic");
                }
                ok.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        // Every job ran, the five panicking ones included, and the jobs
        // queued behind each panic still ran on a surviving worker.
        assert_eq!(started.load(Ordering::SeqCst), 20);
        assert_eq!(ok.load(Ordering::SeqCst), 15);
        assert!(pool.is_idle());
    }

    #[test]
    fn service_pool_shutdown_drains_queued_jobs_first() {
        // One worker, many queued jobs: shutdown must let the backlog run.
        let pool = ServicePool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "no accepted job dropped");
    }
}
