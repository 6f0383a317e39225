//! The batched solve queue and admission controller.
//!
//! Per-connection threads used to dispatch straight into
//! [`crate::Portfolio::run`], so eight concurrent clients meant eight
//! overlapping rayon fan-outs fighting for the same worker pool. The
//! `SolveQueue` inverts that: connection threads *enqueue* decoded solve
//! jobs and block on a response channel, while one scheduler thread drains
//! the queue in batches, coalesces identical requests (single-flight:
//! solve once, fan the frame to every waiter), and runs the distinct ones
//! through [`crate::Portfolio::run_batch`] — one rayon wave that keeps the
//! pool saturated instead of oversubscribed.
//!
//! **Admission control** happens at enqueue time, not at timeout time. A
//! job arrives with a service-time estimate (the warm or cold median from
//! the daemon's latency histograms, picked by probing whether all of its
//! cache keys are resident); when the queued-plus-inflight estimate
//! already exceeds the request's own deadline, or the queue is at
//! capacity, the job is **shed** with a structured `overloaded` frame
//! carrying `retry_after_ms` — the client learns immediately instead of
//! burning its deadline in line.
//!
//! The queue itself is transport-free and deterministic: everything
//! time-dependent (estimates, deadlines) is computed by the caller and
//! carried on the job, so unit tests drive admission decisions exactly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::solver::Solver;

use super::protocol::SolveReq;

/// How long an under-full drain lingers for peer requests to join the
/// batch. Concurrent clients replaying the same workload land their
/// requests within microseconds of each other; without the window the
/// scheduler grabs the first arrival solo, solves it, and the peers form
/// a second (redundant) flight. Two milliseconds is far above loopback
/// jitter and far below any solve worth batching — a lone request pays at
/// most this once, and shutdown bypasses it.
pub(crate) const COALESCE_WINDOW: Duration = Duration::from_millis(2);

/// One decoded, validated solve waiting for the scheduler thread.
///
/// The connection thread has already instantiated the workload, resolved
/// the solver list, fingerprinted the request, and estimated its service
/// time — the scheduler only groups, runs, and responds.
pub(crate) struct SolveJob {
    /// The decoded request (seed/deadline fields still unresolved —
    /// resolution against config defaults happens in the solve path, and
    /// the dedup fingerprint already covers the resolved values).
    pub req: SolveReq,
    /// The instantiated workload graph.
    pub workload: spg::Spg,
    /// The resolved solver set.
    pub solvers: Vec<std::sync::Arc<dyn Solver>>,
    /// Full request-identity fingerprint: jobs with equal `dedup` are
    /// guaranteed to produce identical response frames, so the scheduler
    /// solves one and fans the frame out.
    pub dedup: u64,
    /// Estimated service time in nanoseconds (0 = no history yet).
    pub est_ns: u64,
    /// The request's resolved deadline in nanoseconds, if any — the
    /// admission bound.
    pub deadline_ns: Option<u64>,
    /// When the request frame arrived (latency and budget anchor).
    pub arrival: Instant,
    /// Where the response frame goes.
    pub tx: Sender<Json>,
}

/// Admission verdict for one job.
pub(crate) enum Admission {
    /// Queued; the caller blocks on its receiver.
    Queued,
    /// Shed at the door: predicted queue wait would blow the deadline, or
    /// the queue is full. The caller answers with an `overloaded` frame.
    Shed {
        /// The queued-plus-inflight service-time estimate at decision
        /// time (the `retry_after_ms` basis).
        predicted_wait_ns: u64,
        /// Queue depth at decision time.
        queue_depth: u64,
    },
    /// No scheduler will drain the queue — it has drained and exited
    /// (shutdown), or never ran (`batching: false`): the caller runs the
    /// job inline, so no request is ever lost.
    Draining(Box<SolveJob>),
}

/// Counter snapshot for the `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Batches the scheduler thread has executed.
    pub batches: u64,
    /// Solve jobs that went through the batched path (including
    /// coalesced ones).
    pub batched_requests: u64,
    /// Jobs answered from another identical job's solve (single-flight).
    pub deduped: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
}

/// The bounded MPSC solve queue: connection threads push, the scheduler
/// thread drains.
pub(crate) struct SolveQueue {
    cap: usize,
    queue: Mutex<VecDeque<SolveJob>>,
    available: Condvar,
    /// Set once the scheduler thread has drained and exited (or from the
    /// start, without one); admits after this point bounce back to the
    /// caller as [`Admission::Draining`].
    closed: AtomicBool,
    /// Set by shutdown to tell the scheduler thread to drain and exit.
    closing: AtomicBool,
    /// Sum of `est_ns` over queued jobs.
    queued_est_ns: AtomicU64,
    /// Sum of `est_ns` over the batch currently executing.
    inflight_est_ns: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    deduped: AtomicU64,
    shed: AtomicU64,
}

impl SolveQueue {
    /// An open queue holding at most `cap` waiting jobs.
    pub fn new(cap: usize) -> Self {
        SolveQueue {
            cap,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            queued_est_ns: AtomicU64::new(0),
            inflight_est_ns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// A queue no scheduler drains: it starts closed, so every admit
    /// bounces as [`Admission::Draining`] and the caller solves inline.
    pub fn without_scheduler() -> Self {
        let q = SolveQueue::new(0);
        q.closing.store(true, Ordering::SeqCst);
        q.closed.store(true, Ordering::SeqCst);
        q
    }

    /// Applies admission control and enqueues on success. The predicted
    /// wait is the sum of service-time estimates ahead of this job
    /// (queued plus the batch in flight); a job whose own deadline is
    /// tighter than that wait is shed *now*, before it burns its budget
    /// in line.
    pub fn admit(&self, job: SolveJob) -> Admission {
        let mut q = self.queue.lock().unwrap();
        if self.closed.load(Ordering::SeqCst) {
            return Admission::Draining(Box::new(job));
        }
        let predicted_wait_ns = self
            .queued_est_ns
            .load(Ordering::Relaxed)
            .saturating_add(self.inflight_est_ns.load(Ordering::Relaxed));
        let over_deadline = job
            .deadline_ns
            .is_some_and(|deadline| predicted_wait_ns > deadline);
        if q.len() >= self.cap || over_deadline {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed {
                predicted_wait_ns,
                queue_depth: q.len() as u64,
            };
        }
        self.queued_est_ns.fetch_add(job.est_ns, Ordering::Relaxed);
        q.push_back(job);
        self.available.notify_one();
        Admission::Queued
    }

    /// Blocks until at least one job is queued (or shutdown), then drains
    /// up to `max` jobs. Returns `None` once the queue is empty *and*
    /// closing — after which the queue is marked closed and every
    /// subsequent [`SolveQueue::admit`] bounces.
    ///
    /// A drain that would come in under `max` first **lingers** for
    /// [`COALESCE_WINDOW`]: concurrent clients issue their identical
    /// requests within microseconds of each other, but an eager drain
    /// would grab the first arrival solo and solve it before its peers
    /// hit the queue, fragmenting the single-flight groups. The window is
    /// bounded (one fixed deadline per batch, never re-armed by later
    /// arrivals) so a lone request pays at most the window in extra
    /// latency, and shutdown skips it entirely.
    pub fn next_batch(&self, max: usize) -> Option<Vec<SolveJob>> {
        let mut q = self.queue.lock().unwrap();
        let mut linger_until: Option<Instant> = None;
        loop {
            if !q.is_empty() {
                if q.len() < max.max(1) && !self.closing.load(Ordering::SeqCst) {
                    let until =
                        *linger_until.get_or_insert_with(|| Instant::now() + COALESCE_WINDOW);
                    let now = Instant::now();
                    if now < until {
                        q = self.available.wait_timeout(q, until - now).unwrap().0;
                        continue;
                    }
                }
                let n = q.len().min(max.max(1));
                let jobs: Vec<SolveJob> = q.drain(..n).collect();
                let est: u64 = jobs.iter().map(|j| j.est_ns).sum();
                self.queued_est_ns.fetch_sub(est, Ordering::Relaxed);
                self.inflight_est_ns.store(est, Ordering::Relaxed);
                return Some(jobs);
            }
            if self.closing.load(Ordering::SeqCst) {
                // Closed is flipped under the queue lock, so an admit
                // either saw it set (and solves inline) or enqueued
                // before we drained — never neither.
                self.closed.store(true, Ordering::SeqCst);
                return None;
            }
            // The timeout is a safety net against a lost notification;
            // shutdown explicitly notifies.
            q = self
                .available
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    /// Marks the executing batch finished (clears the inflight estimate)
    /// and records its size and how many jobs were answered by
    /// coalescing.
    pub fn batch_done(&self, batched: u64, deduped: u64) {
        self.inflight_est_ns.store(0, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched.fetch_add(batched, Ordering::Relaxed);
        self.deduped.fetch_add(deduped, Ordering::Relaxed);
    }

    /// Tells the scheduler thread to drain and exit (idempotent).
    pub fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queue_depth: self.queue.lock().unwrap().len() as u64,
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{parse_request, Request};

    fn job(est_ns: u64, deadline_ns: Option<u64>) -> (SolveJob, std::sync::mpsc::Receiver<Json>) {
        let frame = Json::parse(
            r#"{"op":"solve","workload":{"family":"deep-chain","n":4,"seed":1},
                "platform":{"p":2,"q":2},"utilisation":0.5,"solvers":"greedy"}"#,
        )
        .unwrap();
        let Ok(Request::Solve(req)) = parse_request(&frame) else {
            panic!("fixture frame must parse as a solve");
        };
        let workload = req.workload.instantiate().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        (
            SolveJob {
                req,
                workload,
                solvers: crate::solvers::default_heuristics(),
                dedup: 0,
                est_ns,
                deadline_ns,
                arrival: Instant::now(),
                tx,
            },
            rx,
        )
    }

    #[test]
    fn admission_sheds_on_capacity_and_deadline() {
        let q = SolveQueue::new(1);
        // Empty queue, no history: everything admits, even deadline 0.
        let (j, _rx) = job(0, Some(0));
        assert!(matches!(q.admit(j), Admission::Queued));
        // Queue at capacity: shed regardless of deadline.
        let (j, _rx2) = job(0, None);
        let Admission::Shed { queue_depth, .. } = q.admit(j) else {
            panic!("full queue must shed");
        };
        assert_eq!(queue_depth, 1);

        // Predicted wait beyond the deadline: shed with the estimate.
        let roomy = SolveQueue::new(16);
        let (j, _rx3) = job(5_000_000, None); // 5 ms queued ahead
        assert!(matches!(roomy.admit(j), Admission::Queued));
        let (j, _rx4) = job(0, Some(1_000_000)); // 1 ms deadline
        let Admission::Shed {
            predicted_wait_ns, ..
        } = roomy.admit(j)
        else {
            panic!("deadline tighter than the queue must shed");
        };
        assert_eq!(predicted_wait_ns, 5_000_000);
        // An unbounded request still admits behind the same queue.
        let (j, _rx5) = job(0, None);
        assert!(matches!(roomy.admit(j), Admission::Queued));
        assert_eq!(roomy.stats().shed, 1);
        assert_eq!(roomy.stats().queue_depth, 2);
    }

    #[test]
    fn next_batch_drains_in_arrival_order_and_clears_estimates() {
        let q = SolveQueue::new(16);
        let mut rxs = Vec::new();
        for est in [1_000u64, 2_000, 3_000] {
            let (j, rx) = job(est, None);
            assert!(matches!(q.admit(j), Admission::Queued));
            rxs.push(rx);
        }
        let batch = q.next_batch(2).unwrap();
        assert_eq!(batch.len(), 2, "batch respects the drain cap");
        assert_eq!(batch[0].est_ns, 1_000, "FIFO order");
        assert_eq!(batch[1].est_ns, 2_000);
        q.batch_done(2, 1);
        let rest = q.next_batch(8).unwrap();
        assert_eq!(rest.len(), 1);
        q.batch_done(1, 0);
        let s = q.stats();
        assert_eq!((s.batches, s.batched_requests, s.deduped), (2, 3, 1));
        assert_eq!(s.queue_depth, 0);
        assert_eq!(q.queued_est_ns.load(Ordering::Relaxed), 0);
        assert_eq!(q.inflight_est_ns.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_queue_without_scheduler_bounces_every_admit() {
        let q = SolveQueue::without_scheduler();
        // Even a request admission control would shed goes inline: there
        // is no queue wait to predict.
        for deadline in [None, Some(0)] {
            let (j, _rx) = job(5_000_000, deadline);
            assert!(matches!(q.admit(j), Admission::Draining(_)));
        }
        assert_eq!(q.stats(), SchedulerStats::default());
    }

    #[test]
    fn close_bounces_later_admits_to_the_caller() {
        let q = SolveQueue::new(16);
        let (j, _rx) = job(0, None);
        assert!(matches!(q.admit(j), Admission::Queued));
        q.close();
        // Already-queued work still drains after close.
        assert_eq!(q.next_batch(8).unwrap().len(), 1);
        q.batch_done(1, 0);
        // The queue is now empty and closing: the drain loop ends.
        assert!(q.next_batch(8).is_none());
        // Post-drain admits bounce back for inline execution.
        let (j, _rx2) = job(0, None);
        assert!(matches!(q.admit(j), Admission::Draining(_)));
    }
}
