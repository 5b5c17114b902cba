//! Open-loop load: queries arrive on a fixed schedule whether or not the
//! service keeps up, and each is timed from its scheduled arrival.
//!
//! The generator (the calling thread) sleeps until query `i` is due at
//! `start + i / rate`, then hands it to a pool of client threads. How late
//! the generator itself ran is recorded apart from the latency, so a run
//! whose generator fell behind can be told from a slow service.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rsj_service::{JoinService, ServiceError, SpanReport};

use crate::data::{plan, Oracle};
use crate::stats::quantile;
use crate::trace::Tracer;

/// What one fixed-rate phase measured.
#[derive(Default)]
pub struct Phase {
    /// Scheduled arrival to last pair, per answered query, ms.
    pub latency_ms: Vec<f64>,
    /// Due time of each answered query, s after the phase started
    /// (aligned with `latency_ms`).
    pub due_s: Vec<f64>,
    /// Generator hand-off time minus due time, per query, ms.
    pub gen_lag_ms: Vec<f64>,
    pub spans: Vec<SpanReport>,
    /// Arrival to admission, per answered query, µs: the wait for a free
    /// client plus the service's own admission wait.
    pub queue_us: Vec<f64>,
    pub parks: Vec<u64>,
    pub attempted: u64,
    /// Queries that errored or were refused.
    pub failed: u64,
    pub overloaded: u64,
    /// Last completion minus last due time, ms.
    pub drain_ms: f64,
}

impl Phase {
    /// The `q`-quantile of latency, counting a failed query as missing
    /// any limit.
    pub fn tail_ms(&self, q: f64) -> f64 {
        if self.failed > 0 {
            f64::INFINITY
        } else {
            quantile(&self.latency_ms, q)
        }
    }

    /// Folds another phase's samples and counts into this one.
    pub fn merge(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.due_s.extend(other.due_s);
        self.gen_lag_ms.extend(other.gen_lag_ms);
        self.spans.extend(other.spans);
        self.queue_us.extend(other.queue_us);
        self.parks.extend(other.parks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.drain_ms = self.drain_ms.max(other.drain_ms);
    }
}

struct Queue {
    due: VecDeque<Instant>,
    closed: bool,
}

/// Runs `rate` queries per second for `secs` seconds against `svc` with
/// `clients` client threads, checking every answer against `oracle`.
/// Panics on a wrong answer: the benchmark refuses to time wrong output.
pub fn open_loop(
    svc: &JoinService,
    oracle: &Oracle,
    rate: f64,
    secs: f64,
    clients: usize,
    tracer: &Tracer,
) -> Phase {
    let queue = Mutex::new(Queue {
        due: VecDeque::new(),
        closed: false,
    });
    let ready = Condvar::new();
    let last_done_ns = AtomicU64::new(0);
    let origin = Instant::now();
    let start = origin + Duration::from_millis(2);
    let n = (secs * rate).floor().max(1.0) as u64;
    let mut gen_lag_ms = Vec::with_capacity(n as usize);
    let mut last_due = start;

    let results: Vec<Phase> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let (queue, ready, last_done_ns) = (&queue, &ready, &last_done_ns);
                scope.spawn(move || {
                    let mut out = Phase::default();
                    loop {
                        let due = {
                            let mut q = queue.lock().expect("arrival queue poisoned");
                            loop {
                                if let Some(d) = q.due.pop_front() {
                                    break Some(d);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = ready.wait(q).expect("arrival queue poisoned");
                            }
                        };
                        let Some(due) = due else { break };
                        out.attempted += 1;
                        let waited = due.elapsed();
                        let root = tracer.root("serve.query");
                        let res =
                            tracer.wrap(&root, "service.execute", || svc.execute(plan(), true));
                        tracer.end(root);
                        let done = Instant::now();
                        last_done_ns.fetch_max(
                            done.duration_since(origin).as_nanos() as u64,
                            Ordering::Relaxed,
                        );
                        match res {
                            Ok(resp) => {
                                if let Err(e) = oracle.check(&resp.pairs, &resp.stats) {
                                    panic!("wrong join answer under load: {e}");
                                }
                                out.latency_ms
                                    .push(done.duration_since(due).as_secs_f64() * 1e3);
                                out.due_s.push(due.duration_since(start).as_secs_f64());
                                out.queue_us
                                    .push(waited.as_secs_f64() * 1e6 + resp.span.queue_us as f64);
                                out.spans.push(resp.span);
                                out.parks.push(resp.parks);
                            }
                            Err(ServiceError::Overloaded(_)) => {
                                out.failed += 1;
                                out.overloaded += 1;
                            }
                            Err(e) => panic!("query failed: {e}"),
                        }
                    }
                    out
                })
            })
            .collect();

        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let handed = Instant::now();
            gen_lag_ms.push(handed.duration_since(due).as_secs_f64() * 1e3);
            queue
                .lock()
                .expect("arrival queue poisoned")
                .due
                .push_back(due);
            ready.notify_one();
            last_due = due;
        }
        queue.lock().expect("arrival queue poisoned").closed = true;
        ready.notify_all();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });

    let mut phase = Phase::default();
    for r in results {
        phase.merge(r);
    }
    phase.gen_lag_ms = gen_lag_ms;
    let last_done = origin + Duration::from_nanos(last_done_ns.load(Ordering::Relaxed));
    phase.drain_ms = last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    phase
}
