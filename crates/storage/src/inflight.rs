//! In-flight read bookkeeping of the completion queue.
//!
//! [`InflightTables`] tracks every frame read submitted to
//! [`crate::CompletionQueue`] from submission until its owner takes the
//! bytes: per-lane FIFO submission queues, the outstanding count, the
//! completion frontier (for the lock-free poll fast path) and the
//! completed reads waiting to be collected. The queue owns one instance
//! behind its lock.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

use crate::codec::StorageError;
use crate::lru::BufKey;

/// One submitted read: the buffer key it serves — page `key.page` of
/// the file of lane `key.store`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadJob {
    pub ticket: u64,
    pub key: BufKey,
    /// When the submission entered its lane — completion lag (submit →
    /// complete, queue wait included) is measured from here.
    pub submitted: Instant,
}

/// The shared submission/in-flight/completion tables (module docs).
///
/// Lifecycle of one submission: [`InflightTables::submit`] issues a ticket
/// and queues a [`ReadJob`] on its lane → a worker
/// [`InflightTables::claim`]s it → [`InflightTables::deliver`] files the
/// bytes (or the read error) and [`InflightTables::complete`] marks the
/// ticket done → the owner [`InflightTables::take_page`]s the outcome.
#[derive(Default)]
pub(crate) struct InflightTables {
    /// Per-lane submission queues, oldest first.
    pub lanes: Vec<VecDeque<ReadJob>>,
    /// Submitted but not yet completed (queued + flying).
    pub outstanding: usize,
    /// Completion frontier: every ticket below this has completed.
    done_below: u64,
    /// Completed tickets at or above the frontier (completions arrive out
    /// of submission order; contiguous runs are folded into the frontier).
    done: BTreeSet<u64>,
    /// Next ticket to issue. Tickets start at 1; 0 is [`crate::Ticket::NONE`].
    next_ticket: u64,
    /// Completed reads, by ticket, until their owner takes them.
    pages: HashMap<u64, Result<Vec<u8>, StorageError>>,
    /// Set once on drop; workers exit at the next wakeup.
    pub shutdown: bool,
}

impl InflightTables {
    pub fn new(lanes: usize) -> Self {
        InflightTables {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            outstanding: 0,
            done_below: 1,
            done: BTreeSet::new(),
            next_ticket: 1,
            pages: HashMap::new(),
            shutdown: false,
        }
    }

    /// Issues a ticket for a read of `key` on lane `key.store` whose
    /// outcome the caller takes back with [`InflightTables::take_page`].
    /// `front` queues it ahead of the lane's other jobs (a demand)
    /// instead of behind them (a read-ahead).
    pub fn submit(&mut self, key: BufKey, front: bool) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let job = ReadJob {
            ticket,
            key,
            submitted: Instant::now(),
        };
        let lane = usize::from(key.store);
        if front {
            self.lanes[lane].push_front(job);
        } else {
            self.lanes[lane].push_back(job);
        }
        self.outstanding += 1;
        ticket
    }

    /// Moves the still-queued job of `ticket` to the front of `lane` (a
    /// read-ahead that demand has caught up with). No-op once claimed.
    pub fn promote(&mut self, lane: usize, ticket: u64) {
        let queue = &mut self.lanes[lane];
        if let Some(pos) = queue.iter().position(|j| j.ticket == ticket) {
            let job = queue.remove(pos).expect("position just found");
            queue.push_front(job);
        }
    }

    /// Files the outcome of a completed read until its owner takes it.
    pub fn deliver(&mut self, ticket: u64, page: Result<Vec<u8>, StorageError>) {
        self.pages.insert(ticket, page);
    }

    /// Takes the outcome of a completed read (`None` if the job was
    /// abandoned unread, or taken already).
    pub fn take_page(&mut self, ticket: u64) -> Option<Result<Vec<u8>, StorageError>> {
        self.pages.remove(&ticket)
    }

    /// Submissions currently queued on `lane` (not yet claimed by a
    /// worker).
    #[inline]
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// A worker claims the oldest queued job of `lane`, if any.
    pub fn claim(&mut self, lane: usize) -> Option<ReadJob> {
        self.lanes[lane].pop_front()
    }

    /// A worker finished reading `job` — its ticket completes (whether
    /// the read succeeded or not; a failure travels with the outcome,
    /// never left to dead-lock a waiter).
    pub fn complete(&mut self, job: &ReadJob) {
        self.outstanding -= 1;
        self.mark_done(job.ticket);
    }

    /// Whether `ticket` has completed.
    #[inline]
    pub fn is_done(&self, ticket: u64) -> bool {
        ticket < self.done_below || self.done.contains(&ticket)
    }

    /// All tickets strictly below this have completed.
    #[inline]
    pub fn done_floor(&self) -> u64 {
        self.done_below
    }

    fn mark_done(&mut self, ticket: u64) {
        self.done.insert(ticket);
        while self.done.remove(&self.done_below) {
            self.done_below += 1;
        }
    }

    /// Drops every queued (unclaimed) job, marking their tickets done so
    /// no waiter can hang on a read that will never happen — the reset
    /// path. Flying jobs are untouched; the caller waits them out.
    pub fn abandon_queued(&mut self) {
        let jobs: Vec<ReadJob> = self.lanes.iter_mut().flat_map(|l| l.drain(..)).collect();
        for job in jobs {
            self.outstanding -= 1;
            self.mark_done(job.ticket);
        }
    }

    /// Forgets every uncollected outcome (after the flying set has
    /// drained): the queue is empty and cold.
    pub fn clear_pages(&mut self) {
        debug_assert_eq!(self.outstanding, 0);
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    fn key(p: u32) -> BufKey {
        BufKey::new(0, PageId(p))
    }

    #[test]
    fn tickets_complete_out_of_order_and_fold_into_the_frontier() {
        let mut t = InflightTables::new(1);
        let a = t.submit(key(1), false);
        let b = t.submit(key(2), false);
        let c = t.submit(key(3), false);
        let (ja, jb, jc) = (
            t.claim(0).unwrap(),
            t.claim(0).unwrap(),
            t.claim(0).unwrap(),
        );
        t.complete(&jc);
        assert!(t.is_done(c) && !t.is_done(a) && !t.is_done(b));
        t.complete(&ja);
        assert!(t.is_done(a) && !t.is_done(b));
        t.complete(&jb);
        assert!(t.is_done(b));
        assert_eq!(t.done_floor(), c + 1, "frontier folds the whole run");
        assert_eq!(t.outstanding, 0);
    }

    #[test]
    fn front_submissions_and_promotion_jump_the_lane() {
        let mut t = InflightTables::new(1);
        t.submit(key(1), false);
        let b = t.submit(key(2), false);
        let c = t.submit(key(3), true);
        assert_eq!(t.claim(0).unwrap().ticket, c, "a demand goes first");
        t.promote(0, b);
        assert_eq!(t.claim(0).unwrap().ticket, b, "a promoted read-ahead next");
    }

    #[test]
    fn abandon_queued_completes_dropped_tickets() {
        let mut t = InflightTables::new(2);
        let a = t.submit(key(1), false);
        let b = t.submit(BufKey::new(1, PageId(2)), true);
        t.abandon_queued();
        assert!(t.is_done(a) && t.is_done(b));
        assert_eq!(t.outstanding, 0);
        assert!(
            t.take_page(a).is_none(),
            "an abandoned read delivers nothing"
        );
    }
}
