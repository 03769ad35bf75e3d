//! The global queue, journaled by an undo log.
//!
//! Copying the backlog into every snapshot would make each lookahead
//! fork cost O(queue) on a saturated cluster. [`GlobalQueue`] instead
//! records the inverse of each write while a pin is live, so a pin is a
//! [`QueueMark`] (one word) and a rewind costs the writes made since it —
//! the same contract [`gfaas_sim::stats::Histogram::mark`] gives the
//! latency samples. It also keeps the sum of its requests' arrival
//! times, so the total age of the backlog at any instant is O(1).

use std::collections::VecDeque;

use gfaas_sim::time::SimTime;

use crate::request::Request;

/// The inverse of one queue write.
#[derive(Debug, Clone)]
enum Undo {
    /// Undoes a `push_back`.
    PopBack,
    /// Undoes a `push_front`.
    PopFront,
    /// Undoes `remove(i)`: the request goes back at `i`.
    Insert(usize, Request),
    /// Undoes a visit bump of the request at `i`.
    Unvisit(usize),
}

/// A position in a [`GlobalQueue`]'s undo log, taken by
/// [`GlobalQueue::mark`] and consumed by [`GlobalQueue::rewind`].
#[derive(Debug, Clone, Copy)]
pub(super) struct QueueMark(usize);

/// The cluster's global queue: requests in arrival order (crash retries
/// at the head), plus the undo log that journals it.
///
/// Every write goes through a method here. From the first
/// [`GlobalQueue::mark`] until [`GlobalQueue::release`], each appends
/// its inverse to the log; otherwise the log stays empty and a write
/// costs what a bare `VecDeque` write costs plus one add.
#[derive(Debug, Clone, Default)]
pub(super) struct GlobalQueue {
    items: VecDeque<Request>,
    /// Σ arrival time in microsecond ticks over `items`.
    arrival_ticks: u128,
    /// Inverses of the writes made since the oldest live mark, oldest
    /// first.
    undo: Vec<Undo>,
    /// Whether writes are logged: some mark may still be rewound to.
    logging: bool,
}

impl GlobalQueue {
    pub(super) fn len(&self) -> usize {
        self.items.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(super) fn iter(&self) -> std::collections::vec_deque::Iter<'_, Request> {
        self.items.iter()
    }

    /// The request at position `i` (0 = head).
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub(super) fn get(&self, i: usize) -> &Request {
        &self.items[i]
    }

    /// Appends an arrival.
    pub(super) fn push_back(&mut self, r: Request) {
        self.arrival_ticks += r.arrival.as_micros() as u128;
        self.items.push_back(r);
        if self.logging {
            self.undo.push(Undo::PopBack);
        }
    }

    /// Puts a retried request back at the head.
    pub(super) fn push_front(&mut self, r: Request) {
        self.arrival_ticks += r.arrival.as_micros() as u128;
        self.items.push_front(r);
        if self.logging {
            self.undo.push(Undo::PopFront);
        }
    }

    /// Removes and returns the request at position `i`, or `None` when
    /// `i` is out of bounds.
    pub(super) fn remove(&mut self, i: usize) -> Option<Request> {
        let r = self.items.remove(i)?;
        self.arrival_ticks -= r.arrival.as_micros() as u128;
        if self.logging {
            self.undo.push(Undo::Insert(i, r));
        }
        Some(r)
    }

    /// Counts one more pass-over of the request at position `i`
    /// (Algorithm 1's visit counter).
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub(super) fn note_visit(&mut self, i: usize) {
        self.items[i].visits += 1;
        if self.logging {
            self.undo.push(Undo::Unvisit(i));
        }
    }

    /// Σ (`end` − arrival) in microsecond ticks over the queued requests:
    /// their total age at `end`, from the maintained arrival sum. Exact
    /// for any `end` no earlier than every queued arrival — which holds
    /// for any `end` at or after the clock, since a request is queued
    /// only once it has arrived.
    pub(super) fn age_ticks(&self, end: SimTime) -> u128 {
        self.items.len() as u128 * end.as_micros() as u128 - self.arrival_ticks
    }

    /// Starts (or continues) logging and returns the current position:
    /// [`GlobalQueue::rewind`] to it undoes every later write.
    pub(super) fn mark(&mut self) -> QueueMark {
        self.logging = true;
        QueueMark(self.undo.len())
    }

    /// Undoes every write made since `mark`, newest first. Logging goes
    /// on: older marks, and `mark` itself, stay valid.
    ///
    /// # Panics
    /// If `mark` is not from this queue's live log (it was released).
    pub(super) fn rewind(&mut self, QueueMark(mark): QueueMark) {
        assert!(
            mark <= self.undo.len(),
            "queue rewind mark {mark} is past the undo log (have {})",
            self.undo.len()
        );
        while self.undo.len() > mark {
            match self.undo.pop().expect("log is longer than the mark") {
                Undo::PopBack => {
                    let r = self.items.pop_back().expect("undone push left a request");
                    self.arrival_ticks -= r.arrival.as_micros() as u128;
                }
                Undo::PopFront => {
                    let r = self.items.pop_front().expect("undone push left a request");
                    self.arrival_ticks -= r.arrival.as_micros() as u128;
                }
                Undo::Insert(i, r) => {
                    self.arrival_ticks += r.arrival.as_micros() as u128;
                    self.items.insert(i, r);
                }
                Undo::Unvisit(i) => self.items[i].visits -= 1,
            }
        }
    }

    /// Drops the log and stops logging: no mark will be rewound to.
    pub(super) fn release(&mut self) {
        self.undo.clear();
        self.logging = false;
    }

    /// True when no write is being logged and the log is empty — the
    /// state with no pin live.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn is_released(&self) -> bool {
        !self.logging && self.undo.is_empty()
    }

    /// The naive O(queue) walk [`GlobalQueue::age_ticks`] replaces; the
    /// reference it is checked against.
    #[cfg(any(test, debug_assertions, feature = "simcheck"))]
    pub(super) fn age_ticks_naive(&self, end: SimTime) -> u128 {
        self.items
            .iter()
            .map(|r| end.duration_since(r.arrival).as_micros() as u128)
            .sum()
    }
}

impl From<Vec<Request>> for GlobalQueue {
    fn from(items: Vec<Request>) -> Self {
        GlobalQueue {
            arrival_ticks: items.iter().map(|r| r.arrival.as_micros() as u128).sum(),
            items: items.into(),
            undo: Vec::new(),
            logging: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_gpu::ModelId;

    fn req(id: u64, at_us: u64) -> Request {
        Request::new(
            id,
            0,
            ModelId(id as u32 % 3),
            32,
            SimTime::from_micros(at_us),
        )
    }

    fn contents(q: &GlobalQueue) -> Vec<Request> {
        q.iter().copied().collect()
    }

    fn filled() -> GlobalQueue {
        GlobalQueue::from((0..5).map(|i| req(i, 10 * i)).collect::<Vec<_>>())
    }

    /// Applies one of every write.
    fn scribble(q: &mut GlobalQueue) {
        q.push_back(req(9, 70));
        q.note_visit(2);
        let r = q.remove(1).unwrap();
        q.push_front(r);
        q.note_visit(0);
        q.remove(q.len() - 1).unwrap();
        q.push_front(req(8, 5));
    }

    #[test]
    fn rewind_undoes_every_kind_of_write() {
        let mut q = filled();
        let before = contents(&q);
        let m = q.mark();
        scribble(&mut q);
        assert_ne!(contents(&q), before);
        q.rewind(m);
        assert_eq!(contents(&q), before);
        assert_eq!(
            q.age_ticks(SimTime::from_micros(100)),
            q.age_ticks_naive(SimTime::from_micros(100))
        );
        // The mark survives its rewind.
        scribble(&mut q);
        q.rewind(m);
        assert_eq!(contents(&q), before);
    }

    #[test]
    fn nested_marks_rewind_independently() {
        let mut q = filled();
        let outer = q.mark();
        q.push_back(req(7, 60));
        let mid = contents(&q);
        let inner = q.mark();
        scribble(&mut q);
        q.rewind(inner);
        assert_eq!(contents(&q), mid);
        q.rewind(outer);
        assert_eq!(contents(&q), contents(&filled()));
    }

    #[test]
    fn release_stops_logging() {
        let mut q = filled();
        assert!(q.is_released());
        q.mark();
        scribble(&mut q);
        assert!(!q.is_released());
        q.release();
        assert!(q.is_released());
        scribble(&mut q);
        assert!(q.is_released(), "writes without a mark are not logged");
    }

    #[test]
    fn age_sum_matches_the_walk_after_any_writes() {
        let mut q = filled();
        scribble(&mut q);
        for end in [70, 100, 1_000_000] {
            let end = SimTime::from_micros(end);
            assert_eq!(q.age_ticks(end), q.age_ticks_naive(end));
        }
        assert_eq!(GlobalQueue::default().age_ticks(SimTime::from_micros(5)), 0);
    }

    #[test]
    #[should_panic(expected = "past the undo log")]
    fn rewinding_a_released_mark_panics() {
        let mut q = filled();
        q.mark();
        q.push_back(req(9, 70));
        let late = q.mark();
        q.release();
        q.rewind(late);
    }
}
