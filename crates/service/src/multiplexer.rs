//! The deadline-aware completion multiplexer: one caller driving many
//! in-flight requests.
//!
//! [`crate::Ticket`]s are non-blocking (`poll` / `try_take`), but a caller
//! with dozens of requests in flight wants a `select`-style loop: *give me
//! the next completion, whichever request it belongs to, and never let a
//! deadline pass silently*. [`Multiplexer`] is that loop, without vendoring
//! an async runtime: it sweeps its pending tickets fairly (rotating the
//! start position so one hot shard cannot starve the rest), and between
//! sweeps parks the thread briefly — never past the nearest pending
//! deadline, so an expired request surfaces as
//! [`Outcome::DeadlineMissed`](crate::Outcome::DeadlineMissed) on time even
//! if its worker is still grinding.
//!
//! Completions are identified by the request's correlation `tag`
//! (see [`friends_core::plan::QueryRequest::with_tag`]); the reply also
//! carries it.

use crate::request::{Reply, Ticket};
use std::time::{Duration, Instant};

/// Upper bound on the park interval between sweeps. Parking is adaptive:
/// it starts fine-grained (so short queries complete with microsecond-ish
/// latency) and backs off toward this bound while nothing completes.
const MAX_PARK: Duration = Duration::from_millis(2);
const MIN_PARK: Duration = Duration::from_micros(20);

/// A `select`-style completion loop over in-flight [`Ticket`]s. Push
/// tickets as you submit; take completions with the blocking `next` (the
/// [`Iterator`] impl) or the non-blocking [`Multiplexer::poll`]; the
/// multiplexer synthesizes `DeadlineMissed` replies for tickets whose
/// deadline passes unanswered.
#[derive(Default)]
pub struct Multiplexer {
    pending: Vec<Ticket>,
    /// Sweep start rotation, for fairness across tickets.
    cursor: usize,
}

impl Multiplexer {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Multiplexer::default()
    }

    /// Adds an in-flight ticket to the completion set.
    pub fn push(&mut self, ticket: Ticket) {
        self.pending.push(ticket);
    }

    /// Requests still in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Non-blocking: returns the next completion `(tag, reply)` if any
    /// ticket has finished — or if one's deadline has passed, in which case
    /// the reply is a synthesized `DeadlineMissed`. `None` means nothing is
    /// ready right now (or nothing is pending).
    pub fn poll(&mut self) -> Option<(u64, Reply)> {
        let n = self.pending.len();
        if n == 0 {
            return None;
        }
        self.cursor %= n;
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if let Some(reply) = self.pending[idx].try_take() {
                let ticket = self.pending.swap_remove(idx);
                self.cursor = idx;
                return Some((ticket.tag(), reply));
            }
        }
        let now = Instant::now();
        for idx in 0..n {
            if self.pending[idx].deadline().is_some_and(|d| now >= d) {
                let ticket = self.pending.swap_remove(idx);
                // The worker may still answer later; dropping the ticket
                // (and its receiver) discards that late reply.
                return Some((
                    ticket.tag(),
                    Reply::deadline_missed(ticket.shard(), ticket.tag()),
                ));
            }
        }
        None
    }

    /// Like `next` ([`Iterator::next`], the blocking completion take) with
    /// an overall timeout: `None` when
    /// nothing completes (or expires) within `timeout`, or when nothing is
    /// pending.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<(u64, Reply)> {
        let until = Instant::now() + timeout;
        let mut park = MIN_PARK;
        loop {
            if self.pending.is_empty() {
                return None;
            }
            if let Some(done) = self.poll() {
                return Some(done);
            }
            if Instant::now() >= until {
                return None;
            }
            self.park(&mut park);
        }
    }

    /// Drains every pending request to completion (deadlines respected),
    /// returning `(tag, reply)` pairs in completion order.
    pub fn drain(&mut self) -> Vec<(u64, Reply)> {
        let mut out = Vec::with_capacity(self.pending.len());
        for done in self.by_ref() {
            out.push(done);
        }
        out
    }

    /// Parks briefly between sweeps: adaptively backing off while idle,
    /// but never past the nearest pending deadline.
    fn park(&self, park: &mut Duration) {
        let now = Instant::now();
        let nearest = self
            .pending
            .iter()
            .filter_map(|t| t.deadline())
            .min()
            .map(|d| d.saturating_duration_since(now));
        let mut wait = *park;
        if let Some(until_deadline) = nearest {
            wait = wait.min(until_deadline);
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        *park = (*park * 2).min(MAX_PARK);
    }
}

/// The completion loop is literally iteration: `next` blocks until the
/// next completion (or deadline expiry) and yields `(tag, reply)`; the
/// iterator ends when nothing is pending. `for (tag, reply) in &mut mux`
/// drains everything currently in flight (more tickets can be pushed
/// between takes).
impl Iterator for Multiplexer {
    type Item = (u64, Reply);

    fn next(&mut self) -> Option<(u64, Reply)> {
        let mut park = MIN_PARK;
        loop {
            if self.pending.is_empty() {
                return None;
            }
            if let Some(done) = self.poll() {
                return Some(done);
            }
            self.park(&mut park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{SearchClient, ServedClient};
    use crate::ServiceConfig;
    use friends_core::corpus::Corpus;
    use friends_core::plan::QueryRequest;
    use friends_core::proximity::ProximityModel;
    use friends_data::datasets::{DatasetSpec, Scale};
    use std::sync::Arc;

    #[test]
    fn empty_multiplexer_yields_nothing() {
        let mut m = Multiplexer::new();
        assert!(m.is_empty());
        assert!(m.poll().is_none());
        assert!(m.next().is_none());
        assert!(m.next_timeout(Duration::from_millis(1)).is_none());
        assert!(m.drain().is_empty());
    }

    #[test]
    fn completions_carry_tags_and_drain_fully() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
        let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
        let svc = ServedClient::start(
            Arc::clone(&corpus),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let mut m = Multiplexer::new();
        for i in 0..20u64 {
            m.push(
                svc.submit(
                    QueryRequest::new((i % 7) as u32, vec![(i % 3) as u32], 5)
                        .with_model(ProximityModel::WeightedDecay { alpha: 0.5 })
                        .without_deadline()
                        .with_tag(i),
                ),
            );
        }
        assert_eq!(m.len(), 20);
        let done = m.drain();
        assert!(m.is_empty());
        let mut tags: Vec<u64> = done.iter().map(|(t, _)| *t).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..20).collect::<Vec<_>>());
        for (tag, reply) in &done {
            assert_eq!(*tag, reply.tag);
            assert!(reply.outcome.result().is_some());
        }
        svc.shutdown();
    }
}
