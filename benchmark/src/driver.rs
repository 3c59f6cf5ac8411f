//! The load driver: one thread that never parks. It submits through the
//! public `SearchClient` surface and spins on `Ticket::try_take`, so the
//! only threads that ever run are this one and the service's shard workers
//! (`shards = nproc − 1`). A parked driver would hand the scheduler a
//! wake-up on every reply, and the calibration runs showed that wake-up
//! latency — not the program — then decides the numbers.

use crate::inputs::Spec;
use friends_core::plan::QueryRequest;
use friends_data::queries::Query;
use friends_data::ItemId;
use friends_service::{Outcome, Reply, SearchClient, ServedClient, Ticket};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Requests kept in flight by the closed `sat` loop.
pub const SAT_WINDOW: usize = 64;

/// Deadline carried by every `surge` request.
pub const SURGE_DEADLINE: Duration = Duration::from_millis(40);

/// Per-phase outcome counts. `failed` counts every reply that is not
/// `Outcome::Done` where none may occur; `shed` counts the deadline misses
/// `surge` produces by design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// Expected rankings for a sample of block positions, compared against
/// every reply served for those positions — in every phase, at no cost to
/// the other positions.
#[derive(Default)]
pub struct Checker {
    expected: BTreeMap<usize, Vec<(ItemId, f32)>>,
    pub checked: u64,
    pub mismatched: u64,
}

/// Bit-equal rankings: same ids in the same order with identical score bits.
pub fn same_ranking(a: &[(ItemId, f32)], b: &[(ItemId, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl Checker {
    pub fn new(expected: BTreeMap<usize, Vec<(ItemId, f32)>>) -> Self {
        Checker {
            expected,
            checked: 0,
            mismatched: 0,
        }
    }

    /// Forgets the references (the corpus moved to another epoch) but keeps
    /// the counts.
    pub fn disable(&mut self) {
        self.expected.clear();
    }

    /// Checks the reply served for block position `index`. An exact reply
    /// must equal the direct execution bit for bit; a degraded one must
    /// carry a non-negative finite residual (its scores are lower bounds).
    pub fn check(&mut self, index: usize, reply: &Reply) {
        let Some(want) = self.expected.get(&index) else {
            return;
        };
        let Outcome::Done(result) = &reply.outcome else {
            return;
        };
        self.checked += 1;
        let ok = if reply.degraded {
            reply.residual >= 0.0 && reply.residual.is_finite()
        } else {
            reply.residual == 0.0 && same_ranking(want, &result.items)
        };
        if !ok {
            self.mismatched += 1;
        }
    }
}

/// The deadline-free request for `q` under the workload's model.
pub fn request(q: &Query, spec: &Spec) -> QueryRequest {
    QueryRequest::from_query(q.clone())
        .with_model(spec.model)
        .without_deadline()
}

/// `PAUSE` hints between two polls. A poll takes the reply channel's lock;
/// polling back to back starves a shard thread whenever the host puts both
/// virtual processors on one physical core. A third of a microsecond of
/// pauses costs the round trip nothing measurable and halves that effect.
const SPIN_PAUSES: u32 = 32;

fn pause() {
    for _ in 0..SPIN_PAUSES {
        std::hint::spin_loop();
    }
}

/// Spins until the ticket's reply is there.
pub fn spin_take(ticket: &mut Ticket) -> Reply {
    loop {
        if let Some(reply) = ticket.try_take() {
            return reply;
        }
        pause();
    }
}

/// What a pass hands back besides its timings.
#[derive(Default)]
pub struct PassReplies {
    pub counts: Counts,
    /// Sum of `Reply::queue_wait`, microseconds.
    pub queue_wait_us: f64,
}

impl PassReplies {
    fn take(&mut self, reply: &Reply) {
        self.counts.attempted += 1;
        self.queue_wait_us += reply.queue_wait.as_secs_f64() * 1e6;
        if !matches!(reply.outcome, Outcome::Done(_)) {
            self.counts.failed += 1;
        }
    }
}

/// `solo`: one request at a time; returns each round trip (submit → reply
/// taken) in microseconds. `first` is the block position of `queries[0]`.
pub fn solo_pass(
    client: &ServedClient,
    spec: &Spec,
    queries: &[Query],
    first: usize,
    checker: &mut Checker,
) -> (Vec<f64>, PassReplies) {
    // Requests are built before the clock starts: cloning a query is the
    // benchmark's cost, not the program's.
    let requests: Vec<QueryRequest> = queries.iter().map(|q| request(q, spec)).collect();
    let mut round_trips = Vec::with_capacity(requests.len());
    let mut out = PassReplies::default();
    for (i, req) in requests.into_iter().enumerate() {
        let start = Instant::now();
        let mut ticket = client.submit(req);
        let reply = spin_take(&mut ticket);
        round_trips.push(start.elapsed().as_secs_f64() * 1e6);
        out.take(&reply);
        checker.check(first + i, &reply);
    }
    (round_trips, out)
}

/// `sat`: closed loop with [`SAT_WINDOW`] requests in flight, spinning on the
/// oldest ticket (one shard replies in order). Returns the pass's wall time.
pub fn sat_pass(
    client: &ServedClient,
    spec: &Spec,
    queries: &[Query],
    first: usize,
    checker: &mut Checker,
) -> (Duration, PassReplies) {
    let mut requests = queries
        .iter()
        .map(|q| request(q, spec))
        .collect::<Vec<_>>()
        .into_iter();
    let mut out = PassReplies::default();
    let mut in_flight: VecDeque<Ticket> = VecDeque::with_capacity(SAT_WINDOW);
    let mut taken = 0usize;
    let start = Instant::now();
    loop {
        while in_flight.len() < SAT_WINDOW {
            match requests.next() {
                Some(req) => in_flight.push_back(client.submit(req)),
                None => break,
            }
        }
        let Some(mut oldest) = in_flight.pop_front() else {
            break;
        };
        let reply = spin_take(&mut oldest);
        out.take(&reply);
        checker.check(first + taken, &reply);
        taken += 1;
    }
    (start.elapsed(), out)
}

/// What one open-loop `surge` burst saw.
#[derive(Default)]
pub struct SurgeOutcome {
    pub counts: Counts,
    /// Requests answered `Done` within the deadline of their due time, per
    /// second of burst (first due time to last reply).
    pub goodput_qps: f64,
    /// How late each request was submitted relative to its due time, µs.
    pub late_us: Vec<f64>,
    pub degraded: u64,
    pub max_residual: f64,
}

/// `surge`: an open-loop burst at the spec's fixed rate, `length` long,
/// spin-paced against absolute due times. Latency runs from the **due**
/// time, so a stall in the driver or the service is charged to every
/// request it delays. Requests cycle through `queries`.
pub fn surge(
    client: &ServedClient,
    spec: &Spec,
    queries: &[Query],
    length: Duration,
    checker: &mut Checker,
) -> SurgeOutcome {
    let gap = Duration::from_secs_f64(1.0 / spec.surge_rate);
    let total = ((length.as_secs_f64() * spec.surge_rate).round() as usize).max(1);
    let mut out = SurgeOutcome {
        late_us: Vec::with_capacity(total),
        ..SurgeOutcome::default()
    };
    let mut good = 0u64;
    // (position in the schedule, due time, ticket)
    let mut in_flight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let start = Instant::now();
    let mut sweep = |in_flight: &mut VecDeque<(usize, Instant, Ticket)>,
                     out: &mut SurgeOutcome,
                     checker: &mut Checker| {
        // Replies can overtake one another (sheds, coalesced duplicates),
        // so every in-flight ticket is polled, not only the oldest.
        in_flight.retain_mut(|(n, due, ticket)| {
            let Some(reply) = ticket.try_take() else {
                return true;
            };
            out.counts.attempted += 1;
            match reply.outcome {
                Outcome::Done(_) => {
                    if due.elapsed() <= SURGE_DEADLINE {
                        good += 1;
                    } else {
                        out.counts.shed += 1;
                    }
                    if reply.degraded {
                        out.degraded += 1;
                        out.max_residual = out.max_residual.max(reply.residual);
                    }
                    checker.check(*n % queries.len(), &reply);
                }
                Outcome::DeadlineMissed => out.counts.shed += 1,
                Outcome::Failed => out.counts.failed += 1,
            }
            false
        });
    };
    for n in 0..total {
        let due = start + gap.mul_f64(n as f64);
        while Instant::now() < due {
            sweep(&mut in_flight, &mut out, checker);
            pause();
        }
        let req = request(&queries[n % queries.len()], spec).with_deadline(SURGE_DEADLINE);
        out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        in_flight.push_back((n, due, client.submit(req)));
    }
    while !in_flight.is_empty() {
        sweep(&mut in_flight, &mut out, checker);
        pause();
    }
    out.goodput_qps = good as f64 / start.elapsed().as_secs_f64();
    out
}
