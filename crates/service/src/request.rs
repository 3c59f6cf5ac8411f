//! Request/response types of the broker's wire surface.

use crossbeam::channel;
use friends_core::corpus::SearchResult;
use friends_core::plan::QueryRequest;
use friends_core::trace::QueryTrace;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use friends_core::plan::Deadline;

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Executed (or coalesced onto an identical in-flight execution, or
    /// served from the result-memoization cache).
    Done(SearchResult),
    /// Expired without execution: shed in the queue, or — through
    /// [`Ticket::wait_deadline`] / the multiplexer — still unanswered when
    /// the deadline passed.
    DeadlineMissed,
    /// The owning worker disappeared mid-request (a processor panic); the
    /// broker never silently drops a ticket.
    Failed,
}

impl Outcome {
    /// The result, if the request completed.
    pub fn result(&self) -> Option<&SearchResult> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps the result, panicking on a miss or failure — for clients
    /// that run without deadlines.
    pub fn expect_done(self, context: &str) -> SearchResult {
        match self {
            Outcome::Done(r) => r,
            Outcome::DeadlineMissed => panic!("{context}: deadline missed"),
            Outcome::Failed => panic!("{context}: worker failed"),
        }
    }
}

/// The reply delivered for one request.
#[derive(Clone, Debug)]
pub struct Reply {
    pub outcome: Outcome,
    /// Shard that served the request.
    pub shard: usize,
    /// Time from submission to the start of its dispatch cycle.
    pub queue_wait: Duration,
    /// Whether this reply was satisfied by another identical in-flight
    /// request's execution.
    pub coalesced: bool,
    /// Whether this reply came out of the broker's result-memoization
    /// cache (its `stats` are then empty — no work was performed).
    pub result_cached: bool,
    /// Whether the request executed under non-exact σ bounds — either its
    /// own or bounds tightened by the broker's overload controller. A
    /// degraded reply's scores are **lower bounds** on the exact scores.
    pub degraded: bool,
    /// Score-space error certificate: every returned (and every omitted)
    /// item's exact score exceeds its reported score by at most this much.
    /// Always `0.0` for non-degraded replies.
    pub residual: f64,
    /// The request's correlation tag, echoed verbatim.
    pub tag: u64,
    /// The request's trace, present when it was retained (forced via
    /// `with_trace()`, head-sampled, slow, or deadline-missed). The same
    /// `Arc` sits in the shard's trace rings.
    pub trace: Option<Arc<QueryTrace>>,
}

impl Reply {
    /// A reply with every serving annotation at "nothing happened": no
    /// queue wait, no flags, no trace. The three constructors below fill
    /// in what their outcome implies; reply sites overwrite the rest in
    /// place.
    fn new(outcome: Outcome, shard: usize, tag: u64) -> Self {
        Reply {
            outcome,
            shard,
            queue_wait: Duration::ZERO,
            coalesced: false,
            result_cached: false,
            degraded: false,
            residual: 0.0,
            tag,
            trace: None,
        }
    }

    /// The reply of a request whose deadline passed unanswered.
    pub(crate) fn deadline_missed(shard: usize, tag: u64) -> Self {
        Reply::new(Outcome::DeadlineMissed, shard, tag)
    }

    /// The reply of a request whose execution (or worker) was lost.
    pub(crate) fn failed(shard: usize, tag: u64) -> Self {
        Reply::new(Outcome::Failed, shard, tag)
    }

    /// The reply carrying `result`, echoing its residual certificate.
    pub(crate) fn done(shard: usize, tag: u64, result: SearchResult) -> Self {
        let residual = result.residual;
        let mut reply = Reply::new(Outcome::Done(result), shard, tag);
        reply.residual = residual;
        reply
    }

    /// The retained trace's id, if the request was traced.
    pub fn trace_id(&self) -> Option<u64> {
        self.trace.as_ref().map(|t| t.id)
    }

    /// Renders the retained trace as an annotated text tree (the
    /// `EXPLAIN` output); `None` when the request was not traced.
    pub fn explain(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.render())
    }
}

/// A claim on one submitted request's reply. Non-blocking by default:
/// [`Ticket::poll`] / [`Ticket::try_take`] never wait, and a
/// [`crate::Multiplexer`] can drive many tickets from one loop;
/// [`Ticket::wait`] and the deadline-respecting [`Ticket::wait_deadline`]
/// block.
pub struct Ticket {
    pub(crate) shard: usize,
    /// Where a worker sends the reply; `None` for a request answered on
    /// the submitting thread, whose reply sits in `stash` from the start.
    pub(crate) rx: Option<channel::Receiver<Reply>>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) tag: u64,
    pub(crate) stash: Option<Reply>,
}

impl Ticket {
    /// A ticket whose request was answered at submission: it owns no
    /// channel, and every take returns `reply` at once.
    pub(crate) fn answered(reply: Reply, deadline: Option<Instant>) -> Self {
        Ticket {
            shard: reply.shard,
            rx: None,
            deadline,
            tag: reply.tag,
            stash: Some(reply),
        }
    }

    /// Whether the reply has arrived (buffering it for
    /// [`Ticket::try_take`]). Never blocks. A dead worker counts as
    /// arrived (the buffered reply is [`Outcome::Failed`]).
    pub fn poll(&mut self) -> bool {
        if self.stash.is_some() {
            return true;
        }
        match self.rx.as_ref().map(channel::Receiver::try_recv) {
            Some(Ok(reply)) => {
                self.stash = Some(reply);
                true
            }
            Some(Err(channel::TryRecvError::Empty)) => false,
            None | Some(Err(channel::TryRecvError::Disconnected)) => {
                self.stash = Some(Reply::failed(self.shard, self.tag));
                true
            }
        }
    }

    /// Takes the reply if it has arrived; never blocks.
    pub fn try_take(&mut self) -> Option<Reply> {
        if self.poll() {
            self.stash.take()
        } else {
            None
        }
    }

    /// Blocks until the reply arrives, however long that takes — even past
    /// the request's deadline (use [`Ticket::wait_deadline`] to respect
    /// it). A worker that died without replying yields [`Outcome::Failed`]
    /// instead of hanging.
    pub fn wait(mut self) -> Reply {
        if let Some(reply) = self.stash.take() {
            return reply;
        }
        match self.rx.as_ref().map(channel::Receiver::recv) {
            Some(Ok(reply)) => reply,
            None | Some(Err(channel::RecvError)) => Reply::failed(self.shard, self.tag),
        }
    }

    /// Blocks until the reply arrives **or the request's deadline
    /// passes**, whichever is first. The broker sheds requests that expire
    /// while *queued*, but one that starts executing before its deadline
    /// is answered late — this is the client-side half of the deadline
    /// contract, returning [`Outcome::DeadlineMissed`] at the deadline
    /// instead of blocking behind the in-flight execution. Deadline-free
    /// tickets behave like [`Ticket::wait`].
    pub fn wait_deadline(mut self) -> Reply {
        if let Some(reply) = self.stash.take() {
            return reply;
        }
        let (Some(deadline), Some(rx)) = (self.deadline, &self.rx) else {
            return self.wait();
        };
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Reply::deadline_missed(self.shard, self.tag);
            }
            match rx.recv_timeout(deadline - now) {
                Ok(reply) => return reply,
                Err(channel::RecvTimeoutError::Timeout) => continue,
                Err(channel::RecvTimeoutError::Disconnected) => {
                    return Reply::failed(self.shard, self.tag)
                }
            }
        }
    }

    /// The shard this request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The request's correlation tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The request's resolved expiry instant, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Internal queue entry: one request plus its reply channel and timing.
pub(crate) struct Job {
    pub request: QueryRequest,
    /// The request's deadline, resolved at submission.
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    pub reply: channel::Sender<Reply>,
}
