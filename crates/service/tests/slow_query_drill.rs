//! The slow-query drill: inject a `Delay` fault into the nth execution of
//! a one-shard service and assert that **exactly** that request lands in
//! the slow-query log, with a complete span tree (queue → plan → σ →
//! scoring → reply) and a trace id matching its own [`Reply`]. Every other
//! request stays under the threshold and must not be retained.
//!
//! The split between the two kinds must not depend on the host: an ordinary
//! request here takes well under a millisecond even in a debug build, so
//! the threshold sits hundreds of times above it — an ordinary request
//! would have to stall a quarter second to cross it — and the injected
//! delay three times above the threshold.

use friends_core::corpus::Corpus;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_service::{
    FaultKind, FaultPlan, QueryRequest, SearchClient, ServedClient, ServiceConfig, TraceConfig,
    TraceOutcome,
};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn delayed_request_lands_in_the_slow_query_log_with_its_span_tree() {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let delay = Duration::from_millis(750);
    let config = ServiceConfig {
        shards: 1,
        // No deadline: the stalled request must finish (slow), not shed.
        default_deadline: None,
        fault: Some(FaultPlan {
            nth: 3,
            kind: FaultKind::Delay(delay),
        }),
        trace: TraceConfig {
            // Head sampling off: only slowness can retain a trace here.
            sample_every: 0,
            slow_threshold: Some(Duration::from_millis(250)),
            ..TraceConfig::default()
        },
        ..ServiceConfig::default()
    };
    let svc = ServedClient::start(Arc::clone(&corpus), config);
    // Sequential distinct queries: each waits for its reply before the next
    // submits, so every request executes alone (no coalescing, no queue
    // buildup) and the fault ordinal maps 1:1 onto submission order.
    let mut slow_reply_trace_id = None;
    for i in 0..6u32 {
        let reply = svc.submit(QueryRequest::new(i % 4, vec![i % 3], 5)).wait();
        assert!(reply.outcome.result().is_some(), "request {i} must serve");
        if i == 2 {
            // The 3rd execution (nth: 3) carries the injected delay; its
            // reply must already hold the retained trace.
            let trace = reply.trace.as_ref().expect("slow reply carries trace");
            slow_reply_trace_id = Some(trace.id);
        } else {
            assert!(
                reply.trace.is_none(),
                "fast request {i} must not be traced (reply {:?})",
                reply.trace_id()
            );
        }
    }
    let slow = svc.slow_queries();
    assert_eq!(slow.len(), 1, "exactly the delayed request is retained");
    let trace = &slow[0];
    assert_eq!(Some(trace.id), slow_reply_trace_id, "log and reply agree");
    assert!(trace.slow, "retained for slowness");
    assert!(!trace.forced && !trace.sampled);
    assert!(trace.e2e >= delay, "e2e includes the injected stall");
    assert!(matches!(trace.outcome, TraceOutcome::Done { .. }));
    // The complete span tree: queuing, planning (the fault event lives
    // here), σ materialization, scoring, reply.
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["queue", "plan", "sigma", "scoring", "reply"]);
    let explain = trace.render();
    assert!(
        explain.contains("fault") && explain.contains("delay"),
        "EXPLAIN must show the injected fault:\n{explain}"
    );
    assert!(
        svc.traces().is_empty(),
        "head sampling is off — nothing in the sampled ring"
    );
    svc.shutdown();
}
