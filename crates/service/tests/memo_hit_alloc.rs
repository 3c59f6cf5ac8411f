//! A warm result-cache hit answered at submit allocates exactly once: the
//! reply's copy of the memoized ranking. No reply channel, no key clone, no
//! recency-index node — a counting allocator pins it.

use friends_core::corpus::Corpus;
use friends_core::plan::QueryRequest;
use friends_core::proximity::ProximityModel;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_data::queries::{QueryParams, QueryWorkload};
use friends_service::{SearchClient, ServedClient, ServiceConfig, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// Thread-local counting: only the submitting thread's allocations count,
// whatever the shard workers (or sibling tests) do meanwhile.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn a_warm_submit_side_hit_allocates_only_the_ranking_copy() {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let queries = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 24,
            ..QueryParams::default()
        },
        4,
    )
    .queries;
    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            result_cache_capacity: 64,
            trace: TraceConfig {
                sample_every: 0,
                ..TraceConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let request = |i: usize| {
        QueryRequest::from_query(queries[i % queries.len()].clone())
            .with_model(ProximityModel::WeightedDecay { alpha: 0.5 })
    };
    // Warm: every query executes once and is memoized before its reply.
    let mut nonempty = Vec::new();
    for i in 0..queries.len() {
        let reply = client.submit(request(i)).wait();
        if !reply.outcome.result().expect("served").items.is_empty() {
            nonempty.push(i);
        }
    }
    assert!(nonempty.len() >= 8, "too few non-empty rankings to measure");
    // Requests are built before counting: building one is the caller's
    // allocation, not the hit's.
    let requests: Vec<QueryRequest> = (0..2_000)
        .map(|n| request(nonempty[n % nonempty.len()]))
        .collect();
    let mut tickets = Vec::with_capacity(requests.len());
    let mut per_submit = Vec::with_capacity(requests.len());
    for req in requests {
        let before = allocations();
        tickets.push(client.submit(req));
        per_submit.push(allocations() - before);
    }
    for (n, allocs) in per_submit.iter().enumerate() {
        assert_eq!(*allocs, 1, "submit {n} allocated {allocs} times");
    }
    let before = allocations();
    for ticket in tickets {
        let reply = ticket.wait();
        assert!(reply.result_cached && !reply.outcome.result().unwrap().items.is_empty());
    }
    assert_eq!(allocations(), before, "taking an answered ticket allocated");
    let totals = client.shutdown().totals();
    assert_eq!(totals.result_served, 2_000, "{totals:?}");
}
