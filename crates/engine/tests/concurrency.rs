//! Seeded stress suite for the concurrency the engine really has:
//! cloned [`EngineProducer`]s ingesting from several threads into the
//! shard queues while a [`QueryHandle`] reader sweeps the shard tables
//! under them.
//!
//! Flows are partitioned across producers, so each flow's items reach
//! its shard in one producer's order. After the run, every per-flow
//! estimate must therefore equal sequential per-item recording into a
//! tiered `FlowTable` — bit for bit, whatever the interleaving. While
//! the run is live, every read must be internally consistent: each
//! flow's estimate never decreases, the flow count never decreases, the
//! tier census covers exactly the counted flows, and top-k is ordered.
//!
//! Reproduce a failure with `SMB_STRESS_SEED=<seed printed on failure>`.

use std::collections::HashMap;
use std::sync::Mutex;

use smb_devtools::{prop_assert, prop_assert_eq, stress, Rng, Xoshiro256pp};
use smb_engine::{
    BackpressurePolicy, EngineConfig, EngineProducer, EngineQuery, QueryHandle, ShardedFlowEngine,
};
use smb_factory::{Algo, AlgoSpec};
use smb_sketch::FlowTable;

const PRODUCERS: usize = 3;
/// Flows per producer; producer `p` owns flows `p, p + PRODUCERS, …`.
const FLOWS_PER_PRODUCER: u64 = 12;

/// A small SMB (T=14 at this m and n_max), so flows cross the tier
/// ladder and morph within a few hundred items.
fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb)
        .memory_bits(128)
        .n_max(1e4)
        .seed(0x57E5)
}

/// One producer's `(flow, item)` stream: a seeded mix of single-item,
/// array-tier and full flows with repeats, interleaved across the
/// producer's flows.
fn stream(seed: u64, producer: usize) -> Vec<(u64, u64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ ((producer as u64 + 1) * 0x9E37_79B9));
    let mut out = Vec::new();
    for k in 0..FLOWS_PER_PRODUCER {
        let flow = k * PRODUCERS as u64 + producer as u64;
        let distinct = match k % 3 {
            0 => 1,
            1 => rng.gen_range_u64(2..17),
            _ => rng.gen_range_u64(17..600),
        };
        for _ in 0..distinct + distinct / 2 {
            out.push((flow, rng.gen_below_u64(distinct)));
        }
    }
    // Interleave the producer's flows; each flow keeps its own order
    // relative to itself whatever the shuffle does.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_below_u64(i as u64 + 1) as usize);
    }
    out
}

fn item_bytes(flow: u64, item: u64) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&flow.to_le_bytes());
    bytes[8..].copy_from_slice(&item.to_le_bytes());
    bytes
}

struct Run {
    engine: Mutex<ShardedFlowEngine>,
    producers: Vec<Mutex<Option<EngineProducer>>>,
    queries: QueryHandle,
    streams: Vec<Vec<(u64, u64)>>,
}

#[test]
fn cloned_producers_and_racing_readers_match_sequential_recording() {
    stress!(
        schedules = 6,
        threads = PRODUCERS + 1,
        setup = |seed| {
            // Tiny batches and a two-batch queue under the blocking
            // policy: producers contend for queue space and block on
            // full queues, and nothing is ever dropped.
            let engine = ShardedFlowEngine::new(
                EngineConfig::new(spec())
                    .with_shards(2)
                    .with_batch(8)
                    .with_queue_batches(2)
                    .with_policy(BackpressurePolicy::Block),
            )
            .expect("valid config");
            let first = engine.producer_handle();
            let producers = (0..PRODUCERS)
                .map(|_| Mutex::new(Some(first.clone())))
                .collect();
            Run {
                queries: engine.query_handle(),
                engine: Mutex::new(engine),
                producers,
                streams: (0..PRODUCERS).map(|p| stream(seed, p)).collect(),
            }
        },
        body = |tid, ctx, run: &Run| {
            if tid < PRODUCERS {
                let mut producer = run.producers[tid]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("one producer per thread");
                for (i, &(flow, item)) in run.streams[tid].iter().enumerate() {
                    producer.ingest(flow, &item_bytes(flow, item));
                    if i % 64 == 0 {
                        ctx.interleave();
                    }
                    if ctx.rng().gen_bool(0.002) {
                        producer.barrier();
                    }
                }
                // Dropping the producer delivers its partial batches.
                return;
            }
            let flows = (PRODUCERS as u64) * FLOWS_PER_PRODUCER;
            let mut last_estimate: HashMap<u64, f64> = HashMap::new();
            let mut last_count = 0usize;
            for _ in 0..200 {
                let flow = ctx.rng().gen_below_u64(flows);
                let report = run.queries.run(
                    &EngineQuery::new()
                        .with_estimate(flow)
                        .with_top_k(5)
                        .with_flow_count()
                        .with_memory_bytes(),
                );
                let count = report.flow_count.expect("facet requested");
                assert!(
                    count >= last_count,
                    "flow count fell {last_count} -> {count}"
                );
                last_count = count;
                let t = report.tier_stats;
                assert_eq!(
                    t.small + t.array + t.full,
                    count,
                    "census {t:?} vs {count} flows"
                );
                if let Some(estimate) = report.estimate {
                    let before = last_estimate.insert(flow, estimate).unwrap_or(0.0);
                    assert!(
                        estimate >= before,
                        "flow {flow} estimate fell {before} -> {estimate}"
                    );
                }
                let top = report.top_k.expect("facet requested");
                for pair in top.windows(2) {
                    assert!(pair[0].1 >= pair[1].1, "top-k out of order: {top:?}");
                }
                if ctx.rng().gen_bool(0.05) {
                    let cells = run.queries.snapshot_cells().expect("SMB cells snapshot");
                    assert!(
                        cells.windows(2).all(|w| w[0].0 < w[1].0),
                        "snapshot unsorted"
                    );
                }
                ctx.interleave();
            }
        },
        check = |run| {
            let mut engine = run.engine.lock().unwrap();
            engine.flush();
            let items: usize = run.streams.iter().map(Vec::len).sum();
            let stats = engine.stats();
            prop_assert_eq!(stats.total_dropped(), 0);
            prop_assert_eq!(stats.total_recorded(), items as u64);

            let sp = spec();
            let scheme = sp.scheme();
            let mut reference = FlowTable::tiered(scheme, move |_| sp.build().unwrap());
            for stream in &run.streams {
                for &(flow, item) in stream {
                    reference.record_hash(flow, scheme.item_hash(&item_bytes(flow, item)));
                }
            }
            let mut want: Vec<(u64, u64)> = reference
                .estimates()
                .map(|(f, e)| (f, e.to_bits()))
                .collect();
            let mut got: Vec<(u64, u64)> = engine
                .all_estimates()
                .into_iter()
                .map(|(f, e)| (f, e.to_bits()))
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            let (a, b) = (engine.tier_stats(), reference.tier_stats());
            prop_assert_eq!((a.small, a.array, a.full), (b.small, b.array, b.full));
            prop_assert!(a.full > 0 && a.array > 0 && a.small > 0, "tier mix {:?}", a);
            Ok(())
        },
    );
}
