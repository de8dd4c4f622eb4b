//! Integration tests of the sharded engine against the synthetic
//! CAIDA-like trace: shard-count invariance (the acceptance criterion
//! for deterministic sharding) and backpressure accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smb_core::CardinalityEstimator;
use smb_engine::{BackpressurePolicy, EngineConfig, ShardedFlowEngine};
use smb_factory::{Algo, AlgoSpec, DynEstimator};
use smb_hash::{HashScheme, ItemHash};
use smb_stream::TraceConfig;

fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(0xCA1DA)
}

fn run_trace(shards: usize, batch: usize) -> Vec<(u64, f64)> {
    let mut engine = ShardedFlowEngine::new(
        EngineConfig::new(spec())
            .with_shards(shards)
            .with_batch(batch),
    )
    .expect("valid config");
    for p in TraceConfig::tiny(42).build().packets() {
        engine.ingest(p.flow as u64, &p.item_bytes());
    }
    engine.flush();
    let mut estimates = engine.all_estimates();
    estimates.sort_by_key(|&(flow, _)| flow);
    estimates
}

/// Acceptance criterion: per-flow estimates are bit-identical across
/// shard counts 1 / 2 / 8 for a fixed seed. Flows partition across
/// shards, every flow's packets stay in ingest order, and all
/// estimators share one spec-derived scheme — so the schedule cannot
/// influence any estimate.
#[test]
fn per_flow_estimates_invariant_across_shard_counts() {
    let one = run_trace(1, 64);
    let two = run_trace(2, 64);
    let eight = run_trace(8, 64);
    assert_eq!(one.len(), 500, "tiny trace tracks 500 flows");
    assert_eq!(one, two, "1 vs 2 shards");
    assert_eq!(one, eight, "1 vs 8 shards");
    // Batch size is a transport knob, not a semantic one.
    let odd_batches = run_trace(3, 7);
    assert_eq!(one, odd_batches, "1×64 vs 3×7 shards×batch");
}

/// The engine must agree with the paper's single-threaded deployment
/// model (a plain FlowTable over the same spec) — sharding is an
/// execution detail, not an accuracy trade.
#[test]
fn engine_matches_single_threaded_reference_on_trace() {
    let sp = spec();
    let mut reference = smb_sketch::FlowTable::new(move |_| sp.build().unwrap());
    let trace = TraceConfig::tiny(42).build();
    for p in trace.packets() {
        reference.record(p.flow as u64, &p.item_bytes());
    }
    for (flow, est) in run_trace(4, 128) {
        assert_eq!(reference.estimate(flow), Some(est), "flow {flow}");
    }
}

/// An estimator wrapper that sleeps per batch, making the worker
/// provably slower than the producer so the drop policy must engage.
struct Slow(DynEstimator, Arc<AtomicU64>);

impl CardinalityEstimator for Slow {
    fn record_hash(&mut self, hash: ItemHash) {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.record_hash(hash);
    }
    fn record_hashes(&mut self, hashes: &[ItemHash]) {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.1.fetch_add(hashes.len() as u64, Ordering::Relaxed);
        self.0.record_hashes(hashes);
    }
    fn estimate(&self) -> f64 {
        self.0.estimate()
    }
    fn scheme(&self) -> HashScheme {
        self.0.scheme()
    }
    fn memory_bits(&self) -> usize {
        self.0.memory_bits()
    }
    fn clear(&mut self) {
        self.0.clear();
    }
    fn name(&self) -> &'static str {
        "Slow"
    }
    fn max_estimate(&self) -> f64 {
        self.0.max_estimate()
    }
}

/// Backpressure under the drop policy: with a one-batch queue and a
/// deliberately slow worker, the producer must observe full queues and
/// shed load, and the books must balance exactly:
/// `ingested = recorded + dropped` after a flush.
#[test]
fn drop_policy_sheds_load_and_accounts_for_it() {
    let sp = spec();
    let recorded_probe = Arc::new(AtomicU64::new(0));
    let probe = Arc::clone(&recorded_probe);
    let mut engine = ShardedFlowEngine::with_factory(
        EngineConfig::new(sp)
            .with_shards(1)
            .with_batch(8)
            .with_queue_batches(1)
            .with_policy(BackpressurePolicy::DropNewest),
        sp.scheme(),
        Arc::new(move |_flow| {
            Box::new(Slow(sp.build().unwrap(), Arc::clone(&probe))) as DynEstimator
        }),
    )
    .expect("valid config");

    // Prime flow 1 past the tier ladder (17 distinct items > the
    // array tier's capacity) so the deliberately slow estimator is
    // materialized before the storm. One flush per item delivers with
    // blocking sends — nothing can drop during priming.
    const PRIME: u64 = 17;
    for i in 0..PRIME {
        engine.ingest(1, &(1_000_000 + i).to_le_bytes());
        engine.flush();
    }
    assert_eq!(engine.stats().total_dropped(), 0);

    const N: u64 = 400;
    for i in 0..N {
        engine.ingest(1, &i.to_le_bytes());
    }
    engine.flush();
    let stats = engine.stats();
    assert!(
        stats.total_dropped() > 0,
        "a 1-batch queue against a 1ms/batch worker must drop: {stats:?}"
    );
    assert!(stats.total_queue_full_events() > 0);
    assert_eq!(
        stats.total_recorded() + stats.total_dropped(),
        PRIME + N,
        "every ingested item is either recorded or counted as dropped"
    );
    assert_eq!(stats.total_recorded(), recorded_probe.load(Ordering::Relaxed));
    // Dropping loses items, so the estimate undercounts — but the flow
    // exists and is queryable.
    let est = engine.query(1).expect("flow 1 exists");
    assert!(est <= (PRIME + N) as f64 * 1.2, "{est}");
}

/// The blocking policy is lossless no matter how tiny the queue is.
#[test]
fn block_policy_is_lossless_under_tiny_queue() {
    let sp = spec();
    let probe = Arc::new(AtomicU64::new(0));
    let probe2 = Arc::clone(&probe);
    let mut engine = ShardedFlowEngine::with_factory(
        EngineConfig::new(sp)
            .with_shards(2)
            .with_batch(4)
            .with_queue_batches(1)
            .with_policy(BackpressurePolicy::Block),
        sp.scheme(),
        Arc::new(move |_flow| {
            Box::new(Slow(sp.build().unwrap(), Arc::clone(&probe2))) as DynEstimator
        }),
    )
    .expect("valid config");

    const N: u64 = 120;
    for i in 0..N {
        engine.ingest(i % 5, &i.to_le_bytes());
    }
    engine.flush();
    let stats = engine.stats();
    assert_eq!(stats.total_dropped(), 0);
    assert_eq!(stats.total_recorded(), N);
    assert_eq!(probe.load(Ordering::Relaxed), N);
    assert!(
        stats.total_queue_full_events() > 0,
        "the tiny queue must have been observed full at least once"
    );
}

/// Stats must expose per-shard balance on a many-flow workload.
#[test]
fn stats_report_shard_balance_and_occupancy() {
    let mut engine = ShardedFlowEngine::new(
        EngineConfig::new(spec()).with_shards(4).with_batch(32),
    )
    .expect("valid config");
    let trace = TraceConfig::tiny(7).build();
    for p in trace.packets() {
        engine.ingest(p.flow as u64, &p.item_bytes());
    }
    engine.flush();
    let stats = engine.stats();
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.total_enqueued(), trace.total_packets());
    assert_eq!(stats.total_flows(), 500);
    // 500 hashed flows over 4 shards: every shard gets traffic.
    for s in &stats.shards {
        assert!(s.flows > 0, "shard {} starved: {stats:?}", s.shard);
        assert!(s.items_enqueued > 0);
    }
    // Full batches dominate a long steady stream.
    let occupied: f64 = stats
        .shards
        .iter()
        .map(|s| s.mean_batch_occupancy)
        .sum::<f64>()
        / 4.0;
    assert!(occupied > 16.0, "mean occupancy {occupied} of batch 32");
    let text = stats.to_string();
    assert!(text.contains("enqueued"), "{text}");
}

/// Reads are read-only: estimating an unmaterialized flow replays its
/// stored hashes through a throwaway probe, and that probe must not
/// report lifecycle events. With m=256 at the default n_max the
/// threshold is T=14, so replaying a 16-hash array-tier flow morphs the
/// probe — an observed probe would count one phantom morph per query.
#[test]
fn queries_emit_no_phantom_morph_events() {
    use smb_engine::EngineQuery;
    use smb_telemetry::FlightEventKind;

    let spec = AlgoSpec::new(Algo::Smb).memory_bits(256).seed(9);
    let mut engine =
        ShardedFlowEngine::new(EngineConfig::new(spec).with_shards(1)).expect("valid config");
    for i in 0..16u32 {
        engine.ingest(7, &i.to_le_bytes());
    }
    engine.flush();
    assert_eq!(engine.tier_stats().array, 1, "16 distinct items stay in the array tier");
    let morphs = |engine: &ShardedFlowEngine| {
        let counter = engine.metrics_snapshot().counter_total("smb_morph_events_total");
        let flight = engine
            .flight_recorder()
            .expect("built via new()")
            .recent(256)
            .iter()
            .filter(|e| e.kind == FlightEventKind::Morph)
            .count();
        (counter, flight)
    };
    let before = morphs(&engine);
    let query = EngineQuery::new().with_estimate(7);
    let estimate = engine.run_query(&query).estimate.expect("flow 7 is resident");
    for _ in 0..99 {
        assert_eq!(engine.run_query(&query).estimate, Some(estimate));
    }
    assert_eq!(engine.query(7), Some(estimate));
    assert_eq!(morphs(&engine), before, "queries must not emit morph events");
}
