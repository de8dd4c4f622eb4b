//! The traced run's layer replays: each layer's public functions,
//! called directly from the benchmark on the workload's own data and
//! timed here. Nothing inside the program is instrumented.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use smb_core::{CardinalityEstimator, Smb};
use smb_engine::{CheckpointConfig, ShardedFlowEngine};
use smb_hash::ItemHash;
use smb_sketch::{codec, FlowTable};
use smb_stream::Packet;
use smb_telemetry::{HistogramSnapshot, RegistrySnapshot};

use crate::drive::{engine_config, spec};
use crate::gen::Inputs;
use crate::stats::{bucket_quantile, median};

/// About this many records are replayed through the per-record
/// layers.
const REPLAY_RECORDS: usize = 1 << 20;
/// Sample flows replayed through the per-flow layers.
const REPLAY_FLOWS: usize = 500;

/// A named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Median over `reps` runs of `f`'s wall time.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&secs))
}

/// Every record of a hashed subset of the flows, sized to about
/// `REPLAY_RECORDS`, in batch-sized chunks alternating between the
/// connections as the server receives them. Whole flows are kept so
/// per-flow work (promotions) keeps its share of the per-record cost.
fn replay_stream(inputs: &Inputs, batch: usize) -> Vec<Packet> {
    let keep = (inputs.records() as usize).div_ceil(REPLAY_RECORDS) as u64;
    let kept = |c: &Vec<Packet>| -> Vec<Packet> {
        c.iter()
            .copied()
            .filter(|p| (u64::from(p.flow).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % keep == 0)
            .collect()
    };
    let conns = [kept(&inputs.conns[0]), kept(&inputs.conns[1])];
    let mut out = Vec::with_capacity(conns[0].len() + conns[1].len());
    let mut chunks = [conns[0].chunks(batch), conns[1].chunks(batch)];
    let mut live = true;
    while live {
        live = false;
        for chunk in chunks.iter_mut().filter_map(Iterator::next) {
            live = true;
            out.extend_from_slice(chunk);
        }
    }
    out
}

fn tiered_table() -> FlowTable<smb_factory::DynEstimator> {
    let spec = spec();
    FlowTable::tiered(spec.scheme(), move |_| spec.build().expect("valid spec"))
}

/// Net, hash, engine, sketch, core, factory and theory replays.
/// `restore_ms` is the measured `ShardedFlowEngine::restore` time when
/// the workload's set-up already restores a checkpoint (`read_mix`);
/// otherwise a state is checkpointed under `work_dir` and restored here.
pub fn replay(
    inputs: &Inputs,
    batch: usize,
    work_dir: &Path,
    checkpoint: Option<&Path>,
    restore_ms: Option<f64>,
) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let scheme = spec().scheme();
    let records = replay_stream(inputs, batch);
    let n = records.len();
    let flows_hint = inputs.flows();

    // net: the client's encode and the server's decode of the frames.
    let items: Vec<[u8; 8]> = records.iter().map(Packet::item_bytes).collect();
    let frames: Vec<Vec<(u64, &[u8])>> = records
        .chunks(batch)
        .zip(items.chunks(batch))
        .map(|(ps, bs)| {
            ps.iter()
                .zip(bs)
                .map(|(p, b)| (u64::from(p.flow), &b[..]))
                .collect()
        })
        .collect();
    let encode = median_time(5, || {
        for f in &frames {
            black_box(smb_net::proto::encode_record_batch(f));
        }
    });
    out.push(("net.encode_ns_per_record", ns_per(encode, n), "ns"));
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| smb_net::proto::encode_record_batch(f))
        .collect();
    drop(frames);
    let mut decode_err = None;
    let decode = median_time(5, || {
        for p in &payloads {
            if let Err(e) = black_box(smb_net::proto::decode_record_batch(p)) {
                decode_err = Some(e.to_string());
            }
        }
    });
    if let Some(e) = decode_err {
        return Err(format!("decode_record_batch replay: {e}"));
    }
    out.push(("net.decode_ns_per_record", ns_per(decode, n), "ns"));
    drop(payloads);

    // hash: the server edge's one hash per item.
    let hash = median_time(5, || {
        for it in &items {
            black_box(scheme.item_hash(black_box(it)));
        }
    });
    out.push(("hash.item_hash_ns", ns_per(hash, n), "ns"));

    // engine: an in-process producer, no socket.
    let mut engine =
        ShardedFlowEngine::new(engine_config(flows_hint, false)).map_err(|e| e.to_string())?;
    let mut producer = engine.producer_handle();
    let t0 = Instant::now();
    for (p, it) in records.iter().zip(&items) {
        producer.ingest(u64::from(p.flow), it);
    }
    producer.barrier();
    out.push(("engine.ingest_ns_per_item", ns_per(t0.elapsed(), n), "ns"));
    let barrier_us: Vec<f64> = records
        .iter()
        .zip(&items)
        .take(200)
        .map(|(p, it)| {
            producer.ingest(u64::from(p.flow), it);
            let t0 = Instant::now();
            producer.barrier();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("engine.barrier_p50_us", median(&barrier_us), "us"));
    drop(producer);
    let state_dir = match checkpoint {
        Some(dir) => dir.to_path_buf(),
        None => {
            let dir = work_dir.join(format!("layer-state-{}", inputs.kind.name()));
            let _ = std::fs::remove_dir_all(&dir);
            engine
                .checkpoint_now(&CheckpointConfig::new(&dir))
                .map_err(|e| e.to_string())?;
            dir
        }
    };
    engine.finish();
    let restore_ms = match restore_ms {
        Some(ms) => ms,
        None => {
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let restored =
                        ShardedFlowEngine::restore_with(engine_config(0, false), &state_dir);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    restored.map(|_| ms).map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            median(&times)
        }
    };
    out.push(("engine.restore_ms", restore_ms, "ms"));

    // sketch: the codec over the checkpointed state's cells.
    let (state, _) = ShardedFlowEngine::restore_with(engine_config(0, false), &state_dir)
        .map_err(|e| e.to_string())?;
    let cells = state
        .query_handle()
        .snapshot_cells()
        .map_err(|e| e.to_string())?;
    drop(state);
    let block = codec::encode_flow_block(&cells).map_err(|e| e.to_string())?;
    let enc = median_time(3, || {
        black_box(codec::encode_flow_block(&cells).expect("encoded once already"));
    });
    let dec = median_time(3, || {
        black_box(codec::decode_flow_block(&block).expect("round-trips"));
    });
    out.push(("sketch.codec.encode_ms", enc.as_secs_f64() * 1e3, "ms"));
    out.push(("sketch.codec.decode_ms", dec.as_secs_f64() * 1e3, "ms"));
    drop(cells);

    // sketch: the single-threaded table kernel on pre-hashed records.
    let hashed: Vec<(u64, ItemHash)> = records
        .iter()
        .zip(&items)
        .map(|(p, it)| (u64::from(p.flow), scheme.item_hash(it)))
        .collect();
    drop(items);
    let mut table = tiered_table();
    table.reserve(flows_hint);
    let t0 = Instant::now();
    for chunk in hashed.chunks(256) {
        table.record_batch(chunk);
    }
    out.push((
        "sketch.record_batch_ns_per_item",
        ns_per(t0.elapsed(), n),
        "ns",
    ));
    drop(table);
    drop(hashed);

    // sketch + core: per-flow replays over sample flows.
    let per_flow: Vec<(u32, Vec<ItemHash>)> = inputs
        .sample
        .iter()
        .copied()
        .zip(inputs.sample_records())
        .take(REPLAY_FLOWS)
        .map(|(flow, ps)| {
            (
                flow,
                ps.iter()
                    .map(|p| scheme.item_hash(&p.item_bytes()))
                    .collect(),
            )
        })
        .collect();
    let mut inline = tiered_table();
    for (flow, hashes) in &per_flow {
        for &h in hashes.iter().take(8) {
            inline.record_hash(u64::from(*flow), h);
        }
    }
    let t0 = Instant::now();
    for (flow, _) in &per_flow {
        black_box(inline.estimate(u64::from(*flow)));
    }
    out.push((
        "sketch.estimate_inline_us",
        ns_per(t0.elapsed(), per_flow.len()) / 1e3,
        "us",
    ));
    drop(inline);
    let mut full = FlowTable::new(move |_| spec().build().expect("valid spec"));
    for (flow, hashes) in &per_flow {
        full.record_hashes(u64::from(*flow), hashes);
    }
    let full_est = median_time(5, || {
        for _ in 0..20 {
            for (flow, _) in &per_flow {
                black_box(full.estimate(black_box(u64::from(*flow))));
            }
        }
    });
    out.push((
        "sketch.estimate_full_ns",
        ns_per(full_est, 20 * per_flow.len()),
        "ns",
    ));
    drop(full);

    let t = smb_theory::optimal_t::optimal_threshold(2048, 1e5).t;
    let proto = Smb::with_scheme(2048, t, scheme).map_err(|e| e.to_string())?;
    let (mut busy, mut items_recorded, mut ones) = (Duration::ZERO, 0usize, 0usize);
    for (_, hashes) in &per_flow {
        let mut smb = proto.clone();
        let t0 = Instant::now();
        for &h in hashes {
            smb.record_hash(h);
        }
        busy += t0.elapsed();
        items_recorded += hashes.len();
        ones += smb.ones();
    }
    out.push((
        "core.smb.record_ns_per_item",
        ns_per(busy, items_recorded),
        "ns",
    ));
    out.push((
        "core.smb.fresh_bit_share",
        ones as f64 / items_recorded.max(1) as f64,
        "ratio",
    ));

    let build_us: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spec().build().expect("valid spec"));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("factory.build_us", median(&build_us), "us"));
    let theory_us: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            black_box(smb_theory::optimal_t::optimal_threshold(
                black_box(2048),
                black_box(1e5),
            ));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("theory.optimal_threshold_us", median(&theory_us), "us"));
    Ok(out)
}

/// Per-bucket `(upper_bound, count)` pairs of a cumulative snapshot.
fn bucket_counts(h: &HistogramSnapshot) -> Vec<(u64, u64)> {
    let mut prev = 0;
    h.buckets
        .iter()
        .map(|&(bound, cumulative)| {
            let count = cumulative - prev;
            prev = cumulative;
            (bound, count)
        })
        .collect()
}

/// One stage histogram merged over both shards (`shard="all"` for
/// the query sweep), as per-bucket counts.
pub fn stage_buckets(registry: &RegistrySnapshot, stage: &str) -> (Vec<(u64, u64)>, u64) {
    let shards: &[&str] = if stage == "query_sweep" {
        &["all"]
    } else {
        &["0", "1"]
    };
    let mut merged: Vec<(u64, u64)> = Vec::new();
    let mut sum = 0;
    for shard in shards {
        let Some(h) = registry
            .get(
                "engine_stage_duration_ns",
                &[("shard", shard), ("stage", stage)],
            )
            .and_then(|v| v.as_histogram())
        else {
            continue;
        };
        sum += h.sum;
        for (i, (bound, count)) in bucket_counts(h).into_iter().enumerate() {
            if i == merged.len() {
                merged.push((bound, 0));
            }
            merged[i].1 += count;
        }
    }
    (merged, sum)
}

/// Quantile `q` of a stage histogram merged over shards, in ns.
pub fn stage_quantile(registry: &RegistrySnapshot, stage: &str, q: f64) -> f64 {
    bucket_quantile(&stage_buckets(registry, stage).0, q)
}
