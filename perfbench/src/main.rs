//! perfbench — the TCP-path benchmark of the SMB flow engine.
//!
//! One run builds a workload's inputs from its seed, starts an
//! in-process `SmbServer` over a two-shard `ShardedFlowEngine` on a
//! loopback port, drives it through two `SmbClient` connections,
//! checks every answer, and prints its metrics by name with their
//! units. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads and the
//! metric definitions.
//!
//! ```text
//! perfbench --workload wide_ingest|full_ingest|read_mix --seed N
//!           --seconds S --trace 0|1 [--state-dir DIR]
//! ```

mod alloc;
mod drive;
mod gen;
mod layers;
mod stats;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use smb_engine::{CheckpointConfig, EngineQuery, ShardedFlowEngine};
use smb_sketch::{FlowTable, TierStats};
use smb_telemetry::RegistrySnapshot;
use smb_theory::{bound::beta_curve, optimal_t::optimal_threshold};

use drive::{engine_config, spec, ConnLog, Served, Tally};
use gen::{Inputs, Kind, INGEST_BATCH, WRITER_BATCH};
use layers::Metric;
use stats::{median, percentile, sliced_percentile};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups timed on their own before the measured passes; each pass
/// adds one more sample.
const SETUP_ONLY_REPS: usize = 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut state_dir = PathBuf::from(".bench_build/perfbench-state");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        state_dir,
    })
}

/// What one measured pass found: the figures that must repeat exactly
/// for a seed (`census`) and the timings that may not.
struct Pass {
    traced: bool,
    setup_s: f64,
    window_s: f64,
    acked: u64,
    heap_bytes: i64,
    reported_bytes: usize,
    census: String,
    tiers: TierStats,
    mre: f64,
    flows: usize,
    snapshot_bytes: Option<usize>,
    dropped: u64,
    /// Requests the `read_mix` reader completed in the window.
    reader_ops: usize,
    registry: Option<RegistrySnapshot>,
}

/// Per-sample-flow reference estimate and exact count.
struct Reference {
    by_flow: HashMap<u32, (f64, u32)>,
    mre_bound: f64,
}

/// Estimates of an in-process tiered `FlowTable` fed each sample
/// flow's records in the order the engine sees them, and the mean of
/// the per-flow relative-error bounds Theorem 3 gives at β ≥ 0.95.
fn reference(inputs: &Inputs) -> Reference {
    let spec = spec();
    let mut table = FlowTable::tiered(spec.scheme(), move |_| spec.build().expect("valid spec"));
    for records in inputs.sample_records() {
        for p in records {
            table.record(u64::from(p.flow), &p.item_bytes());
        }
    }
    let t = optimal_threshold(2048, 1e5).t;
    let deltas: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
    let mut bound_sum = 0.0;
    let mut by_flow = HashMap::new();
    for &flow in &inputs.sample {
        let truth = inputs.truth[flow as usize];
        let curve = beta_curve(2048, t, f64::from(truth), &deltas);
        bound_sum += curve
            .iter()
            .find(|&&(_, beta)| beta >= 0.95)
            .map_or(1.0, |&(d, _)| d);
        let estimate = table
            .estimate(u64::from(flow))
            .expect("sample flow has records");
        by_flow.insert(flow, (estimate, truth));
    }
    Reference {
        by_flow,
        mre_bound: bound_sum / inputs.sample.len() as f64,
    }
}

/// `read_mix`'s checkpoint: written once per build and seed, untimed,
/// into the state directory, and reused by every later run of both.
/// Keying it by build keeps a build from restoring state that another
/// build's cell layout or codec wrote.
fn ensure_checkpoint(inputs: &Inputs, seed: u64, state_dir: &Path) -> Result<PathBuf, String> {
    let name = format!("read_mix-checkpoint-{seed}-{}", build_id());
    let dir = state_dir.join(&name);
    if dir.exists() {
        return Ok(dir);
    }
    let tmp = state_dir.join(format!("{name}.tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut engine =
        ShardedFlowEngine::new(engine_config(inputs.flows(), false)).map_err(|e| e.to_string())?;
    for p in &inputs.base {
        engine.ingest(u64::from(p.flow), &p.item_bytes());
    }
    engine
        .checkpoint_now(&CheckpointConfig::new(&tmp))
        .map_err(|e| e.to_string())?;
    engine.finish();
    std::fs::rename(&tmp, &dir).or_else(|e| {
        if dir.exists() {
            Ok(())
        } else {
            Err(e.to_string())
        }
    })?;
    Ok(dir)
}

/// Build (or restore) the engine, start the server, connect both
/// clients; returns the server, the set-up wall time and, when a
/// checkpoint was restored, the restore's share of it.
fn set_up(
    inputs: &Inputs,
    checkpoint: Option<&Path>,
    traced: bool,
) -> Result<(Served, f64, Option<f64>), String> {
    let t0 = Instant::now();
    let config = engine_config(inputs.flows(), traced);
    let (engine, restore_s) = match checkpoint {
        Some(dir) => {
            let engine = ShardedFlowEngine::restore_with(config, dir)
                .map_err(|e| e.to_string())?
                .0;
            (engine, Some(t0.elapsed().as_secs_f64()))
        }
        None => (
            ShardedFlowEngine::new(config).map_err(|e| e.to_string())?,
            None,
        ),
    };
    let served = Served::start(engine)?;
    Ok((served, t0.elapsed().as_secs_f64(), restore_s))
}

fn run_pass(
    inputs: &Inputs,
    checkpoint: Option<&Path>,
    traced: bool,
    logs: &mut [ConnLog; 2],
    reference: &Reference,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let client_bytes = |logs: &[ConnLog; 2]| logs.iter().map(ConnLog::heap_bytes).sum::<i64>();
    let baseline = alloc::live() - client_bytes(logs);
    let (mut served, setup_s, _) = set_up(inputs, checkpoint, traced)?;
    let mut snapshot_bytes = None;
    let window_s = if inputs.kind == Kind::ReadMix {
        let window = drive::read_mix_window(&mut served, inputs, logs);
        // Untimed, after the writer's last batch: the sample estimates
        // and one final snapshot, both read through the writer's own
        // session so they see every record it sent.
        let writer = &mut served.clients[0];
        drive::query_flows(writer, &inputs.sample, false, &mut logs[0]);
        match writer.snapshot() {
            Ok(cells) => {
                let block =
                    smb_sketch::codec::encode_flow_block(&cells).map_err(|e| e.to_string())?;
                snapshot_bytes = Some(block.len());
            }
            Err(e) => {
                eprintln!("perfbench: final SNAPSHOT failed: {e}");
                logs[0].tally.failed += 1;
            }
        }
        window
    } else {
        drive::ingest_window(&mut served, inputs, logs)
    };
    let engine = served.stop()?;
    let heap_bytes = alloc::live() - client_bytes(logs) - baseline;
    let report = engine.run_query(&EngineQuery::new().with_flow_count().with_memory_bytes());
    let registry = traced.then(|| engine.metrics_snapshot());
    let stats = engine.finish();

    let mut failed = 0u64;
    let acked: u64 = logs.iter().map(|l| l.acked).sum();
    if acked != inputs.records() {
        eprintln!(
            "perfbench: {acked} records acknowledged, {} sent",
            inputs.records()
        );
        failed += 1;
    }
    let mut rel_err = Vec::with_capacity(inputs.sample.len());
    for (flow, estimate) in logs.iter().flat_map(|l| &l.estimates) {
        let (want, truth) = reference.by_flow[flow];
        match estimate {
            Some(got) if got.to_bits() == want.to_bits() => {
                rel_err.push((got - f64::from(truth)).abs() / f64::from(truth));
            }
            other => {
                eprintln!("perfbench: flow {flow}: server estimate {other:?}, in-process {want}");
                failed += 1;
            }
        }
    }
    if rel_err.len() != inputs.sample.len() {
        eprintln!(
            "perfbench: {} of {} sample estimates checked",
            rel_err.len(),
            inputs.sample.len()
        );
        failed += 1;
    }
    let mre = rel_err.iter().sum::<f64>() / rel_err.len().max(1) as f64;
    if mre.is_nan() || mre > reference.mre_bound {
        eprintln!(
            "perfbench: estimate_mre {mre} exceeds the smb-theory bound {}",
            reference.mre_bound
        );
        failed += 1;
    }
    for log in logs.iter() {
        tally.add(log.tally);
    }
    tally.failed += failed;

    let flows = report.flow_count.unwrap_or(0);
    let t = report.tier_stats;
    let mut census = format!(
        "records={acked} flows={flows} small={} array={} full={} promotions_to_full={} heap_bytes={heap_bytes} estimate_mre={mre:.17e}",
        t.small, t.array, t.full, t.promotions_to_full
    );
    if let Some(bytes) = snapshot_bytes {
        let _ = write!(census, " snapshot_bytes={bytes}");
    }
    Ok(Pass {
        traced,
        setup_s,
        window_s,
        acked,
        heap_bytes,
        reported_bytes: report.memory_bytes.unwrap_or(0),
        census,
        tiers: t,
        mre,
        flows,
        snapshot_bytes,
        dropped: stats.total_dropped(),
        reader_ops: logs[1].query_us.len() + logs[1].top_k_ms.len() + logs[1].snapshot_ms.len(),
        registry,
    })
}

/// FNV-1a of this executable, so recorded census lines and the
/// `read_mix` checkpoint are only ever used by runs of the same build.
fn build_id() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let bytes = std::env::current_exe()
            .and_then(std::fs::read)
            .unwrap_or_default();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        format!("{hash:016x}")
    })
}

/// Compare this run's census with the one recorded by the first correct
/// run of the same build, workload, seed and window. When none is
/// recorded yet, record this one if the run is otherwise correct
/// (`record`), so a failed run never becomes the reference.
fn check_repeat(args: &Args, census: &str, record: bool) -> Result<bool, String> {
    let dir = args.state_dir.join("census");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(format!(
        "{}-seed{}-s{}-t{}-{}.txt",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        build_id()
    ));
    match std::fs::read_to_string(&file) {
        Ok(recorded) if recorded.trim() == census => Ok(true),
        Ok(recorded) => {
            eprintln!("perfbench: census differs from an earlier run of this seed:\n  was {}\n  now {census}", recorded.trim());
            Ok(false)
        }
        Err(_) if !record => Ok(true),
        Err(_) => {
            let tmp = file.with_extension(format!("tmp-{}", std::process::id()));
            std::fs::write(&tmp, census).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &file).map_err(|e| e.to_string())?;
            Ok(true)
        }
    }
}

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| {
        format!("too few samples for {what}: fewer than ten lie beyond the percentile")
    })
}

/// Latency samples cut into slices: one per measured pass, or, for a
/// single long window, up to six consecutive stretches of at least a
/// thousand samples each.
fn slices(per_pass: &[Vec<f64>]) -> Vec<&[f64]> {
    match per_pass {
        [one] => {
            let k = (one.len() / 1000).clamp(1, 6);
            one.chunks(one.len().div_ceil(k).max(1)).collect()
        }
        many => many.iter().map(Vec::as_slice).collect(),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.state_dir)
        .map_err(|e| format!("create {}: {e}", args.state_dir.display()))?;
    let kind = args.kind;
    // read_mix's writer schedule spans the window; the traced run
    // splits its time between an untraced and a traced window.
    let window = if kind == Kind::ReadMix && args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let inputs = Inputs::build(kind, args.seed, window);
    let reference = reference(&inputs);
    let checkpoint = match kind {
        Kind::ReadMix => Some(ensure_checkpoint(&inputs, args.seed, &args.state_dir)?),
        _ => None,
    };
    println!(
        "workload {} seed {}: {} records over {} flows, {} sample flows, inputs built in {:.2} s",
        kind.name(),
        args.seed,
        inputs.records(),
        inputs.flows(),
        inputs.sample.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut logs = [ConnLog::default(), ConnLog::default()];
    let mut batch_us: Vec<Vec<f64>> = Vec::new();
    let mut query_us: Vec<Vec<f64>> = Vec::new();
    let (mut top_k_ms, mut snapshot_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());

    let mut setup_s = Vec::new();
    let mut restore_ms = Vec::new();
    for _ in 0..SETUP_ONLY_REPS {
        let (served, secs, restore_s) = set_up(&inputs, checkpoint.as_deref(), false)?;
        setup_s.push(secs);
        restore_ms.extend(restore_s.map(|s| s * 1e3));
        served.stop()?.finish();
    }

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = run_pass(
            &inputs,
            checkpoint.as_deref(),
            traced,
            &mut logs,
            &reference,
            &mut tally,
        )?;
        println!(
            "pass {}{}: {} records in {:.3} s ({:.0} items/s), set-up {:.4} s; {}",
            passes.len(),
            if traced { " (traced)" } else { "" },
            pass.acked,
            pass.window_s,
            pass.acked as f64 / pass.window_s,
            pass.setup_s,
            pass.census
        );
        setup_s.push(pass.setup_s);
        if !traced {
            batch_us.push(
                logs.iter()
                    .flat_map(|l| l.batch_us.iter().copied())
                    .collect(),
            );
            query_us.push(
                logs.iter()
                    .flat_map(|l| l.query_us.iter().copied())
                    .collect(),
            );
            top_k_ms.extend(logs.iter().flat_map(|l| l.top_k_ms.iter().copied()));
            snapshot_ms.extend(logs.iter().flat_map(|l| l.snapshot_ms.iter().copied()));
            late_ms.extend(logs.iter().flat_map(|l| l.late_ms.iter().copied()));
        }
        passes.push(pass);
        let enough = if args.trace {
            passes.len() >= 2
        } else {
            !passes.is_empty()
        };
        let one_window = kind == Kind::ReadMix;
        if enough && (one_window || started.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }

    let mut correct = tally.failed == 0;
    if passes.iter().any(|p| p.census != passes[0].census) {
        eprintln!("perfbench: passes of one run did different work:");
        for p in &passes {
            eprintln!("  {}", p.census);
        }
        correct = false;
    }
    let first = &passes[0];
    if !check_repeat(args, &first.census, correct)? {
        correct = false;
    }
    println!("census {}", first.census);

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let throughput: Vec<f64> = untraced
        .iter()
        .map(|p| p.acked as f64 / p.window_s)
        .collect();
    let heap_per_flow = first.heap_bytes as f64 / first.flows.max(1) as f64;
    let batch_slices = slices(&batch_us);
    let query_slices = slices(&query_us);
    let latency = |slices: &[&[f64]], q: f64, name: &str| need(sliced_percentile(slices, q), name);
    let e2e: Vec<Metric> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("ingest_items_per_s", median(&throughput), "1/s"),
        (
            "record_batch_p50_us",
            latency(&batch_slices, 0.50, "record_batch_p50_us")?,
            "us",
        ),
        (
            "query_p50_us",
            latency(&query_slices, 0.50, "query_p50_us")?,
            "us",
        ),
        ("heap_bytes_per_flow", heap_per_flow, "B"),
    ];
    // Tail latencies and accuracy: reported by the traced run, without
    // a bound (see README.md, "Deviations").
    let unbounded: Vec<Metric> = vec![
        (
            "record_batch_p99_us",
            latency(&batch_slices, 0.99, "record_batch_p99_us")?,
            "us",
        ),
        (
            "query_p99_us",
            latency(&query_slices, 0.99, "query_p99_us")?,
            "us",
        ),
        ("estimate_mre", first.mre, "ratio"),
    ];
    println!(
        "samples: {} record batches, {} queries in {} and {} slices, {} top-k, {} snapshots over {} passes; mre bound {:.4}",
        batch_us.iter().map(Vec::len).sum::<usize>(),
        query_us.iter().map(Vec::len).sum::<usize>(),
        batch_slices.len(),
        query_slices.len(),
        top_k_ms.len(),
        snapshot_ms.len(),
        untraced.len(),
        reference.mre_bound
    );
    let mut extra: Vec<Metric> = Vec::new();
    if let Some(p) = percentile(&top_k_ms, 0.5) {
        extra.push(("top_k_p50_ms", p, "ms"));
    }
    if let Some(p) = percentile(&snapshot_ms, 0.5) {
        extra.push(("snapshot_p50_ms", p, "ms"));
    }
    if let Some(bytes) = first.snapshot_bytes {
        extra.push((
            "snapshot_bytes_per_flow",
            bytes as f64 / first.flows.max(1) as f64,
            "B",
        ));
    }
    extra.push((
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    for (name, value, unit) in e2e.iter().chain(&unbounded).chain(&extra) {
        println!("metric {name} = {value} {unit}");
    }

    let metrics = if args.trace {
        let mut layer = per_layer(
            args,
            &inputs,
            &passes,
            &late_ms,
            checkpoint.as_deref(),
            &restore_ms,
        )?;
        layer.extend(unbounded);
        layer
    } else {
        e2e
    };
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The traced run's per-layer metrics: the traced pass's registry,
/// the untraced/traced comparison, and the layer replays.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    passes: &[Pass],
    late_ms: &[f64],
    checkpoint: Option<&Path>,
    restore_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    let traced = passes.iter().find(|p| p.traced).ok_or("no traced pass")?;
    let plain = passes
        .iter()
        .find(|p| !p.traced)
        .ok_or("no untraced pass")?;
    let registry = traced
        .registry
        .as_ref()
        .ok_or("traced pass kept no registry")?;
    let batch = if inputs.kind == Kind::ReadMix {
        WRITER_BATCH
    } else {
        INGEST_BATCH
    };
    let restore = (!restore_ms.is_empty()).then(|| median(restore_ms));
    let replays = layers::replay(inputs, batch, &args.state_dir, checkpoint, restore)?;
    let get = |name: &str| replays.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);

    let records_in = registry.counter_total("net_records_total");
    let bytes_in = registry
        .get("net_frame_bytes_in", &[])
        .and_then(|v| v.as_histogram())
        .map_or(0, |h| h.sum);
    let q = |stage: &str, q: f64| layers::stage_quantile(registry, stage, q);
    let rate = |p: &Pass| {
        let work = if inputs.kind == Kind::ReadMix {
            p.reader_ops as f64
        } else {
            p.acked as f64
        };
        work / p.window_s
    };
    let overhead = rate(plain) / rate(traced);
    // Per-record CPU the replays attribute (client encode, server
    // decode, edge hash, enqueue, table kernel) plus the traced
    // window's query sweeps, over the CPU the window offered.
    let per_record = get("net.encode_ns_per_record")
        + get("net.decode_ns_per_record")
        + get("hash.item_hash_ns")
        + q("enqueue", 0.5) / engine_config(0, false).batch as f64
        + get("sketch.record_batch_ns_per_item");
    let sweep_ns = if inputs.kind == Kind::ReadMix {
        layers::stage_buckets(registry, "query_sweep").1 as f64
    } else {
        0.0
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let coverage = (per_record * traced.acked as f64 + sweep_ns) / (traced.window_s * 1e9 * cores);
    let t = traced.tiers;

    let mut out: Vec<Metric> = vec![
        (
            "net.bytes_in_per_record",
            bytes_in as f64 / records_in.max(1) as f64,
            "B",
        ),
        (
            "net.errors",
            registry.counter_total("net_errors_total") as f64,
            "count",
        ),
        ("engine.stage.enqueue_p50_ns", q("enqueue", 0.5), "ns"),
        (
            "engine.stage.queue_wait_p50_us",
            q("queue_wait", 0.5) / 1e3,
            "us",
        ),
        (
            "engine.stage.queue_wait_p99_us",
            q("queue_wait", 0.99) / 1e3,
            "us",
        ),
        (
            "engine.stage.record_batch_p50_us",
            q("record_batch", 0.5) / 1e3,
            "us",
        ),
        (
            "engine.stage.query_sweep_p50_ms",
            q("query_sweep", 0.5) / 1e6,
            "ms",
        ),
        ("engine.dropped_items", traced.dropped as f64, "count"),
        ("sketch.tier.small", t.small as f64, "count"),
        ("sketch.tier.array", t.array as f64, "count"),
        ("sketch.tier.full", t.full as f64, "count"),
        (
            "sketch.promotions_to_full",
            t.promotions_to_full as f64,
            "count",
        ),
        (
            "sketch.memory_reported_over_heap",
            traced.reported_bytes as f64 / traced.heap_bytes.max(1) as f64,
            "ratio",
        ),
        (
            "bench.writer_late_p99_ms",
            if inputs.kind == Kind::ReadMix {
                need(percentile(late_ms, 0.99), "writer lateness")?
            } else {
                0.0
            },
            "ms",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.coverage", coverage, "ratio"),
    ];
    out.extend(replays);
    for m in &out {
        println!("layer {} = {} {}", m.0, m.1, m.2);
    }
    Ok(out)
}

fn json_line(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload wide_ingest|full_ingest|read_mix --seed N --seconds S --trace 0|1 [--state-dir DIR]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.1.is_finite()) => {
            println!("{}", json_line(&outcome));
            if outcome.correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: the run failed its correctness checks");
                ExitCode::FAILURE
            }
        }
        Ok(_) => {
            eprintln!("perfbench: a metric came out non-finite");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
