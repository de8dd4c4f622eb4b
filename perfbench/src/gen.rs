//! Seeded workload inputs, built before any clock starts.
//!
//! Every record is a [`Packet`] `(flow, item)`: the flow key travels
//! as the `RECORD_BATCH` flow varint and the item as the packet's
//! eight `flow‖item` bytes, so items are distinct across flows and a
//! flow's exact cardinality is known from the generator. Flows are
//! split between the two connections by key parity, so each flow's
//! record order is fixed by the seed alone.

use smb_devtools::{Rng, Xoshiro256pp};
use smb_stream::dist::{truncated_pareto, Zipf};
use smb_stream::{Packet, TraceConfig};

/// Which traffic mix to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WideIngest,
    FullIngest,
    ReadMix,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "wide_ingest" => Some(Kind::WideIngest),
            "full_ingest" => Some(Kind::FullIngest),
            "read_mix" => Some(Kind::ReadMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WideIngest => "wide_ingest",
            Kind::FullIngest => "full_ingest",
            Kind::ReadMix => "read_mix",
        }
    }
}

/// Records per `RECORD_BATCH` on the closed-loop ingest workloads.
pub const INGEST_BATCH: usize = 1024;
/// `read_mix` writer: records per batch and batches per second.
pub const WRITER_BATCH: usize = 32;
pub const WRITER_RATE: f64 = 200.0;
/// `read_mix` reader: `TOP_K` size, and `QUERY`s before each `TOP_K`
/// or `SNAPSHOT`.
pub const TOP_K: u64 = 100;
const READ_RUN: usize = 2048;

/// One reader request in `read_mix`'s repeating sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    Query(u64),
    TopK,
    Snapshot,
}

/// Everything one workload run sends and checks.
pub struct Inputs {
    pub kind: Kind,
    /// Records each connection sends, in order. On `read_mix`
    /// connection 0 is the writer and connection 1 sends none.
    pub conns: [Vec<Packet>; 2],
    /// `read_mix` only: the records the restored checkpoint holds,
    /// in the order they were ingested.
    pub base: Vec<Packet>,
    /// Exact distinct items per flow once every record has landed.
    pub truth: Vec<u32>,
    /// Flows whose estimates are checked after each window.
    pub sample: Vec<u32>,
    /// `read_mix` only: the reader's repeating request sequence.
    pub reads: Vec<Read>,
}

impl Inputs {
    pub fn build(kind: Kind, seed: u64, seconds: f64) -> Inputs {
        match kind {
            Kind::WideIngest => wide(seed),
            Kind::FullIngest => full(seed),
            Kind::ReadMix => read_mix(seed, seconds),
        }
    }

    /// Flows tracked once every record has landed.
    pub fn flows(&self) -> usize {
        self.truth.len()
    }

    /// Records the server is sent in one window.
    pub fn records(&self) -> u64 {
        (self.conns[0].len() + self.conns[1].len()) as u64
    }

    /// Every record of each sample flow, in the order the engine sees
    /// it (checkpointed base first, then the connection's records).
    pub fn sample_records(&self) -> Vec<Vec<Packet>> {
        let mut slot = vec![u32::MAX; self.flows()];
        for (i, &flow) in self.sample.iter().enumerate() {
            slot[flow as usize] = i as u32;
        }
        let mut out = vec![Vec::new(); self.sample.len()];
        let all = self.base.iter().chain(&self.conns[0]).chain(&self.conns[1]);
        for p in all {
            let i = slot[p.flow as usize];
            if i != u32::MAX {
                out[i as usize].push(*p);
            }
        }
        out
    }
}

fn rng(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn split_by_parity(records: impl IntoIterator<Item = Packet>) -> [Vec<Packet>; 2] {
    let mut conns = [Vec::new(), Vec::new()];
    for p in records {
        conns[(p.flow & 1) as usize].push(p);
    }
    conns
}

/// `n` distinct flows drawn uniformly from `pool`, in draw order.
fn choose(pool: &[u32], n: usize, rng: &mut Xoshiro256pp) -> Vec<u32> {
    let mut pool = pool.to_vec();
    let n = n.min(pool.len());
    for i in 0..n {
        let j = i + rng.gen_below_u64((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// About 1M flows of 1–16 distinct items (Pareto α=1.1, capped at the
/// array-tier limit so no flow promotes), about two records per
/// distinct item, shuffled so consecutive records almost never share
/// a flow.
fn wide(seed: u64) -> Inputs {
    const FLOWS: usize = 1_000_000;
    let mut r = rng(seed, 1);
    let mut truth = Vec::with_capacity(FLOWS);
    let mut records = Vec::new();
    for flow in 0..FLOWS as u32 {
        let card = truncated_pareto(&mut r, 1.1, 16.0).round().max(1.0) as u32;
        let total = (f64::from(card) * (1.0 + 2.0 * r.gen_f64())).round() as u32;
        truth.push(card);
        for seq in 0..total.max(card) {
            let item = if seq < card {
                seq
            } else {
                r.gen_below_u64(u64::from(card)) as u32
            };
            records.push(Packet { flow, item });
        }
    }
    for i in (1..records.len()).rev() {
        let j = r.gen_below_u64(i as u64 + 1) as usize;
        records.swap(i, j);
    }
    let all: Vec<u32> = (0..FLOWS as u32).collect();
    let sample = choose(&all, 1200, &mut rng(seed, 2));
    Inputs {
        kind: Kind::WideIngest,
        conns: split_by_parity(records),
        base: Vec::new(),
        truth,
        sample,
        reads: Vec::new(),
    }
}

/// 10k flows of 500–4000 distinct items (Pareto α=1.1), each item
/// seen about twice, sent in bursts of 32 records per flow. Flow
/// starts are staggered over the first three quarters of the stream
/// so promotions to the full tier spread across the window.
fn full(seed: u64) -> Inputs {
    const FLOWS: usize = 10_000;
    const BURST: u32 = 32;
    let mut r = rng(seed, 3);
    let truth: Vec<u32> = (0..FLOWS)
        .map(|_| {
            (500.0 * truncated_pareto(&mut r, 1.1, 8.0))
                .round()
                .clamp(500.0, 4000.0) as u32
        })
        .collect();
    let mut bursts: Vec<(f64, u32)> = Vec::new();
    for (flow, &card) in truth.iter().enumerate() {
        let n = (2 * card).div_ceil(BURST);
        let start = 0.75 * r.gen_f64();
        let stride = (1.0 - start) / f64::from(n);
        for j in 0..n {
            bursts.push((
                start + (f64::from(j) + 0.5 * r.gen_f64()) * stride,
                flow as u32,
            ));
        }
    }
    bursts.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Per flow: new items left, repeats left, next new item index.
    let mut left: Vec<(u32, u32, u32)> = truth.iter().map(|&c| (c, c, 0)).collect();
    let mut records = Vec::with_capacity(truth.iter().map(|&c| 2 * c as usize).sum());
    for &(_, flow) in &bursts {
        let state = &mut left[flow as usize];
        for _ in 0..BURST {
            let (new, rep, next) = *state;
            if new + rep == 0 {
                break;
            }
            let fresh = next == 0 || r.gen_below_u64(u64::from(new + rep)) < u64::from(new);
            let item = if fresh {
                *state = (new - 1, rep, next + 1);
                next
            } else {
                *state = (new, rep - 1, next);
                r.gen_below_u64(u64::from(next)) as u32
            };
            records.push(Packet { flow, item });
        }
    }
    let all: Vec<u32> = (0..FLOWS as u32).collect();
    let sample = choose(&all, 800, &mut rng(seed, 4));
    Inputs {
        kind: Kind::FullIngest,
        conns: split_by_parity(records),
        base: Vec::new(),
        truth,
        sample,
        reads: Vec::new(),
    }
}

/// A CAIDA-shaped state of 4000 flows (mostly inline, a few percent
/// full) restored from a checkpoint, a writer adding
/// `WRITER_RATE × seconds` batches of Zipf-chosen records (a quarter
/// of them new items), and a reader cycling through `QUERY`s, a
/// `TOP_K` and a `SNAPSHOT`.
fn read_mix(seed: u64, seconds: f64) -> Inputs {
    const FLOWS: usize = 4000;
    let trace = TraceConfig {
        flows: FLOWS,
        max_cardinality: 50_000,
        alpha: 1.1,
        duplication: 2.0,
        seed,
    }
    .build();
    let base: Vec<Packet> = trace.packets().collect();
    let mut truth = trace.ground_truths().to_vec();
    let zipf = Zipf::new(FLOWS as u64, 1.0);
    let mut r = rng(seed, 5);
    let batches = (seconds * WRITER_RATE).round().max(1.0) as usize;
    let mut writer = Vec::with_capacity(batches * WRITER_BATCH);
    for _ in 0..batches * WRITER_BATCH {
        let flow = (zipf.sample(&mut r) - 1) as u32;
        let seen = &mut truth[flow as usize];
        let item = if r.gen_bool(0.25) {
            *seen += 1;
            *seen - 1
        } else {
            r.gen_below_u64(u64::from(*seen)) as u32
        };
        writer.push(Packet { flow, item });
    }
    // The reader's popularity ranking is independent of the writer's,
    // so its queries reach mice as well as the flows the writer grows.
    let all: Vec<u32> = (0..FLOWS as u32).collect();
    let rank = choose(&all, FLOWS, &mut rng(seed, 7));
    // TOP_K and SNAPSHOT each follow READ_RUN queries, so the reader
    // spends about a third of its time sweeping rather than nearly all.
    let mut reads = Vec::new();
    for tail in [Read::TopK, Read::Snapshot] {
        for _ in 0..READ_RUN {
            reads.push(Read::Query(u64::from(
                rank[(zipf.sample(&mut r) - 1) as usize],
            )));
        }
        reads.push(tail);
    }
    // Stratified sample: mice (inline tiers) and larger flows alike.
    let mut s = rng(seed, 6);
    let (mice, large): (Vec<u32>, Vec<u32>) =
        (0..FLOWS as u32).partition(|&f| trace.ground_truth(f) <= 16);
    let mut sample = choose(&mice, 300, &mut s);
    sample.extend(choose(&large, 300, &mut s));
    Inputs {
        kind: Kind::ReadMix,
        conns: [writer, Vec::new()],
        base,
        truth,
        sample,
        reads,
    }
}
