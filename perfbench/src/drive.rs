//! The TCP path: an in-process `SmbServer` over a two-shard engine,
//! driven through two `SmbClient` connections.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smb_engine::{BackpressurePolicy, EngineConfig, ShardedFlowEngine};
use smb_factory::{Algo, AlgoSpec};
use smb_net::{NetError, ServeSummary, ServerConfig, SmbClient, SmbServer};
use smb_stream::Packet;

use crate::gen::{Inputs, Read, INGEST_BATCH, TOP_K, WRITER_BATCH, WRITER_RATE};

/// The estimator every flow gets: SMB, m=2048, n_max=1e5.
pub fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb)
        .memory_bits(2048)
        .n_max(1e5)
        .seed(0x5EED)
}

/// Two shards, blocking backpressure, tables pre-sized for the
/// workload's flows; `trace` turns on stage sampling for every batch.
pub fn engine_config(expected_flows: usize, trace: bool) -> EngineConfig {
    EngineConfig::new(spec())
        .with_shards(2)
        .with_policy(BackpressurePolicy::Block)
        .with_expected_flows(expected_flows)
        .with_trace_sample(u32::from(trace))
}

/// Request counts and failures of one window. A failure is an `ERROR`
/// frame, an I/O error, or an acknowledgement that does not match
/// what was sent.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record<T>(&mut self, result: &Result<T, NetError>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: request failed: {e}");
        }
    }
}

/// A running server with two handshaken client sessions.
pub struct Served {
    pub engine: ShardedFlowEngine,
    pub clients: Vec<SmbClient>,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<ServeSummary, NetError>>,
}

impl Served {
    /// Bind an ephemeral loopback port, start serving, connect both
    /// clients. The accept loop polls every millisecond, so handshake
    /// time is not dominated by the server's idle sleep.
    pub fn start(engine: ShardedFlowEngine) -> Result<Served, String> {
        let config = ServerConfig {
            poll: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let server =
            SmbServer::bind_with("127.0.0.1:0", &engine, config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_flag();
        let server = std::thread::spawn(move || server.serve());
        let mut served = Served {
            engine,
            clients: Vec::with_capacity(2),
            shutdown,
            server,
        };
        for _ in 0..2 {
            match SmbClient::connect(addr) {
                Ok(client) => served.clients.push(client),
                Err(e) => {
                    let _ = served.stop();
                    return Err(format!("connect: {e}"));
                }
            }
        }
        Ok(served)
    }

    /// Close both sessions, stop the server, and wait until every
    /// batch the sessions delivered has been recorded.
    pub fn stop(self) -> Result<ShardedFlowEngine, String> {
        drop(self.clients);
        self.shutdown.store(true, Ordering::Release);
        let summary = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        summary.map_err(|e| format!("serve: {e}"))?;
        let mut engine = self.engine;
        engine.flush();
        Ok(engine)
    }
}

/// Send `batch` as one `RECORD_BATCH`; returns the acknowledged count.
fn send_batch(client: &mut SmbClient, batch: &[Packet]) -> Result<u64, NetError> {
    let items: Vec<[u8; 8]> = batch.iter().map(Packet::item_bytes).collect();
    let records: Vec<(u64, &[u8])> = batch
        .iter()
        .zip(&items)
        .map(|(p, bytes)| (u64::from(p.flow), &bytes[..]))
        .collect();
    client.record_batch(&records)
}

/// Buffers one connection fills during a window.
#[derive(Default)]
pub struct ConnLog {
    pub batch_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub top_k_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub estimates: Vec<(u32, Option<f64>)>,
    pub acked: u64,
    pub tally: Tally,
    pub end: Option<Instant>,
}

impl ConnLog {
    /// Heap bytes these buffers hold, so a pass can take the client
    /// side out of the allocator's live count.
    pub fn heap_bytes(&self) -> i64 {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let total = bytes(&self.batch_us)
            + bytes(&self.query_us)
            + bytes(&self.top_k_ms)
            + bytes(&self.snapshot_ms)
            + bytes(&self.late_ms)
            + bytes(&self.estimates);
        total as i64
    }

    fn clear(&mut self) {
        self.batch_us.clear();
        self.query_us.clear();
        self.top_k_ms.clear();
        self.snapshot_ms.clear();
        self.late_ms.clear();
        self.estimates.clear();
        self.acked = 0;
        self.tally = Tally::default();
        self.end = None;
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop: send every record of `records` in `batch`-record
/// `RECORD_BATCH`es, each after the previous one was acknowledged.
fn closed_loop(client: &mut SmbClient, records: &[Packet], batch: usize, log: &mut ConnLog) {
    for chunk in records.chunks(batch) {
        let t0 = Instant::now();
        let result = send_batch(client, chunk);
        log.batch_us.push(us(t0.elapsed()));
        log.tally.record(&result);
        match result {
            Ok(count) => log.acked += count,
            Err(_) => break,
        }
    }
    log.end = Some(Instant::now());
}

/// `QUERY` every flow in `flows` on this connection. An untimed pass
/// keeps the estimates for checking; a timed pass keeps only the
/// latencies. The first query's barrier drains whatever the shard
/// queues still hold, so callers time only repeat passes.
pub fn query_flows(client: &mut SmbClient, flows: &[u32], timed: bool, log: &mut ConnLog) {
    for &flow in flows {
        let t0 = Instant::now();
        let result = client.query(u64::from(flow));
        let elapsed = t0.elapsed();
        log.tally.record(&result);
        match result {
            Ok(_) if timed => log.query_us.push(us(elapsed)),
            Ok(estimate) => log.estimates.push((flow, estimate)),
            Err(_) => return,
        }
    }
}

/// Timed passes over the sample in each ingest pass's read phase.
const READ_ROUNDS: usize = 2;

/// One closed-loop ingest window on both connections, then the
/// `QUERY` read phase: each connection in turn queries its share of
/// the sample, once untimed (keeping the estimates) and then
/// `READ_ROUNDS` times timed. Returns the window's wall time.
pub fn ingest_window(served: &mut Served, inputs: &Inputs, logs: &mut [ConnLog; 2]) -> f64 {
    let start_line = Barrier::new(3);
    let start = std::thread::scope(|scope| {
        for ((client, records), log) in served
            .clients
            .iter_mut()
            .zip(&inputs.conns)
            .zip(logs.iter_mut())
        {
            log.clear();
            let start_line = &start_line;
            scope.spawn(move || {
                start_line.wait();
                closed_loop(client, records, INGEST_BATCH, log);
            });
        }
        start_line.wait();
        Instant::now()
    });
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(start);
    let window = end.duration_since(start).as_secs_f64();
    for (conn, (client, log)) in served.clients.iter_mut().zip(logs.iter_mut()).enumerate() {
        let flows: Vec<u32> = inputs
            .sample
            .iter()
            .copied()
            .filter(|f| (f & 1) as usize == conn)
            .collect();
        query_flows(client, &flows, false, log);
        for _ in 0..READ_ROUNDS {
            query_flows(client, &flows, true, log);
        }
    }
    window
}

/// `read_mix`'s window: connection 0 writes `WRITER_RATE` batches per
/// second on a fixed schedule (open loop, each batch timed from when
/// it was due); connection 1 cycles through the read sequence until
/// the writer's schedule ends. Returns the window's wall time.
pub fn read_mix_window(served: &mut Served, inputs: &Inputs, logs: &mut [ConnLog; 2]) -> f64 {
    let interval = Duration::from_secs_f64(1.0 / WRITER_RATE);
    let batches = inputs.conns[0].len().div_ceil(WRITER_BATCH);
    let start_line = Barrier::new(3);
    let (writer_log, reader_log) = logs.split_at_mut(1);
    let (writer_log, reader_log) = (&mut writer_log[0], &mut reader_log[0]);
    writer_log.clear();
    reader_log.clear();
    let (writer, reader) = served.clients.split_at_mut(1);
    let (writer, reader) = (&mut writer[0], &mut reader[0]);
    let start = std::thread::scope(|scope| {
        let start = Instant::now() + Duration::from_millis(5);
        let deadline = start + interval * batches as u32;
        let start_line = &start_line;
        scope.spawn(move || {
            start_line.wait();
            for (i, chunk) in inputs.conns[0].chunks(WRITER_BATCH).enumerate() {
                let due = start + interval * i as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                writer_log
                    .late_ms
                    .push(ms(Instant::now().saturating_duration_since(due)));
                let result = send_batch(writer, chunk);
                writer_log.batch_us.push(us(due.elapsed()));
                writer_log.tally.record(&result);
                match result {
                    Ok(count) => writer_log.acked += count,
                    Err(_) => break,
                }
            }
            writer_log.end = Some(Instant::now());
        });
        scope.spawn(move || {
            start_line.wait();
            let mut ops = inputs.reads.iter().cycle();
            while Instant::now() < deadline {
                let op = *ops.next().expect("non-empty read cycle");
                let t0 = Instant::now();
                let ok = match op {
                    Read::Query(flow) => {
                        let result = reader.query(flow);
                        reader_log.query_us.push(us(t0.elapsed()));
                        reader_log.tally.record(&result);
                        result.is_ok()
                    }
                    Read::TopK => {
                        let result = reader.top_k(TOP_K);
                        reader_log.top_k_ms.push(ms(t0.elapsed()));
                        reader_log.tally.record(&result);
                        if matches!(&result, Ok(top) if top.len() as u64 != TOP_K) {
                            eprintln!("perfbench: TOP_K returned fewer than {TOP_K} flows");
                            reader_log.tally.failed += 1;
                        }
                        result.is_ok()
                    }
                    Read::Snapshot => {
                        let result = reader.snapshot();
                        reader_log.snapshot_ms.push(ms(t0.elapsed()));
                        reader_log.tally.record(&result);
                        result.is_ok()
                    }
                };
                if !ok {
                    break;
                }
            }
            reader_log.end = Some(Instant::now());
        });
        start_line.wait();
        start
    });
    let end = logs[0].end.unwrap_or(start);
    end.saturating_duration_since(start).as_secs_f64()
}
