//! Setting a workload up and driving its traffic, untraced or traced.

use crate::loadgen::{OpTiming, Schedule};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::workload::{self, Query, Spec, WriteOp, Writes};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timber::{PlanMode, TimberDb};
use timber_client::{Client, Mode};
use timberd::{Server, ServerHandle};
use xmlstore::{IoStats, PAGE_SIZE};

pub type Result<T> = std::result::Result<T, String>;

/// Times the store is loaded and the server bound; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Inserts timed on the store one tenth the workload's size.
const SMALL_INSERTS: usize = 10;

/// Reader blocks generated up front; far more than any run reaches.
const READ_BLOCKS: usize = 10_000;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One workload run's settings.
pub struct Env {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
}

/// A loaded store behind a running server, with what it took.
pub struct Loaded {
    pub db: Arc<TimberDb>,
    pub server: ServerHandle,
    pub oracle: Oracle,
    /// The write script's inserted document and its replacement.
    pub docs: (String, String),
    pub generate_s: f64,
    pub parse_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Seconds spent computing reference answers (not part of setup).
    pub oracle_s: f64,
    pub nodes: u32,
    pub pages: u32,
}

/// Load a store of `xml` with the workload's options at `page_file`.
/// Returns the store and the parse and load seconds.
fn load_store(spec: &Spec, xml: &str, page_file: &Path) -> Result<(TimberDb, f64, f64)> {
    remove_store_files(page_file);
    let t0 = Instant::now();
    let doc = xmlparse::parse_document(xml).map_err(err("parse corpus"))?;
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut db =
        TimberDb::load_document(&doc, &spec.store_options(page_file)).map_err(err("load"))?;
    if db.wal_stats().is_some() {
        // Start every durable run from an empty log.
        db.checkpoint().map_err(err("initial checkpoint"))?;
    }
    let load_s = t1.elapsed().as_secs_f64();
    drop(doc);
    db.set_threads(1);
    Ok((db, parse_s, load_s))
}

pub fn remove_store_files(page_file: &Path) {
    let _ = std::fs::remove_file(page_file);
    let _ = std::fs::remove_file(xmlstore::wal_path_for(page_file));
}

/// Generate the corpus, compute the reference answers, then load the
/// store and bind the server [`SETUP_REPS`] times, keeping the last.
pub fn setup(env: &Env) -> Result<Loaded> {
    let spec = &env.spec;
    let t0 = Instant::now();
    let xml = workload::corpus(spec.articles, env.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let docs = workload::script_docs(env.seed);

    let t0 = Instant::now();
    let mut oracle = Oracle::default();
    {
        let db = TimberDb::load_xml(&xml, &xmlstore::StoreOptions::in_memory())
            .map_err(err("load reference store"))?;
        oracle.accept_state(&db).map_err(err("reference answers"))?;
        if matches!(spec.writes, Writes::OpenLoop { .. }) {
            // Readers may observe the base plus either scripted document.
            for d in [&docs.0, &docs.1] {
                let id = db.insert_xml(d).map_err(err("reference insert"))?;
                oracle.accept_state(&db).map_err(err("reference answers"))?;
                db.delete_document(id).map_err(err("reference delete"))?;
            }
        }
    }
    let oracle_s = t0.elapsed().as_secs_f64();
    // `peak_rss_mb` covers setup and the run, not the reference store.
    crate::reset_peak_rss()?;

    let (mut parse_s, mut load_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<(Arc<TimberDb>, ServerHandle, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        // Release the previous rep's store first, so only one is ever
        // loaded.
        if let Some((old_db, old_server, old_file)) = kept.take() {
            old_server.shutdown();
            drop(old_db);
            remove_store_files(&old_file);
        }
        let page_file = env.work.join(format!("store{rep}.pages"));
        let t = Instant::now();
        let (db, p, l) = load_store(spec, &xml, &page_file)?;
        let db = Arc::new(db);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&db))
            .and_then(Server::spawn)
            .map_err(err("bind server"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        parse_s.push(p);
        load_s.push(l);
        kept = Some((db, server, page_file));
    }
    let (db, server, _) = kept.expect("at least one setup rep");
    Ok(Loaded {
        nodes: db.store().node_count(),
        pages: db.store().total_pages(),
        db,
        server,
        oracle,
        docs,
        generate_s,
        parse_s,
        load_s,
        setup_s,
        oracle_s,
    })
}

/// Attempted and failed operations. A failure is an error, a refusal or
/// a response whose bytes no reference answer matches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the closed-loop reader saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Client-observed latency in ms, per [`Query`].
    pub latency_ms: [Vec<f64>; 3],
    pub tally: Tally,
}

/// What the open-loop writer saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Due-time latency of each commit, in ms.
    pub commit_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub send_lag_ms: Vec<f64>,
    /// Document XML bytes committed by inserts and replaces.
    pub xml_bytes: u64,
    pub wal_synced_bytes: u64,
    pub wal_flushes: u64,
    pub page_writes: u64,
    pub tally: Tally,
}

impl WriteLog {
    pub fn commits(&self) -> usize {
        self.commit_ms.len()
    }

    /// Bytes made durable per byte of document XML committed.
    pub fn write_amp(&self) -> f64 {
        (self.wal_synced_bytes + self.page_writes * PAGE_SIZE as u64) as f64 / self.xml_bytes as f64
    }
}

/// Durable-byte counters of a store at one instant.
#[derive(Clone, Copy)]
struct DurableCounters {
    synced: u64,
    flushes: u64,
    page_writes: u64,
}

impl DurableCounters {
    fn read(db: &TimberDb) -> DurableCounters {
        let wal = db.wal_stats().unwrap_or_default();
        DurableCounters {
            synced: wal.synced_bytes,
            flushes: wal.flushes,
            page_writes: db.io_stats().disk.writes,
        }
    }

    fn add_delta_to(self, before: DurableCounters, log: &mut WriteLog) {
        log.wal_synced_bytes += self.synced - before.synced;
        log.wal_flushes += self.flushes - before.flushes;
        log.page_writes += self.page_writes - before.page_writes;
    }
}

/// Everything one untraced run measured.
pub struct Measured {
    pub reads: ReadLog,
    pub writes: WriteLog,
    /// All operations, including the base-state check that follows a
    /// sequential workload's writes.
    pub tally: Tally,
}

fn connect(loaded: &Loaded) -> Result<Client> {
    Client::connect(loaded.server.local_addr()).map_err(err("connect"))
}

/// The closed-loop reader's session.
struct Reader<'a> {
    loaded: &'a Loaded,
    client: Client,
    log: ReadLog,
}

impl<'a> Reader<'a> {
    /// A session that has sent each query once, checked but untimed,
    /// so its server thread has run every plan before timing starts.
    fn warmed_up(loaded: &'a Loaded) -> Result<Self> {
        let mut reader = Reader {
            loaded,
            client: connect(loaded)?,
            log: ReadLog::default(),
        };
        for q in Query::ALL {
            reader.read(q);
        }
        reader.log.latency_ms = Default::default();
        Ok(reader)
    }

    /// Send `q`, check the response and record its latency.
    fn read(&mut self, q: Query) {
        let sent = Instant::now();
        let resp = self.client.query(q.text(), Mode::Grouped);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let ok = resp.is_ok_and(|r| self.loaded.oracle.check(q, &r));
        self.log.tally.record(ok);
        if ok {
            self.log.latency_ms[q as usize].push(ms);
        }
    }
}

/// Closed loop: send the next read as soon as the last one returns,
/// until `done` says so.
fn read_loop(mut reader: Reader, order: &[Query], done: impl Fn() -> bool) -> ReadLog {
    for &q in order {
        if done() {
            break;
        }
        reader.read(q);
    }
    reader.log
}

/// The document the write script currently has in the store.
#[derive(Default)]
struct ScriptState {
    current: Option<u64>,
}

/// The writer's session.
struct Writer<'a> {
    loaded: &'a Loaded,
    client: Client,
    log: WriteLog,
    state: ScriptState,
    /// The store's durable-byte counters when the session began.
    before: DurableCounters,
}

impl<'a> Writer<'a> {
    fn new(loaded: &'a Loaded) -> Result<Self> {
        Ok(Writer {
            loaded,
            client: connect(loaded)?,
            log: WriteLog::default(),
            state: ScriptState::default(),
            before: DurableCounters::read(&loaded.db),
        })
    }

    /// Send `op`, due at `due`, and record its latency from then.
    fn write(&mut self, op: WriteOp, due: Instant) {
        let (client, state, log) = (&mut self.client, &mut self.state, &mut self.log);
        let docs = &self.loaded.docs;
        let sent = Instant::now();
        // `Ok(false)`: the op had no document to act on because an
        // earlier op failed; it counts as failed too.
        let outcome = match op {
            WriteOp::Insert => {
                log.xml_bytes += docs.0.len() as u64;
                client.insert_xml(&docs.0).map(|id| {
                    state.current = Some(id);
                    true
                })
            }
            WriteOp::Replace => {
                log.xml_bytes += docs.1.len() as u64;
                match state.current {
                    Some(id) => client.replace_xml(id, &docs.1).map(|id| {
                        state.current = Some(id);
                        true
                    }),
                    None => Ok(false),
                }
            }
            WriteOp::Delete => match state.current.take() {
                Some(id) => client.delete(id).map(|()| true),
                None => Ok(false),
            },
            WriteOp::Checkpoint => client.checkpoint().map(|()| true),
        };
        log.tally.record(outcome.unwrap_or(false));
        let t = OpTiming {
            due,
            sent,
            acked: Instant::now(),
        };
        record_write(log, op, t);
    }

    /// The log, with the bytes made durable since the session began.
    fn finish(mut self) -> WriteLog {
        DurableCounters::read(&self.loaded.db).add_delta_to(self.before, &mut self.log);
        self.log
    }
}

/// Open loop: run `script` over the wire on `schedule`.
fn write_loop(loaded: &Loaded, script: &[WriteOp], schedule: Schedule) -> Result<WriteLog> {
    let mut writer = Writer::new(loaded)?;
    for (k, &op) in script.iter().enumerate() {
        writer.write(op, schedule.wait_for(k));
    }
    Ok(writer.finish())
}

/// One request of a run that spreads write cycles between reads.
enum Step {
    Read(Query),
    Write(WriteOp),
}

/// Closed-loop reads for `seconds`, with the write `cycles` spread
/// evenly between them: cycle `k` runs in the first gap between reads
/// once the run is `(k + ½) / cycles.len()` through, each op sent as
/// soon as the last one is acknowledged. So the commits sample the
/// whole run, as the reads do, yet no read overlaps a write, and every
/// read sees the base state because every cycle ends on a delete.
fn spread(
    seconds: f64,
    cycles: &[Vec<WriteOp>],
    order: &[Query],
    mut step: impl FnMut(Step) -> Result<()>,
) -> Result<()> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let due = |k: usize| {
        start + Duration::from_secs_f64(seconds * (k as f64 + 0.5) / cycles.len() as f64)
    };
    let mut reads = order.iter().copied();
    let mut k = 0;
    loop {
        let now = Instant::now();
        if k < cycles.len() && now >= due(k) {
            for &op in &cycles[k] {
                step(Step::Write(op))?;
            }
            k += 1;
        } else if now < end {
            step(Step::Read(
                reads.next().expect("read order outlasts the run"),
            ))?;
        } else {
            return Ok(());
        }
    }
}

/// One count read checked against the base state's answer.
fn check_base_state(loaded: &Loaded) -> Result<bool> {
    let mut client = connect(loaded)?;
    Ok(client
        .query(Query::Count.text(), Mode::Grouped)
        .is_ok_and(|r| loaded.oracle.check(Query::Count, &r)))
}

fn read_order(env: &Env) -> Vec<Query> {
    workload::read_order(env.seed, env.spec.mix, READ_BLOCKS)
}

/// The write script, one `Vec` per insert → replace → delete cycle.
fn script(env: &Env) -> Vec<Vec<WriteOp>> {
    workload::write_script(
        env.spec.writes.cycles(env.seconds),
        workload::CHECKPOINT_EVERY,
    )
}

/// Run `f` on a new thread and wait for it. Every client session and
/// the traced replays run this way: the server serves each connection
/// from a new thread too, and glibc gives a new thread a fresh
/// allocator arena. Replays timed on the long-lived main thread, whose
/// arena holds the corpus load's garbage, ran slower than the same work
/// on the server, which made the wire estimate (round trip minus
/// replay) negative.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("benchmark thread panicked"))
}

/// The untraced run: end-to-end numbers only.
pub fn measure(env: &Env, loaded: &Loaded) -> Result<Measured> {
    let order = read_order(env);
    let script = script(env);
    let mut tally = Tally::default();
    let (reads, writes) = match env.spec.writes {
        Writes::OpenLoop { rate } => {
            let done = AtomicBool::new(false);
            let reader = Reader::warmed_up(loaded)?;
            std::thread::scope(|s| {
                let reader = s.spawn(|| read_loop(reader, &order, || done.load(Ordering::SeqCst)));
                let writer = s.spawn(|| {
                    let schedule = Schedule::new(Instant::now(), rate);
                    let writes = write_loop(loaded, &script.concat(), schedule);
                    done.store(true, Ordering::SeqCst);
                    writes
                });
                let writes = writer.join().expect("writer thread panicked");
                let reads = reader.join().expect("reader thread panicked");
                Ok::<_, String>((reads, writes?))
            })?
        }
        Writes::Spread { .. } => {
            let (reads, writes) = on_fresh_thread(|| {
                let mut reader = Reader::warmed_up(loaded)?;
                let mut writer = Writer::new(loaded)?;
                spread(env.seconds, &script, &order, |step| {
                    match step {
                        Step::Read(q) => reader.read(q),
                        Step::Write(op) => writer.write(op, Instant::now()),
                    }
                    Ok(())
                })?;
                Ok::<_, String>((reader.log, writer.finish()))
            })?;
            tally.record(check_base_state(loaded)?);
            (reads, writes)
        }
    };
    tally.merge(reads.tally);
    tally.merge(writes.tally);
    Ok(Measured {
        reads,
        writes,
        tally,
    })
}

/// Per-request layer samples of one query, from the traced run.
#[derive(Debug, Default)]
pub struct QueryLayers {
    pub round_trip_ms: Vec<f64>,
    pub compile_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub serialize_ms: Vec<f64>,
    pub wire_ms: Vec<f64>,
    pub output_bytes: Vec<f64>,
    pub page_requests: Vec<f64>,
    pub serialize_page_requests: Vec<f64>,
    pub hit_ratio: Vec<f64>,
    pub disk_reads: Vec<f64>,
    pub serialize_disk_reads: Vec<f64>,
    pub tree_clones: Vec<f64>,
    pub vec_rows: Vec<f64>,
    /// `(self ms, trees out)` per tracked operator.
    pub ops: [(Vec<f64>, Vec<f64>); TRACKED_OPS.len()],
}

/// Operators whose own time and output size the traced run reports.
pub const TRACKED_OPS: [&str; 5] = ["SelectProject", "GroupBy", "Project", "Rollup", "Cube"];

/// Per-commit layer samples from the traced run.
#[derive(Debug, Default)]
pub struct CommitLayers {
    pub parse_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub replace_ms: Vec<f64>,
    pub delete_ms: Vec<f64>,
    pub insert_small_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// Commit latency seen by the traced writer (parse plus commit).
    pub traced_commit_ms: Vec<f64>,
}

/// Everything one traced run measured.
pub struct Traced {
    pub queries: [QueryLayers; 3],
    pub commits: CommitLayers,
    pub writes: WriteLog,
    /// Per request, the root span's time not covered by a child span.
    pub unspanned_ms: Vec<f64>,
    pub tally: Tally,
    pub tracer: Tracer,
}

fn delta(after: IoStats, before: IoStats) -> IoStats {
    let mut d = IoStats::default();
    d.buffer.hits = after.buffer.hits - before.buffer.hits;
    d.buffer.misses = after.buffer.misses - before.buffer.misses;
    d.disk.reads = after.disk.reads - before.disk.reads;
    d.disk.writes = after.disk.writes - before.disk.writes;
    d
}

fn op_name(op: &str) -> &str {
    op.split_whitespace().next().unwrap_or("")
}

/// Sum each tracked operator's own time and output over the metrics
/// tree.
fn collect_ops(m: &timber::PlanMetrics, acc: &mut [(f64, f64); TRACKED_OPS.len()]) {
    if let Some(k) = TRACKED_OPS.iter().position(|&o| o == op_name(&m.op)) {
        acc[k].0 += m.elapsed.as_secs_f64() * 1e3;
        acc[k].1 += m.trees_out as f64;
    }
    for c in &m.children {
        collect_ops(c, acc);
    }
}

struct TracedRun<'a> {
    loaded: &'a Loaded,
    client: Client,
    next_request: u64,
    out: Traced,
}

impl TracedRun<'_> {
    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// One read: the client round trip, then compile, execute and
    /// serialize in process on a snapshot of the same state, then
    /// EXPLAIN ANALYZE for the operator breakdown.
    fn read(&mut self, q: Query) -> Result<()> {
        let req = self.request_id();
        let tr = &mut self.out.tracer;
        let root = tr.begin("request.read", req, None);
        let (resp, round_trip) = tr.time("timber_client.round_trip", req, Some(root), || {
            self.client.query(q.text(), Mode::Grouped)
        });
        let snap = self.loaded.db.snapshot();
        let ((plan, rewritten, _), compile) =
            lift(tr.time("xquery.compile", req, Some(root), || {
                snap.compile_traced(q.text(), PlanMode::GroupByRewrite)
            }))?;
        let io0 = snap.io_stats();
        let (result, execute) = lift(tr.time("physical.execute", req, Some(root), || {
            snap.run_plan(&plan, rewritten)
        }))?;
        let io1 = snap.io_stats();
        let (xml, serialize) = lift(tr.time("result.serialize", req, Some(root), || {
            result.to_xml_on(snap.store())
        }))?;
        let io2 = snap.io_stats();
        drop(result);
        let (analysis, _) = lift(tr.time("physical.explain_analyze", req, Some(root), || {
            snap.explain_analyze(q.text(), PlanMode::GroupByRewrite)
        }))?;
        tr.end(root);
        self.out.unspanned_ms.push(tr.self_ms(root));

        let ok = resp.is_ok_and(|r| r == xml && self.loaded.oracle.check(q, &r));
        self.out.tally.record(ok);
        let l = &mut self.out.queries[q as usize];
        let (exec_io, ser_io) = (delta(io1, io0), delta(io2, io1));
        let requests = exec_io.page_requests() + ser_io.page_requests();
        let hits = exec_io.buffer.hits + ser_io.buffer.hits;
        l.round_trip_ms.push(round_trip);
        l.compile_ms.push(compile);
        l.execute_ms.push(execute);
        l.serialize_ms.push(serialize);
        l.wire_ms.push(round_trip - compile - execute - serialize);
        l.output_bytes.push(xml.len() as f64);
        l.page_requests.push(requests as f64);
        l.serialize_page_requests
            .push(ser_io.page_requests() as f64);
        // With no page requests nothing missed the pool.
        l.hit_ratio.push(if requests == 0 {
            1.0
        } else {
            hits as f64 / requests as f64
        });
        l.disk_reads
            .push((exec_io.disk.reads + ser_io.disk.reads) as f64);
        l.serialize_disk_reads.push(ser_io.disk.reads as f64);
        l.tree_clones
            .push(analysis.metrics.total_tree_clones() as f64);
        l.vec_rows.push(analysis.metrics.total_vec_rows() as f64);
        let mut acc = [(0.0, 0.0); TRACKED_OPS.len()];
        collect_ops(&analysis.metrics, &mut acc);
        for (slot, (ms, trees)) in l.ops.iter_mut().zip(acc) {
            slot.0.push(ms);
            slot.1.push(trees);
        }
        Ok(())
    }

    /// One write op, in process: parse, then the store call.
    fn write(&mut self, op: WriteOp, timing: (Instant, Instant), state: &mut ScriptState) {
        let req = self.request_id();
        let (db, docs) = (&self.loaded.db, &self.loaded.docs);
        let before = DurableCounters::read(db);
        let tr = &mut self.out.tracer;
        let c = &mut self.out.commits;
        let root = tr.begin("request.write", req, None);
        let mut parse = |tr: &mut Tracer, xml: &str| {
            self.out.writes.xml_bytes += xml.len() as u64;
            let (doc, ms) = tr.time("xmlparse.parse", req, Some(root), || {
                xmlparse::parse_document(xml)
            });
            (doc.ok(), ms)
        };
        let ok = match op {
            WriteOp::Insert => {
                let (doc, parse_ms) = parse(tr, &docs.0);
                c.parse_ms.push(parse_ms);
                doc.is_some_and(|doc| {
                    let (id, ms) = tr.time("xmlstore.insert", req, Some(root), || {
                        db.insert_document(&doc)
                    });
                    c.insert_ms.push(ms);
                    state.current = id.ok();
                    state.current.is_some()
                })
            }
            WriteOp::Replace => {
                let (doc, parse_ms) = parse(tr, &docs.1);
                c.parse_ms.push(parse_ms);
                match (doc, state.current) {
                    (Some(doc), Some(cur)) => {
                        let (id, ms) = tr.time("xmlstore.replace", req, Some(root), || {
                            db.store().replace_document(cur, &doc)
                        });
                        c.replace_ms.push(ms);
                        // A failed replace leaves the old document in place.
                        id.map(|id| state.current = Some(id)).is_ok()
                    }
                    _ => false,
                }
            }
            WriteOp::Delete => state.current.take().is_some_and(|cur| {
                let (r, ms) = tr.time("xmlstore.delete", req, Some(root), || {
                    db.delete_document(cur)
                });
                c.delete_ms.push(ms);
                r.is_ok()
            }),
            WriteOp::Checkpoint => {
                let (r, ms) = tr.time("xmlstore.checkpoint", req, Some(root), || db.checkpoint());
                c.checkpoint_ms.push(ms);
                r.is_ok()
            }
        };
        let total = tr.end(root);
        if op.is_commit() {
            c.traced_commit_ms.push(total);
        }
        self.out.unspanned_ms.push(tr.self_ms(root));
        self.out.tally.record(ok);
        let (due, sent) = timing;
        let t = OpTiming {
            due,
            sent,
            acked: Instant::now(),
        };
        record_write(&mut self.out.writes, op, t);
        DurableCounters::read(db).add_delta_to(before, &mut self.out.writes);
    }
}

fn record_write(log: &mut WriteLog, op: WriteOp, t: OpTiming) {
    log.send_lag_ms.push(t.send_lag_ms());
    if op.is_commit() {
        log.commit_ms.push(t.latency_ms());
    } else {
        log.checkpoint_ms.push(t.latency_ms());
    }
}

fn lift<T, E: std::fmt::Display>((r, ms): (std::result::Result<T, E>, f64)) -> Result<(T, f64)> {
    r.map(|v| (v, ms)).map_err(|e| e.to_string())
}

/// The traced twin: the same script, one request at a time, with spans
/// around every layer call.
pub fn trace(env: &Env, loaded: &Loaded) -> Result<Traced> {
    on_fresh_thread(|| trace_script(env, loaded))
}

fn trace_script(env: &Env, loaded: &Loaded) -> Result<Traced> {
    let order = read_order(env);
    let script = script(env);
    let mut run = TracedRun {
        loaded,
        client: connect(loaded)?,
        next_request: 0,
        out: Traced {
            queries: Default::default(),
            commits: CommitLayers::default(),
            writes: WriteLog::default(),
            unspanned_ms: Vec::new(),
            tally: Tally::default(),
            tracer: Tracer::new(),
        },
    };
    let mut reads = order.iter().copied();
    let mut state = ScriptState::default();
    match env.spec.writes {
        Writes::OpenLoop { rate } => {
            // Interleave on one thread: a due write goes first, otherwise
            // the next read runs.
            let schedule = Schedule::new(Instant::now(), rate);
            let script = script.concat();
            let mut k = 0;
            while k < script.len() {
                let due = schedule.due(k);
                if Instant::now() >= due {
                    run.write(script[k], (due, Instant::now()), &mut state);
                    k += 1;
                } else {
                    run.read(reads.next().expect("read order outlasts the script"))?;
                }
            }
        }
        Writes::Spread { .. } => {
            spread(env.seconds, &script, &order, |step| match step {
                Step::Read(q) => run.read(q),
                Step::Write(op) => {
                    let now = Instant::now();
                    run.write(op, (now, now), &mut state);
                    Ok(())
                }
            })?;
            run.out.tally.record(check_base_state(loaded)?);
        }
    }
    insert_small(env, &mut run)?;
    Ok(run.out)
}

/// Time inserts into a store one tenth the workload's size, so the
/// pair with `xmlstore.commit_ms.insert` shows how commit cost grows
/// with store size.
fn insert_small(env: &Env, run: &mut TracedRun) -> Result<()> {
    let small = Spec {
        articles: env.spec.articles / 10,
        ..env.spec
    };
    let page_file = env.work.join("small.pages");
    let xml = workload::corpus(small.articles, env.seed);
    let (db, _, _) = load_store(&small, &xml, &page_file)?;
    for _ in 0..SMALL_INSERTS {
        let req = run.request_id();
        let doc = xmlparse::parse_document(&run.loaded.docs.0).map_err(err("parse script doc"))?;
        let (id, ms) = run.out.tracer.time("xmlstore.insert_small", req, None, || {
            db.insert_document(&doc)
        });
        run.out.commits.insert_small_ms.push(ms);
        db.delete_document(id.map_err(err("small insert"))?)
            .map_err(err("small delete"))?;
    }
    drop(db);
    remove_store_files(&page_file);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_runs_each_cycle_whole_between_reads_across_the_run() {
        let cycles = workload::write_script(4, 30);
        let order = vec![Query::Count; 1000];
        let start = Instant::now();
        let mut log = Vec::new();
        spread(0.2, &cycles, &order, |step| {
            let at = start.elapsed().as_secs_f64();
            std::thread::sleep(Duration::from_millis(2));
            log.push((at, matches!(step, Step::Write(_))));
            Ok(())
        })
        .unwrap();
        let writes: Vec<usize> = (0..log.len()).filter(|&i| log[i].1).collect();
        assert_eq!(writes.len(), 12);
        for (k, cycle) in writes.chunks(3).enumerate() {
            // Whole: no read between the ops of one cycle.
            assert_eq!(cycle[2] - cycle[0], 2);
            // Cycle k starts once the run is (k + ½) / 4 through.
            assert!(log[cycle[0]].0 >= 0.2 * (k as f64 + 0.5) / 4.0);
        }
        assert!(log.len() - writes.len() > 20, "reads fill the run");
    }
}
