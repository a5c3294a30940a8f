//! The traced run: per-layer metrics measured from outside the program.
//!
//! The run first replays the workload's seeded operation stream
//! in-process, from the generated database, through the public
//! functions the writer and the sessions call. It times each call as one
//! span (name, start, end, parent op span, op id) and reads the
//! program's deterministic counters through `dduf_obs::capture`. The
//! same ops are replayed three times from the same state: traced,
//! untraced (the tracing overhead is the difference) and traced again
//! (the counters must repeat exactly), and once more, traced, in a fresh
//! process of this binary (they must repeat there too). A short server
//! phase with the
//! same seed and clients then gives the client-observed op times and the
//! server's own batch report (`ServerHandle::metrics_report`).

use crate::gen::{self, QueryOp, Rng, WriteOp};
use crate::serve::{self, Spec, Stop};
use crate::stats::{metric, Metric, Samples};
use crate::{Outcome, Tally};
use dduf_core::problems::ic_checking::CheckOutcome;
use dduf_core::processor::{ProcessorState, UpdateProcessor};
use dduf_obs::Report;
use dduf_persist::{serialize_transaction, DurableDb, DurableStore};
use dduf_server::state::{Published, StateCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span log; written out when the run ends.
struct Spans {
    t0: Instant,
    list: Vec<Span>,
    on: bool,
}

impl Spans {
    fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.t0.elapsed();
        self.list.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            op,
        });
        self.list.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.list[idx].end = self.t0.elapsed();
    }

    /// Times `f` as a child of op span `parent`. Untraced, it only runs
    /// `f`.
    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        let op = parent.map_or(0, |p| self.list[p].op);
        self.list.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        out
    }

    /// Self time per span name: duration minus the children's.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut child = vec![Duration::ZERO; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for (i, s) in self.list.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    fn write_out(&self, path: &Path) {
        let mut text = String::from("op\tname\tparent\tstart_us\tend_us\n");
        for s in &self.list {
            let parent = s.parent.map_or("-", |p| self.list[p].name);
            let _ = writeln!(
                text,
                "{}\t{}\t{parent}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// One replayed operation.
#[derive(Clone, Debug)]
enum Op {
    Apply(WriteOp),
    Query(QueryOp),
}

/// Deterministic counters summed over a pass, plus its fingerprint.
#[derive(Default, Debug, PartialEq)]
struct Counters {
    sums: BTreeMap<&'static str, u64>,
    fingerprint: u64,
}

/// The fewest ops a replay pass runs.
const MIN_OPS: usize = 8;

impl Counters {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn get(&self, name: &str) -> u64 {
        self.sums.get(name).copied().unwrap_or(0)
    }

    /// One line naming every counter and the fingerprint.
    fn summary(&self) -> String {
        let mut line = format!("fingerprint {:016x}", self.fingerprint);
        for (name, v) in &self.sums {
            let _ = write!(line, " {name}={v}");
        }
        line
    }
}

/// Runs `f` under a fresh collector when traced, folding its report
/// into the pass fingerprint.
fn captured<T>(traced: bool, h: &mut DefaultHasher, f: impl FnOnce() -> T) -> (T, Report) {
    if !traced {
        return (f(), Report::default());
    }
    let (out, report) = dduf_obs::capture(f);
    report.semantic_fingerprint().hash(h);
    (out, report)
}

/// The in-process replay target: the processor, the journal and the
/// snapshot cell the writer publishes through.
struct Replay {
    proc: UpdateProcessor,
    store: DurableStore,
    cell: StateCell,
    spans: Spans,
    counters: Counters,
    hasher: DefaultHasher,
}

impl Replay {
    fn published(state: ProcessorState, end: u64) -> Published {
        Published {
            db: state.db,
            interp: state.interp,
            maint: state.maint,
            journal_end: end,
            commits: 0,
        }
    }

    /// `:apply` as the writer stages it (parse, check, serialize,
    /// commit), then a batch of one: clone, journal append, publish and
    /// drop of the previous snapshot.
    fn apply(&mut self, op: &WriteOp, id: u64) -> Result<(), String> {
        let on = self.spans.on;
        let root = on.then(|| self.spans.open("op.apply", id));
        let proc = &mut self.proc;
        let h = &mut self.hasher;
        let txn = self
            .spans
            .time("parse.txn", root, || proc.transaction(&op.txn));
        let txn = txn.map_err(|e| e.to_string())?;
        let (check, rep) = self.spans.time("ic_check", root, || {
            captured(on, h, || proc.check_integrity(&txn))
        });
        self.counters
            .add("index_builds", rep.total("index.build", "composite_built"));
        let mut line = String::new();
        let mut payload = None;
        match check.map_err(|e| e.to_string())? {
            CheckOutcome::Violated(_) => {
                line = "REJECTED".into();
                self.counters.add("rejected", 1);
            }
            _ => {
                payload = Some(
                    self.spans
                        .time("serialize", root, || serialize_transaction(&txn)),
                );
                let (res, rep) = self
                    .spans
                    .time("maintain", root, || captured(on, h, || proc.commit(&txn)));
                let res = res.map_err(|e| e.to_string())?;
                let _ = write!(line, "applied {}; induced {}", res.base, res.derived);
                self.counters.add("commits", 1);
                self.counters
                    .add("events", (res.base.len() + res.derived.len()) as u64);
                self.counters
                    .add("overdeleted", rep.total("upward.maintain", "overdeleted"));
                self.counters
                    .add("rederived", rep.total("upward.maintain", "rederived"));
                self.counters
                    .add("index_builds", rep.total("index.build", "composite_built"));
            }
        }
        serve::check_apply(op, true, &[line])?;
        let state = self.spans.time("clone", root, || ProcessorState {
            db: proc.database().clone(),
            interp: proc.interpretation().clone(),
            maint: proc.maintenance().cloned(),
        });
        if let Some(payload) = payload {
            let store = &mut self.store;
            let (end, rep) = self.spans.time("journal", root, || {
                captured(on, h, || store.record_commit_batch(&[payload]))
            });
            let end = end.map_err(|e| e.to_string())?;
            self.counters
                .add("journal_bytes", rep.total("journal.append", "bytes"));
            self.counters
                .add("fsyncs", rep.total("journal.append", "fsyncs"));
            let cell = &self.cell;
            let old = cell.load();
            self.spans.time("publish", root, || {
                cell.publish(Replay::published(state, end))
            });
            self.spans.time("drop", root, || drop(old));
        }
        if let Some(r) = root {
            self.spans.close(r);
        }
        Ok(())
    }

    /// `:query` as a session answers it: parse the atom, then magic sets.
    fn query(&mut self, op: &QueryOp, id: u64) -> Result<(), String> {
        let on = self.spans.on;
        let root = on.then(|| self.spans.open("op.query", id));
        let db = self.proc.database();
        let h = &mut self.hasher;
        let atom = self.spans.time("parse.query", root, || {
            dduf_datalog::parser::parse_program(&format!("query_tmp :- {}.", op.atom))
                .map(|out| out.program.rules()[0].body[0].atom.clone())
        });
        let atom = atom.map_err(|e| e.to_string())?;
        let (ans, rep) = self.spans.time("magic", root, || {
            captured(on, h, || dduf_datalog::magic::query(db, &atom))
        });
        let ans = ans.map_err(|e| e.to_string())?;
        let mut lines: Vec<String> = ans
            .tuples
            .iter()
            .map(|t| t.to_atom(atom.pred).to_string())
            .collect();
        lines.push(format!("({} answer(s))", ans.tuples.len()));
        serve::check_query(op, true, &lines)?;
        self.counters.add("queries", 1);
        self.counters.add("answers", ans.tuples.len() as u64);
        self.counters.add("rounds", rep.total("eval.scc", "rounds"));
        self.counters.add("tuples", rep.total("eval.scc", "tuples"));
        self.counters
            .add("index_builds", rep.total("index.build", "composite_built"));
        if let Some(r) = root {
            self.spans.close(r);
        }
        Ok(())
    }

    /// Starts a pass from `state`.
    fn begin(&mut self, state: &ProcessorState, traced: bool) {
        self.proc = UpdateProcessor::from_state(state.clone());
        self.counters = Counters::default();
        self.hasher = DefaultHasher::new();
        self.spans.on = traced;
    }

    /// Replays the pass's `i`-th op.
    fn step(&mut self, i: usize, op: &Op, tally: &mut Tally) {
        let id = i as u64 + 1;
        let r = match op {
            Op::Apply(w) => self.apply(w, id),
            Op::Query(q) => self.query(q, id),
        };
        tally.attempted += 1;
        if let Err(e) = r {
            tally.fail(format!("replay op {id}: {e}"));
        }
    }

    fn finish(&mut self) -> Counters {
        self.counters.fingerprint = self.hasher.finish();
        std::mem::take(&mut self.counters)
    }
}

/// Replays ops drawn from `next` for about `budget` (traced), then the
/// same ops untraced and traced again, each pass from `state`. Returns
/// the three pass times and the ops per pass.
fn three_passes(
    replay: &mut Replay,
    state: &ProcessorState,
    mut next: impl FnMut() -> Op,
    budget: Duration,
    tally: &mut Tally,
    info: &mut Vec<String>,
) -> (Vec<Duration>, usize) {
    let mut ops = Vec::new();
    replay.begin(state, true);
    let t = Instant::now();
    while t.elapsed() < budget || ops.len() < MIN_OPS {
        let op = next();
        replay.step(ops.len(), &op, tally);
        ops.push(op);
    }
    let mut times = vec![t.elapsed()];
    let first = replay.finish();
    let mut last = Counters::default();
    for traced in [false, true] {
        replay.begin(state, traced);
        let t = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            replay.step(i, op, tally);
        }
        times.push(t.elapsed());
        last = replay.finish();
    }
    tally.attempted += 1;
    if first != last {
        tally.fail("deterministic counters differ between two replays of the same ops".into());
    }
    info.push(format!("replay: {} ops x3, {}", ops.len(), last.summary()));
    replay.counters = last;
    (times, ops.len())
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total `(count, µs)` of a phase across its labels in a report.
fn phase(report: &Report, name: &str) -> (u64, u64) {
    report
        .iter()
        .filter(|(p, _, _)| *p == name)
        .fold((0, 0), |(c, t), (_, _, n)| (c + n.count, t + n.time_us))
}

/// What the server phase measured, in µs per op kind.
struct ServerPhase {
    apply_us: f64,
    query_us: f64,
    ping_us: f64,
    report: Report,
}

/// Recovery as seen from outside: open with the fixed tail, then open
/// again after a checkpoint (nothing to replay); the difference is the
/// replay.
struct Recovery {
    open_us: f64,
    replay_us_per_record: f64,
}

/// Queries per `:apply` in the read-mix replay: about the ratio the two
/// closed loops reach against the server. Fixed, so the replayed ops
/// repeat for a seed.
const QUERIES_PER_APPLY: usize = 9;

/// The replay target at the generated database, that state, and the
/// workload's seeded op stream from its start.
fn prepare(
    spec: Spec,
    seed: &Rng,
    dir: &Path,
) -> Result<(Replay, ProcessorState, impl FnMut() -> Op), String> {
    let db =
        DurableDb::init(dir, &gen::chain_source(spec.chains)).map_err(|e| format!("init: {e}"))?;
    let mut streams = spec.streams(seed);
    let mut turn = 0usize;
    let next = move || {
        turn += 1;
        match &mut streams.reader {
            Some(r) if !turn.is_multiple_of(QUERIES_PER_APPLY + 1) => Op::Query(r.next_op()),
            _ => {
                let w = turn % streams.writers.len();
                Op::Apply(streams.writers[w].next_op())
            }
        }
    };
    let (proc, store) = db.into_parts();
    let state = proc.into_state();
    let replay = Replay {
        proc: UpdateProcessor::from_state(state.clone()),
        cell: StateCell::new(Replay::published(state.clone(), store.journal_end())),
        store,
        spans: spans(),
        counters: Counters::default(),
        hasher: DefaultHasher::new(),
    };
    Ok((replay, state, next))
}

/// The child side of the cross-process determinism check: replays the
/// first `n_ops` ops of the seeded stream, traced, and returns the
/// counters' summary line.
pub fn replay_only(spec: Spec, seed: &Rng, n_ops: usize, work: &Path) -> Result<String, String> {
    let (mut replay, state, mut next) = prepare(spec, seed, &work.join("replay"))?;
    let mut tally = Tally::default();
    replay.begin(&state, true);
    for i in 0..n_ops {
        replay.step(i, &next(), &mut tally);
    }
    if tally.failed > 0 {
        return Err(tally.notes.join("; "));
    }
    Ok(replay.finish().summary())
}

pub fn run(
    spec: Spec,
    name: &str,
    seed_n: u64,
    seed: &Rng,
    secs: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut info = Vec::new();
    // The replay runs first, from the generated database and the start of
    // the seeded streams, so its ops and counters repeat for a seed.
    let (mut replay, state, mut next) = prepare(spec, seed, &work.join("replay"))?;
    let budget = Duration::from_secs_f64(secs * 0.2);
    let (times, n_ops) = three_passes(
        &mut replay,
        &state,
        &mut next,
        budget,
        &mut tally,
        &mut info,
    );
    tally.attempted += 1;
    match crate::child(name, seed_n, &format!("replay:{n_ops}")) {
        Ok(theirs) if theirs == replay.counters.summary() => {}
        Ok(theirs) => tally.fail(format!(
            "deterministic counters differ in a fresh process: {theirs}"
        )),
        Err(e) => tally.fail(format!("fresh-process replay: {e}")),
    }
    let (client, recovery) = server_phase(spec, name, seed_n, secs, work, &mut tally, &mut info)?;
    replay
        .spans
        .write_out(&Path::new(".bench_out").join(format!("spans-{name}-seed{seed_n}.tsv")));
    let metrics = layer_metrics(&replay, &client, &recovery, &times, n_ops, &mut info);
    Ok(Outcome {
        tally,
        metrics,
        info,
    })
}

fn spans() -> Spans {
    Spans {
        t0: Instant::now(),
        list: Vec::new(),
        on: false,
    }
}

/// The server phase of a traced run: idle pings, the workload's load,
/// the server's own report, and recovery timed from outside.
fn server_phase(
    spec: Spec,
    name: &str,
    seed_n: u64,
    secs: f64,
    work: &Path,
    tally: &mut Tally,
    info: &mut Vec<String>,
) -> Result<(ServerPhase, Recovery), String> {
    let seed = &Rng::new(seed_n);
    let dir = work.join("db");
    let (handle, _) = serve::start(&dir, spec.chains)?;
    let mut pings = Samples::default();
    {
        let mut c = serve::Client::connect(handle.addr())?;
        for _ in 0..50 {
            let t = Instant::now();
            let (ok, _) = c.call(":ping")?;
            pings.push(t.elapsed());
            tally.attempted += 1;
            if !ok {
                tally.fail("ping answered err".into());
            }
        }
    }
    let mut streams = spec.streams(seed);
    let seen = serve::load(
        handle.addr(),
        &mut streams,
        &Stop::after(secs * 0.4, 0, secs * 0.4),
    );
    let report = handle.metrics_report();
    tally.merge(seen.tally);
    info.push(format!(
        "server phase: {} applies (mean {:.3} ms), {} queries (mean {:.3} ms)",
        seen.applies.len(),
        seen.applies.mean(),
        seen.queries.len(),
        seen.queries.mean()
    ));
    let tail = serve::write_tail(handle, seed, spec.chains, tally);
    let first = serve::recover(name, seed_n, &dir, serve::TAIL_COMMITS, tally);
    let mut db = serve::open_and_audit(&dir, spec.chains, &streams, Some(&tail), tally)
        .ok_or("open failed")?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    drop(db);
    let second = serve::recover(name, seed_n, &dir, 0, tally);
    let open_us = first.unwrap_or(f64::NAN) * 1e6;
    let recovery = Recovery {
        open_us,
        replay_us_per_record: (open_us - second.unwrap_or(f64::NAN) * 1e6)
            / serve::TAIL_COMMITS as f64,
    };
    let client = ServerPhase {
        apply_us: seen.applies.mean() * 1e3,
        query_us: seen.queries.mean() * 1e3,
        ping_us: pings.quantile(0.5) * 1e3,
        report,
    };
    Ok((client, recovery))
}

fn layer_metrics(
    replay: &Replay,
    client: &ServerPhase,
    recovery: &Recovery,
    times: &[Duration],
    n_ops: usize,
    info: &mut Vec<String>,
) -> Vec<Metric> {
    let self_times = replay.spans.self_times();
    // Both traced passes are in the span log; per-op means divide by
    // their call counts.
    let mean_us = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |(n, d)| d.as_secs_f64() * 1e6 / *n as f64)
    };
    let calls = |name: &str| self_times.get(name).map_or(0, |(n, _)| *n) as f64;
    let total_us = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e6)
    };
    let c = &replay.counters;
    let r = &client.report;
    let (batches, _) = phase(r, "server.batch");
    let (_, stage_us) = phase(r, "server.stage");
    let (_, sync_us) = phase(r, "server.fsync");
    let (_, clone_us) = phase(r, "server.clone");
    let commits = c.get("commits") as f64;

    // Per op kind: the layers' share of what the client saw.
    let apply_layers = [
        "parse.txn",
        "ic_check",
        "serialize",
        "maintain",
        "clone",
        "journal",
        "publish",
        "drop",
    ];
    let layer_sum = |layers: &[&str], op: &str| -> f64 {
        per(layers.iter().map(|l| total_us(l)).sum::<f64>(), calls(op))
    };
    let apply_cover = layer_sum(&apply_layers, "op.apply");
    let query_cover = layer_sum(&["parse.query", "magic"], "op.query");
    let unaccounted = |cover: f64, seen: f64| if seen > 0.0 { 1.0 - cover / seen } else { 0.0 };
    let traced = (times[0] + times[2]).as_secs_f64() / 2.0;
    let untraced = times[1].as_secs_f64();
    info.push(format!(
        "apply split (us per op): ic_check {:.0}, maintain {:.0}, publish {:.0}, journal {:.0}, other layers {:.0}; client saw {:.0}",
        per(total_us("ic_check"), calls("op.apply")),
        per(total_us("maintain"), calls("op.apply")),
        per(total_us("clone") + total_us("publish") + total_us("drop"), calls("op.apply")),
        per(total_us("journal"), calls("op.apply")),
        per(total_us("parse.txn") + total_us("serialize"), calls("op.apply")),
        client.apply_us
    ));
    info.push(format!("{n_ops} ops per pass; pass times {times:.3?}"));
    vec![
        metric("session.ping_rtt_us", client.ping_us, "us"),
        metric(
            "writer.requests_per_batch",
            per(r.total("server.batch", "requests") as f64, batches as f64),
            "count",
        ),
        metric(
            "writer.stage_us_per_batch",
            per(stage_us as f64, batches as f64),
            "us",
        ),
        metric(
            "writer.sync_us_per_batch",
            per(sync_us as f64, batches as f64),
            "us",
        ),
        metric(
            "writer.clone_us_per_batch",
            per(clone_us as f64, batches as f64),
            "us",
        ),
        metric("parser.txn_us", mean_us("parse.txn"), "us"),
        metric("parser.query_us", mean_us("parse.query"), "us"),
        metric("ic_check.us_per_commit", mean_us("ic_check"), "us"),
        metric("ic_check.rejected", c.get("rejected") as f64, "count"),
        metric("maintain.us_per_commit", mean_us("maintain"), "us"),
        metric(
            "maintain.events_per_commit",
            per(c.get("events") as f64, commits),
            "count",
        ),
        metric(
            "maintain.rederived_per_overdeleted",
            per(c.get("rederived") as f64, c.get("overdeleted") as f64),
            "frac",
        ),
        metric(
            "publish.clone_us",
            per(total_us("clone") + total_us("publish"), calls("clone")),
            "us",
        ),
        metric("publish.drop_us", mean_us("drop"), "us"),
        metric("journal.append_us", mean_us("journal"), "us"),
        metric(
            "journal.bytes_per_commit",
            per(c.get("journal_bytes") as f64, commits),
            "B",
        ),
        metric(
            "journal.fsyncs_per_commit",
            per(c.get("fsyncs") as f64, commits),
            "count",
        ),
        metric("magic.query_us", mean_us("magic"), "us"),
        metric(
            "magic.rounds_per_query",
            per(c.get("rounds") as f64, c.get("queries") as f64),
            "count",
        ),
        metric(
            "magic.tuples_per_answer",
            per(c.get("tuples") as f64, c.get("answers") as f64),
            "count",
        ),
        metric(
            "index.builds_per_op",
            per(c.get("index_builds") as f64, n_ops as f64),
            "count",
        ),
        metric("recovery.open_us", recovery.open_us, "us"),
        metric(
            "recovery.replay_us_per_record",
            recovery.replay_us_per_record,
            "us",
        ),
        metric(
            "trace.unaccounted_frac.apply",
            unaccounted(apply_cover, client.apply_us),
            "frac",
        ),
        metric(
            "trace.unaccounted_frac.query",
            unaccounted(query_cover, client.query_us),
            "frac",
        ),
        metric("trace.overhead_frac", traced / untraced - 1.0, "frac"),
    ]
}
