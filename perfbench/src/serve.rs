//! The server workloads: an in-process `dduf serve` (default
//! `ServerConfig`, two sessions, real fsync) loaded over loopback TCP
//! by at most two closed-loop client connections.

use crate::gen::{self, Expect, QueryKind, QueryOp, QueryStream, Rng, WriteOp, WriterStream};
use crate::stats::Samples;
use crate::Tally;
use dduf_core::transaction::Transaction;
use dduf_datalog::ast::Pred;
use dduf_persist::DurableDb;
use dduf_server::proto::read_response;
use dduf_server::{ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Commits in the journal tail that recovery replays: written after a
/// checkpoint, so the replay work does not depend on how fast the run
/// went.
pub const TAIL_COMMITS: usize = 8;

/// The isolated-edge writer that writes the recovery tail.
const TAIL_WRITER: usize = 2;

/// Which traffic the two connections carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Two writers, each with one `:apply` outstanding.
    Writes,
    /// One `:query` reader beside one isolated-edge writer.
    ReadMix,
}

/// A workload's database and traffic.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub chains: usize,
    pub traffic: Traffic,
    /// Set-ups and recoveries timed after each load window.
    pub repeats: usize,
}

impl Spec {
    /// The seeded streams, one per connection.
    pub fn streams(&self, seed: &Rng) -> Streams {
        match self.traffic {
            Traffic::Writes => Streams {
                writers: (0..2)
                    .map(|w| WriterStream::new(seed, w, 2, self.chains, gen::WRITE_MIX))
                    .collect(),
                reader: None,
            },
            Traffic::ReadMix => Streams {
                writers: vec![WriterStream::new(seed, 0, 1, self.chains, gen::INSERT_ONLY)],
                reader: Some(QueryStream::new(seed, self.chains)),
            },
        }
    }
}

/// Every client stream of a run; their state after the run predicts the
/// database.
#[derive(Clone, Debug)]
pub struct Streams {
    pub writers: Vec<WriterStream>,
    pub reader: Option<QueryStream>,
}

/// One loopback connection speaking the line protocol.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Sends one command line and reads its frame.
    pub fn call(&mut self, line: &str) -> Result<(bool, Vec<String>), String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("send: {e}"))?;
        read_response(&mut self.reader).map_err(|e| format!("read: {e}"))
    }
}

/// Generates the database, initialises it durably, starts the server
/// and waits for the first `:ping` answer: the measured set-up.
pub fn start(dir: &Path, chains: usize) -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let source = gen::chain_source(chains);
    let db = DurableDb::init(dir, &source).map_err(|e| format!("init: {e}"))?;
    let handle = dduf_server::start(
        db,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            sessions: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start: {e}"))?;
    let mut c = Client::connect(handle.addr())?;
    let (ok, lines) = c.call(":ping")?;
    if !ok || lines != ["pong"] {
        return Err(format!("ping answered {ok} {lines:?}"));
    }
    Ok((handle, t.elapsed()))
}

/// Splits a rendered event set `{+p(a, b), -q(c)}` into its events.
fn event_set(s: &str) -> Option<BTreeSet<String>> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeSet::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, ch) in inner.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.checked_sub(1)?,
            ',' if depth == 0 => {
                out.insert(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    if !inner.trim().is_empty() {
        out.insert(inner[start..].trim().to_string());
    }
    Some(out)
}

/// Checks one `:apply` frame against the generator's prediction.
pub fn check_apply(op: &WriteOp, ok: bool, lines: &[String]) -> Result<(), String> {
    let first = lines.first().map(String::as_str).unwrap_or("");
    let good = ok
        && match &op.expect {
            Expect::Rejected => first.starts_with("REJECTED"),
            Expect::Applied { base, induced } => first
                .strip_prefix("applied ")
                .and_then(|rest| rest.split_once("; induced "))
                .and_then(|(b, d)| Some((event_set(b)?, event_set(d)?)))
                .is_some_and(|(b, d)| &b == base && &d == induced),
        };
    if good {
        Ok(())
    } else {
        Err(format!(
            "`:apply {}` answered {} {first:.200}",
            op.txn,
            if ok { "ok" } else { "err" }
        ))
    }
}

/// Checks one `:query` frame's answer set.
pub fn check_query(op: &QueryOp, ok: bool, lines: &[String]) -> Result<(), String> {
    let (summary, answers) = lines.split_last().ok_or("empty answer")?;
    let got: BTreeSet<String> = answers.iter().cloned().collect();
    if ok && got == op.answers && summary.starts_with(&format!("({} answer", op.answers.len())) {
        Ok(())
    } else {
        Err(format!(
            "`:query {}` answered {} answer(s), expected {}",
            op.atom,
            answers.len(),
            op.answers.len()
        ))
    }
}

/// What one connection saw during the load.
#[derive(Debug, Default)]
pub struct Seen {
    pub applies: Samples,
    pub queries: Samples,
    /// Per query shape, for the read-mix report.
    pub by_kind: Vec<(QueryKind, Samples)>,
    pub tally: Tally,
    pub rejected: u64,
    pub cycles_generated: u64,
}

impl Seen {
    pub fn merge(&mut self, other: Seen) {
        self.applies.extend(other.applies);
        self.queries.extend(other.queries);
        for (k, s) in other.by_kind {
            self.kind(k).extend(s);
        }
        self.tally.merge(other.tally);
        self.rejected += other.rejected;
        self.cycles_generated += other.cycles_generated;
    }

    fn kind(&mut self, kind: QueryKind) -> &mut Samples {
        let at = match self.by_kind.iter().position(|(k, _)| *k == kind) {
            Some(at) => at,
            None => {
                self.by_kind.push((kind, Samples::default()));
                self.by_kind.len() - 1
            }
        };
        &mut self.by_kind[at].1
    }
}

/// When a closed loop stops: after `secs` once the primary operation
/// has `min` samples, and in any case after `hard` seconds, so that a
/// run on a slow host still ends in time (its sample-count check then
/// fails).
pub struct Stop {
    until: Instant,
    hard: Instant,
    min: usize,
    primary: AtomicUsize,
}

/// Enough samples for ten beyond the p90.
pub const MIN_SAMPLES: usize = 101;

impl Stop {
    pub fn after(secs: f64, min: usize, hard: f64) -> Stop {
        let now = Instant::now();
        Stop {
            until: now + Duration::from_secs_f64(secs),
            hard: now + Duration::from_secs_f64(hard.max(secs)),
            min,
            primary: AtomicUsize::new(0),
        }
    }

    pub fn done(&self) -> bool {
        let now = Instant::now();
        now >= self.hard || (now >= self.until && self.primary.load(Ordering::Relaxed) >= self.min)
    }

    pub fn count(&self, primary: bool) {
        if primary {
            self.primary.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn write_loop(addr: SocketAddr, stream: &mut WriterStream, stop: &Stop, primary: bool) -> Seen {
    let mut seen = Seen::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            seen.tally.fail(e);
            return seen;
        }
    };
    while !stop.done() {
        let op = stream.next_op();
        seen.cycles_generated += u64::from(op.expect == Expect::Rejected);
        let t = Instant::now();
        let answer = client.call(&format!(":apply {}", op.txn));
        let took = t.elapsed();
        seen.tally.attempted += 1;
        match answer.and_then(|(ok, lines)| check_apply(&op, ok, &lines).map(|()| lines)) {
            Ok(lines) => {
                seen.applies.push(took);
                seen.rejected += u64::from(lines[0].starts_with("REJECTED"));
                stop.count(primary);
            }
            Err(e) => seen.tally.fail(e),
        }
    }
    seen
}

fn query_loop(addr: SocketAddr, stream: &mut QueryStream, stop: &Stop) -> Seen {
    let mut seen = Seen::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            seen.tally.fail(e);
            return seen;
        }
    };
    while !stop.done() {
        let op = stream.next_op();
        let t = Instant::now();
        let answer = client.call(&format!(":query {}", op.atom));
        let took = t.elapsed();
        seen.tally.attempted += 1;
        match answer.and_then(|(ok, lines)| check_query(&op, ok, &lines)) {
            Ok(()) => {
                seen.queries.push(took);
                seen.kind(op.kind).push(took);
                stop.count(true);
            }
            Err(e) => seen.tally.fail(e),
        }
    }
    seen
}

/// Drives the closed-loop load, one thread per connection, advancing
/// `streams`, until `stop`. The primary operation is `:query` when
/// there is a reader, else `:apply`.
pub fn load(addr: SocketAddr, streams: &mut Streams, stop: &Stop) -> Seen {
    let mut total = Seen::default();
    let writes_primary = streams.reader.is_none();
    std::thread::scope(|s| {
        let mut threads = Vec::new();
        for w in streams.writers.iter_mut() {
            threads.push(s.spawn(move || write_loop(addr, w, stop, writes_primary)));
        }
        if let Some(r) = streams.reader.as_mut() {
            threads.push(s.spawn(move || query_loop(addr, r, stop)));
        }
        for t in threads {
            match t.join() {
                Ok(seen) => total.merge(seen),
                Err(_) => total.tally.fail("client thread panicked".to_string()),
            }
        }
    });
    total
}

/// Ends a server run so recovery has fixed work: a checkpoint, then
/// [`TAIL_COMMITS`] isolated-edge commits, then shutdown. Returns the
/// tail stream (its inserts are part of the predicted state).
pub fn write_tail(
    handle: ServerHandle,
    seed: &Rng,
    chains: usize,
    tally: &mut Tally,
) -> WriterStream {
    let mut tail = WriterStream::new(seed, TAIL_WRITER, TAIL_WRITER + 1, chains, gen::INSERT_ONLY);
    match Client::connect(handle.addr()) {
        Ok(mut c) => {
            tally.attempted += 1;
            match c.call(":checkpoint") {
                Ok((true, _)) => {}
                other => tally.fail(format!(":checkpoint answered {other:?}")),
            }
            for _ in 0..TAIL_COMMITS {
                let op = tail.next_op();
                tally.attempted += 1;
                let r = c
                    .call(&format!(":apply {}", op.txn))
                    .and_then(|(ok, lines)| check_apply(&op, ok, &lines));
                if let Err(e) = r {
                    tally.fail(e);
                }
            }
        }
        Err(e) => tally.fail(e),
    }
    handle.shutdown();
    tail
}

/// Times one `DurableDb::open` of `dir` in a fresh process, as a
/// restart after shutdown would run it, and checks that it replayed
/// exactly `tail` records and restored the persisted support counts.
/// Returns the time in seconds.
pub fn recover(
    workload: &str,
    seed: u64,
    dir: &Path,
    tail: usize,
    tally: &mut Tally,
) -> Option<f64> {
    tally.attempted += 1;
    let line = match crate::child(workload, seed, &format!("open:{}", dir.display())) {
        Ok(line) => line,
        Err(e) => {
            tally.fail(format!("open: {e}"));
            return None;
        }
    };
    let mut fields = line.split(' ');
    let took = fields.next().and_then(|f| f.parse::<f64>().ok());
    let replayed = fields.next().and_then(|f| f.parse::<usize>().ok());
    let restored = fields.next() == Some("true");
    match took {
        Some(took) if replayed == Some(tail) && restored => Some(took),
        _ => {
            tally.fail(format!(
                "recovery answered `{line}`; {tail} records to replay"
            ));
            None
        }
    }
}

/// Opens the database at `dir` and audits it (see [`audit`]).
pub fn open_and_audit(
    dir: &Path,
    chains: usize,
    streams: &Streams,
    tail: Option<&WriterStream>,
    tally: &mut Tally,
) -> Option<DurableDb> {
    tally.attempted += 1;
    match DurableDb::open(dir) {
        Ok(db) => {
            audit(dir, chains, &db, streams, tail, tally);
            Some(db)
        }
        Err(e) => {
            tally.fail(format!("open: {e}"));
            None
        }
    }
}

/// Serial-equivalence audit: the journal's records, replayed in order
/// onto the generated database `source`, must give exactly the recovered
/// base facts.
fn journal_audit(dir: &Path, source: &str, recovered: &DurableDb, tally: &mut Tally) {
    tally.attempted += 1;
    let replayed = (|| -> Result<String, String> {
        let (_, scan) = dduf_persist::read_log(dir).map_err(|e| e.to_string())?;
        let mut db = dduf_datalog::parser::parse_database(source).map_err(|e| e.to_string())?;
        for rec in &scan.records {
            Transaction::parse(&db, &rec.payload)
                .map_err(|e| format!("record {}: {e}", rec.index))?
                .apply_in_place(&mut db);
        }
        Ok(dduf_datalog::pretty::database(&db))
    })();
    match replayed {
        Ok(text) if text == dduf_datalog::pretty::database(recovered.processor().database()) => {}
        Ok(_) => tally.fail("journal replay differs from the recovered database".into()),
        Err(e) => tally.fail(format!("journal replay: {e}")),
    }
}

/// The server audit: [`journal_audit`], and the recovered derived state
/// must have the sizes the generator predicts from every stream's final
/// state.
fn audit(
    dir: &Path,
    chains: usize,
    recovered: &DurableDb,
    streams: &Streams,
    tail: Option<&WriterStream>,
    tally: &mut Tally,
) {
    journal_audit(dir, &gen::chain_source(chains), recovered, tally);
    tally.attempted += 1;
    let (mut tc, mut src) = (0usize, 0usize);
    for w in &streams.writers {
        for (_, len) in w.chains() {
            tc += len * (len + 1) / 2;
            src += len;
        }
    }
    let isolated: usize = streams
        .writers
        .iter()
        .chain(tail)
        .map(|w| w.isolated())
        .sum();
    let interp = recovered.processor().interpretation();
    let got = (
        interp.relation(Pred::new("tc", 2)).len(),
        interp.relation(Pred::new("src", 1)).len(),
    );
    let want = (tc + isolated, src + isolated);
    if got != want {
        tally.fail(format!(
            "recovered tc/src sizes {got:?}, generator predicts {want:?}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_sets_split_at_top_level_commas() {
        let s = event_set("{+tc(a, b), +src(a)}").unwrap();
        assert_eq!(s, ["+src(a)".to_string(), "+tc(a, b)".to_string()].into());
        assert!(event_set("{}").unwrap().is_empty());
    }
}
