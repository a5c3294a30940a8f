//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process (set-ups, recoveries and the
//! determinism check in child processes of the same binary), checks
//! every answer, and prints one JSON result line last on standard
//! output. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` replays the same seeded operation
//! stream in-process through each layer's public functions and reports
//! the per-layer metrics. `perfbench/README.md` describes the workloads
//! and metrics.

mod gen;
mod serve;
mod stats;
mod trace;

use dduf_persist::DurableDb;
use gen::Rng;
use serve::{Seen, Spec, Stop, Traffic};
use stats::{median, metric, Metric, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Operations attempted and failed: error frames, wrong answers and
/// failed checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 10 {
                self.notes.push(n);
            }
        }
    }
}

/// The benchmark's workloads. `repeats` is the number of set-ups and
/// recoveries timed after each load window: three where each takes
/// under 0.1 s, so that the set-up median and the fastest open rest on
/// 30 samples.
fn workload(name: &str) -> Option<Spec> {
    let (chains, traffic, repeats) = match name {
        "write_34k" => (40, Traffic::Writes, 3),
        "read_mix_129k" => (150, Traffic::ReadMix, 1),
        _ => return None,
    };
    Some(Spec {
        chains,
        traffic,
        repeats,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only in a child process (see [`child`]).
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            "--child" => child = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.5),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Runs this binary again, in a fresh process, for one piece of a run's
/// work (`setup`, `open:<dir>` or `replay:<ops>`; see [`child_work`]),
/// and returns the last line it printed. Set-ups and recoveries run this
/// way to start from a fresh heap, as a restarted server would, whatever
/// the run did before them; the determinism check, to show
/// nondeterminism between processes.
pub fn child(workload: &str, seed: u64, what: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--child",
            what,
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child `{what}` exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("child `{what}` printed nothing"))
}

/// The work of a child process; returns the line it prints.
fn child_work(what: &str, spec: Spec, seed: &Rng, work: &Path) -> Result<String, String> {
    match what.split_once(':') {
        None if what == "setup" => {
            let (handle, took) = serve::start(&work.join("db"), spec.chains)?;
            handle.shutdown();
            Ok(took.as_secs_f64().to_string())
        }
        Some(("open", dir)) => {
            let t = Instant::now();
            let db = DurableDb::open(dir).map_err(|e| e.to_string())?;
            let took = t.elapsed().as_secs_f64();
            let r = db.recovery();
            Ok(format!("{took} {} {}", r.replayed, r.counts_restored))
        }
        Some(("replay", ops)) => {
            let ops = ops.parse().map_err(|_| format!("bad op count {ops}"))?;
            trace::replay_only(spec, seed, ops, work)
        }
        _ => Err(format!("unknown child work `{what}`")),
    }
}

/// The load runs in this many windows. After each, with the server
/// idle, the run times the workload's set-ups and recoveries, each in a
/// child process, so that their samples spread over the whole run. On a
/// shared host the CPU's speed changes every 5–15 s; the medians of
/// back-to-back repeats would follow whichever phase they fell in.
const WINDOWS: usize = 10;

/// What a run reports.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub info: Vec<String>,
}

fn latency_metrics(
    samples: &Samples,
    elapsed_s: f64,
    info: &mut Vec<String>,
    what: &str,
) -> Vec<Metric> {
    info.push(format!(
        "{what}: {} samples, {} beyond p90, p50 {:.3} ms, p90 {:.3} ms over {elapsed_s:.2} s",
        samples.len(),
        samples.beyond(0.9),
        samples.quantile(0.5),
        samples.quantile(0.9),
    ));
    vec![
        metric("p50_ms", samples.quantile(0.5), "ms"),
        metric("p90_ms", samples.quantile(0.9), "ms"),
        metric("ops_per_s", samples.len() as f64 / elapsed_s, "1/s"),
    ]
}

fn check_sample_count(samples: &Samples, tally: &mut Tally) {
    tally.attempted += 1;
    if samples.beyond(0.9) < 10 {
        tally.fail(format!("only {} samples beyond p90", samples.beyond(0.9)));
    }
}

fn timed_server(
    spec: Spec,
    name: &str,
    seed_n: u64,
    secs: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let seed = &Rng::new(seed_n);
    let mut tally = Tally::default();
    let mut info = Vec::new();
    // The database recovery opens: the generated state, a checkpoint and
    // a fixed tail, so the replay work does not depend on the run.
    let recovery_dir = work.join("recovery");
    let (handle, _) = serve::start(&recovery_dir, spec.chains)?;
    serve::write_tail(handle, seed, spec.chains, &mut tally);

    let dir = work.join("db");
    let (handle, _) = serve::start(&dir, spec.chains)?;
    let (base, derived) = gen::chain_sizes(spec.chains);
    info.push(format!(
        "state: {base} base facts, {derived} derived tuples"
    ));
    let mut streams = spec.streams(seed);
    // Warm-up: indexes and caches fill before the timed region.
    let warm = serve::load(
        handle.addr(),
        &mut streams,
        &Stop::after(secs * 0.1, 0, secs * 0.1),
    );
    tally.merge(warm.tally);
    let reads = spec.traffic == Traffic::ReadMix;
    let mut seen = Seen::default();
    let (mut setups, mut opens, mut elapsed) = (Vec::new(), Vec::new(), 0.0);
    for window in 0..WINDOWS {
        // Each window runs on until the primary op has its share of the
        // samples.
        let primary = if reads {
            seen.queries.len()
        } else {
            seen.applies.len()
        };
        let share = ((window + 1) * serve::MIN_SAMPLES).div_ceil(WINDOWS);
        let part = secs / WINDOWS as f64;
        let t = Instant::now();
        let part = serve::load(
            handle.addr(),
            &mut streams,
            &Stop::after(part, share.saturating_sub(primary), 3.0 * part),
        );
        elapsed += t.elapsed().as_secs_f64();
        seen.merge(part);
        for _ in 0..spec.repeats {
            let took = child(name, seed_n, "setup")?;
            setups.push(
                took.parse::<f64>()
                    .map_err(|_| format!("set-up printed `{took}`"))?,
            );
            opens.extend(serve::recover(
                name,
                seed_n,
                &recovery_dir,
                serve::TAIL_COMMITS,
                &mut tally,
            ));
        }
    }
    tally.merge(std::mem::take(&mut seen.tally));
    let rejected = warm.rejected + seen.rejected;
    let cycles = warm.cycles_generated + seen.cycles_generated;
    tally.attempted += 1;
    if rejected != cycles {
        tally.fail(format!(
            "{rejected} REJECTED answers for {cycles} cycle-closing inserts"
        ));
    }
    info.push(format!(
        "cycle-closing inserts: {cycles} generated, {rejected} REJECTED"
    ));

    let mut metrics = vec![metric("setup_s", median(&setups), "s")];
    let primary = if reads {
        info.push(format!(
            "apply beside reads: {} samples, p50 {:.3} ms, p90 {:.3} ms",
            seen.applies.len(),
            seen.applies.quantile(0.5),
            seen.applies.quantile(0.9)
        ));
        for (kind, s) in &seen.by_kind {
            info.push(format!(
                "query {kind:?}: {} samples, p50 {:.3} ms",
                s.len(),
                s.quantile(0.5)
            ));
        }
        &seen.queries
    } else {
        &seen.applies
    };
    check_sample_count(primary, &mut tally);
    metrics.extend(latency_metrics(primary, elapsed, &mut info, "primary op"));

    handle.shutdown();
    serve::open_and_audit(&dir, spec.chains, &streams, None, &mut tally);
    info.push(format!(
        "set-ups {setups:.3?} s; recovery opens {opens:.3?} s"
    ));
    // The fastest open: a restart's own cost. On a shared host each run
    // mixes opens at two speeds, about 1.4x apart, and the median
    // follows whichever speed held for most of the run.
    let fastest = opens.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push(metric("recovery_s", fastest, "s"));
    Ok(Outcome {
        tally,
        metrics,
        info,
    })
}

fn main() -> ExitCode {
    // The documented configuration: real fsync, default thread pool.
    std::env::remove_var("DDUF_SYNC_DELAY_US");
    std::env::remove_var("DDUF_THREADS");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let seed = Rng::new(args.seed);
    let work: PathBuf =
        Path::new(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    if let Some(what) = &args.child {
        let line = child_work(what, spec, &seed, &work);
        let _ = std::fs::remove_dir_all(&work);
        return match line {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = if args.trace {
        trace::run(spec, &args.workload, args.seed, &seed, args.seconds, &work)
    } else {
        timed_server(spec, &args.workload, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        outcome
            .metrics
            .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    }
    println!("workload {} seed {}", args.workload, args.seed);
    for line in &outcome.info {
        println!("  {line}");
    }
    for note in &outcome.tally.notes {
        println!("  FAILED: {note}");
    }
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        stats::result_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
