//! `perfbench`: the repository benchmark. For one workload it starts the
//! released `banks serve` under an address-space cap, drives it open-loop
//! over loopback HTTP up a geometric ladder of fixed rates, to the top or
//! to the first rate whose read p99 misses the workload's limit, scrapes
//! `/metrics` and `/proc` around each step, checks every answer against an
//! in-process reference, and (with `--trace 1`) replays the same inputs
//! in process through each layer's public functions.
//!
//! ```text
//! perfbench --server-bin target/release/banks --workload small-zipf \
//!           --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of stdout is the result JSON; the lines before it are
//! the run's metadata and a table of every metric.

mod check;
mod loadgen;
mod prom;
mod rng;
mod server;
mod stats;
mod trace;
mod workload;

use banks_core::{Banks, BanksConfig, SearchArena};
use banks_datagen::stream::{self, StreamConfig, StreamCounts};
use banks_datagen::{dblp, DblpConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher};
use banks_persist::{open_bundle_paged, save_bundle, snapshot_file};
use banks_util::json::Json;
use loadgen::{Op, Outcome, Request};
use prom::{histogram_quantile, Scrape};
use server::Server;
use stats::{highest_supported, percentile, Metric, Spread, StepResult};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Query, SmallCorpus, Source, Spec, WriteBatch};

/// Per-request timeout. A failed or refused request is charged this
/// latency: beyond every workload's limit.
const TIMEOUT: Duration = Duration::from_secs(10);
const TIMEOUT_MS: f64 = TIMEOUT.as_millis() as f64;
/// How long past a step's last due time its unsent requests wait before
/// they fail unsent.
const GIVE_UP_AFTER: Duration = Duration::from_secs(2);
/// Unmeasured traffic before the ladder: caches fill, worker arenas and
/// page caches warm up.
const WARMUP_SECONDS: f64 = 1.5;
/// Index of the reference step (after the warm-up).
const REFERENCE: usize = 1;
/// Reads replayed by the traced run.
const TRACE_READS: usize = 1000;
/// Reads appended after the ladder to compare the final state.
const FINAL_SAMPLE: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        server_bin: PathBuf::from(get("--server-bin")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` ({})",
            args.workload,
            names.join("|")
        );
        std::process::exit(2);
    };
    let work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", spec.name, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&spec, &args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What a read or write op stands for.
#[derive(Debug, Clone, Copy)]
enum What {
    Read(usize),
    Write(usize),
}

/// What a read's response body is reduced to once its step ends, so a
/// run holds no bodies: the answer fingerprint and epoch, and the
/// server's own `elapsed_us`.
#[derive(Debug, Clone, Copy, Default)]
struct Digest {
    answer: Option<(u64, u64)>,
    server_us: Option<u64>,
}

impl Digest {
    fn take(o: &mut Outcome) -> Digest {
        let body = std::mem::take(&mut o.body);
        Digest {
            answer: check::of_body(&body),
            server_us: loadgen::field_u64(&body, "elapsed_us"),
        }
    }
}

struct Step {
    rate: f64,
    seconds: f64,
    ops: Vec<Op>,
    what: Vec<What>,
}

/// One step: reads at `rate` for `secs`, the next ones from `generator`,
/// and writes at the workload's write rate beside them, made next. Both
/// are appended to `reads` and `writes`, which the step indexes.
fn plan_step(
    spec: &Spec,
    (rate, secs): (f64, f64),
    generator: &mut workload::Reads,
    reads: &mut Vec<Query>,
    writes: &mut Vec<WriteBatch>,
    corpus: Option<&SmallCorpus>,
    seed: u64,
) -> Result<Step, String> {
    let mut timed: Vec<(Duration, Op, What)> = Vec::new();
    let due_times = loadgen::schedule(rate, secs, Duration::ZERO);
    let fresh = generator.take(due_times.len());
    if fresh.len() < due_times.len() {
        return Err(format!(
            "the corpus ran out of distinct reads after {}",
            reads.len() + fresh.len()
        ));
    }
    for (due, q) in due_times.into_iter().zip(fresh) {
        timed.push((
            due,
            Op {
                due,
                request: Request::get(format!("/search?q={}", workload::url_query(&q.text))),
                follow: None,
            },
            What::Read(reads.len()),
        ));
        reads.push(q);
    }
    if let (Some(corpus), true) = (corpus, spec.write_rate > 0.0) {
        let offset = Duration::from_secs_f64(0.5 / spec.write_rate);
        for due in loadgen::schedule(spec.write_rate, secs, offset) {
            let w = workload::write_batch(corpus, seed, writes.len());
            timed.push((
                due,
                Op {
                    due,
                    request: Request::post("/ingest", w.body.clone()),
                    follow: Some(format!("/search?q={}", w.token)),
                },
                What::Write(writes.len()),
            ));
            writes.push(w);
        }
    }
    timed.sort_by_key(|t| t.0);
    Ok(Step {
        rate,
        seconds: secs,
        ops: timed.iter().map(|t| t.1.clone()).collect(),
        what: timed.iter().map(|t| t.2).collect(),
    })
}

/// Rate and seconds of each step: an unmeasured warm-up at the
/// reference rate (step 0), then the ladder from the reference rate
/// (step 1) up by [`workload::LADDER_RATIO`], each step long enough for
/// [`workload::STEP_READS`] reads, while the steps fit in `seconds` (at
/// least two) and stay within the workload's `max_rate`. The run stops
/// after the first step that misses the limit.
fn steps_of(spec: &Spec, seconds: f64) -> Vec<(f64, f64)> {
    let mut steps = vec![(spec.reference_rate, WARMUP_SECONDS)];
    let (mut rate, mut total) = (spec.reference_rate, 0.0);
    loop {
        let secs = (workload::STEP_READS as f64 / rate).max(workload::MIN_STEP_SECONDS);
        if steps.len() > 2 && (total + secs > seconds || rate > spec.max_rate) {
            return steps;
        }
        steps.push((rate, secs));
        total += secs;
        rate *= workload::LADDER_RATIO;
    }
}

/// Run metadata, printed with every result.
fn metadata(spec: &Spec, args: &Args, extra: &[(&'static str, Json)]) -> Json {
    let cmd = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut fields = vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Uint(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("git_rev", Json::Str(cmd("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(cmd("rustc", &["--version"]))),
        ("cargo", Json::Str(cmd("cargo", &["--version"]))),
        (
            "nproc",
            Json::Uint(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(0),
            ),
        ),
        ("cap_kib", Json::Uint(spec.cap_kib)),
        (
            "rates",
            Json::Arr(
                steps_of(spec, args.seconds)
                    .iter()
                    .skip(REFERENCE)
                    .map(|&(r, _)| Json::Num(r))
                    .collect(),
            ),
        ),
        ("write_rate", Json::Num(spec.write_rate)),
        ("limit_ms", Json::Num(spec.limit_ms)),
        ("connections", Json::Uint(workload::CONNECTIONS as u64)),
        ("setups", Json::Uint(workload::SETUPS as u64)),
    ];
    fields.extend(extra.iter().cloned());
    Json::obj(fields)
}

fn scrape(server: &Server) -> Scrape {
    server
        .get("/metrics")
        .map(|t| Scrape::parse(&t))
        .unwrap_or_default()
}

/// Server args for setup number `i`.
fn server_args(spec: &Spec, work: &Path, bundle_dir: &Path, i: usize) -> Vec<String> {
    let mut args: Vec<String> = match spec.kind {
        Kind::SmallZipf => vec![
            "--corpus".into(),
            "dblp-small".into(),
            "--seed".into(),
            workload::SMALL_CORPUS_SEED.to_string(),
            "--no-ingest".into(),
        ],
        Kind::SmallColdRw => vec![
            "--corpus".into(),
            "dblp-small".into(),
            "--seed".into(),
            workload::SMALL_CORPUS_SEED.to_string(),
            "--data-dir".into(),
            work.join(format!("data-{i}")).display().to_string(),
        ],
        Kind::Paged250k => vec![
            "--data-dir".into(),
            bundle_dir.display().to_string(),
            "--paged".into(),
            "--memory-budget".into(),
            format!("{}m", workload::PAGED_BUDGET_BYTES >> 20),
            "--no-ingest".into(),
        ],
    };
    args.extend(["--workers".into(), workload::SERVER_WORKERS.to_string()]);
    args
}

/// Reference fingerprints of `queries` on `banks`, one thread per
/// arena (arenas are reused across calls, as a server worker reuses its
/// own).
fn references(
    banks: &Banks,
    queries: &[String],
    arenas: &mut [SearchArena],
) -> Result<Vec<u64>, String> {
    let per_thread = queries.len().div_ceil(arenas.len()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(per_thread)
            .zip(arenas.iter_mut())
            .map(|(chunk, arena)| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            banks
                                .search_outcome_in(q, arena)
                                .map(|outcome| check::of_answers(banks, &outcome.answers))
                                .map_err(|e| format!("reference `{q}`: {e}"))
                        })
                        .collect::<Result<Vec<u64>, String>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for h in handles {
            out.extend(h.join().map_err(|_| "reference thread panicked")??);
        }
        Ok(out)
    })
}

/// Per-op verdicts after checking answers.
struct Verdicts {
    /// Per step and op: failed in transport, with a non-2xx status, or
    /// with a wrong answer.
    failed: Vec<Vec<bool>>,
    /// Checks beyond the scheduled ops (read-your-write follow-ups, the
    /// final sample) and how many of them failed.
    extra_attempted: usize,
    extra_failed: usize,
    mismatches: usize,
    bad_writes: usize,
}

/// Progress on stderr: the phase and seconds since the run began.
fn phase(started: Instant, what: &str) {
    eprintln!("perfbench: {:7.2}s {what}", started.elapsed().as_secs_f64());
}

fn run(spec: &Spec, args: &Args, work: &Path) -> Result<String, String> {
    let started = Instant::now();
    let config = BanksConfig::default();

    // Inputs and the in-process reference state.
    let mut layer: Vec<Metric> = Vec::new();
    let corpus;
    let counts = StreamCounts::for_tuples(workload::DATAGEN_TUPLES)?;
    let db = match spec.kind {
        Kind::Paged250k => {
            let dir = work.join("corpus");
            stream::generate_to_dir(
                &StreamConfig::new(workload::DATAGEN_SEED, workload::DATAGEN_TUPLES),
                &dir,
            )?;
            stream::build_database(&dir)?
        }
        _ => {
            dblp::generate(DblpConfig::small(workload::SMALL_CORPUS_SEED))
                .map_err(|e| e.to_string())?
                .db
        }
    };
    let source = match spec.kind {
        Kind::Paged250k => {
            corpus = None;
            Source::Datagen(counts)
        }
        _ => {
            corpus = Some(SmallCorpus::from_db(&db)?);
            Source::Small(corpus.as_ref().expect("set above"))
        }
    };
    let t = Instant::now();
    let reference = Arc::new(Banks::with_config(db, config.clone()).map_err(|e| e.to_string())?);
    layer.push(Metric::scalar(
        "core.graph_build_s",
        "s",
        t.elapsed().as_secs_f64(),
    ));

    let bundle_dir = work.join("bundle");
    std::fs::create_dir_all(&bundle_dir).map_err(|e| e.to_string())?;
    let bundle = bundle_dir.join(snapshot_file(0));
    let t = Instant::now();
    save_bundle(&reference, 0, &bundle).map_err(|e| format!("save bundle: {e}"))?;
    layer.push(Metric::scalar(
        "persist.bundle_save_s",
        "s",
        t.elapsed().as_secs_f64(),
    ));
    let bundle_bytes = std::fs::metadata(&bundle).map(|m| m.len()).unwrap_or(0);

    // The cost proxy for stratified classes: keyword origins, from the
    // reference's text index.
    let origins = |text: &str| -> usize {
        reference
            .parse(text)
            .and_then(|q| reference.match_terms(&q, &config))
            .map(|m| m.iter().map(|t| t.nodes.len()).sum())
            .unwrap_or(0)
    };
    // Reads and writes are made step by step as the ladder climbs, in one
    // seeded sequence.
    let mut generator = workload::Reads::new(spec, source, args.seed, &origins);
    let (mut reads, mut writes): (Vec<Query>, Vec<WriteBatch>) = (Vec::new(), Vec::new());

    phase(started, "set-up");
    // Set-up: the first `SETUPS_BEFORE` cold starts (the last one serves
    // the run); the rest follow the ladder's steps and the server's stop,
    // so `setup_s` samples the host across the run.
    let start = |i: usize| {
        Server::start(
            &args.server_bin,
            &server_args(spec, work, &bundle_dir, i),
            spec.cap_kib,
            &work.join(format!("server-{i}.log")),
        )
    };
    let mut setups = Vec::with_capacity(workload::SETUPS);
    let cold_start = |setups: &mut Vec<f64>| -> Result<(), String> {
        let s = start(setups.len())?;
        setups.push(s.setup.as_secs_f64());
        s.stop();
        Ok(())
    };
    for _ in 1..workload::SETUPS_BEFORE {
        cold_start(&mut setups)?;
    }
    let mut server = start(setups.len())?;
    setups.push(server.setup.as_secs_f64());
    let status = server.status().unwrap_or_default();
    let rss_setup_mib = status.vm_rss_kib as f64 / 1024.0;
    let health = server.get("/health").unwrap_or_default();
    let graph_counts = (
        scrape(&server).get("banks_graph_nodes"),
        scrape(&server).get("banks_graph_edges"),
    );

    phase(started, "ladder");
    // The measured ladder, up to the first rung that misses the limit
    // twice running: a host stall can fail one attempt, so a missed rung
    // is tried once more with fresh reads. A cold start between steps
    // spreads `setup_s` over the run.
    let plan = steps_of(spec, args.seconds);
    let mut threads_max = status.threads as f64;
    let mut queue_max = 0.0f64;
    let mut steps: Vec<Step> = Vec::new();
    let mut rungs: Vec<usize> = Vec::new();
    let mut outcomes: Vec<Vec<Outcome>> = Vec::new();
    let mut digests: Vec<Vec<Digest>> = Vec::new();
    let mut deltas: Vec<Scrape> = Vec::new();
    let mut ladder_before = Scrape::default();
    let (mut rung, mut retried) = (0, false);
    while rung < plan.len() {
        let i = steps.len();
        let step = plan_step(
            spec,
            plan[rung],
            &mut generator,
            &mut reads,
            &mut writes,
            corpus.as_ref(),
            args.seed,
        )?;
        let before = scrape(&server);
        if i == REFERENCE {
            ladder_before = before.clone();
        }
        let mut ticks = 0u64;
        let server_ref = &mut server;
        let mut out = loadgen::run_open_loop(
            server_ref.addr,
            &step.ops,
            workload::CONNECTIONS,
            TIMEOUT,
            Duration::from_secs_f64(step.seconds) + GIVE_UP_AFTER,
            || {
                ticks += 1;
                if let Some(s) = server_ref.status() {
                    threads_max = threads_max.max(s.threads as f64);
                }
                if ticks.is_multiple_of(10) {
                    queue_max = queue_max.max(scrape(server_ref).get("banks_http_queue_depth"));
                }
            },
        );
        let after = scrape(&server);
        queue_max = queue_max.max(after.get("banks_http_queue_depth"));
        deltas.push(Scrape::delta(&before, &after));
        let missed = i >= REFERENCE && !step_result(spec, &step, &out, |o| !o.ok()).pass;
        digests.push(
            out.iter_mut()
                .zip(&step.what)
                .map(|(o, w)| match w {
                    What::Read(_) => Digest::take(o),
                    What::Write(_) => Digest::default(),
                })
                .collect(),
        );
        outcomes.push(out);
        steps.push(step);
        rungs.push(rung);
        if setups.len() < workload::SETUPS - workload::SETUPS_AFTER {
            cold_start(&mut setups)?;
        }
        match (missed, retried) {
            (false, _) => (rung, retried) = (rung + 1, false),
            (true, false) => retried = true,
            (true, true) => break,
        }
    }
    let final_reads = generator.take(FINAL_SAMPLE);
    let ladder = Scrape::delta(&ladder_before, &scrape(&server));
    let end = server.status().unwrap_or_default();
    let rss_peak_mib = end.vm_hwm_kib as f64 / 1024.0;
    let vm_peak_mib = end.vm_peak_kib as f64 / 1024.0;

    phase(started, "after ladder");
    // After the measured phases: the final-state sample, then the probe.
    let acked_tokens: Vec<&str> = outcomes
        .iter()
        .zip(&steps)
        .flat_map(|(out, step)| out.iter().zip(&step.what))
        .filter_map(|(o, w)| match w {
            What::Write(k) if o.ok() => Some(writes[*k].token.as_str()),
            _ => None,
        })
        .collect();
    let mut final_queries: Vec<String> = final_reads.iter().map(|q| q.text.clone()).collect();
    if !acked_tokens.is_empty() {
        let stride = acked_tokens.len().div_ceil(FINAL_SAMPLE).max(1);
        final_queries.extend(acked_tokens.iter().step_by(stride).map(|t| t.to_string()));
    }
    let final_out: Vec<Outcome> = final_queries
        .iter()
        .map(|q| {
            let mut client = loadgen::Client::new(server.addr, TIMEOUT);
            let req = Request::get(format!("/search?q={}", workload::url_query(q)));
            match client.send(&req) {
                Ok((status, body)) => Outcome {
                    status,
                    body,
                    ..Outcome::default()
                },
                Err(e) => Outcome {
                    error: Some(e.to_string()),
                    ..Outcome::default()
                },
            }
        })
        .collect();
    let mut probe_failed = 0usize;
    let probe = generator.probe();
    let mut probe_answers: Vec<(String, String)> = Vec::new();
    for q in &probe {
        let mut client = loadgen::Client::new(server.addr, TIMEOUT);
        let req = Request::get(format!("/search?q={}", workload::url_query(&q.text)));
        match client.send(&req) {
            // Broad answers are not checked: computing them in process
            // would take the memory the capped server runs out of.
            Ok((200, body)) if q.class != workload::Class::Broad => {
                probe_answers.push((q.text.clone(), body))
            }
            Ok((200, _)) => {}
            _ => probe_failed += 1,
        }
    }
    let server_alive = !server.exited();
    server.stop();
    while setups.len() < workload::SETUPS {
        cold_start(&mut setups)?;
    }
    let errors: Vec<&str> = outcomes
        .iter()
        .flatten()
        .chain(&final_out)
        .filter_map(|o| o.error.as_deref())
        .collect();
    if let Some(first) = errors.first() {
        eprintln!(
            "perfbench: {} request(s) failed in transport, first: {first}",
            errors.len()
        );
    }

    phase(started, "answer checks");
    // Answer checks.
    let verdicts = verify(
        &reference,
        &steps,
        &outcomes,
        &digests,
        &reads,
        &writes,
        &final_queries,
        &final_out,
    )?;

    phase(started, "metrics");
    // Probe pairs the server answered must match the in-RAM reference.
    let probe_queries: Vec<String> = probe_answers.iter().map(|p| p.0.clone()).collect();
    let mut arenas = [SearchArena::new(), SearchArena::new()];
    let probe_expected = references(&reference, &probe_queries, &mut arenas)?;
    drop(arenas);
    let probe_mismatches = probe_answers
        .iter()
        .zip(probe_expected)
        .filter(|((_, body), want)| check::of_body(body).map(|a| a.0) != Some(*want))
        .count();

    // End-to-end metrics.
    let read_latencies = |i: usize| -> Vec<f64> {
        outcomes[i]
            .iter()
            .zip(&steps[i].what)
            .zip(&verdicts.failed[i])
            .filter(|((_, w), _)| matches!(w, What::Read(_)))
            .map(|((o, _), &failed)| if failed { TIMEOUT_MS } else { o.latency_ms() })
            .collect()
    };
    let reference_reads = read_latencies(REFERENCE);

    let mut sorted = reference_reads.clone();
    sorted.sort_by(f64::total_cmp);
    let p99_pm = highest_supported(sorted.len(), 990).unwrap_or(500);
    let read_p50 = stats::percentile_sorted(&sorted, 500);
    let read_p99 = stats::percentile_sorted(&sorted, p99_pm);

    // Each rung's better attempt: the one that met the limit, else the
    // one with the lower tail.
    let mut ladder_results: Vec<StepResult> = Vec::new();
    for (i, step) in steps.iter().enumerate().skip(REFERENCE) {
        let mut failed = verdicts.failed[i].iter();
        let r = step_result(spec, step, &outcomes[i], |_| {
            *failed.next().expect("a verdict per op")
        });
        eprintln!(
            "perfbench: step {:.1} rps: answered {:.1}/s, read p99 {:.3} ms, meets limit: {}",
            r.rate, r.achieved, r.tail_ms, r.pass
        );
        match ladder_results.last_mut() {
            Some(last) if rungs[i] == rungs[i - 1] => {
                if (r.pass, -r.tail_ms) > (last.pass, -last.tail_ms) {
                    *last = r;
                }
            }
            _ => ladder_results.push(r),
        }
    }
    let slo = stats::crossing_rate(&ladder_results, spec.limit_ms);

    let end_to_end = vec![
        // The fastest start: on a shared host the starts fall into a fast
        // and a slow mode (about 25 and 40 ms on dblp-small) that come
        // and go with the neighbours' load, so the median flips between
        // them from run to run while the minimum holds.
        Metric {
            name: "setup_s",
            unit: "s",
            value: setups.iter().copied().fold(f64::INFINITY, f64::min),
            spread: Spread::of(&setups),
        },
        Metric::scalar("slo_rps", "req/s", slo),
        Metric::scalar("rss_peak_mib", "MiB", rss_peak_mib),
    ];

    // Per-layer metrics from the untraced run.
    let all: Vec<(&Outcome, What)> = outcomes
        .iter()
        .zip(&steps)
        .skip(REFERENCE)
        .flat_map(|(out, step)| out.iter().zip(step.what.iter().copied()))
        .collect();
    let write_lat: Vec<f64> = all
        .iter()
        .filter(|(_, w)| matches!(w, What::Write(_)))
        .map(|(o, _)| if o.ok() { o.latency_ms() } else { TIMEOUT_MS })
        .collect();
    let acked_bytes: usize = all
        .iter()
        .filter_map(|(o, w)| match w {
            What::Write(k) if o.ok() => Some(writes[*k].body.len()),
            _ => None,
        })
        .sum();
    let acked = all
        .iter()
        .filter(|(o, w)| matches!(w, What::Write(_)) && o.ok())
        .count()
        .max(1) as f64;
    let search = deltas[REFERENCE].buckets("banks_http_request_seconds", r#"endpoint="/search""#);
    let server_p50 = histogram_quantile(&search, 0.5).unwrap_or(0.0) * 1e3;
    let server_p99 = histogram_quantile(&search, 0.99).unwrap_or(0.0) * 1e3;
    // Per answered read of the reference step: client latency minus the
    // server's own `elapsed_us` (connect, queueing, HTTP and socket time).
    let outside: Vec<f64> = outcomes[REFERENCE]
        .iter()
        .zip(&digests[REFERENCE])
        .filter(|(o, _)| o.ok())
        .filter_map(|(o, d)| Some(o.latency_ms() - d.server_us? as f64 / 1e3))
        .collect();
    let lags: Vec<f64> = outcomes[REFERENCE].iter().map(Outcome::lag_ms).collect();
    let hits = ladder.get("banks_cache_hits_total");
    let misses = ladder.get("banks_cache_misses_total");
    let fsyncs = ladder.get("banks_wal_fsync_total");
    // Requests the generator gave up on past an overloaded step were
    // never sent: they count against that step's p99 but are not
    // operations of the system.
    let sent: Vec<(&Outcome, bool)> = outcomes
        .iter()
        .flatten()
        .zip(verdicts.failed.iter().flatten().copied())
        .filter(|(o, _)| !o.unsent)
        .collect();
    let unsent = verdicts.failed.iter().map(Vec::len).sum::<usize>() - sent.len();
    let attempted = sent.len() + verdicts.extra_attempted;
    let failed = sent.iter().filter(|(_, f)| *f).count() + verdicts.extra_failed;
    let mut per_layer = vec![
        // Read latency at the reference rate. On a shared 2-core host
        // its median moves by 10-40% and its p99 by 30-100% between runs
        // with the neighbours' load, more than any bound the benchmark
        // may set, so it is reported here rather than gated; latency
        // still gates through `slo_rps`, whose steps must meet the limit
        // at this percentile.
        Metric {
            name: "read_p50_ms",
            unit: "ms",
            value: read_p50,
            spread: Spread::of(&reference_reads),
        },
        Metric {
            name: "read_p99_ms",
            unit: "ms",
            value: read_p99,
            spread: Spread::of(&reference_reads),
        },
        Metric {
            name: "loadgen.lag_p99_ms",
            unit: "ms",
            value: percentile(&lags, 990),
            spread: Spread::of(&lags),
        },
        Metric::scalar("server.http.server_p50_ms", "ms", server_p50),
        Metric::scalar("server.http.server_p99_ms", "ms", server_p99),
        Metric {
            name: "server.http.outside_p50_ms",
            unit: "ms",
            value: percentile(&outside, 500),
            spread: Spread::of(&outside),
        },
        Metric::scalar("server.http.queue_depth_max", "count", queue_max),
        Metric::scalar("server.http.shed", "count", ladder.get("banks_shed_total")),
        Metric::scalar(
            "server.http.deadline_exceeded",
            "count",
            ladder.get("banks_deadline_exceeded_total"),
        ),
        Metric::scalar(
            "server.cache.hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        Metric::scalar(
            "server.cache.evictions",
            "count",
            ladder.get("banks_cache_evictions_total"),
        ),
        Metric::scalar(
            "server.cache.invalidations",
            "count",
            ladder.get("banks_cache_invalidations_total"),
        ),
        Metric::scalar("persist.fsync_per_write", "count", fsyncs / acked),
        Metric::scalar(
            "persist.fsync_ms_mean",
            "ms",
            ladder.get("banks_wal_fsync_seconds_total") * 1e3 / fsyncs.max(1.0),
        ),
        Metric::scalar(
            "persist.wal_bytes_per_write",
            "B/B",
            ladder.get("banks_wal_bytes_total") / acked_bytes.max(1) as f64,
        ),
        Metric::scalar("proc.rss_setup_mib", "MiB", rss_setup_mib),
        Metric::scalar("proc.threads_max", "count", threads_max),
        Metric {
            name: "write_p50_ms",
            unit: "ms",
            value: percentile(&write_lat, 500),
            spread: Spread::of(&write_lat),
        },
        Metric {
            name: "write_p99_ms",
            unit: "ms",
            value: percentile(&write_lat, 990),
            spread: Spread::of(&write_lat),
        },
        Metric {
            name: "error_ratio",
            unit: "ratio",
            value: failed as f64 / attempted.max(1) as f64,
            spread: Spread {
                n: attempted,
                ..Spread::scalar(failed as f64 / attempted.max(1) as f64)
            },
        },
        Metric::scalar("probe.attempted", "count", probe.len() as f64),
        Metric::scalar("probe.failed", "count", probe_failed as f64),
    ];
    per_layer.extend(layer);

    phase(started, "trace");
    if args.trace {
        let t = Instant::now();
        let (paged, _) = open_bundle_paged(&bundle, workload::PAGED_BUDGET_BYTES as usize, &config)
            .map_err(|e| format!("paged open: {e}"))?;
        per_layer.push(Metric::scalar(
            "persist.paged_open_ms",
            "ms",
            t.elapsed().as_secs_f64() * 1e3,
        ));
        // Replay on what the server served: the bundle opened paged under
        // the same budget, or the in-RAM build.
        let traced_banks = match spec.kind {
            Kind::Paged250k => Arc::new(paged),
            _ => Arc::clone(&reference),
        };
        // The warm-up and the reference step as the server saw them, each
        // distinct query once (a repeat is a cache hit there, timed
        // separately), at most `TRACE_READS` reads; then the cheaper half
        // of the probe's id pairs, which are what pages graph segments in.
        let mut seen = std::collections::HashSet::new();
        let mut replay: Vec<trace::Step> = Vec::new();
        for w in steps[..=REFERENCE].iter().flat_map(|s| s.what.iter()) {
            match *w {
                What::Read(i) if replay.len() < TRACE_READS => {
                    if seen.insert(workload::key(&reads[i].text)) {
                        replay.push(trace::Step::Read(reads[i].text.clone()));
                    }
                }
                What::Write(k) => replay.push(trace::Step::Write(writes[k].body.clone())),
                What::Read(_) => {}
            }
        }
        replay.extend(
            probe
                .iter()
                .filter(|q| q.class != workload::Class::Broad)
                .take(workload::PROBE_PAIRS / 2)
                .map(|q| trace::Step::Read(q.text.clone())),
        );
        let wal_dir = work.join("trace-wal");
        per_layer.extend(trace::run(traced_banks, &replay, &wal_dir)?);
    }

    let meta = metadata(
        spec,
        args,
        &[
            ("server_version", Json::Str(health)),
            ("graph_nodes", Json::Num(graph_counts.0)),
            ("graph_edges", Json::Num(graph_counts.1)),
            ("bundle_bytes", Json::Uint(bundle_bytes)),
            (
                "server_flags",
                Json::Str(
                    server_args(spec, Path::new("<work>"), Path::new("<bundle>"), 0).join(" "),
                ),
            ),
            (
                "paged_budget_bytes",
                Json::Uint(if spec.kind == Kind::Paged250k {
                    workload::PAGED_BUDGET_BYTES
                } else {
                    0
                }),
            ),
            ("vm_peak_mib", Json::Num(vm_peak_mib)),
            ("read_p99_percentile_pm", Json::Uint(u64::from(p99_pm))),
            (
                "ladder",
                Json::Arr(
                    ladder_results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("rps", Json::Num(r.rate)),
                                ("answered_rps", Json::Num(r.achieved)),
                                ("p99_ms", Json::Num(r.tail_ms)),
                                ("pass", Json::Bool(r.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "setups_s",
                Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("server_alive_after_probe", Json::Bool(server_alive)),
            ("mismatches", Json::Uint(verdicts.mismatches as u64)),
            ("probe_mismatches", Json::Uint(probe_mismatches as u64)),
            ("bad_writes", Json::Uint(verdicts.bad_writes as u64)),
            ("unsent", Json::Uint(unsent as u64)),
        ],
    );
    println!("meta {}", meta.compact());
    println!(
        "{}",
        stats::table(&format!("{} end to end", spec.name), &end_to_end)
    );
    println!(
        "{}",
        stats::table(&format!("{} per layer", spec.name), &per_layer)
    );

    let reported = if args.trace { &per_layer } else { &end_to_end };
    let metrics: Vec<(String, Json)> = reported
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([
                    (
                        "value",
                        Json::Num(if m.value.is_finite() { m.value } else { 0.0 }),
                    ),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let correct = verdicts.mismatches == 0 && verdicts.bad_writes == 0 && probe_mismatches == 0;
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(attempted as u64)),
        ("failed", Json::Uint(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact())
}

/// A ladder step's read p99 (a failed read counts as [`TIMEOUT`]) and
/// whether it met the limit. Latency runs from each read's due time, so
/// a backlog that grows in the generator pushes the p99 over the limit
/// too.
fn step_result(
    spec: &Spec,
    step: &Step,
    out: &[Outcome],
    mut failed: impl FnMut(&Outcome) -> bool,
) -> StepResult {
    let reads: Vec<(&Outcome, bool)> = out
        .iter()
        .zip(&step.what)
        .map(|(o, w)| (o, w, failed(o)))
        .filter(|(_, w, _)| matches!(w, What::Read(_)))
        .map(|(o, _, f)| (o, f))
        .collect();
    let lat: Vec<f64> = reads
        .iter()
        .map(|&(o, f)| if f { TIMEOUT_MS } else { o.latency_ms() })
        .collect();
    let tail_pm = highest_supported(lat.len(), 990).unwrap_or(500);
    let tail_ms = percentile(&lat, tail_pm);
    let answered = reads.iter().filter(|(_, f)| !f).count();
    let first = out.iter().map(|o| o.due_ns).min().unwrap_or(0);
    let last = out.iter().map(|o| o.done_ns).max().unwrap_or(0);
    StepResult {
        rate: step.rate,
        achieved: answered as f64 / ((last.saturating_sub(first)).max(1) as f64 / 1e9),
        tail_ms,
        pass: tail_ms <= spec.limit_ms,
    }
}

/// Check every answer. Reads are compared with the reference at the
/// epoch they report (the in-process replay of the acked writes in
/// epoch order); each acked write must be readable at its epoch; the
/// final sample must equal the replay's final state.
fn verify(
    reference: &Arc<Banks>,
    steps: &[Step],
    outcomes: &[Vec<Outcome>],
    digests: &[Vec<Digest>],
    reads: &[Query],
    writes: &[WriteBatch],
    final_queries: &[String],
    final_out: &[Outcome],
) -> Result<Verdicts, String> {
    let mut v = Verdicts {
        failed: outcomes
            .iter()
            .map(|o| o.iter().map(|o| !o.ok()).collect())
            .collect(),
        extra_attempted: 0,
        extra_failed: 0,
        mismatches: 0,
        bad_writes: 0,
    };
    // Answered reads: (step and op, or `None` for the final sample;
    // query; fingerprint; epoch).
    type Answered = (Option<(usize, usize)>, String, u64, u64);
    let mut answered: Vec<Answered> = Vec::new();
    let mut acks: Vec<(u64, usize)> = Vec::new();
    for (i, (out, step)) in outcomes.iter().zip(steps).enumerate() {
        for (j, (o, w)) in out.iter().zip(&step.what).enumerate() {
            match *w {
                What::Read(r) if o.ok() => match digests[i][j].answer {
                    Some((fp, epoch)) => {
                        answered.push((Some((i, j)), reads[r].text.clone(), fp, epoch))
                    }
                    None => {
                        v.failed[i][j] = true;
                        v.mismatches += 1;
                    }
                },
                What::Write(k) if o.ok() => {
                    let epoch = loadgen::epoch_of(&o.body).unwrap_or(0);
                    acks.push((epoch, k));
                    // The read-your-write check is an operation of its own.
                    let token = &writes[k].token;
                    let visible = matches!(&o.follow, Some((200, body))
                        if loadgen::epoch_of(body).is_some_and(|e| e >= epoch)
                            && body.contains(token.as_str()));
                    v.extra_attempted += 1;
                    if !visible {
                        v.extra_failed += 1;
                        v.bad_writes += 1;
                    }
                }
                _ => {}
            }
        }
    }
    for (q, o) in final_queries.iter().zip(final_out) {
        v.extra_attempted += 1;
        match check::of_body(&o.body).filter(|_| o.ok()) {
            Some((fp, epoch)) => answered.push((None, q.clone(), fp, epoch)),
            None => v.extra_failed += 1,
        }
    }

    // Replay the acked writes in epoch order, checking reads epoch by
    // epoch.
    acks.sort_unstable();
    answered.sort_by_key(|a| a.3);
    let mut publisher = SnapshotPublisher::new(Arc::clone(reference));
    let mut arenas = [SearchArena::new(), SearchArena::new()];
    let mut next_ack = 0;
    let mut i = 0;
    while i < answered.len() {
        let epoch = answered[i].3;
        let group_end = i + answered[i..].iter().take_while(|a| a.3 == epoch).count();
        while next_ack < acks.len() && acks[next_ack].0 <= epoch {
            let (ack_epoch, k) = acks[next_ack];
            let batch = DeltaBatch::from_json(&writes[k].body).map_err(|e| e.to_string())?;
            let published = publisher
                .publish(&batch, None)
                .map_err(|e| format!("replay of write {k}: {e}"))?;
            if published.info.epoch != ack_epoch {
                v.bad_writes += 1;
            }
            next_ack += 1;
        }
        let group = &answered[i..group_end];
        let mut queries: Vec<String> = group.iter().map(|a| a.1.clone()).collect();
        queries.sort_unstable();
        queries.dedup();
        // An epoch the acked writes never made has no reference: every
        // read claiming it is wrong.
        let expected: HashMap<&str, u64> = if publisher.epoch() == epoch {
            let fps = references(&publisher.current(), &queries, &mut arenas)?;
            queries.iter().map(String::as_str).zip(fps).collect()
        } else {
            HashMap::new()
        };
        for a in group {
            if expected.get(a.1.as_str()) != Some(&a.2) {
                v.mismatches += 1;
                match a.0 {
                    Some((s, j)) => v.failed[s][j] = true,
                    None => v.extra_failed += 1,
                }
            }
        }
        i = group_end;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_hold_a_p99_each_and_fit_the_run() {
        for spec in workload::SPECS {
            let steps = steps_of(&spec, 20.0);
            assert_eq!(steps[0], (spec.reference_rate, WARMUP_SECONDS));
            let ladder = &steps[REFERENCE..];
            assert!(ladder.len() >= 2, "{}", spec.name);
            assert_eq!(ladder[0].0, spec.reference_rate);
            let mut total = 0.0;
            for (k, &(rate, secs)) in ladder.iter().enumerate() {
                let reads = loadgen::schedule(rate, secs, Duration::ZERO).len();
                assert_eq!(highest_supported(reads, 990), Some(990), "{}", spec.name);
                if k > 0 {
                    assert!((rate / ladder[k - 1].0 - workload::LADDER_RATIO).abs() < 1e-9);
                    assert!(rate <= spec.max_rate * workload::LADDER_RATIO);
                }
                total += secs;
            }
            assert!(total <= 20.0, "{} plans {total} s", spec.name);
        }
    }
}
