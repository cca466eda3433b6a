//! The traced run: the run's reads and writes replayed in process, one
//! thread, through each layer's public functions, timing every call.
//! End-to-end metrics never come from here.

use crate::stats::{mean, percentile, Metric, Spread};
use banks_core::search::backward_search_in;
use banks_core::{Banks, Scorer, SearchArena};
use banks_graph::FxHashSet;
use banks_ingest::{DeltaBatch, SnapshotPublisher};
use banks_persist::{PersistOptions, PersistentStore};
use banks_server::{QueryOptions, QueryService, ServiceConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One step of the replay, in the order the run scheduled them.
#[derive(Debug, Clone)]
pub enum Step {
    Read(String),
    /// A delta batch body, as posted to `/ingest`.
    Write(String),
}

/// The range `trace.coverage` should fall in.
pub const COVERAGE_TOLERANCE: (f64, f64) = (0.9, 1.1);

/// Queries timed for the cache-hit figure.
const HIT_SAMPLE: usize = 200;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn dist(name: &'static str, unit: &'static str, values: &[f64], pm: u32) -> Metric {
    Metric {
        name,
        unit,
        value: percentile(values, pm),
        spread: Spread::of(values),
    }
}

/// Replay `steps` on `banks` (the server's epoch-0 state). Writes are
/// published through a [`SnapshotPublisher`] and appended to a WAL in
/// `wal_dir` with fsync on, as the server does with `--data-dir`.
pub fn run(banks: Arc<Banks>, steps: &[Step], wal_dir: &Path) -> Result<Vec<Metric>, String> {
    let config = banks.config().clone();
    let excluded: FxHashSet<u32> = config
        .search
        .excluded_root_relations
        .iter()
        .filter_map(|name| banks.db().relation_id(name).ok())
        .map(|id| id.0)
        .collect();
    let graph_before = banks
        .tuple_graph()
        .graph()
        .storage_stats()
        .unwrap_or_default();
    let tuples_before = banks.db().tuple_store_stats().unwrap_or_default();
    let mut publisher = SnapshotPublisher::new(Arc::clone(&banks));
    let mut store: Option<Arc<PersistentStore>> = None;
    let mut arena = SearchArena::new();
    let mut whole_arena = SearchArena::new();

    let (mut parse, mut matching, mut expand, mut render) = (vec![], vec![], vec![], vec![]);
    let (mut origins, mut pops) = (vec![], vec![]);
    let (mut early, mut emitted, mut generated, mut retained) = (0usize, 0usize, 0usize, 0usize);
    let (mut layer_total, mut request_total) = (0.0, 0.0);
    let (mut publish, mut wal) = (vec![], vec![]);
    let states_before = arena.state_counters().0;

    for step in steps {
        match step {
            Step::Read(text) => {
                let current = publisher.current();
                // The same read as one whole call, the denominator of
                // `trace.coverage`; before the layer calls on every other
                // read, after them on the rest, so neither side always
                // finds the pages and caches the other warmed.
                let whole_first = parse.len() % 2 == 0;
                let mut whole = || -> Result<f64, String> {
                    let t = Instant::now();
                    let outcome = current
                        .search_outcome_in(text, &mut whole_arena)
                        .map_err(|e| format!("search `{text}`: {e}"))?;
                    let bytes: usize = outcome
                        .answers
                        .iter()
                        .map(|a| current.render_answer(a).len())
                        .sum();
                    std::hint::black_box(bytes);
                    Ok(us(t))
                };
                if whole_first {
                    request_total += whole()?;
                }
                let t = Instant::now();
                let query = current
                    .parse(text)
                    .map_err(|e| format!("parse `{text}`: {e}"))?;
                let t_parse = us(t);
                let t = Instant::now();
                let matches = current
                    .match_terms(&query, &config)
                    .map_err(|e| format!("match `{text}`: {e}"))?;
                let t_match = us(t);
                let t = Instant::now();
                let sets: Vec<_> = matches.iter().map(|m| m.nodes.clone()).collect();
                let scorer = Scorer::new(current.tuple_graph().graph(), config.score);
                let outcome = backward_search_in(
                    &mut arena,
                    current.tuple_graph(),
                    &scorer,
                    &sets,
                    &config.search,
                    &excluded,
                );
                let t_expand = us(t);
                let t = Instant::now();
                let bytes: usize = outcome
                    .answers
                    .iter()
                    .map(|a| current.render_answer(a).len())
                    .sum();
                std::hint::black_box(bytes);
                let t_render = us(t);
                if !whole_first {
                    request_total += whole()?;
                }
                layer_total += t_parse + t_match + t_expand + t_render;
                parse.push(t_parse);
                matching.push(t_match);
                expand.push(t_expand);
                render.push(t_render);
                origins.push(sets.iter().map(Vec::len).sum::<usize>() as f64);
                let s = &outcome.stats;
                pops.push(s.pops as f64);
                early += usize::from(s.early_terminations > 0);
                emitted += s.trees_emitted;
                generated += s.trees_generated;
                retained = retained.max(s.arena_retained_bytes);
            }
            Step::Write(body) => {
                let batch = DeltaBatch::from_json(body).map_err(|e| e.to_string())?;
                let t = Instant::now();
                let published = publisher.publish(&batch, None).map_err(|e| e.to_string())?;
                publish.push(us(t) / 1e3);
                if store.is_none() {
                    let options = PersistOptions::default();
                    let (opened, _) = PersistentStore::open(wal_dir, &config, options)
                        .map_err(|e| format!("open {}: {e}", wal_dir.display()))?;
                    store = Some(opened);
                }
                let t = Instant::now();
                store
                    .as_ref()
                    .expect("opened above")
                    .append_wal(published.info.epoch, &batch)
                    .map_err(|e| e.to_string())?;
                wal.push(us(t) / 1e3);
            }
        }
    }

    let reads = parse.len().max(1) as f64;
    let graph_after = banks
        .tuple_graph()
        .graph()
        .storage_stats()
        .unwrap_or_default();
    let tuples_after = banks.db().tuple_store_stats().unwrap_or_default();
    let per_query = |d: u64| d as f64 / reads;
    let hit_us = hit_latencies(&banks, steps);
    let coverage = if request_total > 0.0 {
        layer_total / request_total
    } else {
        0.0
    };
    let (low, high) = COVERAGE_TOLERANCE;
    if !(low..=high).contains(&coverage) {
        eprintln!("perfbench: trace.coverage {coverage:.3} is outside {low}..={high}");
    }
    Ok(vec![
        dist("core.parse_us_p50", "us", &parse, 500),
        dist("core.match_us_p50", "us", &matching, 500),
        dist("core.match_us_p99", "us", &matching, 990),
        dist("core.expand_us_p50", "us", &expand, 500),
        dist("core.expand_us_p99", "us", &expand, 990),
        dist("core.render_us_p50", "us", &render, 500),
        dist("core.render_us_p99", "us", &render, 990),
        Metric {
            name: "core.origins_mean",
            unit: "count",
            value: mean(&origins),
            spread: Spread::of(&origins),
        },
        dist("core.origins_max", "count", &origins, 1000),
        Metric {
            name: "core.pops_mean",
            unit: "count",
            value: mean(&pops),
            spread: Spread::of(&pops),
        },
        Metric::scalar("core.early_stop_ratio", "ratio", early as f64 / reads),
        Metric::scalar(
            "core.tree_yield",
            "ratio",
            emitted as f64 / generated.max(1) as f64,
        ),
        dist("server.cache.hit_us_p50", "us", &hit_us, 500),
        Metric::scalar(
            "graph.arena_retained_mib",
            "MiB",
            retained as f64 / (1 << 20) as f64,
        ),
        Metric::scalar(
            "graph.states_created_per_query",
            "count",
            per_query(arena.state_counters().0 - states_before),
        ),
        Metric::scalar(
            "pager.graph_page_ins_per_query",
            "count",
            per_query(graph_after.page_ins - graph_before.page_ins),
        ),
        Metric::scalar(
            "pager.graph_evictions_per_query",
            "count",
            per_query(graph_after.evictions - graph_before.evictions),
        ),
        Metric::scalar(
            "pager.graph_decode_us_per_query",
            "us",
            per_query(graph_after.decode_nanos - graph_before.decode_nanos) / 1e3,
        ),
        Metric::scalar(
            "pager.tuple_page_ins_per_query",
            "count",
            per_query(tuples_after.page_ins - tuples_before.page_ins),
        ),
        Metric::scalar(
            "pager.tuple_decode_us_per_query",
            "us",
            per_query(tuples_after.decode_nanos - tuples_before.decode_nanos) / 1e3,
        ),
        dist("ingest.publish_ms_p50", "ms", &publish, 500),
        dist("ingest.publish_ms_p99", "ms", &publish, 990),
        dist("persist.wal_append_ms_p99", "ms", &wal, 990),
        // Parse + match + expand + render over the same reads timed as
        // one `Banks::search_outcome_in` plus render each. Within
        // `COVERAGE_TOLERANCE` the layer figures account for a request's
        // time; below it, time is spent outside the traced layers.
        Metric::scalar("trace.coverage", "ratio", coverage),
    ])
}

/// `QueryService::search` latency on warmed keys: each of the first
/// distinct reads is searched once cold, then timed as a hit.
fn hit_latencies(banks: &Arc<Banks>, steps: &[Step]) -> Vec<f64> {
    let service = QueryService::new(Arc::clone(banks), ServiceConfig::default());
    let mut seen = std::collections::HashSet::new();
    let queries: Vec<&str> = steps
        .iter()
        .filter_map(|s| match s {
            Step::Read(q) => Some(q.as_str()),
            Step::Write(_) => None,
        })
        .filter(|q| seen.insert(crate::workload::key(q)))
        .take(HIT_SAMPLE)
        .collect();
    queries
        .iter()
        .filter_map(|q| {
            service.search(q, QueryOptions::default()).ok()?;
            let t = Instant::now();
            let hit = service.search(q, QueryOptions::default()).ok()?;
            let elapsed = us(t);
            hit.cached.then_some(elapsed)
        })
        .collect()
}
