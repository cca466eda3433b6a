//! The three workloads: what the server runs, the rate ladder, and the
//! seeded read and write sequences.

use crate::rng::{Rng, Zipf};
use banks_datagen::stream::{self, StreamCounts};
use banks_storage::{Database, Tokenizer};
use banks_util::json::Json;
use std::collections::HashSet;

/// Seed of the `dblp-small` corpus (the server's default `--seed`).
pub const SMALL_CORPUS_SEED: u64 = 1;
/// Size and seed of the `banks datagen` corpus behind `paged-250k`.
pub const DATAGEN_TUPLES: u64 = 250_000;
pub const DATAGEN_SEED: u64 = 42;
/// `--memory-budget` of the paged server.
pub const PAGED_BUDGET_BYTES: u64 = 8 << 20;
/// Worker threads of every server (`--workers`); the machine's cores.
pub const SERVER_WORKERS: usize = 2;
/// Connections (and threads) of the load generator.
pub const CONNECTIONS: usize = 2;
/// Each ladder step's rate over the one below it.
pub const LADDER_RATIO: f64 = 1.25;
/// Reads per ladder step: enough for ten beyond the 99th percentile.
pub const STEP_READS: usize = 1020;
/// The shortest ladder step, so a fast step still spans many ticks.
pub const MIN_STEP_SECONDS: f64 = 1.0;
/// Server starts per run, `SETUPS_BEFORE` before the ladder (the last of
/// those serves it), one after each step, and `SETUPS_AFTER` (or more, if
/// the ladder was short) after the server stops; `setup_s` is the
/// fastest.
pub const SETUPS: usize = 16;
pub const SETUPS_BEFORE: usize = 4;
pub const SETUPS_AFTER: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallZipf,
    SmallColdRw,
    Paged250k,
}

/// Everything fixed about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// The lowest read rate (req/s) of the ladder, at which `read_p50_ms`
    /// and `read_p99_ms` are measured; each step above is
    /// [`LADDER_RATIO`] times the one below.
    pub reference_rate: f64,
    /// No step above this rate is planned, so distinct reads cannot run
    /// out.
    pub max_rate: f64,
    /// The read p99 limit (ms) whose crossing rate is `slo_rps`.
    pub limit_ms: f64,
    /// `POST /ingest` batches per second, beside the reads.
    pub write_rate: f64,
    /// Address-space cap of the server (`ulimit -v`), KiB.
    pub cap_kib: u64,
    /// Query-class shares of the read sequence (sum to 1).
    pub shares: &'static [(Class, f64)],
}

/// Where the p99 crosses the limit on a 2-core shared host moves with the
/// host's speed from minute to minute, by up to 2x: cache hits on
/// `small-zipf` saturate both cores (server and load generator) anywhere
/// from 12,000 to 26,000 req/s, distinct `small-cold-rw` reads from 250
/// to 730 req/s (one seed read 320-517 on three runs), `paged-250k`
/// lookups from 110 to 157 req/s. Each ladder stops below the slow end,
/// at 9,537, 200 and 125 req/s, so `slo_rps` reads the top step unless a
/// change cuts capacity below it or pushes the p99 at it over the limit;
/// where the host is slow enough that the top step misses, it reads the
/// crossing just below.
pub const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::SmallZipf,
        name: "small-zipf",
        reference_rate: 2000.0,
        max_rate: 10_000.0,
        limit_ms: 100.0,
        write_rate: 0.0,
        cap_kib: 1 << 20,
        shares: &[
            (Class::AuthorTitle, 0.45),
            (Class::TitlePair, 0.45),
            (Class::Single, 0.1),
        ],
    },
    Spec {
        kind: Kind::SmallColdRw,
        name: "small-cold-rw",
        reference_rate: 128.0,
        max_rate: 200.0,
        limit_ms: 500.0,
        write_rate: 1.0,
        cap_kib: 1 << 20,
        shares: &[
            (Class::AuthorTitle, 0.48),
            (Class::TitlePair, 0.48),
            (Class::Single, 0.04),
        ],
    },
    Spec {
        kind: Kind::Paged250k,
        name: "paged-250k",
        reference_rate: 100.0,
        max_rate: 125.0,
        limit_ms: 500.0,
        write_rate: 0.0,
        cap_kib: 2 << 20,
        shares: &[(Class::SingleId, 1.0)],
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A word of an author's name with a title word of a paper they wrote.
    AuthorTitle,
    /// Two words of one paper's title.
    TitlePair,
    /// One word of a name or title.
    Single,
    /// Author id and paper id of one `Writes` row.
    AuthorPaper,
    /// Citing and cited paper ids of one `Cites` row.
    CitingCited,
    /// One author or paper id.
    SingleId,
    /// An author last name with a title word (probe only).
    Broad,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub text: String,
    pub class: Class,
}

/// The cache key the server normalizes a query to: sorted lowercase
/// terms.
pub fn key(text: &str) -> String {
    let mut terms: Vec<String> = text.split_whitespace().map(str::to_lowercase).collect();
    terms.sort_unstable();
    terms.join(" ")
}

/// Words of `dblp-small`, by tuple: author names, paper titles, and the
/// `Writes` rows that connect them.
#[derive(Debug, Clone)]
pub struct SmallCorpus {
    authors: Vec<(String, Vec<String>)>,
    papers: Vec<(String, Vec<String>)>,
    /// `(author index, paper index)` per `Writes` row.
    writes: Vec<(usize, usize)>,
}

impl SmallCorpus {
    pub fn from_db(db: &Database) -> Result<SmallCorpus, String> {
        let tokenizer = Tokenizer::new();
        let rows = |relation: &str| -> Result<Vec<Vec<String>>, String> {
            Ok(db
                .relation(relation)
                .map_err(|e| e.to_string())?
                .scan()
                .map(|(_, t)| {
                    t.values()
                        .iter()
                        .map(|v| v.as_text().unwrap_or_default().to_string())
                        .collect()
                })
                .collect())
        };
        // Words of at least three letters: single letters and initials
        // match most of the corpus and are not what users type.
        let words = |text: &str| -> Vec<String> {
            tokenizer
                .tokenize(text)
                .into_iter()
                .filter(|w| w.chars().count() >= 3)
                .collect()
        };
        let authors: Vec<(String, Vec<String>)> = rows("Author")?
            .into_iter()
            .map(|r| (r[0].clone(), words(&r[1])))
            .collect();
        let papers: Vec<(String, Vec<String>)> = rows("Paper")?
            .into_iter()
            .map(|r| (r[0].clone(), words(&r[1])))
            .collect();
        let index = |list: &[(String, Vec<String>)]| -> std::collections::HashMap<String, usize> {
            list.iter()
                .enumerate()
                .map(|(i, (id, _))| (id.clone(), i))
                .collect()
        };
        let (author_ix, paper_ix) = (index(&authors), index(&papers));
        let writes = rows("Writes")?
            .into_iter()
            .filter_map(|r| Some((*author_ix.get(&r[0])?, *paper_ix.get(&r[1])?)))
            .filter(|&(a, p)| !authors[a].1.is_empty() && !papers[p].1.is_empty())
            .collect();
        Ok(SmallCorpus {
            authors,
            papers,
            writes,
        })
    }

    pub fn paper_ids(&self) -> impl Iterator<Item = &str> {
        self.papers.iter().map(|(id, _)| id.as_str())
    }

    fn draw(&self, class: Class, rng: &mut Rng) -> Option<String> {
        match class {
            Class::AuthorTitle => {
                let &(a, p) = rng.pick(&self.writes);
                Some(format!(
                    "{} {}",
                    rng.pick(&self.authors[a].1),
                    rng.pick(&self.papers[p].1)
                ))
            }
            Class::TitlePair => {
                let words = &rng.pick(&self.papers).1;
                if words.len() < 2 {
                    return None;
                }
                let first = rng.below(words.len());
                let second = (first + 1 + rng.below(words.len() - 1)) % words.len();
                (words[first] != words[second])
                    .then(|| format!("{} {}", words[first], words[second]))
            }
            Class::Single => {
                let list = if rng.below(2) == 0 {
                    &self.authors
                } else {
                    &self.papers
                };
                let words = &rng.pick(list).1;
                (!words.is_empty()).then(|| rng.pick(words).clone())
            }
            _ => None,
        }
    }

    /// A title made of corpus words.
    fn title(&self, rng: &mut Rng, words: usize) -> Vec<String> {
        (0..words)
            .map(|_| {
                let w = &rng.pick(&self.papers).1;
                if w.is_empty() {
                    "data".to_string()
                } else {
                    rng.pick(w).clone()
                }
            })
            .collect()
    }
}

/// Draw a query of `class` from the datagen corpus (pure function of the
/// row index, no files read).
fn draw_datagen(class: Class, counts: &StreamCounts, rng: &mut Rng) -> Option<String> {
    let (a, b) = match class {
        Class::AuthorPaper => stream::writes_row(
            DATAGEN_SEED,
            counts,
            rng.below(counts.writes as usize) as u64,
        ),
        Class::CitingCited => stream::cites_row(
            DATAGEN_SEED,
            counts,
            rng.below(counts.cites as usize) as u64,
        ),
        Class::SingleId => {
            return Some(if rng.below(2) == 0 {
                stream::author_row(DATAGEN_SEED, rng.below(counts.authors as usize) as u64).0
            } else {
                stream::paper_row(DATAGEN_SEED, rng.below(counts.papers as usize) as u64).0
            })
        }
        _ => return None,
    };
    Some(format!("{a} {b}"))
}

/// Where reads are drawn from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Small(&'a SmallCorpus),
    Datagen(StreamCounts),
}

impl Source<'_> {
    fn draw(&self, class: Class, rng: &mut Rng) -> Option<String> {
        match self {
            Source::Small(c) => c.draw(class, rng),
            Source::Datagen(counts) => draw_datagen(class, counts, rng),
        }
    }
}

fn pick_class(shares: &[(Class, f64)], rng: &mut Rng) -> Class {
    let mut u = rng.unit();
    for &(class, share) in shares {
        if u < share {
            return class;
        }
        u -= share;
    }
    shares.last().expect("shares are non-empty").0
}

/// A query of `class` whose cache key was not drawn before (`None` when
/// the class seems exhausted).
fn fresh(
    source: &Source,
    class: Class,
    seen: &mut HashSet<String>,
    rng: &mut Rng,
) -> Option<String> {
    for _ in 0..10_000 {
        if let Some(text) = source.draw(class, rng) {
            if seen.insert(key(&text)) {
                return Some(text);
            }
        }
    }
    None
}

/// Candidates drawn per query of a stratified class.
const OVERSAMPLE: usize = 16;

/// The read sequence of a run, taken step by step.
///
/// `small-zipf` draws reads Zipf(s=1) from a pool of distinct queries,
/// so the head repeats. The other workloads send distinct queries only.
/// The two-keyword classes are drawn *stratified* by a cost function
/// (the keyword origins a query expands from): `OVERSAMPLE` seeded
/// candidates per query, sorted by cost, and the ones at the quantile
/// midpoints taken. Each run then carries the same cost mix, tail
/// included, so per-run figures vary with the system and not with which
/// expensive queries the seed happened to draw.
pub struct Reads<'a> {
    spec: Spec,
    source: Source<'a>,
    rng: Rng,
    seen: HashSet<String>,
    zipf: Option<(Vec<Query>, Zipf)>,
    cost: &'a dyn Fn(&str) -> usize,
}

impl<'a> Reads<'a> {
    pub fn new(
        spec: &Spec,
        source: Source<'a>,
        seed: u64,
        cost: &'a dyn Fn(&str) -> usize,
    ) -> Reads<'a> {
        let mut reads = Reads {
            spec: *spec,
            source,
            rng: Rng::stream(seed, "reads"),
            seen: HashSet::new(),
            zipf: None,
            cost,
        };
        if spec.kind == Kind::SmallZipf {
            let pool: Vec<Query> = (0..ZIPF_POOL).filter_map(|_| reads.one()).collect();
            let zipf = Zipf::new(pool.len(), 1.0);
            reads.zipf = Some((pool, zipf));
        }
        reads
    }

    /// One distinct query, class drawn by the shares.
    fn one(&mut self) -> Option<Query> {
        let class = pick_class(self.spec.shares, &mut self.rng);
        let text = fresh(&self.source, class, &mut self.seen, &mut self.rng)?;
        Some(Query { text, class })
    }

    /// The next `n` reads.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        if let Some((pool, zipf)) = &self.zipf {
            return (0..n)
                .map(|_| pool[zipf.sample(&mut self.rng)].clone())
                .collect();
        }
        let cost = self.cost;
        // Exact class counts; stratified classes by cost quantile.
        let mut out = Vec::with_capacity(n);
        let mut left = n;
        for (i, &(class, share)) in self.spec.shares.iter().enumerate() {
            let count = if i + 1 == self.spec.shares.len() {
                left
            } else {
                ((n as f64 * share).round() as usize).min(left)
            };
            left -= count;
            if !class.stratified() {
                for _ in 0..count {
                    // An exhausted class lends its slot to the others.
                    let query = fresh(&self.source, class, &mut self.seen, &mut self.rng)
                        .map(|text| Query { text, class })
                        .or_else(|| self.one());
                    out.extend(query);
                }
                continue;
            }
            out.extend(self.stratified(class, count, cost));
        }
        // Seeded shuffle, so the expensive queries are spread in time.
        for i in (1..out.len()).rev() {
            let j = self.rng.below(i + 1);
            out.swap(i, j);
        }
        out
    }
}

impl Reads<'_> {
    /// `count` distinct queries of `class`, stratified by `cost`: the
    /// candidates at the quantile midpoints of `OVERSAMPLE` draws per
    /// query, cheapest first.
    fn stratified(
        &mut self,
        class: Class,
        count: usize,
        cost: &dyn Fn(&str) -> usize,
    ) -> Vec<Query> {
        let mut candidates: Vec<(usize, String)> = Vec::new();
        let mut drawn = HashSet::new();
        for _ in 0..count * OVERSAMPLE * 4 {
            if candidates.len() == count * OVERSAMPLE {
                break;
            }
            if let Some(text) = self.source.draw(class, &mut self.rng) {
                let k = key(&text);
                if !self.seen.contains(&k) && drawn.insert(k) {
                    candidates.push((cost(&text), text));
                }
            }
        }
        candidates.sort();
        (0..count.min(candidates.len()))
            .map(|j| {
                let text = candidates[(2 * j + 1) * candidates.len() / (2 * count)]
                    .1
                    .clone();
                self.seen.insert(key(&text));
                Query { text, class }
            })
            .collect()
    }

    /// The probe sent after the measured phases of `paged-250k`: id-pair
    /// lookups stratified by cost (cheapest first), then the broad
    /// name + title-word queries.
    pub fn probe(&mut self) -> Vec<Query> {
        let mut out = Vec::new();
        if let Source::Datagen(_) = self.source {
            let cost = self.cost;
            for class in [Class::AuthorPaper, Class::CitingCited] {
                out.extend(self.stratified(class, PROBE_PAIRS / 2, cost));
            }
            out.sort_by_key(|q| cost(&q.text));
            out.extend(broad_probe().into_iter().map(|text| Query {
                text,
                class: Class::Broad,
            }));
        }
        out
    }
}

/// Id-pair lookups in the `paged-250k` probe.
pub const PROBE_PAIRS: usize = 4;

impl Class {
    /// Classes drawn stratified by cost: the two-keyword classes, whose
    /// cost spreads widest.
    fn stratified(self) -> bool {
        matches!(
            self,
            Class::AuthorTitle | Class::TitlePair | Class::AuthorPaper | Class::CitingCited
        )
    }
}

/// Distinct queries in the `small-zipf` pool.
pub const ZIPF_POOL: usize = 2000;

/// One `POST /ingest` batch of `small-cold-rw` and the word that makes
/// its tuples findable.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBatch {
    pub body: String,
    pub token: String,
}

/// Letters-only rendering of a number (the tokenizer keeps it as one
/// word that no corpus text contains).
fn letters(mut n: u64) -> String {
    let mut out = Vec::new();
    loop {
        out.push(b'a' + (n % 26) as u8);
        n /= 26;
        if n == 0 {
            break;
        }
    }
    out.reverse();
    String::from_utf8(out).expect("ascii")
}

/// Write batch `k` of a run: a new author and paper carrying a unique
/// word, a `Writes` row linking them, one linking the new author to an
/// existing paper, and a title update of another existing paper.
pub fn write_batch(corpus: &SmallCorpus, seed: u64, k: usize) -> WriteBatch {
    let mut rng = Rng::stream(seed.wrapping_add(k as u64), "write");
    let token = format!("zq{}q{}", letters(seed), letters(k as u64));
    let author = format!("WA{seed}_{k}");
    let paper = format!("WP{seed}_{k}");
    let existing: Vec<&str> = corpus.paper_ids().collect();
    let linked = existing[rng.below(existing.len())].to_string();
    let retitled = existing[rng.below(existing.len())].to_string();
    let first = rng
        .pick(&corpus.authors)
        .1
        .first()
        .cloned()
        .unwrap_or_default();
    let title = corpus.title(&mut rng, 4).join(" ");
    let new_title = corpus.title(&mut rng, 5).join(" ");
    let s = |v: &str| Json::Str(v.to_string());
    let insert = |relation: &str, values: Vec<Json>| {
        Json::obj([
            ("op", s("insert")),
            ("relation", s(relation)),
            ("values", Json::Arr(values)),
        ])
    };
    let ops = vec![
        insert("Author", vec![s(&author), s(&format!("{first} {token}"))]),
        insert("Paper", vec![s(&paper), s(&format!("{token} {title}"))]),
        insert("Writes", vec![s(&author), s(&paper)]),
        insert("Writes", vec![s(&author), s(&linked)]),
        Json::obj([
            ("op", s("update")),
            ("relation", s("Paper")),
            ("key", Json::Arr(vec![s(&retitled)])),
            (
                "set",
                Json::Obj(vec![("PaperName".to_string(), s(&new_title))]),
            ),
        ]),
    ];
    WriteBatch {
        body: Json::obj([("ops", Json::Arr(ops))]).compact(),
        token,
    }
}

/// Percent-encode a query for a URL (spaces as `+`).
pub fn url_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        match b {
            b' ' => out.push('+'),
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A fixed handful of name + title-word queries over the datagen corpus,
/// the same in every run: each matches thousands of tuples per word.
fn broad_probe() -> Vec<String> {
    let mut rng = Rng::stream(0, "broad-probe");
    (0..PROBE_QUERIES)
        .map(|_| {
            format!(
                "{} {}",
                rng.pick(banks_datagen::names::LAST_NAMES).to_lowercase(),
                rng.pick(banks_datagen::names::TITLE_WORDS).to_lowercase()
            )
        })
        .collect()
}

pub const PROBE_QUERIES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::{dblp, DblpConfig};

    fn corpus() -> SmallCorpus {
        let db = dblp::generate(DblpConfig::small(SMALL_CORPUS_SEED))
            .unwrap()
            .db;
        SmallCorpus::from_db(&db).unwrap()
    }

    fn shares_of(queries: &[Query], class: Class) -> f64 {
        queries.iter().filter(|q| q.class == class).count() as f64 / queries.len() as f64
    }

    fn source(spec: &Spec, c: &SmallCorpus) -> Source<'static> {
        match spec.kind {
            Kind::Paged250k => Source::Datagen(StreamCounts::for_tuples(DATAGEN_TUPLES).unwrap()),
            // Tests leak one corpus so sources can be 'static.
            _ => Source::Small(Box::leak(Box::new(c.clone()))),
        }
    }

    /// A stand-in cost: the digits of the ids, so strata are checkable.
    fn digit_cost(text: &str) -> usize {
        text.chars()
            .filter(char::is_ascii_digit)
            .map(|d| d as usize - '0' as usize)
            .sum()
    }

    fn take_all(spec: &Spec, c: &SmallCorpus, seed: u64, sizes: &[usize]) -> Vec<Query> {
        let mut reads = Reads::new(spec, source(spec, c), seed, &digit_cost);
        sizes.iter().flat_map(|&n| reads.take(n)).collect()
    }

    #[test]
    fn same_seed_same_reads_and_writes() {
        let c = corpus();
        for spec in SPECS {
            let a = take_all(&spec, &c, 7, &[300, 100]);
            assert_eq!(a.len(), 400);
            assert_eq!(a, take_all(&spec, &c, 7, &[300, 100]), "{}", spec.name);
            assert_ne!(a, take_all(&spec, &c, 8, &[300, 100]), "{}", spec.name);
        }
        assert_eq!(write_batch(&c, 7, 3), write_batch(&c, 7, 3));
        assert_ne!(write_batch(&c, 7, 3).token, write_batch(&c, 7, 4).token);
        assert_ne!(write_batch(&c, 7, 3).token, write_batch(&c, 8, 3).token);
    }

    #[test]
    fn class_shares_and_distinctness_hold() {
        let c = corpus();
        for spec in SPECS {
            let queries = match spec.kind {
                // The pool carries the shares; the Zipf draw over it
                // weights classes by rank.
                Kind::SmallZipf => {
                    let reads = Reads::new(&spec, source(&spec, &c), 5, &digit_cost);
                    reads.zipf.unwrap().0
                }
                _ => take_all(&spec, &c, 5, &[2000, 1000]),
            };
            for &(class, share) in spec.shares {
                let got = shares_of(&queries, class);
                assert!(
                    (got - share).abs() < 0.03,
                    "{} {class:?}: {got} vs {share}",
                    spec.name
                );
            }
            let keys: HashSet<String> = queries.iter().map(|q| key(&q.text)).collect();
            assert_eq!(keys.len(), queries.len(), "{}: distinct", spec.name);
        }
    }

    #[test]
    fn stratified_probe_pairs_span_the_cost_distribution() {
        let spec = spec("paged-250k").unwrap();
        let probe = |seed| -> Vec<Query> {
            let counts = StreamCounts::for_tuples(DATAGEN_TUPLES).unwrap();
            let mut reads = Reads::new(&spec, Source::Datagen(counts), seed, &digit_cost);
            reads.take(100);
            reads.probe()
        };
        let (a, b) = (probe(1), probe(2));
        assert_eq!(a, probe(1));
        assert_eq!(a.len(), PROBE_PAIRS + PROBE_QUERIES);
        let pairs = |p: &[Query]| -> Vec<usize> {
            p.iter()
                .filter(|q| q.class.stratified())
                .map(|q| digit_cost(&q.text))
                .collect()
        };
        let (ca, cb) = (pairs(&a), pairs(&b));
        assert_eq!(ca.len(), PROBE_PAIRS);
        // Cheapest first; different pairs, nearly the same cost at every
        // quantile.
        assert!(ca.windows(2).all(|w| w[0] <= w[1]), "{ca:?}");
        assert_ne!(a, b);
        for (x, y) in ca.iter().zip(&cb) {
            assert!(x.abs_diff(*y) <= 8, "{ca:?} vs {cb:?}");
        }
        // The broad queries close the probe, the same in every run.
        assert!(a[PROBE_PAIRS..].iter().all(|q| q.class == Class::Broad));
        assert_eq!(a[PROBE_PAIRS..], b[PROBE_PAIRS..]);
    }

    #[test]
    fn zipf_reads_repeat_the_head() {
        let c = corpus();
        let spec = spec("small-zipf").unwrap();
        let reads = take_all(&spec, &c, 1, &[3000]);
        let distinct: HashSet<String> = reads.iter().map(|q| key(&q.text)).collect();
        assert!(
            distinct.len() < reads.len() / 2,
            "{} distinct",
            distinct.len()
        );
    }

    #[test]
    fn write_batches_parse_and_carry_their_token() {
        let c = corpus();
        let w = write_batch(&c, 3, 11);
        let batch = banks_ingest::DeltaBatch::from_json(&w.body).unwrap();
        assert_eq!(batch.len(), 5);
        assert!(w.body.contains(&w.token));
        assert_eq!(Tokenizer::new().tokenize(&w.token), vec![w.token.clone()]);
        assert_eq!(url_query("a b/é"), "a+b%2F%C3%A9");
        assert_eq!(letters(0), "a");
        assert_eq!(letters(27), "bb");
    }
}
