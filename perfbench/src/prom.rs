//! Parsing `/metrics` (Prometheus text format 0.0.4) and differencing
//! two scrapes.

use std::collections::BTreeMap;

/// One scrape: series key (`name` or `name{labels}`, exactly as printed)
/// to value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value follows the last space; label values may hold
            // spaces, timestamps are never emitted by this server.
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => match v.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => continue,
                },
            };
            series.insert(key.trim().to_string(), value);
        }
        Scrape(series)
    }

    /// A series' value; a missing series reads 0 (families that a
    /// configuration does not install, e.g. WAL counters without
    /// `--data-dir`).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `after − before` for every series in `after` (counters and
    /// histogram buckets; gauges keep their `after` value meaningfully
    /// only through [`Scrape::get`] on the later scrape).
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        Scrape(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Cumulative `(upper bound, count)` buckets of histogram `name`
    /// whose labels contain `label` (e.g. `endpoint="/search"`), sorted
    /// by bound.
    pub fn buckets(&self, name: &str, label: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && k.contains(label))
            .filter_map(|(k, &v)| {
                let le = k.split("le=\"").nth(1)?.split('"').next()?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Quantile `q` of a cumulative histogram, interpolating linearly inside
/// the bucket that holds it (the usual `histogram_quantile` estimate).
/// A quantile landing in the `+Inf` bucket reads as the highest finite
/// bound. `None` when the histogram is empty.
pub fn histogram_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let mut prev_bound = 0.0;
    let mut prev_count = 0.0;
    for &(bound, count) in buckets {
        if count >= target {
            if bound.is_infinite() {
                return Some(prev_bound);
            }
            let in_bucket = count - prev_count;
            let frac = if in_bucket > 0.0 {
                (target - prev_count) / in_bucket
            } else {
                1.0
            };
            return Some(prev_bound + (bound - prev_bound) * frac);
        }
        prev_bound = bound;
        prev_count = count;
    }
    Some(prev_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"# HELP banks_cache_hits_total Cache hits.
# TYPE banks_cache_hits_total counter
banks_cache_hits_total 10
banks_http_queue_depth 3
banks_http_request_seconds_bucket{endpoint="/search",le="0.001"} 4
banks_http_request_seconds_bucket{endpoint="/search",le="0.004"} 6
banks_http_request_seconds_bucket{endpoint="/search",le="+Inf"} 6
banks_http_request_seconds_bucket{endpoint="/node",le="0.001"} 1
banks_http_request_seconds_bucket{endpoint="/node",le="+Inf"} 1
banks_http_request_seconds_count{endpoint="/search"} 6
"#;

    const AFTER: &str = r#"banks_cache_hits_total 25
banks_http_queue_depth 0
banks_http_request_seconds_bucket{endpoint="/search",le="0.001"} 14
banks_http_request_seconds_bucket{endpoint="/search",le="0.004"} 26
banks_http_request_seconds_bucket{endpoint="/search",le="+Inf"} 26
banks_http_request_seconds_bucket{endpoint="/node",le="0.001"} 7
banks_http_request_seconds_bucket{endpoint="/node",le="+Inf"} 7
banks_http_request_seconds_count{endpoint="/search"} 26
banks_wal_fsync_total 5
"#;

    #[test]
    fn deltas_of_counters_and_buckets() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let d = Scrape::delta(&before, &after);
        assert_eq!(d.get("banks_cache_hits_total"), 15.0);
        // A family absent before the phase counts from zero.
        assert_eq!(d.get("banks_wal_fsync_total"), 5.0);
        assert_eq!(d.get("banks_not_installed_total"), 0.0);
        assert_eq!(
            d.get(r#"banks_http_request_seconds_count{endpoint="/search"}"#),
            20.0
        );
        // Gauges are read from one scrape, not differenced.
        assert_eq!(before.get("banks_http_queue_depth"), 3.0);
        let b = d.buckets("banks_http_request_seconds", r#"endpoint="/search""#);
        assert_eq!(b, vec![(0.001, 10.0), (0.004, 20.0), (f64::INFINITY, 20.0)]);
        let n = d.buckets("banks_http_request_seconds", r#"endpoint="/node""#);
        assert_eq!(n, vec![(0.001, 6.0), (f64::INFINITY, 6.0)]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let b = vec![(0.001, 10.0), (0.004, 20.0), (f64::INFINITY, 20.0)];
        assert_eq!(histogram_quantile(&b, 0.5), Some(0.001));
        let p75 = histogram_quantile(&b, 0.75).unwrap();
        assert!((p75 - 0.0025).abs() < 1e-12, "{p75}");
        assert_eq!(histogram_quantile(&b, 1.0), Some(0.004));
        let overflow = vec![(0.001, 1.0), (f64::INFINITY, 10.0)];
        assert_eq!(histogram_quantile(&overflow, 0.99), Some(0.001));
        assert_eq!(histogram_quantile(&[(f64::INFINITY, 0.0)], 0.5), None);
    }
}
