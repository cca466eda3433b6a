//! Order statistics and the per-workload summary table.

/// Per-mille percentiles tried, highest first, when a sample is too
/// small for the one asked for.
const LADDER_PM: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// How many samples lie strictly beyond the `pm`-per-mille percentile
/// of `n` samples under the nearest-rank definition (rank `⌈pm·n/1000⌉`).
pub fn beyond(n: usize, pm: u32) -> usize {
    let rank = (n * pm as usize).div_ceil(1000);
    n - rank
}

/// The highest percentile (per mille, at most `cap_pm`) with at least
/// ten samples beyond it, or `None` when not even the median has.
pub fn highest_supported(n: usize, cap_pm: u32) -> Option<u32> {
    LADDER_PM
        .iter()
        .copied()
        .filter(|&pm| pm <= cap_pm)
        .find(|&pm| beyond(n, pm) >= 10)
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], pm: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * pm as usize).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// Sort a copy and take one percentile.
pub fn percentile(values: &[f64], pm: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pm)
}

/// One ladder step as run: its rate, the rate of reads it answered, its
/// read tail latency, and whether it met the limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    pub rate: f64,
    pub achieved: f64,
    pub tail_ms: f64,
    pub pass: bool,
}

/// The rate at which the read tail crosses `limit_ms`, from ladder steps
/// in ascending rate order: between the last passing step and the first
/// failing one, interpolated linearly in log rate against log tail. When
/// every step passes, the rate the top step answered; when the first
/// fails, its rate scaled down by how far its tail overshot.
pub fn crossing_rate(steps: &[StepResult], limit_ms: f64) -> f64 {
    let Some(j) = steps.iter().position(|s| !s.pass) else {
        return steps.last().map_or(0.0, |s| s.achieved);
    };
    let fail = steps[j];
    let over = fail.tail_ms.max(limit_ms);
    if j == 0 {
        return fail.rate * limit_ms / over;
    }
    let pass = steps[j - 1];
    let under = pass.tail_ms.clamp(f64::MIN_POSITIVE, limit_ms);
    let f = if over > under {
        ((limit_ms / under).ln() / (over / under).ln()).clamp(0.0, 1.0)
    } else {
        1.0
    };
    pass.rate * (fail.rate / pass.rate).powf(f)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, quartiles and count of a sample — one row of the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            q1: percentile_sorted(&sorted, 250),
            median: percentile_sorted(&sorted, 500),
            q3: percentile_sorted(&sorted, 750),
            n: sorted.len(),
        }
    }

    pub fn scalar(value: f64) -> Spread {
        Spread {
            q1: value,
            median: value,
            q3: value,
            n: 1,
        }
    }
}

/// One reported metric: its value plus the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Spread,
}

impl Metric {
    pub fn scalar(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: Spread::scalar(value),
        }
    }
}

/// Render metrics as a fixed-width text table (std only).
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let header = ["metric", "unit", "value", "median", "q1", "q3", "n"];
    let mut rows: Vec<[String; 7]> = vec![header.map(str::to_string)];
    for m in metrics {
        rows.push([
            m.name.to_string(),
            m.unit.to_string(),
            fmt(m.value),
            fmt(m.spread.median),
            fmt(m.spread.q1),
            fmt(m.spread.q3),
            m.spread.n.to_string(),
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let mut out = format!("{title}\n+{rule}+\n");
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .zip(widths)
            .enumerate()
            .map(|(c, (cell, w))| {
                if c < 2 {
                    format!(" {cell:<w$} ")
                } else {
                    format!(" {cell:>w$} ")
                }
            })
            .collect();
        out.push_str(&format!("|{}|\n", cells.join("|")));
        if i == 0 {
            out.push_str(&format!("+{rule}+\n"));
        }
    }
    out.push_str(&format!("+{rule}+\n"));
    out
}

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(highest_supported(1000, 990), Some(990));
        assert_eq!(highest_supported(999, 990), Some(950));
        assert_eq!(highest_supported(10_000, 999), Some(999));
        assert_eq!(highest_supported(10_000, 990), Some(990));
        assert_eq!(highest_supported(200, 990), Some(950));
        assert_eq!(highest_supported(20, 990), Some(500));
        assert_eq!(highest_supported(19, 990), None);
    }

    #[test]
    fn crossing_rate_interpolates_between_pass_and_fail() {
        let step = |rate, tail_ms, pass| StepResult {
            rate,
            achieved: rate * 0.9,
            tail_ms,
            pass,
        };
        // Tail 10 ms at 100 req/s, 1000 ms at 200 req/s, limit 100 ms:
        // half-way in log tail, so half-way in log rate.
        let steps = [step(100.0, 10.0, true), step(200.0, 1000.0, false)];
        let r = crossing_rate(&steps, 100.0);
        assert!((r - 100.0 * 2f64.sqrt()).abs() < 1e-9, "{r}");
        // Continuous across the pass/fail boundary of a step.
        let barely_fails = [step(100.0, 10.0, true), step(125.0, 100.001, false)];
        let barely_passes = [
            step(100.0, 10.0, true),
            step(125.0, 99.999, true),
            step(156.25, 10_000.0, false),
        ];
        let (a, b) = (
            crossing_rate(&barely_fails, 100.0),
            crossing_rate(&barely_passes, 100.0),
        );
        assert!(
            (a - 125.0).abs() < 0.01 && (b - 125.0).abs() < 0.01,
            "{a} {b}"
        );
        // Every step passes: the rate the top one answered. The first
        // fails: scaled down.
        assert_eq!(crossing_rate(&steps[..1], 100.0), 90.0);
        assert_eq!(crossing_rate(&[step(100.0, 400.0, false)], 100.0), 25.0);
        assert_eq!(crossing_rate(&[], 100.0), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(percentile(&v, 999), 999.0);
        // Exactly ten samples (991..=1000) lie beyond the p99.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 990)).count(), 10);
        assert_eq!(percentile(&[], 500), 0.0);
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 4));
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            "w",
            &[
                Metric::scalar("a", "ms", 1.5),
                Metric::scalar("longer_name", "count", 12.0),
            ],
        );
        let widths: Vec<usize> = t.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
        assert!(t.contains("longer_name"));
    }
}
