//! `benchmark compare <a.json> <b.json>`: reads two result files of the
//! full run and says, per end-to-end metric and workload, whether `b` is
//! better, the same, unresolved or worse than `a` by the benchmark's own
//! bounds; simulated counts are diffed exactly.

use crate::json::Json;
use crate::schema::{Better, EndToEnd, END_TO_END, PER_LAYER, SCHEMA_VERSION, WORKLOADS};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The runs' own spread is wider than the bound and the two sides'
    /// repetitions overlap: the data cannot say.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges `b` against the base `a` for one metric on one workload.
///
/// A median moved by more than the bound (and, for `setup_s`, by more
/// than its absolute floor) is a regression or an improvement; less is
/// unchanged. Either verdict needs data that can carry it: where a side's
/// min–max spread exceeds the bound, the verdict is `Unresolved` unless
/// every repetition of one side beats every repetition of the other.
/// Exact (simulated) metrics have no noise: any move counts.
pub fn verdict(metric: &EndToEnd, a: Summary, b: Summary) -> Verdict {
    // Orient so that larger is worse.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b.median - a.median);
    if metric.exact {
        return match worse_by {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    // Every repetition of both sides within the floor of every other:
    // nothing here can amount to a change, however noisy in proportion.
    if a.max.max(b.max) - a.min.min(b.min) <= metric.floor {
        return Verdict::Unchanged;
    }
    let moved = worse_by.abs() > metric.bound * a.median.abs() && worse_by.abs() > metric.floor;
    let noisy = a.spread() > metric.bound || b.spread() > metric.bound;
    let separated = b.min > a.max || b.max < a.min;
    match (moved, noisy && !separated) {
        (_, true) => Verdict::Unresolved,
        (false, false) => Verdict::Unchanged,
        (true, false) if worse_by > 0.0 => Verdict::Regressed,
        (true, false) => Verdict::Improved,
    }
}

fn metric_of(file: &Json, workload: &str, section: &str, name: &str) -> Option<Summary> {
    Summary::from_json(
        file.get("workloads")?
            .get(workload)?
            .get(section)?
            .get(name)?,
    )
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match file.get("schema").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION as f64 => Ok(file),
        other => Err(format!(
            "{path}: schema {other:?}, this benchmark reads schema {SCHEMA_VERSION}"
        )),
    }
}

/// What a comparison found, besides what it printed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Report {
    pub regressed: usize,
    pub unresolved: usize,
    pub counts_compared: usize,
    pub counts_changed: usize,
}

/// Compares two parsed result files, printing one row per end-to-end
/// metric and workload and one per changed count.
pub fn compare(a: &Json, b: &Json) -> Report {
    let mut report = Report::default();
    // Results are comparable only like for like; say so when they are not.
    for key in ["seed", "seconds", "host"] {
        if a.get(key) != b.get(key) {
            let side = |f: &Json| f.get(key).map_or("absent".into(), Json::render);
            println!("note: `{key}` differs: {} vs {}", side(a), side(b));
        }
    }
    println!(
        "{:<16} {:<17} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let sides = (
                metric_of(a, w.name, "end_to_end", m.name),
                metric_of(b, w.name, "end_to_end", m.name),
            );
            let (Some(sa), Some(sb)) = sides else {
                println!("{:<16} {:<17} missing on one side", w.name, m.name);
                continue;
            };
            let v = verdict(m, sa, sb);
            match v {
                Verdict::Regressed => report.regressed += 1,
                Verdict::Unresolved => report.unresolved += 1,
                _ => {}
            }
            let ratio = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            let rule = if m.exact {
                "exact".to_string()
            } else {
                format!("bound {:.0}%", m.bound * 100.0)
            };
            println!(
                "{:<16} {:<17} {:>14.6} {:>14.6} {:>9}  {} ({rule}, {})",
                w.name,
                m.name,
                sa.median,
                sb.median,
                ratio,
                v.as_str(),
                m.unit
            );
        }
    }
    for w in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.kind.exact()) {
            let sides = (
                metric_of(a, w.name, "per_layer", m.name),
                metric_of(b, w.name, "per_layer", m.name),
            );
            let (Some(sa), Some(sb)) = sides else {
                continue;
            };
            report.counts_compared += 1;
            if sa.median != sb.median {
                report.counts_changed += 1;
                println!(
                    "{:<16} {:<38} {} -> {}  changed",
                    w.name, m.name, sa.median, sb.median
                );
            }
        }
    }
    println!(
        "{} regressed, {} unresolved; {} of {} simulated counts changed",
        report.regressed, report.unresolved, report.counts_changed, report.counts_compared
    );
    report
}

/// The subcommand: exit code 1 on any regression, 2 on unreadable input.
pub fn main(a_path: &str, b_path: &str) -> i32 {
    match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => i32::from(compare(&a, &b).regressed > 0),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            min: median * 0.99,
            max: median * 1.01,
            n: 7,
        }
    }

    #[test]
    fn medians_within_the_bound_are_unchanged() {
        let wall = metric("wall_s");
        assert_eq!(verdict(wall, tight(2.0), tight(2.1)), Verdict::Unchanged);
        assert_eq!(verdict(wall, tight(2.0), tight(1.9)), Verdict::Unchanged);
    }

    #[test]
    fn medians_beyond_the_bound_regress_or_improve() {
        let wall = metric("wall_s");
        assert_eq!(verdict(wall, tight(2.0), tight(2.2)), Verdict::Regressed);
        assert_eq!(verdict(wall, tight(2.0), tight(1.8)), Verdict::Improved);
        // Higher is better for sim_delivered, and it is exact.
        let delivered = metric("sim_delivered");
        let exactly = |v| Summary::single(v);
        assert_eq!(
            verdict(delivered, exactly(2e6), exactly(2e6 - 1.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(delivered, exactly(2e6), exactly(2e6)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(delivered, exactly(2e6), exactly(2e6 + 1.0)),
            Verdict::Improved
        );
        let failed = metric("ops_failed_share");
        assert_eq!(
            verdict(failed, exactly(0.0), exactly(0.01)),
            Verdict::Regressed
        );
    }

    #[test]
    fn overlapping_noisy_runs_are_unresolved_not_unchanged() {
        let wall = metric("wall_s");
        let noisy = |median: f64| Summary {
            median,
            min: median * 0.9,
            max: median * 1.1,
            n: 7,
        };
        assert_eq!(verdict(wall, noisy(2.0), tight(2.05)), Verdict::Unresolved);
        assert_eq!(verdict(wall, tight(2.0), noisy(2.2)), Verdict::Unresolved);
        // Noisy, but every repetition of b beats every repetition of a.
        assert_eq!(verdict(wall, noisy(2.0), noisy(1.5)), Verdict::Improved);
        assert_eq!(verdict(wall, noisy(2.0), noisy(2.6)), Verdict::Regressed);
    }

    #[test]
    fn setup_needs_its_absolute_floor_too() {
        let setup = metric("setup_s");
        // +50 %, but 0.1 ms: below the 5 ms floor, noisy or not.
        assert_eq!(
            verdict(setup, tight(0.0002), tight(0.0003)),
            Verdict::Unchanged
        );
        let noisy = Summary {
            median: 0.0003,
            min: 0.0001,
            max: 0.0009,
            n: 25,
        };
        assert_eq!(verdict(setup, tight(0.0002), noisy), Verdict::Unchanged);
        // +20 % and 20 ms.
        assert_eq!(verdict(setup, tight(0.1), tight(0.12)), Verdict::Regressed);
        // +8 %: inside the 10 % bound whatever the size.
        assert_eq!(verdict(setup, tight(1.0), tight(1.08)), Verdict::Unchanged);
    }
}
