//! Pure helpers: percentiles from raw samples, the outcome classifier
//! shared by the in-process and the served paths, and small aggregates.

use ea_core::json::Json;
use ea_core::{BudgetPhase, PortfolioReport};

/// A percentile is printed only when at least this many samples lie beyond
/// it; fewer would make it a reading of one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of raw samples: the smallest sample such that at
/// least `p` of all samples are at or below it. Returns the value and the
/// number of samples strictly beyond its rank. `None` for no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The median of raw samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(0.0, |(v, _)| v)
}

/// Geometric mean; 0 for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What one operation came back with. `Ok` carries what the correctness
/// check compares bit for bit; the error classes carry the `kind`/`phase`
/// pair the daemon reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A mapping: its energy bits and the winning solver.
    Ok { energy_bits: u64, solver: String },
    /// `no_valid_mapping`: every solver failed (the paper's infeasible cases).
    Infeasible,
    /// `too_expensive` for a complexity cap (`enumerate`, `materialise`, …).
    TooExpensive { phase: String },
    /// `too_expensive` with phase `deadline`.
    Deadline,
    /// `overloaded`: shed by admission control.
    Overloaded,
    /// The socket failed or the frame did not parse.
    Transport,
    /// Any other error kind.
    Other { kind: String },
}

impl Outcome {
    /// Answered the request as the library would: a mapping, an infeasible
    /// verdict, or a complexity-cap verdict (at u = 0.3 the overflow flows
    /// come back as `too_expensive`/`enumerate`, which matches the library).
    pub fn answered(&self) -> bool {
        matches!(
            self,
            Outcome::Ok { .. } | Outcome::Infeasible | Outcome::TooExpensive { .. }
        )
    }

    /// Accounting bucket name.
    pub fn class(&self) -> &'static str {
        match self {
            Outcome::Ok { .. } => "ok",
            Outcome::Infeasible => "infeasible",
            Outcome::TooExpensive { .. } => "too_expensive",
            Outcome::Deadline => "deadline",
            Outcome::Overloaded => "overloaded",
            Outcome::Transport => "transport_error",
            Outcome::Other { .. } => "other_error",
        }
    }

    /// The energy of an `Ok` outcome.
    pub fn energy(&self) -> Option<f64> {
        match self {
            Outcome::Ok { energy_bits, .. } => Some(f64::from_bits(*energy_bits)),
            _ => None,
        }
    }
}

/// Accounting buckets, in print order.
pub const CLASSES: [&str; 7] = [
    "ok",
    "infeasible",
    "too_expensive",
    "deadline",
    "overloaded",
    "transport_error",
    "other_error",
];

/// Classifies a daemon response frame.
pub fn classify_response(resp: &Json) -> Outcome {
    if let Some(r) = resp.get("result") {
        return match (
            r.get("energy").and_then(Json::as_f64),
            r.get("solver").and_then(Json::as_str),
        ) {
            (Some(e), Some(s)) => Outcome::Ok {
                energy_bits: e.to_bits(),
                solver: s.to_string(),
            },
            _ => Outcome::Other {
                kind: "malformed_result".to_string(),
            },
        };
    }
    let err = resp.get("error");
    let kind = err.and_then(|e| e.get("kind")).and_then(Json::as_str);
    let phase = err.and_then(|e| e.get("phase")).and_then(Json::as_str);
    match (kind, phase) {
        (Some("no_valid_mapping"), _) => Outcome::Infeasible,
        (Some("too_expensive"), Some("deadline")) => Outcome::Deadline,
        (Some("too_expensive"), Some(p)) => Outcome::TooExpensive {
            phase: p.to_string(),
        },
        (Some("overloaded"), _) => Outcome::Overloaded,
        (Some(k), _) => Outcome::Other {
            kind: k.to_string(),
        },
        (None, _) => Outcome::Other {
            kind: "missing".to_string(),
        },
    }
}

/// Classifies an in-process portfolio report the way the daemon words it:
/// the best mapping if any, else a budget failure before any other failure.
pub fn classify_report(report: &PortfolioReport) -> Outcome {
    if let Some(run) = report.best_run() {
        let energy = run.energy().expect("best_run is a success");
        return Outcome::Ok {
            energy_bits: energy.to_bits(),
            solver: run.name.clone(),
        };
    }
    let errs: Vec<_> = report
        .runs
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    let failure = errs
        .iter()
        .find(|f| f.budget_exceeded().is_some())
        .or_else(|| errs.first());
    match failure.map(|f| f.budget_exceeded()) {
        Some(Some(b)) if b.phase == BudgetPhase::Deadline => Outcome::Deadline,
        Some(Some(b)) => Outcome::TooExpensive {
            phase: b.phase.name().to_string(),
        },
        Some(None) => Outcome::Infeasible,
        None => Outcome::Other {
            kind: "empty_portfolio".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::{Failure, SolverRun};
    use std::time::Duration;

    #[test]
    fn nearest_rank_picks_a_sample_and_counts_the_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.95), Some((190.0, 10)));
        assert_eq!(nearest_rank(&samples, 0.5), Some((100.0, 100)));
        assert_eq!(nearest_rank(&[7.0], 0.95), Some((7.0, 0)));
        assert_eq!(nearest_rank(&[3.0, 1.0], 0.0), Some((1.0, 1)));
        assert_eq!(nearest_rank(&[3.0, 1.0], 1.0), Some((3.0, 0)));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // 199 samples leave only 9 beyond p95: not enough to print it.
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(nearest_rank(&short, 0.95).unwrap().1 < MIN_BEYOND);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    fn frame(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn classifies_every_response_kind() {
        let ok = classify_response(&frame(
            r#"{"ok":true,"result":{"energy":0.5,"solver":"DPA1D","warm":true}}"#,
        ));
        assert_eq!(
            ok,
            Outcome::Ok {
                energy_bits: 0.5f64.to_bits(),
                solver: "DPA1D".into()
            }
        );
        let cases = [
            (
                r#"{"ok":false,"error":{"kind":"no_valid_mapping"}}"#,
                "infeasible",
                true,
            ),
            (
                r#"{"ok":false,"error":{"kind":"too_expensive","phase":"enumerate"}}"#,
                "too_expensive",
                true,
            ),
            (
                r#"{"ok":false,"error":{"kind":"too_expensive","phase":"deadline"}}"#,
                "deadline",
                false,
            ),
            (
                r#"{"ok":false,"error":{"kind":"overloaded"}}"#,
                "overloaded",
                false,
            ),
            (
                r#"{"ok":false,"error":{"kind":"bad_request"}}"#,
                "other_error",
                false,
            ),
            (
                r#"{"ok":true,"result":{"solver":"X"}}"#,
                "other_error",
                false,
            ),
        ];
        for (text, class, answered) in cases {
            let o = classify_response(&frame(text));
            assert_eq!(o.class(), class, "{text}");
            assert_eq!(o.answered(), answered, "{text}");
        }
        assert!(!Outcome::Transport.answered());
    }

    fn run(name: &str, result: Result<(), Failure>) -> SolverRun {
        SolverRun {
            name: name.into(),
            seed: 0,
            result: result.map(|_| unreachable!("failures only")),
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn report_classifier_puts_budget_failures_first() {
        let infeasible = || Err(Failure::NoValidMapping("too tight".into()));
        let report = |runs| PortfolioReport {
            runs,
            best: None,
            wall: Duration::ZERO,
        };
        let r = report(vec![
            run("Greedy", infeasible()),
            run(
                "DPA1D",
                Err(Failure::budget(BudgetPhase::Enumerate, 60_000, 60_001)),
            ),
        ]);
        assert_eq!(
            classify_report(&r),
            Outcome::TooExpensive {
                phase: "enumerate".into()
            }
        );
        let r = report(vec![
            run("Greedy", infeasible()),
            run("DPA2D", infeasible()),
        ]);
        assert_eq!(classify_report(&r), Outcome::Infeasible);
        let r = report(vec![run(
            "DPA1D",
            Err(Failure::budget(BudgetPhase::Deadline, 0, 0)),
        )]);
        assert_eq!(classify_report(&r), Outcome::Deadline);
    }
}
