//! Runs a solver portfolio on one instance and flattens the report into
//! the per-solver outcome rows the campaign tables consume.
//!
//! The heavy lifting lives in `ea_core::Portfolio`: the solvers fan out
//! over the available cores (they are independent, and the dynamic
//! programs dominate the wall time, so the portfolio finishes in roughly
//! the time of its slowest member), and the instance's shared
//! precomputation — most importantly `DPA1D`'s interned ideal lattice — is
//! computed once per instance instead of once per solver call.

use std::sync::Arc;
use std::time::Duration;

use ea_core::solvers::default_heuristics;
use ea_core::{Failure, Instance, Portfolio, Solver};

/// Outcome of one solver on one instance.
#[derive(Debug, Clone)]
pub struct SolverOutcome {
    /// The solver's display name (paper figure name).
    pub name: String,
    /// Its energy, or the failure reason.
    pub result: Result<f64, Failure>,
    /// Wall time of the solve call.
    pub wall: Duration,
}

impl SolverOutcome {
    /// The energy if the solver succeeded.
    pub fn energy(&self) -> Option<f64> {
        self.result.as_ref().ok().copied()
    }
}

/// The five paper heuristics at default configuration, in plot order — the
/// default solver set of every campaign.
pub fn default_solvers() -> Vec<Arc<dyn Solver>> {
    default_heuristics()
}

/// The display names of a solver set, in order (table headers).
pub fn solver_names(solvers: &[Arc<dyn Solver>]) -> Vec<String> {
    solvers.iter().map(|s| s.name().to_string()).collect()
}

/// Runs the given solvers on one instance in parallel; returns one outcome
/// per solver, in the given order.
pub fn run_portfolio(
    inst: &Instance,
    solvers: &[Arc<dyn Solver>],
    seed: u64,
) -> Vec<SolverOutcome> {
    Portfolio::new(solvers.to_vec())
        .seeded(seed)
        .run(inst)
        .runs
        .into_iter()
        .map(|r| SolverOutcome {
            name: r.name,
            result: r.result.map(|s| s.energy()),
            wall: r.wall,
        })
        .collect()
}

/// The minimum energy over the successful solvers, if any. NaN-safe: a
/// solver reporting a NaN energy loses to every finite value instead of
/// panicking the campaign.
pub fn best_energy(outcomes: &[SolverOutcome]) -> Option<f64> {
    outcomes
        .iter()
        .filter_map(SolverOutcome::energy)
        .min_by(|a, b| a.total_cmp(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_platform::Platform;
    use spg::chain;

    #[test]
    fn portfolio_runs_all_five() {
        let inst = Instance::new(chain(&[1e6; 5], &[1e3; 4]), Platform::paper(2, 2), 1.0);
        let solvers = default_solvers();
        let out = run_portfolio(&inst, &solvers, 0);
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
            ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"]
        );
        // Loose period: every heuristic should succeed on a small chain.
        for o in &out {
            assert!(o.result.is_ok(), "{} failed: {:?}", o.name, o.result);
        }
        assert!(best_energy(&out).unwrap() > 0.0);
    }

    #[test]
    fn best_energy_is_nan_safe() {
        let mk = |e: f64| SolverOutcome {
            name: "x".into(),
            result: Ok(e),
            wall: Duration::ZERO,
        };
        // A NaN outcome must not panic, and must lose to the finite value.
        assert_eq!(best_energy(&[mk(f64::NAN), mk(2.0)]), Some(2.0));
        assert!(best_energy(&[mk(f64::NAN)]).unwrap().is_nan());
        assert_eq!(best_energy(&[]), None);
    }
}
