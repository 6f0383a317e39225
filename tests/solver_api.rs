//! Tests for the solver-session API (`Instance` / `Solver` /
//! `SolverRegistry` / `Portfolio`): portfolio determinism across execution
//! modes, registry round-trips, and equivalence of `DPA1D`'s skeleton
//! path and fresh per-period walk on the StreamIt suite.

use std::sync::Arc;

use spg::{streamit_workflow, STREAMIT_SPECS};
use spg_cmp::prelude::*;

/// A period that is tight-but-feasible for a workload on an 8-core budget.
fn period_for(g: &Spg) -> f64 {
    g.total_work() / (8.0 * 1e9)
}

/// The per-solver comparison key used by the determinism tests: name, seed,
/// and energy-or-failure text (wall times legitimately vary between runs).
fn signature(report: &PortfolioReport) -> Vec<(String, u64, Result<f64, String>)> {
    report
        .runs
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.seed,
                r.result
                    .as_ref()
                    .map(|s| s.energy())
                    .map_err(|e| e.to_string()),
            )
        })
        .collect()
}

/// Same seed ⇒ identical `PortfolioReport` (energies, failures, seeds, and
/// winner), whether the portfolio fans out over rayon or runs on one
/// thread, across the whole StreamIt suite.
#[test]
fn portfolio_is_deterministic_across_thread_modes() {
    let pf = Platform::paper(4, 4);
    for spec in STREAMIT_SPECS.iter().take(6) {
        let g = streamit_workflow(spec, 2011);
        let t = period_for(&g);
        let inst = Instance::new(g, pf.clone(), t);
        let par = Portfolio::heuristics().seeded(2011).run(&inst);
        let seq = Portfolio::heuristics()
            .seeded(2011)
            .parallel(false)
            .run(&inst);
        assert_eq!(
            signature(&par),
            signature(&seq),
            "{}: parallel vs sequential reports diverge",
            spec.name
        );
        assert_eq!(par.best, seq.best, "{}: winners diverge", spec.name);
        // And a rerun in the same mode reproduces exactly.
        let again = Portfolio::heuristics().seeded(2011).run(&inst);
        assert_eq!(signature(&par), signature(&again));
    }
}

/// Registry round-trip: every registered name resolves to a solver whose
/// `name()` is the key, case-insensitively, including through the
/// `refined:` combinator prefix.
#[test]
fn registry_roundtrip() {
    let reg = SolverRegistry::with_defaults();
    let names = reg.names();
    assert_eq!(
        names,
        ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D", "Exact"]
    );
    for name in names {
        assert_eq!(reg.get(name).unwrap().name(), name);
        assert_eq!(reg.get(&name.to_lowercase()).unwrap().name(), name);
        let refined = reg.get(&format!("refined:{name}")).unwrap();
        assert_eq!(refined.name(), format!("Refined({name})"));
    }
    assert!(reg.get("no-such-solver").is_none());
}

/// `DPA1D`'s two transition producers agree on the StreamIt suite: the
/// skeleton path and the fresh per-period walk return the same energy to
/// the bit (and the same dominance telemetry), or the same failure. The
/// skeleton leg solves inside a 2-point sweep, which marks its instance so
/// `DPA1D` builds and scans the skeleton; the fresh leg is a one-shot
/// solve on a separate instance, which never builds one.
#[test]
fn dpa1d_skeleton_path_equals_fresh_walk_on_streamit() {
    let pf = Platform::paper(4, 4);
    let dpa1d = solvers::Dpa1d::default();
    let mut compared = 0usize;
    let mut swept_on_skeleton = 0usize;
    // A mix of low-elevation (DPA1D-tractable) and high-elevation
    // (DPA1D-failing) workflows.
    for idx in [1usize, 6, 7, 8, 9, 12] {
        let spec = &STREAMIT_SPECS[idx - 1];
        let g = streamit_workflow(spec, 2011);
        let t = period_for(&g);
        let swept = Instance::new(g.clone(), pf.clone(), t);
        let mut report = PeriodSweep::over_periods(vec![Arc::new(dpa1d.clone())], vec![t, t])
            .seeded(2011)
            .run(&swept);
        let a = report.points.swap_remove(0).runs.swap_remove(0).result;
        if swept.cached_skeleton().is_some() {
            swept_on_skeleton += 1;
        }
        let fresh = Instance::new(g, pf.clone(), t);
        let b = dpa1d.solve(&fresh, &SolveCtx::new(2011));
        assert!(
            fresh.cached_skeleton().is_none(),
            "{}: a one-shot solve must take the fresh walk",
            spec.name
        );
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(
                    x.energy().to_bits(),
                    y.energy().to_bits(),
                    "{}: fresh walk diverges from the skeleton path",
                    spec.name
                );
                assert_eq!(x.prune, y.prune, "{}: telemetry diverges", spec.name);
                compared += 1;
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{}", spec.name),
            (a, b) => panic!(
                "{}: feasibility diverges (skeleton ok={}, fresh ok={})",
                spec.name,
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    assert!(compared >= 2, "the suite must exercise both producers");
    assert!(swept_on_skeleton >= 2, "the sweep leg must build skeletons");
}

/// The probed instance reuses its caches and the portfolio wins with a
/// finite, NaN-safe best energy.
#[test]
fn probe_portfolio_pipeline() {
    let g = spg::chain(&[1e8; 6], &[1e4; 5]);
    let base = Instance::new(g, Platform::paper(2, 2), 1.0);
    let inst = ea_bench::probe_instance(&base, 3).expect("feasible chain");
    let report = Portfolio::heuristics().seeded(3).run(&inst);
    let best = report.best_energy().expect("some solver succeeds");
    assert!(best.is_finite() && best > 0.0);
    // The winner really is the minimum over the successful runs.
    let min = report
        .runs
        .iter()
        .filter_map(|r| r.energy())
        .min_by(|a, b| a.total_cmp(b))
        .unwrap();
    assert_eq!(best, min);
}
