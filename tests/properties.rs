//! Randomized property tests on the core data structures and invariants,
//! spanning all crates. Each property runs over a deterministic family of
//! seeded random cases (no external property-testing framework: the
//! workspace builds offline, and seeded ChaCha draws give reproducible
//! failures — the failing seed is in the assertion message).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::ideal::{enumerate_ideals, is_ideal, ready_stages, IdealError};
use spg::{streamit_workflow, NodeSet, Spg, STREAMIT_SPECS};
use spg_cmp::prelude::*;

const CASES: u64 = 48;

/// One random SPG per case seed, sweeping size, elevation and CCR.
fn arb_spg(case: u64) -> Spg {
    let mut rng = ChaCha8Rng::seed_from_u64(0x05b6_0000 + case);
    let n = rng.gen_range(6usize..40);
    let e = rng
        .gen_range(1u32..8)
        .min(n.saturating_sub(2).max(1) as u32);
    let cfg = SpgGenConfig {
        n,
        elevation: e,
        ccr: Some([10.0, 1.0, 0.1][case as usize % 3]),
        ..Default::default()
    };
    spg::random_spg(&cfg, &mut rng)
}

/// Every generated SPG satisfies the structural invariants of §3.1:
/// unique source/sink, unique labels, x-monotone edges.
#[test]
fn generated_spgs_are_well_formed() {
    for case in 0..CASES {
        let g = arb_spg(case);
        assert!(g.check_invariants().is_ok(), "case {case}");
    }
}

/// Labels define the virtual grid: at most one stage per (x, y), and the
/// elevation / depth maxima are attained.
#[test]
fn labels_unique() {
    for case in 0..CASES {
        let g = arb_spg(case);
        let mut seen = std::collections::HashSet::new();
        for l in g.labels() {
            assert!(seen.insert((l.x, l.y)), "case {case}: duplicate label");
        }
        assert!(
            g.labels().iter().any(|l| l.y == g.elevation()),
            "case {case}"
        );
        assert!(g.labels().iter().any(|l| l.x == g.xmax()), "case {case}");
    }
}

/// The ideal lattice is downward-closed and bounded by Theorem 1's n^ymax
/// count.
#[test]
fn ideal_lattice_properties() {
    for case in 0..CASES {
        let g = arb_spg(case);
        let cap = 20_000usize;
        // The SP reduction counts the lattice exactly, whether or not it
        // fits the cap.
        let count = spg::recognize(&g).ideals;
        let lat = match enumerate_ideals(&g, cap) {
            Ok(lat) => lat,
            Err(IdealError::LimitExceeded { found, .. }) => {
                assert_eq!(count, Some(found as u64), "case {case}");
                continue;
            }
        };
        assert_eq!(count, Some(lat.len() as u64), "case {case}");
        // Theorem 1's bound (loose, but must hold).
        let bound = (g.n() as f64).powi(g.elevation() as i32) + 2.0;
        assert!(
            (lat.len() as f64) <= bound + 1.0,
            "case {case}: lattice {} exceeds n^ymax bound {}",
            lat.len(),
            bound
        );
        // Spot-check idealness of a sample.
        for ideal in lat.iter().step_by(1 + lat.len() / 50) {
            assert!(is_ideal(&g, ideal), "case {case}");
        }
        // Ready stages of the empty ideal = the source.
        let empty = NodeSet::new(g.n());
        let ready = ready_stages(&g, empty.as_set());
        assert_eq!(ready, vec![g.source()], "case {case}");
    }
}

/// The interned arena lattice enumerates exactly the same ideal family as
/// a naive reference (owned `NodeSet`s in a `HashSet`, cloning per
/// candidate — the pre-refactor algorithm) on small random SPGs, with no
/// duplicate arena entries.
#[test]
fn interned_lattice_matches_naive_reference() {
    use std::collections::{BTreeSet, HashSet};

    fn naive_ideals(g: &Spg) -> BTreeSet<Vec<usize>> {
        let mut seen: HashSet<NodeSet> = HashSet::new();
        let empty = NodeSet::new(g.n());
        let mut queue = vec![empty.clone()];
        seen.insert(empty);
        while let Some(cur) = queue.pop() {
            for s in ready_stages(g, cur.as_set()) {
                let mut next = cur.clone();
                next.insert(s.idx());
                if seen.insert(next.clone()) {
                    queue.push(next);
                }
            }
        }
        seen.into_iter().map(|s| s.iter().collect()).collect()
    }

    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1d3a_0000 + case);
        let n = rng.gen_range(4usize..16);
        let g = spg::generate::random_spg_free(n, &mut rng);
        let lat = enumerate_ideals(&g, 1_000_000).unwrap();
        let interned: BTreeSet<Vec<usize>> = lat.iter().map(|s| s.iter().collect()).collect();
        assert_eq!(
            lat.len(),
            interned.len(),
            "case {case}: duplicate ideals in the arena"
        );
        assert_eq!(interned, naive_ideals(&g), "case {case}");
        assert_eq!(
            spg::recognize(&g).ideals,
            Some(lat.len() as u64),
            "case {case}"
        );
    }
}

/// The SP reduction's ideal count equals the enumerated lattice size on
/// every StreamIt flow that fits `DPA1D`'s default cap, and is what the
/// over-cap flows report as their size.
#[test]
fn streamit_ideal_counts_match_enumeration() {
    let mut fitted = 0;
    for spec in &STREAMIT_SPECS {
        for seed in 0..5 {
            let g = streamit_workflow(spec, seed);
            let count = spg::recognize(&g).ideals.expect("StreamIt flows are SP");
            match enumerate_ideals(&g, 60_000) {
                Ok(lat) => {
                    assert_eq!(count, lat.len() as u64, "{} seed {seed}", spec.name);
                    fitted += 1;
                }
                Err(IdealError::LimitExceeded { found, .. }) => {
                    assert_eq!(count, found as u64, "{} seed {seed}", spec.name)
                }
            }
        }
    }
    assert_eq!(fitted, 35, "7 flows x 5 seeds fit the cap");
}

/// The overflow flows fail from the count, not from a streamed abort at
/// `cap + 1`: Vocoder's lattice holds ~1.2e14 ideals.
#[test]
fn overflow_flows_report_their_exact_lattice_size() {
    let spec = STREAMIT_SPECS.iter().find(|s| s.name == "Vocoder").unwrap();
    let inst = Instance::for_utilisation(streamit_workflow(spec, 0), Platform::paper(4, 4), 0.5);
    let err = inst.lattice(60_000).map(|sh| sh.lattice.len()).unwrap_err();
    assert_eq!(
        err,
        IdealError::LimitExceeded {
            cap: 60_000,
            found: 119_035_165_261_826
        }
    );
    assert_eq!(
        err.to_string(),
        "ideal lattice exceeds the cap of 60000 ideals (119035165261826 counted)"
    );
}

/// CCR rescaling hits the target exactly and leaves weights untouched.
#[test]
fn ccr_scaling_exact() {
    for case in 0..CASES {
        let mut g = arb_spg(case);
        let mut rng = ChaCha8Rng::seed_from_u64(0x0cc2_0000 + case);
        let target = rng.gen_range(0.05f64..100.0);
        let work = g.total_work();
        g.scale_to_ccr(target);
        assert!((g.ccr() - target).abs() / target < 1e-6, "case {case}");
        assert!((g.total_work() - work).abs() < 1e-6 * work, "case {case}");
    }
}

/// Every heuristic's accepted solution is a valid DAG-partition mapping
/// meeting the period, and no heuristic's reported energy disagrees with
/// the evaluator.
#[test]
fn heuristics_produce_valid_mappings() {
    for case in 0..CASES / 2 {
        let g = arb_spg(case);
        let seed = 0x09e1_0000 + case;
        let pf = Platform::paper(3, 3);
        // A fixed, reasonably tight period per instance: total work over
        // 4 cores at top speed.
        let t = g.total_work() / (4.0 * 1e9);
        let inst = Instance::new(g.clone(), pf.clone(), t);
        let report = Portfolio::heuristics().seeded(seed).run(&inst);
        for run in &report.runs {
            let name = &run.name;
            if let Ok(sol) = &run.result {
                let ev = evaluate(&g, &pf, &sol.mapping, t);
                assert!(ev.is_ok(), "case {case}: {name} invalid: {:?}", ev.err());
                let ev = ev.unwrap();
                assert!(
                    (ev.energy - sol.energy()).abs() <= 1e-9 * ev.energy,
                    "case {case}: {name} energy drift"
                );
                assert!(ev.max_cycle_time <= t * (1.0 + 1e-6), "case {case}: {name}");
            }
        }
    }
}

/// Snake and XY routes always have well-formed, cycle-free paths of the
/// expected lengths.
#[test]
fn routes_well_formed() {
    use cmp_platform::routing::{snake_core, snake_route, validate_route, xy_route};
    let mut rng = ChaCha8Rng::seed_from_u64(0x0020_77e5);
    for case in 0..CASES {
        let p = rng.gen_range(1u32..6);
        let q = rng.gen_range(1u32..6);
        let pf = Platform::paper(p, q);
        let r = pf.n_cores();
        let a = rng.gen_range(0usize..36) % r;
        let b = rng.gen_range(0usize..36) % r;
        let (ca, cb) = (snake_core(&pf, a), snake_core(&pf, b));
        let path = snake_route(&pf, a, b);
        assert_eq!(path.len(), a.abs_diff(b), "case {case}");
        assert!(validate_route(&pf, ca, cb, &path).is_ok(), "case {case}");
        for order in [RouteOrder::RowFirst, RouteOrder::ColFirst] {
            let path = xy_route(ca, cb, order);
            assert_eq!(path.len() as u32, ca.manhattan(cb), "case {case}");
            assert!(validate_route(&pf, ca, cb, &path).is_ok(), "case {case}");
        }
    }
}

/// Speed-selection invariants: `min_speed_for` returns the slowest feasible
/// speed; `best_speed_for` is the energy-optimal feasible speed. (They
/// differ on the XScale table — its P(s)/s is not monotone at the low end —
/// which is why the paper's minimum-speed rule is kept as a *faithfulness*
/// choice, not an optimality one.)
#[test]
fn speed_selection_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x005b_eed5);
    let pm = cmp_platform::PowerModel::xscale();
    for case in 0..CASES * 4 {
        let work = rng.gen_range(1e6f64..2e9);
        let t = rng.gen_range(1e-3f64..2.0);
        let Some(k) = pm.min_speed_for(work, t) else {
            continue;
        };
        // Slowest feasible: every slower speed is infeasible, k is feasible.
        assert!(work / pm.speed(k).freq <= t * (1.0 + 1e-9), "case {case}");
        for slower in 0..k {
            assert!(work / pm.speed(slower).freq > t, "case {case}");
        }
        // best_speed_for minimises energy among feasible speeds.
        let opt = pm.best_speed_for(work, t).unwrap();
        let best = pm.compute_energy(work, opt, t);
        for other in k..pm.m() {
            assert!(
                pm.compute_energy(work, other, t) >= best - 1e-12,
                "case {case}"
            );
        }
    }
}
