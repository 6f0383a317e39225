//! `offline-suite`: one in-process caller cycling the 36 (flow, u) pairs,
//! building a fresh instance and running the portfolio per operation, the
//! way `xp fig8` and `campaign` do. No serve layer is on this path.

use std::time::{Duration, Instant};

use cmp_platform::Platform;
use ea_core::{Instance, Portfolio, Solution};
use spg::streamit::{streamit_workflow, STREAMIT_SPECS};

use crate::space::{
    mapping_matches, pair, pass_order, platform, traced_solve, LayerTotals, PASS, UTILISATIONS,
};
use crate::stats::{classify_report, median};
use crate::{Args, Finish, OpRec};

/// Set-up repeats for this long and reports the median repetition: one
/// repetition takes about a millisecond, and the speed of a shared machine
/// swings over seconds, so a short burst of repetitions reads one swing.
const SETUP_SPAN: Duration = Duration::from_secs(3);

/// Set-up: generate the seed's 12 workflows, derive the 36 instances, and
/// start the pool with one portfolio run on a tiny chain.
fn setup_once(seed: u64) -> Duration {
    let t = Instant::now();
    let flows: Vec<_> = STREAMIT_SPECS
        .iter()
        .map(|s| streamit_workflow(s, seed))
        .collect();
    let insts: Vec<Instance> = flows
        .iter()
        .flat_map(|g| {
            UTILISATIONS
                .iter()
                .map(|&u| Instance::for_utilisation(g.clone(), platform(), u))
        })
        .collect();
    let tiny = Instance::new(spg::chain(&[1e8; 4], &[1e3; 3]), Platform::paper(2, 2), 1.0);
    let report = Portfolio::heuristics().seeded(seed).run(&tiny);
    std::hint::black_box((insts, report));
    t.elapsed()
}

pub fn run(args: &Args) -> Result<Finish, String> {
    let seed = args.seed;
    let mut setups = Vec::new();
    let t = Instant::now();
    while t.elapsed() < SETUP_SPAN {
        setups.push(setup_once(seed).as_secs_f64());
    }

    let mut ops: Vec<OpRec> = Vec::new();
    let mut kept: Vec<(usize, Option<Solution>)> = Vec::new();
    let mut layers = LayerTotals::default();
    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut p = 0u64;
    // Whole passes only, so every run measures the same pair mix; a traced
    // run alternates untraced and traced passes and needs one of each.
    while Instant::now() < deadline || (args.trace && p < 2) {
        let traced = args.trace && p % 2 == 1;
        for k in pass_order(seed, p) {
            let pr = pair(k);
            let t0 = Instant::now();
            if traced {
                let ts = traced_solve(pr, seed, seed, None);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                layers.add(&ts.spans);
                let ratio = ts
                    .outcome
                    .energy()
                    .map(|e| e / ts.inst.energy_lower_bound());
                let mut op = OpRec::new(k, ms, ts.outcome, true);
                op.mismatch = !ts.mapping_ok;
                op.ratio = ratio;
                ops.push(op);
                kept.push((k, None));
            } else {
                let g = streamit_workflow(pr.spec, seed);
                let inst = Instance::for_utilisation(g, platform(), pr.u);
                let mut report = Portfolio::heuristics().seeded(seed).run(&inst);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let outcome = classify_report(&report);
                let sol = report
                    .best
                    .and_then(|i| report.runs.swap_remove(i).result.ok());
                ops.push(OpRec::new(k, ms, outcome, false));
                kept.push((k, sol));
            }
        }
        p += 1;
    }
    let elapsed = start.elapsed();
    let rss_mb = crate::peak_rss_mb(None);

    // Correctness: every returned mapping re-evaluates to the same energy
    // bits on a fresh instance of its pair, within the period.
    let mut fresh: Vec<Option<Instance>> = (0..PASS).map(|_| None).collect();
    for (op, (k, sol)) in ops.iter_mut().zip(&kept) {
        let Some(sol) = sol else { continue };
        let inst = fresh[*k].get_or_insert_with(|| {
            let pr = pair(*k);
            Instance::for_utilisation(streamit_workflow(pr.spec, seed), platform(), pr.u)
        });
        op.mismatch = !mapping_matches(inst, sol);
        op.ratio = Some(sol.energy() / inst.energy_lower_bound());
    }

    let mut layer_metrics = Vec::new();
    layers.metrics(&mut layer_metrics);
    Ok(Finish {
        setup_s: median(&setups),
        elapsed,
        ops,
        rss_mb,
        layer_metrics,
        coverage: layers.spans.covered().as_secs_f64() / layers.spans.wall.as_secs_f64().max(1e-12),
    })
}
