//! The request space every workload draws from, and the in-process solve
//! path with a timed span around each layer call.
//!
//! The space is the 12 StreamIt flows × utilisations {0.3, 0.5, 0.8} on
//! the paper's 4×4 mesh with the default five-heuristic portfolio. The
//! overflow flows (Beamformer, ChannelVocoder, Filterbank, FMRadio,
//! Vocoder) stay in: their re-enumeration is the honest worst case.

use std::time::{Duration, Instant};

use cmp_platform::{Platform, RoutePolicy};
use ea_core::json::{obj, Json};
use ea_core::{Dpa1dConfig, Instance, Portfolio, PortfolioReport};
use spg::streamit::{streamit_workflow, StreamItSpec, STREAMIT_SPECS};

use crate::stats::{classify_report, Outcome};

/// Target utilisations of the space.
pub const UTILISATIONS: [f64; 3] = [0.3, 0.5, 0.8];

/// Number of (flow, utilisation) pairs: one pass of a workload.
pub const PASS: usize = STREAMIT_SPECS.len() * UTILISATIONS.len();

/// Solver names in portfolio order, as `SolverRun::name` spells them.
pub const SOLVERS: [&str; 5] = ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"];

/// One point of the space.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub spec: &'static StreamItSpec,
    pub u: f64,
}

/// Pair `k` of the space (flow-major).
pub fn pair(k: usize) -> Pair {
    Pair {
        spec: &STREAMIT_SPECS[k / UTILISATIONS.len()],
        u: UTILISATIONS[k % UTILISATIONS.len()],
    }
}

/// The paper's 4×4 mesh with XY routing (the daemon's default platform).
pub fn platform() -> Platform {
    Platform::paper(4, 4)
}

/// The seed-fixed order of pass `p`: a permutation of the space's pair
/// indices, interleaving flows and utilisations. The shuffle draws from
/// SplitMix64, so the order depends on the workload seed alone.
pub fn pass_order(seed: u64, p: u64) -> Vec<usize> {
    let mut state = seed ^ p.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..PASS).collect();
    for i in (1..PASS).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// The serve `solve` frame for one request: the pair, the flow's weight
/// seed, and the portfolio seed.
pub fn solve_frame(pair: Pair, wseed: u64, seed: u64) -> Json {
    obj([
        ("op", Json::from("solve")),
        (
            "workload",
            obj([
                ("streamit", Json::from(pair.spec.name)),
                ("seed", Json::from(wseed)),
            ]),
        ),
        ("utilisation", Json::from(pair.u)),
        ("seed", Json::from(seed)),
    ])
}

/// A cold in-process reference: `Portfolio::run` on a fresh instance.
pub fn reference(pair: Pair, wseed: u64, seed: u64) -> (Instance, PortfolioReport) {
    let inst = Instance::for_utilisation(streamit_workflow(pair.spec, wseed), platform(), pair.u);
    let report = Portfolio::heuristics().seeded(seed).run(&inst);
    (inst, report)
}

/// Pool workers: `RAYON_NUM_THREADS` if set, else the machine's
/// available parallelism.
pub fn pool_workers() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The spans of one traced in-process solve. The top-level spans run one
/// after another inside `wall`; the solver spans are children of
/// `portfolio` and run concurrently on the pool.
#[derive(Debug, Clone, Default)]
pub struct SolveSpans {
    pub generate: Duration,
    pub instance: Duration,
    pub lattice: Duration,
    pub lattice_ok: bool,
    pub skeleton: Duration,
    pub route: Duration,
    pub portfolio: Duration,
    pub solvers: [Duration; 5],
    pub solver_failed: [bool; 5],
    pub evaluate: Duration,
    pub wall: Duration,
}

impl SolveSpans {
    /// The time an in-process `Portfolio::run` on an instance in this
    /// state takes: the lazily built artifacts plus the solvers.
    pub fn solve_time(&self) -> Duration {
        self.lattice + self.skeleton + self.route + self.portfolio
    }

    /// Sum of the top-level spans (their self times: they do not overlap).
    pub fn covered(&self) -> Duration {
        self.generate
            + self.instance
            + self.lattice
            + self.skeleton
            + self.route
            + self.portfolio
            + self.evaluate
    }
}

/// What a traced solve returns: its spans, outcome, the instance (for the
/// lower bound and the warm donor), and whether the best mapping
/// re-evaluated to the same energy bits within the period.
pub struct TracedSolve {
    pub spans: SolveSpans,
    pub outcome: Outcome,
    pub inst: Instance,
    pub mapping_ok: bool,
}

/// Seeds `inst` with whatever artifacts `donor` holds, the way the daemon
/// seeds a request from its cache: lattice, complete or bounded skeleton,
/// and the platform-policy route table.
fn seed_from(inst: &Instance, donor: &Instance) {
    if let Some(l) = donor.cached_lattice() {
        inst.seed_lattice(l);
    }
    if let Some(s) = donor
        .cached_skeleton()
        .or_else(|| donor.cached_bounded_skeleton())
    {
        inst.seed_skeleton(s);
    }
    let policy = inst.platform().policy;
    if let Some(r) = donor.cached_route_table(policy) {
        inst.seed_route_table(policy, r);
    }
}

fn timed<T>(span: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *span = t.elapsed();
    out
}

/// One in-process solve with a span around each layer call: generate the
/// flow, build (and optionally warm-seed) the instance, enumerate the
/// lattice, build the skeleton and route tables, run the portfolio, and
/// re-evaluate the winning mapping.
pub fn traced_solve(pair: Pair, wseed: u64, seed: u64, donor: Option<&Instance>) -> TracedSolve {
    let mut s = SolveSpans::default();
    let t0 = Instant::now();
    let g = timed(&mut s.generate, || streamit_workflow(pair.spec, wseed));
    let inst = timed(&mut s.instance, || {
        let inst = Instance::for_utilisation(g, platform(), pair.u);
        if let Some(d) = donor {
            seed_from(&inst, d);
        }
        inst
    });
    let cfg = Dpa1dConfig::default();
    s.lattice_ok = timed(&mut s.lattice, || inst.lattice(cfg.ideal_cap).is_ok());
    if s.lattice_ok {
        timed(&mut s.skeleton, || {
            let _ = inst.transition_skeleton(&cfg);
        });
    }
    timed(&mut s.route, || {
        inst.route_table(inst.platform().policy);
        inst.route_table(RoutePolicy::Snake);
    });
    let report = timed(&mut s.portfolio, || {
        Portfolio::heuristics().seeded(seed).run(&inst)
    });
    for run in &report.runs {
        if let Some(i) = SOLVERS.iter().position(|n| *n == run.name) {
            s.solvers[i] = run.wall;
            s.solver_failed[i] = run.result.is_err();
        }
    }
    let mapping_ok = match report.best_solution() {
        Some(sol) => timed(&mut s.evaluate, || mapping_matches(&inst, sol)),
        None => true,
    };
    s.wall = t0.elapsed();
    TracedSolve {
        outcome: classify_report(&report),
        spans: s,
        inst,
        mapping_ok,
    }
}

/// Re-evaluates a returned mapping on its instance: the energy must match
/// bit for bit and every cycle time must meet the period.
pub fn mapping_matches(inst: &Instance, sol: &ea_core::Solution) -> bool {
    match inst.evaluate_mapping(&sol.mapping) {
        Ok(ev) => {
            ev.energy.to_bits() == sol.energy().to_bits()
                && ev.max_cycle_time <= inst.period() * (1.0 + cmp_mapping::REL_TOL)
        }
        Err(_) => false,
    }
}

/// Whether each flow's ideal lattice exceeds `DPA1D`'s ideal cap. The
/// lattice depends on the flow's shape only, not on its weights.
pub fn overflow_flows() -> Vec<bool> {
    let cap = Dpa1dConfig::default().ideal_cap;
    STREAMIT_SPECS
        .iter()
        .map(|spec| {
            Instance::new(streamit_workflow(spec, 0), platform(), 1.0)
                .lattice(cap)
                .is_err()
        })
        .collect()
}

/// Per-layer sums over many traced solves.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub ops: usize,
    pub spans: SolveSpans,
    pub lattice_ok: usize,
    pub solver_failed: [usize; 5],
    pub busy: Duration,
    pub capacity: Duration,
}

impl LayerTotals {
    pub fn add(&mut self, s: &SolveSpans) {
        self.ops += 1;
        let t = &mut self.spans;
        t.generate += s.generate;
        t.instance += s.instance;
        t.lattice += s.lattice;
        t.skeleton += s.skeleton;
        t.route += s.route;
        t.portfolio += s.portfolio;
        t.evaluate += s.evaluate;
        t.wall += s.wall;
        self.lattice_ok += s.lattice_ok as usize;
        for i in 0..SOLVERS.len() {
            t.solvers[i] += s.solvers[i];
            self.solver_failed[i] += s.solver_failed[i] as usize;
        }
        self.busy += s.solvers.iter().sum::<Duration>();
        self.capacity += s.portfolio * pool_workers() as u32;
    }

    /// Mean milliseconds per operation of a summed span.
    fn mean_ms(&self, total: Duration) -> f64 {
        total.as_secs_f64() * 1e3 / self.ops.max(1) as f64
    }

    /// The per-layer metrics of the in-process layers.
    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let t = &self.spans;
        let mut put = |name: &str, v: f64, unit| out.push((name.to_string(), v, unit));
        put("spg.generate_ms", self.mean_ms(t.generate), "ms");
        put("instance.lattice_ms", self.mean_ms(t.lattice), "ms");
        put(
            "instance.lattice_useful_ratio",
            self.lattice_ok as f64 / self.ops.max(1) as f64,
            "ratio",
        );
        put("instance.skeleton_ms", self.mean_ms(t.skeleton), "ms");
        put("instance.route_ms", self.mean_ms(t.route), "ms");
        for (i, name) in SOLVERS.iter().enumerate() {
            let key = name.to_lowercase();
            put(
                &format!("solver.{key}_ms"),
                self.mean_ms(t.solvers[i]),
                "ms",
            );
            put(
                &format!("solver.{key}_failed"),
                self.solver_failed[i] as f64 / self.ops.max(1) as f64,
                "ratio",
            );
        }
        put("portfolio.ms", self.mean_ms(t.portfolio), "ms");
        put(
            "pool.busy_ratio",
            self.busy.as_secs_f64() / self.capacity.as_secs_f64().max(1e-12),
            "ratio",
        );
        put("mapping.evaluate_ms", self.mean_ms(t.evaluate), "ms");
    }
}
