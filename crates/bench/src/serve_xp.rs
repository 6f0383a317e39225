//! The serve benchmark: warm-vs-cold latency through a live daemon.
//!
//! Boots an `ea_core::serve::Server` on a TCP loopback socket, then drives
//! it with one serialized client over the full StreamIt suite (Table 1):
//! for each flow, one **cold** solve (artifact cache empty for its
//! fingerprints) followed by [`WARM_ROUNDS`] **warm** repeats of the very
//! same request. The serialized, fixed request order makes every cache
//! counter deterministic, so `BENCH_serve.json` can gate on energies,
//! warm/cold equality, cache hit/miss/eviction counts, and the scheduler
//! counters while latencies stay advisory (time units are
//! machine-dependent).
//!
//! A second phase measures the batched scheduler against per-request
//! dispatch: [`THROUGHPUT_CLIENTS`] concurrent closed-loop clients replay
//! the suite against a batching daemon and a `batching: false` daemon.
//! Identical concurrent requests are deduplicated single-flight by the
//! scheduler, so the batched daemon does a fraction of the solve work for
//! the same answers — per-flow energies are asserted bit-identical across
//! clients, rounds, *and* modes before the speedup is reported. The
//! speedup itself advises (walls are machine-dependent); the
//! `serve/batched_throughput_ok` bit (speedup ≥ [`THROUGHPUT_TARGET`])
//! and the energy-equality count gate.
//!
//! The energies double as an end-to-end check that the service reproduces
//! the library: each flow solves at utilisation 0.5 on the paper's 4×4
//! platform, i.e. the same `W / (0.5 · 16 · f_max)` period the offline
//! `energy/` benchmarks use.
//!
//! [`load_gen`] is the reusable closed-loop load generator behind
//! `xp serve-bench --clients N --requests M`: it drives an *external*
//! daemon (Unix socket or TCP), measures client-side latency percentiles
//! and throughput, tolerates `overloaded` shed frames, and snapshots the
//! daemon's `stats` for the artifact CI uploads.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use ea_core::json::{fmt_f64, obj, Json};
use ea_core::serve::{Client, LatencyHistogram, ServeConfig, Server};
use spg::STREAMIT_SPECS;

use crate::report::{fmt_table, median};

/// Warm repeats per flow after the cold solve.
pub const WARM_ROUNDS: usize = 3;

/// Utilisation every request solves at (matches the offline `energy/`
/// benchmarks' `W / 8e9` period on the paper's 4×4 platform).
pub const UTILISATION: f64 = 0.5;

/// Concurrent closed-loop clients in the throughput phase.
pub const THROUGHPUT_CLIENTS: usize = 8;

/// Suite replays per client in the throughput phase. Each round uses a
/// distinct seed, so every `(flow, round)` pair is a fresh cold solve —
/// the honest setting for measuring single-flight deduplication (warm
/// repeats would be cheap in *both* modes).
pub const THROUGHPUT_ROUNDS: u64 = 2;

/// The acceptance bar: batched throughput over per-request dispatch.
pub const THROUGHPUT_TARGET: f64 = 2.0;

/// One flow's trip through the daemon.
pub struct FlowServe {
    /// StreamIt flow name (Table 1).
    pub workflow: &'static str,
    /// Best energy of the cold solve (`None` when no heuristic found a
    /// valid mapping).
    pub cold_energy: Option<f64>,
    /// Best energy of the warm repeats (all repeats agree by
    /// construction; asserted during the run).
    pub warm_energy: Option<f64>,
    /// Whether the final repeat reported `warm: true` (all three artifact
    /// fingerprints hit; flows whose lattice overflows the ideal cap
    /// legitimately stay cold).
    pub warm_flag: bool,
    /// Server-side wall time of the cold solve, milliseconds.
    pub cold_ms: f64,
    /// Median server-side wall time of the warm repeats, milliseconds.
    pub warm_ms: f64,
}

impl FlowServe {
    /// Warm and cold agree bit-for-bit (including agreeing to fail).
    pub fn equal(&self) -> bool {
        self.cold_energy == self.warm_energy
    }
}

/// A latency summary parsed back out of the daemon's `stats` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Recorded requests.
    pub count: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// 50th percentile, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, milliseconds.
    pub p999_ms: f64,
    /// Exact maximum, milliseconds.
    pub max_ms: f64,
}

/// Scheduler counters parsed back out of the daemon's `stats` response.
/// Under the serialized request stream of the warm/cold phase these are
/// fully deterministic (every solve is its own batch of one), so they
/// gate alongside the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedCounters {
    /// Batches the scheduler thread drained.
    pub batches: f64,
    /// Solve requests routed through those batches.
    pub batched_requests: f64,
    /// Requests answered by another request's solve (single-flight).
    pub deduped: f64,
    /// Requests shed at enqueue by admission control.
    pub shed: f64,
}

/// The batched-vs-per-request throughput comparison:
/// [`THROUGHPUT_CLIENTS`] concurrent closed-loop clients replaying the
/// StreamIt suite for [`THROUGHPUT_ROUNDS`] cold rounds against each
/// daemon mode. Walls are machine-dependent (advisory); the energy
/// equality count and the `speedup ≥` [`THROUGHPUT_TARGET`] bit gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputBench {
    /// Concurrent clients per mode.
    pub clients: usize,
    /// Suite replays per client.
    pub rounds: usize,
    /// Total requests per mode (`clients · rounds · suite`).
    pub requests: usize,
    /// Wall time of the batching daemon, seconds.
    pub batched_wall_s: f64,
    /// Wall time of the `batching: false` daemon, seconds.
    pub unbatched_wall_s: f64,
    /// Requests the batched daemon answered single-flight.
    pub deduped: f64,
    /// Batches the batched daemon's scheduler drained.
    pub batches: f64,
    /// `(flow, round)` keys whose energies were bit-identical across all
    /// clients and both modes (the run errors out otherwise, so on
    /// success this equals `rounds · suite`).
    pub flows_equal: usize,
}

impl ThroughputBench {
    /// Requests per second through the batching daemon.
    pub fn batched_rps(&self) -> f64 {
        if self.batched_wall_s > 0.0 {
            self.requests as f64 / self.batched_wall_s
        } else {
            0.0
        }
    }

    /// Requests per second through the per-request daemon.
    pub fn unbatched_rps(&self) -> f64 {
        if self.unbatched_wall_s > 0.0 {
            self.requests as f64 / self.unbatched_wall_s
        } else {
            0.0
        }
    }

    /// Batched throughput over per-request throughput (1.0 when
    /// degenerate).
    pub fn speedup(&self) -> f64 {
        if self.batched_wall_s > 0.0 && self.unbatched_wall_s > 0.0 {
            self.unbatched_wall_s / self.batched_wall_s
        } else {
            1.0
        }
    }

    /// Whether the run cleared [`THROUGHPUT_TARGET`].
    pub fn meets_target(&self) -> bool {
        self.speedup() >= THROUGHPUT_TARGET
    }
}

/// Everything the serve benchmark measures.
pub struct ServeBench {
    /// Per-flow cold/warm results, suite order.
    pub flows: Vec<FlowServe>,
    /// Daemon-side distribution over solves whose artifacts all hit.
    pub warm: LatencySummary,
    /// Daemon-side distribution over every other solve.
    pub cold: LatencySummary,
    /// Artifact-cache lookup hits.
    pub cache_hits: f64,
    /// Artifact-cache lookup misses.
    pub cache_misses: f64,
    /// Artifacts evicted to respect the byte bound.
    pub cache_evictions: f64,
    /// Live cache entries at shutdown.
    pub cache_entries: f64,
    /// Live cache bytes at shutdown.
    pub cache_bytes: f64,
    /// Scheduler counters of the serialized warm/cold phase.
    pub sched: SchedCounters,
    /// The concurrent batched-vs-per-request comparison.
    pub throughput: ThroughputBench,
}

impl ServeBench {
    /// How many flows solved warm with bit-identical energy.
    pub fn warm_cold_equal(&self) -> usize {
        self.flows.iter().filter(|f| f.equal()).count()
    }

    /// Mean cold latency over mean warm latency (1.0 when degenerate).
    pub fn warm_speedup(&self) -> f64 {
        if self.warm.mean_ms > 0.0 && self.cold.mean_ms > 0.0 {
            self.cold.mean_ms / self.warm.mean_ms
        } else {
            1.0
        }
    }
}

fn num(j: &Json, outer: &str, inner: &str) -> Result<f64, String> {
    j.get(outer)
        .and_then(|o| o.get(inner))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("stats response missing {outer}.{inner}"))
}

fn summary(stats: &Json, which: &str) -> Result<LatencySummary, String> {
    Ok(LatencySummary {
        count: num(stats, which, "count")?,
        mean_ms: num(stats, which, "mean_ms")?,
        p50_ms: num(stats, which, "p50_ms")?,
        p99_ms: num(stats, which, "p99_ms")?,
        p999_ms: num(stats, which, "p999_ms")?,
        max_ms: num(stats, which, "max_ms")?,
    })
}

fn sched_counters(stats: &Json) -> Result<SchedCounters, String> {
    Ok(SchedCounters {
        batches: num(stats, "scheduler", "batches")?,
        batched_requests: num(stats, "scheduler", "batched_requests")?,
        deduped: num(stats, "scheduler", "deduped")?,
        shed: num(stats, "scheduler", "shed")?,
    })
}

fn solve_request(workflow: &str, seed: u64) -> Json {
    obj([
        ("op", Json::from("solve")),
        (
            "workload",
            obj([
                ("streamit", Json::from(workflow)),
                ("seed", Json::from(seed)),
            ]),
        ),
        ("utilisation", Json::from(UTILISATION)),
        ("seed", Json::from(seed)),
    ])
}

/// Runs the daemon benchmark: the serialized warm/cold phase, then the
/// concurrent batched-vs-per-request throughput phase. Errors are strings
/// (socket failures, protocol surprises, an energy divergence across
/// clients or modes) — the caller decides whether they are soft or fatal.
pub fn serve_bench(seed: u64) -> Result<ServeBench, String> {
    let mut bench = serialized_phase(seed)?;
    bench.throughput = throughput_bench(seed)?;
    Ok(bench)
}

/// Boots a daemon with `cfg` on a loopback TCP port, runs `clients`
/// against its address, then stops and joins it. The wire `shutdown` a
/// client sends only fires on its success path, so the flag is flipped
/// here unconditionally: a connect/request/stats error still stops the
/// daemon instead of leaving the join blocked forever. A daemon error
/// (the accept loop failed, or its thread panicked) wins over the
/// clients' result.
fn with_loopback_daemon<T>(
    cfg: ServeConfig,
    clients: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<T, String> {
    let server = Server::bind_tcp("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or_else(|| "server has no local address".to_string())?;
    let service = server.service();
    let handle = std::thread::spawn(move || server.run());
    let run = clients(addr);
    service.request_shutdown();
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server exited with error: {e}")),
        Err(_) => return Err("server thread panicked".to_string()),
    }
    run
}

/// The serialized warm/cold phase: boot, drive the suite with one client,
/// read `stats`, shut down, join.
fn serialized_phase(seed: u64) -> Result<ServeBench, String> {
    with_loopback_daemon(ServeConfig::default(), |addr| {
        let mut client = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        let mut flows = Vec::with_capacity(STREAMIT_SPECS.len());
        for spec in &STREAMIT_SPECS {
            let req = solve_request(spec.name, seed);
            let ask = |client: &mut Client| -> Result<(Option<f64>, bool, f64), String> {
                let resp = client
                    .request(&req)
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                if let Some(err) = resp.get("error") {
                    let kind = err.get("kind").and_then(Json::as_str).unwrap_or("?");
                    if kind != "no_valid_mapping" {
                        return Err(format!("{}: unexpected error kind {kind}", spec.name));
                    }
                    return Ok((None, false, 0.0));
                }
                let r = resp
                    .get("result")
                    .ok_or_else(|| format!("{}: response has no result", spec.name))?;
                let energy = r.get("energy").and_then(Json::as_f64);
                let warm = r.get("warm").and_then(Json::as_bool).unwrap_or(false);
                let wall = r.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                Ok((energy, warm, wall))
            };
            let (cold_energy, cold_warm, cold_ms) = ask(&mut client)?;
            if cold_warm {
                return Err(format!("{}: first solve claimed to be warm", spec.name));
            }
            let mut warm_energy = None;
            let mut warm_flag = false;
            let mut warm_walls = Vec::with_capacity(WARM_ROUNDS);
            for round in 0..WARM_ROUNDS {
                let (energy, warm, wall) = ask(&mut client)?;
                if round > 0 && energy != warm_energy {
                    return Err(format!("{}: warm repeats disagree", spec.name));
                }
                warm_energy = energy;
                warm_flag = warm;
                warm_walls.push(wall);
            }
            flows.push(FlowServe {
                workflow: spec.name,
                cold_energy,
                warm_energy,
                warm_flag,
                cold_ms,
                warm_ms: median(warm_walls).unwrap_or(0.0),
            });
        }
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let stats = stats
            .get("result")
            .cloned()
            .ok_or_else(|| "stats response has no result".to_string())?;
        let bench = ServeBench {
            flows,
            warm: summary(&stats, "warm")?,
            cold: summary(&stats, "cold")?,
            cache_hits: num(&stats, "cache", "hits")?,
            cache_misses: num(&stats, "cache", "misses")?,
            cache_evictions: num(&stats, "cache", "evictions")?,
            cache_entries: num(&stats, "cache", "entries")?,
            cache_bytes: num(&stats, "cache", "bytes")?,
            sched: sched_counters(&stats)?,
            throughput: ThroughputBench::default(),
        };
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(bench)
    })
}

/// One daemon mode's throughput run: per-`(flow, round)` energy bits
/// (asserted identical across clients while merging), wall time, and the
/// scheduler counters.
struct ModeRun {
    energies: BTreeMap<(String, u64), Option<u64>>,
    wall_s: f64,
    sched: SchedCounters,
}

fn throughput_mode(seed: u64, batching: bool) -> Result<ModeRun, String> {
    let cfg = ServeConfig {
        batching,
        ..ServeConfig::default()
    };
    with_loopback_daemon(cfg, |addr| {
        let barrier = Arc::new(Barrier::new(THROUGHPUT_CLIENTS + 1));
        type ClientRows = Result<Vec<((String, u64), Option<u64>)>, String>;
        let workers: Vec<_> = (0..THROUGHPUT_CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || -> ClientRows {
                    // Connect *before* the barrier, but keep the error for
                    // after it: a failed connect must not strand the other
                    // parties in the rendezvous.
                    let client = Client::connect_tcp(addr);
                    barrier.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let mut rows = Vec::new();
                    for round in 0..THROUGHPUT_ROUNDS {
                        for spec in &STREAMIT_SPECS {
                            let req = solve_request(spec.name, seed.wrapping_add(round));
                            let resp = client
                                .request(&req)
                                .map_err(|e| format!("{}: {e}", spec.name))?;
                            let energy = if let Some(err) = resp.get("error") {
                                let kind = err.get("kind").and_then(Json::as_str).unwrap_or("?");
                                if kind != "no_valid_mapping" {
                                    return Err(format!(
                                        "{}: unexpected error kind {kind}",
                                        spec.name
                                    ));
                                }
                                None
                            } else {
                                resp.get("result")
                                    .and_then(|r| r.get("energy"))
                                    .and_then(Json::as_f64)
                            };
                            rows.push(((spec.name.to_string(), round), energy.map(f64::to_bits)));
                        }
                    }
                    Ok(rows)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut energies: BTreeMap<(String, u64), Option<u64>> = BTreeMap::new();
        // Join *every* worker before propagating the first error, so a
        // failing client never leaves the others running against a daemon
        // we are about to tear down.
        let mut first_error: Option<String> = None;
        for w in workers {
            match w.join() {
                Ok(Ok(rows)) => {
                    for (key, bits) in rows {
                        match energies.entry(key) {
                            Entry::Vacant(v) => {
                                v.insert(bits);
                            }
                            Entry::Occupied(o) => {
                                if *o.get() != bits {
                                    let (flow, round) = o.key();
                                    first_error.get_or_insert(format!(
                                        "{flow}/round {round}: clients disagree on energy bits"
                                    ));
                                }
                            }
                        }
                    }
                }
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error.get_or_insert("client thread panicked".to_string());
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut control = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        let stats = stats
            .get("result")
            .cloned()
            .ok_or_else(|| "stats response has no result".to_string())?;
        let sched = sched_counters(&stats)?;
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(ModeRun {
            energies,
            wall_s,
            sched,
        })
    })
}

/// The concurrent comparison: the same client fleet against a batching
/// daemon and a `batching: false` daemon. Errors out (rather than
/// reporting a number) if any `(flow, round)` energy diverges across
/// clients or between the modes — the speedup is only meaningful when the
/// answers are bit-identical.
pub fn throughput_bench(seed: u64) -> Result<ThroughputBench, String> {
    let batched = throughput_mode(seed, true)?;
    let unbatched = throughput_mode(seed, false)?;
    if batched.energies != unbatched.energies {
        for (key, bits) in &batched.energies {
            if unbatched.energies.get(key) != Some(bits) {
                let (flow, round) = key;
                return Err(format!(
                    "{flow}/round {round}: batched and per-request energies diverge"
                ));
            }
        }
        return Err("batched and per-request energy key sets diverge".to_string());
    }
    Ok(ThroughputBench {
        clients: THROUGHPUT_CLIENTS,
        rounds: THROUGHPUT_ROUNDS as usize,
        requests: THROUGHPUT_CLIENTS * THROUGHPUT_ROUNDS as usize * STREAMIT_SPECS.len(),
        batched_wall_s: batched.wall_s,
        unbatched_wall_s: unbatched.wall_s,
        deduped: batched.sched.deduped,
        batches: batched.sched.batches,
        flows_equal: batched.energies.len(),
    })
}

/// What the closed-loop load generator measured against an external
/// daemon (`xp serve-bench --clients N --requests M`).
pub struct LoadReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client issued.
    pub requests_per_client: usize,
    /// Answered solves (including deterministic `no_valid_mapping`).
    pub ok: u64,
    /// Requests shed by admission control (`overloaded` frames).
    pub overloaded: u64,
    /// Other structured error responses (e.g. `too_expensive`).
    pub failed: u64,
    /// Wall time over the whole closed loop, seconds.
    pub wall_s: f64,
    /// Client-side latency distribution over every response.
    pub latency: LatencySummary,
    /// The daemon's `stats` result after the run (queue depth, scheduler
    /// and spill counters, cache state) — snapshotted into the artifact.
    pub server: Json,
}

impl LoadReport {
    /// Answered requests per second (shed requests included: a shed is a
    /// served response, just not a solve).
    pub fn rps(&self) -> f64 {
        let total = (self.ok + self.overloaded + self.failed) as f64;
        if self.wall_s > 0.0 {
            total / self.wall_s
        } else {
            0.0
        }
    }
}

/// Drives an external daemon with `clients` concurrent closed-loop
/// connections, `requests` requests each, round-robin over the StreamIt
/// suite (per-client stagger so cold misses spread). `overloaded` sheds
/// and other structured errors are counted, not fatal — transport errors
/// are. The daemon is left running (the caller owns its lifecycle);
/// `stats` is fetched over a final control connection.
pub fn load_gen(
    connect: &(dyn Fn() -> std::io::Result<Client> + Sync),
    clients: usize,
    requests: usize,
    seed: u64,
) -> Result<LoadReport, String> {
    if clients == 0 || requests == 0 {
        return Err("load_gen needs at least one client and one request".to_string());
    }
    let barrier = Barrier::new(clients + 1);
    let histogram = Mutex::new(LatencyHistogram::new());
    struct Counts {
        ok: u64,
        overloaded: u64,
        failed: u64,
    }
    let run = std::thread::scope(|scope| -> Result<(u64, u64, u64, f64), String> {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let histogram = &histogram;
                scope.spawn(move || -> Result<Counts, String> {
                    let client = connect();
                    barrier.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let mut counts = Counts {
                        ok: 0,
                        overloaded: 0,
                        failed: 0,
                    };
                    for i in 0..requests {
                        let spec = &STREAMIT_SPECS[(c + i) % STREAMIT_SPECS.len()];
                        let req = solve_request(spec.name, seed);
                        let started = Instant::now();
                        let resp = client
                            .request(&req)
                            .map_err(|e| format!("{}: {e}", spec.name))?;
                        let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        histogram.lock().unwrap().record(nanos);
                        match resp
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                        {
                            None | Some("no_valid_mapping") => counts.ok += 1,
                            Some("overloaded") => counts.overloaded += 1,
                            Some(_) => counts.failed += 1,
                        }
                    }
                    Ok(counts)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let (mut ok, mut overloaded, mut failed) = (0u64, 0u64, 0u64);
        let mut first_error: Option<String> = None;
        for w in workers {
            match w.join() {
                Ok(Ok(c)) => {
                    ok += c.ok;
                    overloaded += c.overloaded;
                    failed += c.failed;
                }
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_error.get_or_insert("client thread panicked".to_string());
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        match first_error {
            Some(e) => Err(e),
            None => Ok((ok, overloaded, failed, wall_s)),
        }
    });
    let (ok, overloaded, failed, wall_s) = run?;
    let mut control = connect().map_err(|e| format!("connect: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    let server = stats
        .get("result")
        .cloned()
        .ok_or_else(|| "stats response has no result".to_string())?;
    let h = histogram.into_inner().unwrap();
    let latency = LatencySummary {
        count: h.count() as f64,
        mean_ms: h.mean() / 1e6,
        p50_ms: h.percentile(0.50) as f64 / 1e6,
        p99_ms: h.percentile(0.99) as f64 / 1e6,
        p999_ms: h.percentile(0.999) as f64 / 1e6,
        max_ms: h.max() as f64 / 1e6,
    };
    Ok(LoadReport {
        clients,
        requests_per_client: requests,
        ok,
        overloaded,
        failed,
        wall_s,
        latency,
        server,
    })
}

/// Human-readable load-generator report.
pub fn load_text(r: &LoadReport) -> String {
    let mut out = format!(
        "xp serve-bench — closed loop: {} clients x {} requests in {:.2} s ({:.1} req/s)\n",
        r.clients,
        r.requests_per_client,
        r.wall_s,
        r.rps(),
    );
    out.push_str(&format!(
        "responses: {} ok, {} overloaded, {} failed\n",
        r.ok, r.overloaded, r.failed,
    ));
    out.push_str(&format!(
        "client latency: mean {:.2} ms, p50/p99/p999 {:.2}/{:.2}/{:.2} ms, max {:.2} ms\n",
        r.latency.mean_ms, r.latency.p50_ms, r.latency.p99_ms, r.latency.p999_ms, r.latency.max_ms,
    ));
    let sched = |k: &str| {
        r.server
            .get("scheduler")
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "daemon scheduler: {} batches, {} batched requests, {} deduped, {} shed\n",
        sched("batches"),
        sched("batched_requests"),
        sched("deduped"),
        sched("shed"),
    ));
    out
}

/// The JSON artifact CI uploads (`results/serve-load.json`).
pub fn load_json(r: &LoadReport) -> String {
    let doc = obj([
        ("clients", Json::from(r.clients as u64)),
        (
            "requests_per_client",
            Json::from(r.requests_per_client as u64),
        ),
        ("ok", Json::from(r.ok)),
        ("overloaded", Json::from(r.overloaded)),
        ("failed", Json::from(r.failed)),
        ("wall_s", Json::from(r.wall_s)),
        ("throughput_rps", Json::from(r.rps())),
        (
            "latency_ms",
            obj([
                ("count", Json::from(r.latency.count)),
                ("mean", Json::from(r.latency.mean_ms)),
                ("p50", Json::from(r.latency.p50_ms)),
                ("p99", Json::from(r.latency.p99_ms)),
                ("p999", Json::from(r.latency.p999_ms)),
                ("max", Json::from(r.latency.max_ms)),
            ]),
        ),
        ("server", r.server.clone()),
    ]);
    format!("{doc}\n")
}

/// Human-readable report.
pub fn serve_bench_text(b: &ServeBench) -> String {
    let rows: Vec<Vec<String>> = b
        .flows
        .iter()
        .map(|f| {
            vec![
                f.workflow.to_string(),
                f.cold_energy.map_or("fail".into(), |e| format!("{e:.4}")),
                f.warm_energy.map_or("fail".into(), |e| format!("{e:.4}")),
                if f.equal() { "yes" } else { "NO" }.to_string(),
                if f.warm_flag { "yes" } else { "no" }.to_string(),
                format!("{:.2}", f.cold_ms),
                format!("{:.2}", f.warm_ms),
            ]
        })
        .collect();
    let mut out = fmt_table(
        &format!(
            "xp serve-bench — StreamIt suite through the daemon (u = {UTILISATION}, \
             {WARM_ROUNDS} warm rounds)"
        ),
        &[
            "workflow", "cold J", "warm J", "equal", "warm hit", "cold ms", "warm ms",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nwarm == cold on {}/{} flows; warm speedup {:.2}x (cold mean {:.2} ms, warm mean {:.2} ms)\n",
        b.warm_cold_equal(),
        b.flows.len(),
        b.warm_speedup(),
        b.cold.mean_ms,
        b.warm.mean_ms,
    ));
    out.push_str(&format!(
        "cold p50/p99/p999 {:.2}/{:.2}/{:.2} ms over {} solves; warm {:.2}/{:.2}/{:.2} ms over {}\n",
        b.cold.p50_ms,
        b.cold.p99_ms,
        b.cold.p999_ms,
        b.cold.count,
        b.warm.p50_ms,
        b.warm.p99_ms,
        b.warm.p999_ms,
        b.warm.count,
    ));
    out.push_str(&format!(
        "cache: {} hits, {} misses, {} evictions, {} entries / {} bytes live\n",
        b.cache_hits, b.cache_misses, b.cache_evictions, b.cache_entries, b.cache_bytes,
    ));
    out.push_str(&format!(
        "scheduler: {} batches / {} requests, {} deduped, {} shed\n",
        b.sched.batches, b.sched.batched_requests, b.sched.deduped, b.sched.shed,
    ));
    let t = &b.throughput;
    out.push_str(&format!(
        "throughput ({} clients x {} cold rounds): batched {:.1} req/s ({:.2} s), \
         per-request {:.1} req/s ({:.2} s) -> {:.2}x speedup [target {:.1}x: {}]\n",
        t.clients,
        t.rounds,
        t.batched_rps(),
        t.batched_wall_s,
        t.unbatched_rps(),
        t.unbatched_wall_s,
        t.speedup(),
        THROUGHPUT_TARGET,
        if t.meets_target() { "ok" } else { "MISSED" },
    ));
    out.push_str(&format!(
        "  single-flight: {} of {} requests deduped across {} batches; \
         {} flow-round energies bit-identical across clients and modes\n",
        t.deduped, t.requests, t.batches, t.flows_equal,
    ));
    out
}

/// `BENCH_serve.json` payload. Energies, equality, and cache counters are
/// deterministic (units `J`/`count` — gated); latencies and the byte
/// figure are machine- or allocator-dependent (units `ms`/`speedup`/
/// `bytes` — advisory or skipped by `bench-check`).
pub fn serve_bench_json(b: &ServeBench) -> String {
    let mut entries = Vec::new();
    let mut push = |name: &str, value: String, unit: &str| {
        entries.push(format!(
            "    {{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    for f in &b.flows {
        if let Some(e) = f.cold_energy {
            push(&format!("serve/energy/{}", f.workflow), fmt_f64(e), "J");
        }
    }
    push(
        "serve/warm_cold_equal",
        b.warm_cold_equal().to_string(),
        "count",
    );
    push("serve/cache_hits", fmt_f64(b.cache_hits), "count");
    push("serve/cache_misses", fmt_f64(b.cache_misses), "count");
    push("serve/cache_evictions", fmt_f64(b.cache_evictions), "count");
    push("serve/cache_entries", fmt_f64(b.cache_entries), "count");
    push("serve/cache_bytes", fmt_f64(b.cache_bytes), "bytes");
    push("serve/cold/p50", fmt_f64(b.cold.p50_ms), "ms");
    push("serve/cold/p99", fmt_f64(b.cold.p99_ms), "ms");
    push("serve/cold/p999", fmt_f64(b.cold.p999_ms), "ms");
    push("serve/warm/p50", fmt_f64(b.warm.p50_ms), "ms");
    push("serve/warm/p99", fmt_f64(b.warm.p99_ms), "ms");
    push("serve/warm/p999", fmt_f64(b.warm.p999_ms), "ms");
    push("serve/warm_speedup", fmt_f64(b.warm_speedup()), "speedup");
    push("serve/sched_batches", fmt_f64(b.sched.batches), "count");
    push(
        "serve/sched_batched_requests",
        fmt_f64(b.sched.batched_requests),
        "count",
    );
    push("serve/sched_deduped", fmt_f64(b.sched.deduped), "count");
    push("serve/sched_shed", fmt_f64(b.sched.shed), "count");
    push(
        "serve/batched_energy_equal",
        b.throughput.flows_equal.to_string(),
        "count",
    );
    push(
        "serve/batched_throughput",
        fmt_f64(b.throughput.speedup()),
        "speedup",
    );
    push(
        "serve/batched_throughput_ok",
        if b.throughput.meets_target() {
            "1"
        } else {
            "0"
        }
        .to_string(),
        "count",
    );
    push(
        "serve/batched_wall",
        fmt_f64(b.throughput.batched_wall_s * 1e3),
        "ms",
    );
    push(
        "serve/unbatched_wall",
        fmt_f64(b.throughput.unbatched_wall_s * 1e3),
        "ms",
    );
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Feeds serve metrics into `bench-check`'s fresh map (same names as
/// [`serve_bench_json`]). Latency metrics are included — the checker
/// classifies them advisory by their `ms`/`speedup` units. The byte
/// figure is deliberately *omitted*: `Vec` capacities vary with allocator
/// behaviour, and a metric with no fresh value stays skipped.
pub fn fresh_serve_metrics(b: &ServeBench, fresh: &mut HashMap<String, f64>) {
    for f in &b.flows {
        if let Some(e) = f.cold_energy {
            fresh.insert(format!("serve/energy/{}", f.workflow), e);
        }
    }
    fresh.insert("serve/warm_cold_equal".into(), b.warm_cold_equal() as f64);
    fresh.insert("serve/cache_hits".into(), b.cache_hits);
    fresh.insert("serve/cache_misses".into(), b.cache_misses);
    fresh.insert("serve/cache_evictions".into(), b.cache_evictions);
    fresh.insert("serve/cache_entries".into(), b.cache_entries);
    fresh.insert("serve/cold/p50".into(), b.cold.p50_ms);
    fresh.insert("serve/cold/p99".into(), b.cold.p99_ms);
    fresh.insert("serve/cold/p999".into(), b.cold.p999_ms);
    fresh.insert("serve/warm/p50".into(), b.warm.p50_ms);
    fresh.insert("serve/warm/p99".into(), b.warm.p99_ms);
    fresh.insert("serve/warm/p999".into(), b.warm.p999_ms);
    fresh.insert("serve/warm_speedup".into(), b.warm_speedup());
    fresh.insert("serve/sched_batches".into(), b.sched.batches);
    fresh.insert(
        "serve/sched_batched_requests".into(),
        b.sched.batched_requests,
    );
    fresh.insert("serve/sched_deduped".into(), b.sched.deduped);
    fresh.insert("serve/sched_shed".into(), b.sched.shed);
    fresh.insert(
        "serve/batched_energy_equal".into(),
        b.throughput.flows_equal as f64,
    );
    fresh.insert("serve/batched_throughput".into(), b.throughput.speedup());
    fresh.insert(
        "serve/batched_throughput_ok".into(),
        if b.throughput.meets_target() {
            1.0
        } else {
            0.0
        },
    );
    fresh.insert(
        "serve/batched_wall".into(),
        b.throughput.batched_wall_s * 1e3,
    );
    fresh.insert(
        "serve/unbatched_wall".into(),
        b.throughput.unbatched_wall_s * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_wellformed() {
        let b = ServeBench {
            flows: vec![FlowServe {
                workflow: "Beamformer",
                cold_energy: Some(1.5),
                warm_energy: Some(1.5),
                warm_flag: true,
                cold_ms: 2.0,
                warm_ms: 1.0,
            }],
            warm: LatencySummary {
                count: 3.0,
                mean_ms: 1.0,
                ..Default::default()
            },
            cold: LatencySummary {
                count: 1.0,
                mean_ms: 2.0,
                ..Default::default()
            },
            cache_hits: 9.0,
            cache_misses: 3.0,
            cache_evictions: 0.0,
            cache_entries: 3.0,
            cache_bytes: 1024.0,
            sched: SchedCounters {
                batches: 4.0,
                batched_requests: 4.0,
                deduped: 0.0,
                shed: 0.0,
            },
            throughput: ThroughputBench {
                clients: 8,
                rounds: 2,
                requests: 8 * 2 * 12,
                batched_wall_s: 1.0,
                unbatched_wall_s: 3.0,
                deduped: 100.0,
                batches: 30.0,
                flows_equal: 24,
            },
        };
        let text = serve_bench_json(&b);
        let parsed = Json::parse(&text).expect("serve bench json must parse");
        let results = parsed
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array");
        assert!(results
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some("serve/energy/Beamformer")));
        // The throughput gate entry: a count (gated), 1 when the batched
        // daemon cleared the target speedup.
        let ok = results
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("serve/batched_throughput_ok"))
            .expect("throughput gate entry");
        assert_eq!(ok.get("unit").and_then(Json::as_str), Some("count"));
        assert_eq!(ok.get("value").and_then(Json::as_f64), Some(1.0));
        assert!((b.warm_speedup() - 2.0).abs() < 1e-12);
        assert!((b.throughput.speedup() - 3.0).abs() < 1e-12);
        assert!(b.throughput.meets_target());
        assert_eq!(b.warm_cold_equal(), 1);
        let mut fresh = HashMap::new();
        fresh_serve_metrics(&b, &mut fresh);
        assert_eq!(fresh["serve/warm_cold_equal"], 1.0);
        assert_eq!(fresh["serve/energy/Beamformer"], 1.5);
        assert_eq!(fresh["serve/sched_batches"], 4.0);
        assert_eq!(fresh["serve/batched_throughput_ok"], 1.0);
        assert_eq!(fresh["serve/batched_energy_equal"], 24.0);
    }

    #[test]
    fn load_report_shapes_are_wellformed() {
        let r = LoadReport {
            clients: 4,
            requests_per_client: 16,
            ok: 60,
            overloaded: 3,
            failed: 1,
            wall_s: 2.0,
            latency: LatencySummary {
                count: 64.0,
                mean_ms: 1.5,
                p50_ms: 1.0,
                p99_ms: 4.0,
                p999_ms: 6.0,
                max_ms: 7.0,
            },
            server: obj([(
                "scheduler",
                obj([("batches", Json::from(10u64)), ("shed", Json::from(3u64))]),
            )]),
        };
        assert!((r.rps() - 32.0).abs() < 1e-12);
        let doc = Json::parse(&load_json(&r)).expect("load json must parse");
        assert_eq!(doc.get("ok").and_then(Json::as_f64), Some(60.0));
        assert_eq!(doc.get("throughput_rps").and_then(Json::as_f64), Some(32.0));
        assert!(doc.get("server").and_then(|s| s.get("scheduler")).is_some());
        let text = load_text(&r);
        assert!(text.contains("3 overloaded"));
        assert!(text.contains("32.0 req/s"));
    }
}
