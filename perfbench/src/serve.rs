//! `serve-warm` and `serve-cold`: closed-loop clients over a Unix socket
//! to a daemon child process (this binary's `daemon` mode, which runs
//! `ea_core::Server` with the default configuration).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ea_core::json::Json;
use ea_core::serve::{read_frame, write_frame, Client};
use ea_core::Instance;

use crate::space::{pair, pass_order, reference, solve_frame, traced_solve, LayerTotals, PASS};
use crate::stats::{classify_report, classify_response, median, Outcome};
use crate::{Args, Finish, OpRec};

/// Set-up repetitions per workload; the median is reported.
const WARM_SETUP_REPS: usize = 3;
const COLD_SETUP_REPS: usize = 7;

/// Concurrent closed-loop clients on `serve-cold` (the machine has two
/// cores; more clients would only measure the run queue).
const COLD_CLIENTS: usize = 2;

/// How long a daemon may take to answer its first ping or to exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// A daemon child process. Dropping it kills a daemon that is still up.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on `socket` and waits until it answers a ping;
    /// returns it with the connected client.
    fn boot(socket: PathBuf) -> Result<(Daemon, Client), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon { child, socket };
        let t = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect_unix(&daemon.socket) {
                if c.ping().is_ok() {
                    return Ok((daemon, c));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t.elapsed() > DAEMON_TIMEOUT {
                return Err("daemon did not answer a ping in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let t = Instant::now();
        while t.elapsed() < DAEMON_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The `daemon` mode: serve on `socket` until a `shutdown` request.
pub fn daemon_main(socket: &Path) -> Result<(), String> {
    let server = ea_core::Server::bind_unix(socket, ea_core::ServeConfig::default())
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A socket path relative to the working directory (short, inside the
/// checkout, unique per process and boot).
fn socket_path(tag: &str, rep: usize) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/.run-{}-{tag}-{rep}.sock",
        std::process::id()
    ))
}

/// One client operation and what the client saw of it.
struct Sample {
    op: OpRec,
    wall_ms: Option<f64>,
    warm: bool,
    encode_us: f64,
    decode_us: f64,
}

/// Sends one solve. A traced operation also times `write_frame` of the
/// request and `read_frame` of the response on in-memory buffers; the
/// operation wall then includes those probes (the tracing overhead).
fn serve_op(client: &mut Client, k: usize, frame: &Json, traced: bool) -> Sample {
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let mut encode_us = 0.0;
    if traced {
        let t = Instant::now();
        let _ = write_frame(&mut buf, frame);
        encode_us = t.elapsed().as_secs_f64() * 1e6;
    }
    let t = Instant::now();
    let resp = client.request(frame);
    let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut decode_us = 0.0;
    if let (true, Ok(resp)) = (traced, &resp) {
        buf.clear();
        let _ = write_frame(&mut buf, resp);
        let t = Instant::now();
        let _ = read_frame(&mut buf.as_slice());
        decode_us = t.elapsed().as_secs_f64() * 1e6;
    }
    let op_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (outcome, wall_ms, warm) = match &resp {
        Ok(r) => {
            let result = r.get("result");
            (
                classify_response(r),
                result.and_then(|x| x.get("wall_ms")).and_then(Json::as_f64),
                result.and_then(|x| x.get("warm")).and_then(Json::as_bool) == Some(true),
            )
        }
        Err(_) => (Outcome::Transport, None, false),
    };
    let mut op = OpRec::new(k, rtt_ms, outcome, traced);
    op.op_ms = op_ms;
    Sample {
        op,
        wall_ms,
        warm,
        encode_us,
        decode_us,
    }
}

/// The daemon's cache and scheduler counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    bytes: f64,
    batches: f64,
    batched: f64,
    deduped: f64,
    shed: f64,
}

fn counters(client: &mut Client) -> Result<Counters, String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let get = |outer: &str, inner: &str| -> Result<f64, String> {
        stats
            .get("result")
            .and_then(|r| r.get(outer))
            .and_then(|o| o.get(inner))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats lacks {outer}.{inner}"))
    };
    Ok(Counters {
        hits: get("cache", "hits")?,
        misses: get("cache", "misses")?,
        evictions: get("cache", "evictions")?,
        bytes: get("cache", "bytes")?,
        batches: get("scheduler", "batches")?,
        batched: get("scheduler", "batched_requests")?,
        deduped: get("scheduler", "deduped")?,
        shed: get("scheduler", "shed")?,
    })
}

/// What a serve workload hands to the common post-processing.
struct Window {
    samples: Vec<Sample>,
    elapsed: Duration,
    rss_mb: f64,
    before: Counters,
    after: Counters,
}

/// The workload seed of `serve-cold` request `i`: never sent before in a
/// run, and small enough to travel exactly as a JSON number.
fn cold_wseed(seed: u64, i: usize) -> u64 {
    seed * 1_000_000 + i as u64 + 1
}

/// The pair and flow weight seed of request `i` of a workload.
fn request(seed: u64, cold: bool, i: usize) -> (usize, u64) {
    let k = pass_order(seed, (i / PASS) as u64)[i % PASS];
    (k, if cold { cold_wseed(seed, i) } else { seed })
}

/// Hands out request indices until the deadline has passed at a pass
/// boundary, so a window always covers whole passes.
struct Dispenser {
    next: usize,
    stopped: bool,
    first: usize,
    /// A traced run alternates untraced and traced passes and needs one of
    /// each, so it runs at least two passes.
    min_end: usize,
    deadline: Instant,
}

impl Dispenser {
    fn take(&mut self) -> Option<usize> {
        if self.stopped
            || (self.next >= self.min_end
                && (self.next - self.first).is_multiple_of(PASS)
                && Instant::now() >= self.deadline)
        {
            self.stopped = true;
            return None;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// `serve-warm`: one client; set-up is boot plus a priming pass over the
/// 36 fingerprints; the window repeats them in seed-fixed interleaved
/// passes.
pub fn warm(args: &Args) -> Result<Finish, String> {
    let seed = args.seed;
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..WARM_SETUP_REPS {
        let t = Instant::now();
        let (daemon, mut client) = Daemon::boot(socket_path("warm", rep))?;
        for i in 0..PASS {
            let (k, wseed) = request(seed, false, i);
            client
                .request(&solve_frame(pair(k), wseed, seed))
                .map_err(|e| format!("priming request: {e}"))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < WARM_SETUP_REPS {
            daemon.stop(&mut client)?;
        } else {
            live = Some((daemon, client));
        }
    }
    let (daemon, mut client) = live.expect("at least one set-up repetition");
    let before = counters(&mut client)?;
    let start = Instant::now();
    let mut disp = Dispenser {
        next: PASS,
        stopped: false,
        first: PASS,
        min_end: PASS + if args.trace { 2 * PASS } else { 0 },
        deadline: start + args.seconds,
    };
    let mut samples = Vec::new();
    while let Some(i) = disp.take() {
        let (k, wseed) = request(seed, false, i);
        let traced = args.trace && (i / PASS).is_multiple_of(2);
        samples.push(serve_op(
            &mut client,
            k,
            &solve_frame(pair(k), wseed, seed),
            traced,
        ));
    }
    let elapsed = start.elapsed();
    let rss_mb = crate::peak_rss_mb(Some(daemon.pid()));
    let after = counters(&mut client)?;
    daemon.stop(&mut client)?;
    let window = Window {
        samples,
        elapsed,
        rss_mb,
        before,
        after,
    };
    finish(args, median(&setups), window, false)
}

/// `serve-cold`: two clients; every request names a flow weight seed never
/// sent before, so every lattice and skeleton lookup misses.
pub fn cold(args: &Args) -> Result<Finish, String> {
    let seed = args.seed;
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..COLD_SETUP_REPS {
        let t = Instant::now();
        let (daemon, mut client) = Daemon::boot(socket_path("cold", rep))?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < COLD_SETUP_REPS {
            daemon.stop(&mut client)?;
        } else {
            live = Some((daemon, client));
        }
    }
    let (daemon, mut control) = live.expect("at least one set-up repetition");
    let mut clients = Vec::new();
    for _ in 0..COLD_CLIENTS {
        clients.push(Client::connect_unix(&daemon.socket).map_err(|e| format!("connect: {e}"))?);
    }
    let before = counters(&mut control)?;
    let start = Instant::now();
    let disp = Mutex::new(Dispenser {
        next: 0,
        stopped: false,
        first: 0,
        min_end: if args.trace { 2 * PASS } else { 0 },
        deadline: start + args.seconds,
    });
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let disp = &disp;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let next = disp.lock().expect("dispenser lock poisoned").take();
                        let Some(i) = next else { break };
                        let (k, wseed) = request(seed, true, i);
                        let traced = args.trace && (i / PASS) % 2 == 1;
                        let frame = solve_frame(pair(k), wseed, seed);
                        mine.push((i, serve_op(client, k, &frame, traced)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let rss_mb = crate::peak_rss_mb(Some(daemon.pid()));
    let after = counters(&mut control)?;
    drop(clients);
    daemon.stop(&mut control)?;
    samples.sort_by_key(|(i, _)| *i);
    let window = Window {
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        elapsed,
        rss_mb,
        before,
        after,
    };
    finish(args, median(&setups), window, true)
}

/// Maps `f` over `items` on two caller threads, keeping the input order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..COLD_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The common tail: check every served outcome against an in-process cold
/// reference, replay traced requests in-process in the daemon's cache
/// state for the in-process layers, and derive the serve-layer metrics.
fn finish(args: &Args, setup_s: f64, w: Window, cold: bool) -> Result<Finish, String> {
    let seed = args.seed;
    // Request i of the window, in dispensing order.
    let first = if cold { 0 } else { PASS };
    let keys: Vec<(usize, u64)> = (0..w.samples.len())
        .map(|j| request(seed, cold, first + j))
        .collect();
    let mut distinct = keys.clone();
    distinct.sort_unstable();
    distinct.dedup();
    // The references are independent cold solves, so two caller threads
    // share them. A warm replay needs its reference instance as the
    // artifact donor; a cold one does not, so those are dropped at once.
    let refs: HashMap<(usize, u64), (Outcome, f64, Option<Instance>)> =
        par_map(&distinct, |&(k, wseed)| {
            let (inst, report) = reference(pair(k), wseed, seed);
            let lb = inst.energy_lower_bound();
            (classify_report(&report), lb, (!cold).then_some(inst))
        })
        .into_iter()
        .zip(distinct.iter().copied())
        .map(|(r, key)| (key, r))
        .collect();
    let mut layers = LayerTotals::default();
    let mut overhead = Vec::new();
    let mut covered = 0.0;
    let mut traced_wall = 0.0;
    let mut ops = Vec::with_capacity(w.samples.len());
    for (s, &(k, wseed)) in w.samples.iter().zip(&keys) {
        let (ref_outcome, lb, donor) = &refs[&(k, wseed)];
        let mut op = s.op.clone();
        op.mismatch = op.outcome.answered() && op.outcome != *ref_outcome;
        op.ratio = op.outcome.energy().map(|e| e / *lb);
        if op.traced {
            if let Some(wall) = s.wall_ms {
                covered += wall / 1e3 + (s.encode_us + s.decode_us) / 1e6;
            }
            traced_wall += op.op_ms / 1e3;
        }
        // Only the first traced pass is replayed: it holds every pair once,
        // which is all the per-layer means need, and it keeps the traced
        // run short. The daemon holds a warm request's artifacts; a cold
        // request finds nothing cached. Replays run one at a time, so their
        // spans are not perturbed by a concurrent solve.
        if op.traced && layers.ops < PASS {
            let ts = traced_solve(pair(k), wseed, seed, donor.as_ref());
            op.mismatch |= ts.outcome != *ref_outcome || !ts.mapping_ok;
            layers.add(&ts.spans);
            if let Some(wall) = s.wall_ms {
                overhead.push(wall - ts.spans.solve_time().as_secs_f64() * 1e3);
            }
        }
        ops.push(op);
    }

    let mut m = Vec::new();
    layers.metrics(&mut m);
    let traced: Vec<&Sample> = w.samples.iter().filter(|s| s.op.traced).collect();
    let server: Vec<f64> = traced.iter().filter_map(|s| s.wall_ms).collect();
    let transport: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.wall_ms.map(|wall| s.op.ms - wall))
        .collect();
    let enc: Vec<f64> = traced.iter().map(|s| s.encode_us).collect();
    let dec: Vec<f64> = traced.iter().map(|s| s.decode_us).collect();
    let mut put = |name: &str, v: f64, unit| m.push((name.to_string(), v, unit));
    put("serve.server_ms", median(&server), "ms");
    put("serve.transport_ms", median(&transport), "ms");
    put("serve.daemon_overhead_ms", median(&overhead), "ms");
    put("protocol.encode_us", median(&enc), "us");
    put("protocol.decode_us", median(&dec), "us");
    let (b, a) = (w.before, w.after);
    let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
    put("cache.hits", hits, "count");
    put("cache.misses", misses, "count");
    put("cache.evictions", a.evictions - b.evictions, "count");
    put("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    put("cache.bytes", a.bytes, "bytes");
    let warm = w.samples.iter().filter(|s| s.warm).count();
    put(
        "serve.warm_share",
        warm as f64 / w.samples.len().max(1) as f64,
        "ratio",
    );
    let batches = a.batches - b.batches;
    put("scheduler.batches", batches, "count");
    put(
        "scheduler.mean_batch",
        (a.batched - b.batched) / batches.max(1.0),
        "count",
    );
    put("scheduler.deduped", a.deduped - b.deduped, "count");
    put("scheduler.shed", a.shed - b.shed, "count");
    Ok(Finish {
        setup_s,
        elapsed: w.elapsed,
        ops,
        rss_mb: w.rss_mb,
        layer_metrics: m,
        coverage: covered / traced_wall.max(1e-12),
    })
}
