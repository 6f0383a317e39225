//! Solve-as-a-service: a daemon that keeps derived solver state warm.
//!
//! Everything the CLI does in one shot — build an [`crate::Instance`],
//! run a [`crate::Portfolio`], print energies — this module does behind a
//! socket, with one addition that only a long-lived process can offer: a
//! bounded, fingerprint-keyed **artifact cache**. The expensive
//! period-independent structures (`DPA1D`'s interned ideal lattice and
//! per-policy route tables) survive across requests, so repeated studies
//! over the same workloads skip straight to the dynamic programs while
//! staying **bit-identical in energy** to cold solves — the cache holds
//! inputs to the solvers, never their answers.
//!
//! * [`protocol`] — length-prefixed JSON frames and the request grammar
//!   (see `docs/serve-protocol.md` for the wire-level reference);
//! * [`fingerprint`] — content hashes that key the cache;
//! * [`cache`] — the byte-bounded LRU over shared artifacts;
//! * [`histogram`] — log-bucketed latencies for `stats` (p50/p99/p999);
//! * [`spill`] — versioned, checksummed cache persistence (`--cache-dir`);
//! * [`scheduler`] — the batched solve queue and admission controller;
//! * [`server`] — the [`Service`] request handler and socket [`Server`];
//! * [`client`] — a blocking [`Client`].
//!
//! The `xp serve` / `xp client` commands wrap [`Server`] and [`Client`];
//! in-process embedding needs no sockets at all:
//!
//! ```
//! use ea_core::json::Json;
//! use ea_core::serve::{ServeConfig, Service};
//!
//! let service = Service::new(ServeConfig::default());
//! let req = Json::parse(
//!     r#"{"op":"solve","workload":{"streamit":"Beamformer"},"utilisation":0.5,
//!         "solvers":"greedy"}"#,
//! )
//! .unwrap();
//! let cold = service.handle(&req);
//! let warm = service.handle(&req); // same fingerprints: artifacts hit
//! assert_eq!(
//!     cold.get("result").and_then(|r| r.get("energy")),
//!     warm.get("result").and_then(|r| r.get("energy")),
//! );
//! ```

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod histogram;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod spill;

pub use cache::{Artifact, ArtifactCache, ArtifactKey, CacheStats};
pub use client::Client;
pub use fingerprint::{platform_fingerprint, workload_fingerprint, Fingerprint};
pub use histogram::LatencyHistogram;
pub use protocol::{read_frame, write_frame, FrameReader, Request, MAX_FRAME_BYTES};
pub use scheduler::SchedulerStats;
pub use server::{serve_connection, Conn, ServeConfig, Server, Service, ServiceCore};
pub use spill::SpillStats;
