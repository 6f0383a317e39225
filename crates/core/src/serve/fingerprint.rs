//! Content fingerprints for cache keys.
//!
//! The artifact cache (see [`super::cache`]) must key derived state by the
//! *content* that determines it, not by how a request happened to spell the
//! workload: two requests naming the same StreamIt workflow — or sending
//! the same chain inline — must land on the same cache line. The
//! fingerprint therefore hashes the canonical byte image of the data the
//! artifact depends on:
//!
//! * a **workload** fingerprint covers stage count, weights, labels and
//!   edges (the ideal lattice and cut volumes depend on nothing else);
//! * a **platform** fingerprint covers the grid shape, topology, routing
//!   policy, link parameters and the full DVFS table (route tables depend
//!   on these).
//!
//! FNV-1a is used deliberately: it is dependency-free, byte-order stable,
//! and collisions between the handful of artifacts a daemon holds are
//! astronomically unlikely (and harmless to energy correctness only if
//! absent — hence 64 bits, not 32). Floats are hashed by IEEE-754 bit
//! pattern, so `-0.0 != 0.0` and every NaN payload is distinct; request
//! decoding never produces non-finite values (the JSON layer rejects
//! them), so this is exact equality on everything reachable.

use cmp_platform::Platform;
use spg::Spg;

/// Incremental FNV-1a (64-bit) over a canonical byte stream.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Absorbs a length-prefixed string (prefixing prevents ambiguity
    /// between `("ab", "c")` and `("a", "bc")`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Fingerprint of everything the ideal lattice and cut volumes depend on:
/// stage count, weights, labels, and edges with volumes.
pub fn workload_fingerprint(g: &Spg) -> u64 {
    let mut h = Fingerprint::new();
    h.u64(g.n() as u64);
    for &w in g.weights() {
        h.f64(w);
    }
    for l in g.labels() {
        h.u64(l.x as u64).u64(l.y as u64);
    }
    h.u64(g.n_edges() as u64);
    for e in g.edges() {
        h.u64(e.src.0 as u64).u64(e.dst.0 as u64).f64(e.volume);
    }
    h.finish()
}

/// Absorbs everything *every* platform-derived artifact depends on: grid
/// shape, topology, routing policy, link parameters, and the full DVFS
/// table — the healthy-platform content, faults excluded.
fn hash_platform_base(h: &mut Fingerprint, pf: &Platform) {
    h.u64(pf.p as u64)
        .u64(pf.q as u64)
        .str(pf.topology.name())
        .u64(pf.policy.index() as u64)
        .f64(pf.bw)
        .f64(pf.e_bit)
        .f64(pf.p_leak_comm)
        .f64(pf.power.p_leak);
    for s in pf.power.speeds() {
        h.f64(s.freq).f64(s.power);
    }
}

/// Fingerprint of the full platform content: the healthy base (grid
/// shape, topology, routing policy, link parameters, DVFS table) plus the
/// fault set (length-prefixed sorted dead-core and dead-link indices), so
/// a faulted platform never aliases its healthy twin.
pub fn platform_fingerprint(pf: &Platform) -> u64 {
    let mut h = Fingerprint::new();
    hash_platform_base(&mut h, pf);
    h.u64(pf.faults.dead_cores().len() as u64);
    for &c in pf.faults.dead_cores() {
        h.u64(c as u64);
    }
    h.u64(pf.faults.dead_links().len() as u64);
    for &l in pf.faults.dead_links() {
        h.u64(l as u64);
    }
    h.finish()
}

/// The *fault-stripped* platform fingerprint: what the healthy twin would
/// hash to. A link-faulted request that misses its own route table looks
/// up the healthy sibling's table under this key and patches it (see
/// `docs/fault-model.md`).
pub fn fault_free_platform_fingerprint(pf: &Platform) -> u64 {
    let mut h = Fingerprint::new();
    hash_platform_base(&mut h, pf);
    h.u64(0).u64(0);
    h.finish()
}

/// The *core-fault-stripped* platform fingerprint: base content plus only
/// the link faults. This keys route tables — core faults leave every
/// router and link alive, so routes (and their tables) are shared across
/// core-fault siblings; link faults genuinely reroute and get their own
/// entry (derived by [`cmp_platform::RouteTable::patched`] when a
/// link-fault sibling is cached).
pub fn route_platform_fingerprint(pf: &Platform) -> u64 {
    let mut h = Fingerprint::new();
    hash_platform_base(&mut h, pf);
    h.u64(0);
    h.u64(pf.faults.dead_links().len() as u64);
    for &l in pf.faults.dead_links() {
        h.u64(l as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_platform::{RoutePolicy, TopologyKind};

    #[test]
    fn same_content_same_fingerprint() {
        let a = spg::streamit::streamit_suite(2011);
        let b = spg::streamit::streamit_suite(2011);
        for ((sa, ga), (sb, gb)) in a.iter().zip(&b) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(
                workload_fingerprint(ga),
                workload_fingerprint(gb),
                "{} must fingerprint identically across instantiations",
                sa.name
            );
        }
    }

    #[test]
    fn distinct_workloads_distinct_fingerprints() {
        let suite = spg::streamit::streamit_suite(2011);
        let fps: std::collections::HashSet<u64> =
            suite.iter().map(|(_, g)| workload_fingerprint(g)).collect();
        assert_eq!(fps.len(), suite.len(), "12 workflows, 12 fingerprints");
        // Weight perturbation changes the fingerprint.
        let (_, g) = &suite[0];
        let mut g2 = g.clone();
        let mut w = g2.weights().to_vec();
        w[1] += 1.0;
        g2.set_weights(w);
        assert_ne!(workload_fingerprint(g), workload_fingerprint(&g2));
    }

    #[test]
    fn fault_fingerprints_split_the_right_way() {
        use cmp_platform::CoreId;
        let base = Platform::paper(3, 3);
        let a = CoreId { u: 0, v: 0 };
        let b = CoreId { u: 0, v: 1 };
        let core_hurt = base.with_core_fault(b);
        let link_hurt = base.with_link_fault(a, b);
        // Full fingerprints: every fault distinct from healthy and each other.
        let fps = [
            platform_fingerprint(&base),
            platform_fingerprint(&core_hurt),
            platform_fingerprint(&link_hurt),
        ];
        assert_eq!(
            fps.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        // Fault-stripped: all three agree (healthy-sibling lookup).
        assert_eq!(
            fault_free_platform_fingerprint(&core_hurt),
            platform_fingerprint(&base)
        );
        assert_eq!(
            fault_free_platform_fingerprint(&link_hurt),
            platform_fingerprint(&base)
        );
        // Route fingerprints: blind to core faults, sensitive to link faults.
        assert_eq!(
            route_platform_fingerprint(&core_hurt),
            platform_fingerprint(&base)
        );
        assert_eq!(
            route_platform_fingerprint(&link_hurt),
            platform_fingerprint(&link_hurt)
        );
        assert_ne!(
            route_platform_fingerprint(&link_hurt),
            platform_fingerprint(&base)
        );
        // A core fault on top of a link fault routes like the link fault alone.
        let both = link_hurt.with_core_fault(CoreId { u: 2, v: 2 });
        assert_eq!(
            route_platform_fingerprint(&both),
            platform_fingerprint(&link_hurt)
        );
    }

    #[test]
    fn platform_fingerprint_covers_policy_and_topology() {
        let base = Platform::paper(4, 4);
        let snake = base.clone().with_policy(RoutePolicy::Snake);
        let torus = Platform::paper_topology(TopologyKind::Torus, 4, 4);
        let fp = platform_fingerprint(&base);
        assert_eq!(fp, platform_fingerprint(&Platform::paper(4, 4)));
        assert_ne!(fp, platform_fingerprint(&snake));
        assert_ne!(fp, platform_fingerprint(&torus));
        assert_ne!(fp, platform_fingerprint(&Platform::paper(2, 8)));
    }
}
