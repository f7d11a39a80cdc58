//! Golden route digest: every route of every scheme and plane entry point,
//! hashed and pinned.
//!
//! The planes and the reference schemes run the same routing procedures
//! and the same recorder, so a planes-equal-reference check cannot see a
//! change that alters both alike (a segment folded differently, a header
//! maximum lost, a hop replayed twice). This test hashes the `Debug` form
//! of every result — route or error — over all source/destination pairs
//! of the core families at n = 40 and ε ∈ {1/4, 1/8}, and compares it with
//! the pinned [`GOLDEN`]. A deliberate change to route anatomy must update
//! it and say why.
//!
//! Beside it, [`ARENA_GOLDEN`] pins the bytes of every compiled plane over
//! the same families × ε: each arena's words and bit length, the
//! name-independent planes' own arenas and their underlying labeled ones.
//! A faster decode must leave both digests as they are.

use std::fmt::{self, Write as _};

use compact_routing::labeled::{NetLabeledPlane, ScaleFreeLabeledPlane};
use compact_routing::nameind::{
    NameIndependentView, ObjectDirectory, ScaleFreeNiPlane, SimpleNiPlane,
};
use compact_routing::netsim::plane::BitArena;
use compact_routing::netsim::ForwardingPlane;
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    LabeledScheme, NameIndependentScheme, NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent,
    SimpleNameIndependent,
};

/// `(routes hashed, FNV-1a 64 of their Debug forms)`.
const GOLDEN: (u64, u64) = (178_060, 0x8957_edea_8473_d82d);

/// `(arenas hashed, FNV-1a 64 of their lengths and words)`.
const ARENA_GOLDEN: (u64, u64) = (72, 0xbeab_b128_13cd_550e);

/// 64-bit FNV-1a over formatted output, so no route string is ever held,
/// and the number of results added.
struct Digest {
    hash: u64,
    count: u64,
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    fn new() -> Self {
        Digest { hash: 0xcbf2_9ce4_8422_2325, count: 0 }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add(&mut self, result: &dyn fmt::Debug) {
        writeln!(self, "{result:?}").unwrap();
        self.count += 1;
    }

    /// Adds one arena: its bit length, then every word, little-endian.
    fn add_arena(&mut self, arena: &BitArena) {
        self.eat(&arena.len_bits().to_le_bytes());
        for w in arena.words() {
            self.eat(&w.to_le_bytes());
        }
        self.count += 1;
    }
}

#[test]
fn every_route_matches_the_pinned_digest() {
    let (mut h, mut bytes) = (Digest::new(), Digest::new());
    for &family in gen::Family::all() {
        let m = MetricSpace::new(&family.build(40, 1));
        let n = m.n() as u32;
        let naming = Naming::random(m.n(), 5);
        for eps in [Eps::one_over(4), Eps::one_over(8)] {
            let nl = NetLabeled::new(&m, eps).unwrap();
            let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
            let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let nl_plane = NetLabeledPlane::compile(&m, &nl, Some(&naming), 0);
            let sfl_plane = ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), 0);
            let sni_plane = SimpleNiPlane::compile(&m, &sni, 0);
            let sfni_plane = ScaleFreeNiPlane::compile(&m, &sfni, 0);
            let dir = ObjectDirectory::new(&m, &sni, &[(7, vec![0, n - 1]), (9, vec![n / 2])]);
            writeln!(h, "{family:?} {eps:?}").unwrap();
            for arena in [
                nl_plane.arena(),
                sfl_plane.arena(),
                sni_plane.arena(),
                sni_plane.underlying().arena(),
                sfni_plane.arena(),
                sfni_plane.underlying().arena(),
            ] {
                bytes.add_arena(arena);
            }
            for u in 0..n {
                for v in 0..n {
                    let (nl_label, sfl_label) = (nl.label_of(v), sfl.label_of(v));
                    let name = naming.name_of(v);
                    h.add(&nl.route(&m, u, nl_label));
                    h.add(&sfl.route(&m, u, sfl_label));
                    h.add(&sni.route(&m, u, name));
                    h.add(&sfni.route(&m, u, name));
                    h.add(&nl_plane.route(&m, u, nl_label));
                    h.add(&nl_plane.route_named(&m, u, name));
                    h.add(&sfl_plane.route(&m, u, sfl_label));
                    h.add(&sfl_plane.route_named(&m, u, name));
                    h.add(&sni_plane.route_named(&m, u, name));
                    h.add(&sfni_plane.route_named(&m, u, name));
                }
                for key in [7, 9, 11] {
                    h.add(&dir.locate(&m, u, key));
                }
            }
        }
    }
    assert_eq!((h.count, h.hash), GOLDEN, "route digest changed");
    assert_eq!((bytes.count, bytes.hash), ARENA_GOLDEN, "plane arena digest changed");
}
