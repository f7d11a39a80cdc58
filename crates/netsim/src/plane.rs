//! Bit-packed forwarding planes.
//!
//! The paper's whole point is that the routing tables are *compact* —
//! `(1/ε)^{O(α)} log²Δ` bits per node. Everything upstream of this module
//! audits those bit counts ([`crate::bits`], the conform crate); this
//! module is where the counts become an artifact you can *serve from*: an
//! immutable, contiguous `u64`-backed [`BitArena`] holding every node's
//! table fields back to back, plus the [`ForwardingPlane`] trait that
//! routes against the packed state.
//!
//! Conventions shared by every plane layout:
//!
//! * Fields are written with [`BitArena::push`] in a fixed, documented
//!   order, using the [`crate::bits::FieldWidths`] vocabulary (node ids,
//!   labels, names and next hops at `node` width; distances at `dist`
//!   width; counts at `bits_for_count(n + 1)`).
//! * Structural counts (ring lengths, tree sizes, pair counts) are packed
//!   **in the arena**, so a decoder can walk the complete layout from bit
//!   0 without any side tables.
//! * `compile = decode(encode)`: an encoder only pushes fields, and the
//!   plane's `decode` is the one place that builds the plane and its
//!   in-memory *offset indices* (where node `u`'s section starts), for
//!   O(1) addressing. The indices are derived data: decode reads only
//!   counts, tags, flags and the fields the index keeps, skips every
//!   fixed-size run, and must end exactly at the arena's end
//!   ([`BitCursor::finish`]).
//! * A decoded plane retains its arena's words and its offset index and
//!   nothing else: decode trims the arena ([`BitArena::trim`]) of the
//!   capacity encoding grew it by, and search-tree records are indexed
//!   by 32-bit offsets relative to their tree.
//! * Planes are immutable after compilation and are stamped with the
//!   [`crate::maintain::Maintainer`] epoch they were compiled at; serving
//!   a stale plane after churn is a structured error
//!   ([`crate::maintain::MaintainError::StalePlane`]).
//!
//! The metric space itself (adjacency, edge weights, shortest paths) is
//! the *environment* a forwarding plane executes in, not part of its
//! table state — route methods take `&MetricSpace` exactly like the
//! reference schemes do, and every hop is validated by the same
//! [`crate::route::RouteRecorder`].

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use crate::route::{Route, RouteError};
use crate::scheme::{Label, Name};

/// A contiguous, immutable bit arena backed by `u64` words.
///
/// Fields are appended with [`BitArena::push`] and read back with
/// [`BitArena::read`] at arbitrary bit offsets. Bits are stored LSB-first
/// within each word, so offset `o` maps to word `o / 64`, bit `o % 64`.
///
/// # Examples
///
/// ```rust
/// use netsim::plane::BitArena;
///
/// let mut a = BitArena::new();
/// a.push(5, 3);
/// a.push(0x1ff, 9);
/// assert_eq!(a.read(0, 3), 5);
/// assert_eq!(a.read(3, 9), 0x1ff);
/// assert_eq!(a.len_bits(), 12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitArena {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bits written so far (also the offset the next [`Self::push`] lands
    /// at).
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// The backing words (the last word's unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Total packed size in bytes (rounded up to whole words).
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Drops the spare capacity [`Self::push`] grew the words by, so the
    /// arena retains [`Self::size_bytes`]. The words and the length are
    /// unchanged.
    ///
    /// The words move to an exact-size allocation instead of shrinking in
    /// place: a multi-MiB block shrunk in place keeps the allocator handing
    /// the next compile's growth fresh pages from the OS, which made plane
    /// recompiles under churn about 10% slower than the copy.
    pub fn trim(&mut self) {
        if self.words.capacity() > self.words.len() {
            self.words = self.words.to_vec();
        }
    }

    /// Appends `value` as a `width`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or if `value` does not fit in
    /// `width` bits — a plane compiler packing an out-of-range field is a
    /// bug, not a recoverable condition.
    #[inline]
    pub fn push(&mut self, value: u64, width: u64) {
        assert!((1..=64).contains(&width), "field width {width} out of range");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let word = (self.len_bits / 64) as usize;
        let bit = self.len_bits % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << bit;
        if bit + width > 64 {
            // Spills into the next word.
            self.words.push(value >> (64 - bit));
        }
        self.len_bits += width;
    }

    /// Reads a `width`-bit field at bit offset `offset`.
    ///
    /// The read is branch-free: the field's word and the next one (0 past
    /// the last word) are combined and masked, so a field that spills into
    /// the next word costs the same as one that does not. The only check is
    /// the length assert below; a run of reads inside one known extent
    /// checks it once through [`Self::span`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the field extends past the written length.
    #[inline]
    pub fn read(&self, offset: u64, width: u64) -> u64 {
        assert!(offset + width <= self.len_bits, "read past end of arena");
        read_bits(&self.words, offset, width)
    }

    /// The `bits`-bit extent starting at `offset`, checked against the
    /// written length once; [`BitSpan::read`]s inside it skip the check.
    ///
    /// # Panics
    ///
    /// Panics if the extent runs past the written length.
    #[inline]
    pub fn span(&self, offset: u64, bits: u64) -> BitSpan<'_> {
        assert!(offset + bits <= self.len_bits, "read past end of arena");
        BitSpan { words: &self.words, start: offset, end: offset + bits }
    }
}

/// Reads the `width`-bit field at bit `offset` of `words` (LSB-first,
/// `width` in `1..=64`). `next << 1 << (63 - bit)` is the next word's
/// share of a spilling field, and 0 when the field starts on a word
/// boundary, where a single `<< (64 - bit)` would overflow.
#[inline]
fn read_bits(words: &[u64], offset: u64, width: u64) -> u64 {
    debug_assert!((1..=64).contains(&width));
    let word = (offset / 64) as usize;
    let bit = offset % 64;
    let next = words.get(word + 1).copied().unwrap_or(0);
    ((words[word] >> bit) | (next << 1 << (63 - bit))) & (u64::MAX >> (64 - width))
}

/// A bit extent of a [`BitArena`] whose bounds [`BitArena::span`] checked
/// once. Reads take absolute arena offsets and are only debug-asserted to
/// stay inside the extent.
#[derive(Debug, Clone, Copy)]
pub struct BitSpan<'a> {
    words: &'a [u64],
    start: u64,
    end: u64,
}

impl BitSpan<'_> {
    /// Reads a `width`-bit field at arena bit offset `offset`, which must
    /// lie inside the span.
    #[inline]
    pub fn read(&self, offset: u64, width: u64) -> u64 {
        debug_assert!(
            self.start <= offset && offset + width <= self.end,
            "read of {width} bits at {offset} outside span {}..{}",
            self.start,
            self.end
        );
        read_bits(self.words, offset, width)
    }
}

/// A sequential reader over a [`BitArena`].
#[derive(Debug, Clone)]
pub struct BitCursor<'a> {
    arena: &'a BitArena,
    pos: u64,
}

impl<'a> BitCursor<'a> {
    /// A cursor starting at bit offset `pos`.
    pub fn new(arena: &'a BitArena, pos: u64) -> Self {
        BitCursor { arena, pos }
    }

    /// Current bit offset.
    #[inline]
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Reads the next `width`-bit field and advances.
    #[inline]
    pub fn take(&mut self, width: u64) -> u64 {
        let v = self.arena.read(self.pos, width);
        self.pos += width;
        v
    }

    /// Advances past `width` bits without reading them.
    #[inline]
    pub fn skip(&mut self, width: u64) {
        self.pos += width;
    }

    /// Ends a decode of `layout`: the cursor must stand exactly at the
    /// end of its arena, so a layout disagreement fails here instead of
    /// serving from misread offsets.
    ///
    /// # Panics
    ///
    /// Panics with "read past end of arena" if the decode skipped past
    /// the written length, and with "decode must end at the arena's end"
    /// if bits are left over.
    pub fn finish(self, layout: &str) {
        let len = self.arena.len_bits();
        assert!(self.pos <= len, "read past end of arena");
        assert!(
            self.pos == len,
            "decode must end at the arena's end: {layout} stopped at bit {} of {len}",
            self.pos
        );
    }
}

/// An immutable, bit-packed forwarding plane compiled from one built
/// scheme.
///
/// The trait is object-safe and `Send + Sync` so one compiled plane can be
/// shared `Arc`-style across serving threads. The two query entry points
/// mirror the paper's two regimes: [`Self::route`] forwards toward a
/// *label* (the labeled schemes' native query; name-independent planes
/// delegate to their packed underlying scheme), and [`Self::route_named`]
/// forwards toward a *name* (native for name-independent planes; labeled
/// planes resolve the name through their compiled ingress directory).
///
/// Hop-identity contract: for every `(source, target)` the returned
/// [`Route`] is **equal** (`PartialEq`, i.e. hops, cost, segments, and
/// header bits all match) to the reference scheme's route — the plane
/// runs the scheme's own routing procedure, written once over a table
/// view that the scheme and the plane both implement. The differential
/// layer in `crates/netsim/tests/proptest_plane.rs` checks the two views
/// accessor by accessor on random connected graphs, with and without
/// departed nodes, and keeps route equality as a smoke check.
pub trait ForwardingPlane: Send + Sync {
    /// Compiled scheme's name (e.g. `"net-labeled"`).
    fn plane_name(&self) -> &'static str;

    /// The maintainer epoch the plane was compiled at (0 when compiled
    /// outside any maintainer).
    fn epoch(&self) -> u64;

    /// Number of nodes the plane serves.
    fn n(&self) -> usize;

    /// Total packed table size in bits (the arena length; name-independent
    /// planes include their packed underlying plane).
    fn packed_bits(&self) -> u64;

    /// Routes from `src` toward the node labeled `target`, producing the
    /// same verified trace as the reference scheme.
    ///
    /// # Errors
    ///
    /// Exactly the reference scheme's errors (a lookup miss on a broken
    /// hierarchy, a hop-budget loop).
    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError>;

    /// Routes from `src` toward the node named `name`.
    ///
    /// # Errors
    ///
    /// As [`Self::route`]; labeled planes compiled without a name
    /// directory report a [`RouteError::LookupFailed`] at the source.
    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError>;
}

/// Widths every plane compiler packs into its arena header, so a decoder
/// can walk the layout from bit 0: the four [`crate::bits::FieldWidths`]
/// plus the structural-count width `bits_for_count(n + 1)`. Each width is
/// itself stored as a 7-bit field (widths never exceed 64).
pub const WIDTH_FIELD_BITS: u64 = 7;

/// Width of the small structural fields bounded by about 64 rather than
/// by the metric widths: level counts, size exponents, round counts and
/// port widths.
pub const SMALL_FIELD_BITS: u64 = 7;

/// Packs the five-width header (node, dist, level, size_exp, count) used
/// by every plane layout.
pub fn push_width_header(arena: &mut BitArena, w: &crate::bits::FieldWidths, count_width: u64) {
    for v in [w.node, w.dist, w.level, w.size_exp, count_width] {
        arena.push(v, WIDTH_FIELD_BITS);
    }
}

/// Reads back the five-width header. Returns `(widths, count_width)`.
pub fn take_width_header(cur: &mut BitCursor<'_>) -> (crate::bits::FieldWidths, u64) {
    let [node, dist, level, size_exp, count] = [(); 5].map(|()| cur.take(WIDTH_FIELD_BITS));
    (crate::bits::FieldWidths { node, dist, level, size_exp }, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_read_roundtrip_across_word_boundaries() {
        let mut a = BitArena::new();
        let fields: Vec<(u64, u64)> = vec![
            (1, 1),
            (0x7f, 7),
            (0xdead_beef, 32),
            (u64::MAX, 64),
            (0, 5),
            (0x3ff, 10),
            (42, 13),
        ];
        for &(v, w) in &fields {
            a.push(v, w);
        }
        let mut off = 0;
        for &(v, w) in &fields {
            assert_eq!(a.read(off, w), v, "field at offset {off} width {w}");
            off += w;
        }
        assert_eq!(a.len_bits(), off);
    }

    /// The arena holding the `(value, width)` fields back to back.
    fn arena_of(fields: &[(u64, u64)]) -> BitArena {
        let mut a = BitArena::new();
        for &(v, w) in fields {
            a.push(v, w);
        }
        a
    }

    #[test]
    fn cursor_walks_sequentially_and_finishes_at_the_end() {
        let a = arena_of(&[(3, 2), (77, 50), (1, 64)]);
        let mut cur = BitCursor::new(&a, 0);
        assert_eq!(cur.take(2), 3);
        cur.skip(50);
        assert_eq!(cur.take(64), 1);
        assert_eq!(cur.pos(), a.len_bits());
        cur.finish("test");
    }

    #[test]
    #[should_panic(expected = "decode must end at the arena's end: test stopped at bit 52 of 116")]
    fn cursor_finishing_before_the_end_panics() {
        let a = arena_of(&[(3, 2), (77, 50), (1, 64)]);
        let mut cur = BitCursor::new(&a, 0);
        cur.skip(52);
        cur.finish("test");
    }

    #[test]
    #[should_panic(expected = "read past end of arena")]
    fn cursor_skipping_past_the_end_panics_on_finish() {
        let a = arena_of(&[(3, 2), (77, 50)]);
        let mut cur = BitCursor::new(&a, 0);
        cur.skip(53);
        cur.finish("test");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitArena::new().push(8, 3);
    }

    /// The value of `width` bits at `offset`, assembled one bit at a time
    /// from the stream's bits.
    fn bitwise(bits: &[bool], offset: u64, width: u64) -> u64 {
        (0..width).fold(0, |v, i| v | (bits[(offset + i) as usize] as u64) << i)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A 64-bit field at bit 0, a `lead`-bit field that moves a second
        /// 64-bit field off the word boundary, random fields of every
        /// width, and padding so the last field ends exactly on the final
        /// word (no next word to combine). Every field, and random windows
        /// across field boundaries, read back as the bits pushed, both
        /// through [`BitArena::read`] and through a span.
        #[test]
        fn reads_match_a_bitwise_reference(
            words in (0u64..u64::MAX, 0u64..u64::MAX),
            lead in 1u64..=63,
            raw in proptest::collection::vec((1u64..=64, 0u64..u64::MAX), 0..48),
            windows in proptest::collection::vec((0u64..u64::MAX, 1u64..=64), 32),
        ) {
            let mask = |v: u64, w: u64| v & (u64::MAX >> (64 - w));
            let mut fields = vec![(words.0, 64), (mask(raw.len() as u64, lead), lead), (words.1, 64)];
            fields.extend(raw.iter().map(|&(w, v)| (mask(v, w), w)));
            let pad = (64 - fields.iter().map(|&(_, w)| w).sum::<u64>() % 64) % 64;
            if pad > 0 {
                fields.push((mask(words.0.rotate_left(7), pad), pad));
            }
            let bits: Vec<bool> =
                fields.iter().flat_map(|&(v, w)| (0..w).map(move |i| v >> i & 1 == 1)).collect();

            let a = arena_of(&fields);
            prop_assert_eq!(a.len_bits(), bits.len() as u64);
            prop_assert_eq!(a.len_bits() % 64, 0);
            let whole = a.span(0, a.len_bits());
            let mut off = 0;
            for &(v, w) in &fields {
                prop_assert_eq!(a.read(off, w), v);
                prop_assert_eq!(whole.read(off, w), v);
                prop_assert_eq!(bitwise(&bits, off, w), v);
                off += w;
            }
            for &(at, w) in &windows {
                let w = w.min(a.len_bits());
                let at = at % (a.len_bits() - w + 1);
                let want = bitwise(&bits, at, w);
                prop_assert_eq!(a.read(at, w), want, "window {} at {}", w, at);
                prop_assert_eq!(a.span(at, w).read(at, w), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "read past end of arena")]
    fn read_one_bit_past_the_end_panics() {
        let a = arena_of(&[(5, 3), (u64::MAX, 64)]);
        a.read(a.len_bits() - 63, 64);
    }

    #[test]
    #[should_panic(expected = "read past end of arena")]
    fn span_past_the_end_panics() {
        let a = arena_of(&[(5, 3), (u64::MAX, 64)]);
        a.span(8, a.len_bits() - 7);
    }

    #[test]
    fn width_header_roundtrips() {
        let w = crate::bits::FieldWidths { node: 9, dist: 13, level: 3, size_exp: 4 };
        let mut a = BitArena::new();
        push_width_header(&mut a, &w, 10);
        let mut cur = BitCursor::new(&a, 0);
        assert_eq!(take_width_header(&mut cur), (w, 10));
        cur.finish("width header");
    }
}
