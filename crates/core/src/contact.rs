//! Contacts and the contact store.
//!
//! A contact is a node 2R‥r hops away, stored together with the *source
//! path* the CSQ traversed to reach it (§III.C.1 step 6: "the path to the
//! contact is returned and stored at the source node"). The path is what
//! maintenance validates and queries travel along.
//!
//! A [`ContactStore`] holds the contact tables of a contiguous node span
//! (a protocol shard's, or a hand-built topology's) once: rows in node
//! order — `offsets` into the `ids`, `hops` and `confirmed` columns — and
//! per contact a `path_off` into one `paths` arena. A contact walk reads a
//! row's `ids` and `hops`, never a path. The one write is
//! [`ContactStore::rewrite`]: every row, in node order, is streamed into a
//! second set of columns, and the sets swap. Selection and the validation
//! round visit a span's nodes in that order anyway, so no row is edited in
//! place and the arena never holds a dead word.

use std::ops::{Deref, Range};

use net_topology::node::NodeId;

/// One stored contact, read from its row of a [`ContactStore`].
#[derive(Clone, Copy, Debug)]
pub struct Contact<'a> {
    /// The contact node itself.
    pub id: NodeId,
    /// Source path, inclusive: `path[0]` is the source, `path.last()` is
    /// the contact. Hop length is `path.len() - 1`.
    pub path: ContactPath<'a>,
    /// The network's link version at which every hop of `path` was last
    /// confirmed a link — by CSQ acceptance or a surviving validation —
    /// or [`UNCONFIRMED`]. Validation re-tests a hop only when its near
    /// end's row changed since (see [`crate::maintenance`]).
    pub(crate) confirmed: u32,
}

/// A contact's source path in its store's arena; derefs to `[NodeId]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ContactPath<'a>(&'a [NodeId]);

impl Deref for ContactPath<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.0
    }
}

/// The confirmation stamp of a contact no network has confirmed: every
/// row has changed since link version 0, so such a path is walked in full.
pub(crate) const UNCONFIRMED: u32 = 0;

impl Contact<'_> {
    /// Hop count of the stored path.
    #[inline]
    pub fn hops(&self) -> u16 {
        (self.path.len() - 1) as u16
    }

    /// The source end of the path.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.path[0]
    }
}

/// Node-ordered contact rows over one path arena: row `k` holds contacts
/// `offsets[k]..offsets[k + 1]`, and contact `j`'s path is the
/// `hops[j] + 1` nodes at `paths[path_off[j]..]`.
#[derive(Clone, Debug, Default)]
struct Rows {
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
    hops: Vec<u16>,
    confirmed: Vec<u32>,
    path_off: Vec<u32>,
    paths: Vec<NodeId>,
}

impl Rows {
    /// No rows (the leading 0 offset only); buffers keep their capacity.
    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.ids.clear();
        self.hops.clear();
        self.confirmed.clear();
        self.path_off.clear();
        self.paths.clear();
    }

    /// Row `k`'s contact indices.
    #[inline]
    fn span(&self, k: usize) -> Range<usize> {
        self.offsets[k] as usize..self.offsets[k + 1] as usize
    }

    fn contact(&self, j: usize) -> Contact<'_> {
        let at = self.path_off[j] as usize;
        Contact {
            id: self.ids[j],
            path: ContactPath(&self.paths[at..=at + self.hops[j] as usize]),
            confirmed: self.confirmed[j],
        }
    }

    /// Append a contact (its id the path's last node) to the open row.
    fn push(&mut self, path: &[NodeId], confirmed: u32) {
        debug_assert!(path.len() >= 2, "contact path needs at least one hop");
        let at = u32::try_from(self.paths.len()).expect("path arena exceeds u32 offsets");
        self.ids.push(path[path.len() - 1]);
        self.hops.push((path.len() - 1) as u16);
        self.confirmed.push(confirmed);
        self.path_off.push(at);
        self.paths.extend_from_slice(path);
    }

    /// Heap bytes of the buffers, by capacity.
    fn bytes(&self) -> usize {
        (self.offsets.capacity() + self.confirmed.capacity() + self.path_off.capacity()) * 4
            + (self.ids.capacity() + self.paths.capacity()) * size_of::<NodeId>()
            + self.hops.capacity() * 2
    }
}

/// One node's contact table — row `k` of a [`ContactStore`] and its
/// tombstones — read-only.
#[derive(Clone, Copy)]
pub struct ContactTable<'a> {
    store: &'a ContactStore,
    k: usize,
}

impl<'a> ContactTable<'a> {
    fn id_slice(&self) -> &'a [NodeId] {
        &self.store.rows.ids[self.store.rows.span(self.k)]
    }

    /// Number of live contacts.
    pub fn len(&self) -> usize {
        self.id_slice().len()
    }

    /// True when no contacts are held.
    pub fn is_empty(&self) -> bool {
        self.id_slice().is_empty()
    }

    /// The contacts, in row order.
    pub fn contacts(&self) -> impl ExactSizeIterator<Item = Contact<'a>> + 'a {
        let rows = &self.store.rows;
        rows.span(self.k).map(move |j| rows.contact(j))
    }

    /// Iterate over contact node ids (the CSQ `Contact_List`).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.id_slice().iter().copied()
    }

    /// Is `node` a contact?
    pub fn contains(&self, node: NodeId) -> bool {
        self.id_slice().contains(&node)
    }

    /// The live contact entry for `node`, if it is (still) a contact —
    /// how a standing query's chain probe checks each cached hop against
    /// current state.
    pub fn get(&self, node: NodeId) -> Option<Contact<'a>> {
        let at = self.id_slice().iter().position(|&c| c == node)?;
        self.contacts().nth(at)
    }

    /// The tombstones, in creation order, as `(node, remaining TTL)`.
    pub fn tombstones(&self) -> &'a [(NodeId, u32)] {
        &self.store.tombstones[self.k]
    }

    /// Is `node` currently tombstoned?
    pub fn is_tombstoned(&self, node: NodeId) -> bool {
        self.tombstones().iter().any(|t| t.0 == node)
    }
}

/// Read-only view of every node's contact table over the stores of
/// contiguous node spans `per` wide: node `i` is row `i % per` of store
/// `i / per`. A `CardWorld`'s view spans its shards' stores, a hand-built
/// topology's is one store. Views are `Copy` pure reads, so a frozen
/// parallel phase shares one.
#[derive(Clone, Copy, Debug)]
pub struct TablesView<'a> {
    stores: &'a [ContactStore],
    per: usize,
    /// `ceil(2^64 / per)`, so that `i / per` is `(i · magic) >> 64` for
    /// every 32-bit `i` (Lemire, Kaser & Kurz, "Faster remainder by
    /// direct computation", 2019): the walk divides once per frontier
    /// node, and a hardware divide costs it several percent.
    magic: u128,
}

impl<'a> TablesView<'a> {
    /// The view over `stores`, spans of `per` nodes each.
    pub(crate) fn new(stores: &'a [ContactStore], per: usize) -> Self {
        let magic = (1u128 << 64).div_ceil(per as u128);
        TablesView { stores, per, magic }
    }

    /// Node `i`'s store and row in it.
    #[inline]
    fn locate(&self, i: usize) -> (&'a ContactStore, usize) {
        debug_assert!(i <= u32::MAX as usize, "node index exceeds 32 bits");
        let q = ((self.magic * i as u128) >> 64) as usize;
        debug_assert_eq!(q, i / self.per);
        (&self.stores[q], i - q * self.per)
    }

    /// Node `i`'s contact table.
    pub fn table(&self, i: usize) -> ContactTable<'a> {
        let (store, k) = self.locate(i);
        store.table(k)
    }

    /// Iterate every node's table in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = ContactTable<'a>> + Clone + 'a {
        let stores = self.stores.iter();
        stores.flat_map(|s| (0..s.len()).map(move |k| s.table(k)))
    }

    /// Node `i`'s contact links, `(contact, path hops)` in row order — all
    /// a contact walk reads: one offset pair, then the row's runs of the
    /// `ids` and `hops` columns.
    #[inline]
    pub(crate) fn links(&self, i: usize) -> impl Iterator<Item = (NodeId, u16)> + 'a {
        let (store, k) = self.locate(i);
        let (rows, span) = (&store.rows, store.rows.span(k));
        let ids = rows.ids[span.clone()].iter().copied();
        ids.zip(rows.hops[span].iter().copied())
    }
}

/// The contact tables of a contiguous node span (module docs): rows in
/// node order over one path arena, plus each node's robustness state,
/// used only under fault injection (empty, and cost-free, in a calm
/// world). Row `k` is the span's `k`-th node.
///
/// * **tombstones** — contacts confirmed dead (crashed while listed here).
///   A tombstoned id is skipped by CSQ re-selection until its TTL, counted
///   in validation rounds, runs out; this stops a node from immediately
///   re-selecting a peer it just watched die.
/// * **retry state** — per-contact unacked-validation `Backoff`. A
///   contact whose validation probe went unanswered is kept but *skipped*
///   for `2^level - 1` rounds (the same timer as the table-wide selection
///   backoff in `world/round.rs`); each further miss bumps the level until
///   a cap evicts the contact.
#[derive(Clone, Debug)]
pub struct ContactStore {
    rows: Rows,
    /// What a rewrite streams the next rows into before the swap: empty
    /// between rewrites, its buffers kept for the next one.
    next: Rows,
    /// Per node: `(dead contact, remaining TTL in validation rounds)`.
    tombstones: Vec<Vec<(NodeId, u32)>>,
    /// Per node: `(contact, its retry backoff)`.
    retries: Vec<Vec<(NodeId, Backoff)>>,
}

impl ContactStore {
    /// `len` nodes without contacts.
    pub fn new(len: usize) -> Self {
        let rows = Rows {
            offsets: vec![0; len + 1],
            ..Rows::default()
        };
        let (tombstones, retries) = (vec![Vec::new(); len], vec![Vec::new(); len]);
        let next = Rows::default();
        ContactStore {
            rows,
            next,
            tombstones,
            retries,
        }
    }

    /// A hand-built store of `len` nodes: each path becomes a contact of
    /// its source `path[0]`, in the order given, unconfirmed.
    ///
    /// # Panics
    /// Panics if a path has no hop, starts outside the store, or names a
    /// contact its source already has.
    pub fn from_paths(len: usize, paths: &[Vec<NodeId>]) -> Self {
        for path in paths {
            assert!(path.len() >= 2, "contact path needs at least one hop");
            assert!(path[0].index() < len, "path source outside the store");
        }
        let mut store = ContactStore::new(len);
        store.rewrite(|k, row| {
            for path in paths.iter().filter(|p| p[0].index() == k) {
                let id = path[path.len() - 1];
                assert!(!row.contains(id), "duplicate contact {id:?}");
                row.push(path, UNCONFIRMED);
            }
        });
        store
    }

    /// Nodes (rows) covered.
    pub(crate) fn len(&self) -> usize {
        self.tombstones.len()
    }

    /// Live contacts over every row.
    pub fn contact_count(&self) -> usize {
        self.rows.ids.len()
    }

    /// Row `k`'s table.
    pub(crate) fn table(&self, k: usize) -> ContactTable<'_> {
        ContactTable { store: self, k }
    }

    /// The view of a network whose nodes are this store's rows.
    pub fn view(&self) -> TablesView<'_> {
        TablesView::new(std::slice::from_ref(self), self.len().max(1))
    }

    /// Rewrite every row, in node order: `f(k, row)` writes row `k`'s
    /// contacts, reading the ones it held from `RowEdit::old`; a row it
    /// writes nothing to ends empty. The written rows replace the old ones
    /// at the end. Tombstones and retry timers are edited in place.
    pub fn rewrite(&mut self, mut f: impl FnMut(usize, &mut RowEdit<'_>)) {
        let ContactStore {
            rows,
            next,
            tombstones,
            retries,
        } = self;
        next.clear();
        let old: &Rows = rows;
        let per_node = tombstones.iter_mut().zip(retries.iter_mut());
        for (k, (tombstones, retries)) in per_node.enumerate() {
            let (span, start) = (old.span(k), next.ids.len());
            let row = &mut RowEdit {
                old,
                span,
                next,
                start,
                tombstones,
                retries,
            };
            f(k, row);
            let end = u32::try_from(next.ids.len()).expect("contact rows exceed u32 offsets");
            next.offsets.push(end);
        }
        std::mem::swap(rows, next);
        next.clear();
    }

    /// Every retry timer of row `k`, in the order the misses opened them.
    pub(crate) fn retries(&self, k: usize) -> &[(NodeId, Backoff)] {
        &self.retries[k]
    }

    /// Re-cut `stores` — the node-ordered spans, `per` nodes each, of one
    /// partition — along `spans`: rows are copied in node order,
    /// tombstones and retry timers move.
    pub(crate) fn repartition(
        mut stores: Vec<ContactStore>,
        per: usize,
        spans: &[Range<usize>],
    ) -> Vec<ContactStore> {
        let (mut tombstones, mut retries) = (Vec::new(), Vec::new());
        for s in &mut stores {
            tombstones.append(&mut s.tombstones);
            retries.append(&mut s.retries);
        }
        let mut out: Vec<ContactStore> = spans.iter().map(|s| ContactStore::new(s.len())).collect();
        for (store, span) in out.iter_mut().zip(spans) {
            store.tombstones = tombstones.drain(..span.len()).collect();
            store.retries = retries.drain(..span.len()).collect();
            store.rewrite(|k, row| {
                let (i, from) = (span.start + k, &stores[(span.start + k) / per].rows);
                for j in from.span(i % per) {
                    let c = from.contact(j);
                    row.push(&c.path, c.confirmed);
                }
            });
        }
        out
    }

    /// Heap bytes the store holds, by capacity: both column sets with
    /// their arenas, and every node's tombstone and retry buffer.
    pub(crate) fn memory_bytes(&self) -> usize {
        let tombstones: usize = self.tombstones.iter().map(Vec::capacity).sum();
        let retries: usize = self.retries.iter().map(Vec::capacity).sum();
        self.rows.bytes()
            + self.next.bytes()
            + (self.tombstones.capacity() + self.retries.capacity()) * size_of::<Vec<()>>()
            + tombstones * size_of::<(NodeId, u32)>()
            + retries * size_of::<(NodeId, Backoff)>()
    }
}

#[cfg(test)]
impl ContactStore {
    /// Panic unless the store's invariants hold for a span whose first
    /// node is `first`: offsets start at 0, never fall and end at the
    /// columns' common length; every path starts at its row's owner and
    /// ends at its id, with `hops == path.len() - 1`; and the arena holds
    /// the rows' paths back to back (no dead words).
    pub(crate) fn assert_invariants(&self, first: usize) {
        let r = &self.rows;
        let lens = [
            r.ids.len(),
            r.hops.len(),
            r.confirmed.len(),
            r.path_off.len(),
        ];
        assert_eq!(lens, [r.ids.len(); 4], "columns differ in length");
        assert_eq!((r.offsets.len(), r.offsets[0]), (self.len() + 1, 0));
        assert!(r.offsets.windows(2).all(|w| w[0] <= w[1]), "offsets fall");
        assert_eq!(r.offsets[self.len()] as usize, r.ids.len());
        let mut at = 0;
        for k in 0..self.len() {
            for (j, c) in r.span(k).zip(self.table(k).contacts()) {
                assert_eq!(r.path_off[j] as usize, at, "row {k}: a gap in the arena");
                assert_eq!(c.source().index(), first + k, "row {k}: a foreign path");
                assert_eq!(c.path.last(), Some(&c.id), "row {k}: path ends off its id");
                assert_eq!(r.hops[j], c.hops(), "row {k}: hops");
                at += c.path.len();
            }
        }
        assert_eq!(r.paths.len(), at, "dead words in the arena");
        assert!(self.next.ids.is_empty() && self.next.paths.is_empty());
    }
}

/// One row of a [`ContactStore::rewrite`]: the node's contacts before the
/// rewrite, the row being written in their place, and the node's
/// tombstones and retry timers.
pub struct RowEdit<'a> {
    old: &'a Rows,
    span: Range<usize>,
    next: &'a mut Rows,
    /// Index of the row's first written contact in `next`.
    start: usize,
    tombstones: &'a mut Vec<(NodeId, u32)>,
    retries: &'a mut Vec<(NodeId, Backoff)>,
}

impl<'a> RowEdit<'a> {
    /// The row's contacts before the rewrite, in row order.
    pub(crate) fn old(&self) -> impl ExactSizeIterator<Item = Contact<'a>> + 'a {
        let old = self.old;
        self.span.clone().map(move |j| old.contact(j))
    }

    /// Write `path`'s last node as a contact, its path confirmed at link
    /// version `confirmed`.
    pub(crate) fn push(&mut self, path: &[NodeId], confirmed: u32) {
        debug_assert!(
            !self.contains(path[path.len() - 1]),
            "duplicate in {path:?}"
        );
        self.next.push(path, confirmed);
    }

    /// Write every old contact as it was.
    pub(crate) fn keep_all(&mut self) {
        for c in self.old() {
            self.next.push(&c.path, c.confirmed);
        }
    }

    /// Ids of the contacts written so far (the CSQ `Contact_List`).
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.next.ids[self.start..]
    }

    /// Number of contacts written so far.
    pub(crate) fn len(&self) -> usize {
        self.next.ids.len() - self.start
    }

    /// Is `node` written already?
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.ids().contains(&node)
    }

    /// Drop the node's tombstones and retry timers. A row that also
    /// writes no contact ends empty: how a crashed node keeps nothing.
    pub(crate) fn clear(&mut self) {
        self.tombstones.clear();
        self.retries.clear();
    }

    // ---- tombstones -----------------------------------------------------

    /// Record `node` as confirmed dead for `ttl` validation rounds: its
    /// retry timer is dropped, and CSQ re-selection skips the id until the
    /// tombstone decays. A repeat tombstone extends the TTL to at least
    /// `ttl`. The caller leaves the contact out of the row.
    ///
    /// # Panics
    /// Panics if `ttl` is zero (a zero-TTL tombstone is a no-op bug).
    pub(crate) fn tombstone(&mut self, node: NodeId, ttl: u32) {
        assert!(ttl > 0, "tombstone TTL must be at least one round");
        self.clear_retry(node);
        if let Some(t) = self.tombstones.iter_mut().find(|t| t.0 == node) {
            t.1 = t.1.max(ttl);
        } else {
            self.tombstones.push((node, ttl));
        }
    }

    /// Is `node` currently tombstoned?
    pub(crate) fn is_tombstoned(&self, node: NodeId) -> bool {
        self.tombstones.iter().any(|t| t.0 == node)
    }

    /// Age every tombstone by one validation round, dropping the expired.
    pub(crate) fn decay_tombstones(&mut self) {
        for t in self.tombstones.iter_mut() {
            t.1 -= 1;
        }
        self.tombstones.retain(|t| t.1 > 0);
    }

    /// The largest remaining tombstone TTL (0 when none). The liveness
    /// contract asserts this never exceeds `TOMBSTONE_TTL`.
    pub(crate) fn max_tombstone_ttl(&self) -> u32 {
        self.tombstones.iter().map(|t| t.1).max().unwrap_or(0)
    }

    // ---- per-contact validation retry ----------------------------------

    /// Note an unacked validation probe to `node`: bump its retry level
    /// and schedule `2^level - 1` skipped rounds. Returns the new level
    /// (first miss returns 1).
    pub(crate) fn note_unacked(&mut self, node: NodeId) -> u32 {
        let at = self.retries.iter().position(|r| r.0 == node);
        let at = at.unwrap_or_else(|| {
            self.retries.push((node, Backoff::default()));
            self.retries.len() - 1
        });
        self.retries[at].1.fail(CONTACT_RETRY_CAP)
    }

    /// If `node` is inside a retry-skip window, consume one round of it
    /// and return `true` (the caller must not probe the contact this
    /// round). Returns `false` when the contact is due for a retry.
    pub(crate) fn retry_skip(&mut self, node: NodeId) -> bool {
        self.retries
            .iter_mut()
            .find(|r| r.0 == node)
            .is_some_and(|r| r.1.tick())
    }

    /// Clear retry state for `node` (its validation was acked, or the
    /// contact was evicted).
    pub(crate) fn clear_retry(&mut self, node: NodeId) {
        if !self.retries.is_empty() {
            self.retries.retain(|r| r.0 != node);
        }
    }
}

/// A capped exponential backoff on the validation-round lattice — the one
/// timer behind selection backoff, the per-contact validation retry and
/// the query retry queue. Each failure raises the level and opens a
/// window of `2^min(level, cap) − 1` rounds; [`tick`](Self::tick) spends
/// one round of it; a success resets it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Backoff {
    /// Consecutive failures.
    level: u32,
    /// Rounds of the open window not yet spent.
    remaining: u32,
}

impl Backoff {
    /// The state after `level` consecutive failures, its window unspent.
    pub(crate) fn failed(level: u32, cap: u32) -> Self {
        let remaining = (1u32 << level.min(cap)) - 1;
        Backoff { level, remaining }
    }

    /// One more failure; returns the new level.
    pub(crate) fn fail(&mut self, cap: u32) -> u32 {
        *self = Backoff::failed(self.level.saturating_add(1), cap);
        self.level
    }

    /// Advance one round: `true` (one round of the window spent) while the
    /// window is open, `false` once the timer is due.
    pub(crate) fn tick(&mut self) -> bool {
        let open = self.remaining > 0;
        self.remaining -= u32::from(open);
        open
    }

    /// A success: level and window cleared.
    pub(crate) fn reset(&mut self) {
        *self = Backoff::default();
    }

    /// Consecutive failures so far.
    pub(crate) fn level(&self) -> u32 {
        self.level
    }
}

/// The per-contact retry window grows as far as a `u32` counts rounds
/// (`2^31 − 1`); [`VALIDATION_RETRY_CAP`] evicts the contact long before.
const CONTACT_RETRY_CAP: u32 = 31;

/// Tombstone TTL in validation rounds: how long a confirmed-dead contact
/// is barred from CSQ re-selection (fault injection only; irrelevant in a
/// calm world).
pub(crate) const TOMBSTONE_TTL: u32 = 4;
const _: () = assert!(TOMBSTONE_TTL >= 1, "tombstone TTL must be >= 1 round");

/// How many unacked validation probes a contact survives before it is
/// evicted (per-contact exponential retry; fault injection only).
pub(crate) const VALIDATION_RETRY_CAP: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn chain(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    #[test]
    fn contact_path_accessors() {
        let store = ContactStore::from_paths(1, &[chain(&[0, 2, 4, 5])]);
        let c = store.table(0).contacts().next().expect("one contact");
        assert_eq!(c.hops(), 3);
        assert_eq!(c.source(), n(0));
        assert_eq!(c.id, n(5));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn single_node_path_rejected() {
        ContactStore::from_paths(1, &[chain(&[0])]);
    }

    /// Removing a contact is not writing it: the rewrite compacts the
    /// arena, and `memory_bytes` counts the buffers by capacity, both
    /// column sets and every node's tombstone and retry buffer.
    #[test]
    fn table_add_remove() {
        let paths = [chain(&[0, 3, 7]), chain(&[1, 4, 5, 9]), chain(&[0, 4, 9])];
        let mut store = ContactStore::from_paths(2, &paths);
        let t = store.table(0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(n(7)));
        assert!(!t.contains(n(8)));
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![n(7), n(9)]);
        store.rewrite(|_, row| {
            for c in row.old().filter(|c| c.id != n(7)) {
                row.push(&c.path, c.confirmed);
            }
            row.note_unacked(n(2));
        });
        assert_eq!(store.table(0).ids().collect::<Vec<_>>(), vec![n(9)]);
        assert_eq!((store.contact_count(), store.rows.paths.len()), (2, 7));
        store.assert_invariants(0);
        let columns = |r: &Rows| {
            let u32s = r.offsets.capacity() + r.confirmed.capacity() + r.path_off.capacity();
            4 * (u32s + r.ids.capacity() + r.paths.capacity()) + 2 * r.hops.capacity()
        };
        let buffers = |v: &[Vec<(NodeId, u32)>], w: &[Vec<(NodeId, Backoff)>]| {
            let inner = v.iter().map(|t| 8 * t.capacity()).sum::<usize>();
            inner + w.iter().map(|r| 12 * r.capacity()).sum::<usize>()
        };
        let per_node = 24 * (store.tombstones.capacity() + store.retries.capacity())
            + buffers(&store.tombstones, &store.retries);
        let want = columns(&store.rows) + columns(&store.next) + per_node;
        assert_eq!(store.memory_bytes(), want);
        assert!(
            store.next.paths.capacity() >= 10,
            "the emptied set keeps its buffers"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate contact")]
    fn duplicate_add_panics() {
        ContactStore::from_paths(1, &[chain(&[0, 3, 7]), chain(&[0, 4, 7])]);
    }

    #[test]
    fn clear_empties() {
        let mut store = ContactStore::from_paths(1, &[chain(&[0, 1])]);
        store.rewrite(|_, row| {
            row.keep_all();
            row.tombstone(n(2), 3);
            row.note_unacked(n(1));
        });
        store.rewrite(|_, row| row.clear());
        assert!(store.table(0).is_empty());
        assert!(store.table(0).tombstones().is_empty());
        store.rewrite(|_, row| assert_eq!(row.note_unacked(n(1)), 1, "retry state starts over"));
    }

    #[test]
    fn tombstones_evict_and_decay() {
        let mut store = ContactStore::from_paths(1, &[chain(&[0, 3, 7])]);
        store.rewrite(|_, row| {
            row.note_unacked(n(7));
            row.tombstone(n(7), 2);
            assert!(!row.retry_skip(n(7)), "tombstoning clears retry state");
            assert!(row.is_tombstoned(n(7)));
            assert_eq!(row.max_tombstone_ttl(), 2);
            // Repeat tombstone extends, never shortens.
            row.tombstone(n(7), 1);
            assert_eq!(row.max_tombstone_ttl(), 2);
            row.decay_tombstones();
        });
        let t = store.table(0);
        assert!(!t.contains(n(7)), "a tombstoned contact is left unwritten");
        assert!(t.is_tombstoned(n(7)));
        store.rewrite(|_, row| {
            row.decay_tombstones();
            assert_eq!(row.max_tombstone_ttl(), 0);
        });
        assert!(!store.table(0).is_tombstoned(n(7)));
    }

    /// The three capped-exponential timers on the round lattice, table
    /// driven: after the k-th consecutive failure each skips
    /// `2^min(k, cap) − 1` rounds. `step(true)` fails, `step(false)` ticks
    /// and says whether the round was skipped.
    #[test]
    fn retry_backoff_doubles_skip_windows() {
        fn windows(fails: usize, mut step: impl FnMut(bool) -> bool) -> Vec<u32> {
            (0..fails)
                .map(|_| {
                    step(true);
                    (0..).take_while(|_| step(false)).count() as u32
                })
                .collect()
        }
        let mut b = Backoff::default();
        let selection = windows(7, |fail| if fail { b.fail(5) > 0 } else { b.tick() });
        let mut store = ContactStore::new(1);
        let mut contact = Vec::new();
        store.rewrite(|_, t| {
            assert!(!t.retry_skip(n(4)), "no outstanding probe, no skip");
            contact = windows(7, |fail| {
                if fail {
                    t.note_unacked(n(4)) > 0
                } else {
                    t.retry_skip(n(4))
                }
            });
            t.clear_retry(n(4));
            assert_eq!(t.note_unacked(n(4)), 1, "a cleared contact starts over");
        });
        let mut q = crate::query::QueryRetryQueue::new(u32::MAX);
        let mut due = Vec::new();
        q.schedule(n(1), n(2));
        q.tick(&mut due);
        assert_eq!(due.len(), 1, "a scheduled query re-runs at the next round");
        let query = windows(5, |fail| {
            match fail {
                true => q.report(due[0].0, due[0].1, due[0].2, false),
                false => q.tick(&mut due),
            }
            due.is_empty()
        });
        let table: [(&str, Vec<u32>, &[u32]); 3] = [
            ("selection, cap 5", selection, &[1, 3, 7, 15, 31, 31, 31]),
            ("contact retry", contact, &[1, 3, 7, 15, 31, 63, 127]),
            ("query retry, cap 3", query, &[1, 3, 7, 7, 7]),
        ];
        for (timer, got, want) in table {
            assert_eq!(got, want, "{timer}");
        }
        // Past 31 misses the window stays at its widest, no shift overflow.
        let mut b = Backoff::failed(31, CONTACT_RETRY_CAP);
        assert_eq!(b.fail(CONTACT_RETRY_CAP), 32);
        b.reset();
        assert_eq!((b.level(), b.tick()), (0, false));
    }
}
