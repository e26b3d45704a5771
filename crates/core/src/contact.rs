//! Contact entries and per-node contact tables.
//!
//! A contact is a node 2R‥r hops away, stored together with the *source
//! path* the CSQ traversed to reach it (§III.C.1 step 6: "the path to the
//! contact is returned and stored at the source node"). The path is what
//! maintenance validates and queries travel along.

use net_topology::node::NodeId;

/// One selected contact.
///
/// Equality compares the contact and its path only: the confirmation
/// stamp is bookkeeping of the network that confirmed the path, and two
/// worlds (or a selected and a hand-built contact) agree on a contact
/// whatever their link versions.
#[derive(Clone, Debug)]
pub struct Contact {
    /// The contact node itself.
    pub id: NodeId,
    /// Source path, inclusive: `path[0]` is the source, `path.last()` is
    /// the contact. Hop length is `path.len() - 1`. A different path makes
    /// a different contact: build it with [`Contact::new`], which leaves
    /// it unconfirmed.
    pub path: Vec<NodeId>,
    /// The network's link version at which every hop of `path` was last
    /// confirmed a link — by CSQ acceptance or a surviving validation —
    /// or [`UNCONFIRMED`]. Validation re-tests a hop only when its near
    /// end's row changed since (see [`crate::maintenance`]).
    pub(crate) confirmed: u32,
}

/// The confirmation stamp of a contact no network has confirmed: every
/// row has changed since link version 0, so such a path is walked in full.
pub(crate) const UNCONFIRMED: u32 = 0;

impl PartialEq for Contact {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.path == other.path
    }
}

impl Eq for Contact {}

impl Contact {
    /// Create a contact with its source path, unconfirmed: its first
    /// validation walks every hop.
    ///
    /// # Panics
    /// Panics unless the path starts somewhere, ends at `id`, and has at
    /// least one hop.
    pub fn new(id: NodeId, path: Vec<NodeId>) -> Self {
        assert!(path.len() >= 2, "contact path needs at least one hop");
        assert_eq!(*path.last().unwrap(), id, "path must end at the contact");
        Contact {
            id,
            path,
            confirmed: UNCONFIRMED,
        }
    }

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

/// Read access to every node's [`ContactTable`], however the tables are
/// laid out in memory.
///
/// The query engine, reachability and resource layers are generic over
/// this trait so they can walk contact graphs stored either as one flat
/// slice/`Vec` (tests, benches, hand-built topologies) or as
/// shard-*owned* spans behind `CardWorld`'s sharded state model (where no
/// contiguous slice of all tables exists). Implementations must be pure
/// reads: a walk consults tables for many different nodes and the
/// sharded sweeps run those reads concurrently against frozen state.
///
/// A contact walk reads only [`links`](Self::links); the tables themselves
/// are for the re-walk oracle and for callers that need paths.
pub trait TableSource {
    /// The contact table of node index `i`.
    fn table(&self, i: usize) -> &ContactTable;

    /// Node `i`'s contact links, `(contact, path hops)` in table order.
    /// Read from the table by default; `CardWorld`'s view reads its
    /// `ContactGraph` instead, which holds the same links.
    #[inline]
    fn links(&self, i: usize) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        self.table(i).links()
    }
}

impl TableSource for [ContactTable] {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        &self[i]
    }
}

impl TableSource for Vec<ContactTable> {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        &self[i]
    }
}

impl<T: TableSource + ?Sized> TableSource for &T {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        (**self).table(i)
    }

    #[inline]
    fn links(&self, i: usize) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        (**self).links(i)
    }
}

impl<T: TableSource + ?Sized> TableSource for &mut T {
    #[inline]
    fn table(&self, i: usize) -> &ContactTable {
        (**self).table(i)
    }

    #[inline]
    fn links(&self, i: usize) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        (**self).links(i)
    }
}

/// Every node's contact links in one node-indexed CSR: node `i`'s links are
/// `links[offsets[i]..offsets[i + 1]]`, each `(contact, path hops)`, in its
/// table's [`ContactTable::contacts`] order. A walk step is then one offset
/// pair and one contiguous run of 8-byte links, instead of a shard lookup,
/// a table header and the table's heap array of path-carrying contacts.
///
/// The graph is a read mirror: the tables stay the owners of contacts,
/// paths, tombstones and retry state, and `CardWorld` rebuilds the graph
/// from them at the end of every call that can change a table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ContactGraph {
    /// `N + 1` prefix offsets into `links`.
    offsets: Vec<u32>,
    links: Vec<(NodeId, u16)>,
}

impl ContactGraph {
    /// The graph of `n` nodes without contacts.
    pub(crate) fn empty(n: usize) -> Self {
        ContactGraph {
            offsets: vec![0; n + 1],
            links: Vec::new(),
        }
    }

    /// Refill from `tables` (node-id order), reusing both buffers: one pass
    /// sizes the offsets, so the link buffer grows to the exact link count
    /// rather than by doubling, and a second copies the links.
    ///
    /// # Panics
    /// Panics if the graph holds more than `u32::MAX` links.
    pub(crate) fn rebuild<'a>(&mut self, tables: impl Iterator<Item = &'a ContactTable> + Clone) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut end = 0usize;
        for table in tables.clone() {
            end += table.len();
            let end = u32::try_from(end).expect("contact graph exceeds u32 links");
            self.offsets.push(end);
        }
        self.links.clear();
        self.links.reserve_exact(end);
        for table in tables {
            self.links.extend(table.links());
        }
    }

    /// Node `i`'s links.
    #[inline]
    pub(crate) fn links(&self, i: usize) -> &[(NodeId, u16)] {
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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

/// The contact table of one source node.
///
/// Besides the live contacts, the table carries two pieces of robustness
/// state used only under fault injection (both empty, and cost-free, in a
/// calm world):
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
#[derive(Clone, Debug, Default)]
pub struct ContactTable {
    contacts: Vec<Contact>,
    /// `(dead contact, remaining TTL in validation rounds)`.
    tombstones: Vec<(NodeId, u32)>,
    /// `(contact, its retry backoff)`.
    retries: Vec<(NodeId, Backoff)>,
}

impl ContactTable {
    /// An empty table.
    pub fn new() -> Self {
        ContactTable::default()
    }

    /// Number of live contacts.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// True when no contacts are held.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The contacts, in selection order.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Iterate over contact node ids (the CSQ `Contact_List`).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.contacts.iter().map(|c| c.id)
    }

    /// `(contact, path hops)` per contact, in selection order — what a
    /// contact walk reads.
    #[inline]
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        self.contacts.iter().map(|c| (c.id, c.hops()))
    }

    /// Is `node` already a contact?
    pub fn contains(&self, node: NodeId) -> bool {
        self.contacts.iter().any(|c| c.id == node)
    }

    /// The live contact entry for `node`, if it is (still) a contact —
    /// how a standing query's chain probe checks each cached hop against
    /// current state.
    pub fn get(&self, node: NodeId) -> Option<&Contact> {
        self.contacts.iter().find(|c| c.id == node)
    }

    /// Add a newly selected contact.
    ///
    /// # Panics
    /// Panics if `node` is already present (selection must not duplicate).
    pub fn add(&mut self, contact: Contact) {
        assert!(
            !self.contains(contact.id),
            "duplicate contact {:?}",
            contact.id
        );
        self.contacts.push(contact);
    }

    /// Remove a contact by id; returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let before = self.contacts.len();
        self.contacts.retain(|c| c.id != node);
        self.contacts.len() != before
    }

    /// Drop every contact, tombstone and retry record (used when
    /// re-initializing a node, e.g. after a crash).
    pub fn clear(&mut self) {
        self.contacts.clear();
        self.tombstones.clear();
        self.retries.clear();
    }

    /// Mutable access for maintenance (retain-style filtering).
    pub(crate) fn contacts_mut(&mut self) -> &mut Vec<Contact> {
        &mut self.contacts
    }

    // ---- tombstones -----------------------------------------------------

    /// Record `node` as confirmed dead for `ttl` validation rounds: the
    /// contact (if present) and any retry state are dropped, and CSQ
    /// re-selection will skip the id until the tombstone decays. A repeat
    /// tombstone extends the TTL to at least `ttl`.
    ///
    /// # Panics
    /// Panics if `ttl` is zero (a zero-TTL tombstone is a no-op bug).
    pub fn tombstone(&mut self, node: NodeId, ttl: u32) {
        assert!(ttl > 0, "tombstone TTL must be at least one round");
        self.remove(node);
        self.clear_retry(node);
        if let Some(t) = self.tombstones.iter_mut().find(|t| t.0 == node) {
            t.1 = t.1.max(ttl);
        } else {
            self.tombstones.push((node, ttl));
        }
    }

    /// Is `node` currently tombstoned?
    pub fn is_tombstoned(&self, node: NodeId) -> bool {
        self.tombstones.iter().any(|t| t.0 == node)
    }

    /// The tombstones, in creation order, as `(node, remaining TTL)`.
    pub fn tombstones(&self) -> &[(NodeId, u32)] {
        &self.tombstones
    }

    /// Age every tombstone by one validation round, dropping the expired.
    pub fn decay_tombstones(&mut self) {
        for t in &mut self.tombstones {
            t.1 -= 1;
        }
        self.tombstones.retain(|t| t.1 > 0);
    }

    /// The largest remaining tombstone TTL (0 when none). The liveness
    /// contract asserts this never exceeds `TOMBSTONE_TTL`.
    pub fn max_tombstone_ttl(&self) -> u32 {
        self.tombstones.iter().map(|t| t.1).max().unwrap_or(0)
    }

    // ---- per-contact validation retry ----------------------------------

    /// Note an unacked validation probe to `node`: bump its retry level
    /// and schedule `2^level - 1` skipped rounds. Returns the new level
    /// (first miss returns 1).
    pub fn note_unacked(&mut self, node: NodeId) -> u32 {
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
    pub fn retry_skip(&mut self, node: NodeId) -> bool {
        self.retries
            .iter_mut()
            .find(|r| r.0 == node)
            .is_some_and(|r| r.1.tick())
    }

    /// Clear retry state for `node` (its validation was acked, or the
    /// contact was evicted).
    pub fn clear_retry(&mut self, node: NodeId) {
        self.retries.retain(|r| r.0 != node);
    }

    /// Every contact's retry backoff, in the order the misses opened them.
    pub(crate) fn retries(&self) -> &[(NodeId, Backoff)] {
        &self.retries
    }
}

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
        let c = Contact::new(n(5), chain(&[0, 2, 4, 5]));
        assert_eq!(c.hops(), 3);
        assert_eq!(c.source(), n(0));
        assert_eq!(c.id, n(5));
    }

    #[test]
    #[should_panic(expected = "end at the contact")]
    fn path_must_end_at_contact() {
        Contact::new(n(5), chain(&[0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn single_node_path_rejected() {
        Contact::new(n(0), chain(&[0]));
    }

    #[test]
    fn table_add_remove() {
        let mut t = ContactTable::new();
        assert!(t.is_empty());
        t.add(Contact::new(n(7), chain(&[0, 3, 7])));
        t.add(Contact::new(n(9), chain(&[0, 4, 9])));
        assert_eq!(t.len(), 2);
        assert!(t.contains(n(7)));
        assert!(!t.contains(n(8)));
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![n(7), n(9)]);
        assert!(t.remove(n(7)));
        assert!(!t.remove(n(7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate contact")]
    fn duplicate_add_panics() {
        let mut t = ContactTable::new();
        t.add(Contact::new(n(7), chain(&[0, 3, 7])));
        t.add(Contact::new(n(7), chain(&[0, 4, 7])));
    }

    #[test]
    fn clear_empties() {
        let mut t = ContactTable::new();
        t.add(Contact::new(n(1), chain(&[0, 1])));
        t.tombstone(n(2), 3);
        t.note_unacked(n(1));
        t.clear();
        assert!(t.is_empty());
        assert!(t.tombstones().is_empty());
        assert_eq!(t.note_unacked(n(1)), 1, "retry state starts over");
    }

    #[test]
    fn tombstones_evict_and_decay() {
        let mut t = ContactTable::new();
        t.add(Contact::new(n(7), chain(&[0, 3, 7])));
        t.note_unacked(n(7));
        t.tombstone(n(7), 2);
        assert!(!t.contains(n(7)), "tombstoning evicts the contact");
        assert!(!t.retry_skip(n(7)), "tombstoning clears retry state");
        assert!(t.is_tombstoned(n(7)));
        assert_eq!(t.max_tombstone_ttl(), 2);
        // Repeat tombstone extends, never shortens.
        t.tombstone(n(7), 1);
        assert_eq!(t.max_tombstone_ttl(), 2);
        t.decay_tombstones();
        assert!(t.is_tombstoned(n(7)));
        t.decay_tombstones();
        assert!(!t.is_tombstoned(n(7)));
        assert_eq!(t.max_tombstone_ttl(), 0);
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
        let mut t = ContactTable::new();
        assert!(!t.retry_skip(n(4)), "no outstanding probe, no skip");
        let contact = windows(7, |fail| {
            if fail {
                t.note_unacked(n(4)) > 0
            } else {
                t.retry_skip(n(4))
            }
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
        t.clear_retry(n(4));
        assert_eq!(t.note_unacked(n(4)), 1, "a cleared contact starts over");
        // Past 31 misses the window stays at its widest, no shift overflow.
        let mut b = Backoff::failed(31, CONTACT_RETRY_CAP);
        assert_eq!(b.fail(CONTACT_RETRY_CAP), 32);
        b.reset();
        assert_eq!((b.level(), b.tick()), (0, false));
    }
}
