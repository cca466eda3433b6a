//! Reusable scratch memory for the search kernel.
//!
//! The backward expanding search (§3) creates one Dijkstra iterator per
//! keyword node per query; the original kernel paid three hash-map
//! allocations per iterator plus a `Vec<Vec<u32>>` origin list per visited
//! node. A [`SearchArena`] makes the whole expansion allocation-free in
//! steady state:
//!
//! * [`DijkstraState`] — one iterator's `dist`/`parent`/settled records,
//!   kept in a node → record map that holds only the nodes the iterator
//!   reached, so its size and reset cost follow the (small) visited set,
//!   not the graph. The distance queue is a recycled 4-ary heap
//!   ([`crate::heap::DistHeap`]).
//! * [`OriginListPool`] — the per-node, per-term origin lists (`u.Lᵢ` in
//!   the paper) flattened into one entry pool of forward-linked lists, so
//!   visiting a node allocates nothing.
//! * [`CrossScratch`] — the mixed-radix counter, cursor, origin and edge
//!   buffers the cross-product enumerator reuses across connection trees.
//!
//! A server worker keeps one arena for its lifetime; `checkout`/`recycle`
//! hand states to iterators and take them back when a query ends. A
//! state holds nothing sized by the graph, so one arena safely outlives
//! live-ingestion publishes that grow or shrink it.

use crate::fxhash::FxHashMap;
use crate::graph::NodeId;
use crate::heap::DistHeap;
use std::collections::hash_map::Entry;

/// Sentinel for "no parent" / "no list entry" — the terminator
/// [`OriginListPool::head`] and [`OriginListPool::next`] return.
pub const NIL: u32 = u32::MAX;

/// What one iterator knows about one node it has reached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRecord {
    /// Tentative (or, once settled, final) distance from the origin.
    pub(crate) dist: f64,
    /// Best-path predecessor ([`NIL`] for the origin).
    pub(crate) parent: u32,
    /// CSR slot (in the traversal direction's adjacency arrays) of the
    /// edge that set `parent` — path reconstruction reads the exact edge
    /// weight (and its precomputed score) straight out of the CSR
    /// instead of re-deriving it from a distance difference.
    pub(crate) parent_slot: u32,
    /// `dist` is final.
    pub(crate) settled: bool,
}

/// Single-source shortest-path state of one iterator, holding a record
/// only for the nodes that iterator has reached.
///
/// Memory and reset cost grow with the nodes touched, not with the
/// graph: a backward-search iterator typically settles a few dozen nodes
/// of a graph of millions, and one state serves any graph — it carries
/// nothing sized by a node count across ingestion epochs.
#[derive(Debug, Clone, Default)]
pub struct DijkstraState {
    /// node id → what this iterator knows about it.
    nodes: FxHashMap<u32, NodeRecord>,
    /// The distance queue (recycled allocation).
    pub(crate) heap: DistHeap,
    settled_count: usize,
}

impl DijkstraState {
    /// An empty state; it allocates as its iterator reaches nodes.
    pub fn new() -> DijkstraState {
        DijkstraState::default()
    }

    /// Forget every record and empty the queue, keeping the allocations.
    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.heap.clear();
        self.settled_count = 0;
    }

    /// The record of a settled node (`None` if unreached or tentative).
    #[inline]
    pub(crate) fn settled(&self, n: u32) -> Option<&NodeRecord> {
        self.nodes.get(&n).filter(|r| r.settled)
    }

    #[inline]
    pub(crate) fn is_settled(&self, n: u32) -> bool {
        self.settled(n).is_some()
    }

    /// Record (or replace) the origin's start distance; the origin has
    /// no parent edge.
    pub(crate) fn start(&mut self, origin: u32, dist: f64) {
        self.nodes.insert(
            origin,
            NodeRecord {
                dist,
                parent: NIL,
                parent_slot: NIL,
                settled: false,
            },
        );
    }

    /// Edge relaxation in one lookup: record `dist` for `n` if `n` is
    /// unreached, or unsettled and `dist` improves on its tentative
    /// distance. Returns whether it did (the caller then queues `n`).
    #[inline]
    pub(crate) fn relax(&mut self, n: u32, dist: f64, parent: u32, slot: u32) -> bool {
        let record = NodeRecord {
            dist,
            parent,
            parent_slot: slot,
            settled: false,
        };
        match self.nodes.entry(n) {
            Entry::Vacant(e) => {
                e.insert(record);
                true
            }
            Entry::Occupied(mut e) => {
                let better = !e.get().settled && dist < e.get().dist;
                if better {
                    e.insert(record);
                }
                better
            }
        }
    }

    /// Mark a reached node's distance final.
    #[inline]
    pub(crate) fn settle(&mut self, n: u32) {
        let record = self.nodes.get_mut(&n).expect("settling an unreached node");
        record.settled = true;
        self.settled_count += 1;
    }

    #[inline]
    pub(crate) fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Recycle-time shrink policy: drop the records and queued entries
    /// (all dead — the next checkout starts afresh) and clamp both
    /// buffers to `max_entries`, so one broad iterator does not pin its
    /// high-water mark in a pooled state forever.
    pub(crate) fn shrink(&mut self, max_entries: usize) {
        self.reset();
        if self.nodes.capacity() > max_entries {
            self.nodes.shrink_to(max_entries);
        }
        self.heap.shrink_to_entries(max_entries);
    }

    /// Bytes this state retains (record table + queue buffer).
    pub fn retained_bytes(&self) -> usize {
        // One control byte per bucket beside each (key, record) slot.
        self.nodes.capacity() * (std::mem::size_of::<(u32, NodeRecord)>() + 1)
            + self.heap.retained_bytes()
    }
}

// Shards of the parallel executor own their state blocks across scoped
// threads; this compile-time assertion is what "send-safe state blocks"
// means — break it and the parallel kernel stops compiling.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DijkstraState>();
};

/// The paper's per-node origin lists `u.Lᵢ`, flattened: one shared entry
/// pool of forward-linked lists plus a per-node block of `n_terms`
/// (head, tail, len) triples. Appends and whole-pool resets never free
/// memory, so a reused pool allocates only while it is still growing
/// toward the high-water mark of its workload.
#[derive(Debug, Clone, Default)]
pub struct OriginListPool {
    n_terms: usize,
    /// node id → base slot of its `n_terms`-wide block.
    node_base: FxHashMap<u32, u32>,
    heads: Vec<u32>,
    tails: Vec<u32>,
    lens: Vec<u32>,
    /// `(origin, next-entry)` cells; [`NIL`] terminates a list.
    entries: Vec<(u32, u32)>,
}

impl OriginListPool {
    /// Empty the pool for a query over `n_terms` search terms.
    pub fn reset(&mut self, n_terms: usize) {
        self.n_terms = n_terms;
        self.node_base.clear();
        self.heads.clear();
        self.tails.clear();
        self.lens.clear();
        self.entries.clear();
    }

    /// Base slot of `node`'s list block, allocating an empty block on
    /// first visit.
    pub fn ensure(&mut self, node: u32) -> u32 {
        if let Some(&base) = self.node_base.get(&node) {
            return base;
        }
        let base = self.heads.len() as u32;
        self.heads.resize(self.heads.len() + self.n_terms, NIL);
        self.tails.resize(self.tails.len() + self.n_terms, NIL);
        self.lens.resize(self.lens.len() + self.n_terms, 0);
        self.node_base.insert(node, base);
        base
    }

    /// Append `origin` to the `term` list of the block at `base`,
    /// preserving insertion order.
    pub fn push(&mut self, base: u32, term: usize, origin: u32) {
        let slot = base as usize + term;
        let entry = self.entries.len() as u32;
        self.entries.push((origin, NIL));
        if self.tails[slot] == NIL {
            self.heads[slot] = entry;
        } else {
            self.entries[self.tails[slot] as usize].1 = entry;
        }
        self.tails[slot] = entry;
        self.lens[slot] += 1;
    }

    /// Length of the `term` list at `base`.
    #[inline]
    pub fn len(&self, base: u32, term: usize) -> usize {
        self.lens[base as usize + term] as usize
    }

    /// First entry index of the `term` list at `base` ([`NIL`] if empty).
    #[inline]
    pub fn head(&self, base: u32, term: usize) -> u32 {
        self.heads[base as usize + term]
    }

    /// The origin stored at `entry`.
    #[inline]
    pub fn origin(&self, entry: u32) -> u32 {
        self.entries[entry as usize].0
    }

    /// The entry after `entry` ([`NIL`] at the end of a list).
    #[inline]
    pub fn next(&self, entry: u32) -> u32 {
        self.entries[entry as usize].1
    }

    /// Iterate a list in insertion order (diagnostics and tests).
    pub fn iter(&self, base: u32, term: usize) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head(base, term);
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let origin = self.origin(cur);
            cur = self.next(cur);
            Some(origin)
        })
    }

    /// Shrink policy: drop this query's content and clamp every backing
    /// buffer to at most `max_entries` entries, so one broad query does
    /// not pin its high-water mark in a long-lived worker arena forever.
    /// Called at the end of a search — the next query `reset`s anyway.
    pub fn shrink(&mut self, max_entries: usize) {
        self.node_base.clear();
        self.heads.clear();
        self.tails.clear();
        self.lens.clear();
        self.entries.clear();
        if self.entries.capacity() > max_entries {
            self.entries.shrink_to(max_entries);
        }
        if self.heads.capacity() > max_entries {
            self.heads.shrink_to(max_entries);
            self.tails.shrink_to(max_entries);
            self.lens.shrink_to(max_entries);
        }
        if self.node_base.capacity() > max_entries {
            self.node_base.shrink_to(max_entries);
        }
    }

    /// Bytes retained by the pool's backing buffers.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<(u32, u32)>()
            + (self.heads.capacity() + self.tails.capacity() + self.lens.capacity())
                * size_of::<u32>()
            + self.node_base.capacity() * size_of::<(u32, u32)>()
    }
}

/// Reusable buffers for the cross-product enumerator: one dimension per
/// *other* search term (`terms`/`heads`/`lens`), the mixed-radix odometer
/// (`counter` + linked-list `cursors`), and the per-tree `origins`/`edges`
/// assembly buffers.
#[derive(Debug, Clone, Default)]
pub struct CrossScratch {
    /// Term index of each enumerated dimension.
    pub terms: Vec<usize>,
    /// List head entry per dimension (for odometer wrap-around).
    pub heads: Vec<u32>,
    /// List length per dimension.
    pub lens: Vec<usize>,
    /// Mixed-radix counter, one digit per dimension.
    pub counter: Vec<usize>,
    /// Current list entry per dimension (tracks `counter` in O(1)).
    pub cursors: Vec<u32>,
    /// Per-term chosen keyword node of the tree being assembled.
    pub origins: Vec<NodeId>,
    /// Union of root→origin path edges of the tree being assembled.
    pub edges: Vec<(NodeId, NodeId, f64)>,
}

impl CrossScratch {
    /// Drop all dimensions (allocation-preserving).
    pub fn clear_dims(&mut self) {
        self.terms.clear();
        self.heads.clear();
        self.lens.clear();
    }

    /// Add one enumerated dimension.
    pub fn push_dim(&mut self, term: usize, head: u32, len: usize) {
        self.terms.push(term);
        self.heads.push(head);
        self.lens.push(len);
    }

    /// Bytes retained by the scratch buffers.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.terms.capacity() + self.counter.capacity()) * size_of::<usize>()
            + (self.heads.capacity() + self.cursors.capacity()) * size_of::<u32>()
            + self.lens.capacity() * size_of::<usize>()
            + self.origins.capacity() * size_of::<NodeId>()
            + self.edges.capacity() * size_of::<(NodeId, NodeId, f64)>()
    }
}

/// Pooled [`DijkstraState`] blocks for ONE expansion shard of the
/// parallel executor. Each shard (one per keyword set) owns its slice of
/// the sharded arena for the duration of a query, so checkout/recycle on
/// its own thread needs no synchronization; the blocks are handed back
/// when the scoped threads join.
#[derive(Debug, Default)]
pub struct ShardArena {
    idle: Vec<DijkstraState>,
    states_created: u64,
    states_reused: u64,
}

impl ShardArena {
    /// Blocks one shard's idle pool retains (shards hold one block per
    /// keyword origin of *their* set, typically just a few).
    pub const MAX_IDLE_STATES: usize = 8;

    /// Take a block, reusing an idle one when available.
    pub fn checkout(&mut self) -> DijkstraState {
        match self.idle.pop() {
            Some(state) => {
                self.states_reused += 1;
                state
            }
            None => {
                self.states_created += 1;
                DijkstraState::new()
            }
        }
    }

    /// Return a block (dropped once the pool is full; its retained
    /// buffers are clamped by the shrink policy).
    pub fn recycle(&mut self, mut state: DijkstraState) {
        if self.idle.len() < Self::MAX_IDLE_STATES {
            state.shrink(SearchArena::RETAINED_HEAP_ENTRIES);
            self.idle.push(state);
        }
    }

    /// Number of idle pooled blocks.
    pub fn pooled_states(&self) -> usize {
        self.idle.len()
    }

    /// `(created, reused)` checkout counters since construction.
    pub fn state_counters(&self) -> (u64, u64) {
        (self.states_created, self.states_reused)
    }

    /// Bytes retained by the idle blocks.
    pub fn retained_bytes(&self) -> usize {
        self.idle.iter().map(DijkstraState::retained_bytes).sum()
    }
}

/// Merge-stage scratch of the parallel executor: one path map per
/// Dijkstra iterator (`node → (parent, edge weight)`, filled from
/// settled-node events in consumption order), pooled so steady-state
/// parallel serving reuses the maps' buckets instead of reallocating.
#[derive(Debug, Default)]
pub struct MergeScratch {
    maps: Vec<FxHashMap<u32, (u32, f64)>>,
}

impl MergeScratch {
    /// Cleared maps for `n` iterators (allocation-preserving).
    pub fn maps(&mut self, n: usize) -> &mut [FxHashMap<u32, (u32, f64)>] {
        for m in self.maps.iter_mut().take(n) {
            m.clear();
        }
        while self.maps.len() < n {
            self.maps.push(FxHashMap::default());
        }
        &mut self.maps[..n]
    }

    /// Shrink policy: clamp each retained map to `max_entries` capacity
    /// and the map list itself to `max_maps`.
    pub fn shrink(&mut self, max_maps: usize, max_entries: usize) {
        self.maps.truncate(max_maps);
        for m in &mut self.maps {
            if m.capacity() > max_entries {
                m.clear();
                m.shrink_to(max_entries);
            }
        }
    }

    /// Approximate bytes retained by the pooled maps.
    pub fn retained_bytes(&self) -> usize {
        self.maps
            .iter()
            .map(|m| m.capacity() * std::mem::size_of::<(u32, (u32, f64))>())
            .sum()
    }
}

/// Cooperative cancellation for one in-flight search.
///
/// The serving layer arms the token with the request's absolute
/// deadline before dispatching a search; the expansion loops poll
/// [`DeadlineToken::expired`] once per pop. A poll reads the monotonic
/// clock only every [`DeadlineToken::POLL_INTERVAL`] calls, so the hot
/// loop pays one decrement-and-branch per pop. Unarmed (the default),
/// every poll is `false` — searches outside a server never expire.
#[derive(Debug, Default)]
pub struct DeadlineToken {
    deadline: Option<std::time::Instant>,
    expired: bool,
    countdown: u32,
}

impl DeadlineToken {
    /// Polls between clock reads. At BANKS pop rates (millions/s) this
    /// bounds deadline overshoot to well under a millisecond.
    pub const POLL_INTERVAL: u32 = 256;

    /// Arm with an absolute deadline (`None` disarms). Resets the
    /// sticky expired flag; the first poll after arming reads the
    /// clock, so an already-lapsed deadline is caught immediately.
    pub fn arm(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        self.expired = false;
        self.countdown = 0;
    }

    /// Disarm the token (between queries on a pooled arena).
    pub fn clear(&mut self) {
        self.arm(None);
    }

    /// Has the armed deadline passed? Sticky once `true` until re-armed.
    #[inline]
    pub fn expired(&mut self) -> bool {
        if self.expired {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.countdown = Self::POLL_INTERVAL;
        self.expired = std::time::Instant::now() >= deadline;
        self.expired
    }
}

/// Pooled scratch memory for one search worker.
///
/// Owns idle [`DijkstraState`] blocks plus the kernel's origin-list and
/// cross-product buffers. One arena serves one thread at a time; a server
/// gives each worker thread its own persistent arena, and its states serve
/// any graph, so the arena outlives ingestion epochs unchanged.
///
/// **Memory.** The backward search checks out one state per keyword
/// origin, and each state grows only with the nodes its iterator
/// reaches — a query costs O(visited) across its iterators, whatever
/// the graph's size. So that one broad query cannot permanently inflate
/// a long-lived worker, the idle pool retains at most
/// [`SearchArena::MAX_IDLE_STATES`] states, each clamped to
/// [`SearchArena::RETAINED_HEAP_ENTRIES`] records and queue entries;
/// excess states are freed on recycle.
#[derive(Debug, Default)]
pub struct SearchArena {
    /// Per-query trace spans. Disabled by default (one branch per probe
    /// point); the serving layer enables it for traced queries and
    /// drains it after the search returns.
    pub spans: banks_telemetry::SpanBuffer,
    idle: Vec<DijkstraState>,
    /// Flattened `u.Lᵢ` origin lists.
    pub lists: OriginListPool,
    /// Cross-product enumeration buffers.
    pub cross: CrossScratch,
    /// Per-shard state pools for the parallel executor, one per keyword
    /// set (grown on demand; see [`SearchArena::shard_pools`]).
    shards: Vec<ShardArena>,
    /// Merge-stage path maps for the parallel executor.
    pub merge: MergeScratch,
    /// Cooperative-cancellation token polled by the expansion loops.
    pub deadline: DeadlineToken,
    states_created: u64,
    states_reused: u64,
}

impl SearchArena {
    /// An empty arena; memory is acquired on first use and retained.
    pub fn new() -> SearchArena {
        SearchArena::default()
    }

    /// Take a state block, reusing an idle one when one exists. The
    /// block is reset by [`crate::Dijkstra::new_in`].
    pub fn checkout(&mut self) -> DijkstraState {
        match self.idle.pop() {
            Some(state) => {
                self.states_reused += 1;
                state
            }
            None => {
                self.states_created += 1;
                DijkstraState::new()
            }
        }
    }

    /// Blocks the idle pool retains; recycling beyond this frees the
    /// block instead, bounding a worker's steady-state footprint at
    /// this cap × the per-state clamp below, even after one query with
    /// an unusually broad keyword set.
    pub const MAX_IDLE_STATES: usize = 32;

    /// Node records and distance-queue entries a recycled block keeps
    /// (the shrink policy of [`DistHeap::shrink_to_entries`]): ~16 K of
    /// each, ≈ 256 KiB of queue plus about 1 MiB of records.
    pub const RETAINED_HEAP_ENTRIES: usize = 1 << 14;

    /// Origin-list pool entries retained between queries (~512 KiB).
    pub const RETAINED_LIST_ENTRIES: usize = 1 << 16;

    /// Path-map entries per pooled merge map retained between queries.
    pub const RETAINED_MERGE_ENTRIES: usize = 1 << 14;

    /// Pooled merge maps retained between queries.
    pub const RETAINED_MERGE_MAPS: usize = 64;

    /// Return a block to the pool (dropped once the pool is full; its
    /// retained buffers are clamped by the shrink policy).
    pub fn recycle(&mut self, mut state: DijkstraState) {
        if self.idle.len() < Self::MAX_IDLE_STATES {
            state.shrink(Self::RETAINED_HEAP_ENTRIES);
            self.idle.push(state);
        }
    }

    /// Number of idle pooled blocks.
    pub fn pooled_states(&self) -> usize {
        self.idle.len()
    }

    /// `(created, reused)` checkout counters since construction.
    pub fn state_counters(&self) -> (u64, u64) {
        (self.states_created, self.states_reused)
    }

    /// The sharded half of the arena: one independent [`ShardArena`] per
    /// expansion shard (keyword set), grown on demand. The returned
    /// slice borrows each pool mutably and disjointly, so the parallel
    /// executor can lend one `&mut ShardArena` to each scoped thread.
    pub fn shard_pools(&mut self, n_shards: usize) -> &mut [ShardArena] {
        while self.shards.len() < n_shards {
            self.shards.push(ShardArena::default());
        }
        &mut self.shards[..n_shards]
    }

    /// End-of-query shrink policy: drop per-query content and clamp
    /// every pooled buffer to its retention cap, so one pathological
    /// query cannot pin its worst-case footprint in a worker forever.
    pub fn trim(&mut self) {
        self.lists.shrink(Self::RETAINED_LIST_ENTRIES);
        self.merge
            .shrink(Self::RETAINED_MERGE_MAPS, Self::RETAINED_MERGE_ENTRIES);
    }

    /// Bytes currently pinned by the arena's pooled memory (idle state
    /// blocks, origin lists, cross-product scratch, shard pools, merge
    /// maps) — surfaced as `SearchStats::arena_retained_bytes`.
    pub fn retained_bytes(&self) -> usize {
        self.idle
            .iter()
            .map(DijkstraState::retained_bytes)
            .sum::<usize>()
            + self.lists.retained_bytes()
            + self.cross.retained_bytes()
            + self
                .shards
                .iter()
                .map(ShardArena::retained_bytes)
                .sum::<usize>()
            + self.merge.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_forgets_every_record() {
        let mut s = DijkstraState::new();
        s.start(2, 1.5);
        s.settle(2);
        assert!(s.is_settled(2));
        s.reset();
        assert!(!s.is_settled(2));
        assert_eq!(s.settled_count(), 0);
        // A forgotten node relaxes as if never reached.
        assert!(s.relax(2, 9.0, NIL, NIL));
        assert!(!s.relax(2, 9.5, NIL, NIL), "no improvement");
        s.settle(2);
        assert_eq!(s.settled(2).map(|r| r.dist), Some(9.0));
        assert!(!s.relax(2, 1.0, NIL, NIL), "settled is final");
    }

    #[test]
    fn one_state_serves_a_grown_graph() {
        // The ingest-epoch contract: a worker's pooled state, used on one
        // snapshot, must serve the next, larger one.
        use crate::{Dijkstra, Direction, GraphBuilder};
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(1.0);
        let n1 = b.add_node(1.0);
        b.add_edge(n0, n1, 1.0);
        let small = b.build();
        let mut arena = SearchArena::new();
        let mut it = Dijkstra::new_in(&small, n0, Direction::Forward, arena.checkout());
        assert_eq!(it.by_ref().count(), 2);
        arena.recycle(it.into_state());

        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        let grown = b.build();
        let mut it = Dijkstra::new_in(&grown, nodes[0], Direction::Forward, arena.checkout());
        let last = it.by_ref().last().expect("origin is always yielded");
        assert_eq!((last.node, last.dist), (nodes[4], 4.0), "node 4 reachable");
        assert_eq!(arena.state_counters(), (1, 1), "the one state was reused");
    }

    #[test]
    fn origin_lists_preserve_insertion_order() {
        let mut p = OriginListPool::default();
        p.reset(3);
        let b7 = p.ensure(7);
        let b9 = p.ensure(9);
        assert_eq!(p.ensure(7), b7, "ensure is idempotent");
        p.push(b7, 0, 100);
        p.push(b7, 0, 101);
        p.push(b7, 2, 200);
        p.push(b9, 0, 300);
        assert_eq!(p.iter(b7, 0).collect::<Vec<_>>(), vec![100, 101]);
        assert_eq!(p.iter(b7, 1).collect::<Vec<_>>(), Vec::<u32>::new());
        assert_eq!(p.iter(b7, 2).collect::<Vec<_>>(), vec![200]);
        assert_eq!(p.iter(b9, 0).collect::<Vec<_>>(), vec![300]);
        assert_eq!(p.len(b7, 0), 2);
        // Walk the links by hand: head → next → NIL.
        let h = p.head(b7, 0);
        assert_eq!(p.origin(h), 100);
        assert_eq!(p.origin(p.next(h)), 101);
        assert_eq!(p.next(p.next(h)), NIL);
        // Reset keeps capacity but drops content.
        p.reset(2);
        let b = p.ensure(7);
        assert_eq!(p.len(b, 0), 0);
    }

    #[test]
    fn arena_pools_states() {
        let mut a = SearchArena::new();
        let s1 = a.checkout();
        let s2 = a.checkout();
        assert_eq!(a.state_counters(), (2, 0));
        a.recycle(s1);
        a.recycle(s2);
        assert_eq!(a.pooled_states(), 2);
        let _s = a.checkout();
        assert_eq!(a.state_counters(), (2, 1));
        assert_eq!(a.pooled_states(), 1);
    }

    #[test]
    fn idle_pool_is_bounded() {
        let mut a = SearchArena::new();
        let blocks: Vec<_> = (0..SearchArena::MAX_IDLE_STATES + 10)
            .map(|_| a.checkout())
            .collect();
        for b in blocks {
            a.recycle(b);
        }
        assert_eq!(
            a.pooled_states(),
            SearchArena::MAX_IDLE_STATES,
            "one broad query must not permanently inflate the pool"
        );
    }

    #[test]
    fn shard_pools_grow_on_demand_and_pool_independently() {
        use crate::{Dijkstra, Direction, GraphBuilder};
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 1.0);
        let g = b.build();
        // A used state retains its record table and queue buffer.
        let run = |state| {
            let mut it = Dijkstra::new_in(&g, x, Direction::Forward, state);
            it.by_ref().for_each(drop);
            it.into_state()
        };
        let mut a = SearchArena::new();
        let pools = a.shard_pools(3);
        assert_eq!(pools.len(), 3);
        let s0 = run(pools[0].checkout());
        let s1 = run(pools[1].checkout());
        pools[0].recycle(s0);
        pools[1].recycle(s1);
        assert_eq!(pools[0].pooled_states(), 1);
        assert_eq!(pools[1].pooled_states(), 1);
        assert_eq!(pools[2].pooled_states(), 0);
        assert_eq!(pools[0].state_counters(), (1, 0));
        let _warm = pools[0].checkout();
        assert_eq!(pools[0].state_counters(), (1, 1));
        // Re-request keeps the existing pools (and their contents).
        let pools = a.shard_pools(2);
        assert_eq!(pools[1].pooled_states(), 1);
        // Shard pools count toward the arena's retained bytes.
        assert!(a.retained_bytes() > 0);
    }

    #[test]
    fn shard_recycle_caps_pool_and_queue() {
        let mut p = ShardArena::default();
        let blocks: Vec<_> = (0..ShardArena::MAX_IDLE_STATES + 4)
            .map(|_| {
                let mut s = p.checkout();
                for i in 0..100_000u32 {
                    s.heap.push(i as f64, i % 4);
                    s.start(i, i as f64);
                }
                s
            })
            .collect();
        for b in blocks {
            p.recycle(b);
        }
        assert_eq!(p.pooled_states(), ShardArena::MAX_IDLE_STATES);
        // The record table rounds its clamp up to a power-of-two bucket
        // count: at most two buckets per retained entry.
        let record_bytes = 2 * (std::mem::size_of::<(u32, NodeRecord)>() + 1);
        assert!(
            p.retained_bytes()
                <= ShardArena::MAX_IDLE_STATES
                    * SearchArena::RETAINED_HEAP_ENTRIES
                    * (16 + record_bytes),
            "recycled queue and record buffers must be clamped by the shrink policy"
        );
    }

    #[test]
    fn trim_unpins_a_huge_query() {
        let mut a = SearchArena::new();
        a.lists.reset(2);
        for node in 0..200_000u32 {
            let base = a.lists.ensure(node);
            a.lists.push(base, 0, node);
        }
        let maps = a.merge.maps(4);
        for m in maps.iter_mut() {
            for i in 0..100_000u32 {
                m.insert(i, (i, 0.0));
            }
        }
        let before = a.retained_bytes();
        a.trim();
        let after = a.retained_bytes();
        assert!(
            after < before / 4,
            "trim must release the bulk of a pathological query's memory \
             ({before} -> {after})"
        );
        // The pools remain usable after trimming.
        a.lists.reset(2);
        let base = a.lists.ensure(7);
        a.lists.push(base, 1, 9);
        assert_eq!(a.lists.iter(base, 1).collect::<Vec<_>>(), vec![9]);
        assert_eq!(a.merge.maps(2).len(), 2);
    }
}
