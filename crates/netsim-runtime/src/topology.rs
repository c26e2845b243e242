//! The communication topology seen by the engine.
//!
//! A [`Topology`] only answers "who can node `v` talk to"; the richer
//! structure (which edges belong to `H` vs `L`, node labels, …) lives in
//! `netsim-graph` and is made available to protocols at construction time.

use netsim_graph::{Csr, NodeId, SmallWorldNetwork, WattsStrogatz};

/// Communication topology: the set of edges messages may traverse.
///
/// The one definition of an edge is membership in the sender's row: `from`
/// may send to `to` exactly when `to` appears in `neighbors(from)`.  The
/// engines drop (and count) any message violating this — Byzantine nodes
/// included, since the paper's adversary "can send messages directly only
/// to their neighbours" — and test it with a binary search of the
/// sender's row ([`netsim_graph::row::contains`]), so a row must be sorted.
pub trait Topology: Sync {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True when there are no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nodes `v` can exchange messages with, in ascending order.  An id
    /// may repeat, as a multigraph's parallel edges do in a [`Csr`] row.
    ///
    /// Sortedness is a contract, checked once for every row when an engine
    /// is built (`SyncEngine::new`, `ShardedEngine::new`): an unsorted row
    /// panics there, naming its node.  The engines' edge test reads only
    /// this row; there is no second, overridable edge method.
    fn neighbors(&self, v: NodeId) -> &[u32];
}

/// References delegate, so `&dyn Topology` (and `&T`) satisfy the engine's
/// `T: Topology` bound — the basis for spec-driven (dynamically chosen)
/// topologies.
impl<T: Topology + ?Sized> Topology for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn neighbors(&self, v: NodeId) -> &[u32] {
        (**self).neighbors(v)
    }
}

/// Panic unless every row of `topology` is sorted, naming the first node
/// whose row is not.  O(edges); the engines call it once when built.
pub(crate) fn assert_sorted_rows<T: Topology + ?Sized>(topology: &T) {
    for v in 0..topology.len() {
        let row = topology.neighbors(NodeId::from_index(v));
        if let Some(at) = row.windows(2).position(|w| w[0] > w[1]) {
            panic!(
                "node {v}'s neighbour row is not sorted (position {at}: {} before {}); \
                 a Topology must list each row in ascending order",
                row[at],
                row[at + 1]
            );
        }
    }
}

impl Topology for Csr {
    #[inline]
    fn len(&self) -> usize {
        Csr::len(self)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[u32] {
        Csr::neighbors(self, v)
    }
}

/// A small-world network communicates over `G = H ∪ L`.
impl Topology for SmallWorldNetwork {
    #[inline]
    fn len(&self) -> usize {
        SmallWorldNetwork::len(self)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[u32] {
        self.g_neighbors(v)
    }
}

/// A Watts–Strogatz graph communicates over its rewired ring lattice.
impl Topology for WattsStrogatz {
    #[inline]
    fn len(&self) -> usize {
        WattsStrogatz::len(self)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[u32] {
        self.csr().neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_topology_rows_are_sorted_edges() {
        let g = Csr::from_undirected_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(Topology::len(&g), 3);
        assert_eq!(Topology::neighbors(&g, NodeId(0)), &[1]);
        assert_eq!(Topology::neighbors(&g, NodeId(1)), &[0]);
        assert!(Topology::neighbors(&g, NodeId(2)).is_empty());
        assert!(!Topology::is_empty(&g));
        assert_sorted_rows(&g);
    }

    #[test]
    fn small_world_topology_uses_g_edges() {
        let net = SmallWorldNetwork::generate_seeded(128, 8, 3).unwrap();
        let v = NodeId(0);
        // Every H-neighbour and every L-neighbour is in the G row.
        let row = Topology::neighbors(&net, v);
        for &u in net.h_neighbors(v) {
            assert!(row.contains(&u));
        }
        assert_eq!(Topology::len(&net), 128);
        assert_sorted_rows(&net);
    }

    #[test]
    #[should_panic(expected = "node 0's neighbour row is not sorted")]
    fn an_unsorted_row_is_refused() {
        assert_sorted_rows(&crate::fixtures::UnsortedStar);
    }
}
