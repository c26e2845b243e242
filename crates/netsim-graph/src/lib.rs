//! # netsim-graph
//!
//! Topology substrate for the Byzantine counting reproduction.
//!
//! This crate implements the network model of *"Network Size Estimation in
//! Small-World Networks under Byzantine Faults"* (Chatterjee, Pandurangan,
//! Robinson):
//!
//! * the `H(n, d)` random regular graph model — the union of `d/2` uniformly
//!   random Hamiltonian cycles on `n` labelled nodes ([`hgraph`]),
//! * the small-world overlay `G = H ∪ L`, where `L` connects every pair of
//!   nodes within `H`-distance `k = ⌈d/3⌉` ([`smallworld`]),
//! * the Watts–Strogatz ring model used for comparison ([`watts_strogatz`]),
//! * graph analytics used by the paper's analysis: BFS balls and boundaries
//!   ([`bfs`]), locally-tree-like classification ([`treelike`]), the node
//!   category partition of Definition 9 ([`categories`]), spectral gap and
//!   edge-expansion estimation ([`expansion`]), clustering coefficients and
//!   diameter ([`metrics`]).
//!
//! All generators take an explicit RNG so that every experiment in the
//! workspace is reproducible from a single seed.
//!
//! ```
//! use netsim_graph::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let net = SmallWorldNetwork::generate(SmallWorldConfig::new(256, 8), &mut rng).unwrap();
//! assert_eq!(net.len(), 256);
//! assert_eq!(net.h().degree(NodeId(0)), 8);
//! assert!(net.k() >= 2);
//! ```

pub mod bfs;
pub mod categories;
pub mod csr;
pub mod error;
pub mod expansion;
pub mod hgraph;
pub mod ids;
pub mod metrics;
pub mod row;
pub mod smallworld;
pub mod treelike;
pub mod trees;
pub mod watts_strogatz;

pub use categories::{CategoryCounts, NodeCategories};
pub use csr::Csr;
pub use error::GraphError;
pub use expansion::{ExpansionEstimate, SpectralEstimate};
pub use hgraph::HGraph;
pub use ids::{NodeId, NodeLabel};
pub use smallworld::{SmallWorldConfig, SmallWorldNetwork};
pub use treelike::TreeLikeReport;
pub use trees::{balanced_tree, random_tree};
pub use watts_strogatz::WattsStrogatz;

/// Convenient re-exports for downstream crates.
pub mod prelude {
    pub use crate::bfs::{ball, bfs_distances, boundary, multi_source_distances};
    pub use crate::categories::{CategoryCounts, NodeCategories};
    pub use crate::csr::Csr;
    pub use crate::error::GraphError;
    pub use crate::expansion::{ExpansionEstimate, SpectralEstimate};
    pub use crate::hgraph::HGraph;
    pub use crate::ids::{NodeId, NodeLabel};
    pub use crate::metrics::{average_clustering, diameter_estimate, local_clustering};
    pub use crate::smallworld::{SmallWorldConfig, SmallWorldNetwork};
    pub use crate::treelike::{locally_tree_like_radius, TreeLikeReport};
    pub use crate::trees::{balanced_tree, random_tree};
    pub use crate::watts_strogatz::WattsStrogatz;
}

/// Base-2 logarithm of `n` as an `f64`, with `log2(0) = 0` and `log2(1) = 0`.
///
/// The paper's analysis is phrased entirely in terms of `log n`; this helper
/// keeps the convention consistent across crates.
#[inline]
pub fn log2n(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        (n as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2n_small_values() {
        assert_eq!(log2n(0), 0.0);
        assert_eq!(log2n(1), 0.0);
        assert_eq!(log2n(2), 1.0);
        assert_eq!(log2n(1024), 10.0);
    }

    #[test]
    fn log2n_is_monotone() {
        let mut prev = -1.0;
        for n in 1..200 {
            let v = log2n(n);
            assert!(v >= prev, "log2n must be monotone");
            prev = v;
        }
    }
}
