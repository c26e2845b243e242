//! What the adversary knows.
//!
//! The full-information adversary knows the entire network: the topology
//! (including which edges belong to `H` — information honest nodes have to
//! reconstruct), the protocol parameters and schedule, and (via
//! [`netsim_runtime::AdversaryView`]) every message queued each round,
//! before it chooses its own.  [`AdversaryKnowledge`] packages the static
//! part so that the concrete strategies can be constructed once and then
//! moved into the engine.

use byzcount_core::{ProtocolParams, Schedule};
use netsim_graph::{NodeId, SmallWorldNetwork};
use serde::{Deserialize, Serialize};

/// Per-Byzantine-node static information.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ByzantineNodeInfo {
    /// The Byzantine node.
    pub node: NodeId,
    /// Its true `H`-neighbours (ground truth — the adversary knows the
    /// topology even though honest nodes must reconstruct it).
    pub h_neighbors: Vec<u32>,
    /// Its `G`-neighbours.
    pub g_neighbors: Vec<u32>,
}

/// Static knowledge shared by all adversary strategies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdversaryKnowledge {
    /// Network size (the very quantity the honest nodes are estimating —
    /// the adversary is allowed to know it).
    pub n: usize,
    /// Protocol parameters in force.
    pub params: ProtocolParams,
    /// The phase/subphase schedule all nodes follow.
    pub schedule: Schedule,
    /// The corrupted nodes and their neighbourhoods.
    pub byzantine: Vec<ByzantineNodeInfo>,
}

impl AdversaryKnowledge {
    /// Gather the static knowledge for a network, parameter set and
    /// Byzantine mask.
    pub fn gather(net: &SmallWorldNetwork, params: &ProtocolParams, byzantine: &[bool]) -> Self {
        assert_eq!(byzantine.len(), net.len(), "byzantine mask length mismatch");
        let byz_info: Vec<ByzantineNodeInfo> = byzantine
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| {
                let v = NodeId::from_index(i);
                let mut h: Vec<u32> = net.h_neighbors(v).to_vec();
                h.dedup();
                ByzantineNodeInfo {
                    node: v,
                    h_neighbors: h,
                    g_neighbors: net.g_neighbors(v).to_vec(),
                }
            })
            .collect();
        AdversaryKnowledge {
            n: net.len(),
            params: *params,
            schedule: Schedule::new(params.d, params.epsilon),
            byzantine: byz_info,
        }
    }

    /// Number of corrupted nodes.
    pub fn byzantine_count(&self) -> usize {
        self.byzantine.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    #[test]
    fn gather_collects_neighborhoods_of_byzantine_nodes_only() {
        let net = SmallWorldNetwork::generate_seeded(200, 8, 1).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let placement = Placement::random(net.len(), 7, 3);
        let k = AdversaryKnowledge::gather(&net, &params, placement.mask());
        assert_eq!(k.byzantine_count(), 7);
        assert_eq!(k.n, 200);
        for info in &k.byzantine {
            assert!(placement.is_byzantine(info.node));
            assert!(!info.h_neighbors.is_empty());
            assert!(info.g_neighbors.len() >= info.h_neighbors.len());
            // Every H-neighbour is also a G-neighbour.
            for h in &info.h_neighbors {
                assert!(info.g_neighbors.contains(h));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mask_length_is_validated() {
        let net = SmallWorldNetwork::generate_seeded(64, 8, 2).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let _ = AdversaryKnowledge::gather(&net, &params, &[false; 3]);
    }
}
