//! Rendezvous (highest-random-weight) placement of lineage items onto
//! cluster nodes.
//!
//! Every `(node, key)` pair gets a pseudo-random weight from a
//! SplitMix64-style mix of the node id, the item's
//! [`content_hash`](memphis_core::LineageId::content_hash), and the
//! cluster seed; the member with the highest weight owns the key.
//! Rendezvous hashing gives HRW's minimal-disruption property for free:
//! when a node joins or leaves, the only keys whose owner changes are
//! the ones the new member now wins (or the departed member used to
//! win) — exactly the set the rebalancer is allowed to move.
//!
//! **Tie-breaking is part of the contract.** Weight ties break toward
//! the *smallest node id*, never toward whichever candidate a map
//! happened to iterate first — placement must be a pure function of
//! `(seed, members, key)` or cross-node determinism (and the
//! node-count-invariance proptests) would silently rot. With distinct
//! node ids the mix is injective, so genuine ties cannot occur in
//! practice; the rule exists so the ordering is *total* and so
//! adversarial or future weight functions cannot reintroduce
//! iteration-order dependence. [`argmax_weight`] is the single place
//! that implements the rule.

use memphis_matrix::hash::mix;
use std::cmp::Reverse;

/// Identifies one cache node in the simulated cluster.
pub type NodeId = u16;

/// HRW weight of `node` for the item with content hash `hash` under
/// cluster `seed`. Pure: no global state, no allocation.
#[inline]
pub fn hrw_weight(seed: u64, node: NodeId, hash: u64) -> u64 {
    // Odd-ize the node id so node 0 still perturbs the seed.
    mix(hash ^ mix(seed ^ (((node as u64) << 1) | 1)))
}

/// The deterministic argmax over `(node, weight)` candidates: highest
/// weight wins, ties break toward the smallest node id. Candidate
/// *order is irrelevant* — this is the property the adversarial-id
/// regression tests pin.
pub fn argmax_weight(candidates: impl IntoIterator<Item = (NodeId, u64)>) -> Option<NodeId> {
    candidates
        .into_iter()
        .max_by_key(|&(id, w)| (w, Reverse(id)))
        .map(|(id, _)| id)
}

/// The member that owns `hash`: HRW argmax over `members`.
pub fn owner_of(seed: u64, members: &[NodeId], hash: u64) -> Option<NodeId> {
    argmax_weight(members.iter().map(|&n| (n, hrw_weight(seed, n, hash))))
}

/// All members ranked by descending HRW weight (ties toward smaller
/// id). Rank 0 is the owner; replicas of a hot item live at ranks
/// `1..=R`.
pub fn rank_order(seed: u64, members: &[NodeId], hash: u64) -> Vec<NodeId> {
    let mut ranked: Vec<(NodeId, u64)> = members
        .iter()
        .map(|&n| (n, hrw_weight(seed, n, hash)))
        .collect();
    ranked.sort_by_key(|&(id, w)| (Reverse(w), id));
    ranked.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node ids chosen to stress the tie-break ordering: extremes,
    /// adjacent values, and ids whose low bits collide after shifting.
    const ADVERSARIAL_IDS: [NodeId; 6] = [0, 1, 2, u16::MAX, u16::MAX - 1, 0x8000];

    #[test]
    fn hrw_weight_is_pinned() {
        // Captured before the SplitMix64 copy moved to `memphis_matrix::hash`.
        assert_eq!(hrw_weight(42, 3, 0xdead_beef), 0x0b5e_343d_562b_97d8);
    }

    #[test]
    fn owner_is_independent_of_member_order() {
        let mut members = ADVERSARIAL_IDS.to_vec();
        for key in 0u64..256 {
            let hash = mix(key);
            let baseline = owner_of(42, &members, hash);
            // Rotate and reverse: every ordering must agree.
            for rot in 0..members.len() {
                members.rotate_left(1);
                assert_eq!(owner_of(42, &members, hash), baseline, "rotation {rot}");
            }
            members.reverse();
            assert_eq!(owner_of(42, &members, hash), baseline, "reversed");
        }
    }

    #[test]
    fn ties_break_by_smallest_node_id_not_iteration_order() {
        // Feed argmax precomputed *equal* weights in adversarial orders:
        // the winner must always be the numerically smallest node id.
        let orders: [&[NodeId]; 4] = [
            &[u16::MAX, 0x8000, 7],
            &[7, u16::MAX, 0x8000],
            &[0x8000, 7, u16::MAX],
            &[u16::MAX, 7, 7, 0x8000], // duplicate candidates
        ];
        for ids in orders {
            let tied = ids.iter().map(|&n| (n, 0xDEAD_BEEF_u64));
            assert_eq!(argmax_weight(tied), Some(7), "order {ids:?}");
        }
        // A genuine weight difference still dominates the id rule.
        let mixed = [(3u16, 10u64), (9, 11), (1, 10)];
        assert_eq!(argmax_weight(mixed), Some(9));
        assert_eq!(argmax_weight(std::iter::empty()), None);
    }

    #[test]
    fn join_only_remaps_keys_the_new_member_wins() {
        let before: Vec<NodeId> = vec![0, 1, 2, 3];
        let mut after = before.clone();
        after.push(4);
        for key in 0u64..512 {
            let hash = mix(0x5eed ^ key);
            let old = owner_of(7, &before, hash).unwrap();
            let new = owner_of(7, &after, hash).unwrap();
            if new != old {
                assert_eq!(new, 4, "an owner change on join must move TO the joiner");
            }
        }
    }

    #[test]
    fn leave_only_remaps_keys_the_departed_member_owned() {
        let before: Vec<NodeId> = vec![0, 1, 2, 3];
        let after: Vec<NodeId> = vec![0, 1, 3];
        for key in 0u64..512 {
            let hash = mix(0xFEED ^ key);
            let old = owner_of(7, &before, hash).unwrap();
            let new = owner_of(7, &after, hash).unwrap();
            if old != 2 {
                assert_eq!(new, old, "keys not owned by the leaver must not move");
            }
        }
    }

    #[test]
    fn rank_order_starts_with_owner_and_covers_members() {
        let members = ADVERSARIAL_IDS.to_vec();
        for key in 0u64..64 {
            let hash = mix(key ^ 0xA5A5);
            let ranked = rank_order(9, &members, hash);
            assert_eq!(ranked.len(), members.len());
            assert_eq!(ranked[0], owner_of(9, &members, hash).unwrap());
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            let mut want = members.clone();
            want.sort_unstable();
            assert_eq!(sorted, want, "rank order must be a permutation");
        }
    }

    #[test]
    fn placement_spreads_keys_across_nodes() {
        let members: Vec<NodeId> = (0..8).collect();
        let mut counts = [0usize; 8];
        for key in 0u64..4096 {
            let n = owner_of(1, &members, mix(key)).unwrap();
            counts[n as usize] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 8 / 2 && c < 4096 / 8 * 2,
                "node {n} got {c} of 4096 keys — HRW spread is badly skewed"
            );
        }
    }
}
