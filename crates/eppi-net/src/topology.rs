//! Ring topology and coordinator selection (Fig. 3 of the paper).
//!
//! SecSumShare distributes a provider's `k`-th share to its `k`-th ring
//! successor, and aggregates super-shares at `c` *coordinators* — the
//! paper uses providers `p_0 … p_{c−1}` for simplicity, as do we.

use crate::NodeId;

/// A logical ring over `m` nodes with `c` designated coordinators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    nodes: usize,
    coordinators: usize,
}

impl Ring {
    /// Creates a ring of `nodes` providers with the first `coordinators`
    /// acting as share aggregators.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `coordinators == 0`, or
    /// `coordinators > nodes`.
    pub fn new(nodes: usize, coordinators: usize) -> Self {
        assert!(nodes >= 1, "ring needs at least one node");
        assert!(coordinators >= 1, "at least one coordinator required");
        assert!(
            coordinators <= nodes,
            "cannot have more coordinators ({coordinators}) than nodes ({nodes})"
        );
        Ring {
            nodes,
            coordinators,
        }
    }

    /// Number of nodes `m`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of coordinators `c`.
    pub fn coordinators(&self) -> usize {
        self.coordinators
    }

    /// The `k`-hop ring successor of `node`: `p_{(i+k) mod m}`.
    pub fn successor(&self, node: NodeId, k: usize) -> NodeId {
        NodeId((node.index() + k) % self.nodes)
    }

    /// Whether `node` is a coordinator.
    pub fn is_coordinator(&self, node: NodeId) -> bool {
        node.index() < self.coordinators
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_wraps() {
        let r = Ring::new(5, 3);
        assert_eq!(r.successor(NodeId(0), 0), NodeId(0));
        assert_eq!(r.successor(NodeId(0), 2), NodeId(2));
        assert_eq!(r.successor(NodeId(4), 1), NodeId(0));
        assert_eq!(r.successor(NodeId(3), 4), NodeId(2));
    }

    #[test]
    fn coordinators_are_prefix() {
        let r = Ring::new(5, 3);
        assert!(r.is_coordinator(NodeId(2)));
        assert!(!r.is_coordinator(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "more coordinators")]
    fn too_many_coordinators_rejected() {
        Ring::new(2, 3);
    }
}
