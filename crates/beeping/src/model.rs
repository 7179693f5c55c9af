//! Core model types: node status, round verdicts, network information.

use core::fmt;

/// Lifecycle state of a node in the simulator, mirroring the automaton of
/// Figure 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Participating: may beep and listen.
    Active,
    /// Joined the independent set; inactive (terminal).
    InMis,
    /// A neighbour joined the independent set; inactive (terminal).
    Covered,
    /// Not yet woken (fault injection); neither beeps nor listens.
    Asleep,
}

impl NodeStatus {
    /// Whether the node has reached a terminal state.
    #[must_use]
    pub fn is_inactive(self) -> bool {
        matches!(self, NodeStatus::InMis | NodeStatus::Covered)
    }
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeStatus::Active => "active",
            NodeStatus::InMis => "in-MIS",
            NodeStatus::Covered => "covered",
            NodeStatus::Asleep => "asleep",
        };
        f.write_str(s)
    }
}

/// A node's decision at the end of a round, returned by
/// [`BeepingProcess::end_round`](crate::BeepingProcess::end_round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Remain active into the next round.
    Continue,
    /// Join the independent set and become inactive.
    JoinMis,
    /// A neighbour joined; become inactive as a covered node.
    Covered,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Continue => "continue",
            Verdict::JoinMis => "join-MIS",
            Verdict::Covered => "covered",
        };
        f.write_str(s)
    }
}

/// Global network facts available to a [`ProcessFactory`](crate::ProcessFactory)
/// when instantiating per-node processes.
///
/// The paper's feedback algorithm ignores all of this (its nodes are
/// anonymous and uninformed); the original Science'11 schedule of Afek et
/// al. needs `node_count` and `max_degree`, which is exactly why it is
/// interesting to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkInfo {
    /// Total number of nodes `n`.
    pub node_count: usize,
    /// Maximum degree Δ of the graph.
    pub max_degree: usize,
}

impl fmt::Display for NetworkInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}, Δ={}", self.node_count, self.max_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_statuses() {
        assert!(NodeStatus::InMis.is_inactive());
        assert!(NodeStatus::Covered.is_inactive());
        assert!(!NodeStatus::Active.is_inactive());
        assert!(!NodeStatus::Asleep.is_inactive());
    }

    #[test]
    fn displays_are_nonempty() {
        for s in [
            NodeStatus::Active,
            NodeStatus::InMis,
            NodeStatus::Covered,
            NodeStatus::Asleep,
        ] {
            assert!(!s.to_string().is_empty());
        }
        for v in [Verdict::Continue, Verdict::JoinMis, Verdict::Covered] {
            assert!(!v.to_string().is_empty());
        }
        let info = NetworkInfo {
            node_count: 5,
            max_degree: 2,
        };
        assert!(info.to_string().contains("n=5"));
    }
}
