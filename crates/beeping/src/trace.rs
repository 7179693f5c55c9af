//! Optional per-round event recording.

use core::fmt;

use mis_graph::NodeId;

/// How much per-round detail the simulator records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing (default; zero overhead).
    #[default]
    Off,
    /// Record one [`RoundRecord`] per round (counts and joins).
    Rounds,
}

/// Summary of one simulated round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Nodes that emitted a candidate beep in exchange 1.
    pub candidates: u32,
    /// Nodes that joined the MIS this round.
    pub joined: Vec<NodeId>,
    /// Nodes that became covered this round.
    pub covered: u32,
    /// Active nodes remaining after the round.
    pub active_after: u32,
}

impl fmt::Display for RoundRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {}: {} candidates, {} joined, {} covered, {} active left",
            self.round,
            self.candidates,
            self.joined.len(),
            self.covered,
            self.active_after
        )
    }
}

/// The recorded sequence of rounds (empty unless tracing was enabled).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<RoundRecord>,
}

impl Trace {
    pub(crate) fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// Recorded rounds, oldest first.
    #[must_use]
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of join events across the trace.
    #[must_use]
    pub fn total_joins(&self) -> usize {
        self.records.iter().map(|r| r.joined.len()).sum()
    }

    /// Renders the trace as CSV
    /// (`round,candidates,joined,covered,active_after`), with the joined
    /// node list semicolon-separated inside its cell.
    ///
    /// # Examples
    ///
    /// ```
    /// let trace = mis_beeping::Trace::default();
    /// assert!(trace.to_csv().starts_with("round,"));
    /// ```
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,candidates,joined,covered,active_after\n");
        for r in &self.records {
            let joined: Vec<String> = r.joined.iter().map(ToString::to_string).collect();
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.round,
                r.candidates,
                joined.join(";"),
                r.covered,
                r.active_after
            ));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(empty trace)");
        }
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(RoundRecord {
            round: 0,
            candidates: 3,
            joined: vec![1, 4],
            covered: 3,
            active_after: 2,
        });
        t.push(RoundRecord {
            round: 1,
            candidates: 1,
            joined: vec![0],
            covered: 1,
            active_after: 0,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_joins(), 3);
        assert_eq!(t.records()[1].round, 1);
    }

    #[test]
    fn csv_round_trips_fields() {
        let mut t = Trace::default();
        t.push(RoundRecord {
            round: 0,
            candidates: 2,
            joined: vec![3, 5],
            covered: 4,
            active_after: 1,
        });
        let csv = t.to_csv();
        assert!(csv.contains("0,2,3;5,4,1"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn displays() {
        let mut t = Trace::default();
        assert!(t.to_string().contains("empty"));
        t.push(RoundRecord::default());
        assert!(t.to_string().contains("round 0"));
    }
}
