//! Single-point prediction inputs.
//!
//! PEVPM's key idea is that the time of each communication event is obtained
//! by Monte-Carlo sampling. The *baseline* prediction modes the paper
//! compares against (minimum or average single-point values, §6) are modelled
//! as degenerate point distributions, so the virtual machine is completely
//! agnostic to which prediction mode is in force.

/// Which single-point statistic a degenerate distribution reports.
///
/// These correspond to the paper's "simplistic" prediction inputs: the
/// minimum (contention-free) time and the average time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// The minimum observed time (the paper's `min` curves; what an ideal
    /// ping-pong measures in the absence of contention).
    Minimum,
    /// The arithmetic mean (what Mpptest/SKaMPI/Pallas report).
    Average,
}

impl std::fmt::Display for PointKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointKind::Minimum => write!(f, "min"),
            PointKind::Average => write!(f, "avg"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_kind_display() {
        assert_eq!(PointKind::Minimum.to_string(), "min");
        assert_eq!(PointKind::Average.to_string(), "avg");
    }
}
