//! Task selection policies — the environment/adversary's knob.
//!
//! When a job is `α`-deprived (its allotment is smaller than its
//! desire), *something* must decide which of the ready `α`-tasks
//! actually run. The paper's model leaves this to the environment: the
//! scheduler is non-clairvoyant, but the adversary of Theorem 1
//! deliberately runs critical-path tasks *last*. These policies are
//! therefore allowed to be clairvoyant (they may inspect task heights).

use ktelemetry::json;
use std::fmt;

/// Policy for choosing which ready tasks execute when a job receives
/// fewer processors than its desire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectionPolicy {
    /// First-in-first-out over readiness order (the "neutral" default).
    Fifo,
    /// Last-in-first-out over readiness order (depth-first flavor).
    Lifo,
    /// Uniformly random among ready tasks (seeded by the simulator).
    Random,
    /// Greedy critical-path-first: always run the ready task with the
    /// greatest height (longest remaining chain). This is the *helpful*
    /// clairvoyant choice.
    CriticalFirst,
    /// Adversarial critical-path-last: always run the ready task with
    /// the smallest height, postponing the critical path. This is the
    /// adversary used in the Theorem 1 lower-bound construction.
    CriticalLast,
}

impl SelectionPolicy {
    /// All policies, for exhaustive testing.
    pub const ALL: [SelectionPolicy; 5] = [
        SelectionPolicy::Fifo,
        SelectionPolicy::Lifo,
        SelectionPolicy::Random,
        SelectionPolicy::CriticalFirst,
        SelectionPolicy::CriticalLast,
    ];

    /// A short stable name for tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionPolicy::Fifo => "fifo",
            SelectionPolicy::Lifo => "lifo",
            SelectionPolicy::Random => "random",
            SelectionPolicy::CriticalFirst => "critical-first",
            SelectionPolicy::CriticalLast => "critical-last",
        }
    }

    /// Parse a [`name`](SelectionPolicy::name) back into a policy.
    pub fn from_name(name: &str) -> Option<SelectionPolicy> {
        SelectionPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl json::Wire for SelectionPolicy {
    fn write(&self, out: &mut String) {
        json::push_str_lit(out, self.name());
    }
    fn read(v: &json::Value) -> Result<Self, String> {
        json::read_label(v, SelectionPolicy::from_name)
    }
}

impl fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SelectionPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SelectionPolicy::ALL.len());
        for p in SelectionPolicy::ALL {
            assert_eq!(SelectionPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(SelectionPolicy::from_name("FIFO"), None);
    }

    #[test]
    fn display_matches_name() {
        for p in SelectionPolicy::ALL {
            assert_eq!(format!("{p}"), p.name());
        }
    }
}
