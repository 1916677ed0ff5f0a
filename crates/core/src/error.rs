//! Error types for instance construction and solving.

use std::error::Error;
use std::fmt;

/// Error constructing an [`Instance`](crate::Instance).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The instance has no posts.
    NoPosts,
    /// Fewer sensor nodes than posts: every post needs at least one.
    TooFewNodes {
        /// Nodes available.
        nodes: u32,
        /// Posts to cover.
        posts: usize,
    },
    /// Even at full per-post capacity the nodes do not fit.
    CapacityTooSmall {
        /// Nodes to place.
        nodes: u32,
        /// Total capacity `cap × posts`.
        capacity: u64,
    },
    /// Some posts cannot reach the base station at any power level.
    Disconnected {
        /// The unreachable posts.
        unreachable: Vec<usize>,
    },
    /// An explicit uplink referenced a node that does not exist.
    BadLink {
        /// Source post.
        from: usize,
        /// Destination node index.
        to: usize,
    },
    /// A per-post profile vector (report rates / sensing energies) has
    /// the wrong length.
    BadProfile {
        /// Which profile.
        what: &'static str,
        /// Entries supplied.
        got: usize,
        /// Posts in the instance.
        expected: usize,
    },
    /// A profile entry is non-finite, non-positive (rates), or negative
    /// (energies).
    InvalidProfileValue {
        /// Which profile.
        what: &'static str,
    },
    /// A radio, transmit-level or charging parameter lies outside the
    /// domain of the constructor it feeds.
    InvalidParameter {
        /// The parameter, as [`InstanceSpec`](crate::InstanceSpec) names
        /// it (`eta`, `gain exponent`, `ranges_m`, …).
        what: &'static str,
        /// Its domain.
        expected: &'static str,
    },
    /// The receive energy, or a link's transmit energy or edge weight
    /// (tx plus rx below a post), is negative or not finite, or the edge
    /// weight is zero.
    InvalidEnergy {
        /// The first bad uplink as `(from, to)`, or `None` for the
        /// receive energy.
        link: Option<(usize, usize)>,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoPosts => write!(f, "instance has no posts"),
            BuildError::TooFewNodes { nodes, posts } => {
                write!(f, "{nodes} nodes cannot cover {posts} posts")
            }
            BuildError::CapacityTooSmall { nodes, capacity } => {
                write!(f, "{nodes} nodes exceed total post capacity {capacity}")
            }
            BuildError::Disconnected { unreachable } => write!(
                f,
                "{} post(s) cannot reach the base station (first: {:?})",
                unreachable.len(),
                unreachable.first()
            ),
            BuildError::BadLink { from, to } => {
                write!(f, "uplink from post {from} to nonexistent node {to}")
            }
            BuildError::BadProfile {
                what,
                got,
                expected,
            } => {
                write!(f, "{what}: {got} entries for {expected} posts")
            }
            BuildError::InvalidProfileValue { what } => {
                write!(f, "invalid {what} (must be finite and in range)")
            }
            BuildError::InvalidParameter { what, expected } => {
                write!(f, "{what} must be {expected}")
            }
            BuildError::InvalidEnergy { link: None } => {
                write!(f, "rx energy must be finite and non-negative")
            }
            BuildError::InvalidEnergy {
                link: Some((from, to)),
            } => write!(
                f,
                "energy of uplink {from} -> {to} must be finite and non-negative, \
                 with a positive routing weight"
            ),
        }
    }
}

impl Error for BuildError {}

/// Error returned by a [`Solver`](crate::Solver).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// An exhaustive search would enumerate more deployments than its
    /// configured limit.
    SearchSpaceTooLarge {
        /// Deployments the search would visit.
        combinations: u128,
        /// The solver's configured ceiling.
        limit: u128,
    },
    /// The instance became unroutable under a candidate deployment — only
    /// possible for hand-built explicit instances with directed links.
    Unroutable {
        /// A post with no route to the base station.
        post: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::SearchSpaceTooLarge {
                combinations,
                limit,
            } => write!(
                f,
                "search space of {combinations} deployments exceeds limit {limit}"
            ),
            SolveError::Unroutable { post } => {
                write!(f, "post {post} has no route to the base station")
            }
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_error_messages() {
        let errors: Vec<BuildError> = vec![
            BuildError::NoPosts,
            BuildError::TooFewNodes { nodes: 3, posts: 5 },
            BuildError::CapacityTooSmall {
                nodes: 10,
                capacity: 8,
            },
            BuildError::Disconnected {
                unreachable: vec![2, 4],
            },
            BuildError::BadLink { from: 1, to: 9 },
            BuildError::BadProfile {
                what: "report rates",
                got: 2,
                expected: 3,
            },
            BuildError::InvalidProfileValue {
                what: "report rate",
            },
            BuildError::InvalidParameter {
                what: "eta",
                expected: "in (0, 1]",
            },
            BuildError::InvalidEnergy { link: None },
            BuildError::InvalidEnergy { link: Some((0, 3)) },
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn solve_error_messages() {
        let errors = [
            SolveError::SearchSpaceTooLarge {
                combinations: 1 << 40,
                limit: 1 << 20,
            },
            SolveError::Unroutable { post: 3 },
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<BuildError>();
        assert_error::<SolveError>();
    }
}
