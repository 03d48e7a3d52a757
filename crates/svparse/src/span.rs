//! Source locations.
//!
//! Every AST item carries a [`Span`] recording the 1-based line range it came from.
//! Spans are what connect the model's "buggy line" answers back to the source text.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open region of source text identified by 1-based line numbers.
///
/// Column information is intentionally not tracked: the AssertSolver task is defined
/// at line granularity ("the buggy line snippet and the corresponding correct code").
///
/// # Examples
///
/// ```
/// use svparse::Span;
/// let s = Span::line(3);
/// assert_eq!(s.start_line, 3);
/// assert_eq!(s.to_string(), "line 3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Span {
    /// First line covered by the span (1-based).
    pub start_line: u32,
    /// Last line covered by the span (inclusive, 1-based).
    pub(crate) end_line: u32,
}

impl Span {
    /// Creates a span covering the inclusive line range `start..=end`.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = svparse::Span::new(2, 5);
    /// assert_eq!(s.to_string(), "lines 2-5");
    /// ```
    pub fn new(start_line: u32, end_line: u32) -> Self {
        Self {
            start_line,
            end_line: end_line.max(start_line),
        }
    }

    /// Creates a span covering a single line.
    pub fn line(line: u32) -> Self {
        Self::new(line, line)
    }

    /// A placeholder span for synthesised nodes that have no source location yet.
    pub fn synthetic() -> Self {
        Self::new(0, 0)
    }

    /// Returns `true` if this span was produced by [`Span::synthetic`].
    pub(crate) fn is_synthetic(&self) -> bool {
        self.start_line == 0
    }

    /// Returns the smallest span covering both `self` and `other`.
    ///
    /// Synthetic spans are ignored so that merging with a placeholder does not
    /// accidentally stretch the result down to line zero.
    pub fn merge(&self, other: Span) -> Span {
        if self.is_synthetic() {
            return other;
        }
        if other.is_synthetic() {
            return *self;
        }
        Span::new(
            self.start_line.min(other.start_line),
            self.end_line.max(other.end_line),
        )
    }
}

impl Default for Span {
    fn default() -> Self {
        Self::synthetic()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start_line == self.end_line {
            write!(f, "line {}", self.start_line)
        } else {
            write!(f, "lines {}-{}", self.start_line, self.end_line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_extremes() {
        let a = Span::new(3, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.merge(b), Span::new(3, 9));
    }

    #[test]
    fn merge_ignores_synthetic() {
        let a = Span::new(3, 5);
        assert_eq!(a.merge(Span::synthetic()), a);
        assert_eq!(Span::synthetic().merge(a), a);
    }

    #[test]
    fn display_single_and_range() {
        assert_eq!(Span::line(7).to_string(), "line 7");
        assert_eq!(Span::new(2, 4).to_string(), "lines 2-4");
    }

    #[test]
    fn end_never_precedes_start() {
        let s = Span::new(9, 3);
        assert_eq!(s.end_line, 9);
    }
}
