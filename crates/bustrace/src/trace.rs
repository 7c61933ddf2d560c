//! The [`Trace`] type: a sequence of words observed on a bus.

use std::fmt;

use crate::{Width, Word};

/// A time-ordered sequence of words observed on a bus of a fixed width.
///
/// A trace records the value presented to the bus on each cycle in which
/// the bus carried traffic. Every stored word is guaranteed to fit within
/// the trace's [`Width`]; constructors truncate or reject out-of-range
/// values so that downstream consumers (coders, energy accounting) can
/// rely on the invariant.
///
/// # Example
///
/// ```
/// use bustrace::{Trace, Width};
///
/// let trace = Trace::from_values(Width::W32, [1u64, 2, 3, 3, 3, 7]);
/// assert_eq!(trace.len(), 6);
/// assert_eq!(trace.width(), Width::W32);
/// assert_eq!(trace.values()[3], 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Trace {
    width: Width,
    values: Vec<Word>,
}

impl Trace {
    /// Creates an empty trace for a bus of the given width.
    pub fn new(width: Width) -> Self {
        Trace {
            width,
            values: Vec::new(),
        }
    }

    /// Creates a trace from an iterator of words, truncating each word to
    /// the given width.
    ///
    /// Truncation (rather than rejection) matches what physical hardware
    /// does: a 64-bit integer driven onto a 32-bit bus simply drops its
    /// high bits.
    pub fn from_values<I>(width: Width, values: I) -> Self
    where
        I: IntoIterator<Item = Word>,
    {
        static TRACES: busprobe::StaticCounter =
            busprobe::StaticCounter::new("bustrace.trace.created");
        static WORDS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("bustrace.trace.words");
        let values: Vec<Word> = values.into_iter().map(|v| width.truncate(v)).collect();
        TRACES.inc();
        WORDS.add(values.len() as u64);
        Trace { width, values }
    }

    /// The bus width.
    #[inline]
    pub fn width(&self) -> Width {
        self.width
    }

    /// The recorded words, oldest first.
    #[inline]
    pub fn values(&self) -> &[Word] {
        &self.values
    }

    /// The number of recorded words.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the trace holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a word, truncating it to the trace width.
    pub fn push(&mut self, value: Word) {
        self.values.push(self.width.truncate(value));
    }

    /// Iterates over the recorded words.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Word>> {
        self.values.iter().copied()
    }

    /// Returns a sub-trace covering `range` (clamped to the trace length).
    ///
    /// Useful for warm-up skipping and for windowed statistics.
    pub fn slice(&self, start: usize, end: usize) -> Trace {
        let end = end.min(self.values.len());
        let start = start.min(end);
        Trace {
            width: self.width,
            values: self.values[start..end].to_vec(),
        }
    }

    /// Consumes the trace, returning the underlying vector of words.
    pub fn into_values(self) -> Vec<Word> {
        self.values
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} trace of {} values", self.width, self.values.len())
    }
}

impl Extend<Word> for Trace {
    fn extend<I: IntoIterator<Item = Word>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Word;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Word>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Incremental builder for [`Trace`] used by the bus timing generators in
/// `simcpu`, which interleave idle cycles (bus holds its previous value)
/// with active cycles.
///
/// On an idle cycle a real bus simply keeps its last driven value, which
/// is exactly what [`TraceBuilder::idle`] records: repeated values are
/// energy-free in the un-encoded case and the coders must not be charged
/// or credited for them incorrectly.
///
/// # Example
///
/// ```
/// use bustrace::{TraceBuilder, Width};
///
/// let mut b = TraceBuilder::new(Width::W32);
/// b.drive(0xAB);
/// b.idle();
/// b.drive(0xCD);
/// let trace = b.finish();
/// assert_eq!(trace.values(), &[0xAB, 0xAB, 0xCD]);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
    last: Word,
}

impl TraceBuilder {
    /// Creates a builder whose idle value before any drive is zero
    /// (an undriven bus is modeled as all-low).
    pub fn new(width: Width) -> Self {
        TraceBuilder {
            trace: Trace::new(width),
            last: 0,
        }
    }

    /// Records a cycle in which `value` is driven onto the bus.
    pub fn drive(&mut self, value: Word) {
        let v = self.trace.width().truncate(value);
        self.last = v;
        self.trace.push(v);
    }

    /// Records a cycle in which the bus holds its previous value.
    pub fn idle(&mut self) {
        self.trace.push(self.last);
    }

    /// The number of cycles recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no cycles have been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes the build, returning the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_truncates() {
        let w = Width::new(8).unwrap();
        let t = Trace::from_values(w, [0x1FF, 0x100, 0xFF]);
        assert_eq!(t.values(), &[0xFF, 0x00, 0xFF]);
    }

    #[test]
    fn push_truncates() {
        let mut t = Trace::new(Width::new(4).unwrap());
        t.push(0x1F);
        assert_eq!(t.values(), &[0xF]);
    }

    #[test]
    fn slice_clamps() {
        let t = Trace::from_values(Width::W32, [1, 2, 3, 4, 5]);
        assert_eq!(t.slice(1, 3).values(), &[2, 3]);
        assert_eq!(t.slice(3, 100).values(), &[4, 5]);
        assert_eq!(t.slice(10, 20).len(), 0);
        assert_eq!(t.slice(4, 2).len(), 0);
    }

    #[test]
    fn builder_idle_repeats_last_value() {
        let mut b = TraceBuilder::new(Width::W32);
        b.idle(); // idle before any drive holds zero
        b.drive(7);
        b.idle();
        b.idle();
        b.idle();
        b.drive(9);
        let t = b.finish();
        assert_eq!(t.values(), &[0, 7, 7, 7, 7, 9]);
    }

    #[test]
    fn iteration_yields_values() {
        let t = Trace::from_values(Width::W32, [1, 2, 3]);
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected, vec![1, 2, 3]);
        let sum: u64 = (&t).into_iter().sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn extend_trait_truncates() {
        let mut t = Trace::new(Width::new(4).unwrap());
        t.extend([0x10u64, 0x1F]);
        assert_eq!(t.values(), &[0x0, 0xF]);
    }

    #[test]
    fn display_shows_width_and_len() {
        let t = Trace::from_values(Width::W32, [1, 2]);
        assert_eq!(t.to_string(), "32-bit trace of 2 values");
    }
}
