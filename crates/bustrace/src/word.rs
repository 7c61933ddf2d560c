//! Bus width and word-masking primitives.

use std::error::Error;
use std::fmt;

/// The width of a bus in data wires, guaranteed to be in `1..=64`.
///
/// All words carried on a bus of width `w` occupy the low `w` bits of a
/// `u64`. The paper studies 32-bit buses throughout; the reproduction is
/// generic in the width so that narrow buses (address sub-fields) and wide
/// buses (64-bit datapaths) can be studied with the same machinery.
///
/// # Example
///
/// ```
/// use bustrace::Width;
///
/// let w = Width::new(32)?;
/// assert_eq!(w.bits(), 32);
/// assert_eq!(w.mask(), 0xFFFF_FFFF);
/// assert_eq!(w.truncate(0x1_2345_6789), 0x2345_6789);
/// # Ok::<(), bustrace::WidthError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Width(u32);

impl Width {
    /// The 32-bit width used for every experiment in the paper.
    pub const W32: Width = Width(32);

    /// Creates a width, validating that it lies in `1..=64`.
    ///
    /// # Errors
    ///
    /// Returns [`WidthError`] if `bits` is zero or greater than 64.
    pub fn new(bits: u32) -> Result<Self, WidthError> {
        if (1..=64).contains(&bits) {
            Ok(Width(bits))
        } else {
            Err(WidthError { bits })
        }
    }

    /// The number of data wires.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// A mask with the low `bits()` bits set.
    #[inline]
    pub fn mask(self) -> u64 {
        if self.0 == 64 {
            u64::MAX
        } else {
            (1u64 << self.0) - 1
        }
    }

    /// Truncates a value to this width.
    #[inline]
    pub fn truncate(self, value: u64) -> u64 {
        value & self.mask()
    }

    /// Whether `value` already fits within this width.
    #[inline]
    pub fn contains(self, value: u64) -> bool {
        value & !self.mask() == 0
    }

    /// The number of distinct words representable at this width, or
    /// `None` when the count does not fit in a `u64` (width 64).
    #[inline]
    pub fn value_count(self) -> Option<u64> {
        if self.0 == 64 {
            None
        } else {
            Some(1u64 << self.0)
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

impl TryFrom<u32> for Width {
    type Error = WidthError;

    fn try_from(bits: u32) -> Result<Self, Self::Error> {
        Width::new(bits)
    }
}

impl From<Width> for u32 {
    fn from(w: Width) -> u32 {
        w.0
    }
}

/// Error returned when constructing a [`Width`] outside `1..=64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthError {
    bits: u32,
}

impl WidthError {
    /// The rejected bit count.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl fmt::Display for WidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bus width must be between 1 and 64 bits, got {}",
            self.bits
        )
    }
}

impl Error for WidthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_full_range() {
        for bits in 1..=64 {
            assert!(Width::new(bits).is_ok(), "width {bits} should be valid");
        }
    }

    #[test]
    fn new_rejects_zero_and_oversize() {
        assert!(Width::new(0).is_err());
        assert!(Width::new(65).is_err());
        assert_eq!(Width::new(100).unwrap_err().bits(), 100);
    }

    #[test]
    fn mask_is_low_bits() {
        assert_eq!(Width::new(1).unwrap().mask(), 0b1);
        assert_eq!(Width::new(8).unwrap().mask(), 0xFF);
        assert_eq!(Width::new(32).unwrap().mask(), 0xFFFF_FFFF);
        assert_eq!(Width::new(64).unwrap().mask(), u64::MAX);
    }

    #[test]
    fn truncate_clears_high_bits() {
        let w = Width::new(16).unwrap();
        assert_eq!(w.truncate(0x1234_5678), 0x5678);
        assert!(w.contains(0xFFFF));
        assert!(!w.contains(0x1_0000));
    }

    #[test]
    fn value_count_saturates_at_64() {
        assert_eq!(Width::new(10).unwrap().value_count(), Some(1024));
        assert_eq!(Width::new(64).unwrap().value_count(), None);
    }

    #[test]
    fn display_mentions_bits() {
        assert_eq!(Width::W32.to_string(), "32-bit");
    }

    #[test]
    fn error_display_is_lowercase_without_period() {
        let e = Width::new(0).unwrap_err().to_string();
        assert!(e.starts_with("bus width"));
        assert!(!e.ends_with('.'));
    }
}
