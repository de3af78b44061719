//! Guest bytes as a type.
//!
//! The host introspects a guest that may already be compromised, so every
//! value it reads out of guest memory is attacker-controlled input.
//! [`GuestMemory::peek`](crate::GuestMemory::peek) and its siblings hand
//! such values out as [`Guest<T>`]: no `Deref`, no public field, no
//! operators. A host uses one through `checked_add`/`checked_sub`, [`Guest::extent`],
//! [`Guest::index_into`], comparison with a host constant, or the one
//! escape, [`Guest::unguarded`], for copying a field into a report. So a
//! guest length cannot be cast to a host one,
//!
//! ```compile_fail
//! let len = crimes_vm::Guest::new(4096u64);
//! let n = len as usize;
//! ```
//!
//! size an allocation,
//!
//! ```compile_fail
//! let len = crimes_vm::Guest::new(4096usize);
//! let buf = vec![0u8; len];
//! ```
//!
//! or index a slice:
//!
//! ```compile_fail
//! let idx = crimes_vm::Guest::new(1usize);
//! let entry = [1u8, 2, 3][idx];
//! ```
//!
//! The checked forms do:
//!
//! ```
//! use crimes_vm::Guest;
//!
//! let buf = vec![0u8; Guest::new(4096u64).extent(1 << 20).expect("fits")];
//! assert_eq!(buf.len(), 4096);
//! assert!(Guest::new(u64::MAX).extent(1 << 20).is_err());
//! assert_eq!(Guest::new(1u64).index_into(&[1u8, 2, 3]), Some(&2));
//! ```

use std::fmt;

use crate::addr::{Gpa, Gva};

/// A value read from guest memory (or derived from one); see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guest<T>(T);

/// A guest count or length above its limit, or a guest span
/// `[value, value + len)` that leaves `[0, limit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// The count, length, or span start.
    pub value: u64,
    /// Bytes the span covers; 0 for a count or length.
    pub len: u64,
    /// The bound it had to stay within.
    pub limit: u64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let OutOfRange { value, len, limit } = self;
        write!(
            f,
            "guest value {value:#x} (+{len} bytes) out of range for limit {limit}"
        )
    }
}

impl std::error::Error for OutOfRange {}

impl<T> Guest<T> {
    /// Mark `value` as guest-controlled. Readers wrap what they read; host
    /// code may wrap a field it copied out of a report (a pointer it wants
    /// translated). Wrapping only narrows what can be done with a value.
    pub const fn new(value: T) -> Self {
        Guest(value)
    }

    /// The raw value — the one escape, for copying a field into a report
    /// struct, never for sizing, indexing or arithmetic.
    /// `scripts/verify.sh` holds its call sites to a budget.
    pub fn unguarded(self) -> T {
        self.0
    }
}

/// Comparison with a host constant: a magic tag, a LIVE flag, a list
/// head, the canary secret.
impl<T: PartialEq> PartialEq<T> for Guest<T> {
    fn eq(&self, other: &T) -> bool {
        self.0 == *other
    }
}

impl<T: fmt::Display> fmt::Display for Guest<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

macro_rules! guest_int {
    ($($t:ty),*) => {$(
        impl Guest<$t> {
            /// `self + rhs`, `None` on overflow.
            pub fn checked_add(self, rhs: $t) -> Option<Guest<$t>> {
                self.0.checked_add(rhs).map(Guest)
            }

            /// The value as a host count or length, if at most `limit`.
            ///
            /// # Errors
            ///
            /// [`OutOfRange`] when it exceeds `limit`.
            #[inline]
            pub fn extent(self, limit: usize) -> Result<usize, OutOfRange> {
                usize::try_from(self.0).ok().filter(|&v| v <= limit).ok_or(OutOfRange {
                    value: self.0.into(),
                    len: 0,
                    limit: limit as u64,
                })
            }

            /// `slice[self]`, `None` when out of bounds.
            pub fn index_into<E>(self, slice: &[E]) -> Option<&E> {
                slice.get(usize::try_from(self.0).ok()?)
            }
        }
    )*};
}

guest_int!(u32, u64);

impl From<Guest<u64>> for Guest<Gva> {
    #[inline]
    fn from(raw: Guest<u64>) -> Self {
        Guest(Gva(raw.0))
    }
}

impl From<Guest<u64>> for Guest<Gpa> {
    #[inline]
    fn from(raw: Guest<u64>) -> Self {
        Guest(Gpa(raw.0))
    }
}

impl Guest<Gva> {
    /// The direct-map physical address behind a kernel pointer; `None`
    /// for a user address.
    #[inline]
    pub fn kernel_to_gpa(self) -> Option<Guest<Gpa>> {
        self.0.kernel_to_gpa().map(Guest)
    }

    /// Bytes from `base` up to `self`; `None` below `base`.
    #[inline]
    pub fn checked_sub(self, base: Guest<Gva>) -> Option<Guest<u64>> {
        self.0 .0.checked_sub(base.0 .0).map(Guest)
    }
}

impl Guest<Gpa> {
    /// The address as a host [`Gpa`], if the `len` bytes from it lie
    /// inside an image of `image_bytes`.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] when the span ends past the image or overflows.
    #[inline]
    pub fn checked_span(self, len: u64, image_bytes: usize) -> Result<Gpa, OutOfRange> {
        let limit = image_bytes as u64;
        match self.0 .0.checked_add(len) {
            Some(end) if end <= limit => Ok(self.0),
            _ => Err(OutOfRange {
                value: self.0 .0,
                len,
                limit,
            }),
        }
    }
}

impl<'a> Guest<&'a [u8]> {
    /// The little-endian `u32` at byte `off`; `None` past the end.
    #[inline]
    pub fn le_u32(self, off: usize) -> Option<Guest<u32>> {
        let bytes = self.0.get(off..off.checked_add(4)?)?;
        Some(Guest(u32::from_le_bytes(bytes.try_into().ok()?)))
    }

    /// The little-endian `u64` at byte `off`; `None` past the end.
    #[inline]
    pub fn le_u64(self, off: usize) -> Option<Guest<u64>> {
        let bytes = self.0.get(off..off.checked_add(8)?)?;
        Some(Guest(u64::from_le_bytes(bytes.try_into().ok()?)))
    }

    /// Consecutive `size`-byte records, a trailing partial one dropped.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0.
    #[inline]
    pub fn records(self, size: usize) -> impl Iterator<Item = Guest<&'a [u8]>> {
        self.0.chunks_exact(size).map(Guest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_consumers_refuse_what_does_not_fit() {
        assert_eq!(Guest::new(64u64).extent(64), Ok(64));
        let over = OutOfRange {
            value: 65,
            len: 0,
            limit: 64,
        };
        assert_eq!(Guest::new(65u64).extent(64), Err(over));
        assert_eq!(Guest::new(u32::MAX).checked_add(1), None);
        assert_eq!(Guest::new(Gpa(4088)).checked_span(8, 4096), Ok(Gpa(4088)));
        assert!(Guest::new(Gpa(4089)).checked_span(8, 4096).is_err());
        assert!(Guest::new(Gpa(u64::MAX - 3)).checked_span(8, 4096).is_err());
        assert_eq!(Guest::new(Gva(8)).checked_sub(Guest::new(Gva(9))), None);
        assert!(Guest::new(Gva(0x1000)).kernel_to_gpa().is_none());
    }

    #[test]
    fn byte_views_decode_fields_and_records() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        let view = Guest::new(&bytes[..]);
        assert!(view.le_u32(0).is_some_and(|v| v == 1));
        assert!(view.le_u64(4).is_some_and(|v| v == 2));
        assert!(view.le_u64(5).is_none() && view.le_u32(usize::MAX).is_none());
        assert_eq!(view.records(8).count(), 1);
        assert!(Guest::new(*b"secret!!") != *b"SECRET!!");
    }
}
