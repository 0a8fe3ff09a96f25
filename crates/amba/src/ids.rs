//! Strongly-typed identifiers: masters and bus addresses.

use std::fmt;

/// Identifier of a bus master (CPU, DMA, video IP, the write buffer, ...).
///
/// AMBA 2.0 AHB supports up to 16 masters; AHB+ additionally lets the write
/// buffer act as a master, so the identifier space is kept generous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MasterId(u8);

impl MasterId {
    /// Creates a master identifier.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        MasterId(index)
    }

    /// Raw index of the master.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u8> for MasterId {
    fn from(value: u8) -> Self {
        MasterId(value)
    }
}

/// A 32-bit AHB bus address (`HADDR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// Creates an address from its raw value.
    #[must_use]
    pub const fn new(value: u32) -> Self {
        Addr(value)
    }

    /// Raw 32-bit value.
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns the address advanced by `bytes`, wrapping on 32-bit overflow.
    #[must_use]
    pub const fn wrapping_add(self, bytes: u32) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Returns the address aligned *down* to `bytes` (which must be a power
    /// of two).
    #[must_use]
    pub const fn align_down(self, bytes: u32) -> Addr {
        Addr(self.0 & !(bytes - 1))
    }

    /// Returns `true` if the address is aligned to `bytes` (power of two).
    #[must_use]
    pub const fn is_aligned(self, bytes: u32) -> bool {
        self.0 & (bytes - 1) == 0
    }

    /// Returns the offset of this address within a naturally aligned block
    /// of `block` bytes (power of two).
    #[must_use]
    pub const fn offset_in(self, block: u32) -> u32 {
        self.0 & (block - 1)
    }

    /// The 1 KB block index of this address.
    ///
    /// AMBA 2.0 forbids bursts from crossing a 1 KB address boundary; the
    /// block index makes that rule cheap to check.
    #[must_use]
    pub const fn kib_block(self) -> u32 {
        self.0 >> 10
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(value: u32) -> Self {
        Addr(value)
    }
}

impl From<Addr> for u32 {
    fn from(value: Addr) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_ids_display() {
        assert_eq!(MasterId::new(3).to_string(), "M3");
        assert_eq!(MasterId::from(2).index(), 2);
    }

    #[test]
    fn addr_alignment_helpers() {
        let a = Addr::new(0x1000_0013);
        assert!(!a.is_aligned(4));
        assert_eq!(a.align_down(4), Addr::new(0x1000_0010));
        assert_eq!(a.offset_in(16), 0x3);
        assert!(Addr::new(0x1000_0010).is_aligned(16));
    }

    #[test]
    fn addr_wrapping_add_wraps() {
        let a = Addr::new(u32::MAX - 3);
        assert_eq!(a.wrapping_add(8), Addr::new(4));
    }

    #[test]
    fn kib_block_detects_boundaries() {
        assert_eq!(Addr::new(0x0000_03FF).kib_block(), 0);
        assert_eq!(Addr::new(0x0000_0400).kib_block(), 1);
        assert_ne!(
            Addr::new(0x0000_03FC).kib_block(),
            Addr::new(0x0000_0400).kib_block()
        );
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0x2000_0000).to_string(), "0x20000000");
        assert_eq!(format!("{:x}", Addr::new(0xAB)), "ab");
    }

    #[test]
    fn addr_round_trips_u32() {
        let a: Addr = 0x8000_1234u32.into();
        assert_eq!(u32::from(a), 0x8000_1234);
    }
}
