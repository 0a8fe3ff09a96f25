//! Property tests of the generalized shard-window decode
//! (`amba::bridge::WindowMap`): owner/is_remote consistency, full
//! address-space coverage with no overlap, and equivalence of the
//! interleaved constructor with its closed form `(addr >> shift) % shards`
//! (and with an explicit owner table spelling out the same interleave).

use amba::bridge::{WindowMap, MIN_EXPLICIT_WINDOW_SHIFT};
use amba::ids::Addr;
use proptest::prelude::*;

/// Deterministic owner table derived from a seed: `windows` entries, each
/// a valid shard index (splitmix-style mixing keeps neighbouring windows
/// uncorrelated, so the tables are genuinely non-uniform).
fn owners_from_seed(seed: u64, windows: usize, shards: u8) -> Vec<u8> {
    (0..windows as u64)
        .map(|window| {
            let mut z = seed ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 33) % u64::from(shards)) as u8
        })
        .collect()
}

proptest! {
    /// Owner and is_remote agree on every map: `is_remote(addr, own)`
    /// holds exactly when `owner(addr) != own`, and the owner is always a
    /// valid shard index — for interleaved and explicit maps alike.
    #[test]
    fn owner_and_is_remote_round_trip(
        shift in 24u32..28,
        shards in 1u8..9,
        addr in 0u32..u32::MAX,
        seed in 0u64..1_000_000,
    ) {
        let windows = 1usize << (32 - shift);
        let interleaved = WindowMap::interleaved(shift, shards);
        let explicit = WindowMap::explicit(shift, shards, owners_from_seed(seed, windows, shards));
        for map in [&interleaved, &explicit] {
            let addr = Addr::new(addr);
            let owner = map.owner(addr);
            prop_assert!(owner < shards, "owner {owner} out of range");
            for own in 0..shards {
                prop_assert_eq!(map.is_remote(addr, own), owner != own);
            }
        }
    }

    /// Full coverage, no overlap: every window of the address space has
    /// exactly the owner its table entry names — the whole space is
    /// covered and no address decodes to two shards.
    #[test]
    fn explicit_map_covers_the_full_address_space(
        shift in 24u32..28,
        shards in 1u8..9,
        seed in 0u64..1_000_000,
        offset in 0u32..(1 << 24),
    ) {
        let windows = 1usize << (32 - shift);
        let owners = owners_from_seed(seed, windows, shards);
        let map = WindowMap::explicit(shift, shards, owners.clone());
        prop_assert!(shift >= MIN_EXPLICIT_WINDOW_SHIFT);
        for (window, &owner) in owners.iter().enumerate() {
            // Sample the window at its base, an interior offset and its
            // last byte: all must decode to the table entry.
            let base = (window as u64) << shift;
            let span = 1u64 << shift;
            for probe in [base, base + u64::from(offset) % span, base + span - 1] {
                prop_assert_eq!(map.owner(Addr::new(probe as u32)), owner);
            }
        }
    }

    /// The interleaved constructor decodes the classic shard map, the
    /// closed form `(addr >> shift) % shards`, and an explicit table spelling out
    /// `window % shards` is indistinguishable from it — exercised on the
    /// power-of-two shard counts the classic platform shapes use.
    #[test]
    fn interleaved_map_matches_the_shard_map(
        shift in 24u32..28,
        shards_log2 in 0u32..4,
        addr in 0u32..u32::MAX,
    ) {
        let shards = 1u8 << shards_log2;
        let oracle = ((addr >> shift) % u32::from(shards)) as u8;
        let interleaved = WindowMap::interleaved(shift, shards);
        let windows = 1usize << (32 - shift);
        let spelled_out = WindowMap::explicit(
            shift,
            shards,
            (0..windows).map(|w| (w % usize::from(shards)) as u8).collect(),
        );
        let addr = Addr::new(addr);
        prop_assert_eq!(interleaved.owner(addr), oracle);
        prop_assert_eq!(spelled_out.owner(addr), oracle);
        for own in 0..shards {
            prop_assert_eq!(interleaved.is_remote(addr, own), oracle != own);
            prop_assert_eq!(spelled_out.is_remote(addr, own), oracle != own);
        }
    }
}

/// A map built as the classic shard map (24-bit windows over 4 shards) is
/// the interleave: window index modulo shard count, spelled out here as
/// literal owners.
#[test]
fn window_map_from_shard_map_is_the_interleave() {
    let map = WindowMap::interleaved(24, 4);
    assert!(map.is_interleaved());
    assert_eq!(map.shards(), 4);
    for (addr, owner) in [
        (0u32, 0u8),
        (0x0100_0000, 1),
        (0x4321_0000, 3),
        (0xFFFF_FFFF, 3),
    ] {
        assert_eq!(map.owner(Addr::new(addr)), owner);
    }
}
