//! The ready-master set: which masters have a released request *now*,
//! and when the next one joins.
//!
//! The set is maintained incrementally instead of being rediscovered by
//! scanning every master per arbitration round: a bitset of currently
//! released masters plus a flat release-time table with a cached minimum.
//! The bitset is kept in two layouts. By arbitration slot
//! ([`amba::arbitration::ArbitrationPolicy::slot`]) it *is* the pending
//! set the filter chain narrows, so arbitration reads it as is; by
//! platform position it gives the write-buffer absorption pass the order
//! of the pin-accurate model's master scan. The common operations are
//! branch-cheap:
//!
//! * [`ReadySet::sync`] — one compare while no queued release has
//!   arrived; a single pass over the release table when one has (paid
//!   once per release event, not per arbitration round);
//! * [`ReadySet::schedule`] / [`ReadySet::clear`] — two bit stores and one
//!   `min` per transaction retirement, no heap sifting;
//! * the absorption pass iterates set bits only, so idle masters cost
//!   nothing per round.
//!
//! The invariant that keeps the table exact (no stale entries): a
//! master's release time only changes when its head transaction
//! completes, and a transaction can only complete while its master is in
//! the *ready* state — so a queued time is never invalidated in place.

use amba::arbitration::SlotSet;
use simkern::time::Cycle;

/// Incrementally maintained set of masters with a released request.
#[derive(Debug, Clone, Default)]
pub struct ReadySet {
    /// Ready masters, by position.
    positions: SlotSet,
    /// Ready masters, by arbitration slot.
    slots: SlotSet,
    /// Words of either layout in use: the set-wide queries stop there, so
    /// a bus of up to 64 masters pays for one word.
    words: usize,
    /// Arbitration slot by position.
    slot_of: Vec<usize>,
    /// Pending release time per position (`u64::MAX` = ready, done, or
    /// never scheduled).
    release_times: Vec<u64>,
    /// Time the bitset is synchronized to (monotone).
    synced_at: u64,
    /// Cached `min(release_times)` (`u64::MAX` when nothing is queued),
    /// so the common no-op [`ReadySet::sync`] is one compare that never
    /// touches the table.
    next_release: u64,
}

impl ReadySet {
    /// An empty set over the masters whose arbitration slots, by
    /// position, are `slot_of`.
    ///
    /// # Panics
    ///
    /// Panics when a position or a slot does not fit a [`SlotSet`].
    #[must_use]
    pub fn new(slot_of: Vec<usize>) -> Self {
        assert!(
            slot_of.len() <= SlotSet::CAPACITY
                && slot_of.iter().all(|&slot| slot < SlotSet::CAPACITY),
            "at most {} masters per bus",
            SlotSet::CAPACITY
        );
        let span = slot_of.iter().map(|&slot| slot + 1).max().unwrap_or(0);
        ReadySet {
            positions: SlotSet::EMPTY,
            slots: SlotSet::EMPTY,
            words: span.max(slot_of.len()).div_ceil(64),
            release_times: vec![u64::MAX; slot_of.len()],
            slot_of,
            synced_at: 0,
            next_release: u64::MAX,
        }
    }

    /// Advances the set to `at`: every master whose release time has
    /// arrived moves from the release table into the bitset. Monotone;
    /// earlier times are a no-op.
    #[inline]
    pub fn sync(&mut self, at: Cycle) {
        let at = at.value();
        if at > self.synced_at {
            self.synced_at = at;
        }
        if self.next_release > self.synced_at {
            return;
        }
        self.sync_slow();
    }

    /// The cold half of [`ReadySet::sync`]: at least one queued release
    /// has arrived, so one pass moves every due master into the bitset
    /// and recomputes the cached minimum.
    fn sync_slow(&mut self) {
        let mut next = u64::MAX;
        for position in 0..self.release_times.len() {
            let time = self.release_times[position];
            if time <= self.synced_at {
                self.insert(position);
                self.release_times[position] = u64::MAX;
            } else {
                next = next.min(time);
            }
        }
        self.next_release = next;
    }

    /// Registers the next release of the master at `position`: into the
    /// bitset if the time has already arrived, into the release table
    /// otherwise.
    #[inline]
    pub fn schedule(&mut self, position: usize, at: Cycle) {
        if at.value() <= self.synced_at {
            self.insert(position);
        } else {
            self.release_times[position] = at.value();
            self.next_release = self.next_release.min(at.value());
        }
    }

    /// Removes the master at `position` from the ready bitset (its head
    /// transaction retired).
    #[inline]
    pub fn clear(&mut self, position: usize) {
        self.positions.remove(position);
        self.slots.remove(self.slot_of[position]);
    }

    #[inline]
    fn insert(&mut self, position: usize) {
        self.positions.insert(position);
        self.slots.insert(self.slot_of[position]);
    }

    /// Whether the master at `position` currently has a released request.
    #[must_use]
    pub fn contains(&self, position: usize) -> bool {
        self.positions.contains(position)
    }

    /// `true` when no master is currently released.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..self.words).all(|word| self.slots.word(word) == 0)
    }

    /// `true` when more than one master is currently released.
    #[must_use]
    #[inline]
    pub fn several(&self) -> bool {
        let mut seen = false;
        for word in (0..self.words).map(|word| self.slots.word(word)) {
            if word != 0 {
                if seen || word & (word - 1) != 0 {
                    return true;
                }
                seen = true;
            }
        }
        false
    }

    /// The released masters by arbitration slot: the filter chain's
    /// pending set.
    #[must_use]
    #[inline]
    pub fn slots(&self) -> SlotSet {
        self.slots
    }

    /// The earliest future release time, if any master is still waiting.
    #[must_use]
    #[inline]
    pub fn next_release(&self) -> Option<Cycle> {
        if self.next_release == u64::MAX {
            None
        } else {
            Some(Cycle::new(self.next_release))
        }
    }

    /// `true` when a released master's position is in `mask`.
    #[must_use]
    #[inline]
    pub fn intersects(&self, mask: &SlotSet) -> bool {
        (0..self.words).any(|word| self.positions.word(word) & mask.word(word) != 0)
    }

    /// Calls `f` for every position in `ready ∩ mask`, in ascending
    /// order, over a per-word *snapshot*: positions set by `f` itself are
    /// not revisited within this pass (callers run a fixed-point loop).
    /// Stops early when `f` returns `false`.
    pub fn for_each_masked(&mut self, mask: SlotSet, mut f: impl FnMut(&mut Self, usize) -> bool) {
        for word_index in 0..self.words {
            let mut bits = self.positions.word(word_index) & mask.word(word_index);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !f(self, word_index * 64 + bit) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set whose slots equal its positions.
    fn identity(masters: usize) -> ReadySet {
        ReadySet::new((0..masters).collect())
    }

    #[test]
    fn sync_releases_masters_in_time_order() {
        let mut set = identity(70);
        set.schedule(0, Cycle::new(10));
        set.schedule(65, Cycle::new(5));
        set.schedule(3, Cycle::new(20));
        assert!(set.is_empty());
        assert_eq!(set.next_release(), Some(Cycle::new(5)));

        set.sync(Cycle::new(10));
        assert!(set.contains(0));
        assert!(set.contains(65));
        assert!(!set.contains(3));
        assert_eq!(set.next_release(), Some(Cycle::new(20)));

        let seen: Vec<usize> = set.slots().iter().collect();
        assert_eq!(seen, vec![0, 65], "ascending position order");
    }

    #[test]
    fn immediate_schedule_sets_the_bit_directly() {
        let mut set = identity(4);
        set.sync(Cycle::new(100));
        set.schedule(2, Cycle::new(50));
        assert!(set.contains(2), "past release is ready immediately");
        set.clear(2);
        assert!(set.is_empty());
        assert_eq!(set.next_release(), None);
    }

    #[test]
    fn sync_is_monotone() {
        let mut set = identity(2);
        set.schedule(0, Cycle::new(30));
        set.sync(Cycle::new(40));
        assert!(set.contains(0));
        // Going "back in time" must not un-release anything.
        set.sync(Cycle::new(10));
        assert!(set.contains(0));
        set.schedule(1, Cycle::new(35));
        assert!(set.contains(1), "synced_at stays at 40");
    }

    #[test]
    fn rescheduling_after_release_works_repeatedly() {
        let mut set = identity(1);
        for round in 0u64..5 {
            let release = (round + 1) * 100;
            set.schedule(0, Cycle::new(release));
            assert!(!set.contains(0));
            assert_eq!(set.next_release(), Some(Cycle::new(release)));
            set.sync(Cycle::new(release));
            assert!(set.contains(0));
            assert_eq!(set.next_release(), None);
            set.clear(0);
        }
    }

    #[test]
    fn masked_iteration_intersects_and_snapshots() {
        let mut set = identity(130);
        let mask: SlotSet = [1usize, 64, 128].into_iter().collect();
        for position in [0usize, 1, 64, 100, 128] {
            set.schedule(position, Cycle::ZERO);
        }
        set.sync(Cycle::ZERO);
        assert!(set.intersects(&mask));
        let mut seen = Vec::new();
        set.for_each_masked(mask, |set, position| {
            seen.push(position);
            // Setting a *lower* bit of an already-visited word must not
            // extend this pass.
            if position == 64 {
                set.schedule(1, Cycle::ZERO);
                set.clear(64);
            }
            true
        });
        assert_eq!(seen, vec![1, 64, 128]);
        let empty_mask = SlotSet::single(2);
        assert!(!set.intersects(&empty_mask));
    }

    #[test]
    fn masked_iteration_stops_when_the_callback_says_so() {
        let mut set = identity(8);
        let mask: SlotSet = (0..8).collect();
        for position in 0..8 {
            set.schedule(position, Cycle::ZERO);
        }
        set.sync(Cycle::ZERO);
        let mut count = 0;
        set.for_each_masked(mask, |_, _| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn slot_layout_follows_the_slot_map() {
        // Position 0 holds the master with the highest id: slot 2.
        let mut set = ReadySet::new(vec![2, 0, 1]);
        set.schedule(0, Cycle::ZERO);
        set.schedule(2, Cycle::new(5));
        set.sync(Cycle::new(5));
        assert_eq!(set.slots().iter().collect::<Vec<_>>(), vec![1, 2]);
        let mut visited = Vec::new();
        set.for_each_masked((0..3).collect(), |_, position| {
            visited.push(position);
            true
        });
        assert_eq!(visited, vec![0, 2], "the absorption order is by position");
        set.clear(0);
        assert_eq!(set.slots(), SlotSet::single(1));
        assert!(!set.contains(0) && set.contains(2));
    }
}
