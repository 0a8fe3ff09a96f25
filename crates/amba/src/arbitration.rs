//! The AHB+ arbitration filter chain.
//!
//! The AHB+ arbiter implements "seven arbitration filters ... always
//! activated without the consideration of master / slave combinations"
//! (paper §3.3) and each algorithm can be switched on and off as a model
//! parameter (paper §3.7). The internal Samsung specification of the exact
//! seven filters is not public, so this module reconstructs a filter chain
//! that realizes every mechanism the paper *does* name — QoS objective
//! registers, real-time / non-real-time master classes, the write buffer
//! acting as an extra master, and bank-affinity feedback over the Bus
//! Interface — as seven successive candidate-narrowing stages:
//!
//! 1. [`ArbitrationFilter::RequestMask`] — remove masters that are masked or
//!    defer to a master holding a locked sequence.
//! 2. [`ArbitrationFilter::WriteBufferUrgency`] — when the write buffer is
//!    close to overflowing, it must win so posted writes are not lost.
//! 3. [`ArbitrationFilter::QosUrgency`] — real-time masters whose QoS
//!    objective is about to be violated pre-empt everything else.
//! 4. [`ArbitrationFilter::RealTimeClass`] — otherwise real-time masters
//!    beat non-real-time masters.
//! 5. [`ArbitrationFilter::BankAffinity`] — prefer requests whose target
//!    DRAM bank is ready (idle or row already open), maximizing the benefit
//!    of bank interleaving.
//! 6. [`ArbitrationFilter::RoundRobin`] — rotate fairly among the survivors.
//! 7. [`ArbitrationFilter::FixedPriority`] — deterministic final tie-break
//!    (the plain-AHB fixed priority).
//!
//! The chain is implemented **once**, as [`ArbitrationPolicy::decide`], and
//! is called by *both* the cycle-accurate arbiter in `ahb-rtl` and the
//! transaction-level arbiter in `ahb-tlm`. The two models therefore pick
//! the same winners and differ only in when decisions are evaluated —
//! which is exactly the abstraction the paper's accuracy experiment
//! quantifies.
//!
//! # Cost per decision
//!
//! The policy owns the QoS register file and gives every programmed master
//! an arbitration *slot*: slots number the programmed masters in ascending
//! id order, so a bus with a handful of masters fits one 64-bit word even
//! when its ids are spread over the 8-bit space (the write buffer is 15,
//! bridge replay masters are 240 and up). The candidate set is a
//! [`SlotSet`] and every stage is a set operation on it:
//!
//! * the real-time class is a static set, updated when QoS is programmed;
//! * QoS urgency and bank readiness are per-request questions
//!   ([`RequestSet::waited`], [`RequestSet::bank_ready`]) asked only of the
//!   candidates still standing at that stage;
//! * round robin is a next-set-bit scan from the slot after the last
//!   grant.
//!
//! A decision therefore costs about the same with 4 or 64 waiting
//! masters, and a caller can answer the per-request questions from its
//! own state in place instead of building a snapshot of every request.
//! [`SampledRequests`] is the ready-made [`RequestSet`] for callers that do
//! sample their requests first (the pin-accurate arbiter samples its
//! request wires every cycle).

use std::fmt;
use std::ops::{BitAnd, BitOr};

use crate::ids::{Addr, MasterId};
use crate::qos::{QosConfig, QosRegisterFile};
use simkern::time::Cycle;

/// One stage of the AHB+ arbitration filter chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbitrationFilter {
    /// Stage 1: request masking / bus locking.
    RequestMask,
    /// Stage 2: write-buffer overflow protection.
    WriteBufferUrgency,
    /// Stage 3: QoS-objective urgency boost for real-time masters.
    QosUrgency,
    /// Stage 4: real-time class preference.
    RealTimeClass,
    /// Stage 5: DRAM bank-affinity preference (uses BI feedback).
    BankAffinity,
    /// Stage 6: round-robin fairness.
    RoundRobin,
    /// Stage 7: fixed-priority tie break.
    FixedPriority,
}

impl ArbitrationFilter {
    /// All seven filters in chain order.
    pub const ALL: [ArbitrationFilter; 7] = [
        ArbitrationFilter::RequestMask,
        ArbitrationFilter::WriteBufferUrgency,
        ArbitrationFilter::QosUrgency,
        ArbitrationFilter::RealTimeClass,
        ArbitrationFilter::BankAffinity,
        ArbitrationFilter::RoundRobin,
        ArbitrationFilter::FixedPriority,
    ];
}

impl fmt::Display for ArbitrationFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ArbitrationFilter::RequestMask => "request-mask",
            ArbitrationFilter::WriteBufferUrgency => "write-buffer-urgency",
            ArbitrationFilter::QosUrgency => "qos-urgency",
            ArbitrationFilter::RealTimeClass => "real-time-class",
            ArbitrationFilter::BankAffinity => "bank-affinity",
            ArbitrationFilter::RoundRobin => "round-robin",
            ArbitrationFilter::FixedPriority => "fixed-priority",
        };
        write!(f, "{text}")
    }
}

/// Static configuration of the arbiter (paper §3.7 lists "arbitration
/// algorithm on/off" among the model parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbiterConfig {
    /// Which filters are active. Disabled filters are skipped; the chain
    /// always ends with a deterministic fixed-priority pick even if the
    /// `FixedPriority` stage itself is disabled, so arbitration never
    /// returns an ambiguous result.
    pub enabled: Vec<ArbitrationFilter>,
    /// How many cycles before the QoS objective expires a request is
    /// considered urgent (stage 3).
    pub urgency_margin: u32,
    /// Write-buffer occupancy (in entries) at which stage 2 kicks in.
    pub write_buffer_high_watermark: usize,
}

impl ArbiterConfig {
    /// The full AHB+ configuration: all seven filters enabled.
    #[must_use]
    pub fn ahb_plus() -> Self {
        ArbiterConfig {
            enabled: ArbitrationFilter::ALL.to_vec(),
            urgency_margin: 16,
            write_buffer_high_watermark: 3,
        }
    }

    /// A plain AMBA 2.0 AHB fixed-priority arbiter (QoS, bank-affinity and
    /// fairness filters all disabled) — the baseline AHB+ improves upon.
    #[must_use]
    pub fn plain_ahb_fixed_priority() -> Self {
        ArbiterConfig {
            enabled: vec![
                ArbitrationFilter::RequestMask,
                ArbitrationFilter::FixedPriority,
            ],
            urgency_margin: 0,
            write_buffer_high_watermark: usize::MAX,
        }
    }

    /// Returns `true` if `filter` is enabled.
    #[must_use]
    pub fn is_enabled(&self, filter: ArbitrationFilter) -> bool {
        self.enabled.contains(&filter)
    }

    /// Returns a copy of the configuration with `filter` removed.
    #[must_use]
    pub fn without(mut self, filter: ArbitrationFilter) -> Self {
        self.enabled.retain(|f| *f != filter);
        self
    }

    /// Returns a copy of the configuration with `filter` added (if absent).
    #[must_use]
    pub fn with(mut self, filter: ArbitrationFilter) -> Self {
        if !self.enabled.contains(&filter) {
            self.enabled.push(filter);
            // keep canonical chain order
            self.enabled
                .sort_by_key(|f| ArbitrationFilter::ALL.iter().position(|x| x == f));
        }
        self
    }
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig::ahb_plus()
    }
}

/// A set of arbitration slots: one bit per slot, 256 slots (the 8-bit
/// master-id space) in four 64-bit words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SlotSet([u64; 4]);

impl SlotSet {
    /// The empty set.
    pub const EMPTY: SlotSet = SlotSet([0; 4]);

    /// Number of slots a set can hold.
    pub const CAPACITY: usize = 256;

    /// The set holding `slot` alone.
    #[must_use]
    #[inline]
    pub fn single(slot: usize) -> Self {
        let mut set = SlotSet::EMPTY;
        set.insert(slot);
        set
    }

    /// Adds `slot`.
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    /// Removes `slot`.
    #[inline]
    pub fn remove(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    /// Whether `slot` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// `true` when the set has no member.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The members in ascending order (of a copy: later changes to the
    /// set do not show).
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut rest = *self;
        std::iter::from_fn(move || rest.pop_lowest())
    }

    /// The 64-bit word holding slots `64 * index ..= 64 * index + 63`.
    #[must_use]
    #[inline]
    pub fn word(&self, index: usize) -> u64 {
        self.0[index]
    }
}

impl BitAnd for SlotSet {
    type Output = SlotSet;

    #[inline]
    fn bitand(self, other: SlotSet) -> SlotSet {
        SlotSet(std::array::from_fn(|i| self.0[i] & other.0[i]))
    }
}

impl BitOr for SlotSet {
    type Output = SlotSet;

    #[inline]
    fn bitor(self, other: SlotSet) -> SlotSet {
        SlotSet(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }
}

impl FromIterator<usize> for SlotSet {
    fn from_iter<I: IntoIterator<Item = usize>>(slots: I) -> Self {
        let mut set = SlotSet::EMPTY;
        for slot in slots {
            set.insert(slot);
        }
        set
    }
}

/// The candidate set the chain narrows: a [`SlotSet`], or a single `u64`
/// word when every slot of the bus fits one (slots `0..64`). Both forms run
/// the same chain; the word keeps a small bus at register cost.
trait Candidates: Copy + BitAnd<Output = Self> + BitOr<Output = Self> {
    const EMPTY: Self;
    /// `set`, which must fit this form.
    fn from_set(set: SlotSet) -> Self;
    fn single(slot: usize) -> Self;
    fn is_empty(&self) -> bool;
    /// The sole member (`None` when empty or holding several).
    fn only(&self) -> Option<usize>;
    /// The lowest member at or above `start`, else the lowest member.
    fn next_cyclic(&self, start: usize) -> Option<usize>;
    /// Removes and returns the lowest member.
    fn pop_lowest(&mut self) -> Option<usize>;

    /// The members for which `keep` holds, asking in ascending order.
    fn retain(self, mut keep: impl FnMut(usize) -> bool) -> Self {
        let mut rest = self;
        let mut kept = Self::EMPTY;
        while let Some(slot) = rest.pop_lowest() {
            if keep(slot) {
                kept = kept | Self::single(slot);
            }
        }
        kept
    }
}

impl Candidates for u64 {
    const EMPTY: u64 = 0;

    #[inline]
    fn from_set(set: SlotSet) -> u64 {
        set.word(0)
    }

    #[inline]
    fn single(slot: usize) -> u64 {
        1 << slot
    }

    #[inline]
    fn is_empty(&self) -> bool {
        *self == 0
    }

    #[inline]
    fn only(&self) -> Option<usize> {
        (*self != 0 && *self & (*self - 1) == 0).then(|| self.trailing_zeros() as usize)
    }

    #[inline]
    fn next_cyclic(&self, start: usize) -> Option<usize> {
        let at_or_above = if start < 64 {
            *self & (u64::MAX << start)
        } else {
            0
        };
        let pick = if at_or_above != 0 { at_or_above } else { *self };
        (pick != 0).then(|| pick.trailing_zeros() as usize)
    }

    #[inline]
    fn pop_lowest(&mut self) -> Option<usize> {
        let slot = (*self != 0).then(|| self.trailing_zeros() as usize);
        *self &= self.wrapping_sub(1);
        slot
    }
}

impl Candidates for SlotSet {
    const EMPTY: SlotSet = SlotSet::EMPTY;

    fn from_set(set: SlotSet) -> SlotSet {
        set
    }

    fn single(slot: usize) -> SlotSet {
        SlotSet::single(slot)
    }

    fn is_empty(&self) -> bool {
        SlotSet::is_empty(self)
    }

    fn only(&self) -> Option<usize> {
        let mut found = None;
        for (index, word) in self.0.iter().enumerate() {
            if let Some(bit) = word.only() {
                if found.is_some() {
                    return None;
                }
                found = Some(index * 64 + bit);
            } else if *word != 0 {
                return None;
            }
        }
        found
    }

    fn next_cyclic(&self, start: usize) -> Option<usize> {
        let above = (start / 64..4).find_map(|index| {
            let floor = if index == start / 64 { start % 64 } else { 0 };
            let bits = self.0[index] & (u64::MAX << floor);
            (bits != 0).then(|| index * 64 + bits.trailing_zeros() as usize)
        });
        above.or_else(|| self.iter().next())
    }

    fn pop_lowest(&mut self) -> Option<usize> {
        let index = self.0.iter().position(|&word| word != 0)?;
        let slot = self.0[index].pop_lowest()?;
        Some(index * 64 + slot)
    }
}

/// What the filter chain reads about the requests of one decision.
///
/// Slots are the policy's ([`ArbitrationPolicy::slot`]). The per-request
/// questions are asked lazily — only of the candidates still standing at
/// the stage that needs the answer — so an implementation should read its
/// own state in place rather than precompute every answer.
pub trait RequestSet {
    /// The slots of the masters requesting the bus, the write buffer not
    /// included.
    fn pending(&self) -> SlotSet;

    /// The write buffer's slot and occupancy while it requests the bus.
    fn write_buffer(&self) -> Option<(usize, usize)>;

    /// The slot of a requesting master that holds a locked sequence.
    fn locked(&self) -> Option<usize> {
        None
    }

    /// Cycles the request in `slot` has been outstanding.
    fn waited(&self, slot: usize) -> u64;

    /// Whether the request in `slot` targets a DRAM bank that is ready
    /// (idle or row already open) according to the BI feedback.
    fn bank_ready(&self, slot: usize) -> bool;
}

/// Why the winning request was selected (the first filter that isolated it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The granted master.
    pub master: MasterId,
    /// The filter stage that made the final selection.
    pub decided_by: ArbitrationFilter,
}

/// Slot-table entry of a master that was never programmed.
const NO_SLOT: u16 = u16::MAX;

/// Stateful arbitration policy: the filter configuration, the QoS register
/// file with the slot tables derived from it, and the round-robin pointer
/// (the only state a grant changes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbitrationPolicy {
    config: ArbiterConfig,
    /// Bit `i` set ⇔ `ArbitrationFilter::ALL[i]` is enabled — precomputed so
    /// the per-decision loop does not scan the config's filter list.
    enabled_bits: u8,
    registers: QosRegisterFile,
    /// The programmed masters in ascending id order: slot `s` is
    /// `masters[s]`.
    masters: Vec<MasterId>,
    /// QoS registers by slot.
    qos: Vec<QosConfig>,
    /// Slot by master id (`NO_SLOT` for an unprogrammed master).
    slot_of: Vec<u16>,
    /// Slots of the real-time masters.
    real_time: SlotSet,
    last_granted: Option<MasterId>,
    /// Number of programmed masters with an id at or below `last_granted`:
    /// the first slot round robin considers.
    round_robin_start: usize,
}

impl ArbitrationPolicy {
    /// Creates a policy from a configuration, with no master programmed.
    #[must_use]
    pub fn new(config: ArbiterConfig) -> Self {
        let mut enabled_bits = 0u8;
        for (i, filter) in ArbitrationFilter::ALL.iter().enumerate() {
            if config.is_enabled(*filter) {
                enabled_bits |= 1 << i;
            }
        }
        ArbitrationPolicy {
            config,
            enabled_bits,
            registers: QosRegisterFile::new(),
            masters: Vec::new(),
            qos: Vec::new(),
            slot_of: vec![NO_SLOT; SlotSet::CAPACITY],
            real_time: SlotSet::EMPTY,
            last_granted: None,
            round_robin_start: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Programs (or reprograms) the QoS registers of `master` (paper §2).
    ///
    /// Every master that requests the bus, the write buffer included, must
    /// be programmed: programming gives the master its slot. Slots number
    /// the programmed masters in ascending id order, so programming a new
    /// master renumbers the slots above it — program every master before
    /// handing out slots.
    pub fn program_qos(&mut self, master: MasterId, qos: QosConfig) {
        self.registers.program(master, qos);
        self.masters.clear();
        self.masters.extend(self.registers.iter().map(|(id, _)| id));
        self.masters.sort_unstable();
        self.qos.clear();
        let registers = &self.registers;
        self.qos
            .extend(self.masters.iter().map(|&id| registers.lookup(id)));
        self.slot_of.fill(NO_SLOT);
        self.real_time = SlotSet::EMPTY;
        for (slot, (&id, qos)) in self.masters.iter().zip(&self.qos).enumerate() {
            self.slot_of[id.index()] = slot as u16;
            if qos.class.is_real_time() {
                self.real_time.insert(slot);
            }
        }
        self.round_robin_start = self.slots_at_or_below(self.last_granted);
    }

    /// The QoS registers of `master`; an unprogrammed master reads back the
    /// reset defaults.
    #[must_use]
    pub fn qos(&self, master: MasterId) -> QosConfig {
        self.registers.lookup(master)
    }

    /// The slot of a programmed master.
    #[must_use]
    #[inline]
    pub fn slot(&self, master: MasterId) -> Option<usize> {
        match self.slot_of[master.index()] {
            NO_SLOT => None,
            slot => Some(usize::from(slot)),
        }
    }

    /// Number of slots (programmed masters).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.masters.len()
    }

    /// The master granted by the most recent decision, if any.
    #[must_use]
    pub fn last_granted(&self) -> Option<MasterId> {
        self.last_granted
    }

    /// Applies the filter chain to the requests and returns the winner, or
    /// `None` when nobody requests the bus.
    ///
    /// A filter that matches no candidate is skipped, and the chain stops
    /// at the first enabled stage after which one candidate is left. The
    /// round-robin pointer is only advanced by
    /// [`ArbitrationPolicy::record_grant`], so `decide` itself is pure and
    /// can be called speculatively (the request-pipelining path does this).
    #[must_use]
    pub fn decide(&self, requests: &impl RequestSet) -> Option<Decision> {
        // A bus of up to 64 slots (every single-bus platform short of the
        // many-master scaling runs) narrows one register-sized word.
        if self.masters.len() <= 64 {
            self.chain::<u64>(requests)
        } else {
            self.chain::<SlotSet>(requests)
        }
    }

    fn chain<C: Candidates>(&self, requests: &impl RequestSet) -> Option<Decision> {
        let write_buffer = requests.write_buffer();
        let mut candidates = C::from_set(requests.pending());
        if let Some((slot, _)) = write_buffer {
            candidates = candidates | C::single(slot);
        }
        if candidates.is_empty() {
            return None;
        }
        for (i, filter) in ArbitrationFilter::ALL.iter().enumerate() {
            if self.enabled_bits & (1 << i) == 0 {
                continue;
            }
            let narrowed = match filter {
                // Locked sequences own the bus outright.
                ArbitrationFilter::RequestMask => {
                    requests.locked().map_or(C::EMPTY, C::single) & candidates
                }
                ArbitrationFilter::WriteBufferUrgency => match write_buffer {
                    Some((slot, fill)) if fill >= self.config.write_buffer_high_watermark => {
                        C::single(slot) & candidates
                    }
                    _ => C::EMPTY,
                },
                // Only real-time masters can be urgent, so only their
                // waits are asked for.
                ArbitrationFilter::QosUrgency => {
                    (candidates & C::from_set(self.real_time)).retain(|slot| {
                        self.qos[slot].is_urgent(requests.waited(slot), self.config.urgency_margin)
                    })
                }
                ArbitrationFilter::RealTimeClass => candidates & C::from_set(self.real_time),
                ArbitrationFilter::BankAffinity => {
                    candidates.retain(|slot| requests.bank_ready(slot))
                }
                // The candidate with the smallest positive cyclic id
                // distance from the last grant: slots ascend with ids, so
                // that is the next candidate slot after it.
                ArbitrationFilter::RoundRobin => match self.last_granted {
                    Some(_) => candidates
                        .next_cyclic(self.round_robin_start)
                        .map_or(C::EMPTY, C::single),
                    None => C::EMPTY,
                },
                ArbitrationFilter::FixedPriority => self
                    .highest_priority(candidates)
                    .map_or(C::EMPTY, C::single),
            };
            if !narrowed.is_empty() {
                candidates = narrowed;
            }
            if let Some(slot) = candidates.only() {
                return Some(Decision {
                    master: self.masters[slot],
                    decided_by: *filter,
                });
            }
        }
        // Deterministic fallback when the last stages are disabled: fixed
        // priority, then master id.
        let slot = self.highest_priority(candidates)?;
        Some(Decision {
            master: self.masters[slot],
            decided_by: ArbitrationFilter::FixedPriority,
        })
    }

    /// Records that `master` was actually granted, advancing the
    /// round-robin pointer.
    pub fn record_grant(&mut self, master: MasterId) {
        self.last_granted = Some(master);
        self.round_robin_start = match self.slot(master) {
            Some(slot) => slot + 1,
            None => self.slots_at_or_below(self.last_granted),
        };
    }

    /// The candidate with the best (lowest) fixed priority, the lowest id
    /// among equals.
    fn highest_priority(&self, mut candidates: impl Candidates) -> Option<usize> {
        let mut best: Option<(u8, usize)> = None;
        while let Some(slot) = candidates.pop_lowest() {
            let priority = self.qos[slot].fixed_priority;
            if best.is_none_or(|(best_priority, _)| priority < best_priority) {
                best = Some((priority, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    fn slots_at_or_below(&self, master: Option<MasterId>) -> usize {
        master.map_or(0, |last| self.masters.partition_point(|&id| id <= last))
    }
}

impl Default for ArbitrationPolicy {
    fn default() -> Self {
        ArbitrationPolicy::new(ArbiterConfig::default())
    }
}

/// A [`RequestSet`] sampled into a reusable buffer: the request time and
/// target address of every pending slot, plus the write buffer's request.
///
/// [`SampledRequests::clear`] keeps the storage, so a caller that samples
/// every cycle allocates only while the buffer first grows.
#[derive(Debug, Clone, Default)]
pub struct SampledRequests {
    pending: SlotSet,
    write_buffer: Option<(usize, usize)>,
    /// Request time by slot (valid for pending slots and the buffer's).
    requested_at: Vec<Cycle>,
    /// Target address by slot (valid for pending slots and the buffer's).
    addr: Vec<Addr>,
}

impl SampledRequests {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SampledRequests::default()
    }

    /// Forgets every request, keeping the storage.
    pub fn clear(&mut self) {
        self.pending = SlotSet::EMPTY;
        self.write_buffer = None;
    }

    /// Adds the request of the master in `slot`, raised at `requested_at`
    /// for a burst starting at `addr`.
    pub fn push(&mut self, slot: usize, requested_at: Cycle, addr: Addr) {
        self.store(slot, requested_at, addr);
        self.pending.insert(slot);
    }

    /// Adds the write buffer's request for its head write (in `slot`,
    /// absorbed at `requested_at`, starting at `addr`) while it holds
    /// `fill` writes.
    pub fn push_write_buffer(&mut self, slot: usize, requested_at: Cycle, addr: Addr, fill: usize) {
        self.store(slot, requested_at, addr);
        self.write_buffer = Some((slot, fill));
    }

    /// The target address of the sampled request in `slot`.
    #[must_use]
    pub fn addr(&self, slot: usize) -> Option<Addr> {
        let sampled = self.pending.contains(slot)
            || self.write_buffer.is_some_and(|(buffer, _)| buffer == slot);
        sampled.then(|| self.addr[slot])
    }

    /// The buffer as the chain sees it at `now`, with bank readiness
    /// answered by `bank_ready` from a request's target address.
    pub fn at<F: Fn(Addr) -> bool>(&self, now: Cycle, bank_ready: F) -> SampledAt<'_, F> {
        SampledAt {
            requests: self,
            now,
            bank_ready,
        }
    }

    fn store(&mut self, slot: usize, requested_at: Cycle, addr: Addr) {
        if self.addr.len() <= slot {
            self.requested_at.resize(slot + 1, Cycle::ZERO);
            self.addr.resize(slot + 1, Addr::new(0));
        }
        self.requested_at[slot] = requested_at;
        self.addr[slot] = addr;
    }
}

/// [`SampledRequests`] at one cycle: the [`RequestSet`] the chain reads.
#[derive(Debug, Clone, Copy)]
pub struct SampledAt<'a, F> {
    requests: &'a SampledRequests,
    now: Cycle,
    bank_ready: F,
}

impl<F: Fn(Addr) -> bool> RequestSet for SampledAt<'_, F> {
    fn pending(&self) -> SlotSet {
        self.requests.pending
    }

    fn write_buffer(&self) -> Option<(usize, usize)> {
        self.requests.write_buffer
    }

    fn waited(&self, slot: usize) -> u64 {
        self.now
            .saturating_since(self.requests.requested_at[slot])
            .value()
    }

    fn bank_ready(&self, slot: usize) -> bool {
        (self.bank_ready)(self.requests.addr[slot])
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{self, RequestView};
    use super::*;
    use crate::qos::QosConfig;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// `requests` as a [`RequestSet`] over `policy`'s slots.
    struct Views<'a> {
        requests: &'a [RequestView],
        /// Index into `requests` by slot.
        by_slot: Vec<usize>,
        pending: SlotSet,
        write_buffer: Option<(usize, usize)>,
        locked: Option<usize>,
    }

    impl<'a> Views<'a> {
        fn new(policy: &ArbitrationPolicy, requests: &'a [RequestView]) -> Self {
            let mut views = Views {
                requests,
                by_slot: vec![usize::MAX; SlotSet::CAPACITY],
                pending: SlotSet::EMPTY,
                write_buffer: None,
                locked: None,
            };
            for (index, request) in requests.iter().enumerate() {
                if request.masked {
                    continue;
                }
                let slot = policy
                    .slot(request.master)
                    .expect("requester is programmed");
                views.by_slot[slot] = index;
                if request.is_write_buffer {
                    assert!(views.write_buffer.is_none(), "one write buffer per bus");
                    views.write_buffer = Some((slot, request.write_buffer_fill));
                } else {
                    views.pending.insert(slot);
                }
                if request.holds_lock {
                    assert!(views.locked.is_none(), "one lock holder per bus");
                    views.locked = Some(slot);
                }
            }
            views
        }
    }

    impl RequestSet for Views<'_> {
        fn pending(&self) -> SlotSet {
            self.pending
        }

        fn write_buffer(&self) -> Option<(usize, usize)> {
            self.write_buffer
        }

        fn locked(&self) -> Option<usize> {
            self.locked
        }

        fn waited(&self, slot: usize) -> u64 {
            self.requests[self.by_slot[slot]].waited
        }

        fn bank_ready(&self, slot: usize) -> bool {
            self.requests[self.by_slot[slot]].bank_ready
        }
    }

    /// Programs every requester's QoS, runs the chain over `requests` and
    /// checks that the eager reference chain agrees.
    fn decide(policy: &mut ArbitrationPolicy, requests: &[RequestView]) -> Option<Decision> {
        for request in requests {
            if policy.slot(request.master).is_none() || policy.qos(request.master) != request.qos {
                policy.program_qos(request.master, request.qos);
            }
        }
        let decision = policy.decide(&Views::new(policy, requests));
        let expected = reference::decide(policy.config(), policy.last_granted(), requests);
        assert_eq!(
            decision, expected,
            "slot-set chain disagrees with the eager chain"
        );
        decision
    }

    fn nrt(master: u8, priority: u8, waited: u64) -> RequestView {
        RequestView::new(
            MasterId::new(master),
            QosConfig::non_real_time(priority),
            waited,
        )
    }

    fn rt(master: u8, objective: u32, priority: u8, waited: u64) -> RequestView {
        RequestView::new(
            MasterId::new(master),
            QosConfig::real_time(objective, priority),
            waited,
        )
    }

    /// A random request set: 1-130 requesters with distinct ids anywhere
    /// in the 8-bit space (15 and the 240-255 bridge range are drawn often),
    /// at most one write buffer and one lock holder, some masked, random
    /// QoS, waits and bank readiness, and extra programmed masters that do
    /// not request.
    fn random_requests(rng: &mut TestRng, count: usize) -> (Vec<RequestView>, Vec<MasterId>) {
        let mut ids: Vec<u8> = (0..=255).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // Pull 15 and one bridge id to the front half the time each.
        if rng.below(2) == 0 {
            let at = ids.iter().position(|&id| id == 15).unwrap();
            ids.swap(0, at);
        }
        if rng.below(2) == 0 {
            let bridge = 240 + rng.below(16) as u8;
            let at = ids.iter().position(|&id| id == bridge).unwrap();
            ids.swap(1, at);
        }
        let write_buffer = (rng.below(3) != 0).then(|| rng.below(count as u64) as usize);
        let locked = (rng.below(8) == 0).then(|| rng.below(count as u64) as usize);
        let requests = (0..count)
            .map(|index| {
                let qos = if rng.below(3) == 0 {
                    QosConfig::real_time(rng.below(400) as u32, rng.below(16) as u8)
                } else {
                    QosConfig::non_real_time(rng.below(16) as u8)
                };
                RequestView {
                    master: MasterId::new(ids[index]),
                    qos,
                    waited: rng.below(500),
                    masked: rng.below(10) == 0,
                    holds_lock: locked == Some(index),
                    is_write_buffer: write_buffer == Some(index),
                    write_buffer_fill: rng.below(6) as usize,
                    bank_ready: rng.below(2) == 0,
                }
            })
            .collect();
        let idle = (count..count + rng.below(8) as usize)
            .filter(|&index| index < ids.len())
            .map(|index| MasterId::new(ids[index]))
            .collect();
        (requests, idle)
    }

    proptest! {
        /// The slot-set chain picks the same master, for the same reason,
        /// as the eager chain over every single-filter ablation and the
        /// plain-AHB configuration, with and without a previous grant.
        #[test]
        fn chain_matches_the_eager_reference(seed in any::<u64>(), count in 1usize..131) {
            let mut rng = TestRng::new(seed);
            let (requests, idle) = random_requests(&mut rng, count);
            let configs = ArbitrationFilter::ALL
                .iter()
                .map(|&filter| ArbiterConfig::ahb_plus().without(filter))
                .chain([ArbiterConfig::ahb_plus(), ArbiterConfig::plain_ahb_fixed_priority()]);
            for config in configs {
                let mut policy = ArbitrationPolicy::new(config);
                for &master in &idle {
                    policy.program_qos(master, QosConfig::non_real_time(rng.below(16) as u8));
                }
                decide(&mut policy, &requests);
                for _ in 0..3 {
                    // A previous grant anywhere in the id space, requesting
                    // or not.
                    policy.record_grant(MasterId::new(rng.below(256) as u8));
                    decide(&mut policy, &requests);
                }
            }
        }
    }

    #[test]
    fn slot_sets_answer_membership_and_cyclic_search() {
        let set: SlotSet = [3usize, 64, 200, 255].into_iter().collect();
        assert!(set.contains(64) && !set.contains(65));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 64, 200, 255]);
        assert_eq!(set.next_cyclic(0), Some(3));
        assert_eq!(set.next_cyclic(4), Some(64));
        assert_eq!(set.next_cyclic(201), Some(255));
        assert_eq!(set.next_cyclic(256), Some(3), "wraps past the last word");
        assert_eq!(set.only(), None);
        assert_eq!(SlotSet::single(200).only(), Some(200));
        assert_eq!(SlotSet::EMPTY.only(), None);
        assert_eq!(SlotSet::EMPTY.next_cyclic(7), None);
        assert_eq!(
            set.retain(|slot| slot > 100),
            SlotSet::single(200) | SlotSet::single(255)
        );
    }

    #[test]
    fn a_bus_wider_than_one_word_keeps_every_slot() {
        // 65 programmed masters: the last slot lives in the second word.
        let mut requests: Vec<RequestView> = (0..65u8).map(|id| nrt(id, 5, 0)).collect();
        requests[64] = rt(64, 100_000, 9, 0);
        let mut policy = ArbitrationPolicy::default();
        let decision = decide(&mut policy, &requests).expect("grant");
        assert_eq!(decision.master, MasterId::new(64));
        assert_eq!(decision.decided_by, ArbitrationFilter::RealTimeClass);
    }

    #[test]
    fn slots_follow_master_ids_not_programming_order() {
        let mut policy = ArbitrationPolicy::default();
        for id in [241u8, 15, 2, 0] {
            policy.program_qos(MasterId::new(id), QosConfig::default());
        }
        let slots: Vec<_> = [0u8, 2, 15, 241]
            .iter()
            .map(|&id| policy.slot(MasterId::new(id)))
            .collect();
        assert_eq!(slots, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(policy.slot(MasterId::new(1)), None);
        assert_eq!(policy.slots(), 4);
    }

    #[test]
    fn sampled_requests_feed_the_chain() {
        let mut policy = ArbitrationPolicy::default();
        policy.program_qos(MasterId::new(0), QosConfig::non_real_time(0));
        policy.program_qos(MasterId::new(1), QosConfig::real_time(100, 7));
        let (cpu, video) = (0, 1);
        let mut sampled = SampledRequests::new();
        sampled.push(cpu, Cycle::new(10), Addr::new(0x100));
        sampled.push(video, Cycle::new(0), Addr::new(0x200));
        assert_eq!(sampled.addr(video), Some(Addr::new(0x200)));
        // At cycle 90 the video request has waited 90 of its 100 cycles.
        let decision = policy.decide(&sampled.at(Cycle::new(90), |_| false));
        assert_eq!(
            decision.map(|d| d.decided_by),
            Some(ArbitrationFilter::QosUrgency)
        );
        sampled.clear();
        assert_eq!(sampled.addr(video), None);
        assert_eq!(policy.decide(&sampled.at(Cycle::new(90), |_| false)), None);
    }

    #[test]
    fn no_requests_no_grant() {
        let mut policy = ArbitrationPolicy::default();
        assert_eq!(decide(&mut policy, &[]), None);
        let masked = RequestView {
            masked: true,
            ..nrt(0, 0, 0)
        };
        assert_eq!(decide(&mut policy, &[masked]), None);
    }

    #[test]
    fn single_request_wins_immediately() {
        let mut policy = ArbitrationPolicy::default();
        let decision = decide(&mut policy, &[nrt(3, 7, 0)]).expect("grant");
        assert_eq!(decision.master, MasterId::new(3));
    }

    #[test]
    fn locked_master_keeps_the_bus() {
        let mut policy = ArbitrationPolicy::default();
        let mut locked = nrt(2, 9, 0);
        locked.holds_lock = true;
        let urgent_rt = rt(0, 8, 0, 100); // would otherwise win easily
        let decision = decide(&mut policy, &[urgent_rt, locked]).expect("grant");
        assert_eq!(decision.master, MasterId::new(2));
        assert_eq!(decision.decided_by, ArbitrationFilter::RequestMask);
    }

    #[test]
    fn nearly_full_write_buffer_preempts() {
        let mut policy = ArbitrationPolicy::default();
        let mut buffer = nrt(7, 15, 0);
        buffer.is_write_buffer = true;
        buffer.write_buffer_fill = 4;
        let rt_master = rt(0, 1000, 0, 0);
        let decision = decide(&mut policy, &[rt_master, buffer]).expect("grant");
        assert_eq!(decision.master, MasterId::new(7));
        assert_eq!(decision.decided_by, ArbitrationFilter::WriteBufferUrgency);
    }

    #[test]
    fn qos_urgency_beats_class_and_priority() {
        let mut policy = ArbitrationPolicy::default();
        // Master 5 is non-urgent real-time, master 1 is an urgent real-time
        // master with worse fixed priority.
        let relaxed = rt(5, 10_000, 0, 0);
        let urgent = rt(1, 40, 7, 30); // 30 waited + 16 margin >= 40
        let decision = decide(&mut policy, &[relaxed, urgent]).expect("grant");
        assert_eq!(decision.master, MasterId::new(1));
        assert_eq!(decision.decided_by, ArbitrationFilter::QosUrgency);
    }

    #[test]
    fn real_time_class_beats_non_real_time() {
        let mut policy = ArbitrationPolicy::default();
        let cpu = nrt(0, 0, 500);
        let video = rt(3, 100_000, 9, 0);
        let decision = decide(&mut policy, &[cpu, video]).expect("grant");
        assert_eq!(decision.master, MasterId::new(3));
        assert_eq!(decision.decided_by, ArbitrationFilter::RealTimeClass);
    }

    #[test]
    fn bank_affinity_prefers_ready_banks() {
        let mut policy = ArbitrationPolicy::default();
        let mut miss = nrt(0, 0, 0);
        miss.bank_ready = false;
        let mut hit = nrt(1, 5, 0);
        hit.bank_ready = true;
        let decision = decide(&mut policy, &[miss, hit]).expect("grant");
        assert_eq!(decision.master, MasterId::new(1));
        assert_eq!(decision.decided_by, ArbitrationFilter::BankAffinity);
    }

    #[test]
    fn round_robin_rotates_among_equals() {
        let mut policy = ArbitrationPolicy::default();
        let a = nrt(0, 5, 0);
        let b = nrt(1, 5, 0);
        let c = nrt(2, 5, 0);
        let first = decide(&mut policy, &[a, b, c]).expect("grant");
        assert_eq!(first.master, MasterId::new(0), "fixed priority tie-break");
        policy.record_grant(first.master);
        let second = decide(&mut policy, &[a, b, c]).expect("grant");
        assert_eq!(second.master, MasterId::new(1), "round robin advances");
        policy.record_grant(second.master);
        let third = decide(&mut policy, &[a, b, c]).expect("grant");
        assert_eq!(third.master, MasterId::new(2));
        policy.record_grant(third.master);
        let wrap = decide(&mut policy, &[a, b, c]).expect("grant");
        assert_eq!(wrap.master, MasterId::new(0));
    }

    #[test]
    fn plain_ahb_config_is_strict_priority() {
        let mut policy = ArbitrationPolicy::new(ArbiterConfig::plain_ahb_fixed_priority());
        let low = nrt(2, 9, 1_000_000);
        let high = nrt(1, 0, 0);
        for _ in 0..3 {
            let decision = decide(&mut policy, &[low, high]).expect("grant");
            assert_eq!(decision.master, MasterId::new(1), "always the same winner");
            policy.record_grant(decision.master);
        }
    }

    #[test]
    fn disabling_a_filter_changes_the_outcome() {
        let mut full = ArbitrationPolicy::new(ArbiterConfig::ahb_plus());
        let mut no_class = ArbitrationPolicy::new(
            ArbiterConfig::ahb_plus().without(ArbitrationFilter::RealTimeClass),
        );
        let cpu = nrt(0, 0, 0);
        let video = rt(1, 100_000, 9, 0);
        assert_eq!(
            decide(&mut full, &[cpu, video]).unwrap().master,
            MasterId::new(1)
        );
        assert_eq!(
            decide(&mut no_class, &[cpu, video]).unwrap().master,
            MasterId::new(0),
            "without the class filter the CPU's better fixed priority wins"
        );
    }

    #[test]
    fn with_and_without_maintain_chain_order() {
        let config = ArbiterConfig::plain_ahb_fixed_priority()
            .with(ArbitrationFilter::QosUrgency)
            .with(ArbitrationFilter::RealTimeClass);
        let positions: Vec<usize> = config
            .enabled
            .iter()
            .map(|f| ArbitrationFilter::ALL.iter().position(|x| x == f).unwrap())
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "filters stay in canonical order");
        assert!(config.is_enabled(ArbitrationFilter::QosUrgency));
        assert!(!config.is_enabled(ArbitrationFilter::BankAffinity));
    }

    #[test]
    fn decide_is_pure_until_record_grant() {
        let mut policy = ArbitrationPolicy::default();
        let a = nrt(0, 5, 0);
        let b = nrt(1, 5, 0);
        let first = decide(&mut policy, &[a, b]).unwrap();
        let second = decide(&mut policy, &[a, b]).unwrap();
        assert_eq!(first, second, "speculative decisions do not mutate state");
    }

    #[test]
    fn filter_display_names() {
        assert_eq!(ArbitrationFilter::QosUrgency.to_string(), "qos-urgency");
        assert_eq!(ArbitrationFilter::ALL.len(), 7);
    }
}
