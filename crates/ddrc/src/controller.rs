//! The DDR memory controller.
//!
//! The controller owns one [`Bank`] FSM per bank, arbitrates their use of
//! the single DRAM data bus, schedules refresh, and — the AHB+ specific part
//! — accepts *prepare* hints over the Bus Interface so that the bank needed
//! by the **next** bus transaction is already activating while the current
//! transaction is still transferring data (paper §2: "the arbiter gives the
//! next transaction information to DDRC in advance, then DDRC can pre-charge
//! the next accessed memory bank ... the next data can be served immediately
//! right after the previous data is processed").
//!
//! The data path is abstracted (no byte storage); only timing and statistics
//! are modeled, as in the paper.

use amba::bi::{AccessPermission, BankHint};
use amba::ids::Addr;
use simkern::stats::Counter;
use simkern::time::{Cycle, CycleDelta};

use crate::bank::{AccessClass, Bank};
use crate::geometry::{DdrGeometry, DecodedAddr};
use crate::timing::DdrTiming;

/// Full configuration of the DDR controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrConfig {
    /// Device timing parameters.
    pub timing: DdrTiming,
    /// Device organization.
    pub geometry: DdrGeometry,
    /// Whether prepare hints received over the Bus Interface are honoured.
    /// Disabling this reproduces a plain controller without bank
    /// interleaving support (used by the ablation benchmarks).
    pub honour_prepare_hints: bool,
}

impl DdrConfig {
    /// The default AHB+ platform controller: DDR-266 timings, four banks,
    /// prepare hints honoured.
    #[must_use]
    pub fn ahb_plus() -> Self {
        DdrConfig {
            timing: DdrTiming::ddr_266(),
            geometry: DdrGeometry::four_bank_2k(),
            honour_prepare_hints: true,
        }
    }

    /// Same device but ignoring prepare hints (no bank interleaving).
    #[must_use]
    pub fn without_interleaving() -> Self {
        DdrConfig {
            honour_prepare_hints: false,
            ..DdrConfig::ahb_plus()
        }
    }
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig::ahb_plus()
    }
}

/// Timing decomposition of one memory access as computed by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// Cycles the request waited for the DRAM data bus and bank.
    pub queue_cycles: CycleDelta,
    /// Cycles spent on precharge/activate/CAS before the first data beat.
    pub array_cycles: CycleDelta,
    /// Cycles spent streaming data (one beat per bus cycle).
    pub data_cycles: CycleDelta,
    /// How the bank served the access.
    pub class: AccessClass,
}

impl AccessTiming {
    /// Cycles from the request until the first data beat.
    #[must_use]
    pub fn first_data_latency(&self) -> CycleDelta {
        self.queue_cycles + self.array_cycles
    }

    /// Cycles from the request until the last data beat has transferred.
    #[must_use]
    pub fn total(&self) -> CycleDelta {
        self.queue_cycles + self.array_cycles + self.data_cycles
    }
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DdrStats {
    /// Accesses that found their row open.
    pub row_hits: Counter,
    /// Accesses to an idle bank.
    pub row_misses: Counter,
    /// Accesses that had to close another row first.
    pub row_conflicts: Counter,
    /// Accesses whose row had been opened in advance by a BI prepare hint.
    pub prepared_hits: Counter,
    /// Prepare hints received.
    pub prepares_received: Counter,
    /// Prepare hints that were ignored (hint honouring disabled).
    pub prepares_ignored: Counter,
    /// Refresh operations performed.
    pub refreshes: Counter,
    /// Total data beats transferred.
    pub data_beats: Counter,
}

impl DdrStats {
    /// Total number of accesses classified.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.row_hits.value()
            + self.row_misses.value()
            + self.row_conflicts.value()
            + self.prepared_hits.value()
    }

    /// Fraction of accesses that were row hits or prepared hits.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 0.0;
        }
        (self.row_hits.value() + self.prepared_hits.value()) as f64 / total as f64
    }
}

/// The DDR memory controller.
///
/// # Example
///
/// ```
/// use ddrc::{DdrConfig, DdrController};
/// use amba::ids::Addr;
/// use simkern::time::Cycle;
///
/// let mut ctrl = DdrController::new(DdrConfig::ahb_plus());
/// // Hint the controller about the next transaction...
/// ctrl.prepare(Cycle::new(0), Addr::new(0x2000_0000));
/// // ...so the actual access a little later finds its row opening already.
/// let timing = ctrl.access(Cycle::new(6), Addr::new(0x2000_0000), false, 8);
/// assert!(timing.total().value() < 16);
/// ```
#[derive(Debug, Clone)]
pub struct DdrController {
    config: DdrConfig,
    banks: Vec<Bank>,
    /// The DRAM data bus is shared: a new burst cannot start data transfer
    /// before the previous one has finished.
    data_bus_free_at: Cycle,
    /// End of the refresh currently blocking the device, if any.
    refresh_until: Option<Cycle>,
    /// When the next refresh is due.
    next_refresh_at: Cycle,
    stats: DdrStats,
}

impl DdrController {
    /// Creates a controller with all banks idle.
    #[must_use]
    pub fn new(config: DdrConfig) -> Self {
        let banks = (0..config.geometry.banks).map(|_| Bank::new()).collect();
        let next_refresh_at = if config.timing.t_refi == 0 {
            Cycle::MAX
        } else {
            Cycle::new(u64::from(config.timing.t_refi))
        };
        DdrController {
            config,
            banks,
            data_bus_free_at: Cycle::ZERO,
            refresh_until: None,
            next_refresh_at,
            stats: DdrStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DdrConfig {
        &self.config
    }

    /// Controller statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &DdrStats {
        &self.stats
    }

    /// Decodes a bus address into DRAM coordinates.
    #[must_use]
    pub fn decode(&self, addr: Addr) -> DecodedAddr {
        self.config.geometry.decode(addr)
    }

    /// Receives a Bus-Interface prepare hint for the next transaction.
    ///
    /// If hint honouring is disabled the hint is counted but ignored.
    pub fn prepare(&mut self, now: Cycle, addr: Addr) {
        self.stats.prepares_received.incr();
        if !self.config.honour_prepare_hints {
            self.stats.prepares_ignored.incr();
            return;
        }
        let now = self.apply_refresh(now);
        let decoded = self.decode(addr);
        let timing = self.config.timing;
        self.banks[decoded.bank as usize].prepare(now, decoded.row, &timing);
    }

    /// Performs a read or write burst of `beats` beats starting at `addr`,
    /// returning its timing decomposition and advancing all internal state.
    pub fn access(&mut self, now: Cycle, addr: Addr, is_write: bool, beats: u32) -> AccessTiming {
        let effective_now = self.apply_refresh(now);
        let decoded = self.decode(addr);
        let timing = self.config.timing;
        let bank_access = self.banks[decoded.bank as usize].access(
            effective_now,
            decoded.row,
            is_write,
            beats,
            &timing,
        );

        // First data beat cannot happen before the shared data bus is free.
        let refresh_wait = effective_now.saturating_since(now);
        let array_first_data = effective_now + bank_access.latency;
        let bus_first_data = self.data_bus_free_at.max(array_first_data);
        let queue_cycles = refresh_wait + bus_first_data.saturating_since(array_first_data);
        let data_cycles = CycleDelta::new(u64::from(beats));
        self.data_bus_free_at = bus_first_data + data_cycles;

        match bank_access.class {
            AccessClass::RowHit => self.stats.row_hits.incr(),
            AccessClass::RowMiss => self.stats.row_misses.incr(),
            AccessClass::RowConflict => self.stats.row_conflicts.incr(),
            AccessClass::PreparedHit => self.stats.prepared_hits.incr(),
        }
        self.stats.data_beats.add(u64::from(beats));

        AccessTiming {
            queue_cycles,
            array_cycles: bank_access.latency,
            data_cycles,
            class: bank_access.class,
        }
    }

    /// Bank readiness feedback for the arbiter's bank-affinity filter.
    ///
    /// Bit *b* of the returned hint is set when bank *b* would serve a new
    /// access cheaply right now (idle, or row open).
    #[must_use]
    pub fn bank_hint(&self, now: Cycle) -> BankHint {
        let mut mask = 0u32;
        for (index, bank) in self.banks.iter().enumerate() {
            let ready = match bank.open_row() {
                Some(row) => bank.is_ready_for(now, row),
                None => bank.is_ready_for(now, 0),
            };
            if ready {
                mask |= 1 << index;
            }
        }
        BankHint::new(self.config.geometry.banks, mask)
    }

    /// Returns `true` if an access to `addr` at `now` would find its bank
    /// ready (used to fill [`amba::arbitration::RequestSet::bank_ready`]).
    #[must_use]
    pub fn is_addr_ready(&self, now: Cycle, addr: Addr) -> bool {
        let decoded = self.decode(addr);
        self.banks[decoded.bank as usize].is_ready_for(now, decoded.row)
    }

    /// Access-permission handshake of the Bus Interface: deferred while a
    /// refresh is in progress.
    #[must_use]
    pub fn permission(&self, now: Cycle) -> AccessPermission {
        match self.refresh_until {
            Some(until) if until > now => {
                AccessPermission::Deferred(until.saturating_since(now).value() as u32)
            }
            _ => AccessPermission::Granted,
        }
    }

    /// Advances refresh bookkeeping and returns the cycle at which the
    /// device can actually start serving a request arriving at `now`.
    fn apply_refresh(&mut self, now: Cycle) -> Cycle {
        if self.config.timing.t_refi == 0 {
            return now;
        }
        // Launch any refresh that became due.
        while now >= self.next_refresh_at {
            let start = self.next_refresh_at.max(self.data_bus_free_at);
            let until = start + CycleDelta::new(u64::from(self.config.timing.t_rfc));
            self.refresh_until = Some(until);
            self.stats.refreshes.incr();
            self.next_refresh_at += CycleDelta::new(u64::from(self.config.timing.t_refi));
        }
        match self.refresh_until {
            Some(until) if until > now => until,
            _ => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_refresh_config() -> DdrConfig {
        DdrConfig {
            timing: DdrTiming::ddr_266().without_refresh(),
            geometry: DdrGeometry::four_bank_2k(),
            honour_prepare_hints: true,
        }
    }

    #[test]
    fn first_access_is_a_row_miss_with_expected_latency() {
        let mut ctrl = DdrController::new(no_refresh_config());
        let t = ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 8);
        assert_eq!(t.class, AccessClass::RowMiss);
        assert_eq!(t.array_cycles.value(), 5, "tRCD + CL");
        assert_eq!(t.data_cycles.value(), 8);
        assert_eq!(t.total().value(), 13);
        assert_eq!(ctrl.stats().row_misses.value(), 1);
    }

    #[test]
    fn same_row_second_access_is_a_hit() {
        let mut ctrl = DdrController::new(no_refresh_config());
        ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 4);
        let t = ctrl.access(Cycle::new(40), Addr::new(0x2000_0040), false, 4);
        assert_eq!(t.class, AccessClass::RowHit);
        assert_eq!(t.first_data_latency().value(), 2, "CL only");
        assert!((ctrl.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn different_row_same_bank_is_a_conflict() {
        let mut ctrl = DdrController::new(no_refresh_config());
        ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 4);
        // Same bank (bank bits above row offset): + 4 rows * 2KiB * 4 banks.
        let conflict_addr = Addr::new(0x2000_0000 + 4 * 2048);
        let t = ctrl.access(Cycle::new(60), conflict_addr, false, 4);
        assert_eq!(t.class, AccessClass::RowConflict);
        assert_eq!(ctrl.stats().row_conflicts.value(), 1);
    }

    #[test]
    fn prepare_hint_turns_miss_into_prepared_hit() {
        let mut with_hint = DdrController::new(no_refresh_config());
        with_hint.prepare(Cycle::new(0), Addr::new(0x2000_0800));
        let hinted = with_hint.access(Cycle::new(5), Addr::new(0x2000_0800), false, 8);

        let mut without_hint = DdrController::new(no_refresh_config());
        let cold = without_hint.access(Cycle::new(5), Addr::new(0x2000_0800), false, 8);

        assert_eq!(hinted.class, AccessClass::PreparedHit);
        assert!(hinted.first_data_latency() < cold.first_data_latency());
        assert_eq!(with_hint.stats().prepares_received.value(), 1);
        assert_eq!(with_hint.stats().prepared_hits.value(), 1);
    }

    #[test]
    fn disabled_hints_are_counted_but_ignored() {
        let mut ctrl = DdrController::new(DdrConfig {
            honour_prepare_hints: false,
            ..no_refresh_config()
        });
        ctrl.prepare(Cycle::new(0), Addr::new(0x2000_0800));
        let t = ctrl.access(Cycle::new(10), Addr::new(0x2000_0800), false, 8);
        assert_eq!(t.class, AccessClass::RowMiss);
        assert_eq!(ctrl.stats().prepares_ignored.value(), 1);
    }

    #[test]
    fn shared_data_bus_serializes_back_to_back_bursts() {
        let mut ctrl = DdrController::new(no_refresh_config());
        // Two accesses to different banks issued at the same time: the
        // second must wait for the data bus even though its bank is free.
        let a = ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 8);
        let b = ctrl.access(Cycle::new(0), Addr::new(0x2000_0800), false, 8);
        assert_eq!(a.queue_cycles.value(), 0);
        assert!(b.queue_cycles.value() > 0, "waits for the shared data bus");
        let a_end = a.total().value();
        let b_first = b.first_data_latency().value();
        assert!(b_first >= a_end, "data phases must not overlap");
    }

    #[test]
    fn bank_hint_reflects_open_banks() {
        let mut ctrl = DdrController::new(no_refresh_config());
        let hint0 = ctrl.bank_hint(Cycle::new(0));
        assert_eq!(hint0.ready_count(), 4, "all banks idle initially");
        ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 4);
        let hint = ctrl.bank_hint(Cycle::new(20));
        assert!(hint.is_ready(0), "bank 0 has its row open");
        assert!(ctrl.is_addr_ready(Cycle::new(20), Addr::new(0x2000_0040)));
        assert!(
            !ctrl.is_addr_ready(Cycle::new(20), Addr::new(0x2000_0000 + 4 * 2048)),
            "same bank, different row is not ready"
        );
    }

    #[test]
    fn refresh_defers_access_and_permission() {
        let config = DdrConfig {
            timing: DdrTiming {
                t_refi: 100,
                t_rfc: 10,
                ..DdrTiming::ddr_266()
            },
            geometry: DdrGeometry::four_bank_2k(),
            honour_prepare_hints: true,
        };
        let mut ctrl = DdrController::new(config);
        assert!(ctrl.permission(Cycle::new(0)).is_granted());
        // An access arriving right at the refresh deadline waits for tRFC.
        let t = ctrl.access(Cycle::new(100), Addr::new(0x2000_0000), false, 4);
        assert!(t.queue_cycles.value() >= 10);
        assert_eq!(ctrl.stats().refreshes.value(), 1);
        assert!(!ctrl.permission(Cycle::new(105)).is_granted());
        assert_eq!(ctrl.permission(Cycle::new(105)).defer_cycles(), 5);
    }

    #[test]
    fn stats_accumulate_beats_and_accesses() {
        let mut ctrl = DdrController::new(no_refresh_config());
        ctrl.access(Cycle::new(0), Addr::new(0x2000_0000), false, 8);
        ctrl.access(Cycle::new(30), Addr::new(0x2000_0040), true, 4);
        assert_eq!(ctrl.stats().data_beats.value(), 12);
        assert_eq!(ctrl.stats().accesses(), 2);
    }

    #[test]
    fn decode_exposes_geometry() {
        let ctrl = DdrController::new(no_refresh_config());
        let d = ctrl.decode(Addr::new(0x2000_0800));
        assert_eq!(d.bank, 1);
    }
}
