//! The eager filter chain the slot-set chain replaced, kept as the test
//! oracle: it snapshots every request into a [`RequestView`] up front,
//! computes every predicate for every request, and indexes candidates by
//! their position in the request slice (a bitmask up to 64 requests, an
//! index vector beyond).

use super::{ArbiterConfig, ArbitrationFilter, Decision};
use crate::ids::MasterId;
use crate::qos::QosConfig;

/// Snapshot of one pending bus request as seen by the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView {
    /// Requesting master (the write buffer uses its own master id).
    pub master: MasterId,
    /// QoS registers of the requesting master.
    pub qos: QosConfig,
    /// Cycles the request has been outstanding.
    pub waited: u64,
    /// Request is masked out (e.g. the decoder reports an unmapped address).
    pub masked: bool,
    /// The master currently holds a locked sequence and must keep the bus.
    pub holds_lock: bool,
    /// This request comes from the AHB+ write buffer.
    pub is_write_buffer: bool,
    /// Current write-buffer occupancy (only meaningful for the buffer's own
    /// request).
    pub write_buffer_fill: usize,
    /// Target DRAM bank is ready (idle or row already open).
    pub bank_ready: bool,
}

impl RequestView {
    /// A plain, unmasked request snapshot.
    pub fn new(master: MasterId, qos: QosConfig, waited: u64) -> Self {
        RequestView {
            master,
            qos,
            waited,
            masked: false,
            holds_lock: false,
            is_write_buffer: false,
            write_buffer_fill: 0,
            bank_ready: false,
        }
    }
}

/// The eager chain over `requests` under `config`, with the round-robin
/// pointer at `last_granted`.
pub fn decide(
    config: &ArbiterConfig,
    last_granted: Option<MasterId>,
    requests: &[RequestView],
) -> Option<Decision> {
    if requests.len() > 64 {
        return decide_unbounded(config, last_granted, requests);
    }
    let mut mask: u64 = 0;
    let mut locked: u64 = 0;
    let mut wb_urgent: u64 = 0;
    let mut urgent: u64 = 0;
    let mut real_time: u64 = 0;
    let mut bank_ready: u64 = 0;
    for (i, request) in requests.iter().enumerate() {
        let bit = 1u64 << i;
        if request.masked {
            continue;
        }
        mask |= bit;
        if request.holds_lock {
            locked |= bit;
        }
        if request.is_write_buffer
            && request.write_buffer_fill >= config.write_buffer_high_watermark
        {
            wb_urgent |= bit;
        }
        if request.qos.is_urgent(request.waited, config.urgency_margin) {
            urgent |= bit;
        }
        if request.qos.class.is_real_time() {
            real_time |= bit;
        }
        if request.bank_ready {
            bank_ready |= bit;
        }
    }
    if mask == 0 {
        return None;
    }
    for filter in &config.enabled_in_chain_order() {
        let narrowed = match filter {
            ArbitrationFilter::RequestMask => mask & locked,
            ArbitrationFilter::WriteBufferUrgency => mask & wb_urgent,
            ArbitrationFilter::QosUrgency => mask & urgent,
            ArbitrationFilter::RealTimeClass => mask & real_time,
            ArbitrationFilter::BankAffinity => mask & bank_ready,
            ArbitrationFilter::RoundRobin => match last_granted {
                None => mask,
                Some(last) => {
                    let best = min_by_key_mask(mask, |i| distance(last, requests[i].master))
                        .map(|i| distance(last, requests[i].master));
                    retain_mask(mask, |i| Some(distance(last, requests[i].master)) == best)
                }
            },
            ArbitrationFilter::FixedPriority => {
                let key = |i: usize| (requests[i].qos.fixed_priority, requests[i].master.index());
                let best = min_by_key_mask(mask, key).map(key);
                retain_mask(mask, |i| Some(key(i)) == best)
            }
        };
        if narrowed != 0 {
            mask = narrowed;
        }
        if mask.count_ones() == 1 {
            return Some(Decision {
                master: requests[mask.trailing_zeros() as usize].master,
                decided_by: *filter,
            });
        }
    }
    let index = min_by_key_mask(mask, |i| {
        (requests[i].qos.fixed_priority, requests[i].master.index())
    })?;
    Some(Decision {
        master: requests[index].master,
        decided_by: ArbitrationFilter::FixedPriority,
    })
}

/// The same chain over an index vector, for more than 64 requests.
fn decide_unbounded(
    config: &ArbiterConfig,
    last_granted: Option<MasterId>,
    requests: &[RequestView],
) -> Option<Decision> {
    let mut candidates: Vec<usize> = (0..requests.len())
        .filter(|&i| !requests[i].masked)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    for filter in &config.enabled_in_chain_order() {
        let keep = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
            candidates.iter().copied().filter(|&i| pred(i)).collect()
        };
        let narrowed = match filter {
            ArbitrationFilter::RequestMask => keep(&|i| requests[i].holds_lock),
            ArbitrationFilter::WriteBufferUrgency => keep(&|i| {
                requests[i].is_write_buffer
                    && requests[i].write_buffer_fill >= config.write_buffer_high_watermark
            }),
            ArbitrationFilter::QosUrgency => keep(&|i| {
                requests[i]
                    .qos
                    .is_urgent(requests[i].waited, config.urgency_margin)
            }),
            ArbitrationFilter::RealTimeClass => keep(&|i| requests[i].qos.class.is_real_time()),
            ArbitrationFilter::BankAffinity => keep(&|i| requests[i].bank_ready),
            ArbitrationFilter::RoundRobin => match last_granted {
                None => candidates.clone(),
                Some(last) => {
                    let best = candidates
                        .iter()
                        .map(|&i| distance(last, requests[i].master))
                        .min();
                    keep(&|i| Some(distance(last, requests[i].master)) == best)
                }
            },
            ArbitrationFilter::FixedPriority => {
                let key = |i: usize| (requests[i].qos.fixed_priority, requests[i].master.index());
                let best = candidates.iter().map(|&i| key(i)).min();
                keep(&|i| Some(key(i)) == best)
            }
        };
        if !narrowed.is_empty() {
            candidates = narrowed;
        }
        if candidates.len() == 1 {
            return Some(Decision {
                master: requests[candidates[0]].master,
                decided_by: *filter,
            });
        }
    }
    let index = candidates
        .iter()
        .copied()
        .min_by_key(|&i| (requests[i].qos.fixed_priority, requests[i].master.index()))?;
    Some(Decision {
        master: requests[index].master,
        decided_by: ArbitrationFilter::FixedPriority,
    })
}

/// Cyclic distance of `master` after `last` over the 8-bit id space.
fn distance(last: MasterId, master: MasterId) -> usize {
    (master.index() + 256 - last.index() - 1) % 256
}

impl ArbiterConfig {
    fn enabled_in_chain_order(&self) -> Vec<ArbitrationFilter> {
        ArbitrationFilter::ALL
            .into_iter()
            .filter(|f| self.is_enabled(*f))
            .collect()
    }
}

/// Keeps the bits of `mask` whose index satisfies `keep`.
fn retain_mask(mask: u64, mut keep: impl FnMut(usize) -> bool) -> u64 {
    let mut out = 0u64;
    let mut rest = mask;
    while rest != 0 {
        let index = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if keep(index) {
            out |= 1 << index;
        }
    }
    out
}

/// Index (within `mask`) minimizing `key`, or `None` for an empty mask.
fn min_by_key_mask<K: Ord>(mask: u64, mut key: impl FnMut(usize) -> K) -> Option<usize> {
    let mut best: Option<(K, usize)> = None;
    let mut rest = mask;
    while rest != 0 {
        let index = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let k = key(index);
        match &best {
            Some((bk, _)) if *bk <= k => {}
            _ => best = Some((k, index)),
        }
    }
    best.map(|(_, index)| index)
}
