//! Golden pin of the whole observation surface.
//!
//! Every registered model runs every catalogue scenario (60 transactions
//! per master) twice: once plain, once traced. One FNV-1a hash covers
//! the `Debug` rendering of the final [`analysis::Probe`], the
//! [`analysis::SimReport`] with its wall-clock time zeroed, and the traced
//! run's `TraceLog::counters` and `.ahbt` bytes. A refactor of how the
//! backends count (recorder, probe, trace header) must leave the hash
//! unchanged; a real change of simulated results or of a schema moves it.

use ahbplus::{scenario_catalogue, MODELS};

/// The hash of the observation surface, as computed before the
/// observation pipeline was unified.
const GOLDEN: u64 = 0x3349_b132_5a88_d818;

const TRANSACTIONS_PER_MASTER: usize = 60;

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn observation_surface_matches_the_golden_hash() {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for spec in scenario_catalogue() {
        let config = spec
            .clone()
            .with_transactions(TRANSACTIONS_PER_MASTER)
            .resolve()
            .expect("catalogue scenarios resolve");
        for model in &MODELS {
            let mut plain = model.build(&config);
            let mut report = plain.run();
            report.wall_seconds = 0.0;
            hash.feed(format!("{}/{}\n", spec.name, model.id).as_bytes());
            hash.feed(format!("{:?}\n{report:?}\n", plain.probe()).as_bytes());

            let mut traced = model.build(&config);
            traced.set_tracing(true);
            traced.run();
            let log = traced.take_trace().expect("every backend traces");
            hash.feed(format!("{:?}\n", log.counters).as_bytes());
            hash.feed(&log.to_binary());
        }
    }
    assert_eq!(
        hash.0, GOLDEN,
        "observation surface changed: {:#018x}",
        hash.0
    );
}
