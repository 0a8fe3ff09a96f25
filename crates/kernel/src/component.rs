//! Clocked component abstraction for the two-step cycle-based model.

use crate::time::Cycle;

/// A hardware block stepped two-step cycle by cycle.
///
/// One simulated clock cycle consists of calling [`Clocked::eval`] on every
/// component (combinational logic: read committed signal values, schedule new
/// ones) followed by [`Clocked::commit`] on every component (sequential
/// logic: make the scheduled values visible). This mirrors the evaluate /
/// update split of the 2-step cycle-based simulator used in the paper. The
/// owner of the components drives the two phases; in this workspace that is
/// the pin-accurate platform's own run loop (`ahb_rtl::RtlSystem::run_until`).
///
/// # Example
///
/// ```
/// use simkern::component::Clocked;
/// use simkern::signal::Register;
/// use simkern::time::Cycle;
///
/// /// A free-running counter.
/// struct Counter {
///     value: Register<u32>,
/// }
///
/// impl Clocked for Counter {
///     fn eval(&mut self, _now: Cycle) {
///         let next = self.value.get().wrapping_add(1);
///         self.value.load(next);
///     }
///     fn commit(&mut self, _now: Cycle) {
///         self.value.commit();
///     }
/// }
///
/// let mut counter = Counter { value: Register::new(0) };
/// for cycle in 0..3 {
///     counter.eval(Cycle::new(cycle));
///     counter.commit(Cycle::new(cycle));
/// }
/// assert_eq!(counter.value.get(), 3);
/// ```
pub trait Clocked {
    /// Evaluate combinational logic for cycle `now`.
    ///
    /// Implementations must only *read* values committed in previous cycles
    /// and *schedule* new values; they must not make scheduled values
    /// visible themselves.
    fn eval(&mut self, now: Cycle);

    /// Commit scheduled state so it becomes visible in cycle `now + 1`.
    fn commit(&mut self, now: Cycle);

    /// Return the component to its power-on state.
    ///
    /// The default implementation does nothing; components with architectural
    /// state should override it.
    fn reset(&mut self) {}

    /// A short human-readable name used in traces and assertion messages.
    fn name(&self) -> &str {
        "component"
    }

    /// Idle-skip contract: returns `true` when stepping this component with
    /// `eval`/`commit` would not change any observable state *and* the
    /// component raises no new activity on its own before
    /// [`Clocked::wake_at`].
    ///
    /// When every component of a platform reports quiescence, the run loop
    /// driving them may fast-forward simulated time in one jump instead of
    /// calling both phases on every component every cycle. A component
    /// that cannot cheaply prove quiescence must keep the default (`false`),
    /// which disables skipping — correctness first, speed second.
    ///
    /// Implementations must uphold: if `is_quiescent()` is true at cycle
    /// `T`, then running `eval`/`commit` for every cycle in
    /// `[T, min(wake_at, end))` is state-identical to not running them.
    fn is_quiescent(&self) -> bool {
        false
    }

    /// The earliest future cycle at which this (currently quiescent)
    /// component becomes active again of its own accord, or `None` when it
    /// stays quiescent until some other component's activity reaches it.
    ///
    /// Only consulted when [`Clocked::is_quiescent`] returned `true`. The
    /// run loop fast-forwards to the minimum `wake_at` over all components
    /// (clamped to the run's end), so a periodic component (a refresh
    /// timer, a frame-paced master) must report its next deadline here.
    fn wake_at(&self) -> Option<Cycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Register;

    struct ShiftReg {
        stage0: Register<bool>,
        stage1: Register<bool>,
        input: bool,
    }

    impl Clocked for ShiftReg {
        fn eval(&mut self, _now: Cycle) {
            self.stage1.load(self.stage0.get());
            self.stage0.load(self.input);
        }
        fn commit(&mut self, _now: Cycle) {
            self.stage0.commit();
            self.stage1.commit();
        }
        fn reset(&mut self) {
            self.stage0.reset_now();
            self.stage1.reset_now();
        }
        fn name(&self) -> &str {
            "shift_reg"
        }
    }

    #[test]
    fn two_phase_semantics_prevent_shoot_through() {
        // With evaluate/commit semantics a value takes one cycle per stage;
        // a naive sequential update would propagate through both stages at
        // once.
        let mut sr = ShiftReg {
            stage0: Register::new(false),
            stage1: Register::new(false),
            input: true,
        };
        sr.eval(Cycle::new(0));
        sr.commit(Cycle::new(0));
        assert!(sr.stage0.get());
        assert!(!sr.stage1.get(), "second stage must lag by one cycle");
        sr.eval(Cycle::new(1));
        sr.commit(Cycle::new(1));
        assert!(sr.stage1.get());
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut sr = ShiftReg {
            stage0: Register::new(false),
            stage1: Register::new(false),
            input: true,
        };
        sr.eval(Cycle::new(0));
        sr.commit(Cycle::new(0));
        sr.reset();
        assert!(!sr.stage0.get());
        assert!(!sr.stage1.get());
        assert_eq!(sr.name(), "shift_reg");
    }
}
