//! # sim-multi — deterministic discrete-event component scheduler
//!
//! The top-level clock of the multi-core simulator. Components (OoO cores,
//! the shared LLC observer, future device models) implement [`Component`];
//! the [`Scheduler`] drives them off a min-heap event queue keyed by
//! `(next_tick, ComponentId)`.
//!
//! ## Determinism
//!
//! Every queue entry is a `(tick, id)` pair and each component has **at
//! most one** pending event (it is re-armed only by its own `tick` return
//! value), so all live keys are distinct and the heap pops them in one
//! total order — ties on `tick` break by `ComponentId`. The order in which
//! components were initially scheduled therefore cannot influence the
//! event trace, which is what makes N-core runs byte-identical across
//! re-runs and host thread counts. Keys are integers only; float keys
//! (with their NaN non-ordering) and wall-clock reads are banned from this
//! crate by a `check.sh` grep guard.
//!
//! ## Example
//!
//! ```
//! use sim_multi::{Component, Scheduler, Tick};
//!
//! struct Counter { left: u32 }
//! impl Component for Counter {
//!     fn tick(&mut self, now: u64) -> Tick {
//!         self.left -= 1;
//!         if self.left == 0 { Tick::Done } else { Tick::Reschedule(now + 2) }
//!     }
//! }
//!
//! let mut a = Counter { left: 3 };
//! let mut b = Counter { left: 2 };
//! let mut sched = Scheduler::new();
//! sched.schedule(0, 0);
//! sched.schedule(0, 1);
//! let stats = sched.run(&mut [&mut a, &mut b]);
//! assert_eq!(stats.events, 5);
//! assert_eq!(stats.final_tick, 4); // a: 0,2,4  b: 0,2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a component in the slice passed to [`Scheduler::run`]. Doubles
/// as the deterministic tie-breaker for events at the same tick: lower ids
/// tick first.
pub type ComponentId = u32;

/// What a component wants after a tick.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tick {
    /// Wake this component again at the given tick (must be strictly after
    /// the current one — zero-delay self-wakeups would stall the clock).
    Reschedule(u64),
    /// This component is finished; drop it from the event queue.
    Done,
}

/// Aggregate counters from one [`Scheduler::run`].
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SchedulerStats {
    /// Total events dispatched.
    pub events: u64,
    /// Tick of the last dispatched event (0 if none ran).
    pub final_tick: u64,
}

/// A schedulable simulation component.
///
/// `tick(now)` advances the component's local work at global tick `now`
/// and reports when it next wants the clock. A cycle-accurate core
/// reschedules at the next cycle in which it can act (`now + 1` while it
/// is busy, later across idle cycles); a coarse observer (LLC invariant
/// sweeps, a DMA engine) can sleep for thousands of ticks, which is the
/// point of an event queue over a lock-step loop.
pub trait Component {
    /// Advance to global tick `now`; say when to run next.
    fn tick(&mut self, now: u64) -> Tick;
}

/// Deterministic discrete-event scheduler: a min-heap of
/// `(next_tick, ComponentId)` wake-ups over a global tick counter.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    /// Min-heap via `Reverse`; see the crate docs for the determinism
    /// argument (all keys distinct, integer ordering total).
    queue: BinaryHeap<Reverse<(u64, ComponentId)>>,
    now: u64,
}

impl Scheduler {
    /// Creates an empty scheduler at tick 0.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Arms component `id`'s first wake-up at tick `at`. Call once per
    /// component before [`Scheduler::run`]; later wake-ups come from
    /// [`Tick::Reschedule`]. Scheduling the same component twice would
    /// break the one-pending-event invariant, so don't.
    pub fn schedule(&mut self, at: u64, id: ComponentId) {
        self.queue.push(Reverse((at, id)));
    }

    /// The current global tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Runs until the event queue drains (every component returned
    /// [`Tick::Done`]). `components` is indexed by [`ComponentId`].
    ///
    /// # Panics
    ///
    /// If an event names an id outside `components`, or a component
    /// reschedules itself at or before the current tick (the clock must
    /// advance).
    pub fn run(&mut self, components: &mut [&mut dyn Component]) -> SchedulerStats {
        self.run_inner(components, None)
    }

    /// [`Scheduler::run`], recording every dispatched `(tick, id)` event
    /// into `trace`. The trace is the object of the determinism proptest:
    /// any insertion order of ready components must yield the same one.
    pub fn run_traced(
        &mut self,
        components: &mut [&mut dyn Component],
        trace: &mut Vec<(u64, ComponentId)>,
    ) -> SchedulerStats {
        self.run_inner(components, Some(trace))
    }

    fn run_inner(
        &mut self,
        components: &mut [&mut dyn Component],
        mut trace: Option<&mut Vec<(u64, ComponentId)>>,
    ) -> SchedulerStats {
        let mut stats = SchedulerStats::default();
        while let Some(Reverse((tick, id))) = self.queue.pop() {
            debug_assert!(tick >= self.now, "event queue went backwards");
            self.now = tick;
            stats.events += 1;
            stats.final_tick = tick;
            if let Some(t) = trace.as_deref_mut() {
                t.push((tick, id));
            }
            match components[id as usize].tick(tick) {
                Tick::Reschedule(next) => {
                    assert!(
                        next > tick,
                        "component {id} rescheduled at {next} <= current tick {tick}"
                    );
                    self.queue.push(Reverse((next, id)));
                }
                Tick::Done => {}
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks at a fixed period a fixed number of times.
    struct Periodic {
        period: u64,
        left: u32,
    }

    impl Component for Periodic {
        fn tick(&mut self, now: u64) -> Tick {
            self.left -= 1;
            if self.left == 0 {
                Tick::Done
            } else {
                Tick::Reschedule(now + self.period)
            }
        }
    }

    #[test]
    fn drains_when_all_components_finish() {
        let mut a = Periodic { period: 1, left: 5 };
        let mut sched = Scheduler::new();
        sched.schedule(0, 0);
        let stats = sched.run(&mut [&mut a]);
        assert_eq!(stats.events, 5);
        assert_eq!(stats.final_tick, 4);
        assert_eq!(sched.now(), 4);
    }

    #[test]
    fn ties_break_by_component_id() {
        let mut a = Periodic { period: 4, left: 3 };
        let mut b = Periodic { period: 4, left: 3 };
        let mut sched = Scheduler::new();
        // Arm in reverse id order: the trace must still order ties by id.
        sched.schedule(0, 1);
        sched.schedule(0, 0);
        let mut trace = Vec::new();
        sched.run_traced(&mut [&mut a, &mut b], &mut trace);
        assert_eq!(trace, vec![(0, 0), (0, 1), (4, 0), (4, 1), (8, 0), (8, 1)]);
    }

    #[test]
    fn mixed_periods_interleave_in_tick_order() {
        let mut fast = Periodic { period: 1, left: 4 };
        let mut slow = Periodic { period: 3, left: 2 };
        let mut sched = Scheduler::new();
        sched.schedule(0, 0);
        sched.schedule(0, 1);
        let mut trace = Vec::new();
        sched.run_traced(&mut [&mut fast, &mut slow], &mut trace);
        assert_eq!(trace, vec![(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "rescheduled at")]
    fn zero_delay_reschedule_panics() {
        struct Stuck;
        impl Component for Stuck {
            fn tick(&mut self, now: u64) -> Tick {
                Tick::Reschedule(now)
            }
        }
        let mut s = Stuck;
        let mut sched = Scheduler::new();
        sched.schedule(0, 0);
        sched.run(&mut [&mut s]);
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let mut sched = Scheduler::new();
        let stats = sched.run(&mut []);
        assert_eq!(stats, SchedulerStats::default());
    }
}
