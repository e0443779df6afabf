//! The event loop.
//!
//! [`Engine`] owns a model implementing [`Simulate`] and an [`EventQueue`],
//! and advances virtual time by repeatedly delivering the earliest pending
//! event to the model. The model reacts by mutating its own state and
//! scheduling further events.
//!
//! The loop guarantees:
//! * time never goes backwards (checked with a debug assertion);
//! * events at the same instant are delivered in schedule order (see
//!   [`EventQueue`]);
//! * a run ends when the queue is empty, a time horizon is reached, or the
//!   model asks to stop.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A simulation model: reacts to events, schedules more.
pub trait Simulate {
    /// The event alphabet of the model.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Polled after every event; returning `true` ends the run early.
    ///
    /// The default never stops. The experiment harness overrides this to
    /// abandon minimum-space probes as soon as the first transaction kill is
    /// observed.
    fn should_stop(&self, _now: SimTime) -> bool {
        false
    }
}

/// Drives a [`Simulate`] model to completion.
pub struct Engine<M: Simulate> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    events_processed: u64,
}

impl<M: Simulate> Engine<M> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Current virtual time (time of the most recently delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to seed initial state).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Immutable access to the queue (e.g. to read perf counters).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Mutable access to the queue (e.g. to schedule the first events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Runs until the queue empties or the model stops; returns final time.
    pub fn run_to_completion(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `horizon` (exclusive: an event *at* the horizon still
    /// fires, events after it stay queued), the queue empties, or the model
    /// requests a stop. Returns the virtual time at exit.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        // Fused peek-and-pop: one queue access per delivered event.
        while let Some((at, event)) = self.queue.pop_at_or_before(horizon) {
            debug_assert!(
                at >= self.now,
                "time ran backwards: {at:?} < {:?}",
                self.now
            );
            self.now = at;
            self.events_processed += 1;
            self.model.handle(at, event, &mut self.queue);
            if self.model.should_stop(at) {
                break;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every delivery; reschedules `echoes` copies one tick later.
    struct Recorder {
        log: Vec<(SimTime, u32)>,
        echoes: u32,
        stop_at: Option<SimTime>,
    }

    impl Simulate for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.log.push((now, ev));
            for _ in 0..self.echoes {
                if ev > 0 {
                    q.schedule(now + SimTime::from_micros(1), ev - 1);
                }
            }
        }
        fn should_stop(&self, now: SimTime) -> bool {
            self.stop_at.is_some_and(|t| now >= t)
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            log: Vec::new(),
            echoes: 0,
            stop_at: None,
        }
    }

    #[test]
    fn empty_queue_finishes_at_zero() {
        let mut e = Engine::new(recorder());
        assert_eq!(e.run_to_completion(), SimTime::ZERO);
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut e = Engine::new(Recorder {
            echoes: 1,
            ..recorder()
        });
        e.queue_mut().schedule(SimTime::ZERO, 5);
        let end = e.run_to_completion();
        assert_eq!(end, SimTime::from_micros(5));
        assert_eq!(e.events_processed(), 6);
        assert_eq!(e.model().log.len(), 6);
    }

    #[test]
    fn horizon_is_inclusive_and_preserves_later_events() {
        let mut e = Engine::new(recorder());
        e.queue_mut().schedule(SimTime::from_millis(1), 1);
        e.queue_mut().schedule(SimTime::from_millis(2), 2);
        e.queue_mut().schedule(SimTime::from_millis(3), 3);
        e.run_until(SimTime::from_millis(2));
        assert_eq!(
            e.model().log,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(2), 2),]
        );
        // The third event is still pending and fires on resume.
        e.run_to_completion();
        assert_eq!(e.model().log.len(), 3);
    }

    #[test]
    fn model_can_stop_early() {
        let mut e = Engine::new(Recorder {
            echoes: 1,
            stop_at: Some(SimTime::from_micros(2)),
            ..recorder()
        });
        e.queue_mut().schedule(SimTime::ZERO, 100);
        e.run_to_completion();
        assert_eq!(e.now(), SimTime::from_micros(2));
        assert_eq!(e.model().log.len(), 3); // t=0,1,2
    }

    #[test]
    fn branching_fanout_terminates() {
        // 2^n fan-out but decreasing payload: must terminate.
        let mut e = Engine::new(Recorder {
            echoes: 2,
            ..recorder()
        });
        e.queue_mut().schedule(SimTime::ZERO, 4);
        e.run_to_completion();
        // 1 + 2 + 4 + 8 + 16 = 31 deliveries for payloads 4..0.
        assert_eq!(e.events_processed(), 31);
    }
}
