//! Where emitted events go: [`TraceBuffer`], a fixed-capacity ring that
//! keeps the most recent events and counts what it dropped. A
//! [`Recorder`](crate::Recorder) with tracing off holds no buffer, so
//! instrumented code pays one branch on an `Option`.

use crate::event::ObsEvent;

/// An event with its deterministic timestamp (instruction count or round
/// number — never wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Instructions retired (or rounds completed) when the event occurred.
    pub ts: u64,
    /// The event.
    pub event: ObsEvent,
}

/// A fixed-capacity ring buffer of [`TimedEvent`]s.
///
/// When full, the oldest event is overwritten and `dropped` is incremented,
/// so a bounded buffer still reports exactly how much it did not keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    buf: Vec<TimedEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// Events ever recorded (kept + dropped).
    recorded: u64,
}

impl TraceBuffer {
    /// A ring keeping at most `capacity` events (`capacity` must be
    /// non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — leave tracing off to record nothing.
    pub fn new(capacity: usize) -> TraceBuffer {
        assert!(
            capacity > 0,
            "a zero-capacity trace records nothing; leave tracing off"
        );
        TraceBuffer {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
            recorded: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever recorded (kept + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Retained events matching a predicate, oldest first.
    pub fn filtered(&self, mut pred: impl FnMut(&ObsEvent) -> bool) -> Vec<TimedEvent> {
        self.events()
            .into_iter()
            .filter(|t| pred(&t.event))
            .collect()
    }

    /// Records one event at a deterministic timestamp.
    #[inline]
    pub fn record(&mut self, ts: u64, event: ObsEvent) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(TimedEvent { ts, event });
        } else {
            self.buf[self.head] = TimedEvent { ts, event };
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u16) -> ObsEvent {
        ObsEvent::Syscall {
            regime: n,
            number: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5u16 {
            t.record(i as u64, ev(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let kept: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn under_capacity_preserves_order() {
        let mut t = TraceBuffer::new(8);
        for i in 0..3u16 {
            t.record(i as u64, ev(i));
        }
        assert_eq!(t.dropped(), 0);
        let kept: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn filtered_selects_by_event() {
        let mut t = TraceBuffer::new(8);
        t.record(0, ObsEvent::ContextSwitch { from: 0, to: 1 });
        t.record(1, ev(1));
        let switches = t.filtered(|e| matches!(e, ObsEvent::ContextSwitch { .. }));
        assert_eq!(switches.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        TraceBuffer::new(0);
    }
}
