//! A bounded drop-oldest ring buffer — the flight-recorder backing store
//! for trace events and packet traces. Keeping the *most recent* N
//! entries matches the black-box use case: when something goes wrong you
//! want the run-up to the failure, not the boot sequence.

use std::collections::VecDeque;

/// A bounded FIFO that drops its oldest entry on overflow and counts how
/// many entries were lost.
#[derive(Debug, Clone)]
pub struct FlightRing<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> FlightRing<T> {
    /// A ring holding at most `capacity` entries (0 is promoted to 1).
    pub(crate) fn new(capacity: usize) -> FlightRing<T> {
        FlightRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// An effectively unbounded ring.
    pub fn unbounded() -> FlightRing<T> {
        FlightRing::new(usize::MAX)
    }

    /// Appends an entry, evicting the oldest one if the ring is full.
    pub fn push(&mut self, entry: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(entry);
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// How many entries were evicted to make room.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_oldest_on_overflow() {
        let mut ring = FlightRing::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
    }
}
