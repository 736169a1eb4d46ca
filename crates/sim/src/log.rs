//! Timestamped record sinks for traces and security events.

use crate::SimTime;

/// A record paired with the simulated time at which it was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timestamped<T> {
    /// When the record was appended.
    pub at: SimTime,
    /// The record itself.
    pub record: T,
}

/// An append-only, timestamped event log.
///
/// Every placement of the compare keeps its security events in one.
///
/// # Example
///
/// ```
/// use netco_sim::{EventLog, SimTime};
/// let mut log: EventLog<&str> = EventLog::unbounded();
/// log.push(SimTime::ZERO, "boot");
/// assert_eq!(log.iter().len(), 1);
/// assert_eq!(log.iter().next().unwrap().record, "boot");
/// ```
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    entries: Vec<Timestamped<T>>,
}

impl<T> EventLog<T> {
    /// Creates an empty log.
    pub fn unbounded() -> Self {
        EventLog {
            entries: Vec::new(),
        }
    }

    /// Appends a record at time `at`.
    pub fn push(&mut self, at: SimTime, record: T) {
        self.entries.push(Timestamped { at, record });
    }

    /// Iterates over stored records in insertion (and therefore time) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Timestamped<T>> {
        self.entries.iter()
    }
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        EventLog::unbounded()
    }
}

impl<'a, T> IntoIterator for &'a EventLog<T> {
    type Item = &'a Timestamped<T>;
    type IntoIter = std::slice::Iter<'a, Timestamped<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_stores_everything() {
        let mut log = EventLog::unbounded();
        for i in 0..1_000u32 {
            log.push(SimTime::from_nanos(i as u64), i);
        }
        assert_eq!(log.iter().len(), 1_000);
    }

    #[test]
    fn iteration_preserves_order_and_times() {
        let mut log = EventLog::unbounded();
        log.push(SimTime::from_nanos(5), "a");
        log.push(SimTime::from_nanos(9), "b");
        let v: Vec<_> = (&log).into_iter().collect();
        assert_eq!(v[0].at, SimTime::from_nanos(5));
        assert_eq!(v[1].record, "b");
    }
}
