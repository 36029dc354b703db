//! A hashed timer wheel for the evented server's connection deadlines
//! (request deadlines and idle-read timeouts) at millisecond
//! granularity, driven by whichever [`ceer_sim::Clock`] the event loop
//! runs on.
//!
//! 256 slots, hashed by `deadline % 256`. [`TimerWheel::advance`] drains
//! everything due at or before `now` and returns it ordered by
//! `(deadline, insertion)`, so firing order is deterministic however the
//! timers hashed. Cancellation is lazy: the wheel never removes entries
//! early — callers ignore timers for connections that no longer exist
//! (entries are a few machine words, and every entry pops at its
//! deadline at the latest).

use ceer_sim::ready::Token;

/// Number of wheel slots (one ms of deadlines per slot per rotation).
const SLOTS: usize = 256;

/// One due timer, as returned by [`TimerWheel::advance`]. The loop
/// recomputes the connection's actual deadline from its state and either
/// acts or re-arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// The deadline it was scheduled for (may be earlier than `now`).
    pub at: u64,
    /// The connection whose deadlines to re-examine.
    pub token: Token,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: u64,
    seq: u64,
    token: Token,
}

/// The wheel. All times are absolute clock milliseconds.
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    seq: u64,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel { slots: (0..SLOTS).map(|_| Vec::new()).collect(), seq: 0, len: 0 }
    }

    /// Arms a timer for connection `token` at absolute time `at` (ms).
    pub fn schedule(&mut self, at: u64, token: Token) {
        self.seq += 1;
        let seq = self.seq;
        // ceer-lint: allow(panic-reachability) -- slot index is `% SLOTS`, always in range
        self.slots[(at as usize) % SLOTS].push(Entry { at, seq, token });
        self.len += 1;
    }

    /// Pending timers (including lazily cancelled ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest armed deadline, if any. A full scan — the wheel holds
    /// one live entry per open connection, and the loop asks once per
    /// iteration.
    pub fn next_deadline(&self) -> Option<u64> {
        self.slots.iter().flatten().map(|e| e.at).min()
    }

    /// Drains every timer with `deadline <= now`, ordered by
    /// `(deadline, insertion order)`.
    pub fn advance(&mut self, now: u64) -> Vec<Due> {
        if self.len == 0 {
            return Vec::new();
        }
        let mut due: Vec<Entry> = Vec::new();
        for slot in &mut self.slots {
            let mut i = 0;
            while i < slot.len() {
                if slot.get(i).is_some_and(|e| e.at <= now) {
                    due.push(slot.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.len -= due.len();
        due.sort_by_key(|e| (e.at, e.seq));
        due.into_iter().map(|e| Due { at: e.at, token: e.token }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(30, 3);
        wheel.schedule(10, 1);
        wheel.schedule(10, 4);
        wheel.schedule(20, 2);
        assert_eq!(wheel.next_deadline(), Some(10));

        let due = wheel.advance(20);
        let tokens: Vec<Token> = due.iter().map(|d| d.token).collect();
        assert_eq!(tokens, vec![1, 4, 2]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_deadline(), Some(30));
        assert_eq!(wheel.advance(19), vec![]);
        assert_eq!(wheel.advance(30), vec![Due { at: 30, token: 3 }]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_slot_different_rotations_do_not_collide() {
        let mut wheel = TimerWheel::new();
        // 5 and 5+256 hash to the same slot; only the first is due at 5.
        wheel.schedule(5, 1);
        wheel.schedule(5 + 256, 2);
        let due = wheel.advance(5);
        assert_eq!(due, vec![Due { at: 5, token: 1 }]);
        assert_eq!(wheel.next_deadline(), Some(261));
        let due = wheel.advance(400);
        assert_eq!(due, vec![Due { at: 261, token: 2 }]);
    }

    #[test]
    fn zero_delay_timers_fire_immediately() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(7, 1);
        assert_eq!(wheel.advance(7).len(), 1);
    }
}
