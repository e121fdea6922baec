//! The process's one pool of amplitude buffers: every state vector, rank
//! slice, exchange message and tile buffer is taken from it and given back
//! to it, so a warm service, worker or launcher faults its buffers in once,
//! not once per job (a fresh page is the least steady cost on a shared
//! host). A [`StateVector`](crate::StateVector) gives its buffer back when it
//! is dropped, the one handed to a caller included; a buffer moved out of a
//! state or taken here is its owner's to give back. A fresh buffer is made
//! only when no kept one fits, so the pool never holds more buffers of one
//! capacity than were in use at once (a state built from a caller's vector,
//! [`StateVector::from_amplitudes`](crate::StateVector::from_amplitudes),
//! brings that vector in). A kept buffer still holds what its last user
//! left: every taker overwrites, clears or zero-fills it before reading.

use hisvsim_circuit::Complex64;
use std::sync::{Mutex, MutexGuard, PoisonError};

const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

/// Buffers below a page are left to the allocator: keeping them saves no
/// page fault.
const MIN_KEPT_BYTES: usize = 4096;

/// Buffers given back and not yet taken again.
struct Pool(Mutex<Vec<Vec<Complex64>>>);

impl Pool {
    /// The kept buffers. Every update is one push or one removal, so a
    /// panic elsewhere never leaves the list invalid.
    fn kept(&self) -> MutexGuard<'_, Vec<Vec<Complex64>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tightest kept buffer with a capacity in `[len, below)`, or a
    /// fresh empty one.
    fn take(&self, len: usize, below: usize) -> Vec<Complex64> {
        let mut kept = self.kept();
        let fit = (kept.iter().enumerate())
            .filter(|(_, buffer)| (len..below).contains(&buffer.capacity()))
            .min_by_key(|(_, buffer)| buffer.capacity());
        match fit.map(|(index, _)| index) {
            Some(index) => kept.swap_remove(index),
            None => Vec::with_capacity(len),
        }
    }

    fn give(&self, buffer: Vec<Complex64>) {
        if buffer.capacity() * AMP_BYTES >= MIN_KEPT_BYTES {
            self.kept().push(buffer);
        }
    }

    fn retained_bytes(&self) -> u64 {
        let bytes = |buffer: &Vec<Complex64>| (buffer.capacity() * AMP_BYTES) as u64;
        self.kept().iter().map(bytes).sum()
    }
}

static POOL: Pool = Pool(Mutex::new(Vec::new()));

/// A buffer with room for `len` amplitudes and less than twice that, so one
/// that leaves the pool for good pins little more than it holds.
pub fn take(len: usize) -> Vec<Complex64> {
    POOL.take(len, 2 * len)
}

/// Keep `buffer` for the next taker it fits.
pub fn give(buffer: Vec<Complex64>) {
    POOL.give(buffer)
}

/// Bytes kept between uses (`hisvsim_buffer_pool_bytes`).
pub fn retained_bytes() -> u64 {
    POOL.retained_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = MIN_KEPT_BYTES / AMP_BYTES;

    #[test]
    fn the_pool_hands_out_its_tightest_fit_and_keeps_what_was_in_use() {
        let pool = Pool(Mutex::new(Vec::new()));
        let given = |pool: &Pool, capacity: usize| {
            let buffer = Vec::<Complex64>::with_capacity(capacity);
            let at = buffer.as_ptr();
            pool.give(buffer);
            at
        };
        let wide = given(&pool, 3 * PAGE);
        let tight = given(&pool, 2 * PAGE);
        assert_eq!(pool.retained_bytes(), 5 * MIN_KEPT_BYTES as u64);

        // Both fit [2·page, 4·page); the tighter one is handed out.
        let taken = pool.take(2 * PAGE, 4 * PAGE);
        assert_eq!(taken.as_ptr(), tight);
        // A kept buffer of 2·len or more is a miss: a fresh, empty one.
        let fresh = pool.take(PAGE, 2 * PAGE);
        assert!(fresh.capacity() >= PAGE && fresh.is_empty());
        assert_ne!(fresh.as_ptr(), wide);
        assert_eq!(pool.retained_bytes(), 3 * MIN_KEPT_BYTES as u64);
        // A wider bound is served by any wider buffer below it.
        let bounded = pool.take(PAGE, 3 * PAGE);
        assert_ne!(bounded.as_ptr(), wide);
        assert_eq!(pool.retained_bytes(), 3 * MIN_KEPT_BYTES as u64);
        let taken = pool.take(PAGE, 4 * PAGE);
        assert_eq!(taken.as_ptr(), wide);
        assert_eq!(pool.retained_bytes(), 0);

        // Three in use at once, given back, taken again: the same three and
        // nothing fresh, so a class holds no more than were out together.
        let pointers = |buffers: &[Vec<Complex64>]| {
            let mut at: Vec<_> = buffers.iter().map(|buffer| buffer.as_ptr()).collect();
            at.sort_unstable();
            at
        };
        let out: Vec<Vec<Complex64>> = (0..3).map(|_| pool.take(PAGE, 2 * PAGE)).collect();
        let at = pointers(&out);
        out.into_iter().for_each(|buffer| pool.give(buffer));
        assert_eq!(pool.retained_bytes(), 3 * MIN_KEPT_BYTES as u64);
        let again: Vec<Vec<Complex64>> = (0..3).map(|_| pool.take(PAGE, 2 * PAGE)).collect();
        assert_eq!(pointers(&again), at);

        // A kept buffer comes back with its contents; one below a page is
        // not kept at all.
        pool.give(vec![Complex64::ONE; PAGE]);
        assert_eq!(pool.take(PAGE, 2 * PAGE), vec![Complex64::ONE; PAGE]);
        pool.give(vec![Complex64::ONE; PAGE - 1]);
        assert_eq!(pool.retained_bytes(), 0);
    }
}
