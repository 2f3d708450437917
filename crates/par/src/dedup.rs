//! A concurrent streaming dedup set over canonical program keys.
//!
//! Workers claim the canonical key of every ELT they emit as they stream
//! results in. For a single suite the plan already guarantees key
//! uniqueness, so claims act as a cross-thread invariant check; across
//! *suites* (one per axiom, as synthesized by
//! [`crate::synthesize_all_jobs`]) the same set computes the paper's
//! unique-union counts while suites are still being produced.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// FNV-1a over a word stream — the stripe selector's hash.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in words {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Number of internal stripes; claims on different stripes never contend.
const STRIPES: usize = 16;

/// A striped concurrent set of canonical keys.
pub struct KeySet {
    stripes: Vec<Mutex<BTreeSet<Vec<u64>>>>,
}

impl KeySet {
    /// Creates an empty set.
    pub fn new() -> KeySet {
        KeySet {
            stripes: (0..STRIPES).map(|_| Mutex::new(BTreeSet::new())).collect(),
        }
    }

    fn stripe(&self, key: &[u64]) -> &Mutex<BTreeSet<Vec<u64>>> {
        &self.stripes[(fnv1a(key.iter().copied()) as usize) % STRIPES]
    }

    /// Claims `key`; `true` when this call was the first to claim it.
    pub fn claim(&self, key: &[u64]) -> bool {
        self.stripe(key)
            .lock()
            .expect("stripe lock is never poisoned")
            .insert(key.to_vec())
    }

    /// Whether `key` has been claimed.
    pub fn contains(&self, key: &[u64]) -> bool {
        self.stripe(key)
            .lock()
            .expect("stripe lock is never poisoned")
            .contains(key)
    }

    /// Total number of distinct keys claimed.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe lock is never poisoned").len())
            .sum()
    }

    /// Whether no key has been claimed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for KeySet {
    fn default() -> KeySet {
        KeySet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_claim_wins_across_threads() {
        let set = Arc::new(KeySet::new());
        let keys: Vec<Vec<u64>> = (0..200u64).map(|i| vec![i % 50, i / 50]).collect();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let set = Arc::clone(&set);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                keys.iter().filter(|k| set.claim(k)).count()
            }));
        }
        let total: usize = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum();
        // 200 key values with 200 distinct (i%50, i/50) pairs.
        assert_eq!(total, 200);
        assert_eq!(set.len(), 200);
        assert!(set.contains(&[0, 0]));
        assert!(!set.claim(&[0, 0]));
    }
}
