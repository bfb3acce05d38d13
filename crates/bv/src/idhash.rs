//! A multiply-rotate hasher for tables keyed by ids this program
//! numbers itself — [`crate::TermId`]s, variable ids, blaster gates
//! over SAT literals. Their keys are dense small integers no outside
//! input chooses, so SipHash's collision resistance buys nothing there
//! and its cost is most of a memo lookup. Tables whose keys carry
//! configuration constants (`TermPool`'s hash-consing table) stay on the
//! default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] under [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Folds each word in with a rotate, an xor and one odd multiply. The
/// multiply spreads the entropy of small keys into the high bits the
/// table takes its control bytes from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// Enum discriminants (the blaster's gate kinds) arrive here.
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
