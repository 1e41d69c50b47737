//! The set-index rule shared by every set-associative structure (the
//! caches, the TLBs, Berti's history table).

/// Splits a key into a set index (`key % sets`) and the tag bits above
/// it (`key / sets`). A power-of-two set count — every default
/// geometry — takes a mask and a shift; any other (the LLC of a 3-core
/// system is 6144 sets) keeps the division, so both give the same
/// split and only the cost differs: a 64-bit `div` on every lookup was
/// the dearest instruction of the tag match.
#[derive(Clone, Copy, Debug)]
pub struct SetIndex {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two, else `None`.
    mask: Option<u64>,
    /// `log2(sets)` when `mask` is `Some`.
    shift: u32,
}

impl SetIndex {
    /// The rule for a structure of `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize) -> Self {
        assert!(sets > 0, "a set-associative structure needs sets");
        let sets = sets as u64;
        Self {
            sets,
            mask: sets.is_power_of_two().then_some(sets - 1),
            shift: sets.trailing_zeros(),
        }
    }

    /// The set `key` maps to.
    #[inline]
    pub fn set_of(self, key: u64) -> usize {
        match self.mask {
            Some(mask) => (key & mask) as usize,
            None => (key % self.sets) as usize,
        }
    }

    /// The bits of `key` above the set index.
    #[inline]
    pub fn tag_of(self, key: u64) -> u64 {
        match self.mask {
            Some(_) => key >> self.shift,
            None => key / self.sets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_and_modulo_agree_with_the_division() {
        for sets in [1usize, 2, 3, 6, 8, 64, 2048, 6144] {
            let ix = SetIndex::new(sets);
            for key in (0..5000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63, (1 << 40) + 17]) {
                assert_eq!(ix.set_of(key), (key % sets as u64) as usize, "{sets} sets");
                assert_eq!(ix.tag_of(key), key / sets as u64, "{sets} sets");
            }
        }
    }
}
