//! Selection bitmaps: one bit per row, with the boolean algebra needed to
//! evaluate mixed predicates.

/// A fixed-length bitmap over table rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap of `len` rows.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bitmap of `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, row `r` at bit `r % 64` of word `r / 64`.
    /// Writers must leave the tail word's bits at and above `len % 64`
    /// clear: [`count`](Self::count) and [`iter_ones`](Self::iter_ones)
    /// read whole words.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Set the bit for `row`.
    ///
    /// # Panics
    /// Panics if `row >= len`.
    pub fn set(&mut self, row: usize) {
        assert!(row < self.len, "row {row} out of bounds ({})", self.len);
        self.words[row / 64] |= 1u64 << (row % 64);
    }

    /// Read the bit for `row`.
    pub fn get(&self, row: usize) -> bool {
        assert!(row < self.len, "row {row} out of bounds ({})", self.len);
        self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    pub fn or_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn not_in_place(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Iterate over set row indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Collect set rows as `u32` indices.
    pub fn to_rows(&self) -> Vec<u32> {
        let mut rows = Vec::with_capacity(self.count() as usize);
        rows.extend(self.iter_ones().map(|r| r as u32));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        assert_eq!(Bitmap::zeros(100).count(), 0);
        assert_eq!(Bitmap::ones(100).count(), 100);
        assert_eq!(Bitmap::ones(0).count(), 0);
        assert!(Bitmap::zeros(0).is_empty());
    }

    #[test]
    fn tail_bits_are_clear() {
        // 65 rows → 2 words, only 1 tail bit used in the second.
        let b = Bitmap::ones(65);
        assert_eq!(b.count(), 65);
        let mut c = Bitmap::zeros(65);
        c.not_in_place();
        assert_eq!(c.count(), 65);
    }

    #[test]
    fn set_get() {
        let mut b = Bitmap::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn boolean_algebra() {
        let mut a = Bitmap::zeros(10);
        a.set(1);
        a.set(3);
        let mut b = Bitmap::zeros(10);
        b.set(3);
        b.set(5);
        let mut and = a.clone();
        and.and_with(&b);
        assert_eq!(and.to_rows(), vec![3]);
        let mut or = a.clone();
        or.or_with(&b);
        assert_eq!(or.to_rows(), vec![1, 3, 5]);
        let mut not = a.clone();
        not.not_in_place();
        assert_eq!(not.count(), 8);
        assert!(!not.get(1));
        assert!(not.get(0));
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitmap::zeros(200);
        for r in [5, 63, 64, 127, 128, 199] {
            b.set(r);
        }
        let rows: Vec<usize> = b.iter_ones().collect();
        assert_eq!(rows, vec![5, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_set_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_and_panics() {
        let mut a = Bitmap::zeros(10);
        a.and_with(&Bitmap::zeros(11));
    }
}
