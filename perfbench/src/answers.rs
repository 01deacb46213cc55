//! Answers observed during a timed phase, kept as one copy per distinct
//! answer per request key. Checking them against the direct computation
//! happens after the timed phase, and memory stays flat however many
//! operations ran.

pub struct Answers<V> {
    by_key: Vec<Vec<(V, u64)>>,
}

impl<V: PartialEq> Answers<V> {
    pub fn new(keys: usize) -> Self {
        Answers {
            by_key: (0..keys).map(|_| Vec::new()).collect(),
        }
    }

    pub fn record(&mut self, key: usize, answer: V) {
        let seen = &mut self.by_key[key];
        match seen.iter_mut().find(|(v, _)| *v == answer) {
            Some((_, count)) => *count += 1,
            None => seen.push((answer, 1)),
        }
    }

    pub fn merge(&mut self, other: Answers<V>) {
        for (key, seen) in other.by_key.into_iter().enumerate() {
            for (answer, count) in seen {
                let mine = &mut self.by_key[key];
                match mine.iter_mut().find(|(v, _)| *v == answer) {
                    Some((_, c)) => *c += count,
                    None => mine.push((answer, count)),
                }
            }
        }
    }

    /// Keys that received at least one answer.
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.by_key.len()).filter(|&k| !self.by_key[k].is_empty())
    }

    /// The distinct answers recorded for `key`, with their counts.
    pub fn seen(&self, key: usize) -> &[(V, u64)] {
        &self.by_key[key]
    }

    /// How many answers recorded for `key` differ from `expected`.
    pub fn mismatches(&self, key: usize, expected: &V) -> u64 {
        self.by_key[key]
            .iter()
            .filter(|(v, _)| v != expected)
            .map(|(_, c)| c)
            .sum()
    }
}

/// An `f64` slice as its bit patterns, so equality is bit-for-bit.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_answer_that_differs_from_the_expected_one() {
        let mut a = Answers::new(2);
        a.record(0, "x");
        a.record(0, "x");
        a.record(0, "y");
        let mut b = Answers::new(2);
        b.record(0, "y");
        b.record(1, "z");
        a.merge(b);
        assert_eq!(a.keys().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(a.mismatches(0, &"x"), 2);
        assert_eq!(a.mismatches(0, &"y"), 2);
        assert_eq!(a.mismatches(1, &"z"), 0);
        assert_eq!(a.seen(0), [("x", 2), ("y", 2)]);
    }

    #[test]
    fn bits_distinguish_signed_zeros() {
        assert_ne!(bits(&[0.0]), bits(&[-0.0]));
    }
}
