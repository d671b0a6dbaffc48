//! Lexicographic k-subset enumeration.
//!
//! The Powerset heuristic, the brute-force baseline and minimality
//! certification walk subsets of the candidate list in ascending size.
//! [`Combinations`] yields the index vectors of all k-subsets of `0..n` in
//! lexicographic order without materialising the whole powerset. The
//! Exhaustive Comparison visits the same order with a bound-pruned scan of
//! its own, and shares only [`binomial`] for its subset budget.

/// Iterator over all k-subsets of `0..n` as sorted index vectors, in
/// lexicographic order.
#[derive(Debug, Clone)]
pub struct Combinations {
    n: usize,
    k: usize,
    current: Vec<usize>,
    started: bool,
    done: bool,
}

impl Combinations {
    pub fn new(n: usize, k: usize) -> Self {
        Combinations {
            n,
            k,
            current: (0..k).collect(),
            started: false,
            done: k > n,
        }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current.clone());
        }
        // Find the rightmost index that can still advance.
        let k = self.k;
        if k == 0 {
            self.done = true;
            return None;
        }
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return None;
            }
            i -= 1;
            if self.current[i] < self.n - (k - i) {
                break;
            }
        }
        self.current[i] += 1;
        for j in i + 1..k {
            self.current[j] = self.current[j - 1] + 1;
        }
        Some(self.current.clone())
    }
}

/// Binomial coefficient with saturation (used for enumeration budgeting).
pub fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: usize = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_all_k_subsets() {
        let all: Vec<_> = Combinations::new(4, 2).collect();
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn size_zero_yields_empty_set_once() {
        let all: Vec<_> = Combinations::new(5, 0).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_equals_n_yields_full_set() {
        let all: Vec<_> = Combinations::new(3, 3).collect();
        assert_eq!(all, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn k_greater_than_n_is_empty() {
        assert_eq!(Combinations::new(2, 3).count(), 0);
    }

    #[test]
    fn counts_match_binomial() {
        for n in 0..8 {
            for k in 0..=n {
                assert_eq!(
                    Combinations::new(n, k).count(),
                    binomial(n, k),
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 7), 0);
        assert_eq!(binomial(20, 10), 184_756);
    }

    #[test]
    fn binomial_saturates_instead_of_overflowing() {
        // Just must not panic.
        let _ = binomial(200, 100);
    }
}
