//! Set-overlap similarities over [`TokenSet`]s.

use crate::tokenize::TokenSet;

/// Number of common tokens.
#[inline]
pub fn common_count(a: &TokenSet, b: &TokenSet) -> usize {
    a.intersection_size(b)
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`; 0 when both sets are empty.
pub fn jaccard(a: &TokenSet, b: &TokenSet) -> f64 {
    let inter = a.intersection_size(b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`; 0 when both sets are empty.
pub fn dice(a: &TokenSet, b: &TokenSet) -> f64 {
    let denom = a.len() + b.len();
    if denom == 0 {
        0.0
    } else {
        2.0 * a.intersection_size(b) as f64 / denom as f64
    }
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`; 0 when either set is
/// empty.
pub fn overlap_coefficient(a: &TokenSet, b: &TokenSet) -> f64 {
    overlap_coefficient_of_counts(a.intersection_size(b), a.len(), b.len())
}

/// [`overlap_coefficient`] from the three integers it divides. Predicates
/// thresholding the coefficient answer `NecessaryPredicate::admits` with
/// this, so a canopy filtered on counts and `matches` on the sets cannot
/// disagree by a rounding.
#[inline]
pub fn overlap_coefficient_of_counts(common: usize, a_len: usize, b_len: usize) -> f64 {
    let m = a_len.min(b_len);
    if m == 0 {
        0.0
    } else {
        common as f64 / m as f64
    }
}

/// The paper's N1 form: common tokens as a fraction of the *smaller* set's
/// size ("common 3-grams … more than 60% of the size of the smaller
/// field"). Identical to the overlap coefficient; kept as a named alias so
/// predicate definitions read like the paper.
#[inline]
pub fn overlap_fraction_of_smaller(a: &TokenSet, b: &TokenSet) -> f64 {
    overlap_coefficient(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::word_set;

    #[test]
    fn jaccard_basic() {
        let a = word_set("a b c");
        let b = word_set("b c d");
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&word_set(""), &word_set("")), 0.0);
    }

    #[test]
    fn dice_basic() {
        let a = word_set("a b");
        let b = word_set("b c");
        assert!((dice(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(dice(&word_set(""), &word_set("")), 0.0);
    }

    #[test]
    fn overlap_basic() {
        let a = word_set("a b");
        let b = word_set("a b c d");
        assert_eq!(overlap_coefficient(&a, &b), 1.0);
        assert_eq!(overlap_coefficient(&word_set(""), &b), 0.0);
    }

    #[test]
    fn common_count_basic() {
        let a = word_set("x y z");
        let b = word_set("z q");
        assert_eq!(common_count(&a, &b), 1);
    }
}
