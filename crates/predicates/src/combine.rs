//! Predicate combinators.
//!
//! Soundness-preserving composition:
//!
//! * **And** of sufficient predicates is sufficient (stricter);
//! * **Or** of sufficient predicates is sufficient (either alone
//!   suffices);
//! * **And** of necessary predicates is necessary (every duplicate pair
//!   satisfies both).
//!
//! `Or` of *necessary* predicates is deliberately absent: it is logically
//! necessary too (weaker than either), but its candidate-token contract
//! cannot mix two different `min_common_tokens` thresholds soundly, so
//! offering it would invite silent canopy misses.

use topk_records::TokenizedRecord;
use topk_text::tokenize::TokenSet;

use crate::traits::{NecessaryPredicate, SufficientPredicate};

/// Conjunction of two sufficient predicates.
pub struct AndSufficient<A, B> {
    name: String,
    a: A,
    b: B,
}

impl<A: SufficientPredicate, B: SufficientPredicate> AndSufficient<A, B> {
    /// `a AND b`.
    pub fn new(a: A, b: B) -> Self {
        AndSufficient {
            name: format!("and({},{})", a.name(), b.name()),
            a,
            b,
        }
    }
}

impl<A: SufficientPredicate, B: SufficientPredicate> SufficientPredicate for AndSufficient<A, B> {
    fn name(&self) -> &str {
        &self.name
    }
    // Any matching pair satisfies `a`, hence shares one of `a`'s keys.
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        self.a.blocking_keys(r)
    }
    fn matches(&self, x: &TokenizedRecord, y: &TokenizedRecord) -> bool {
        self.a.matches(x, y) && self.b.matches(x, y)
    }
}

/// Disjunction of two sufficient predicates.
pub struct OrSufficient<A, B> {
    name: String,
    a: A,
    b: B,
}

impl<A: SufficientPredicate, B: SufficientPredicate> OrSufficient<A, B> {
    /// `a OR b`.
    pub fn new(a: A, b: B) -> Self {
        OrSufficient {
            name: format!("or({},{})", a.name(), b.name()),
            a,
            b,
        }
    }
}

impl<A: SufficientPredicate, B: SufficientPredicate> SufficientPredicate for OrSufficient<A, B> {
    fn name(&self) -> &str {
        &self.name
    }
    // A matching pair satisfies `a` or `b`; emitting both key sets keeps
    // the shared-key contract either way.
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let mut keys = self.a.blocking_keys(r);
        keys.extend(self.b.blocking_keys(r));
        keys.sort_unstable();
        keys.dedup();
        keys
    }
    fn matches(&self, x: &TokenizedRecord, y: &TokenizedRecord) -> bool {
        self.a.matches(x, y) || self.b.matches(x, y)
    }
    // Even if both inner predicates are exact-on-key, a shared key of `a`
    // says nothing about `b`-only blocks, and vice versa... it does:
    // sharing any emitted key means one of the inner exact predicates
    // fired. Exactness holds only when both are exact.
    fn exact_on_key(&self) -> bool {
        false
    }
}

/// Conjunction of two necessary predicates.
pub struct AndNecessary<A, B> {
    name: String,
    a: A,
    b: B,
}

impl<A: NecessaryPredicate, B: NecessaryPredicate> AndNecessary<A, B> {
    /// `a AND b`.
    pub fn new(a: A, b: B) -> Self {
        AndNecessary {
            name: format!("and({},{})", a.name(), b.name()),
            a,
            b,
        }
    }
}

impl<A: NecessaryPredicate, B: NecessaryPredicate> NecessaryPredicate for AndNecessary<A, B> {
    fn name(&self) -> &str {
        &self.name
    }
    // Any pair satisfying the conjunction satisfies `a`, so `a`'s
    // candidate contract carries over unchanged.
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        self.a.candidate_tokens(r)
    }
    fn min_common_tokens(&self) -> usize {
        self.a.min_common_tokens()
    }
    fn admits(&self, common: usize, a_len: usize, b_len: usize) -> bool {
        self.a.admits(common, a_len, b_len)
    }
    fn matches(&self, x: &TokenizedRecord, y: &TokenizedRecord) -> bool {
        self.a.matches(x, y) && self.b.matches(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{ExactFieldsMatch, QgramFractionNecessary, WordOverlapNecessary};
    use crate::validate::{check_necessary_contract, check_sufficient_contract};
    use topk_records::FieldId;

    fn rec(a: &str, b: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[a.to_string(), b.to_string()], 1.0)
    }

    #[test]
    fn and_sufficient_requires_both() {
        let s = AndSufficient::new(
            ExactFieldsMatch::new("f0", vec![FieldId(0)]),
            ExactFieldsMatch::new("f1", vec![FieldId(1)]),
        );
        assert!(s.matches(&rec("x", "y"), &rec("x", "y")));
        assert!(!s.matches(&rec("x", "y"), &rec("x", "z")));
        assert_eq!(s.name(), "and(f0,f1)");
    }

    #[test]
    fn or_sufficient_accepts_either() {
        let s = OrSufficient::new(
            ExactFieldsMatch::new("f0", vec![FieldId(0)]),
            ExactFieldsMatch::new("f1", vec![FieldId(1)]),
        );
        assert!(s.matches(&rec("x", "y"), &rec("x", "z")));
        assert!(s.matches(&rec("w", "y"), &rec("x", "y")));
        assert!(!s.matches(&rec("w", "y"), &rec("x", "z")));
        assert!(!s.exact_on_key());
    }

    #[test]
    fn combinators_keep_key_contracts() {
        let rs = [rec("a b", "p q"), rec("a b", "p r"), rec("c d", "p q")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let and_s = AndSufficient::new(
            ExactFieldsMatch::new("f0", vec![FieldId(0)]),
            ExactFieldsMatch::new("f1", vec![FieldId(1)]),
        );
        assert!(check_sufficient_contract(&and_s, &refs).is_empty());
        let or_s = OrSufficient::new(
            ExactFieldsMatch::new("f0", vec![FieldId(0)]),
            ExactFieldsMatch::new("f1", vec![FieldId(1)]),
        );
        assert!(check_sufficient_contract(&or_s, &refs).is_empty());
        let and_n = AndNecessary::new(
            WordOverlapNecessary::new("w", vec![FieldId(0)], 1, None),
            QgramFractionNecessary::new("q", FieldId(0), 0.3, false),
        );
        assert!(check_necessary_contract(&and_n, &refs).is_empty());
        // Admission follows the side whose tokens are indexed: with the
        // q-gram predicate first, one shared gram of ten is not enough.
        let and_q = AndNecessary::new(
            QgramFractionNecessary::new("q", FieldId(0), 0.3, false),
            WordOverlapNecessary::new("w", vec![FieldId(0)], 1, None),
        );
        assert!(and_q.matches(refs[0], refs[1]));
        assert!(check_necessary_contract(&and_q, &refs).is_empty());
        assert!(and_n.admits(1, 10, 10));
        assert!(!and_q.admits(1, 10, 10));
        assert!(and_q.admits(4, 10, 10));
    }

    #[test]
    fn and_necessary_tightens() {
        let loose = WordOverlapNecessary::new("w", vec![FieldId(0)], 1, None);
        let and_n = AndNecessary::new(
            WordOverlapNecessary::new("w", vec![FieldId(0)], 1, None),
            WordOverlapNecessary::new("w2", vec![FieldId(1)], 1, None),
        );
        let a = rec("tok x", "ctx1 c");
        let b = rec("tok y", "ctx2 d");
        assert!(loose.matches(&a, &b));
        assert!(!and_n.matches(&a, &b), "second conjunct rejects");
    }
}
