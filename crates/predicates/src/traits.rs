//! Predicate traits (paper §4).
//!
//! Two kinds of cheap binary predicates drive the pruning pipeline:
//!
//! * a **necessary** predicate `N` must be true for every duplicate pair
//!   (`N(a,b) = false ⇒ not duplicates`) — the canopy/blocking side;
//! * a **sufficient** predicate `S` is only true for duplicate pairs
//!   (`S(a,b) = true ⇒ duplicates`) — the collapse side.
//!
//! Both traits additionally expose *keys* with a soundness contract that
//! lets the pipeline find all relevant pairs through an inverted index
//! instead of enumerating the Cartesian product:
//!
//! * any pair with `S(a,b) = true` shares at least one *blocking key*;
//! * any pair with `N(a,b) = true` shares at least `min_common_tokens()`
//!   *candidate tokens*, and is *admitted* by
//!   [`admits`](NecessaryPredicate::admits) on the three integers a
//!   counted probe of the candidate index knows about it: how many
//!   candidate tokens the two records share and how many each has.
//!
//! `admits` is what keeps the canopy of §4.3 small. A predicate that asks
//! for more than 60 % of the smaller 3-gram set says far more about a
//! pair than "they share a gram"; overriding `admits` with that same test
//! lets the prune compute its upper bounds over the pairs that can still
//! match instead of over every pair sharing one token. The soundness
//! condition is `matches(a, b) ⇒ admits(|Ta ∩ Tb|, |Ta|, |Tb|)` with
//! `T = candidate_tokens`: admitted candidates are then a superset of the
//! true `N`-neighbours and every bound computed over them is still an
//! upper bound. Override it only when the candidate tokens *are* the set
//! `matches` measures, and with the same arithmetic `matches` uses, so
//! the two cannot disagree by a rounding; otherwise keep the default.
//! [`check_necessary_contract`](crate::check_necessary_contract) reports
//! any matching pair that is not admitted.
//!
//! # Implementing a custom predicate
//!
//! ```
//! use topk_predicates::{NecessaryPredicate, SufficientPredicate};
//! use topk_records::{FieldId, TokenizedRecord};
//! use topk_text::tokenize::TokenSet;
//!
//! /// S: email-style exact match on field 1.
//! struct SameEmail;
//! impl SufficientPredicate for SameEmail {
//!     fn name(&self) -> &str { "same-email" }
//!     fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
//!         let t = &r.field(FieldId(1)).text;
//!         if t.is_empty() { vec![] } else { vec![topk_text::hash::hash_str(t)] }
//!     }
//!     fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
//!         let (x, y) = (&a.field(FieldId(1)).text, &b.field(FieldId(1)).text);
//!         !x.is_empty() && x == y
//!     }
//!     fn exact_on_key(&self) -> bool { true }
//!     // Exact-match keys are pure functions of the record, so the
//!     // predicate is statically shardable.
//!     fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
//!         self.blocking_keys(r).first().copied()
//!     }
//! }
//!
//! /// N: names must share a word.
//! struct ShareNameWord;
//! impl NecessaryPredicate for ShareNameWord {
//!     fn name(&self) -> &str { "share-name-word" }
//!     fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
//!         r.field(FieldId(0)).words().clone()
//!     }
//!     fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
//!         a.field(FieldId(0)).words().intersection_size(b.field(FieldId(0)).words()) >= 1
//!     }
//! }
//!
//! // Validate the contracts on sample data before shipping:
//! let recs = [
//!     TokenizedRecord::from_fields(&["ann b".into(), "a@x".into()], 1.0),
//!     TokenizedRecord::from_fields(&["ann c".into(), "a@x".into()], 1.0),
//! ];
//! let refs: Vec<&TokenizedRecord> = recs.iter().collect();
//! assert!(topk_predicates::check_sufficient_contract(&SameEmail, &refs).is_empty());
//! assert!(topk_predicates::check_necessary_contract(&ShareNameWord, &refs).is_empty());
//! // Matching records agree on the partition key, so sharding by it is safe.
//! assert_eq!(SameEmail.partition_key(&recs[0]), SameEmail.partition_key(&recs[1]));
//! ```

use topk_records::TokenizedRecord;
use topk_text::tokenize::TokenSet;

/// A sufficient predicate: `matches(a, b) = true` implies `a` and `b` are
/// duplicates.
pub trait SufficientPredicate: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Blocking keys of a record. Soundness contract: if
    /// `matches(a, b)` then `blocking_keys(a) ∩ blocking_keys(b) ≠ ∅`.
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64>;

    /// Evaluate the predicate on a pair.
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool;

    /// When true, *any* pair sharing a blocking key matches; the collapse
    /// step may then union whole blocks without pairwise checks (the
    /// common exact-match sufficient predicates).
    fn exact_on_key(&self) -> bool {
        false
    }

    /// Stable partition key for static sharding, when one exists.
    ///
    /// Soundness contract (stronger than the blocking-key contract): if
    /// this returns `Some`, then
    ///
    /// * `matches(a, b)` implies `partition_key(a) == partition_key(b)`,
    ///   and
    /// * any two records that share **any** blocking key have equal
    ///   partition keys (so a blocking partition never spans two
    ///   different key values).
    ///
    /// Together these guarantee that routing records to disjoint engine
    /// shards by `partition_key % n_shards` can never separate a pair the
    /// predicate would collapse: the sharded collapse is exactly the
    /// unsharded collapse. A record for which no key can be derived (e.g.
    /// an empty field) may return `None` *only if* it also emits no
    /// blocking keys — such records are permanent singletons under this
    /// predicate and may be routed anywhere.
    ///
    /// The default returns `None`, declaring the predicate not statically
    /// shardable (typical for multi-key predicates whose blocking keys
    /// depend on several tokens of the record).
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        let _ = r;
        None
    }
}

/// A necessary predicate: `matches(a, b) = false` implies `a` and `b` are
/// **not** duplicates.
pub trait NecessaryPredicate: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Candidate tokens of a record. Soundness contract: if
    /// `matches(a, b)` then the two records share at least
    /// [`min_common_tokens`](Self::min_common_tokens) candidate tokens.
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet;

    /// Minimum number of shared candidate tokens implied by a match
    /// (defaults to 1).
    fn min_common_tokens(&self) -> usize {
        1
    }

    /// Whether a pair sharing `common` candidate tokens, out of `a_len`
    /// and `b_len` on either side, can still match. Soundness contract:
    /// `matches(a, b)` implies `admits(|Ta ∩ Tb|, |Ta|, |Tb|)` for
    /// `T = candidate_tokens`; the answer must not shrink as `common`
    /// grows (spurious shared tokens may only loosen it). The default is
    /// the [`min_common_tokens`](Self::min_common_tokens) contract.
    fn admits(&self, common: usize, a_len: usize, b_len: usize) -> bool {
        let _ = (a_len, b_len);
        common >= self.min_common_tokens()
    }

    /// Evaluate the predicate on a pair.
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always;
    impl NecessaryPredicate for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
            r.field(topk_records::FieldId(0)).words().clone()
        }
        fn matches(&self, _: &TokenizedRecord, _: &TokenizedRecord) -> bool {
            true
        }
    }

    #[test]
    fn default_min_common_is_one() {
        assert_eq!(Always.min_common_tokens(), 1);
    }

    #[test]
    fn default_admission_is_the_min_common_contract() {
        assert!(!Always.admits(0, 5, 5));
        assert!(Always.admits(1, 5, 5));
    }
}
