//! Contract validation for user-written predicates.
//!
//! The pipeline's correctness rests on two key contracts that the type
//! system cannot enforce:
//!
//! * a [`SufficientPredicate`]'s matching pairs must share a blocking
//!   key, or collapse silently misses duplicates;
//! * a [`NecessaryPredicate`]'s matching pairs must share at least
//!   `min_common_tokens` candidate tokens and be admitted by `admits` on
//!   their shared-token count, or the canopy join misses edges and the
//!   upper bounds of §4.3 become invalid.
//!
//! These helpers exhaustively check the contracts on a sample (use a few
//! hundred records); they are meant for tests and for developing new
//! predicates, not for production hot paths. Validating that a predicate
//! is actually *sufficient* or *necessary* w.r.t. ground truth requires
//! labeled data — [`check_soundness`] does that when truth is available,
//! mirroring the paper's "we used hand-labeled dataset to validate that
//! the chosen predicates indeed satisfy their respective conditions".

use topk_records::{Partition, TokenizedRecord};

use crate::traits::{NecessaryPredicate, SufficientPredicate};

/// A contract violation found by the validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sample indices of the offending pair.
    pub pair: (usize, usize),
    /// What went wrong.
    pub kind: ViolationKind,
}

/// Kinds of contract violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// `S.matches` is true but the records share no blocking key.
    MissingBlockingKey,
    /// `N.matches` is true but the records share fewer than
    /// `min_common_tokens` candidate tokens.
    MissingCandidateTokens,
    /// `N.matches` is true but `N.admits` refuses the pair's candidate-
    /// token counts, so the canopy would never offer it.
    NotAdmitted,
    /// `S.matches` is true on a pair the ground truth separates.
    UnsoundSufficient,
    /// `N.matches` is false on a pair the ground truth groups.
    IncompleteNecessary,
}

/// Check the blocking-key contract of a sufficient predicate on all
/// sample pairs.
pub fn check_sufficient_contract(
    s: &dyn SufficientPredicate,
    sample: &[&TokenizedRecord],
) -> Vec<Violation> {
    let keys: Vec<Vec<u64>> = sample.iter().map(|r| s.blocking_keys(r)).collect();
    let mut out = Vec::new();
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            if s.matches(sample[i], sample[j]) && !keys[i].iter().any(|k| keys[j].contains(k)) {
                out.push(Violation {
                    pair: (i, j),
                    kind: ViolationKind::MissingBlockingKey,
                });
            }
        }
    }
    out
}

/// Check the candidate-token and admission contracts of a necessary
/// predicate on all sample pairs.
pub fn check_necessary_contract(
    n: &dyn NecessaryPredicate,
    sample: &[&TokenizedRecord],
) -> Vec<Violation> {
    let tokens: Vec<_> = sample.iter().map(|r| n.candidate_tokens(r)).collect();
    let mut out = Vec::new();
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            if !n.matches(sample[i], sample[j]) {
                continue;
            }
            let common = tokens[i].intersection_size(&tokens[j]);
            let (li, lj) = (tokens[i].len(), tokens[j].len());
            if common < n.min_common_tokens() {
                out.push(Violation {
                    pair: (i, j),
                    kind: ViolationKind::MissingCandidateTokens,
                });
            } else if !n.admits(common, li, lj) || !n.admits(common, lj, li) {
                // A canopy probes a pair from either side.
                out.push(Violation {
                    pair: (i, j),
                    kind: ViolationKind::NotAdmitted,
                });
            }
        }
    }
    out
}

/// Check semantic soundness against labeled ground truth: `S` must not
/// fire across entities; `N` must hold within entities. Returns all
/// violations (real predicates are rarely perfect — callers typically
/// assert the violation *rate* is small, as the paper's hand-validation
/// implicitly did).
pub fn check_soundness(
    s: &dyn SufficientPredicate,
    n: &dyn NecessaryPredicate,
    sample: &[&TokenizedRecord],
    truth: &Partition,
    sample_indices: &[usize],
) -> Vec<Violation> {
    assert_eq!(sample.len(), sample_indices.len());
    let mut out = Vec::new();
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            let dup = truth.same_group(sample_indices[i], sample_indices[j]);
            if !dup && s.matches(sample[i], sample[j]) {
                out.push(Violation {
                    pair: (i, j),
                    kind: ViolationKind::UnsoundSufficient,
                });
            }
            if dup && !n.matches(sample[i], sample[j]) {
                out.push(Violation {
                    pair: (i, j),
                    kind: ViolationKind::IncompleteNecessary,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_records::FieldId;
    use topk_text::tokenize::TokenSet;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    /// Deliberately broken: matches on shared words but exposes no keys.
    struct BrokenS;
    impl SufficientPredicate for BrokenS {
        fn name(&self) -> &str {
            "broken"
        }
        fn blocking_keys(&self, _: &TokenizedRecord) -> Vec<u64> {
            Vec::new()
        }
        fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
            a.field(FieldId(0))
                .words()
                .intersection_size(b.field(FieldId(0)).words())
                >= 1
        }
    }

    /// Broken N: claims 3 common tokens but only exposes one word.
    struct BrokenN;
    impl NecessaryPredicate for BrokenN {
        fn name(&self) -> &str {
            "broken-n"
        }
        fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
            TokenSet::from_tokens(
                r.field(FieldId(0))
                    .words()
                    .as_slice()
                    .iter()
                    .take(1)
                    .copied()
                    .collect(),
            )
        }
        fn min_common_tokens(&self) -> usize {
            3
        }
        fn matches(&self, _: &TokenizedRecord, _: &TokenizedRecord) -> bool {
            true
        }
    }

    #[test]
    fn catches_missing_blocking_keys() {
        let rs = [rec("x y"), rec("y z")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let v = check_sufficient_contract(&BrokenS, &refs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingBlockingKey);
    }

    #[test]
    fn catches_missing_candidate_tokens() {
        let rs = [rec("a b"), rec("c d")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let v = check_necessary_contract(&BrokenN, &refs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingCandidateTokens);
    }

    /// N whose `admits` asks for more than its `matches` does: names
    /// match on one shared word, the canopy is told to want two.
    struct OverStrictAdmission;
    impl NecessaryPredicate for OverStrictAdmission {
        fn name(&self) -> &str {
            "over-strict"
        }
        fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
            r.field(FieldId(0)).words().clone()
        }
        fn admits(&self, common: usize, _: usize, _: usize) -> bool {
            common >= 2
        }
        fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
            a.field(FieldId(0))
                .words()
                .intersection_size(b.field(FieldId(0)).words())
                >= 1
        }
    }

    #[test]
    fn catches_a_matching_pair_the_canopy_would_not_admit() {
        let rs = [rec("a b c"), rec("a b d"), rec("c e")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let v = check_necessary_contract(&OverStrictAdmission, &refs);
        // (0, 1) share two words and are admitted; (0, 2) match on "c"
        // alone and are not.
        assert_eq!(
            v,
            vec![Violation {
                pair: (0, 2),
                kind: ViolationKind::NotAdmitted,
            }]
        );
    }

    /// Every library stack on its own generator's data: blocking keys,
    /// candidate tokens, and `matches ⇒ admits` for the N predicates that
    /// filter their canopy by shared-gram count.
    #[test]
    fn library_predicates_pass_contracts() {
        use topk_datagen as gen;
        let check = |what: &str, stack: &crate::PredicateStack, toks: &[TokenizedRecord]| {
            let refs: Vec<&TokenizedRecord> = toks.iter().collect();
            for (s, n) in &stack.levels {
                assert!(
                    check_sufficient_contract(s.as_ref(), &refs).is_empty(),
                    "{what}: S contract broken for {}",
                    s.name()
                );
                let broken = check_necessary_contract(n.as_ref(), &refs);
                assert!(
                    broken.is_empty(),
                    "{what}: N contract broken for {}: {:?}",
                    n.name(),
                    &broken[..broken.len().min(3)]
                );
                let pairs = (0..refs.len())
                    .flat_map(|i| ((i + 1)..refs.len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| n.matches(refs[i], refs[j]))
                    .count();
                assert!(pairs > 0, "{what}: no pair matches {}", n.name());
            }
        };
        let d = gen::generate_students(&gen::StudentConfig {
            n_students: 30,
            n_records: 150,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        check(
            "students",
            &crate::library::student_predicates(d.schema()),
            &toks,
        );
        let d = gen::generate_citations(&gen::CitationConfig {
            n_authors: 40,
            n_citations: 160,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        check(
            "citations",
            &crate::library::citation_predicates(d.schema(), &toks),
            &toks,
        );
        let d = gen::generate_addresses(&gen::AddressConfig {
            n_entities: 40,
            n_records: 160,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        check(
            "addresses",
            &crate::library::address_predicates(d.schema()),
            &toks,
        );
        let d = gen::generate_web_mentions(&gen::WebConfig {
            n_orgs: 30,
            n_records: 150,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        check("web", &crate::library::web_predicates(d.schema()), &toks);
        let d = gen::generate_products(&gen::ProductConfig {
            n_products: 40,
            n_records: 160,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        check(
            "products",
            &crate::library::product_predicates(d.schema()),
            &toks,
        );
    }

    #[test]
    fn soundness_check_against_truth() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 25,
            n_records: 120,
            ..Default::default()
        });
        let toks = topk_records::tokenize_dataset(&d);
        let refs: Vec<&TokenizedRecord> = toks.iter().collect();
        let indices: Vec<usize> = (0..toks.len()).collect();
        let stack = crate::library::student_predicates(d.schema());
        let (s, n) = &stack.levels[0];
        let violations =
            check_soundness(s.as_ref(), n.as_ref(), &refs, d.truth().unwrap(), &indices);
        let unsound = violations
            .iter()
            .filter(|v| v.kind == ViolationKind::UnsoundSufficient)
            .count();
        assert_eq!(unsound, 0, "students S1 should never fire across entities");
        // N1 is allowed a small miss rate (typos can change an initial).
        let total_pairs = toks.len() * (toks.len() - 1) / 2;
        assert!(violations.len() < total_pairs / 100);
    }
}
