//! A ready-made, hand-tunable pairwise scorer.
//!
//! The paper's §5.1 allows `P` to come from "hand tuned weighted
//! combination of the similarity between the record pairs" as well as
//! from a trained classifier. [`SimilarityScorer`] is that hand-tuned
//! combination: per field, a weighted mix of similarity kernels, summed
//! across fields and shifted by a decision threshold so the sign carries
//! the duplicate/non-duplicate verdict.

use topk_records::{FieldId, TokenizedRecord};
use topk_text::sim::{jaccard, jaro_winkler, monge_elkan_sym, overlap_coefficient, smith_waterman};

use crate::scorer::PairScorer;

/// Which similarity kernel to apply to a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Jaccard over words.
    WordJaccard,
    /// Jaccard over character 3-grams.
    QgramJaccard,
    /// Overlap coefficient over character 3-grams.
    QgramOverlap,
    /// Jaro-Winkler over the raw text.
    JaroWinkler,
    /// Symmetrized Monge-Elkan (word-level best-match average).
    MongeElkan,
    /// Smith-Waterman local alignment.
    SmithWaterman,
    /// 1.0 when the texts match exactly, else 0.0.
    Exact,
}

impl Kernel {
    fn eval(self, a: &topk_records::TokenizedField, b: &topk_records::TokenizedField) -> f64 {
        match self {
            Kernel::WordJaccard => jaccard(a.words(), b.words()),
            Kernel::QgramJaccard => jaccard(a.qgrams3(), b.qgrams3()),
            Kernel::QgramOverlap => overlap_coefficient(a.qgrams3(), b.qgrams3()),
            Kernel::JaroWinkler => jaro_winkler(&a.text, &b.text),
            Kernel::MongeElkan => monge_elkan_sym(&a.text, &b.text),
            Kernel::SmithWaterman => smith_waterman(&a.text, &b.text),
            Kernel::Exact => f64::from(!a.text.is_empty() && a.text == b.text),
        }
    }
}

/// One weighted term of the combination.
#[derive(Debug, Clone, Copy)]
pub struct Term {
    /// Field the kernel reads.
    pub field: FieldId,
    /// Similarity kernel.
    pub kernel: Kernel,
    /// Weight (positive: similarity evidence).
    pub weight: f64,
}

/// A weighted combination of similarity kernels with a decision
/// threshold: `score = Σ w_t · kernel_t − threshold`.
///
/// ```
/// use topk_cluster::{Kernel, PairScorer, SimilarityScorer, Term};
/// use topk_records::{FieldId, TokenizedRecord};
///
/// let scorer = SimilarityScorer::new(
///     vec![Term { field: FieldId(0), kernel: Kernel::JaroWinkler, weight: 1.0 }],
///     0.8,
/// );
/// let a = TokenizedRecord::from_fields(&["sarawagi".into()], 1.0);
/// let b = TokenizedRecord::from_fields(&["sarawagy".into()], 1.0);
/// assert!(scorer.score(&a, &b) > 0.0); // near-identical names
/// ```
#[derive(Debug, Clone)]
pub struct SimilarityScorer {
    terms: Vec<Term>,
    threshold: f64,
}

impl SimilarityScorer {
    /// Build from terms and a threshold. The threshold should sit where
    /// the combined similarity of a borderline duplicate pair lands —
    /// with weights summing to `W`, a threshold near `0.5·W` is the usual
    /// starting point.
    pub fn new(terms: Vec<Term>, threshold: f64) -> Self {
        assert!(!terms.is_empty(), "need at least one term");
        SimilarityScorer { terms, threshold }
    }

    /// Convenience single-field scorer: q-gram overlap + Jaro-Winkler on
    /// one field (the CLI's default).
    pub fn name_default(field: FieldId) -> Self {
        SimilarityScorer::new(
            vec![
                Term {
                    field,
                    kernel: Kernel::QgramOverlap,
                    weight: 0.6,
                },
                Term {
                    field,
                    kernel: Kernel::JaroWinkler,
                    weight: 0.4,
                },
            ],
            0.55,
        )
    }

    /// The configured terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl PairScorer for SimilarityScorer {
    fn score(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
        let mut total = -self.threshold;
        for t in &self.terms {
            total += t.weight * t.kernel.eval(a.field(t.field), b.field(t.field));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    #[test]
    fn default_scorer_separates() {
        let s = SimilarityScorer::name_default(FieldId(0));
        assert!(s.score(&rec("sunita sarawagi"), &rec("sunita sarawagi")) > 0.0);
        assert!(s.score(&rec("sunita sarawagi"), &rec("sunita sarawagy")) > 0.0);
        assert!(s.score(&rec("sunita sarawagi"), &rec("qqq zzz www")) < 0.0);
    }

    #[test]
    fn kernels_cover_their_ranges() {
        let a = rec("acme widget corp");
        let b = rec("acme widgets");
        for k in [
            Kernel::WordJaccard,
            Kernel::QgramJaccard,
            Kernel::QgramOverlap,
            Kernel::JaroWinkler,
            Kernel::MongeElkan,
            Kernel::SmithWaterman,
            Kernel::Exact,
        ] {
            let v = k.eval(a.field(FieldId(0)), b.field(FieldId(0)));
            assert!((0.0..=1.0).contains(&v), "{k:?} out of range: {v}");
        }
        assert_eq!(
            Kernel::Exact.eval(a.field(FieldId(0)), a.field(FieldId(0))),
            1.0
        );
    }

    #[test]
    fn multi_field_combination() {
        let recs = |x: &str, y: &str| TokenizedRecord::from_fields(&[x.into(), y.into()], 1.0);
        let s = SimilarityScorer::new(
            vec![
                Term {
                    field: FieldId(0),
                    kernel: Kernel::QgramJaccard,
                    weight: 0.5,
                },
                Term {
                    field: FieldId(1),
                    kernel: Kernel::Exact,
                    weight: 0.5,
                },
            ],
            0.5,
        );
        let a = recs("john smith", "nyc");
        let b = recs("john smith", "nyc");
        let c = recs("john smith", "sfo");
        assert!(s.score(&a, &b) > 0.0);
        assert!(s.score(&a, &b) > s.score(&a, &c));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_terms_panic() {
        SimilarityScorer::new(vec![], 0.5);
    }
}
