//! The paper's dataset-specific predicates (§6.1), instantiated from the
//! generic shapes.

use std::sync::Arc;

use topk_records::{Schema, TokenizedRecord};
use topk_text::stopwords::address_stopwords;
use topk_text::CorpusStats;

use crate::generic::MultiWordExactMatch;
use crate::generic::{
    ExactFieldsMatch, ExactPlusInitialNecessary, ExactPlusQgramNecessary, ExactPlusQgramSufficient,
    InitialsLastCoauthorSufficient, NameAddressSufficient, QgramFractionNecessary,
    RareNameSufficient, WordOverlapNecessary,
};
use crate::traits::{NecessaryPredicate, SufficientPredicate};

/// An ordered stack of `(S, N)` predicate levels of increasing cost and
/// tightness, as consumed by Algorithm 2.
pub struct PredicateStack {
    /// `(sufficient, necessary)` pairs, cheapest first.
    pub levels: Vec<(Box<dyn SufficientPredicate>, Box<dyn NecessaryPredicate>)>,
}

impl PredicateStack {
    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when no levels are configured.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

fn fid(schema: &Schema, name: &str) -> topk_records::FieldId {
    schema
        .field_id(name)
        .unwrap_or_else(|| panic!("schema is missing field `{name}`"))
}

/// Citation predicates (paper §6.1.1): two levels.
///
/// * `S1`: initials match and the author name consists of rare words
///   (document frequency ≤ `max_df`, the IDF-threshold analogue).
/// * `N1`: common author 3-grams > 60% of the smaller gram set.
/// * `S2`: initials match, last names match, ≥ 3 common co-author words.
/// * `N2`: `N1` plus at least one common initial.
pub fn citation_predicates(schema: &Schema, toks: &[TokenizedRecord]) -> PredicateStack {
    let author = fid(schema, "author");
    let coauthors = fid(schema, "coauthors");
    // Document frequencies over *distinct* author strings, not mentions:
    // a prolific author's name must still count as rare, otherwise the
    // rare-name sufficient predicate could never collapse exactly the
    // large groups it exists for.
    let mut seen = std::collections::HashSet::new();
    let mut stats = CorpusStats::new();
    for t in toks {
        let f = t.field(author);
        if seen.insert(topk_text::hash::hash_str(&f.text)) {
            stats.add_document(f.words());
        }
    }
    let stats = Arc::new(stats);
    PredicateStack {
        levels: vec![
            (
                Box::new(RareNameSufficient::new("S1", author, stats, 60)),
                Box::new(QgramFractionNecessary::new("N1", author, 0.6, false)),
            ),
            (
                Box::new(InitialsLastCoauthorSufficient::new(
                    "S2", author, coauthors, 3,
                )),
                Box::new(QgramFractionNecessary::new("N2", author, 0.6, true)),
            ),
        ],
    }
}

/// Student predicates (paper §6.1.2): two levels.
///
/// * `S1`: name, class, school and birth date all match exactly.
/// * `N1`: ≥ 1 common name initial, class and school match.
/// * `S2`: like `S1` but name only needs ≥ 90% 3-gram overlap.
/// * `N2`: ≥ 50% common name 3-grams, class and school match.
pub fn student_predicates(schema: &Schema) -> PredicateStack {
    let name = fid(schema, "name");
    let birthdate = fid(schema, "birthdate");
    let class = fid(schema, "class");
    let school = fid(schema, "school");
    PredicateStack {
        levels: vec![
            (
                Box::new(ExactFieldsMatch::new(
                    "S1",
                    vec![name, class, school, birthdate],
                )),
                Box::new(ExactPlusInitialNecessary::new(
                    "N1",
                    vec![class, school],
                    name,
                )),
            ),
            (
                Box::new(ExactPlusQgramSufficient::new(
                    "S2",
                    vec![class, school, birthdate],
                    name,
                    0.9,
                )),
                Box::new(ExactPlusQgramNecessary::new(
                    "N2",
                    vec![class, school],
                    name,
                    0.5,
                )),
            ),
        ],
    }
}

/// Address predicates (paper §6.1.3): one level.
///
/// * `S1`: name initials match exactly, > 0.7 common non-stop name words,
///   ≥ 0.6 matching non-stop address words.
/// * `N1`: ≥ 4 common non-stop words in the name+address concatenation.
pub fn address_predicates(schema: &Schema) -> PredicateStack {
    let name = fid(schema, "name");
    let address = fid(schema, "address");
    PredicateStack {
        levels: vec![(
            Box::new(NameAddressSufficient::new(
                "S1",
                name,
                address,
                address_stopwords(),
                0.7,
                0.6,
            )),
            Box::new(WordOverlapNecessary::new(
                "N1",
                vec![name, address],
                4,
                Some(address_stopwords()),
            )),
        )],
    }
}

/// Web-mention predicates (for the paper's "web query answering" and
/// "most frequently mentioned organization" scenarios, on the
/// `topk-datagen` web generator's schema): one level.
///
/// * `S`: the (multi-word) surface forms match exactly — acronyms are
///   excluded because distinct organizations can share an acronym.
/// * `N`: at least one common name initial. A full name and its acronym
///   always share the first word's initial, so this holds for every
///   rendering of the same organization (modulo a leading typo).
pub fn web_predicates(schema: &Schema) -> PredicateStack {
    let name = fid(schema, "name");
    PredicateStack {
        levels: vec![(
            Box::new(MultiWordExactMatch::new("S", name)),
            Box::new(crate::generic::InitialOverlapNecessary::new("N", name)),
        )],
    }
}

/// Product-offer predicates (comparison-shopping scenario, paper
/// reference \[7\]): one level.
///
/// * `S`: titles equal after squashing separators — catches the
///   "xk-240"/"xk 240"/"xk240" model re-segmentations merchants produce.
/// * `N`: > 40% common title 3-grams (attribute drops and reorders keep
///   most grams).
pub fn product_predicates(schema: &Schema) -> PredicateStack {
    let title = fid(schema, "title");
    PredicateStack {
        levels: vec![(
            Box::new(crate::generic::SquashedExactMatch::new("S", title)),
            Box::new(QgramFractionNecessary::new("N", title, 0.4, false)),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_records::tokenize_dataset;

    #[test]
    fn citation_stack_builds() {
        let cfg = topk_datagen::CitationConfig {
            n_authors: 30,
            n_citations: 100,
            ..Default::default()
        };
        let d = topk_datagen::generate_citations(&cfg);
        let toks = tokenize_dataset(&d);
        let stack = citation_predicates(d.schema(), &toks);
        assert_eq!(stack.len(), 2);
        assert_eq!(stack.levels[0].0.name(), "S1");
        assert_eq!(stack.levels[1].1.name(), "N2");
    }

    #[test]
    fn student_stack_builds() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 20,
            n_records: 60,
            ..Default::default()
        });
        let stack = student_predicates(d.schema());
        assert_eq!(stack.len(), 2);
    }

    #[test]
    fn address_stack_builds() {
        let d = topk_datagen::generate_addresses(&topk_datagen::AddressConfig {
            n_entities: 20,
            n_records: 60,
            ..Default::default()
        });
        let stack = address_predicates(d.schema());
        assert_eq!(stack.len(), 1);
        assert!(!stack.is_empty());
    }

    #[test]
    #[should_panic(expected = "missing field")]
    fn missing_field_panics() {
        let schema = Schema::new(vec!["wrong"]);
        student_predicates(&schema);
    }

    /// Statistical soundness of the predicate library against generator
    /// ground truth: sufficient predicates should essentially never fire
    /// across entities, and necessary predicates should hold for the vast
    /// majority of true duplicate pairs.
    #[test]
    fn predicate_soundness_on_students() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 40,
            n_records: 200,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let truth = d.truth().unwrap();
        let stack = student_predicates(d.schema());
        let (s1, n1) = &stack.levels[0];
        let mut s_false_positives = 0;
        let mut n_missed_dups = 0;
        let mut dup_pairs = 0;
        for i in 0..toks.len() {
            for j in (i + 1)..toks.len() {
                let dup = truth.same_group(i, j);
                if s1.matches(&toks[i], &toks[j]) && !dup {
                    s_false_positives += 1;
                }
                if dup {
                    dup_pairs += 1;
                    if !n1.matches(&toks[i], &toks[j]) {
                        n_missed_dups += 1;
                    }
                }
            }
        }
        assert_eq!(
            s_false_positives, 0,
            "sufficient predicate fired on non-duplicates"
        );
        // N1 requires clean fields to match; generator keeps class/school
        // clean, and initials survive the noise channels almost always.
        assert!(
            (n_missed_dups as f64) < 0.05 * dup_pairs as f64,
            "necessary predicate missed {n_missed_dups}/{dup_pairs} duplicate pairs"
        );
    }
}
