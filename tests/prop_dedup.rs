//! Property tests for the batch deduplication API.

use proptest::prelude::*;

use topk_core::deduplicate;
use topk_datagen::{generate_addresses, AddressConfig};
use topk_predicates::{address_predicates, collapse};
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let name = topk_text::sim::overlap_coefficient(
        a.field(FieldId(0)).qgrams3(),
        b.field(FieldId(0)).qgrams3(),
    );
    let addr = topk_text::sim::jaccard(a.field(FieldId(1)).words(), b.field(FieldId(1)).words());
    0.5 * name + 0.5 * addr - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dedup output must be a *coarsening* of the sufficient-predicate
    /// collapse: records collapsed together (certain duplicates) are
    /// never split by the final clustering.
    #[test]
    fn dedup_coarsens_the_collapse(seed in 0u64..200) {
        let data = generate_addresses(&AddressConfig {
            n_entities: 40,
            n_records: 160,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());
        let res = deduplicate(&toks, &stack, &scorer, -1.0);

        let refs: Vec<&TokenizedRecord> = toks.iter().collect();
        let weights: Vec<f64> = toks.iter().map(|t| t.weight()).collect();
        for (s_pred, _) in &stack.levels {
            for g in collapse(&refs, &weights, s_pred.as_ref()) {
                for w in g.members.windows(2) {
                    prop_assert!(
                        res.partition.same_group(w[0] as usize, w[1] as usize),
                        "dedup split a certain-duplicate pair"
                    );
                }
            }
        }
    }

    /// Partition shape invariants: covers every record, labels dense
    /// after canonicalization, and non-canopy records stay apart when the
    /// scorer is uniformly negative.
    #[test]
    fn all_negative_scorer_yields_collapse_only(seed in 0u64..200) {
        let data = generate_addresses(&AddressConfig {
            n_entities: 30,
            n_records: 100,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());
        let negative = |_: &TokenizedRecord, _: &TokenizedRecord| -1.0;
        let res = deduplicate(&toks, &stack, &negative, -1.0);
        prop_assert!(res.exact);
        prop_assert_eq!(res.partition.len(), toks.len());
        // With nothing positive, groups are exactly the collapse groups.
        let refs: Vec<&TokenizedRecord> = toks.iter().collect();
        let weights: Vec<f64> = toks.iter().map(|t| t.weight()).collect();
        let collapsed = collapse(&refs, &weights, stack.levels[0].0.as_ref());
        prop_assert_eq!(res.partition.group_count(), collapsed.len());
    }
}
