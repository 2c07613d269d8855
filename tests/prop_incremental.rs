//! Property tests: the incremental collapse is exactly the batch collapse
//! on arbitrary insertion prefixes of generated datasets, and the
//! maintained per-root aggregates and ordered index are exactly the
//! from-scratch `groups()`, bit for bit, after any insert sequence.

use proptest::prelude::*;

use topk_core::{GroupSummary, IncrementalDedup};
use topk_datagen::{generate_addresses, AddressConfig};
use topk_predicates::{address_predicates, collapse, ExactFieldsMatch, OrSufficient};
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

fn normalized_groups(groups: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    let mut gs = groups;
    for g in &mut gs {
        g.sort_unstable();
    }
    gs.sort();
    gs
}

/// Two-field records equal in either field are duplicates: a record
/// whose two values already head two groups is a bridge that merges them.
fn either_field() -> OrSufficient<ExactFieldsMatch, ExactFieldsMatch> {
    OrSufficient::new(
        ExactFieldsMatch::new("first", vec![FieldId(0)]),
        ExactFieldsMatch::new("second", vec![FieldId(1)]),
    )
}

/// Few distinct values, so equal-weight ties are common, and fractional
/// ones whose f64 sum depends on the order of addition.
const WEIGHTS: [f64; 8] = [0.1, 0.2, 0.3, 0.7, 1.0, 1.0, 2.5, 1e-3];

/// The index, read in full and by prefix, against `groups()`.
fn check_index(inc: &mut IncrementalDedup) -> Result<(), String> {
    inc.sync_index();
    let reference = inc.groups();
    let n = reference.len();
    for k in [1, 10, n] {
        let got: Vec<GroupSummary> = inc.ranked().take(k).copied().collect();
        let want = &reference[..k.min(n)];
        if got.len() != want.len() {
            return Err(format!("k={k}: {} groups, want {}", got.len(), want.len()));
        }
        for (i, (s, g)) in got.iter().zip(want).enumerate() {
            let same = s.weight.to_bits() == g.weight.to_bits()
                && s.rep == g.rep
                && s.size as usize == g.members.len();
            if !same {
                return Err(format!("k={k} position {i}: index {s:?}, groups() {g:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_equals_batch_on_any_prefix(
        seed in 0u64..300,
        prefix_frac in 0.2f64..1.0,
    ) {
        let data = generate_addresses(&AddressConfig {
            n_entities: 40,
            n_records: 180,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());
        let s = stack.levels[0].0.as_ref();

        let prefix = ((toks.len() as f64 * prefix_frac) as usize).max(1);
        let mut inc = IncrementalDedup::new();
        for t in toks.iter().take(prefix) {
            inc.insert(t.clone(), s);
        }

        let refs: Vec<&TokenizedRecord> = toks.iter().take(prefix).collect();
        let weights: Vec<f64> = refs.iter().map(|t| t.weight()).collect();
        let batch = collapse(&refs, &weights, s);

        prop_assert_eq!(inc.group_count(), batch.len());
        let inc_sets = normalized_groups(inc.groups().into_iter().map(|g| g.members).collect());
        let batch_sets = normalized_groups(batch.into_iter().map(|g| g.members).collect());
        prop_assert_eq!(inc_sets, batch_sets);
    }

    #[test]
    fn incremental_weights_match_inputs(seed in 0u64..300) {
        let data = generate_addresses(&AddressConfig {
            n_entities: 30,
            n_records: 120,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        for t in &toks {
            inc.insert(t.clone(), s);
        }
        let total_in: f64 = toks.iter().map(|t| t.weight()).sum();
        let total_out: f64 = inc.groups().iter().map(|g| g.weight).sum();
        prop_assert!((total_in - total_out).abs() < 1e-6);
    }

    #[test]
    fn index_equals_groups_after_any_insert_sequence(
        // Each record is two field values below 40 and a weight choice.
        records in proptest::collection::vec(0u32..40 * 40 * 8, 20..120),
        sync_every in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = (records.len() as f64 * cut_frac) as usize;
        let s = either_field();
        let mut inc = IncrementalDedup::new();
        let mut bridges = 0;
        for (i, &code) in records.iter().enumerate() {
            let (a, b, w) = (code % 40, code / 40 % 40, (code / 1600) as usize);
            if i == cut {
                // Mid-sequence restore: aggregates and index are rebuilt
                // from the persisted partition alone.
                inc = IncrementalDedup::from_state(inc.export_state()).expect("valid state");
                prop_assert!(check_index(&mut inc).is_ok(), "after restore at {}", i);
            }
            let before = inc.group_count();
            let fields = [format!("a{a}"), format!("b{b}")];
            inc.insert(TokenizedRecord::from_fields(&fields, WEIGHTS[w]), &s);
            bridges += usize::from(inc.group_count() < before);
            if i % sync_every == 0 {
                let checked = check_index(&mut inc);
                prop_assert!(checked.is_ok(), "after insert {}: {:?}", i, checked);
            }
        }
        let checked = check_index(&mut inc);
        prop_assert!(checked.is_ok(), "at the end: {:?}", checked);
        // The sequences are dense enough that groups do get bridged.
        prop_assert!(bridges > 0 || records.len() < 40, "no bridge in {} inserts", records.len());
    }
}
