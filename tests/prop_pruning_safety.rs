//! Property tests of the pruning guarantees (§4.2-§4.3): pruning must
//! never discard anything that could participate in a TopK answer.

use proptest::prelude::*;

use topk_core::{
    estimate_lower_bound, prune_groups, prune_groups_fast, PipelineConfig, PrunedDedup, PruningMode,
};
use topk_datagen::{
    generate_addresses, generate_citations, generate_students, AddressConfig, CitationConfig,
    StudentConfig,
};
use topk_predicates::{
    address_predicates, citation_predicates, student_predicates, NecessaryPredicate, PredicateStack,
};
use topk_records::{tokenize_dataset, TokenizedRecord};
use topk_text::InvertedIndex;

fn config(seed: u64, n_entities: usize, n_records: usize) -> AddressConfig {
    AddressConfig {
        n_entities,
        n_records,
        seed,
        ..Default::default()
    }
}

/// The fast prune as it was before the canopy was filtered by
/// `N.admits`: a group's candidates are every id sharing
/// `min_common_tokens` candidate tokens with it. The loosest thing the
/// fast prune may legitimately keep; the oracle for the upper side of
/// the sandwich below.
fn fast_prune_over_the_unfiltered_canopy(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    pred: &dyn NecessaryPredicate,
    m_bound: f64,
    refine_iterations: usize,
) -> Vec<u32> {
    let n = reps.len();
    let token_sets: Vec<_> = reps.iter().map(|r| pred.candidate_tokens(r)).collect();
    let mut index = InvertedIndex::new();
    for (i, ts) in token_sets.iter().enumerate() {
        index.insert(i as u32, ts);
    }
    let heavy: Vec<bool> = weights.iter().map(|&w| w >= m_bound).collect();
    let candidates: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            if heavy[i] {
                Vec::new()
            } else {
                index.candidates(&token_sets[i], pred.min_common_tokens(), Some(i as u32))
            }
        })
        .collect();
    let bound = |i: usize, live: &dyn Fn(usize) -> bool| {
        if heavy[i] {
            f64::INFINITY
        } else {
            weights[i]
                + candidates[i]
                    .iter()
                    .filter(|&&j| live(j as usize))
                    .map(|&j| weights[j as usize])
                    .sum::<f64>()
        }
    };
    let mut upper: Vec<f64> = (0..n).map(|i| bound(i, &|_| true)).collect();
    for _ in 0..refine_iterations {
        let prev = upper;
        upper = (0..n).map(|i| bound(i, &|j| prev[j] > m_bound)).collect();
    }
    (0..n as u32)
        .filter(|&i| {
            let iu = i as usize;
            heavy[iu]
                || (upper[iu] > m_bound
                    && bound(iu, &|j| {
                        upper[j] > m_bound && pred.matches(reps[iu], reps[j])
                    }) > m_bound)
        })
        .collect()
}

/// §4.3 with no index at all: `N.matches` on every pair. What
/// `prune_groups` must equal whatever the canopy admits.
fn exact_prune_over_all_pairs(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    pred: &dyn NecessaryPredicate,
    m_bound: f64,
    refine_iterations: usize,
) -> Vec<u32> {
    let n = reps.len();
    let adjacency: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && pred.matches(reps[i], reps[j]))
                .collect()
        })
        .collect();
    let bound = |i: usize, prev: Option<&[f64]>| {
        weights[i]
            + adjacency[i]
                .iter()
                .filter(|&&j| prev.map_or(true, |p| p[j] > m_bound))
                .map(|&j| weights[j])
                .sum::<f64>()
    };
    let mut upper: Vec<f64> = (0..n).map(|i| bound(i, None)).collect();
    for _ in 0..refine_iterations {
        let prev = upper;
        upper = (0..n).map(|i| bound(i, Some(&prev))).collect();
    }
    (0..n as u32)
        .filter(|&i| weights[i as usize] >= m_bound || upper[i as usize] > m_bound)
        .collect()
}

/// Collapsed groups of a corpus under every sufficient level of its
/// stack, heaviest first, as `(representatives, weights)`.
fn collapsed<'a>(
    toks: &'a [TokenizedRecord],
    stack: &PredicateStack,
) -> (Vec<&'a TokenizedRecord>, Vec<f64>) {
    let out = PrunedDedup::new(
        toks,
        stack,
        PipelineConfig {
            k: 1,
            mode: PruningMode::CanopyCollapse,
            ..Default::default()
        },
    )
    .run();
    let mut groups = out.groups;
    groups.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.rep.cmp(&b.rep)));
    (
        groups.iter().map(|g| &toks[g.rep as usize]).collect(),
        groups.iter().map(|g| g.weight).collect(),
    )
}

/// `exact ⊆ fast ⊆ loose` for every N of the stack at the certified `M`
/// and at two weights from inside the list (so that light groups with
/// neighbourhoods on either side of the bound exist whatever K
/// certifies). Returns how many groups the `admits` filter saved.
fn assert_sandwich(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    stack: &PredicateStack,
    k: usize,
    refine: usize,
) -> Result<usize, String> {
    let mut saved = 0;
    for (_, n_pred) in &stack.levels {
        let pred = n_pred.as_ref();
        let certified = estimate_lower_bound(reps, weights, pred, k).lower_bound;
        let inside = [weights.len() / 10, weights.len() / 3].map(|i| weights[i] + 0.5);
        for m_bound in [certified, inside[0], inside[1]] {
            let fast = prune_groups_fast(reps, weights, pred, m_bound, refine);
            let exact = exact_prune_over_all_pairs(reps, weights, pred, m_bound, refine + 1);
            prop_assert_eq!(
                &prune_groups(reps, weights, pred, m_bound, refine + 1).kept,
                &exact,
                "{}: the canopy hid a matching pair from the exact prune (M={})",
                pred.name(),
                m_bound
            );
            let loose = fast_prune_over_the_unfiltered_canopy(reps, weights, pred, m_bound, refine);
            prop_assert!(
                exact.iter().all(|g| fast.binary_search(g).is_ok()),
                "{}: the fast prune lost a group the exact prune keeps (M={m_bound})",
                pred.name()
            );
            prop_assert!(
                fast.iter().all(|g| loose.binary_search(g).is_ok()),
                "{}: the filtered canopy kept a group the unfiltered one prunes (M={m_bound})",
                pred.name()
            );
            saved += loose.len() - fast.len();
        }
    }
    Ok(saved)
}

/// The sandwich is not vacuous: on a corpus of the benchmark's shape the
/// filtered canopy prunes groups the unfiltered one kept.
#[test]
fn the_admission_filter_prunes_more_than_sharing_one_gram() {
    let data = generate_citations(&CitationConfig {
        n_authors: 150,
        n_citations: 900,
        seed: 7,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let stack = citation_predicates(data.schema(), &toks);
    let (reps, weights) = collapsed(&toks, &stack);
    let saved = assert_sandwich(&reps, &weights, &stack, 5, 2).unwrap();
    assert!(saved > 0, "the admits filter pruned nothing extra");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// §4.3 safety of the filtered canopy: the fast prune keeps at least
    /// what the exact prune keeps with one more pass (its verification
    /// pass counted as a refinement; the tightest it may equal) and at
    /// most what it kept when every pair sharing one token was a
    /// candidate.
    #[test]
    fn fast_prune_is_sandwiched_between_exact_and_unfiltered(
        seed in 0u64..500,
        k in 1usize..8,
        refine in 0usize..3,
        students in any::<bool>(),
    ) {
        let (toks, stack) = if students {
            let data = generate_students(&StudentConfig {
                n_students: 60, n_records: 300, seed, ..Default::default()
            });
            (tokenize_dataset(&data), student_predicates(data.schema()))
        } else {
            let data = generate_citations(&CitationConfig {
                n_authors: 60, n_citations: 300, seed, ..Default::default()
            });
            let toks = tokenize_dataset(&data);
            let stack = citation_predicates(data.schema(), &toks);
            (toks, stack)
        };
        let (reps, weights) = collapsed(&toks, &stack);
        assert_sandwich(&reps, &weights, &stack, k, refine)?;
    }

    /// Safety: every collapsed group whose weight reaches the certified
    /// lower bound M survives the prune, and everything the prune keeps
    /// is an unmodified collapsed group. (Single-level stack so collapse
    /// output is directly comparable.)
    #[test]
    fn heavy_groups_survive_pruning(
        seed in 0u64..500,
        k in 1usize..6,
        n_entities in 30usize..80,
    ) {
        let data = generate_addresses(&config(seed, n_entities, n_entities * 4));
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());

        let all = PrunedDedup::new(&toks, &stack, PipelineConfig {
            k, mode: PruningMode::CanopyCollapse, ..Default::default()
        }).run();
        let pruned = PrunedDedup::new(&toks, &stack, PipelineConfig {
            k, mode: PruningMode::Full, ..Default::default()
        }).run();
        let m_bound = pruned.last_lower_bound;

        let kept: std::collections::HashSet<Vec<u32>> = pruned
            .groups
            .iter()
            .map(|g| {
                let mut m = g.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        let all_sets: std::collections::HashSet<Vec<u32>> = all
            .groups
            .iter()
            .map(|g| {
                let mut m = g.members.clone();
                m.sort_unstable();
                m
            })
            .collect();

        // Everything kept is a genuine collapsed group.
        for g in &kept {
            prop_assert!(all_sets.contains(g), "prune invented a group");
        }
        // Every group at or above M survives.
        for g in &all.groups {
            if g.weight >= m_bound {
                let mut m = g.members.clone();
                m.sort_unstable();
                prop_assert!(
                    kept.contains(&m),
                    "group of weight {} >= M={} was pruned", g.weight, m_bound
                );
            }
        }
        // And the certified bound is consistent: at least K collapsed
        // groups weigh >= M (they exist, since M is a lower bound on the
        // K-th answer group).
        if m_bound > 0.0 {
            let heavy = all.groups.iter().filter(|g| g.weight >= m_bound).count();
            prop_assert!(heavy >= k.min(all.groups.len()),
                "only {heavy} groups reach M={m_bound} for K={k}");
        }
    }

    /// The certified lower bound never exceeds the K-th collapsed group's
    /// weight, and m ≥ K.
    #[test]
    fn lower_bound_sane(
        seed in 0u64..500,
        k in 1usize..6,
    ) {
        let data = generate_addresses(&config(seed, 50, 200));
        let toks = tokenize_dataset(&data);
        let stack = address_predicates(data.schema());
        let out = PrunedDedup::new(&toks, &stack, PipelineConfig {
            k, ..Default::default()
        }).run();
        let it = &out.stats.iterations[0];
        if it.lower_bound > 0.0 {
            prop_assert!(it.m >= k, "m={} < K={k}", it.m);
            // M = weight of the m-th collapsed group ≤ weight of the K-th
            // (weights sorted non-increasing, m ≥ K).
            let all = PrunedDedup::new(&toks, &stack, PipelineConfig {
                k, mode: PruningMode::CanopyCollapse, ..Default::default()
            }).run();
            if all.groups.len() >= k {
                prop_assert!(it.lower_bound <= all.groups[k - 1].weight + 1e-9);
            }
        }
    }
}
