//! Quickstart: answer a TopK count query over a small noisy dataset.
//!
//! ```sh
//! cargo run -p topk-core --example quickstart
//! ```
//!
//! Walks the whole public API once: generate dirty data, pick the
//! paper's predicate stack, run the PrunedDedup pipeline through
//! [`TopKQuery`], and print the K most frequent entities together with an
//! alternative answer exposing the resolution ambiguity.

use topk_core::TopKQuery;
use topk_datagen::{generate_citations, CitationConfig};
use topk_predicates::citation_predicates;
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

/// A simple hand-tuned scorer: positive when author names overlap
/// strongly on 3-grams and initials agree. (`examples/prolific_inventors`
/// shows the trained-classifier alternative.)
fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    let author = FieldId(0);
    let gram =
        topk_text::sim::overlap_coefficient(a.field(author).qgrams3(), b.field(author).qgrams3());
    let initial_ok = a
        .field(author)
        .initials()
        .intersection_size(b.field(author).initials())
        >= 1;
    if initial_ok {
        gram - 0.5
    } else {
        -1.0
    }
}

fn main() {
    // 1. A noisy dataset: author-mention records for 800 authors.
    let data = generate_citations(&CitationConfig {
        n_authors: 800,
        n_citations: 4000,
        ..Default::default()
    });
    println!("dataset: {} records", data.len());

    // 2. Tokenize once; build the paper's citation predicates (§6.1.1).
    let toks = tokenize_dataset(&data);
    let stack = citation_predicates(data.schema(), &toks);

    // 3. TopK count query: the 5 most-mentioned authors, 2 alternative
    //    answers.
    let query = TopKQuery::new(5, 2);
    let result = query.run(&toks, &stack, &scorer);

    // 4. Pruning statistics (the paper's Figure 2 quantities).
    for it in &result.stats.iterations {
        println!(
            "iteration {}: collapse -> {} groups ({:.2}%), m={}, M={:.0}, prune -> {} ({:.2}%)",
            it.level + 1,
            it.n_after_collapse,
            it.pct_after_collapse,
            it.m,
            it.lower_bound,
            it.n_after_prune,
            it.pct_after_prune,
        );
    }

    // 5. The best answer.
    let best = &result.answers[0];
    println!("\nbest answer (score {:.1}):", best.score);
    for (rank, g) in best.groups.iter().enumerate() {
        let rep = data.record(topk_records::RecordId(g.rep));
        println!(
            "  #{:<2} {:<28} {} mentions",
            rank + 1,
            rep.field(FieldId(0)),
            g.records.len()
        );
    }

    // 6. Ambiguity: a second plausible answer, if the data supports one.
    if let Some(alt) = result.answers.get(1) {
        println!(
            "\nalternative answer (score {:.1}, delta {:.1}):",
            alt.score,
            best.score - alt.score
        );
        for (rank, g) in alt.groups.iter().enumerate() {
            let rep = data.record(topk_records::RecordId(g.rep));
            println!(
                "  #{:<2} {:<28} {} mentions",
                rank + 1,
                rep.field(FieldId(0)),
                g.records.len()
            );
        }
    }
}
