//! Shared load-once / tokenize-once corpus path.
//!
//! Before the service existed, every `topk` CLI invocation re-read and
//! re-tokenized its dataset even when only query parameters changed
//! between runs. This module hoists that work into one place used by
//! *both* modes: the batch CLI loads a [`Corpus`] once and runs any
//! number of query kinds against it, and `topk serve --preload` feeds
//! the very same tokenized records into the resident engine, after which
//! queries never touch the raw file again.

use std::path::Path;
use std::sync::Arc;

use topk_predicates::{PredicateStack, QgramFractionNecessary, RareNameSufficient};
use topk_records::{tokenize_dataset_par, Dataset, FieldId, TokenizedRecord};
use topk_text::{CorpusStats, Parallelism};

/// Options controlling how a delimited file becomes a [`Corpus`].
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Column separator.
    pub delimiter: char,
    /// First row is a header row.
    pub has_header: bool,
    /// Weight column name, if any.
    pub weight_col: Option<String>,
    /// Ground-truth label column name, if any.
    pub label_col: Option<String>,
    /// Field used for matching (`None` = first data column).
    pub name_field: Option<String>,
    /// Thread budget for tokenization.
    pub parallelism: Parallelism,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            delimiter: '\t',
            has_header: true,
            weight_col: None,
            label_col: None,
            name_field: None,
            parallelism: Parallelism::auto(),
        }
    }
}

/// A dataset loaded and tokenized exactly once, with its match field
/// resolved. Every query mode (batch `count`/`rank`/`thresh`, the
/// resident server) consumes this shape.
#[derive(Debug)]
pub struct Corpus {
    /// The raw records.
    pub data: Dataset,
    /// Token views, one per record, in record order.
    pub toks: Vec<TokenizedRecord>,
    /// The field queries match on.
    pub field: FieldId,
}

impl Corpus {
    /// Build the generic one-level predicate stack over the match field
    /// (rare-word sufficient + 3-gram-overlap necessary) — the same
    /// stack for batch and served queries, so their answers agree.
    pub fn stack(&self, max_df: u32, min_overlap: f64) -> PredicateStack {
        generic_stack(&self.toks, self.field, max_df, min_overlap)
    }
}

/// Load a delimited file into a [`Dataset`] (no tokenization — the
/// `topk client ingest` path ships raw texts and lets the server
/// tokenize). Native topk TSVs (tab separator, header, no explicit
/// weight/label columns) go through the strict reader; anything else
/// through the flexible one.
pub fn load_dataset(path: &Path, opts: &CorpusOptions) -> Result<Dataset, String> {
    let use_native = opts.delimiter == '\t'
        && opts.has_header
        && opts.weight_col.is_none()
        && opts.label_col.is_none()
        && topk_records::io::read_tsv(path).is_ok();
    let data = if use_native {
        topk_records::io::read_tsv(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
    } else {
        let read_opts = topk_records::io::ReadOptions {
            delimiter: opts.delimiter,
            has_header: opts.has_header,
            weight_column: opts.weight_col.clone(),
            label_column: opts.label_col.clone(),
            normalize: true,
        };
        topk_records::io::read_delimited(path, &read_opts)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
    };
    if data.is_empty() {
        return Err("dataset is empty".into());
    }
    Ok(data)
}

/// Load a delimited file into a [`Corpus`]: [`load_dataset`], resolve
/// the match field, tokenize once.
pub fn load_corpus(path: &Path, opts: &CorpusOptions) -> Result<Corpus, String> {
    let data = load_dataset(path, opts)?;
    let field = match &opts.name_field {
        Some(name) => data
            .schema()
            .field_id(name)
            .ok_or_else(|| format!("no field named `{name}` in the dataset"))?,
        None => FieldId(0),
    };
    let toks = tokenize_dataset_par(&data, opts.parallelism);
    Ok(Corpus { data, toks, field })
}

/// The generic predicate stack over `field`: rare-word sufficient
/// predicate with document frequencies over *distinct* field values,
/// plus a 3-gram-overlap necessary predicate.
///
/// Shared by the batch CLI and the engine so that a served query over
/// ingested records is the same computation as a batch query over the
/// same file.
pub fn generic_stack(
    toks: &[TokenizedRecord],
    field: FieldId,
    max_df: u32,
    min_overlap: f64,
) -> PredicateStack {
    let mut seen = std::collections::HashSet::new();
    let mut stats = CorpusStats::new();
    for t in toks {
        let f = t.field(field);
        if seen.insert(topk_text::hash::hash_str(&f.text)) {
            stats.add_document(f.words());
        }
    }
    stack_from_stats(Arc::new(stats), field, max_df, min_overlap)
}

/// The fields whose token sets [`stack_from_stats`]'s predicates read:
/// both read `field` and nothing else. The engine tokenizes exactly
/// these (`TokenizedRecord::from_fields_reading`) and keeps only the text
/// of every other field, so a predicate put on another field below must
/// be listed here too — reading a set that was not built panics, naming
/// the field, and the test beside this module runs the stack over lean
/// records.
pub fn stack_fields(field: FieldId) -> [FieldId; 1] {
    [field]
}

/// Assemble the generic stack from prebuilt corpus statistics (the
/// engine maintains its stats incrementally and calls this per flush).
pub fn stack_from_stats(
    stats: Arc<CorpusStats>,
    field: FieldId,
    max_df: u32,
    min_overlap: f64,
) -> PredicateStack {
    PredicateStack {
        levels: vec![(
            Box::new(RareNameSufficient::new("S", field, stats, max_df)),
            Box::new(QgramFractionNecessary::new("N", field, min_overlap, false)),
        )],
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_resolves_field() {
        let dir = std::env::temp_dir().join("topk_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tsv");
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 10,
            n_records: 40,
            ..Default::default()
        });
        topk_records::io::write_tsv(&d, &path).unwrap();
        let corpus = load_corpus(
            &path,
            &CorpusOptions {
                name_field: Some("name".into()),
                ..Default::default()
            },
        )
        .expect("loads");
        assert_eq!(corpus.toks.len(), corpus.data.len());
        assert_eq!(corpus.data.schema().field_name(corpus.field), "name");
        let stack = corpus.stack(30, 0.6);
        assert_eq!(stack.levels.len(), 1);
    }

    #[test]
    fn the_stack_reads_no_field_outside_stack_fields() {
        let d = topk_datagen::generate_citations(&topk_datagen::CitationConfig {
            n_authors: 12,
            n_citations: 60,
            ..Default::default()
        });
        let field = FieldId(0);
        let (full, lean): (Vec<_>, Vec<_>) = d
            .records()
            .iter()
            .map(|r| {
                (
                    TokenizedRecord::from_fields(r.fields(), r.weight()),
                    TokenizedRecord::from_fields_reading(
                        r.fields(),
                        r.weight(),
                        &stack_fields(field),
                    ),
                )
            })
            .unzip();
        assert!(full[0].arity() > 1, "needs fields the stack does not read");
        // Every entry point of both predicates, on lean records: a read
        // outside `stack_fields` would panic here.
        let stack = generic_stack(&lean, field, 30, 0.6);
        let reference = generic_stack(&full, field, 30, 0.6);
        for ((s, n), (rs, rn)) in stack.levels.iter().zip(&reference.levels) {
            for (i, (a, fa)) in lean.iter().zip(&full).enumerate() {
                assert_eq!(s.blocking_keys(a), rs.blocking_keys(fa));
                assert_eq!(s.partition_key(a), rs.partition_key(fa));
                assert_eq!(n.candidate_tokens(a), rn.candidate_tokens(fa));
                let (b, fb) = (&lean[(i + 1) % lean.len()], &full[(i + 1) % full.len()]);
                assert_eq!(s.matches(a, b), rs.matches(fa, fb));
                assert_eq!(n.matches(a, b), rn.matches(fa, fb));
            }
        }
    }

    #[test]
    fn rejects_unknown_field_and_missing_file() {
        let err =
            load_corpus(Path::new("/nonexistent/x.tsv"), &CorpusOptions::default()).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    /// The generic stack's N filters its canopy by shared-gram count
    /// (`admits`); every pair it matches must be admitted, on both
    /// corpora the benchmark runs it over.
    #[test]
    fn the_generic_necessary_predicate_admits_every_pair_it_matches() {
        let students = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 40,
            n_records: 200,
            ..Default::default()
        });
        let citations = topk_datagen::generate_citations(&topk_datagen::CitationConfig {
            n_authors: 40,
            n_citations: 160,
            ..Default::default()
        });
        for (data, name) in [(&students, "name"), (&citations, "author")] {
            let toks = topk_records::tokenize_dataset(data);
            let refs: Vec<&TokenizedRecord> = toks.iter().collect();
            let field = data.schema().field_id(name).expect("match field");
            let stack = generic_stack(&toks, field, 30, 0.6);
            let (_, n) = &stack.levels[0];
            let matching = (0..refs.len())
                .flat_map(|i| ((i + 1)..refs.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| n.matches(refs[i], refs[j]))
                .count();
            assert!(matching > 0, "{name}: no matching pair to check");
            let broken = topk_predicates::check_necessary_contract(n.as_ref(), &refs);
            assert!(broken.is_empty(), "{name}: {:?}", broken.first());
        }
    }
}
