//! Precomputed token views of records.
//!
//! Predicates and similarity features repeatedly need word sets, 3-gram
//! sets, and initials for the same fields; tokenizing once per record when
//! a dataset is loaded keeps the join loops allocation-free.

use topk_text::tokenize::{initials_set, qgram_set, word_set, TokenSet};
use topk_text::Parallelism;

use crate::dataset::Dataset;
use crate::record::FieldId;

/// Token views of one field.
#[derive(Debug, Clone)]
pub struct TokenizedField {
    /// The normalized field text.
    pub text: String,
    /// `Err` with the field's index where a lean record
    /// ([`TokenizedRecord::from_fields_reading`]) built none, so that a
    /// stray read panics naming the field and never sees an empty set.
    sets: Result<TokenSets, FieldId>,
}

#[derive(Debug, Clone)]
struct TokenSets {
    words: TokenSet,
    qgrams3: TokenSet,
    initials: TokenSet,
}

impl TokenSets {
    fn of(text: &str) -> Self {
        TokenSets {
            words: word_set(text),
            qgrams3: qgram_set(text, 3),
            initials: initials_set(text),
        }
    }
}

#[cold]
#[inline(never)]
fn unread(field: FieldId) -> ! {
    let i = field.0;
    panic!("token sets read from field {i} of a record that was tokenized without it")
}

impl TokenizedField {
    /// Tokenize one normalized field.
    pub fn new(text: &str) -> Self {
        TokenizedField {
            text: text.to_string(),
            sets: Ok(TokenSets::of(text)),
        }
    }

    #[inline]
    fn sets(&self) -> &TokenSets {
        match &self.sets {
            Ok(sets) => sets,
            Err(field) => unread(*field),
        }
    }

    /// Distinct word tokens.
    #[inline]
    pub fn words(&self) -> &TokenSet {
        &self.sets().words
    }

    /// Distinct character 3-grams.
    #[inline]
    pub fn qgrams3(&self) -> &TokenSet {
        &self.sets().qgrams3
    }

    /// Distinct word initials.
    #[inline]
    pub fn initials(&self) -> &TokenSet {
        &self.sets().initials
    }

    /// The size in bytes of each heap block this field owns: the text
    /// and, when built, the three sets, at their capacities.
    pub fn heap_blocks(&self) -> impl Iterator<Item = usize> {
        let sets = self.sets.as_ref().ok();
        let sets = sets.map(|s| [&s.words, &s.qgrams3, &s.initials].map(TokenSet::heap_bytes));
        let blocks = std::iter::once(self.text.capacity()).chain(sets.unwrap_or_default());
        blocks.filter(|&bytes| bytes > 0)
    }
}

/// Token views of one record, indexed by [`FieldId`].
#[derive(Debug, Clone)]
pub struct TokenizedRecord {
    fields: Vec<TokenizedField>,
    weight: f64,
}

impl TokenizedRecord {
    /// Tokenize all fields of a record.
    pub fn from_fields(fields: &[String], weight: f64) -> Self {
        TokenizedRecord {
            fields: fields.iter().map(|f| TokenizedField::new(f)).collect(),
            weight,
        }
    }

    /// The lean record of a caller whose predicates read only the fields
    /// in `read`: token sets for those, the text alone for every other
    /// field. Reading a set that was not built panics.
    pub fn from_fields_reading(fields: &[String], weight: f64, read: &[FieldId]) -> Self {
        let mut rec = TokenizedRecord {
            fields: Vec::with_capacity(fields.len()),
            weight,
        };
        for (i, text) in fields.iter().enumerate() {
            let (text, sets) = (text.clone(), Err(FieldId(i)));
            rec.fields.push(TokenizedField { text, sets });
        }
        rec.tokenize_only(read);
        rec
    }

    /// Make this the record [`Self::from_fields_reading`] builds for
    /// `read`, whatever it was built for: sets the fields in `read` lack
    /// are built from their text, the sets of every other field dropped.
    pub fn tokenize_only(&mut self, read: &[FieldId]) {
        for (i, f) in self.fields.iter_mut().enumerate() {
            if !read.contains(&FieldId(i)) {
                f.sets = Err(FieldId(i));
            } else if f.sets.is_err() {
                f.sets = Ok(TokenSets::of(&f.text));
            }
        }
    }

    /// Token views of a field.
    #[inline]
    pub fn field(&self, f: FieldId) -> &TokenizedField {
        &self.fields[f.0]
    }

    /// Record weight.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

/// Tokenize every record of a dataset.
pub fn tokenize_dataset(d: &Dataset) -> Vec<TokenizedRecord> {
    let mut sp = topk_obs::Span::enter("tokenize");
    sp.record("records", d.records().len());
    d.records()
        .iter()
        .map(|r| TokenizedRecord::from_fields(r.fields(), r.weight()))
        .collect()
}

/// [`tokenize_dataset`] with an explicit thread budget: records are
/// tokenized in contiguous chunks across scoped threads and reassembled
/// in input order, so the output is identical to the sequential version
/// for every thread count.
pub fn tokenize_dataset_par(d: &Dataset, par: Parallelism) -> Vec<TokenizedRecord> {
    let mut sp = topk_obs::Span::enter("tokenize");
    sp.record("records", d.records().len());
    sp.record("threads", par.get());
    par.map_slice(d.records(), |r| {
        TokenizedRecord::from_fields(r.fields(), r.weight())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Schema;
    use crate::record::Record;

    #[test]
    fn tokenizes_fields() {
        let tr = TokenizedRecord::from_fields(&["sunita sarawagi".into(), "iit".into()], 2.0);
        assert_eq!(tr.arity(), 2);
        assert_eq!(tr.field(FieldId(0)).words().len(), 2);
        assert_eq!(tr.field(FieldId(0)).initials().len(), 1); // both start with 's'
        assert!(!tr.field(FieldId(0)).qgrams3().is_empty());
        assert_eq!(tr.weight(), 2.0);
        assert_eq!(tr.field(FieldId(1)).text, "iit");
    }

    #[test]
    fn lean_records_build_sets_for_the_read_fields_only() {
        let fields = ["sunita sarawagi".to_string(), "iit bombay".to_string()];
        let full = TokenizedRecord::from_fields(&fields, 2.0);
        let mut lean = TokenizedRecord::from_fields_reading(&fields, 2.0, &[FieldId(1)]);
        assert_eq!((lean.arity(), lean.weight()), (2, 2.0));
        assert_eq!(lean.field(FieldId(0)).text, "sunita sarawagi");
        assert_eq!(lean.field(FieldId(0)).heap_blocks().count(), 1);
        let same_sets = |a: &TokenizedField, b: &TokenizedField| {
            (a.words(), a.qgrams3(), a.initials()) == (b.words(), b.qgrams3(), b.initials())
                && a.heap_blocks().eq(b.heap_blocks())
        };
        assert!(same_sets(lean.field(FieldId(1)), full.field(FieldId(1))));
        // Re-targeting builds what is missing and drops the rest,
        // from a lean and from a full record alike.
        lean.tokenize_only(&[FieldId(0)]);
        assert!(same_sets(lean.field(FieldId(0)), full.field(FieldId(0))));
        assert_eq!(lean.field(FieldId(1)).heap_blocks().count(), 1);
        let mut stripped = TokenizedRecord::from_fields(&fields, 2.0);
        stripped.tokenize_only(&[FieldId(0)]);
        assert!(same_sets(
            stripped.field(FieldId(0)),
            full.field(FieldId(0))
        ));
        assert_eq!(stripped.field(FieldId(1)).heap_blocks().count(), 1);
    }

    #[test]
    #[should_panic(expected = "token sets read from field 1")]
    fn reading_a_set_that_was_not_built_names_the_field() {
        let fields = ["a b".to_string(), "c d".to_string()];
        let lean = TokenizedRecord::from_fields_reading(&fields, 1.0, &[FieldId(0)]);
        let _ = lean.field(FieldId(1)).qgrams3();
    }

    #[test]
    fn dataset_tokenization() {
        let d = Dataset::new(
            Schema::new(vec!["name"]),
            vec![
                Record::new(vec!["a b".into()]),
                Record::new(vec!["c".into()]),
            ],
        );
        let toks = tokenize_dataset(&d);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].field(FieldId(0)).words().len(), 2);
    }
}
