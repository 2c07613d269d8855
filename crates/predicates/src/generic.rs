//! Reusable predicate building blocks.
//!
//! The paper's dataset-specific predicates (§6.1) are all instances of a
//! small family of shapes: exact-match signatures, rare-word matches,
//! q-gram overlap thresholds, and word-overlap thresholds. This module
//! implements those shapes generically; `library.rs` instantiates them
//! per dataset exactly as the paper specifies.

use std::sync::Arc;

use topk_records::{FieldId, TokenizedRecord};
use topk_text::hash::{combine, hash_str};
use topk_text::sim::{overlap_coefficient_of_counts, overlap_fraction_of_smaller};
use topk_text::stopwords::StopWords;
use topk_text::tokenize::{initials_match, last_word, TokenSet};
use topk_text::CorpusStats;

use crate::traits::{NecessaryPredicate, SufficientPredicate};

/// Hash of the sorted initials of a text — equal for any two strings whose
/// initials match as multisets.
pub fn sorted_initials_hash(text: &str) -> u64 {
    let mut initials: Vec<char> = topk_text::tokenize::initials(text);
    initials.sort_unstable();
    let s: String = initials.into_iter().collect();
    hash_str(&s)
}

fn concat_hash(r: &TokenizedRecord, fields: &[FieldId]) -> u64 {
    let mut h = 0xfeed_f00du64;
    for &f in fields {
        h = combine(h, hash_str(&r.field(f).text));
    }
    h
}

/// Partition key of a name string under the initials + last-word blocking
/// scheme shared by [`RareNameSufficient`] and
/// [`InitialsLastCoauthorSufficient`]: the combined hash of the sorted
/// initials and the last word. Returns `None` when the text has no last
/// word — such records emit no blocking keys under those predicates and
/// are permanent singletons, so they may be routed to any shard.
///
/// This is a pure function of the text: corpus statistics only gate
/// *whether* `RareNameSufficient` emits the key, never its value, which
/// is what makes the partition stable under stats drift.
pub fn name_partition_key(text: &str) -> Option<u64> {
    last_word(text).map(|lw| combine(sorted_initials_hash(text), hash_str(lw)))
}

/// Total partition key of a match-field text: [`name_partition_key`]
/// when one exists, otherwise a plain hash of the text. Records without
/// a last word emit no blocking keys and are permanent singletons, so
/// hashing them anywhere is sound. This single function is what both
/// engine sharding (`topk-service`) and the sampled estimator
/// (`topk-approx`) stand on: every group the sufficient predicate can
/// ever form has exactly one key under it.
pub fn collapse_partition_key(text: &str) -> u64 {
    name_partition_key(text).unwrap_or_else(|| hash_str(text))
}

// ---------------------------------------------------------------------------
// Sufficient predicates
// ---------------------------------------------------------------------------

/// S: all listed fields match exactly (students S1 shape).
pub struct ExactFieldsMatch {
    name: String,
    fields: Vec<FieldId>,
}

impl ExactFieldsMatch {
    /// Exact match over `fields`.
    pub fn new(name: &str, fields: Vec<FieldId>) -> Self {
        ExactFieldsMatch {
            name: name.to_string(),
            fields,
        }
    }
}

impl SufficientPredicate for ExactFieldsMatch {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        vec![concat_hash(r, &self.fields)]
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        self.fields
            .iter()
            .all(|&f| a.field(f).text == b.field(f).text)
    }
    fn exact_on_key(&self) -> bool {
        true
    }
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        Some(concat_hash(r, &self.fields))
    }
}

/// S: initials match exactly, the last (sur)name words are equal, and
/// every multi-letter word of both names is rare — document frequency
/// ≤ `max_df` over *distinct* name strings (citation S1 shape: "names
/// need to be sufficiently rare and their initials have to match
/// exactly", the paper's "minimum IDF over two author words is at least
/// 13").
///
/// Initialed mentions ("s sarawagi") intentionally fail the rarity test:
/// single-letter words are frequent, exactly as under the paper's IDF
/// threshold. Those mentions are collapsed one level later by the
/// co-author-evidence predicate (S2), which is what gives Algorithm 2 its
/// two-stage reduction on the citation workload.
pub struct RareNameSufficient {
    name: String,
    field: FieldId,
    stats: Arc<CorpusStats>,
    max_df: u32,
}

impl RareNameSufficient {
    /// See type docs. `stats` should be built over distinct field values
    /// (see `citation_predicates`).
    pub fn new(name: &str, field: FieldId, stats: Arc<CorpusStats>, max_df: u32) -> Self {
        RareNameSufficient {
            name: name.to_string(),
            field,
            stats,
            max_df,
        }
    }

    fn all_rare(&self, r: &TokenizedRecord) -> bool {
        let f = r.field(self.field);
        if f.words().is_empty() {
            return false;
        }
        f.text
            .split_whitespace()
            .all(|w| self.stats.doc_freq(topk_text::hash::hash_str(w)) <= self.max_df)
    }
}

impl SufficientPredicate for RareNameSufficient {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        if !self.all_rare(r) {
            return Vec::new();
        }
        let f = r.field(self.field);
        match last_word(&f.text) {
            Some(lw) => vec![combine(sorted_initials_hash(&f.text), hash_str(lw))],
            None => Vec::new(),
        }
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let (fa, fb) = (a.field(self.field), b.field(self.field));
        let last_eq = match (last_word(&fa.text), last_word(&fb.text)) {
            (Some(x), Some(y)) => x == y && x.chars().count() >= 2,
            _ => false,
        };
        last_eq && self.all_rare(a) && self.all_rare(b) && initials_match(&fa.text, &fb.text)
    }
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        // The key value is stats-independent: `all_rare` only decides
        // whether a blocking key is *emitted*, never what it hashes to,
        // and `matches` implies equal last words + matching initials,
        // hence equal partition keys.
        name_partition_key(&r.field(self.field).text)
    }
}

/// S: initials match, last words equal, and at least `min_coauthors`
/// common words in the co-author field (citation S2 shape).
pub struct InitialsLastCoauthorSufficient {
    name: String,
    author: FieldId,
    coauthors: FieldId,
    min_coauthors: usize,
}

impl InitialsLastCoauthorSufficient {
    /// See type docs.
    pub fn new(name: &str, author: FieldId, coauthors: FieldId, min_coauthors: usize) -> Self {
        InitialsLastCoauthorSufficient {
            name: name.to_string(),
            author,
            coauthors,
            min_coauthors,
        }
    }
}

impl SufficientPredicate for InitialsLastCoauthorSufficient {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let f = r.field(self.author);
        match last_word(&f.text) {
            Some(lw) => vec![combine(sorted_initials_hash(&f.text), hash_str(lw))],
            None => Vec::new(),
        }
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let (fa, fb) = (a.field(self.author), b.field(self.author));
        let last_eq = match (last_word(&fa.text), last_word(&fb.text)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        last_eq
            && initials_match(&fa.text, &fb.text)
            && a.field(self.coauthors)
                .words()
                .intersection_size(b.field(self.coauthors).words())
                >= self.min_coauthors
    }
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        name_partition_key(&r.field(self.author).text)
    }
}

/// S: listed fields match exactly and the q-gram overlap (fraction of the
/// smaller gram set) of `fuzzy` is at least `min_overlap` (students S2
/// shape).
pub struct ExactPlusQgramSufficient {
    name: String,
    exact: Vec<FieldId>,
    fuzzy: FieldId,
    min_overlap: f64,
}

impl ExactPlusQgramSufficient {
    /// See type docs.
    pub fn new(name: &str, exact: Vec<FieldId>, fuzzy: FieldId, min_overlap: f64) -> Self {
        ExactPlusQgramSufficient {
            name: name.to_string(),
            exact,
            fuzzy,
            min_overlap,
        }
    }
}

impl SufficientPredicate for ExactPlusQgramSufficient {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let eh = concat_hash(r, &self.exact);
        r.field(self.fuzzy)
            .qgrams3()
            .as_slice()
            .iter()
            .map(|&g| combine(eh, g))
            .collect()
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        self.exact
            .iter()
            .all(|&f| a.field(f).text == b.field(f).text)
            && overlap_fraction_of_smaller(
                a.field(self.fuzzy).qgrams3(),
                b.field(self.fuzzy).qgrams3(),
            ) >= self.min_overlap
    }
}

/// S: initials of the name match, the fraction of common non-stop name
/// words exceeds `min_name_frac`, and the fraction of matching non-stop
/// address words is at least `min_addr_frac` (address S1 shape).
pub struct NameAddressSufficient {
    name: String,
    name_field: FieldId,
    addr_field: FieldId,
    stops: StopWords,
    min_name_frac: f64,
    min_addr_frac: f64,
}

impl NameAddressSufficient {
    /// See type docs.
    pub fn new(
        name: &str,
        name_field: FieldId,
        addr_field: FieldId,
        stops: StopWords,
        min_name_frac: f64,
        min_addr_frac: f64,
    ) -> Self {
        NameAddressSufficient {
            name: name.to_string(),
            name_field,
            addr_field,
            stops,
            min_name_frac,
            min_addr_frac,
        }
    }
}

impl SufficientPredicate for NameAddressSufficient {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let f = r.field(self.name_field);
        let ih = sorted_initials_hash(&f.text);
        self.stops
            .filter(f.words())
            .as_slice()
            .iter()
            .map(|&w| combine(ih, w))
            .collect()
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let (na, nb) = (a.field(self.name_field), b.field(self.name_field));
        if !initials_match(&na.text, &nb.text) {
            return false;
        }
        let (wa, wb) = (self.stops.filter(na.words()), self.stops.filter(nb.words()));
        if overlap_fraction_of_smaller(&wa, &wb) <= self.min_name_frac {
            return false;
        }
        let (aa, ab) = (
            self.stops.filter(a.field(self.addr_field).words()),
            self.stops.filter(b.field(self.addr_field).words()),
        );
        overlap_fraction_of_smaller(&aa, &ab) >= self.min_addr_frac
    }
}

// ---------------------------------------------------------------------------
// Necessary predicates
// ---------------------------------------------------------------------------

/// N: common 3-grams of `field` exceed `min_fraction` of the smaller gram
/// set, optionally also requiring a common initial (citation N1/N2 shape).
pub struct QgramFractionNecessary {
    name: String,
    field: FieldId,
    min_fraction: f64,
    require_common_initial: bool,
}

impl QgramFractionNecessary {
    /// See type docs.
    pub fn new(
        name: &str,
        field: FieldId,
        min_fraction: f64,
        require_common_initial: bool,
    ) -> Self {
        QgramFractionNecessary {
            name: name.to_string(),
            field,
            min_fraction,
            require_common_initial,
        }
    }
}

impl NecessaryPredicate for QgramFractionNecessary {
    fn name(&self) -> &str {
        &self.name
    }
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        r.field(self.field).qgrams3().clone()
    }
    // The candidate tokens are the gram sets `matches` measures, so this
    // is its first test on the same three integers. The common-initial
    // requirement is ignored, which only loosens.
    fn admits(&self, common: usize, a_len: usize, b_len: usize) -> bool {
        overlap_coefficient_of_counts(common, a_len, b_len) > self.min_fraction
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let (fa, fb) = (a.field(self.field), b.field(self.field));
        if overlap_fraction_of_smaller(fa.qgrams3(), fb.qgrams3()) <= self.min_fraction {
            return false;
        }
        !self.require_common_initial || fa.initials().intersection_size(fb.initials()) >= 1
    }
}

/// N: at least `min_common` common (non-stop) words across the listed
/// fields (address N1 shape).
pub struct WordOverlapNecessary {
    name: String,
    fields: Vec<FieldId>,
    min_common: usize,
    stops: Option<StopWords>,
}

impl WordOverlapNecessary {
    /// See type docs.
    pub fn new(
        name: &str,
        fields: Vec<FieldId>,
        min_common: usize,
        stops: Option<StopWords>,
    ) -> Self {
        WordOverlapNecessary {
            name: name.to_string(),
            fields,
            min_common,
            stops,
        }
    }

    fn tokens(&self, r: &TokenizedRecord) -> TokenSet {
        let mut all = Vec::new();
        for &f in &self.fields {
            all.extend_from_slice(r.field(f).words().as_slice());
        }
        let ts = TokenSet::from_tokens(all);
        match &self.stops {
            Some(sw) => sw.filter(&ts),
            None => ts,
        }
    }
}

impl NecessaryPredicate for WordOverlapNecessary {
    fn name(&self) -> &str {
        &self.name
    }
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        self.tokens(r)
    }
    fn min_common_tokens(&self) -> usize {
        self.min_common
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        self.tokens(a).intersection_size(&self.tokens(b)) >= self.min_common
    }
}

/// N: listed fields match exactly and the names share at least one
/// initial (students N1 shape).
pub struct ExactPlusInitialNecessary {
    name: String,
    exact: Vec<FieldId>,
    name_field: FieldId,
}

impl ExactPlusInitialNecessary {
    /// See type docs.
    pub fn new(name: &str, exact: Vec<FieldId>, name_field: FieldId) -> Self {
        ExactPlusInitialNecessary {
            name: name.to_string(),
            exact,
            name_field,
        }
    }
}

impl NecessaryPredicate for ExactPlusInitialNecessary {
    fn name(&self) -> &str {
        &self.name
    }
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        let eh = concat_hash(r, &self.exact);
        TokenSet::from_tokens(
            r.field(self.name_field)
                .initials()
                .as_slice()
                .iter()
                .map(|&i| combine(eh, i))
                .collect(),
        )
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        self.exact
            .iter()
            .all(|&f| a.field(f).text == b.field(f).text)
            && a.field(self.name_field)
                .initials()
                .intersection_size(b.field(self.name_field).initials())
                >= 1
    }
}

/// N: listed fields match exactly and the name 3-gram overlap (fraction
/// of the smaller set) is at least `min_fraction` (students N2 shape).
pub struct ExactPlusQgramNecessary {
    name: String,
    exact: Vec<FieldId>,
    name_field: FieldId,
    min_fraction: f64,
}

impl ExactPlusQgramNecessary {
    /// See type docs.
    pub fn new(name: &str, exact: Vec<FieldId>, name_field: FieldId, min_fraction: f64) -> Self {
        ExactPlusQgramNecessary {
            name: name.to_string(),
            exact,
            name_field,
            min_fraction,
        }
    }
}

impl NecessaryPredicate for ExactPlusQgramNecessary {
    fn name(&self) -> &str {
        &self.name
    }
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        let eh = concat_hash(r, &self.exact);
        TokenSet::from_tokens(
            r.field(self.name_field)
                .qgrams3()
                .as_slice()
                .iter()
                .map(|&g| combine(eh, g))
                .collect(),
        )
    }
    // A matching pair agrees on the exact fields, hence on `eh`, and
    // `combine(eh, ·)` is injective for a fixed `eh` (an odd multiply, an
    // add and a xor): each side's tokens are its grams one to one, and
    // the shared tokens are the shared grams. Tokens colliding across
    // different `eh` only add to `common`, which only loosens.
    fn admits(&self, common: usize, a_len: usize, b_len: usize) -> bool {
        overlap_coefficient_of_counts(common, a_len, b_len) >= self.min_fraction
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        self.exact
            .iter()
            .all(|&f| a.field(f).text == b.field(f).text)
            && overlap_fraction_of_smaller(
                a.field(self.name_field).qgrams3(),
                b.field(self.name_field).qgrams3(),
            ) >= self.min_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec1(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    fn rec2(a: &str, b: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[a.to_string(), b.to_string()], 1.0)
    }

    #[test]
    fn exact_fields_match() {
        let s = ExactFieldsMatch::new("s", vec![FieldId(0)]);
        assert!(s.matches(&rec1("a b"), &rec1("a b")));
        assert!(!s.matches(&rec1("a b"), &rec1("a c")));
        assert!(s.exact_on_key());
        assert_eq!(s.blocking_keys(&rec1("a b")), s.blocking_keys(&rec1("a b")));
        assert_ne!(s.blocking_keys(&rec1("a b")), s.blocking_keys(&rec1("a c")));
    }

    #[test]
    fn rare_name_sufficient() {
        // Corpus: "zyxwv qqrst" appears once; "common" appears many times.
        let docs: Vec<TokenSet> = vec![
            topk_text::tokenize::word_set("zyxwv qqrst"),
            topk_text::tokenize::word_set("common name"),
            topk_text::tokenize::word_set("common other"),
            topk_text::tokenize::word_set("common third"),
        ];
        let stats = Arc::new(CorpusStats::from_documents(docs.iter()));
        let s = RareNameSufficient::new("s1", FieldId(0), stats, 1);
        let a = rec1("zyxwv qqrst");
        let b = rec1("z qqrst"); // initialed variant shares word + initials z,q
        assert!(s.matches(&a, &a));
        assert!(
            s.matches(&a, &b),
            "initialed rare-name mention should match"
        );
        let c = rec1("common name");
        assert!(!s.matches(&c, &c), "common words are not rare");
        // blocking keys overlap for matching pairs
        let ka = s.blocking_keys(&a);
        let kb = s.blocking_keys(&b);
        assert!(ka.iter().any(|k| kb.contains(k)));
        assert!(s.blocking_keys(&c).is_empty());
    }

    #[test]
    fn initials_last_coauthor() {
        let s = InitialsLastCoauthorSufficient::new("s2", FieldId(0), FieldId(1), 2);
        let a = rec2("s sarawagi", "vinay deshpande sourabh kasliwal");
        let b = rec2("sunita sarawagi", "vinay deshpande anil kumar");
        assert!(s.matches(&a, &b));
        let c = rec2("sunita sarawagi", "nobody here");
        assert!(!s.matches(&a, &c), "needs 2 common coauthor words");
        let d = rec2("v sarawagi", "vinay deshpande sourabh kasliwal");
        assert!(!s.matches(&a, &d), "initials differ");
        assert_eq!(s.blocking_keys(&a), s.blocking_keys(&b));
    }

    #[test]
    fn exact_plus_qgram_sufficient() {
        let s = ExactPlusQgramSufficient::new("s2", vec![FieldId(1)], FieldId(0), 0.9);
        let a = rec2("ramakrishnan", "sch1");
        let b = rec2("ramakrishnan", "sch1");
        assert!(s.matches(&a, &b));
        let c = rec2("ramakrishnan", "sch2");
        assert!(!s.matches(&a, &c));
        let d = rec2("completely different", "sch1");
        assert!(!s.matches(&a, &d));
        // keys overlap when grams overlap under same exact fields
        let kb = s.blocking_keys(&b);
        assert!(s.blocking_keys(&a).iter().any(|k| kb.contains(k)));
    }

    #[test]
    fn qgram_fraction_necessary() {
        let n = QgramFractionNecessary::new("n1", FieldId(0), 0.6, false);
        assert!(n.matches(&rec1("sarawagi"), &rec1("sarawagi")));
        assert!(!n.matches(&rec1("sarawagi"), &rec1("deshpande")));
        let n2 = QgramFractionNecessary::new("n2", FieldId(0), 0.0, true);
        assert!(n2.matches(&rec1("sarawagi"), &rec1("sarawag")));
        // same grams shared but no common initial -> rejected by N2
        assert!(!n2.matches(&rec1("sarawagi"), &rec1("xarawagi")));
    }

    #[test]
    fn word_overlap_necessary_with_stops() {
        let stops = StopWords::new(["road"]);
        let n = WordOverlapNecessary::new("n", vec![FieldId(0), FieldId(1)], 2, Some(stops));
        let a = rec2("john smith", "12 mg road pune");
        let b = rec2("j smith", "12 mg road mumbai");
        // common non-stop: smith, 12, mg -> 3 >= 2
        assert!(n.matches(&a, &b));
        let c = rec2("alice wong", "99 other road delhi");
        assert!(!n.matches(&a, &c));
        assert_eq!(n.min_common_tokens(), 2);
    }

    #[test]
    fn exact_plus_initial_necessary() {
        let n = ExactPlusInitialNecessary::new("n1", vec![FieldId(1)], FieldId(0));
        let a = rec2("sunita sarawagi", "sch1");
        let b = rec2("s kumar", "sch1");
        assert!(n.matches(&a, &b));
        assert!(!n.matches(&a, &rec2("s kumar", "sch2")));
        assert!(!n.matches(&a, &rec2("vinay kumar", "sch1")));
        // candidate tokens of matching pair intersect
        let ta = n.candidate_tokens(&a);
        let tb = n.candidate_tokens(&b);
        assert!(ta.intersection_size(&tb) >= 1);
    }

    #[test]
    fn exact_plus_qgram_necessary() {
        let n = ExactPlusQgramNecessary::new("n2", vec![FieldId(1)], FieldId(0), 0.5);
        let a = rec2("ramakrishnan", "sch1");
        let b = rec2("ramakrishna", "sch1");
        assert!(n.matches(&a, &b));
        assert!(!n.matches(&a, &rec2("ramakrishna", "sch9")));
        assert!(!n.matches(&a, &rec2("zzz", "sch1")));
    }

    #[test]
    fn partition_keys_agree_for_matching_pairs() {
        // RareNameSufficient: matching pair agrees; key covers every
        // blocking key the predicate can emit for the record.
        let docs: Vec<TokenSet> = vec![
            topk_text::tokenize::word_set("zyxwv qqrst"),
            topk_text::tokenize::word_set("common name"),
        ];
        let stats = Arc::new(CorpusStats::from_documents(docs.iter()));
        let s = RareNameSufficient::new("s1", FieldId(0), stats, 1);
        let a = rec1("zyxwv qqrst");
        let b = rec1("z qqrst");
        assert!(s.matches(&a, &b));
        assert_eq!(s.partition_key(&a), s.partition_key(&b));
        for k in s.blocking_keys(&a) {
            assert_eq!(s.partition_key(&a), Some(k));
        }
        // Records with no last word emit no blocking keys and no key.
        let empty = rec1("");
        assert!(s.blocking_keys(&empty).is_empty());
        assert_eq!(s.partition_key(&empty), None);

        // InitialsLastCoauthorSufficient shares the same key scheme.
        let s2 = InitialsLastCoauthorSufficient::new("s2", FieldId(0), FieldId(1), 2);
        let a = rec2("s sarawagi", "vinay deshpande sourabh kasliwal");
        let b = rec2("sunita sarawagi", "vinay deshpande anil kumar");
        assert!(s2.matches(&a, &b));
        assert_eq!(s2.partition_key(&a), s2.partition_key(&b));

        // Exact-match predicates: key is the blocking key itself.
        let e = ExactFieldsMatch::new("e", vec![FieldId(0)]);
        assert_eq!(
            e.partition_key(&rec1("a b")),
            e.blocking_keys(&rec1("a b")).first().copied()
        );
        let m = MultiWordExactMatch::new("m", FieldId(0));
        assert_eq!(
            m.partition_key(&rec1("acme widget")),
            m.blocking_keys(&rec1("acme widget")).first().copied()
        );
        assert_eq!(m.partition_key(&rec1("awc")), None);
        let q = SquashedExactMatch::new("q", FieldId(0));
        assert_eq!(
            q.partition_key(&rec1("xk 240")),
            q.partition_key(&rec1("xk-240"))
        );

        // Multi-key predicates stay unshardable (default None).
        let pq = ExactPlusQgramSufficient::new("pq", vec![FieldId(1)], FieldId(0), 0.9);
        assert_eq!(pq.partition_key(&rec2("ramakrishnan", "sch1")), None);
    }

    #[test]
    fn name_partition_key_matches_rare_name_blocking_key() {
        let k = name_partition_key("sunita sarawagi").expect("has last word");
        assert_eq!(
            k,
            combine(
                sorted_initials_hash("sunita sarawagi"),
                hash_str("sarawagi")
            )
        );
        assert_eq!(name_partition_key(""), None);
    }

    #[test]
    fn sorted_initials_hash_order_insensitive() {
        assert_eq!(
            sorted_initials_hash("alpha beta"),
            sorted_initials_hash("beta alpha")
        );
        assert_ne!(
            sorted_initials_hash("alpha beta"),
            sorted_initials_hash("alpha gamma")
        );
    }
}

/// S: the field texts match exactly *and* contain at least two words.
/// Single-token surface forms (acronyms, initial-only names) are excluded
/// because distinct entities frequently share them.
pub struct MultiWordExactMatch {
    name: String,
    field: FieldId,
}

impl MultiWordExactMatch {
    /// See type docs.
    pub fn new(name: &str, field: FieldId) -> Self {
        MultiWordExactMatch {
            name: name.to_string(),
            field,
        }
    }
}

impl SufficientPredicate for MultiWordExactMatch {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let f = r.field(self.field);
        if f.words().len() >= 2 {
            vec![hash_str(&f.text)]
        } else {
            Vec::new()
        }
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let (fa, fb) = (a.field(self.field), b.field(self.field));
        fa.words().len() >= 2 && fa.text == fb.text
    }
    fn exact_on_key(&self) -> bool {
        true
    }
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        let f = r.field(self.field);
        if f.words().len() >= 2 {
            Some(hash_str(&f.text))
        } else {
            None
        }
    }
}

/// N: the fields share at least one word initial. Holds between a full
/// name and its acronym (the acronym's single token starts with the first
/// word's initial... more precisely both contain that initial letter as a
/// word-initial), and between any two renderings sharing a word.
pub struct InitialOverlapNecessary {
    name: String,
    field: FieldId,
}

impl InitialOverlapNecessary {
    /// See type docs.
    pub fn new(name: &str, field: FieldId) -> Self {
        InitialOverlapNecessary {
            name: name.to_string(),
            field,
        }
    }
}

impl NecessaryPredicate for InitialOverlapNecessary {
    fn name(&self) -> &str {
        &self.name
    }
    fn candidate_tokens(&self, r: &TokenizedRecord) -> TokenSet {
        r.field(self.field).initials().clone()
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        a.field(self.field)
            .initials()
            .intersection_size(b.field(self.field).initials())
            >= 1
    }
}

#[cfg(test)]
mod web_predicate_tests {
    use super::*;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    #[test]
    fn multi_word_exact_excludes_acronyms() {
        let s = MultiWordExactMatch::new("s", FieldId(0));
        assert!(s.matches(&rec("acme widget corp"), &rec("acme widget corp")));
        assert!(!s.matches(&rec("awc"), &rec("awc")), "acronyms excluded");
        assert!(!s.matches(&rec("acme widget corp"), &rec("acme widget ltd")));
        assert!(s.blocking_keys(&rec("awc")).is_empty());
        assert_eq!(s.blocking_keys(&rec("a b")).len(), 1);
    }

    #[test]
    fn initial_overlap_links_acronym_to_full_name() {
        let n = InitialOverlapNecessary::new("n", FieldId(0));
        assert!(n.matches(&rec("acme widget corp"), &rec("awc")));
        assert!(!n.matches(&rec("acme widget corp"), &rec("zz")));
        let a = n.candidate_tokens(&rec("acme widget corp"));
        let b = n.candidate_tokens(&rec("awc"));
        assert!(a.intersection_size(&b) >= 1);
    }
}

/// S: the field texts are equal after removing all non-alphanumeric
/// characters and spaces ("xk-240" == "xk 240" == "xk240") — the classic
/// product-title signature from comparison-shopping record linkage.
/// Distinct products essentially never squash-equal, while merchant
/// re-segmentations of the same model always do.
pub struct SquashedExactMatch {
    name: String,
    field: FieldId,
}

impl SquashedExactMatch {
    /// See type docs.
    pub fn new(name: &str, field: FieldId) -> Self {
        SquashedExactMatch {
            name: name.to_string(),
            field,
        }
    }

    fn squash(text: &str) -> String {
        text.chars().filter(|c| c.is_alphanumeric()).collect()
    }
}

impl SufficientPredicate for SquashedExactMatch {
    fn name(&self) -> &str {
        &self.name
    }
    fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
        let sq = Self::squash(&r.field(self.field).text);
        if sq.is_empty() {
            Vec::new()
        } else {
            vec![hash_str(&sq)]
        }
    }
    fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
        let sa = Self::squash(&a.field(self.field).text);
        !sa.is_empty() && sa == Self::squash(&b.field(self.field).text)
    }
    fn exact_on_key(&self) -> bool {
        true
    }
    fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
        let sq = Self::squash(&r.field(self.field).text);
        if sq.is_empty() {
            None
        } else {
            Some(hash_str(&sq))
        }
    }
}

#[cfg(test)]
mod squash_tests {
    use super::*;

    fn rec(title: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[title.to_string()], 1.0)
    }

    #[test]
    fn resegmented_models_match() {
        let s = SquashedExactMatch::new("s", FieldId(0));
        assert!(s.matches(&rec("acme xk240 red"), &rec("acme xk 240 red")));
        assert!(!s.matches(&rec("acme xk240 red"), &rec("acme xk241 red")));
        assert!(!s.matches(&rec(""), &rec("")));
        assert_eq!(
            s.blocking_keys(&rec("acme xk240 red")),
            s.blocking_keys(&rec("acme xk 240 red"))
        );
    }
}
