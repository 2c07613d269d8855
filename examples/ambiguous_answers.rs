//! Exposing resolution ambiguity with the R highest-scoring answers —
//! the paper's second contribution (§5).
//!
//! ```sh
//! cargo run -p topk-core --example ambiguous_answers
//! ```
//!
//! Builds a tiny dataset where two mention clusters may or may not be the
//! same student ("ramakrishnan iyer" vs the run-together "ramakrishnaniyer"
//! with a conflicting birth date — exactly the §6.1.2 error modes).
//! A single hard grouping must silently pick one reading; the R-answer
//! API returns both, with scores quantifying the ambiguity.

use topk_core::TopKQuery;
use topk_predicates::student_predicates;
use topk_records::{tokenize_dataset, Dataset, FieldId, Record, Schema};
use topk_text::normalize::normalize;

fn rec(name: &str, birth: &str, class: &str, school: &str, paper: &str, marks: f64) -> Record {
    Record::with_weight(
        vec![
            normalize(name),
            birth.into(),
            class.into(),
            school.into(),
            paper.into(),
        ],
        marks,
    )
}

fn main() {
    let schema = Schema::new(vec!["name", "birthdate", "class", "school", "paper"]);
    let records = vec![
        // Cluster A: clean mentions of one pupil.
        rec("ramakrishnan iyer", "19970410", "c4", "sch1", "p1", 91.0),
        rec("ramakrishnan iyer", "19970410", "c4", "sch1", "p2", 88.0),
        // Cluster B: missing-space + wrong-date variants. Same pupil?
        rec("ramakrishnaniyer", "20080101", "c4", "sch1", "p3", 90.0),
        rec("ramakrishnaniyer", "20080101", "c4", "sch1", "p4", 85.0),
        // A clearly distinct pupil.
        rec("meera joshi", "19960105", "c4", "sch1", "p1", 72.0),
        rec("meera joshi", "19960105", "c4", "sch1", "p2", 75.0),
        // And another.
        rec("arjun nair", "19970712", "c4", "sch2", "p1", 64.0),
    ];
    let data = Dataset::new(schema, records);
    let toks = tokenize_dataset(&data);
    let stack = student_predicates(data.schema());

    // A scorer that is genuinely torn on the run-together name: high gram
    // overlap says duplicate, the conflicting birth date says no.
    let scorer = |a: &topk_records::TokenizedRecord, b: &topk_records::TokenizedRecord| {
        let gram = topk_text::sim::overlap_coefficient(
            a.field(FieldId(0)).qgrams3(),
            b.field(FieldId(0)).qgrams3(),
        );
        let date_agree = a.field(FieldId(1)).text == b.field(FieldId(1)).text;
        let school_agree = a.field(FieldId(3)).text == b.field(FieldId(3)).text;
        if !school_agree {
            return -2.0;
        }
        (gram - 0.55) + if date_agree { 0.5 } else { -0.45 }
    };

    let query = TopKQuery::new(2, 3);
    let result = query.run(&toks, &stack, &scorer);

    println!("query: top-2 pupils by total marks, 3 answers requested\n");
    for (i, ans) in result.answers.iter().enumerate() {
        println!("answer {} (score {:+.2}):", i + 1, ans.score);
        for g in &ans.groups {
            let names: Vec<&str> = g
                .records
                .iter()
                .map(|&r| data.record(topk_records::RecordId(r)).field(FieldId(0)))
                .collect();
            println!("  {:>6.1} marks  <- {}", g.weight, names.join(" | "));
        }
        println!();
    }
    println!(
        "the gap between answer scores measures how confidently the two\n\
         readings of 'ramakrishnan iyer' vs 'ramakrishnaniyer' can be\n\
         resolved; a single hard clustering would hide this entirely."
    );
}
