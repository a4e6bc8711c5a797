//! Byte-level oracle for `rtec-lint`: the diagnostics of every
//! description the paper's loop opens — gold with and without its input
//! declarations, the 12 mock descriptions (6 models × 2 prompting
//! schemes) and the 3 minimally corrected ones — must render exactly as
//! in the committed fixture `fixtures/lint_golden.tsv` (one
//! `label<TAB>json` line per description). Both entry points are held to
//! it: `analyze` over a leniently parsed description and `analyze_source`
//! over the text.

use adgen_core::figures::{fig2a, fig2b};
use llmgen::{generate, MockLlm, Model, PromptScheme};
use maritime::thresholds::Thresholds;
use rtec::EventDescription;
use rtec_lint::{analyze, analyze_source, AnalysisReport};

const GOLDEN: &str = include_str!("fixtures/lint_golden.tsv");

/// `(label, source)` of every description in the corpus, in fixture
/// order.
fn corpus() -> Vec<(String, String)> {
    let mut out = vec![
        (
            "gold+declarations".to_string(),
            format!(
                "{}\n{}",
                maritime::gold::GOLD_RULES,
                maritime::gold::input_declarations()
            ),
        ),
        ("gold".to_string(), maritime::gold::GOLD_RULES.to_string()),
    ];
    let thresholds = Thresholds::default();
    for model in Model::ALL {
        for scheme in [PromptScheme::FewShot, PromptScheme::ChainOfThought] {
            let g = generate(&mut MockLlm::new(model), scheme, &thresholds);
            out.push((g.label(), g.full_text()));
        }
    }
    for outcome in fig2b(&fig2a()).outcomes {
        out.push((
            format!("corrected {}", outcome.label),
            outcome.corrected.full_text(),
        ));
    }
    out
}

fn line(label: &str, report: &AnalysisReport) -> String {
    format!(
        "{label}\t{}",
        serde_json::to_string(&report.to_json()).expect("report serialises")
    )
}

#[test]
fn lint_reports_match_the_golden_fixture() {
    let corpus = corpus();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(corpus.len(), 17, "gold ×2, 12 mock, 3 corrected");
    assert_eq!(expected.len(), corpus.len(), "one fixture line per entry");
    for ((label, src), want) in corpus.iter().zip(&expected) {
        let parsed = analyze(&EventDescription::parse_lenient(src));
        assert_eq!(line(label, &parsed), *want, "analyze: {label}");
        let sourced = analyze_source(src);
        assert_eq!(line(label, &sourced), *want, "analyze_source: {label}");
    }
}
