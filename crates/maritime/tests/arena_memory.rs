//! The interned-term arenas stay bounded over a long stream: the frozen
//! arena a description interns at lowering never grows, and the window
//! overlay an engine interns events and derived instances into is empty
//! again after every window. Together they keep a long-running session's
//! memory flat (`peak_rss_mb` on the streaming workloads).

use maritime::synth::{generate, SynthConfig};
use rtec::{Engine, EngineConfig};

#[test]
fn arenas_stay_bounded_over_a_sliding_incremental_run() {
    let config = SynthConfig {
        seed: 11,
        vessels: 8,
        steps: 620,
        period: 60,
    };
    let data = generate(&config);
    let desc = data.gold_description().compile().expect("gold compiles");
    let frozen = desc.plan().arena().len();
    assert!(frozen > 0, "the frozen arena holds the description's atoms");

    let slide = 600;
    let mut engine = Engine::new(
        &desc,
        EngineConfig::sliding(3600, slide).with_incremental(true),
    );
    data.stream.load_into(&mut engine);
    let mut q = slide;
    while q < data.horizon() + slide {
        engine.run_to(q);
        assert_eq!(
            engine.overlay_terms(),
            0,
            "overlay left over after the query at {q}"
        );
        assert_eq!(
            desc.plan().arena().len(),
            frozen,
            "frozen arena grew by {q}"
        );
        q += slide;
    }
    assert!(
        engine.stats().windows >= 50,
        "only {} windows",
        engine.stats().windows
    );
    assert!(
        engine.stats().events_processed > 0 && !engine.output().is_empty(),
        "the run recognised nothing"
    );
}
