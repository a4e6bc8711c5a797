//! Pins the exact reply bytes of `open` on its four outcomes: a clean
//! description, a syntax error (`bad_request`, built from the first
//! syntax error), a lexical error (same, through the parser's
//! line-by-line fallback) and a dependency cycle (`invalid_description`
//! with the analyzer's diagnostics attached). A syntax error in a
//! description that also fails semantic analysis draws
//! `invalid_description`: the semantic gate runs first.

use rtec_service::Registry;
use serde_json::Value;

fn open(registry: &Registry, session: &str, description: &str) -> String {
    registry.dispatch(&format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{}}}",
        serde_json::to_string(&Value::from(description)).expect("string serialises")
    ))
}

const CLEAN: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const SYNTAX: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
terminatedAt(on(X)=true, T) :- happensAt(down(X) T).";

const LEXICAL: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
terminatedAt(on(X)=true, T) : happensAt(down(X), T).";

const CYCLE: &str = "holdsFor(a(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).
holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).";

const SYNTAX_AND_CYCLE: &str =
    "holdsFor(a(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).
holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).
initiatedAt(c(V)=true, T) :- happensAt(e(V) T).";

#[test]
fn open_replies_are_byte_stable() {
    let registry = Registry::new();
    let cases: [(&str, &str, &str); 5] = [
        (
            "clean",
            CLEAN,
            r#"{"ok":true,"session":"clean","shards":2}"#,
        ),
        (
            "syntax",
            SYNTAX,
            r#"{"code":"bad_request","error":"description: parse error at 2:50: expected ',' or ')' in argument list, found variable 'T'","ok":false}"#,
        ),
        (
            "lexical",
            LEXICAL,
            r#"{"code":"bad_request","error":"description: lexical error at 2:30: expected '-' after ':'","ok":false}"#,
        ),
        (
            "cycle",
            CYCLE,
            r#"{"code":"invalid_description","diagnostics":[{"clause":0,"code":"RL0301","col":1,"line":1,"message":"cyclic fluent dependency: a/1 -> b/1 -> a/1; no stratified evaluation order exists","severity":"error","suggestion":"break the cycle by removing or restructuring one of the references"}],"error":"description failed semantic analysis (1 error(s): RL0301)","ok":false}"#,
        ),
        (
            "both",
            SYNTAX_AND_CYCLE,
            r#"{"code":"invalid_description","diagnostics":[{"clause":null,"code":"RL0001","col":45,"line":3,"message":"parse error at 3:45: expected ',' or ')' in argument list, found variable 'T'","severity":"error","suggestion":null},{"clause":0,"code":"RL0301","col":1,"line":1,"message":"cyclic fluent dependency: a/1 -> b/1 -> a/1; no stratified evaluation order exists","severity":"error","suggestion":"break the cycle by removing or restructuring one of the references"}],"error":"description failed semantic analysis (1 error(s): RL0301)","ok":false}"#,
        ),
    ];
    for (name, description, want) in cases {
        assert_eq!(open(&registry, name, description), want, "{name}");
    }
    assert_eq!(registry.session_count(), 1, "only the clean open succeeds");
    registry.dispatch("{\"cmd\":\"shutdown\"}");
}
