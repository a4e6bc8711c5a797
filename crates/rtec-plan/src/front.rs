//! One front-end pass per description: parse, validate, compile and
//! lower exactly once, and let every consumer read the result.
//!
//! A description opened by the service is linted, compiled and run.
//! [`FrontEnd`] holds what those consumers share: the parse (with its
//! syntax errors, when lenient), the one per-clause validation and the
//! one [`CompiledDescription`], which owns the plan lowered from it.
//! `rtec-lint` builds its report from the parse and the validated
//! rules, `rtec-analysis` reads the compiled description and its plan,
//! and a service session runs that same plan.

use rtec::description::{CompiledDescription, EventDescription};
use rtec::error::{RtecError, RtecResult};
use rtec::validate::{validate, SysSymbols, ValidatedRules};
use std::sync::Arc;

/// The front-end value of one description (see the module docs).
pub struct FrontEnd {
    /// The source text the description was parsed from (empty for a
    /// description built from clauses).
    pub source: String,
    /// The parsed description. A lenient parse records its syntax
    /// errors in `parse_errors` and keeps the clauses that parsed.
    pub parsed: EventDescription,
    /// The per-clause validation of `parsed.clauses`, as
    /// `rtec::validate` returned it: compilation later sets aside
    /// cross-rule conflicts, this keeps every validated rule.
    pub validated: ValidatedRules,
    /// The compiled description, with its plan, or the fatal compile
    /// error (a dependency cycle).
    pub compiled: RtecResult<Arc<CompiledDescription>>,
}

impl FrontEnd {
    /// Parses `source` leniently, then validates and compiles the
    /// clauses that parsed. This is the entry point for
    /// LLM-generated text.
    pub fn lenient(source: &str) -> FrontEnd {
        FrontEnd::from_parsed(source.to_string(), EventDescription::parse_lenient(source))
    }

    /// Validates and compiles an already parsed description.
    pub fn from_parsed(source: String, parsed: EventDescription) -> FrontEnd {
        // The same steps as `EventDescription::compile`, keeping the
        // validated rules for the lint model.
        let mut symbols = parsed.symbols.clone();
        let validated = validate(&parsed.clauses, &mut symbols);
        let sys = SysSymbols::intern(&mut symbols);
        let compiled =
            CompiledDescription::from_validated(symbols, sys, validated.clone()).map(Arc::new);
        FrontEnd {
            source,
            parsed,
            validated,
            compiled,
        }
    }
}

/// Parses strictly (the first syntax error is the error), then
/// validates and compiles. On a source that parses cleanly this
/// is the lenient front end: both parses give the same clauses and
/// symbol table.
impl TryFrom<&str> for FrontEnd {
    type Error = RtecError;

    fn try_from(source: &str) -> RtecResult<FrontEnd> {
        Ok(FrontEnd::from_parsed(
            source.to_string(),
            EventDescription::parse(source)?,
        ))
    }
}

impl TryFrom<&String> for FrontEnd {
    type Error = RtecError;

    fn try_from(source: &String) -> RtecResult<FrontEnd> {
        FrontEnd::try_from(source.as_str())
    }
}
