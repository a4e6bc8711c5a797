//! NDJSON wire protocol: one JSON object per line, both directions.
//!
//! Requests carry a `cmd` field naming the command (`open`, `event`,
//! `batch`, `tick`, `query`, `stats`, `deadletter`, `close`,
//! `shutdown`); every response is either an ok-frame
//! `{"ok": true, ...}` or an error frame
//! `{"ok": false, "code": "...", "error": "..."}`, where `code` is one
//! of the machine-readable [`codes`] (`bad_frame`, `bad_request`,
//! `unknown_command`, `no_such_session`, `session_exists`,
//! `session_busy`, `quarantined`, `worker_failed`, `internal_panic`,
//! `overloaded`). The full specification lives in `docs/SERVICE.md`.

use rtec::Timepoint;
use serde_json::Value;
use std::collections::BTreeMap;

/// Parses one request line into a JSON object.
pub fn parse_request(line: &str) -> Result<Value, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("malformed request: {e}"))?;
    if value.as_object().is_none() {
        return Err("malformed request: expected a JSON object".into());
    }
    Ok(value)
}

/// The request's `cmd` field.
pub fn command(req: &Value) -> Result<&str, String> {
    str_field(req, "cmd")
}

/// A required string field.
pub fn str_field<'v>(req: &'v Value, name: &str) -> Result<&'v str, String> {
    req.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field \"{name}\""))
}

/// A required integer field.
pub fn int_field(req: &Value, name: &str) -> Result<Timepoint, String> {
    req.get(name)
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("missing or non-integer field \"{name}\""))
}

/// An optional integer field.
pub fn opt_int_field(req: &Value, name: &str) -> Result<Option<Timepoint>, String> {
    match req.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| format!("non-integer field \"{name}\"")),
    }
}

/// An optional boolean field (absent/null defaults to `false`).
pub fn opt_bool_field(req: &Value, name: &str) -> Result<bool, String> {
    match req.get(name) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("non-boolean field \"{name}\"")),
    }
}

/// Builder for ok-frames.
pub struct OkFrame {
    fields: BTreeMap<String, Value>,
}

impl OkFrame {
    /// A bare `{"ok": true}` frame.
    pub fn new() -> OkFrame {
        let mut fields = BTreeMap::new();
        fields.insert("ok".to_string(), Value::Bool(true));
        OkFrame { fields }
    }

    /// Adds a field.
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> OkFrame {
        self.fields.insert(name.to_string(), value.into());
        self
    }

    /// Serialises to one NDJSON line (no trailing newline).
    pub fn render(self) -> String {
        serde_json::to_string(&Value::Object(self.fields)).unwrap_or_else(|_| "{}".into())
    }
}

impl Default for OkFrame {
    fn default() -> OkFrame {
        OkFrame::new()
    }
}

/// Machine-readable error codes carried in every error frame.
pub mod codes {
    /// The line was not a JSON object (malformed JSON, oversized frame,
    /// invalid UTF-8).
    pub const BAD_FRAME: &str = "bad_frame";
    /// The frame parsed but a field was missing, mistyped, out of
    /// range, or a term/description failed to parse.
    pub const BAD_REQUEST: &str = "bad_request";
    /// Unknown `cmd`.
    pub const UNKNOWN_COMMAND: &str = "unknown_command";
    /// The named session does not exist.
    pub const NO_SUCH_SESSION: &str = "no_such_session";
    /// `open` named an existing session.
    pub const SESSION_EXISTS: &str = "session_exists";
    /// The session is held by another connection (close/shutdown race).
    pub const SESSION_BUSY: &str = "session_busy";
    /// The session exhausted its worker-restart budget and accepts
    /// nothing but `close`.
    pub const QUARANTINED: &str = "quarantined";
    /// A shard worker died and could not be restored.
    pub const WORKER_FAILED: &str = "worker_failed";
    /// The request handler itself panicked (caught; the server lives).
    pub const INTERNAL_PANIC: &str = "internal_panic";
    /// `open` carried a description that parses but fails semantic
    /// analysis (rtec-lint); the error frame carries a `diagnostics`
    /// array (see docs/LINTS.md).
    pub const INVALID_DESCRIPTION: &str = "invalid_description";
    /// Admission control shed the request: a per-session event-rate or
    /// buffered-bytes budget is exhausted (see docs/INGEST.md). The
    /// shed record is accounted in the session's dead-letter ledger;
    /// a `tick` replenishes the budgets.
    pub const OVERLOADED: &str = "overloaded";
}

/// A dispatch error: a machine-readable code plus a human message.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Optional structured payload rendered as a `diagnostics` field of
    /// the error frame (used by [`codes::INVALID_DESCRIPTION`]).
    pub details: Option<Value>,
}

impl ServiceError {
    /// An error with an explicit code.
    pub fn new(code: &'static str, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
            details: None,
        }
    }

    /// Attaches a structured `diagnostics` payload to the error frame.
    pub fn with_details(mut self, details: Value) -> ServiceError {
        self.details = Some(details);
        self
    }

    /// Renders the error frame for this error.
    pub fn frame(&self) -> String {
        let mut fields = BTreeMap::new();
        fields.insert("ok".to_string(), Value::Bool(false));
        fields.insert("code".to_string(), Value::from(self.code));
        fields.insert("error".to_string(), Value::from(self.message.as_str()));
        if let Some(details) = &self.details {
            fields.insert("diagnostics".to_string(), details.clone());
        }
        serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|_| "{}".into())
    }
}

/// Classifies a bare session/engine error message into a code. Session
/// plumbing reports `String` errors; the stable phrases below are the
/// contract between the session layer and the wire protocol.
pub fn classify(message: &str) -> &'static str {
    if message.starts_with("malformed request") {
        codes::BAD_FRAME
    } else if message.starts_with("overloaded") {
        codes::OVERLOADED
    } else if message.contains("quarantined") {
        codes::QUARANTINED
    } else if message.contains("no such session") {
        codes::NO_SUCH_SESSION
    } else if message.contains("already exists") {
        codes::SESSION_EXISTS
    } else if message.contains("busy") {
        codes::SESSION_BUSY
    } else if message.contains("shard worker") {
        codes::WORKER_FAILED
    } else if message.starts_with("unknown command") {
        codes::UNKNOWN_COMMAND
    } else {
        codes::BAD_REQUEST
    }
}

impl From<String> for ServiceError {
    fn from(message: String) -> ServiceError {
        ServiceError {
            code: classify(&message),
            message,
            details: None,
        }
    }
}

impl From<&str> for ServiceError {
    fn from(message: &str) -> ServiceError {
        ServiceError::from(message.to_string())
    }
}

/// An error frame `{"ok": false, "code": code, "error": msg}`.
pub fn error_frame(code: &str, msg: &str) -> String {
    let mut fields = BTreeMap::new();
    fields.insert("ok".to_string(), Value::Bool(false));
    fields.insert("code".to_string(), Value::from(code));
    fields.insert("error".to_string(), Value::from(msg));
    serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|_| "{}".into())
}

/// Converts an unsigned counter for a JSON field (saturating).
pub fn counter(n: impl TryInto<i64>) -> Value {
    Value::from(n.try_into().unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let line = OkFrame::new().field("windows", 3i64).render();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["ok"], true);
        assert_eq!(v["windows"], 3i64);

        let err = error_frame(codes::NO_SUCH_SESSION, "no such session \"x\"");
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v["ok"], false);
        assert_eq!(v["code"], "no_such_session");
        assert_eq!(v["error"], "no such session \"x\"");
    }

    #[test]
    fn messages_classify_to_stable_codes() {
        for (msg, code) in [
            ("malformed request: bad JSON", codes::BAD_FRAME),
            ("no such session \"x\"", codes::NO_SUCH_SESSION),
            ("session \"x\" already exists", codes::SESSION_EXISTS),
            (
                "session quarantined: restarts exhausted",
                codes::QUARANTINED,
            ),
            ("shard worker exited", codes::WORKER_FAILED),
            (
                "session is busy on another connection; retry close",
                codes::SESSION_BUSY,
            ),
            ("unknown command \"frobnicate\"", codes::UNKNOWN_COMMAND),
            (
                "overloaded: per-tick event budget (100) exhausted; tick to admit more",
                codes::OVERLOADED,
            ),
            (
                "missing or non-string field \"session\"",
                codes::BAD_REQUEST,
            ),
        ] {
            assert_eq!(classify(msg), code, "{msg}");
            assert_eq!(ServiceError::from(msg.to_string()).code, code);
        }
    }

    #[test]
    fn request_fields() {
        let req = parse_request(r#"{"cmd":"tick","session":"s","to":500}"#).unwrap();
        assert_eq!(command(&req).unwrap(), "tick");
        assert_eq!(str_field(&req, "session").unwrap(), "s");
        assert_eq!(int_field(&req, "to").unwrap(), 500);
        assert_eq!(opt_int_field(&req, "window").unwrap(), None);
        assert!(parse_request("[1, 2]").is_err());
        assert!(parse_request("{nope").is_err());
    }
}
