//! The [`Response`] type: everything one experiment run produced.
//!
//! A response carries the exact bytes the one-shot CLI has always
//! produced — the human-readable stdout rendering in [`Response::text`]
//! and the pretty-printed JSON artefact(s) in [`Response::body`] /
//! [`Response::meta`] — so transports (CLI printing, daemon persistence)
//! only decide *where* those bytes go, never *what* they are. Cache
//! statistics ride along on every response so cross-request reuse of the
//! engine's profile and measurement caches — and of the persistent
//! measurement store behind them — is observable.
//!
//! The envelope is versioned: every response carries
//! [`FORMAT_VERSION`] as its `format_version` key, and the client-side
//! parser rejects a missing or mismatching version with an error that
//! names both versions instead of silently misreading fields.

use serde_json::Value;

use crate::request::Request;

/// The response envelope version this build speaks.
///
/// Version 1 is the original, retroactively numbered envelope without a
/// `format_version` key; version 2 added the key itself plus the store
/// fields of [`CacheStats`]. Bump it whenever the envelope changes
/// shape incompatibly.
pub const FORMAT_VERSION: u64 = 2;

/// A snapshot of the engine's caches, taken after the request ran.
///
/// The `measure_*` fields count lookups of the measurement memo, which
/// shares its content address with the persistent store:
/// `measure_misses` is counted where a schedule actually runs, and
/// `measure_hits` is every other lookup — answered by the memo or, on a
/// memo miss, by the store (which also shows up in `store_hits`). The
/// `store_*` fields aggregate every store the engine has opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Reference-profiled suites held by the engine (one per distinct
    /// suite scale × seed × bus count × family selection × store).
    pub profiled_suites: usize,
    /// Memoised candidate measurements across all profiled suites.
    pub measure_entries: usize,
    /// Lifetime measurement lookups across all profiled suites that did
    /// not re-schedule: memo hits plus memo misses the store answered.
    pub measure_hits: u64,
    /// Configurations actually re-scheduled by this process (memo
    /// misses the store could not answer).
    pub measure_misses: u64,
    /// Measurements and profiles served from the persistent store.
    pub store_hits: u64,
    /// Store lookups that fell through to an actual measurement.
    pub store_misses: u64,
    /// Records (measurements + profiles) held across all open stores.
    pub store_entries: u64,
    /// Total on-disk log bytes across all open stores.
    pub store_bytes: u64,
    /// Truncated trailing log lines skipped (and warned about) while
    /// loading the open stores.
    pub store_skipped_lines: u64,
}

/// The result of running one [`Request`] through the engine.
///
/// Serialises as one compact JSON object (JSON string escaping keeps the
/// embedded newlines of `text`/`body` out of the line framing).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Response {
    /// Envelope version; always [`FORMAT_VERSION`] for responses built
    /// by this process. The parser rejects other versions.
    pub format_version: u64,
    /// Whether the request succeeded. A failed request still yields a
    /// response (with [`Response::error`] set) — the engine never turns
    /// one bad request into a process exit.
    pub ok: bool,
    /// The request's kind name, echoed back.
    pub kind: String,
    /// Artefact stem the body/meta should be persisted under
    /// (`<stem>.json`, `<stem>.meta.json`), if the kind produces one.
    pub artifact: Option<String>,
    /// The human-readable rendering: byte-identical to what the one-shot
    /// CLI prints on stdout (minus the `[rows written to …]` lines the
    /// persistence step appends).
    pub text: String,
    /// Pretty-printed JSON rows: byte-identical to the `<stem>.json`
    /// artefact the one-shot CLI writes.
    pub body: Option<String>,
    /// Pretty-printed sidecar metadata: byte-identical to the
    /// `<stem>.meta.json` artefact, for kinds that write one.
    pub meta: Option<String>,
    /// The failure message, when `ok` is false.
    pub error: Option<String>,
    /// Engine cache statistics after this request.
    pub cache: CacheStats,
}

impl Response {
    /// A successful response for `req`.
    #[must_use]
    pub fn success(
        req: &Request,
        text: String,
        body: Option<String>,
        meta: Option<String>,
        cache: CacheStats,
    ) -> Self {
        Response {
            format_version: FORMAT_VERSION,
            ok: true,
            kind: req.kind().to_owned(),
            artifact: req.artifact().map(str::to_owned),
            text,
            body,
            meta,
            error: None,
            cache,
        }
    }

    /// A failed response for `req`. Any text rendered before the failure
    /// is kept, so transports can reproduce the CLI's partial output.
    #[must_use]
    pub fn failure(req: &Request, text: String, error: String, cache: CacheStats) -> Self {
        Response {
            format_version: FORMAT_VERSION,
            ok: false,
            kind: req.kind().to_owned(),
            artifact: req.artifact().map(str::to_owned),
            text,
            body: None,
            meta: None,
            error: Some(error),
            cache,
        }
    }

    /// A failed response for a request that never parsed (no kind known).
    #[must_use]
    pub fn protocol_error(error: String) -> Self {
        Response {
            format_version: FORMAT_VERSION,
            ok: false,
            kind: "error".to_owned(),
            artifact: None,
            text: String::new(),
            body: None,
            meta: None,
            error: Some(error),
            cache: CacheStats::default(),
        }
    }

    /// Serialises the response as one compact JSON line (no trailing
    /// newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("response serialises")
    }

    /// Parses a response from its JSON wire form (the client side).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a shape mismatch, or an
    /// envelope version this build does not speak.
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let value = serde_json::from_str(s).map_err(|e| format!("malformed response: {e}"))?;
        Self::from_json_value(&value)
    }

    /// Parses a response from an already-parsed JSON tree.
    ///
    /// # Errors
    ///
    /// Returns a message on a shape mismatch or an envelope version this
    /// build does not speak (including the missing `format_version` of a
    /// pre-versioning daemon).
    pub fn from_json_value(value: &Value) -> Result<Self, String> {
        let format_version = value
            .get("format_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| {
                format!(
                    "response has no format_version key: the daemon speaks envelope \
                     version 1, this client requires version {FORMAT_VERSION} — \
                     restart the daemon from the same build as the client"
                )
            })?;
        if format_version != FORMAT_VERSION {
            return Err(format!(
                "response format_version is {format_version} but this client speaks \
                 {FORMAT_VERSION} — restart the daemon from the same build as the client"
            ));
        }
        let obj = |key: &str| -> Result<&Value, String> {
            value
                .get(key)
                .ok_or_else(|| format!("response is missing the {key} key"))
        };
        let string = |key: &str| -> Result<String, String> {
            obj(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("response key {key} must be a string"))
        };
        let opt_string = |key: &str| -> Result<Option<String>, String> {
            match obj(key)? {
                Value::Null => Ok(None),
                Value::String(s) => Ok(Some(s.clone())),
                other => Err(format!(
                    "response key {key} must be a string or null, got {}",
                    other.type_name()
                )),
            }
        };
        let ok = match obj("ok")? {
            Value::Bool(b) => *b,
            other => {
                return Err(format!(
                    "response key ok must be a boolean, got {}",
                    other.type_name()
                ))
            }
        };
        let count = |key: &str| -> Result<u64, String> {
            obj("cache")?
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("response cache.{key} must be an integer"))
        };
        let cache = CacheStats {
            profiled_suites: usize::try_from(count("profiled_suites")?)
                .map_err(|e| e.to_string())?,
            measure_entries: usize::try_from(count("measure_entries")?)
                .map_err(|e| e.to_string())?,
            measure_hits: count("measure_hits")?,
            measure_misses: count("measure_misses")?,
            store_hits: count("store_hits")?,
            store_misses: count("store_misses")?,
            store_entries: count("store_entries")?,
            store_bytes: count("store_bytes")?,
            store_skipped_lines: count("store_skipped_lines")?,
        };
        Ok(Response {
            format_version,
            ok,
            kind: string("kind")?,
            artifact: opt_string("artifact")?,
            text: string("text")?,
            body: opt_string("body")?,
            meta: opt_string("meta")?,
            error: opt_string("error")?,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_preserves_newlines() {
        let resp = Response::success(
            &Request::Table1,
            "line one\nline two\n".to_owned(),
            Some("[\n  1\n]".to_owned()),
            None,
            CacheStats {
                profiled_suites: 1,
                measure_entries: 2,
                measure_hits: 3,
                measure_misses: 4,
                store_hits: 5,
                store_misses: 6,
                store_entries: 7,
                store_bytes: 8,
                store_skipped_lines: 9,
            },
        );
        let line = resp.to_json_line();
        assert!(!line.contains('\n'), "framing stays single-line: {line}");
        let back = Response::from_json_str(&line).expect("round trip");
        assert_eq!(back, resp);
    }

    #[test]
    fn protocol_errors_parse_back() {
        let line = Response::protocol_error("bad line".to_owned()).to_json_line();
        let back = Response::from_json_str(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("bad line"));
    }

    #[test]
    fn envelope_version_mismatches_are_rejected() {
        let good = Response::protocol_error("x".to_owned()).to_json_line();

        // A future daemon speaking a newer envelope.
        let newer = good.replace(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FORMAT_VERSION + 1),
        );
        assert_ne!(newer, good, "the substitution must have happened");
        let err = Response::from_json_str(&newer).unwrap_err();
        assert!(err.contains("format_version"), "{err}");
        assert!(
            err.contains(&FORMAT_VERSION.to_string()),
            "names the client's version: {err}"
        );

        // A pre-versioning daemon (no key at all).
        let older = good.replace(&format!("\"format_version\":{FORMAT_VERSION},"), "");
        assert_ne!(older, good);
        let err = Response::from_json_str(&older).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
    }
}
