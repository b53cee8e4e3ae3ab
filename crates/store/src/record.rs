//! Store records: content-addressed keys and the measurement/profile
//! payloads they map to, with their newline-JSON wire form.
//!
//! One record is one line of a store log:
//!
//! ```json
//! {"kind":"measure","content":"00c5…","config":"81aa…","ins":[12.5,3.0],
//!  "comms":40,"mems":11,"exec_fs":1250000}
//! ```
//!
//! Keys are 16-digit lowercase-hex [`StableHasher`](crate::StableHasher)
//! digests (hex strings, not JSON numbers, so the full 64-bit range
//! survives every JSON implementation). Floats are written in Rust's
//! shortest round-trip `Display` form and parsed back bit-exactly — the
//! same discipline the corpus format (`vliw-ir::serial`) pins — so a
//! record loaded from disk reproduces the measurement it stored down to
//! the last ULP.
//!
//! Parsing is strict and path-addressed: unknown fields, missing fields
//! and wrong types all fail with a [`SerialError`] naming the offending
//! JSON path (`writer-42-0.jsonl#3.ins[1]` style), mirroring the corpus
//! loader's discipline. The store reads the lines its own writer emits
//! with a one-pass decoder of exactly that layout
//! (`decode_canonical_line`); any other line, and so every error, goes
//! through the strict tree decoder ([`Record::from_json_value`]).

use serde::write_json_str;
use serde_json::Value;
use vliw_ir::{check_fields, get_field, get_str_field, SerialError};

/// The content address of one stored result: *what* was measured and
/// *on which machine*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Structural hash of the benchmark content (loop DDGs, trip
    /// counts, weights) — independent of how the benchmark was obtained.
    pub content: u64,
    /// Fingerprint of the full machine configuration: cycle times,
    /// voltages, buses, the scheduler's eject budget and IT-retry cap,
    /// the frequency menu and the calibrated power model, all hashed by
    /// exact bit pattern.
    pub config: u64,
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{:016x}", self.content, self.config)
    }
}

/// A measured usage profile, in store-native units (times in
/// femtoseconds, exactly as `vliw_machine::Time` stores them).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRecord {
    /// Energy-weighted instructions per cluster.
    pub weighted_ins_per_cluster: Vec<f64>,
    /// Inter-cluster communications.
    pub comms: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Execution time in femtoseconds.
    pub exec_time_fs: u64,
}

/// One loop of a stored reference profile (see
/// `vliw_explore::profile::LoopProfile`; times in femtoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfileRecord {
    /// Loop name.
    pub name: String,
    /// Fraction of program time.
    pub weight: f64,
    /// Iterations per invocation.
    pub trips: u64,
    /// Recurrence-constrained minimum II (cycles).
    pub rec_mii: u32,
    /// Operations per FU kind `[int, fp, mem]`.
    pub fu_counts: [u64; 3],
    /// Inter-cluster communications per iteration.
    pub comms: u64,
    /// Sum of register lifetimes per iteration (fs).
    pub lifetime_fs: u64,
    /// Iteration length of the reference schedule (fs).
    pub it_length_fs: u64,
    /// Initiation time of the reference schedule (fs).
    pub it_ref_fs: u64,
    /// Energy-weighted instructions per iteration.
    pub weighted_ins: f64,
    /// Energy-weighted instructions on non-trivial recurrences.
    pub rec_weighted_ins: f64,
    /// Memory accesses per iteration.
    pub mem_accesses: u64,
    /// Execution time of one invocation (fs).
    pub exec_time_fs: u64,
    /// Invocation multiplier.
    pub invocations: f64,
}

/// A stored reference profile of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Benchmark name.
    pub name: String,
    /// Per-loop measurements.
    pub loops: Vec<LoopProfileRecord>,
    /// Aggregate reference energy-weighted instructions.
    pub ref_weighted_ins: f64,
    /// Aggregate reference communications.
    pub ref_comms: u64,
    /// Aggregate reference memory accesses.
    pub ref_mem_accesses: u64,
    /// Aggregate reference execution time (fs).
    pub ref_exec_time_fs: u64,
}

/// The suite-level objectives of one stored search evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalObjectives {
    /// Suite execution time in nanoseconds.
    pub exec_time_ns: f64,
    /// Suite energy in reference units.
    pub energy: f64,
    /// Suite energy-delay-squared product.
    pub ed2: f64,
}

/// One persisted design-space-search evaluation: the measured suite
/// objectives of one candidate, or its recorded infeasibility.
///
/// Unlike measurements and profiles, eval records are keyed by
/// *(search-space fingerprint, candidate index)*: `StoreKey::content`
/// holds the fingerprint of the whole evaluation context (space, suite
/// contents, scheduler and power knobs) and `StoreKey::config` holds
/// the candidate's canonical index in that space. Warm-started searches
/// probe these records to reseed their Pareto archive and evaluation
/// memo before the first optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRecord {
    /// The measured objectives, or `None` for an infeasible candidate
    /// (out-of-range voltages, unsustainable frequencies, scheduling
    /// failure — infeasibility is deterministic too, so it is worth
    /// remembering).
    pub objectives: Option<EvalObjectives>,
}

/// One store log line: a key plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A measured heterogeneous usage profile.
    Measure {
        /// Content address.
        key: StoreKey,
        /// Payload.
        value: MeasureRecord,
    },
    /// A reference profile.
    Profile {
        /// Content address.
        key: StoreKey,
        /// Payload.
        value: ProfileRecord,
    },
    /// A design-space-search evaluation.
    Eval {
        /// Content address (space fingerprint / candidate index).
        key: StoreKey,
        /// Payload.
        value: EvalRecord,
    },
}

impl Record {
    /// The record's content address.
    #[must_use]
    pub fn key(&self) -> StoreKey {
        match self {
            Record::Measure { key, .. }
            | Record::Profile { key, .. }
            | Record::Eval { key, .. } => *key,
        }
    }

    /// Serialises the record as one compact JSON line (no newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        match self {
            Record::Measure { key, value } => {
                out.push_str(&format!(
                    "{{\"kind\":\"measure\",\"content\":\"{:016x}\",\"config\":\"{:016x}\",\"ins\":[",
                    key.content, key.config
                ));
                for (i, &v) in value.weighted_ins_per_cluster.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_f64(&mut out, v);
                }
                out.push_str(&format!(
                    "],\"comms\":{},\"mems\":{},\"exec_fs\":{}}}",
                    value.comms, value.mem_accesses, value.exec_time_fs
                ));
            }
            Record::Profile { key, value } => {
                out.push_str(&format!(
                    "{{\"kind\":\"profile\",\"content\":\"{:016x}\",\"config\":\"{:016x}\",\"name\":",
                    key.content, key.config
                ));
                write_json_str(&value.name, &mut out);
                out.push_str(",\"ref_ins\":");
                push_f64(&mut out, value.ref_weighted_ins);
                out.push_str(&format!(
                    ",\"ref_comms\":{},\"ref_mems\":{},\"ref_exec_fs\":{},\"loops\":[",
                    value.ref_comms, value.ref_mem_accesses, value.ref_exec_time_fs
                ));
                for (i, l) in value.loops.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    write_json_str(&l.name, &mut out);
                    out.push_str(",\"weight\":");
                    push_f64(&mut out, l.weight);
                    out.push_str(&format!(
                        ",\"trips\":{},\"rec_mii\":{},\"fu\":[{},{},{}],\"comms\":{},\
                         \"lifetime_fs\":{},\"it_length_fs\":{},\"it_ref_fs\":{},\"ins\":",
                        l.trips,
                        l.rec_mii,
                        l.fu_counts[0],
                        l.fu_counts[1],
                        l.fu_counts[2],
                        l.comms,
                        l.lifetime_fs,
                        l.it_length_fs,
                        l.it_ref_fs
                    ));
                    push_f64(&mut out, l.weighted_ins);
                    out.push_str(",\"rec_ins\":");
                    push_f64(&mut out, l.rec_weighted_ins);
                    out.push_str(&format!(
                        ",\"mems\":{},\"exec_fs\":{},\"invocations\":",
                        l.mem_accesses, l.exec_time_fs
                    ));
                    push_f64(&mut out, l.invocations);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Record::Eval { key, value } => {
                out.push_str(&format!(
                    "{{\"kind\":\"eval\",\"content\":\"{:016x}\",\"config\":\"{:016x}\"",
                    key.content, key.config
                ));
                match &value.objectives {
                    Some(o) => {
                        out.push_str(",\"time_ns\":");
                        push_f64(&mut out, o.exec_time_ns);
                        out.push_str(",\"energy\":");
                        push_f64(&mut out, o.energy);
                        out.push_str(",\"ed2\":");
                        push_f64(&mut out, o.ed2);
                    }
                    None => out.push_str(",\"infeasible\":true"),
                }
                out.push('}');
            }
        }
        out
    }

    /// Parses one record from a parsed JSON tree; `path` names the
    /// record's location (`<file>#<line>`) for error reporting.
    ///
    /// # Errors
    ///
    /// A [`SerialError`] naming the exact JSON path on any missing or
    /// unknown field, wrong type, or malformed key.
    pub fn from_json_value(value: &Value, path: &str) -> Result<Self, SerialError> {
        let kind = get_str_field(value, path, "kind")?;
        let key = StoreKey {
            content: get_hex_field(value, path, "content")?,
            config: get_hex_field(value, path, "config")?,
        };
        match kind {
            "measure" => {
                check_fields(
                    value,
                    path,
                    &[
                        "kind", "content", "config", "ins", "comms", "mems", "exec_fs",
                    ],
                )?;
                let ins = get_array_field(value, path, "ins")?;
                let weighted_ins_per_cluster = ins
                    .iter()
                    .enumerate()
                    .map(|(i, v)| as_f64(v, &format!("{path}.ins[{i}]")))
                    .collect::<Result<Vec<f64>, SerialError>>()?;
                Ok(Record::Measure {
                    key,
                    value: MeasureRecord {
                        weighted_ins_per_cluster,
                        comms: get_u64_field(value, path, "comms")?,
                        mem_accesses: get_u64_field(value, path, "mems")?,
                        exec_time_fs: get_u64_field(value, path, "exec_fs")?,
                    },
                })
            }
            "profile" => {
                check_fields(
                    value,
                    path,
                    &[
                        "kind",
                        "content",
                        "config",
                        "name",
                        "ref_ins",
                        "ref_comms",
                        "ref_mems",
                        "ref_exec_fs",
                        "loops",
                    ],
                )?;
                let loops_value = get_array_field(value, path, "loops")?;
                let mut loops = Vec::with_capacity(loops_value.len());
                for (i, l) in loops_value.iter().enumerate() {
                    loops.push(parse_loop(l, &format!("{path}.loops[{i}]"))?);
                }
                Ok(Record::Profile {
                    key,
                    value: ProfileRecord {
                        name: get_str_field(value, path, "name")?.to_owned(),
                        loops,
                        ref_weighted_ins: get_f64_field(value, path, "ref_ins")?,
                        ref_comms: get_u64_field(value, path, "ref_comms")?,
                        ref_mem_accesses: get_u64_field(value, path, "ref_mems")?,
                        ref_exec_time_fs: get_u64_field(value, path, "ref_exec_fs")?,
                    },
                })
            }
            "eval" => {
                if has_field(value, "infeasible") {
                    check_fields(value, path, &["kind", "content", "config", "infeasible"])?;
                    let flag = get_field(value, path, "infeasible")?;
                    if flag.as_bool() != Some(true) {
                        return Err(SerialError {
                            path: format!("{path}.infeasible"),
                            message: "infeasible must be true when present".to_owned(),
                        });
                    }
                    Ok(Record::Eval {
                        key,
                        value: EvalRecord { objectives: None },
                    })
                } else {
                    check_fields(
                        value,
                        path,
                        &["kind", "content", "config", "time_ns", "energy", "ed2"],
                    )?;
                    Ok(Record::Eval {
                        key,
                        value: EvalRecord {
                            objectives: Some(EvalObjectives {
                                exec_time_ns: get_f64_field(value, path, "time_ns")?,
                                energy: get_f64_field(value, path, "energy")?,
                                ed2: get_f64_field(value, path, "ed2")?,
                            }),
                        },
                    })
                }
            }
            other => Err(SerialError {
                path: format!("{path}.kind"),
                message: format!(
                    "unknown record kind {other:?} (expected measure, profile or eval)"
                ),
            }),
        }
    }
}

fn parse_loop(value: &Value, path: &str) -> Result<LoopProfileRecord, SerialError> {
    check_fields(
        value,
        path,
        &[
            "name",
            "weight",
            "trips",
            "rec_mii",
            "fu",
            "comms",
            "lifetime_fs",
            "it_length_fs",
            "it_ref_fs",
            "ins",
            "rec_ins",
            "mems",
            "exec_fs",
            "invocations",
        ],
    )?;
    let fu = get_array_field(value, path, "fu")?;
    if fu.len() != 3 {
        return Err(SerialError {
            path: format!("{path}.fu"),
            message: format!("fu must have exactly 3 counts, got {}", fu.len()),
        });
    }
    let fu_counts = [
        as_u64(&fu[0], &format!("{path}.fu[0]"))?,
        as_u64(&fu[1], &format!("{path}.fu[1]"))?,
        as_u64(&fu[2], &format!("{path}.fu[2]"))?,
    ];
    Ok(LoopProfileRecord {
        name: get_str_field(value, path, "name")?.to_owned(),
        weight: get_f64_field(value, path, "weight")?,
        trips: get_u64_field(value, path, "trips")?,
        rec_mii: u32::try_from(get_u64_field(value, path, "rec_mii")?).map_err(|_| {
            SerialError {
                path: format!("{path}.rec_mii"),
                message: "rec_mii does not fit in u32".to_owned(),
            }
        })?,
        fu_counts,
        comms: get_u64_field(value, path, "comms")?,
        lifetime_fs: get_u64_field(value, path, "lifetime_fs")?,
        it_length_fs: get_u64_field(value, path, "it_length_fs")?,
        it_ref_fs: get_u64_field(value, path, "it_ref_fs")?,
        weighted_ins: get_f64_field(value, path, "ins")?,
        rec_weighted_ins: get_f64_field(value, path, "rec_ins")?,
        mem_accesses: get_u64_field(value, path, "mems")?,
        exec_time_fs: get_u64_field(value, path, "exec_fs")?,
        invocations: get_f64_field(value, path, "invocations")?,
    })
}

/// Decodes a line laid out exactly as [`Record::to_json_line`] writes
/// it: the writer's key order, no whitespace, strings with nothing to
/// escape, lowercase hex keys. Returns `None` for any other line, valid
/// or not, so the caller can hand it to the strict tree decoder.
///
/// Numbers follow the JSON grammar and go through the same
/// `str::parse::<f64>` (finite only) and `str::parse::<u64>` calls as
/// [`serde_json::Number`], so whenever this returns a record,
/// `serde_json::from_str` + [`Record::from_json_value`] return the same
/// record bit for bit.
pub(crate) fn decode_canonical_line(line: &str) -> Option<Record> {
    let mut c = Canonical { line, pos: 0 };
    c.lit("{\"kind\":")?;
    let kind = c.str()?;
    c.lit(",\"content\":")?;
    let content = c.hex()?;
    c.lit(",\"config\":")?;
    let key = StoreKey {
        content,
        config: c.hex()?,
    };
    // Struct fields are evaluated in the order written, which below is
    // always the order the writer puts them on the line.
    let record = match kind {
        "measure" => {
            c.lit(",\"ins\":[")?;
            Record::Measure {
                key,
                value: MeasureRecord {
                    weighted_ins_per_cluster: c.list(Canonical::f64)?,
                    comms: c.field_u64(",\"comms\":")?,
                    mem_accesses: c.field_u64(",\"mems\":")?,
                    exec_time_fs: c.field_u64(",\"exec_fs\":")?,
                },
            }
        }
        "profile" => {
            c.lit(",\"name\":")?;
            let name = c.str()?.to_owned();
            let ref_weighted_ins = c.field_f64(",\"ref_ins\":")?;
            let ref_comms = c.field_u64(",\"ref_comms\":")?;
            let ref_mem_accesses = c.field_u64(",\"ref_mems\":")?;
            let ref_exec_time_fs = c.field_u64(",\"ref_exec_fs\":")?;
            c.lit(",\"loops\":[")?;
            let loops = c.list(Canonical::loop_profile)?;
            Record::Profile {
                key,
                value: ProfileRecord {
                    name,
                    loops,
                    ref_weighted_ins,
                    ref_comms,
                    ref_mem_accesses,
                    ref_exec_time_fs,
                },
            }
        }
        "eval" => {
            let objectives = if c.lit(",\"infeasible\":true").is_some() {
                None
            } else {
                Some(EvalObjectives {
                    exec_time_ns: c.field_f64(",\"time_ns\":")?,
                    energy: c.field_f64(",\"energy\":")?,
                    ed2: c.field_f64(",\"ed2\":")?,
                })
            };
            Record::Eval {
                key,
                value: EvalRecord { objectives },
            }
        }
        _ => return None,
    };
    c.lit("}")?;
    (c.pos == line.len()).then_some(record)
}

/// A cursor over one line for [`decode_canonical_line`]. Every method
/// consumes what it matched or returns `None`; it never panics, because
/// it slices `line` only next to ASCII bytes (or through `str::get`).
struct Canonical<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Canonical<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes the literal `s`.
    fn lit(&mut self, s: &str) -> Option<()> {
        self.line.as_bytes()[self.pos..]
            .starts_with(s.as_bytes())
            .then(|| self.pos += s.len())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A string with no escape and no control character, unquoted.
    fn str(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => break,
                b'\\' | 0..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
        self.pos += 1;
        Some(&self.line[start..self.pos - 1])
    }

    /// A key: 16 lowercase hex digits in quotes.
    fn hex(&mut self) -> Option<u64> {
        self.lit("\"")?;
        let digits = self.line.get(self.pos..self.pos + 16)?;
        if !digits
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        {
            return None;
        }
        self.pos += 16;
        self.lit("\"")?;
        u64::from_str_radix(digits, 16).ok()
    }

    /// The lexeme of a JSON number:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Option<&'a str> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return None;
        }
        if self.eat(b'.') && self.digits() == 0 {
            return None;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return None;
            }
        }
        Some(&self.line[start..self.pos])
    }

    fn f64(&mut self) -> Option<f64> {
        self.number()?.parse::<f64>().ok().filter(|v| v.is_finite())
    }

    fn u64(&mut self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    fn field_f64(&mut self, key: &str) -> Option<f64> {
        self.lit(key)?;
        self.f64()
    }

    fn field_u64(&mut self, key: &str) -> Option<u64> {
        self.lit(key)?;
        self.u64()
    }

    /// The items of an array whose `[` is already consumed, through
    /// its `]`.
    fn list<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(b']') {
                return Some(items);
            }
            self.lit(",")?;
        }
    }

    fn loop_profile(&mut self) -> Option<LoopProfileRecord> {
        self.lit("{\"name\":")?;
        let name = self.str()?.to_owned();
        let weight = self.field_f64(",\"weight\":")?;
        let trips = self.field_u64(",\"trips\":")?;
        let rec_mii = u32::try_from(self.field_u64(",\"rec_mii\":")?).ok()?;
        let fu0 = self.field_u64(",\"fu\":[")?;
        let fu1 = self.field_u64(",")?;
        let fu2 = self.field_u64(",")?;
        let record = LoopProfileRecord {
            name,
            weight,
            trips,
            rec_mii,
            fu_counts: [fu0, fu1, fu2],
            comms: self.field_u64("],\"comms\":")?,
            lifetime_fs: self.field_u64(",\"lifetime_fs\":")?,
            it_length_fs: self.field_u64(",\"it_length_fs\":")?,
            it_ref_fs: self.field_u64(",\"it_ref_fs\":")?,
            weighted_ins: self.field_f64(",\"ins\":")?,
            rec_weighted_ins: self.field_f64(",\"rec_ins\":")?,
            mem_accesses: self.field_u64(",\"mems\":")?,
            exec_time_fs: self.field_u64(",\"exec_fs\":")?,
            invocations: self.field_f64(",\"invocations\":")?,
        };
        self.lit("}")?;
        Some(record)
    }
}

/// Writes a finite `f64` in shortest round-trip form.
///
/// # Panics
///
/// Panics on non-finite values — measurements are finite by
/// construction, and JSON has no encoding for NaN/∞.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "store records hold finite floats, got {v}");
    out.push_str(&format!("{v}"));
    // An integral float like `2` prints without a decimal point; that is
    // fine — the parser goes through f64 either way and the bit pattern
    // survives.
}

fn as_f64(v: &Value, path: &str) -> Result<f64, SerialError> {
    match v {
        Value::Number(_) => Ok(v.as_f64().expect("numbers parse as f64")),
        other => Err(SerialError {
            path: path.to_owned(),
            message: format!("expected a number, got {}", other.type_name()),
        }),
    }
}

fn as_u64(v: &Value, path: &str) -> Result<u64, SerialError> {
    v.as_u64().ok_or_else(|| SerialError {
        path: path.to_owned(),
        message: format!("expected a non-negative integer, got {}", v.type_name()),
    })
}

pub(crate) fn get_u64_field(v: &Value, path: &str, key: &str) -> Result<u64, SerialError> {
    as_u64(get_field(v, path, key)?, &format!("{path}.{key}"))
}

pub(crate) fn get_f64_field(v: &Value, path: &str, key: &str) -> Result<f64, SerialError> {
    as_f64(get_field(v, path, key)?, &format!("{path}.{key}"))
}

/// A 16-digit lowercase-hex `u64` field (the key encoding).
pub(crate) fn get_hex_field(v: &Value, path: &str, key: &str) -> Result<u64, SerialError> {
    let s = get_str_field(v, path, key)?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(SerialError {
            path: format!("{path}.{key}"),
            message: format!("expected 16 hex digits, got {s:?}"),
        });
    }
    u64::from_str_radix(s, 16).map_err(|e| SerialError {
        path: format!("{path}.{key}"),
        message: format!("malformed hex key: {e}"),
    })
}

fn has_field(v: &Value, key: &str) -> bool {
    get_field(v, "", key).is_ok()
}

fn get_array_field<'v>(v: &'v Value, path: &str, key: &str) -> Result<&'v [Value], SerialError> {
    let field = get_field(v, path, key)?;
    field.as_array().ok_or_else(|| SerialError {
        path: format!("{path}.{key}"),
        message: format!("expected an array, got {}", field.type_name()),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;

    fn measure() -> Record {
        Record::Measure {
            key: StoreKey {
                content: 0x00c5_1234_5678_9abc,
                config: u64::MAX,
            },
            value: MeasureRecord {
                weighted_ins_per_cluster: vec![12.5, 0.1 + 0.2, -0.0, 3e-300],
                comms: 40,
                mem_accesses: 11,
                exec_time_fs: 1_250_000,
            },
        }
    }

    fn profile() -> Record {
        Record::Profile {
            key: StoreKey {
                content: 1,
                config: 2,
            },
            value: ProfileRecord {
                name: "171.swim".to_owned(),
                loops: vec![LoopProfileRecord {
                    name: "l\"0\"".to_owned(),
                    weight: 0.3,
                    trips: 100,
                    rec_mii: 3,
                    fu_counts: [5, 6, 7],
                    comms: 4,
                    lifetime_fs: 5,
                    it_length_fs: 6,
                    it_ref_fs: 7,
                    weighted_ins: 8.5,
                    rec_weighted_ins: 2.5,
                    mem_accesses: 9,
                    exec_time_fs: 10,
                    invocations: 11.75,
                }],
                ref_weighted_ins: 1.5,
                ref_comms: 2,
                ref_mem_accesses: 3,
                ref_exec_time_fs: 4,
            },
        }
    }

    fn eval_feasible() -> Record {
        Record::Eval {
            key: StoreKey {
                content: 0xdead_beef_0000_0001,
                config: 42,
            },
            value: EvalRecord {
                objectives: Some(EvalObjectives {
                    exec_time_ns: 0.1 + 0.2,
                    energy: 3e-300,
                    ed2: 1234.5,
                }),
            },
        }
    }

    fn eval_infeasible() -> Record {
        Record::Eval {
            key: StoreKey {
                content: 0xdead_beef_0000_0001,
                config: 43,
            },
            value: EvalRecord { objectives: None },
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for rec in [measure(), profile(), eval_feasible(), eval_infeasible()] {
            let line = rec.to_json_line();
            assert!(!line.contains('\n'));
            let value = serde_json::from_str(&line).expect("valid JSON");
            let back = Record::from_json_value(&value, "t#1").expect("round trip");
            assert_eq!(back, rec, "through {line}");
        }
    }

    #[test]
    fn unknown_field_is_a_path_error() {
        let mut line = measure().to_json_line();
        line.insert_str(line.len() - 1, ",\"frobs\":1");
        let value = serde_json::from_str(&line).unwrap();
        let err = Record::from_json_value(&value, "log#7").unwrap_err();
        assert!(err.path.starts_with("log#7"), "{err}");
        assert!(err.to_string().contains("frobs"), "{err}");
    }

    #[test]
    fn malformed_key_is_a_path_error() {
        let line = "{\"kind\":\"measure\",\"content\":\"xyz\",\"config\":\"0000000000000000\",\
                    \"ins\":[],\"comms\":0,\"mems\":0,\"exec_fs\":0}";
        let value = serde_json::from_str(line).unwrap();
        let err = Record::from_json_value(&value, "log#2").unwrap_err();
        assert_eq!(err.path, "log#2.content");
        assert!(err.message.contains("16 hex digits"), "{err}");
    }

    #[test]
    fn eval_rejects_mixed_feasibility() {
        // An infeasible marker alongside objectives is a field-set error.
        let line = "{\"kind\":\"eval\",\"content\":\"0000000000000001\",\
                    \"config\":\"0000000000000002\",\"time_ns\":1.0,\"energy\":2.0,\
                    \"ed2\":3.0,\"infeasible\":true}";
        let value = serde_json::from_str(line).unwrap();
        let err = Record::from_json_value(&value, "log#4").unwrap_err();
        assert!(err.path.starts_with("log#4"), "{err}");

        let line = "{\"kind\":\"eval\",\"content\":\"0000000000000001\",\
                    \"config\":\"0000000000000002\",\"infeasible\":false}";
        let value = serde_json::from_str(line).unwrap();
        let err = Record::from_json_value(&value, "log#5").unwrap_err();
        assert_eq!(err.path, "log#5.infeasible");
    }

    #[test]
    fn wrong_type_is_a_path_error() {
        let line = "{\"kind\":\"measure\",\"content\":\"0000000000000001\",\
                    \"config\":\"0000000000000002\",\"ins\":[true],\"comms\":0,\"mems\":0,\
                    \"exec_fs\":0}";
        let value = serde_json::from_str(line).unwrap();
        let err = Record::from_json_value(&value, "log#3").unwrap_err();
        assert_eq!(err.path, "log#3.ins[0]");
    }

    /// `u64`s with the edges forced in: 0, `u64::MAX` and short counts
    /// besides raw draws.
    fn arb_u64() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(pick, raw)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => raw % 1000,
            _ => raw,
        })
    }

    /// Finite `f64`s drawn from raw bits, with `-0.0`, subnormals and
    /// short decimals forced in besides raw draws.
    fn arb_f64() -> impl Strategy<Value = f64> {
        (0u8..5, 0u64..=u64::MAX).prop_map(|(pick, bits)| {
            let v = match pick {
                0 => -0.0,
                1 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // zero exponent
                2 => (bits % 100_000) as f64 / 64.0,
                _ => f64::from_bits(bits),
            };
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits & 0x800f_ffff_ffff_ffff)
            }
        })
    }

    /// Characters `write_json_str` writes as they are, and ones it
    /// escapes.
    const PLAIN: &[char] = &[
        'a', 'Z', '0', '9', '.', '_', '-', ' ', '/', 'é', '→', '\u{7f}',
    ];
    const ESCAPED: &[char] = &['"', '\\', '\n', '\t', '\u{1}'];

    /// Names with escaped characters allowed in one name in four.
    fn arb_name() -> impl Strategy<Value = String> {
        let n = PLAIN.len() + ESCAPED.len();
        (0u8..4, proptest::collection::vec(0..n, 0..10)).prop_map(|(pick, ix)| {
            let alphabet: Vec<char> = match pick {
                0 => PLAIN.iter().chain(ESCAPED).copied().collect(),
                _ => PLAIN.to_vec(),
            };
            ix.into_iter()
                .map(|i| alphabet[i % alphabet.len()])
                .collect()
        })
    }

    fn arb_key() -> impl Strategy<Value = StoreKey> {
        (arb_u64(), arb_u64()).prop_map(|(content, config)| StoreKey { content, config })
    }

    fn arb_loop() -> impl Strategy<Value = LoopProfileRecord> {
        (
            (
                arb_name(),
                arb_f64(),
                arb_u64(),
                arb_u64(),
                arb_u64(),
                arb_u64(),
            ),
            (
                arb_u64(),
                arb_u64(),
                arb_u64(),
                arb_u64(),
                arb_u64(),
                arb_u64(),
            ),
            (arb_f64(), arb_f64(), arb_u64(), arb_f64()),
        )
            .prop_map(
                |(
                    (name, weight, trips, rec_mii, it_length_fs, it_ref_fs),
                    (fu0, fu1, fu2, comms, lifetime_fs, mem_accesses),
                    (weighted_ins, rec_weighted_ins, exec_time_fs, invocations),
                )| LoopProfileRecord {
                    name,
                    weight,
                    trips,
                    rec_mii: rec_mii as u32,
                    fu_counts: [fu0, fu1, fu2],
                    comms,
                    lifetime_fs,
                    it_length_fs,
                    it_ref_fs,
                    weighted_ins,
                    rec_weighted_ins,
                    mem_accesses,
                    exec_time_fs,
                    invocations,
                },
            )
    }

    /// Any record the writer can emit: each kind a third of the time,
    /// with empty `ins` and `loops` and infeasible evals among them.
    pub(crate) fn arb_record() -> impl Strategy<Value = Record> {
        let measure = (
            proptest::collection::vec(arb_f64(), 0..6),
            (arb_u64(), arb_u64(), arb_u64()),
        );
        let profile = (
            arb_name(),
            proptest::collection::vec(arb_loop(), 0..3),
            arb_f64(),
            (arb_u64(), arb_u64(), arb_u64()),
        );
        let eval = proptest::option::of((arb_f64(), arb_f64(), arb_f64()));
        (0u8..3, arb_key(), measure, profile, eval).prop_map(
            |(
                kind,
                key,
                (ins, (comms, mems, exec)),
                (name, loops, ref_ins, (rc, rm, re)),
                eval,
            )| {
                match kind {
                    0 => Record::Measure {
                        key,
                        value: MeasureRecord {
                            weighted_ins_per_cluster: ins,
                            comms,
                            mem_accesses: mems,
                            exec_time_fs: exec,
                        },
                    },
                    1 => Record::Profile {
                        key,
                        value: ProfileRecord {
                            name,
                            loops,
                            ref_weighted_ins: ref_ins,
                            ref_comms: rc,
                            ref_mem_accesses: rm,
                            ref_exec_time_fs: re,
                        },
                    },
                    _ => Record::Eval {
                        key,
                        value: EvalRecord {
                            objectives: eval.map(|(exec_time_ns, energy, ed2)| EvalObjectives {
                                exec_time_ns,
                                energy,
                                ed2,
                            }),
                        },
                    },
                }
            },
        )
    }

    /// Every float of a record as raw bits. Together with `==`, which
    /// cannot tell `-0.0` from `0.0`, this compares records bit for bit.
    pub(crate) fn float_bits(record: &Record) -> Vec<u64> {
        match record {
            Record::Measure { value, .. } => value
                .weighted_ins_per_cluster
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            Record::Profile { value, .. } => {
                std::iter::once(value.ref_weighted_ins)
                    .chain(value.loops.iter().flat_map(|l| {
                        [l.weight, l.weighted_ins, l.rec_weighted_ins, l.invocations]
                    }))
                    .map(f64::to_bits)
                    .collect()
            }
            Record::Eval { value, .. } => value
                .objectives
                .iter()
                .flat_map(|o| [o.exec_time_ns, o.energy, o.ed2])
                .map(f64::to_bits)
                .collect(),
        }
    }

    /// Whether no name in `record` has a character the writer escapes.
    fn names_are_plain(record: &Record) -> bool {
        let plain = |s: &str| s.chars().all(|c| c != '"' && c != '\\' && c >= ' ');
        match record {
            Record::Profile { value, .. } => {
                plain(&value.name) && value.loops.iter().all(|l| plain(&l.name))
            }
            Record::Measure { .. } | Record::Eval { .. } => true,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every line the writer emits decodes in one pass, bit for bit,
        /// unless a name needed escaping: those lines are the tree
        /// decoder's.
        #[test]
        fn canonical_lines_decode_in_one_pass(record in arb_record()) {
            let line = record.to_json_line();
            match decode_canonical_line(&line) {
                Some(back) => {
                    prop_assert!(names_are_plain(&record), "escaped name decoded: {line}");
                    prop_assert!(
                        back == record && float_bits(&back) == float_bits(&record),
                        "{line} decoded as {back:?}"
                    );
                }
                None => prop_assert!(!names_are_plain(&record), "not decoded: {line}"),
            }
        }
    }
}
