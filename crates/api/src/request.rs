//! The serialisable [`Request`] type: every experiment entry point as a
//! value.
//!
//! A request is one JSON object on the wire, keyed by `kind` plus the
//! knobs that apply to it:
//!
//! ```json
//! {"kind":"figure6","loops":5,"buses":"1","seed":0}
//! {"kind":"search","loops":2,"buses":"1","seed":1,"strategy":"hillclimb","budget":8,"space":"paper"}
//! {"kind":"search","strategy":"ga","budget":200,"space":"extended","racing":true,"shard":"2/3"}
//! {"kind":"figure6","store":"target/paper-store"}
//! {"kind":"store_stats"}
//! {"kind":"corpus_stats","input":"target/paper-results/corpus.json"}
//! ```
//!
//! Parsing is strict: unknown keys are rejected, and a knob that does
//! not apply to the requested kind (`budget` on `figure6`, `input` on
//! `search`, `store` on `ping`, …) is an error rather than a silent
//! no-op — dropping a caller's path would misreport what ran. Omitted
//! knobs take their defaults, so `{"kind":"figure6"}` and a bare
//! `paper figure6` run identically.
//!
//! [`KNOBS`] lists every knob key with the shape of its value. The wire
//! parser and the `paper` CLI, which turns each `--key value` flag into
//! the pair `"key": value`, both decode knobs through
//! [`RequestBuilder::set`] and assemble through [`RequestBuilder::build`],
//! so "which knob applies to which kind" is defined exactly once.
//!
//! The vendored serde derive has no enum support, so [`Request`]
//! serialises by hand ([`Request::to_json_string`]) and parses through
//! the [`serde_json::Value`] tree ([`Request::from_json_str`]).

use std::path::PathBuf;

use serde_json::Value;
use vliw_explore::SpaceKind;
use vliw_search::Strategy;
use vliw_store::StoreConfig;
use vliw_workloads::DEFAULT_LOOPS_PER_BENCHMARK;

/// Which bus configurations an experiment runs (the CLI's `--buses`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusSel {
    /// One inter-cluster bus.
    One,
    /// Two inter-cluster buses.
    Two,
    /// Both configurations, in order (the default).
    Both,
}

impl BusSel {
    /// The bus counts this selection expands to, in run order.
    #[must_use]
    pub fn list(self) -> &'static [u32] {
        match self {
            BusSel::One => &[1],
            BusSel::Two => &[2],
            BusSel::Both => &[1, 2],
        }
    }

    /// The selection's stable wire/CLI name (`1`, `2` or `both`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BusSel::One => "1",
            BusSel::Two => "2",
            BusSel::Both => "both",
        }
    }

    /// Parses a wire/CLI name produced by [`BusSel::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "1" => Some(BusSel::One),
            "2" => Some(BusSel::Two),
            "both" => Some(BusSel::Both),
            _ => None,
        }
    }
}

/// The global knobs shared by every experiment request: suite scale,
/// bus selection, generation seed and the persistent measurement store
/// backing the run (the `loops`, `buses`, `seed` and `store` knobs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunParams {
    /// Loops generated per benchmark (default 40, the interactive
    /// 10× scale-down).
    pub loops: usize,
    /// Bus configurations to run.
    pub buses: BusSel,
    /// Global generation seed (0 reproduces the committed fixtures).
    pub seed: u64,
    /// Persistent measurement store backing the run. Disabled by
    /// default (everything stays in memory); the wire key is `store`,
    /// omitted when disabled so pre-store wire lines stay valid.
    pub store: StoreConfig,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            loops: DEFAULT_LOOPS_PER_BENCHMARK,
            buses: BusSel::Both,
            seed: 0,
            store: StoreConfig::none(),
        }
    }
}

/// The knobs of the `search` experiment (`strategy`, `budget`, `space`,
/// `racing` and `shard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchParams {
    /// The optimizer to run.
    pub strategy: Strategy,
    /// Distinct candidate evaluations the search may spend.
    pub budget: u64,
    /// The configuration space to search.
    pub space: SpaceKind,
    /// Successive-halving racing: screen fresh candidate batches on a
    /// truncated suite and promote only the most promising rung to the
    /// full measurement. The wire key is `racing`, omitted when false
    /// so pre-racing wire lines stay valid.
    pub racing: bool,
    /// Run only shard `i` of an `n`-way round-robin split of the gene
    /// grid, as 1-based `(i, n)`. The wire key is `shard` with value
    /// `"i/n"`, omitted when unsharded.
    pub shard: Option<(u32, u32)>,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            strategy: Strategy::HillClimb,
            budget: 64,
            space: SpaceKind::Paper,
            racing: false,
            shard: None,
        }
    }
}

/// One experiment invocation as a value: what the `paper` CLI's
/// subcommand dispatch used to encode in control flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the engine answers without doing any work.
    Ping,
    /// Ask the daemon to shut down gracefully. The engine treats it as a
    /// no-op; the serve loop intercepts it after responding.
    Shutdown,
    /// Table 1: per-class latency and relative energy (scale-free).
    Table1,
    /// Table 2: constraint-class time shares per benchmark.
    Table2(RunParams),
    /// Figure 6: per-benchmark normalised ED².
    Figure6(RunParams),
    /// Figure 7: frequency-menu sensitivity.
    Figure7(RunParams),
    /// Figure 8: ICN/cache energy-share sensitivity.
    Figure8(RunParams),
    /// Figure 9: leakage-share sensitivity.
    Figure9(RunParams),
    /// Generator-family sensitivity sweep.
    FamilySweep(RunParams),
    /// Seeded metaheuristic design-space search.
    Search {
        /// Suite scale, buses, seed and store.
        params: RunParams,
        /// Strategy, budget and space.
        search: SearchParams,
    },
    /// Schedule and validate every loop of a corpus.
    CorpusSchedule {
        /// Suite scale and seed (buses is not a corpus knob).
        params: RunParams,
        /// Corpus file to load; `None` uses the in-memory suite.
        input: Option<PathBuf>,
    },
    /// Per-benchmark structural summary of a corpus.
    CorpusStats {
        /// Suite scale and seed (buses is not a corpus knob).
        params: RunParams,
        /// Corpus file to load; `None` uses the in-memory suite.
        input: Option<PathBuf>,
    },
    /// Admin: statistics of a persistent measurement store.
    StoreStats {
        /// The store to inspect; disabled falls back to the daemon's
        /// default store (an error when there is none).
        store: StoreConfig,
    },
    /// Admin: merge a persistent measurement store's writer logs into
    /// one compact log.
    StoreCompact {
        /// The store to compact; disabled falls back to the daemon's
        /// default store (an error when there is none).
        store: StoreConfig,
    },
    /// Admin: the process-wide metrics registry rendered as
    /// Prometheus-style text exposition (stable sort order; values are
    /// live process state, so not byte-stable).
    Metrics,
}

impl Request {
    /// Every kind name, in canonical order (the wire `kind` values).
    pub const KINDS: [&'static str; 15] = [
        "ping",
        "shutdown",
        "table1",
        "table2",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "familysweep",
        "search",
        "corpus_schedule",
        "corpus_stats",
        "store_stats",
        "store_compact",
        "metrics",
    ];

    /// Starts building a request of the given kind; knobs are added
    /// with the [`RequestBuilder`]'s setters and validated by
    /// [`RequestBuilder::build`] under exactly the wire parser's rules.
    #[must_use]
    pub fn builder(kind: &str) -> RequestBuilder {
        RequestBuilder {
            kind: kind.to_owned(),
            ..RequestBuilder::default()
        }
    }

    /// The request's stable kind name.
    #[must_use]
    pub const fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
            Request::Table1 => "table1",
            Request::Table2(_) => "table2",
            Request::Figure6(_) => "figure6",
            Request::Figure7(_) => "figure7",
            Request::Figure8(_) => "figure8",
            Request::Figure9(_) => "figure9",
            Request::FamilySweep(_) => "familysweep",
            Request::Search { .. } => "search",
            Request::CorpusSchedule { .. } => "corpus_schedule",
            Request::CorpusStats { .. } => "corpus_stats",
            Request::StoreStats { .. } => "store_stats",
            Request::StoreCompact { .. } => "store_compact",
            Request::Metrics => "metrics",
        }
    }

    /// The artefact stem this request's rows are persisted under
    /// (`<stem>.json`, plus `<stem>.meta.json` when the response carries
    /// a sidecar), or `None` for control and admin requests.
    #[must_use]
    pub const fn artifact(&self) -> Option<&'static str> {
        match self {
            Request::Ping
            | Request::Shutdown
            | Request::Metrics
            | Request::StoreStats { .. }
            | Request::StoreCompact { .. } => None,
            // Shard runs produce a mergeable shard artefact, not a
            // plain search report — keep the stems distinct so a shard
            // can never clobber a full search result.
            Request::Search { search, .. } => {
                if search.shard.is_some() {
                    Some("search_shard")
                } else {
                    Some("search")
                }
            }
            _ => Some(self.kind()),
        }
    }

    /// Whether the response body is byte-stable across runs, machines
    /// and job counts. The store admin requests report mutable disk
    /// state and `metrics` reports live process state, so they are the
    /// exceptions.
    #[must_use]
    pub const fn is_byte_stable(&self) -> bool {
        !matches!(
            self,
            Request::StoreStats { .. } | Request::StoreCompact { .. } | Request::Metrics
        )
    }

    /// The run params, for kinds that have them.
    #[must_use]
    pub const fn params(&self) -> Option<&RunParams> {
        match self {
            Request::Ping
            | Request::Shutdown
            | Request::Table1
            | Request::Metrics
            | Request::StoreStats { .. }
            | Request::StoreCompact { .. } => None,
            Request::Table2(p)
            | Request::Figure6(p)
            | Request::Figure7(p)
            | Request::Figure8(p)
            | Request::Figure9(p)
            | Request::FamilySweep(p)
            | Request::Search { params: p, .. }
            | Request::CorpusSchedule { params: p, .. }
            | Request::CorpusStats { params: p, .. } => Some(p),
        }
    }

    /// The store configuration this request carries: the shared run
    /// params' store for experiment kinds, the admin variants' own, and
    /// `None` for kinds no store can apply to (`ping`, `shutdown`,
    /// `table1`, `metrics` and the corpus kinds, which measure nothing).
    /// The wire form writes this store, so a corpus request's params
    /// store never reaches the wire, where the decoder would refuse it.
    #[must_use]
    pub fn store(&self) -> Option<&StoreConfig> {
        match self {
            Request::StoreStats { store } | Request::StoreCompact { store } => Some(store),
            Request::CorpusSchedule { .. } | Request::CorpusStats { .. } => None,
            _ => self.params().map(|p| &p.store),
        }
    }

    /// Serialises the request as one compact JSON object (the wire
    /// format; always a single line).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind());
        out.push('"');
        if let Some(p) = self.params() {
            out.push_str(&format!(
                ",\"loops\":{},\"buses\":\"{}\",\"seed\":{}",
                p.loops,
                p.buses.name(),
                p.seed
            ));
        }
        if let Some(dir) = self.store().and_then(|s| s.dir.as_ref()) {
            let mut encoded = String::new();
            serde::write_json_str(&dir.display().to_string(), &mut encoded);
            out.push_str(&format!(",\"store\":{encoded}"));
        }
        if let Request::Search { search, .. } = self {
            out.push_str(&format!(
                ",\"strategy\":\"{}\",\"budget\":{},\"space\":\"{}\"",
                search.strategy.name(),
                search.budget,
                search.space.name()
            ));
            if search.racing {
                out.push_str(",\"racing\":true");
            }
            if let Some((shard, count)) = search.shard {
                out.push_str(&format!(",\"shard\":\"{shard}/{count}\""));
            }
        }
        if let Request::CorpusSchedule {
            input: Some(path), ..
        }
        | Request::CorpusStats {
            input: Some(path), ..
        } = self
        {
            let mut encoded = String::new();
            serde::write_json_str(&path.display().to_string(), &mut encoded);
            out.push_str(&format!(",\"input\":{encoded}"));
        }
        out.push('}');
        out
    }

    /// Parses a request from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or value on malformed
    /// JSON, an unknown `kind`, an unknown key, or a knob that does not
    /// apply to the requested kind.
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let value = serde_json::from_str(s).map_err(|e| format!("malformed request: {e}"))?;
        Self::from_json_value(&value)
    }

    /// Parses a request from an already-parsed JSON tree (see
    /// [`Request::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Request::from_json_str`].
    pub fn from_json_value(value: &Value) -> Result<Self, String> {
        let Value::Object(pairs) = value else {
            return Err(format!(
                "a request must be a JSON object, got {}",
                value.type_name()
            ));
        };
        let mut kind = None;
        let mut b = RequestBuilder::default();
        for (key, v) in pairs {
            if key == "kind" {
                let name = v
                    .as_str()
                    .ok_or_else(|| format!("kind must be a string, got {}", v.type_name()))?;
                kind = Some(name.to_owned());
            } else {
                b = b.set(key, v)?;
            }
        }
        b.kind = kind.ok_or("request is missing the kind key")?;
        b.build()
    }
}

/// How a knob's value is written: a JSON value on the wire, the word
/// after `--key` on the `paper` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobShape {
    /// A non-negative integer (`"budget":8`, `--budget 8`).
    Integer,
    /// A string (`"store":"DIR"`, `--store DIR`).
    Text,
    /// `true` when given (`"racing":true`, `--racing`).
    Switch,
}

/// One request knob: a key [`RequestBuilder::set`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The wire key, which is also the CLI flag `--key`.
    pub key: &'static str,
    /// The shape of its value.
    pub shape: KnobShape,
    /// The value's placeholder in `paper --help` (empty for a switch).
    pub arg: &'static str,
    /// What the knob does, and its default.
    pub help: &'static str,
}

/// Every request knob, in wire order. [`RequestBuilder::set`] decodes
/// exactly these keys, and [`RequestBuilder::build`] decides which kinds
/// take which.
pub const KNOBS: [Knob; 10] = [
    Knob {
        key: "loops",
        shape: KnobShape::Integer,
        arg: "N",
        help: "loops generated per benchmark (default 40; ~400 is the paper's suite size)",
    },
    Knob {
        key: "buses",
        shape: KnobShape::Text,
        arg: "1|2|both",
        help: "bus configurations to run (default both)",
    },
    Knob {
        key: "seed",
        shape: KnobShape::Integer,
        arg: "S",
        help: "workload and search seed (default 0, the committed fixtures)",
    },
    Knob {
        key: "store",
        shape: KnobShape::Text,
        arg: "DIR",
        help: "measurement store to reuse and extend (default: memory only)",
    },
    Knob {
        key: "strategy",
        shape: KnobShape::Text,
        arg: "hillclimb|anneal|ga|exhaustive",
        help: "search optimizer (default hillclimb)",
    },
    Knob {
        key: "budget",
        shape: KnobShape::Integer,
        arg: "N",
        help: "distinct candidate evaluations a search may spend (default 64)",
    },
    Knob {
        key: "space",
        shape: KnobShape::Text,
        arg: "paper|extended",
        help: "search space (default paper)",
    },
    Knob {
        key: "racing",
        shape: KnobShape::Switch,
        arg: "",
        help: "screen each search batch on a loop subsample first (same frontier)",
    },
    Knob {
        key: "shard",
        shape: KnobShape::Text,
        arg: "I/N",
        help: "search shard I of an N-way split of the grid, for search merge",
    },
    Knob {
        key: "input",
        shape: KnobShape::Text,
        arg: "FILE",
        help: "corpus file to load (default: the in-memory suite)",
    },
];

/// Incremental, programmatic construction of a [`Request`].
///
/// The wire parser and the `paper` CLI fill a builder key by key through
/// [`RequestBuilder::set`] and call [`RequestBuilder::build`], so a knob's
/// decoding and the "which knob applies to which kind" rules are defined
/// once for every front end. The typed setters are the programmatic
/// form of the same knobs.
#[derive(Debug, Clone, Default)]
pub struct RequestBuilder {
    kind: String,
    params: RunParams,
    params_seen: bool,
    store_seen: bool,
    search: SearchParams,
    search_seen: bool,
    input: Option<PathBuf>,
}

impl RequestBuilder {
    /// Loops generated per benchmark.
    #[must_use]
    pub fn loops(mut self, loops: usize) -> Self {
        self.params.loops = loops;
        self.params_seen = true;
        self
    }

    /// Bus configurations to run.
    #[must_use]
    pub fn buses(mut self, buses: BusSel) -> Self {
        self.params.buses = buses;
        self.params_seen = true;
        self
    }

    /// Global generation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self.params_seen = true;
        self
    }

    /// The persistent measurement store backing the run (or, for the
    /// store admin kinds, the store to operate on).
    #[must_use]
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.params.store = store;
        self.store_seen = true;
        self
    }

    /// The search strategy (`search` only).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.search.strategy = strategy;
        self.search_seen = true;
        self
    }

    /// The search evaluation budget (`search` only).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.search.budget = budget;
        self.search_seen = true;
        self
    }

    /// The configuration space to search (`search` only).
    #[must_use]
    pub fn space(mut self, space: SpaceKind) -> Self {
        self.search.space = space;
        self.search_seen = true;
        self
    }

    /// Enables successive-halving racing (`search` only).
    #[must_use]
    pub fn racing(mut self, racing: bool) -> Self {
        self.search.racing = racing;
        self.search_seen = true;
        self
    }

    /// Runs only 1-based shard `shard` of a `count`-way round-robin
    /// split of the gene grid (`search` only).
    #[must_use]
    pub fn shard(mut self, shard: u32, count: u32) -> Self {
        self.search.shard = Some((shard, count));
        self.search_seen = true;
        self
    }

    /// The corpus file to load (`corpus_schedule`/`corpus_stats` only).
    #[must_use]
    pub fn input(mut self, path: impl Into<PathBuf>) -> Self {
        self.input = Some(path.into());
        self
    }

    /// Sets the knob `key` from its wire value. This is the one decoder of
    /// knob values: the wire parser calls it for each key of a request
    /// object, and the `paper` CLI for each request flag.
    ///
    /// # Errors
    ///
    /// Returns a message naming the key when it is not one of [`KNOBS`]
    /// or its value has the wrong shape or range. Whether the knob
    /// applies to the kind is [`RequestBuilder::build`]'s check.
    pub fn set(self, key: &str, v: &Value) -> Result<Self, String> {
        if !KNOBS.iter().any(|k| k.key == key) {
            return Err(format!("unknown request key {key:?}"));
        }
        let text = |what: &str| {
            v.as_str()
                .ok_or_else(|| format!("{key} must be {what}, got {}", v.type_name()))
        };
        Ok(match key {
            "loops" => self.loops(
                v.as_u64()
                    .filter(|&n| n > 0)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("loops must be a positive integer")?,
            ),
            "buses" => {
                let name = match v {
                    Value::String(s) => s.clone(),
                    _ => v
                        .as_u64()
                        .ok_or_else(|| format!("buses takes 1, 2 or both, got {}", v.type_name()))?
                        .to_string(),
                };
                self.buses(BusSel::from_name(&name).ok_or("buses takes 1, 2 or both")?)
            }
            "seed" => self.seed(v.as_u64().ok_or("seed must be a non-negative integer")?),
            "store" => self.store(StoreConfig::at(text("a string path")?)),
            "strategy" => self.strategy(text("a string")?.parse()?),
            "budget" => self.budget(
                v.as_u64()
                    .filter(|&n| n > 0)
                    .ok_or("budget must be a positive integer")?,
            ),
            "space" => self.space(
                SpaceKind::from_name(text("a string")?).ok_or("space takes paper or extended")?,
            ),
            "racing" => self.racing(
                v.as_bool()
                    .ok_or_else(|| format!("racing must be a bool, got {}", v.type_name()))?,
            ),
            "shard" => {
                let (i, n) = text("a string \"i/n\"")?
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
                    .ok_or("shard must be \"i/n\" with positive integers")?;
                self.shard(i, n)
            }
            "input" => self.input(text("a string path")?),
            other => return Err(format!("unknown request key {other:?}")),
        })
    }

    /// Assembles the request, validating that every knob that was set
    /// applies to the kind — the same rules, word for word, that the
    /// wire parser enforces.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob on an unknown kind
    /// or a knob that does not apply to it.
    pub fn build(self) -> Result<Request, String> {
        let RequestBuilder {
            kind,
            params,
            params_seen,
            store_seen,
            search,
            search_seen,
            input,
        } = self;
        if search_seen && kind != "search" {
            return Err(
                "strategy/budget/space/racing/shard only apply to the search kind".to_owned(),
            );
        }
        if let Some((i, n)) = search.shard {
            if i < 1 || i > n {
                return Err(format!("shard {i}/{n} is not \"i/n\" with 1 <= i <= n"));
            }
        }
        if input.is_some() && !kind.starts_with("corpus_") {
            return Err(
                "input only applies to the corpus_schedule and corpus_stats kinds".to_owned(),
            );
        }
        let reject_params = |what: &str| -> Result<(), String> {
            if params_seen {
                Err(format!("loops/buses/seed do not apply to the {what} kind"))
            } else {
                Ok(())
            }
        };
        let reject_store = |what: &str| -> Result<(), String> {
            if store_seen {
                Err(format!("store does not apply to the {what} kind"))
            } else {
                Ok(())
            }
        };
        let store = params.store.clone();
        match kind.as_str() {
            "ping" => {
                reject_params("ping")?;
                reject_store("ping")?;
                Ok(Request::Ping)
            }
            "shutdown" => {
                reject_params("shutdown")?;
                reject_store("shutdown")?;
                Ok(Request::Shutdown)
            }
            "table1" => {
                reject_params("table1")?;
                reject_store("table1")?;
                Ok(Request::Table1)
            }
            "table2" => Ok(Request::Table2(params)),
            "figure6" => Ok(Request::Figure6(params)),
            "figure7" => Ok(Request::Figure7(params)),
            "figure8" => Ok(Request::Figure8(params)),
            "figure9" => Ok(Request::Figure9(params)),
            "familysweep" => Ok(Request::FamilySweep(params)),
            "search" => Ok(Request::Search { params, search }),
            // The corpus kinds measure nothing, so a store would be a
            // silent no-op.
            "corpus_schedule" => {
                reject_store("corpus_schedule")?;
                Ok(Request::CorpusSchedule { params, input })
            }
            "corpus_stats" => {
                reject_store("corpus_stats")?;
                Ok(Request::CorpusStats { params, input })
            }
            "store_stats" => {
                reject_params("store_stats")?;
                Ok(Request::StoreStats { store })
            }
            "store_compact" => {
                reject_params("store_compact")?;
                Ok(Request::StoreCompact { store })
            }
            "metrics" => {
                reject_params("metrics")?;
                reject_store("metrics")?;
                Ok(Request::Metrics)
            }
            "" => Err("request is missing the kind key".to_owned()),
            other => Err(format!("unknown request kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_kind() {
        let params = RunParams {
            loops: 5,
            buses: BusSel::One,
            seed: 3,
            store: StoreConfig::none(),
        };
        let stored = RunParams {
            store: StoreConfig::at("/tmp/paper store"),
            ..params.clone()
        };
        let reqs = [
            Request::Ping,
            Request::Shutdown,
            Request::Table1,
            Request::Table2(params.clone()),
            Request::Figure6(params.clone()),
            Request::Figure6(stored.clone()),
            Request::Figure7(params.clone()),
            Request::Figure8(params.clone()),
            Request::Figure9(params.clone()),
            Request::FamilySweep(params.clone()),
            Request::Search {
                params: stored.clone(),
                search: SearchParams {
                    strategy: Strategy::Anneal,
                    budget: 8,
                    space: SpaceKind::Extended,
                    racing: false,
                    shard: None,
                },
            },
            Request::Search {
                params: stored,
                search: SearchParams {
                    strategy: Strategy::Genetic,
                    budget: 200,
                    space: SpaceKind::Extended,
                    racing: true,
                    shard: Some((2, 3)),
                },
            },
            Request::CorpusSchedule {
                params: params.clone(),
                input: Some(PathBuf::from("/tmp/a corpus.json")),
            },
            Request::CorpusStats {
                params,
                input: None,
            },
            Request::StoreStats {
                store: StoreConfig::none(),
            },
            Request::StoreStats {
                store: StoreConfig::at("/tmp/paper store"),
            },
            Request::StoreCompact {
                store: StoreConfig::at("/tmp/paper store"),
            },
            Request::Metrics,
        ];
        for req in reqs {
            let wire = req.to_json_string();
            assert!(!wire.contains('\n'), "wire form is one line: {wire}");
            let back = Request::from_json_str(&wire).expect("round trip");
            assert_eq!(back, req, "through {wire}");
        }
    }

    #[test]
    fn defaults_match_the_cli() {
        let req = Request::from_json_str("{\"kind\":\"figure6\"}").unwrap();
        assert_eq!(req, Request::Figure6(RunParams::default()));
        let req = Request::from_json_str("{\"kind\":\"search\"}").unwrap();
        assert_eq!(
            req,
            Request::Search {
                params: RunParams::default(),
                search: SearchParams::default(),
            }
        );
    }

    #[test]
    fn store_key_stays_off_the_wire_when_disabled() {
        // Pre-store clients never sent a store key; post-store servers
        // must keep producing the exact same lines for store-less
        // requests (and vice versa).
        let req = Request::Figure6(RunParams {
            loops: 5,
            buses: BusSel::One,
            seed: 3,
            store: StoreConfig::none(),
        });
        assert_eq!(
            req.to_json_string(),
            "{\"kind\":\"figure6\",\"loops\":5,\"buses\":\"1\",\"seed\":3}"
        );
        let req = Request::from_json_str("{\"kind\":\"figure6\",\"store\":\"target/paper-store\"}")
            .unwrap();
        assert_eq!(
            req.store().and_then(|s| s.dir.as_deref()),
            Some(std::path::Path::new("target/paper-store"))
        );
        // The corpus kinds take no store, so a params store set in Rust
        // stays off the wire, where the decoder would refuse it.
        let corpus = Request::CorpusStats {
            params: RunParams {
                store: StoreConfig::at("/tmp/s"),
                ..RunParams::default()
            },
            input: None,
        };
        assert_eq!(
            corpus.to_json_string(),
            "{\"kind\":\"corpus_stats\",\"loops\":40,\"buses\":\"both\",\"seed\":0}"
        );
    }

    #[test]
    fn numeric_buses_accepted() {
        let req = Request::from_json_str("{\"kind\":\"figure6\",\"buses\":2}").unwrap();
        assert_eq!(
            req.params().unwrap().buses,
            BusSel::Two,
            "numeric bus selector"
        );
    }

    #[test]
    fn builder_matches_the_wire_parser() {
        let built = Request::builder("search")
            .loops(5)
            .buses(BusSel::One)
            .seed(3)
            .store(StoreConfig::at("/tmp/store"))
            .strategy(Strategy::Anneal)
            .budget(8)
            .space(SpaceKind::Extended)
            .racing(true)
            .shard(1, 4)
            .build()
            .unwrap();
        let parsed = Request::from_json_str(&built.to_json_string()).unwrap();
        assert_eq!(built, parsed, "builder and parser assemble identically");

        // The builder enforces exactly the parser's applicability rules.
        for (builder, needle) in [
            (Request::builder("ping").loops(2), "do not apply"),
            (
                Request::builder("table1").store(StoreConfig::at("/s")),
                "does not apply",
            ),
            (
                Request::builder("figure6").budget(2),
                "only apply to the search",
            ),
            (
                Request::builder("figure6").racing(true),
                "only apply to the search",
            ),
            (
                Request::builder("table2").shard(1, 2),
                "only apply to the search",
            ),
            (Request::builder("search").shard(0, 2), "1 <= i <= n"),
            (Request::builder("search").shard(3, 2), "1 <= i <= n"),
            (Request::builder("store_stats").seed(1), "do not apply"),
            (Request::builder("search").input("x"), "corpus_schedule"),
            (Request::builder("nope"), "unknown request kind"),
        ] {
            let err = builder.build().unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn set_decodes_every_knob_and_nothing_else() {
        for knob in KNOBS {
            // A value of the wrong shape is refused by the knob's own arm,
            // which names the key; an unlisted key gets the generic error.
            let wrong = match knob.shape {
                KnobShape::Switch => Value::String("yes".to_owned()),
                KnobShape::Integer | KnobShape::Text => Value::Bool(true),
            };
            let err = RequestBuilder::default().set(knob.key, &wrong).unwrap_err();
            assert!(err.starts_with(knob.key), "{}: {err}", knob.key);
        }
        let err = RequestBuilder::default()
            .set("kind", &Value::Bool(true))
            .unwrap_err();
        assert_eq!(err, "unknown request key \"kind\"");
    }

    #[test]
    fn strict_parsing_rejects_misuse() {
        for (json, needle) in [
            ("[1]", "must be a JSON object"),
            ("{\"kind\":\"nope\"}", "unknown request kind"),
            ("{\"kind\":\"schedbench\"}", "unknown request kind"),
            ("{\"kind\":\"searchbench\"}", "unknown request kind"),
            (
                "{\"kind\":\"figure6\",\"profile\":true}",
                "unknown request key",
            ),
            ("{\"loops\":5}", "missing the kind"),
            ("{\"kind\":\"figure6\",\"frobs\":1}", "unknown request key"),
            (
                "{\"kind\":\"figure6\",\"budget\":5}",
                "only apply to the search",
            ),
            ("{\"kind\":\"search\",\"input\":\"x\"}", "corpus_schedule"),
            ("{\"kind\":\"ping\",\"loops\":5}", "do not apply"),
            ("{\"kind\":\"ping\",\"store\":\"/tmp/s\"}", "does not apply"),
            ("{\"kind\":\"metrics\",\"loops\":5}", "do not apply"),
            (
                "{\"kind\":\"metrics\",\"store\":\"/tmp/s\"}",
                "does not apply",
            ),
            (
                "{\"kind\":\"corpus_stats\",\"store\":\"/tmp/s\"}",
                "does not apply",
            ),
            (
                "{\"kind\":\"corpus_schedule\",\"store\":\"/tmp/s\"}",
                "does not apply",
            ),
            ("{\"kind\":\"store_stats\",\"loops\":5}", "do not apply"),
            (
                "{\"kind\":\"store_compact\",\"budget\":5}",
                "only apply to the search",
            ),
            (
                "{\"kind\":\"figure6\",\"store\":7}",
                "must be a string path",
            ),
            ("{\"kind\":\"figure6\",\"loops\":0}", "positive integer"),
            ("{\"kind\":\"figure6\",\"buses\":\"3\"}", "1, 2 or both"),
            (
                "{\"kind\":\"figure6\",\"racing\":true}",
                "only apply to the search",
            ),
            ("{\"kind\":\"search\",\"racing\":1}", "must be a bool"),
            ("{\"kind\":\"search\",\"shard\":3}", "must be a string"),
            ("{\"kind\":\"search\",\"shard\":\"3\"}", "positive integers"),
            ("{\"kind\":\"search\",\"shard\":\"0/3\"}", "1 <= i <= n"),
            ("not json", "malformed request"),
        ] {
            let err = Request::from_json_str(json).unwrap_err();
            assert!(err.contains(needle), "{json} -> {err}");
        }
    }
}
