//! Request/response service core for the `heterovliw` experiment layer.
//!
//! Every entry point of the reproduction — the paper's tables and
//! figures, the corpus analyses and the design-space search — is
//! expressed here as a serialisable [`Request`]. One shared [`Engine`]
//! executes requests against process-lifetime caches (reference
//! profiles and the measurement memo cache survive across requests),
//! and every [`Response`] wraps the exact byte-stable text and JSON
//! artefacts the one-shot `paper` CLI has always produced, plus
//! [`CacheStats`] so cache reuse is observable.
//!
//! On top of the engine sit three thin transports:
//!
//! * the `paper` CLI builds a [`Request`], runs it in-process and
//!   persists the response's artefacts ([`artifacts`]);
//! * [`serve`](crate::serve::serve) exposes the same engine as a daemon
//!   speaking newline-delimited JSON over a Unix socket
//!   (`std::os::unix::net`, no external dependencies) with concurrent
//!   connections, request batching, per-request error responses and
//!   graceful shutdown;
//! * [`client`] holds the matching client plus the [`loadgen`] harness
//!   reporting p50/p99 latency and requests per second.
//!
//! The wire format is one JSON value per line: a request object (or an
//! array of request objects, executed as one batch through the shared
//! engine) going in, a [`Response`] object (or array) coming back.
//! Responses serialise compactly — JSON string escaping keeps embedded
//! newlines out of the framing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifacts;
pub mod client;
pub mod engine;
pub mod request;
pub mod response;
pub mod serve;

pub use artifacts::{format_bar, persist_response, write_atomic};
pub use client::{loadgen, Client, LoadgenOptions, LoadgenReport};
pub use engine::Engine;
pub use request::{BusSel, Request, RequestBuilder, RunParams, SearchParams};
pub use response::{CacheStats, Response, FORMAT_VERSION};
pub use serve::{serve, ServeOptions, MAX_LINE_BYTES};
pub use vliw_store::StoreConfig;
