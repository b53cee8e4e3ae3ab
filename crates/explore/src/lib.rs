//! Frequency/voltage design-space exploration and the CGO 2007 paper's
//! experiment runners.
//!
//! This crate closes the loop of the paper's methodology:
//!
//! 1. **Profile** a suite on the reference homogeneous machine
//!    ([`experiments::profile_suite`]) — every loop is actually modulo
//!    scheduled and simulated, yielding the dynamic information (§3) the
//!    models consume;
//! 2. **Estimate** the usage of *any* candidate configuration from that
//!    profile alone ([`estimate_usage`]: exact for frequency-homogeneous
//!    machines, §5.1, and §3.2's IT / `it_length` estimation otherwise)
//!    and price it with §3.1's energy model
//!    ([`vliw_power::PowerModel::price`]);
//! 3. Search the **optimum homogeneous** baseline (§5.1,
//!    [`optimum_homogeneous_suite`]) and **select** the best heterogeneous
//!    configuration (§3.3, [`select_heterogeneous`]);
//! 4. **Run** the selected configuration for real — every loop is
//!    re-scheduled with the heterogeneous modulo scheduler and ED² is
//!    measured, not estimated ([`experiments`]).
//!
//! Every step is one function taking an [`Executor`](vliw_exec::Executor);
//! `Executor::serial()` is the serial case, and results are identical for
//! every worker count. A measurement has one content address, the
//! [`StoreKey`](vliw_store::StoreKey) of [`store_keys`], shared by the
//! in-memory memo and the persistent store.
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation (Table 2, Figures 6–9); `vliw-api`'s `Engine`
//! serves them as requests. Beyond the paper's fixed grid, [`run_search`]
//! runs every design-space search over the profiled suites ([`search`]
//! decodes and measures candidates, [`scale`] adds racing, warm starts
//! and sharding); an unsharded search is shard 1 of 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod estimate;
pub mod experiments;
mod homog;
mod profile;
pub mod scale;
pub mod search;
mod select;
pub mod store_keys;

pub use estimate::{estimate_usage, HetEstimate};
pub use homog::{
    optimise_voltages_grouped, optimum_homogeneous_suite, HomogChoice, SuiteBaseline, SupplyRows,
    VoltageDescent, HOMOG_CYCLE_FACTORS,
};
pub use profile::{suite_reference, BenchmarkProfile, LoopProfile};
pub use scale::{merge_shard_reports, run_search, MergedReport, SearchRun, ShardReport};
pub use search::{ConfigSpace, SearchContext, SearchReport, SpaceKind};
pub use select::{candidate_grid, select_heterogeneous, HeteroChoice};
pub use store_keys::config_fingerprint;

// Everything the parallel experiment runners share across worker threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<BenchmarkProfile>();
    _assert_send_sync::<LoopProfile>();
    _assert_send_sync::<HeteroChoice>();
    _assert_send_sync::<HomogChoice>();
    _assert_send_sync::<SuiteBaseline>();
    _assert_send_sync::<SupplyRows>();
    _assert_send_sync::<VoltageDescent>();
    _assert_send_sync::<HetEstimate>();
    _assert_send_sync::<experiments::ProfiledSuite>();
    _assert_send_sync::<experiments::ExperimentOptions>();
    _assert_send_sync::<experiments::MeasureCache>();
    _assert_send_sync::<ConfigSpace>();
    _assert_send_sync::<SearchReport>();
    _assert_send_sync::<ShardReport>();
    _assert_send_sync::<MergedReport>();
    _assert_send_sync::<SearchRun>();
};
