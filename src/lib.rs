//! `heterovliw` — umbrella crate of the CGO 2007 *Heterogeneous Clustered
//! VLIW Microarchitectures* reproduction (Aletà, Codina, González, Kaeli).
//!
//! It re-exports every layer crate of the workspace under a short name —
//!
//! * [`ir`] — loop data-dependence graphs and recurrence analysis,
//! * [`machine`] — the clustered VLIW machine and MCD clocking model,
//! * [`power`] — the §3.1 energy model, scaling laws and ED²,
//! * [`sched`] — the §4 heterogeneous modulo scheduler,
//! * [`search`] — metaheuristic design-space optimizers and the Pareto
//!   archive,
//! * [`sim`] — schedule validation, execution and profiling,
//! * [`store`] — the persistent content-addressed measurement store,
//! * [`workloads`] — the synthetic SPECfp2000 loop suites,
//! * [`exec`] — the deterministic worker pool every pipeline step takes,
//! * [`explore`] — §3.2/§3.3 estimation, configuration selection, the
//!   paper's experiment runners, and the measured design-space search,
//! * [`obs`] — the metrics registry and the span tracer,
//! * [`api`] — the front door: one serialisable [`api::Request`] per
//!   experiment, run by the caching [`api::Engine`] into an
//!   [`api::Response`], plus the Unix-socket daemon and its client.
//!
//! ```
//! use heterovliw::{ir::DdgBuilder, machine::MachineDesign};
//! let design = MachineDesign::paper_machine(1);
//! assert_eq!(design.num_clusters, 4);
//! let _ = DdgBuilder::new("loop");
//! ```
//!
//! Every experiment of the paper's evaluation is a request:
//!
//! ```no_run
//! use heterovliw::api::{BusSel, Engine, Request};
//!
//! // Reproduce Figure 6 (1 bus) on a reduced suite.
//! let req = Request::builder("figure6").loops(12).buses(BusSel::One).build()?;
//! let resp = Engine::new(0).run(&req);
//! print!("{}", resp.text);
//! # Ok::<(), String>(())
//! ```

pub use vliw_api as api;
pub use vliw_exec as exec;
pub use vliw_explore as explore;
pub use vliw_ir as ir;
pub use vliw_machine as machine;
pub use vliw_obs as obs;
pub use vliw_power as power;
pub use vliw_sched as sched;
pub use vliw_search as search;
pub use vliw_sim as sim;
pub use vliw_store as store;
pub use vliw_workloads as workloads;
