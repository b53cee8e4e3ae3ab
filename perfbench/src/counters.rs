//! In-program counters, read by name through the `vliw_obs` registry.
//! A snapshot before and after an op gives that op's exact work.

/// The registry values one op's ledger needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub suite_cache_misses: u64,
    pub loops_scheduled: u64,
    pub schedule_nanos: u64,
    pub records_read: u64,
    pub bytes_read: u64,
    pub records_written: u64,
    pub bytes_written: u64,
    pub search_evals: u64,
    pub search_screens: u64,
    pub exec_tasks: u64,
    pub exec_busy_nanos: u64,
    /// `engine_request_nanos{kind}` sum (only recorded with timing on).
    pub engine_nanos: u64,
    /// `serve_request_nanos{kind}` sum (the daemon's server-side time).
    pub serve_nanos: u64,
}

impl Counters {
    /// Reads the registry. `kind` labels the per-request histograms;
    /// `workers` bounds the executor's `worker` label values.
    #[must_use]
    pub fn read(kind: &str, workers: usize) -> Self {
        let c = |name: &str| vliw_obs::counter(name).get();
        let per_worker = |name: &str| -> u64 {
            (0..workers)
                .map(|w| vliw_obs::counter_with(name, "worker", &w.to_string()).get())
                .sum()
        };
        Counters {
            suite_cache_misses: c("engine_suite_cache_misses_total"),
            loops_scheduled: c("sched_loops_scheduled_total"),
            schedule_nanos: vliw_obs::histogram("sched_schedule_nanos").sum(),
            records_read: c("store_records_read_total"),
            bytes_read: c("store_bytes_read_total"),
            records_written: c("store_records_written_total"),
            bytes_written: c("store_bytes_written_total"),
            search_evals: c("search_evals_total"),
            search_screens: c("search_screens_total"),
            exec_tasks: per_worker("exec_tasks_total"),
            exec_busy_nanos: per_worker("exec_worker_busy_nanos_total"),
            engine_nanos: vliw_obs::histogram_with("engine_request_nanos", "kind", kind).sum(),
            serve_nanos: vliw_obs::histogram_with("serve_request_nanos", "kind", kind).sum(),
        }
    }

    /// What happened between `before` and `self`.
    #[must_use]
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            suite_cache_misses: self.suite_cache_misses - before.suite_cache_misses,
            loops_scheduled: self.loops_scheduled - before.loops_scheduled,
            schedule_nanos: self.schedule_nanos - before.schedule_nanos,
            records_read: self.records_read - before.records_read,
            bytes_read: self.bytes_read - before.bytes_read,
            records_written: self.records_written - before.records_written,
            bytes_written: self.bytes_written - before.bytes_written,
            search_evals: self.search_evals - before.search_evals,
            search_screens: self.search_screens - before.search_screens,
            exec_tasks: self.exec_tasks - before.exec_tasks,
            exec_busy_nanos: self.exec_busy_nanos - before.exec_busy_nanos,
            engine_nanos: self.engine_nanos - before.engine_nanos,
            serve_nanos: self.serve_nanos - before.serve_nanos,
        }
    }
}
