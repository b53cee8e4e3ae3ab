//! Allocation discipline of the voltage descent.
//!
//! A counting global allocator wraps the system allocator. On supply rows
//! a suite has already tabulated, a descent allocates only while it sets
//! up: its price fold's per-domain state and per-usage terms, and its two
//! results (the kept supplies and the winner's scalings). Per sweep and
//! per candidate it allocates nothing, so the count is pinned and the
//! same for one usage and for ten, whatever path the descent takes.
//!
//! Allocations are counted per thread, so sibling tests allocating on
//! their own threads never leak into a measured window and the suite
//! holds at any `--test-threads` count.
//!
//! This catches a change that puts heap work back into the descent's
//! sweeps — a cloned group, a per-candidate scaling, a per-sweep prefix
//! buffer — which every §5.1 baseline, §3.3 selection and paper-space
//! search decode would pay for hundreds of times a request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation passed to the system
/// allocator on the calling thread.
struct CountingAlloc;

thread_local! {
    // A `const` initialiser needs no lazy set-up, so the allocator hook
    // can bump it without allocating (and recursing) itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` tolerates threads that are already tearing down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`, only incrementing counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

use vliw_exec::Executor;
use vliw_explore::experiments::profile_suite;
use vliw_explore::{optimise_voltages_grouped, suite_reference};
use vliw_machine::{ClockedConfig, FrequencyMenu, Time};
use vliw_power::{EnergyShares, PowerModel, UsageProfile};
use vliw_workloads::suite_seeded;

/// What a descent on the paper's machine allocates: its price fold's
/// domains and usage terms, its kept supplies and its winner's scalings.
const DESCENT_ALLOCATIONS: u64 = 4;

#[test]
fn a_descent_allocates_only_its_set_up_and_results() {
    let suite = profile_suite(&suite_seeded(2, 0), 1, &Executor::serial(), None)
        .expect("generated suites schedule");
    let design = suite.design;
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &suite_reference(&suite.profiles),
    );
    let menu = FrequencyMenu::unrestricted();
    let reference = ClockedConfig::REFERENCE_CYCLE.as_ns();
    // A homogeneous machine swept as one group, a heterogeneous one as a
    // fast and a slow group, and one too fast for 1 V, which starts from
    // the top of every range.
    let cases = [
        (
            ClockedConfig::homogeneous(design, Time::from_ns(reference)),
            vec![(0..4).collect()],
        ),
        (
            ClockedConfig::heterogeneous(
                design,
                Time::from_ns(reference * 0.9),
                1,
                Time::from_ns(reference * 0.9 * 1.25),
            ),
            vec![vec![0], (1..4).collect()],
        ),
        (
            ClockedConfig::homogeneous(design, Time::from_ns(reference * 0.77)),
            vec![(0..4).collect()],
        ),
    ];
    for (case, (base, groups)) in cases.iter().enumerate() {
        let usages: Vec<UsageProfile> = (0..suite.profiles.len())
            .map(|i| {
                suite
                    .estimate_memoised(i, base, &menu)
                    .expect("an estimate")
            })
            .collect();
        assert_eq!(usages.len(), 10);
        let at_1v = power.estimate_energy(base, &usages[0]).is_some();
        assert_eq!(at_1v, case < 2, "case {case} starts at 1 V");
        let rows = suite.supply_rows(base);
        for usages in [&usages[..1], &usages[..]] {
            let before = allocations();
            let descent = optimise_voltages_grouped(base, groups, &power, usages, &rows);
            let made = allocations() - before;
            let descent = descent.expect("a feasible start");
            assert!(descent.pricings > 0);
            assert_eq!(
                made,
                DESCENT_ALLOCATIONS,
                "case {case}, {} usage(s)",
                usages.len()
            );
        }
    }
}
