//! Steady-state allocation discipline of the scheduler workspace.
//!
//! A counting global allocator wraps the system allocator; the test
//! schedules a representative loop once through a [`SchedWorkspace`] to
//! warm every buffer, then asserts that re-running the exact same
//! scheduling work performs **zero** heap allocations.
//!
//! Allocations are counted per thread, so sibling tests allocating on
//! their own threads never leak into a measured window and the suite
//! holds at any `--test-threads` count.
//!
//! This is the tier-1 guard for the workspace architecture: any future
//! change that sneaks a per-attempt `Vec`/`HashMap` back into the IMS
//! inner loop or the partitioner fails here immediately.

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

use vliw_ir::{Ddg, DdgBuilder, OpClass};
use vliw_machine::{ClockedConfig, ClusterId, FrequencyMenu, MachineDesign, Time, Voltages};
use vliw_power::{EnergyShares, PowerModel, ReferenceProfile};
use vliw_sched::ims;
use vliw_sched::partition::evaluate_partition_ws;
use vliw_sched::{
    partition_candidates_ws, ExtGraph, LoopClocks, PartitionObjective, PartitionScratch,
    SchedWorkspace,
};

/// A representative loop body: loads feeding a multiply/add tree with an
/// accumulator recurrence and a store — chains, fans, a carried cycle and
/// all three FU kinds.
fn representative_ddg() -> Ddg {
    let mut b = DdgBuilder::new("rep");
    let l0 = b.op("ld a[i]", OpClass::FpMemory);
    let l1 = b.op("ld b[i]", OpClass::FpMemory);
    let l2 = b.op("ld c[i]", OpClass::FpMemory);
    let m0 = b.op("mul0", OpClass::FpMul);
    let m1 = b.op("mul1", OpClass::FpMul);
    let s0 = b.op("add0", OpClass::FpArith);
    let acc = b.op("acc", OpClass::FpArith);
    let idx = b.op("i++", OpClass::IntArith);
    let st = b.op("st d[i]", OpClass::FpMemory);
    b.flow(l0, m0);
    b.flow(l1, m0);
    b.flow(l1, m1);
    b.flow(l2, m1);
    b.flow(m0, s0);
    b.flow(m1, s0);
    b.flow(s0, acc);
    b.flow_carried(acc, acc, 1);
    b.flow(acc, st);
    b.flow_carried(idx, idx, 1);
    b.build().unwrap()
}

/// Schedules the same extended graph twice through one workspace: the
/// second pass must not touch the allocator at all.
#[test]
fn second_pass_through_workspace_allocates_nothing() {
    let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
    let clocks = LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(6.0))
        .expect("IT 6 ns synchronises the reference machine");
    let ddg = representative_ddg();
    // A two-cluster split so copies, the bus MRT and cross-cluster
    // lifetimes are all exercised.
    let assignment = [
        ClusterId(0),
        ClusterId(0),
        ClusterId(1),
        ClusterId(0),
        ClusterId(1),
        ClusterId(0),
        ClusterId(0),
        ClusterId(1),
        ClusterId(0),
    ];
    // Warm the DDG's analysis caches (SCCs, topo order, recMII) outside
    // the measured window, exactly as the IT-retry driver does before the
    // first IMS attempt.
    ddg.validate_schedulable().unwrap();
    let _ = ddg.rec_mii();
    let graph = ExtGraph::build(&ddg, &assignment, &config, &clocks);

    let mut ws = SchedWorkspace::new();
    // First pass grows every buffer to its steady-state capacity.
    ims::schedule_into(&graph, &config, &clocks, &mut ws)
        .expect("representative loop schedules at IT 6 ns");
    let first_cycles: Vec<u64> = ws.issue_cycles().to_vec();

    // Second pass: identical work, zero allocations.
    let before = allocations();
    let result = ims::schedule_into(&graph, &config, &clocks, &mut ws);
    let after = allocations();
    assert!(result.is_ok(), "second pass schedules identically");
    assert_eq!(
        after - before,
        0,
        "steady-state scheduling must not allocate (second pass performed {} allocations)",
        after - before
    );
    assert_eq!(
        ws.issue_cycles(),
        first_cycles.as_slice(),
        "workspace reuse must not change the schedule"
    );
}

/// The workspace also reaches steady state across *different* loops of the
/// same shape family: after scheduling one loop, re-scheduling it at a
/// different (previously seen) initiation time allocates nothing either.
#[test]
fn it_retry_reuse_allocates_nothing_once_warm() {
    let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
    let menu = FrequencyMenu::unrestricted();
    let ddg = representative_ddg();
    ddg.validate_schedulable().unwrap();
    let _ = ddg.rec_mii();
    let assignment = [ClusterId(0); 9];
    let clocks_a = LoopClocks::select(&config, &menu, Time::from_ns(6.0)).unwrap();
    let clocks_b = LoopClocks::select(&config, &menu, Time::from_ns(8.0)).unwrap();
    let graph_a = ExtGraph::build(&ddg, &assignment, &config, &clocks_a);
    let graph_b = ExtGraph::build(&ddg, &assignment, &config, &clocks_b);

    let mut ws = SchedWorkspace::new();
    // Warm both IT shapes (8 cycles is the larger MRT).
    ims::schedule_into(&graph_b, &config, &clocks_b, &mut ws).unwrap();
    ims::schedule_into(&graph_a, &config, &clocks_a, &mut ws).unwrap();

    let before = allocations();
    ims::schedule_into(&graph_b, &config, &clocks_b, &mut ws).unwrap();
    ims::schedule_into(&graph_a, &config, &clocks_a, &mut ws).unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "IT-retry reuse must not allocate once buffers are warm"
    );
}

/// Observability must not break the steady-state discipline: with
/// timing enabled and the metric handles warm (exactly the state of the
/// instrumented `schedule_loop` wrapper after its first call), a
/// scheduling pass plus its counter increment, clock reads and
/// histogram record — and even a registry re-lookup by name, which must
/// hit the borrowed-key fast path — allocate nothing.
#[test]
fn metrics_enabled_steady_state_allocates_nothing() {
    vliw_obs::enable_timing();
    let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
    let clocks =
        LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(6.0)).unwrap();
    let ddg = representative_ddg();
    ddg.validate_schedulable().unwrap();
    let _ = ddg.rec_mii();
    let assignment = [ClusterId(0); 9];
    let graph = ExtGraph::build(&ddg, &assignment, &config, &clocks);

    let mut ws = SchedWorkspace::new();
    ims::schedule_into(&graph, &config, &clocks, &mut ws).unwrap();
    // Warm the handles (first intern inserts into the registry).
    let loops = vliw_obs::counter("zero_alloc_loops_total");
    let nanos = vliw_obs::histogram("zero_alloc_schedule_nanos");
    loops.inc();
    if let Some(s) = vliw_obs::timer_start() {
        nanos.record(vliw_obs::elapsed_nanos(s));
    }

    let before = allocations();
    loops.inc();
    let start = vliw_obs::timer_start();
    ims::schedule_into(&graph, &config, &clocks, &mut ws).unwrap();
    if let Some(s) = start {
        nanos.record(vliw_obs::elapsed_nanos(s));
    }
    vliw_obs::counter("zero_alloc_loops_total").inc();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "instrumented steady-state scheduling must not allocate"
    );
    assert_eq!(loops.get(), 3, "every increment landed");
    assert!(nanos.count() >= 1, "the timed pass was recorded");
}

/// The bitset MRTs keep their retained storage across IIs wider than one
/// 64-bit word: once a workspace has seen a multi-word reservation window
/// (II > 64 local cycles in some domain), re-scheduling at that shape
/// allocates nothing.
#[test]
fn multi_word_mrt_reuse_allocates_nothing_once_warm() {
    let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
    let menu = FrequencyMenu::unrestricted();
    // A long chain of int ops so a very large IT still has placements
    // spread across the window rather than all at cycle 0.
    let mut b = DdgBuilder::new("wide");
    let ids: Vec<_> = (0..24)
        .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
        .collect();
    for w in ids.windows(2) {
        b.flow(w[0], w[1]);
    }
    let ddg = b.build().unwrap();
    ddg.validate_schedulable().unwrap();
    let _ = ddg.rec_mii();
    let assignment = vec![ClusterId(0); 24];
    // IT 70 ns => 70 rows per FU kind at the reference 1 GHz clock: the
    // per-unit row-sets span two u64 words (wpr = 2).
    let clocks = LoopClocks::select(&config, &menu, Time::from_ns(70.0)).unwrap();
    let graph = ExtGraph::build(&ddg, &assignment, &config, &clocks);

    let mut ws = SchedWorkspace::new();
    ims::schedule_into(&graph, &config, &clocks, &mut ws).unwrap();

    let before = allocations();
    ims::schedule_into(&graph, &config, &clocks, &mut ws).unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "multi-word MRT reuse must not allocate once buffers are warm"
    );
}

/// A power-objective pseudo-schedule evaluation prices the candidate from
/// the domain scalings its context cached when it was built, through the
/// scratch's per-cluster buffer, so a warm `evaluate_partition_ws` with
/// an energy model allocates nothing.
#[test]
fn power_objective_evaluation_allocates_nothing_once_warm() {
    let design = MachineDesign::paper_machine(1);
    let config = ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25))
        .with_voltages(Voltages {
            clusters: vec![1.0, 0.8, 0.8, 0.8],
            icn: 1.0,
            cache: 1.0,
        });
    let clocks =
        LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(5.0)).unwrap();
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &ReferenceProfile {
            weighted_ins: 10_000.0,
            comms: 500,
            mem_accesses: 2_000,
            exec_time: Time::from_ns(10_000.0),
        },
    );
    let objective = PartitionObjective {
        power: Some(&power),
        trip_count: 100,
    };
    let ddg = representative_ddg();
    ddg.validate_schedulable().unwrap();
    let recurrences = ddg.recurrences();
    let assignment = [
        ClusterId(0),
        ClusterId(1),
        ClusterId(2),
        ClusterId(0),
        ClusterId(1),
        ClusterId(0),
        ClusterId(0),
        ClusterId(3),
        ClusterId(2),
    ];

    let mut scratch = PartitionScratch::new();
    let first = evaluate_partition_ws(
        &ddg,
        &assignment,
        recurrences,
        &config,
        &clocks,
        &objective,
        &mut scratch,
    );
    assert!(first.energy.is_finite(), "the configuration is feasible");

    let before = allocations();
    let second = evaluate_partition_ws(
        &ddg,
        &assignment,
        recurrences,
        &config,
        &clocks,
        &objective,
        &mut scratch,
    );
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warm power-objective evaluation must not allocate"
    );
    assert_eq!(second, first, "scratch reuse must not change the estimate");
}

/// The partitioner keeps every buffer in the workspace too: pinning,
/// coarsening, the evaluation context, both refinements' delta pricer and
/// the candidate assignments. So once warm, a second identical
/// `partition_candidates_ws` call allocates nothing — with and without an
/// energy model — and returns the same candidates, borrowed from the
/// workspace.
#[test]
fn partition_candidates_allocate_nothing_once_warm() {
    let design = MachineDesign::paper_machine(1);
    let config = ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25))
        .with_voltages(Voltages {
            clusters: vec![1.0, 0.8, 0.8, 0.8],
            icn: 1.0,
            cache: 1.0,
        });
    let clocks =
        LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(8.0)).unwrap();
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &ReferenceProfile {
            weighted_ins: 10_000.0,
            comms: 500,
            mem_accesses: 2_000,
            exec_time: Time::from_ns(10_000.0),
        },
    );
    // The representative loop, and a 24-op chain whose hierarchy has
    // more levels.
    let mut b = DdgBuilder::new("chain");
    let ids: Vec<_> = (0..24)
        .map(|i| b.op(format!("n{i}"), OpClass::FpArith))
        .collect();
    for w in ids.windows(2) {
        b.flow(w[0], w[1]);
    }
    let chain = b.build().unwrap();
    for ddg in [representative_ddg(), chain] {
        ddg.validate_schedulable().unwrap();
        for power in [None, Some(&power)] {
            let objective = PartitionObjective {
                power,
                trip_count: 100,
            };
            let mut ws = SchedWorkspace::new();
            let first: Vec<Vec<ClusterId>> =
                partition_candidates_ws(&ddg, &config, &clocks, &objective, ws.partition_scratch())
                    .expect("every recurrence pins at IT 8 ns")
                    .to_vec();
            assert!(!first.is_empty());

            let before = allocations();
            let second =
                partition_candidates_ws(&ddg, &config, &clocks, &objective, ws.partition_scratch())
                    .expect("every recurrence pins at IT 8 ns");
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "a warm partition call must not allocate ({}, power: {})",
                ddg.name(),
                power.is_some()
            );
            assert_eq!(
                second,
                first.as_slice(),
                "workspace reuse must not change the candidates"
            );
        }
    }
}
