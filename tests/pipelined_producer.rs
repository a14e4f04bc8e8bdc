//! Acceptance tests for the live source: host MESI simulation on its
//! own producer thread, shipping pooled transaction blocks over a bounded
//! queue, must stay bit-identical to a board attached straight to a
//! hand-pumped host bus — including mid-stream sample barriers and
//! profile windows, which the producer marks by cutting its blocks.

use memories::{BoardConfig, CacheParams, MemoriesBoard};
use memories_bus::{BusListener, BusStats, ListenerReaction, ProcId, Transaction};
use memories_console::{
    apply_event, EmulationSession, ExecutionOptions, PipelinedLiveSource, ProfilePoint, Shared,
};
use memories_host::{HostConfig, HostMachine, MachineStats};
use memories_obs::TimeSeries;
use memories_workloads::micro::{Sequential, UniformRandom};
use memories_workloads::{OltpConfig, OltpWorkload, Workload};

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

fn host() -> HostConfig {
    HostConfig {
        num_cpus: 8,
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(128 << 10, 4, 128).unwrap(),
        ..HostConfig::s7a()
    }
}

/// Four cache candidates, each its own coherence domain — an expensive
/// board, so the consumer side dominates and the producer runs ahead.
fn board() -> BoardConfig {
    BoardConfig::parallel_configs(
        vec![
            params(1 << 20),
            params(2 << 20),
            params(4 << 20),
            params(8 << 20),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .unwrap()
}

fn oltp() -> OltpWorkload {
    OltpWorkload::new(OltpConfig {
        journal: None,
        ..OltpConfig::scaled_default()
    })
}

fn session(parallelism: usize, sample_every: Option<u64>) -> EmulationSession {
    let mut b = EmulationSession::builder()
        .host(host())
        .board(board())
        .parallelism(parallelism);
    if let Some(period) = sample_every {
        b = b.sample_every(period);
    }
    b.build().unwrap()
}

/// The reference listener: a plain board snooping one transaction at a
/// time, always reacting `Proceed` (as the pipeline does), and taking a
/// snapshot whenever the admitted count reaches the sampler's next
/// position.
struct Passive {
    board: MemoriesBoard,
    period: Option<u64>,
    next_at: u64,
    series: TimeSeries,
}

impl BusListener for Passive {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.board.on_transaction(txn);
        if let Some(period) = self.period {
            let admitted = self.board.filter().stats().forwarded;
            if admitted >= self.next_at {
                self.series.record(self.board.snapshot());
                self.next_at = admitted + period;
            }
        }
        ListenerReaction::Proceed
    }
}

/// What the hand-pumped reference run observed.
struct Reference {
    board: MemoriesBoard,
    series: TimeSeries,
    profile: Vec<ProfilePoint>,
    /// Bus transactions at each profile-window boundary.
    txns_at_windows: Vec<u64>,
    machine: MachineStats,
    bus: BusStats,
}

/// Pumps `refs` references of `workload` through a host machine by hand,
/// one reference at a time, with a [`Passive`] board on the bus. Samples
/// every `period` admitted transactions and closes a profile window
/// every `window` references, computing each window's per-node miss
/// ratio from the board's demand hit/miss deltas.
fn reference(
    workload: &mut dyn Workload,
    refs: u64,
    period: Option<u64>,
    window: Option<u64>,
) -> Reference {
    let listener = Shared::new(Passive {
        board: MemoriesBoard::new(board()).unwrap(),
        period,
        next_at: period.unwrap_or(0),
        series: TimeSeries::new(),
    });
    let mut machine = HostMachine::new(host()).unwrap();
    machine.attach_listener(Box::new(listener.handle()));
    let mut profile = Vec::new();
    let mut txns_at_windows = Vec::new();
    let mut prev: Vec<(u64, u64)> = Vec::new();
    let mut done = 0u64;
    while done < refs {
        if !apply_event(&mut machine, workload.next_event()) {
            continue;
        }
        done += 1;
        if !window.is_some_and(|w| done.is_multiple_of(w)) {
            continue;
        }
        let snap = listener.with(|l| l.board.snapshot());
        prev.resize(snap.node_count(), (0, 0));
        let window_miss_ratio = prev
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let s = &snap.nodes[i];
                let (hits, misses) = (s.demand_hits() - slot.0, s.demand_misses() - slot.1);
                *slot = (s.demand_hits(), s.demand_misses());
                if hits + misses == 0 {
                    0.0
                } else {
                    misses as f64 / (hits + misses) as f64
                }
            })
            .collect();
        profile.push(ProfilePoint {
            end_ref: done,
            bus_cycle: machine.bus().current_cycle(),
            window_miss_ratio,
        });
        txns_at_windows.push(machine.bus().stats().transactions);
    }
    let stats = machine.stats();
    let bus = machine.bus().stats().clone();
    drop(machine.detach_listeners());
    let Passive { board, series, .. } = listener.try_unwrap().map_err(|_| ()).unwrap();
    Reference {
        board,
        series,
        profile,
        txns_at_windows,
        machine: stats,
        bus,
    }
}

/// The producer may run a whole queue of blocks ahead of the board, yet
/// every run mode — plain and monitored, serial and sharded — must land
/// on exactly the counters of the alternating, hand-pumped reference,
/// and monitored runs must take their snapshot barriers at the exact
/// same admitted-stream positions.
#[test]
fn pipelined_runs_are_bit_identical_to_alternating_runs() {
    const REFS: u64 = 24_000;
    let want = reference(&mut oltp(), REFS, Some(997), None);
    assert!(want.series.len() > 5, "reference must sample");
    for parallelism in [1usize, 2, 4] {
        let plain = session(parallelism, None).run(&mut oltp(), REFS).unwrap();
        assert_eq!(
            want.board.statistics_report(),
            plain.board.statistics_report(),
            "parallelism {parallelism}: pipelined run diverged"
        );
        assert_eq!(want.board.retries_posted(), plain.retries_posted);
        assert_eq!(
            want.machine.total_loads() + want.machine.total_stores(),
            plain.machine.total_loads() + plain.machine.total_stores(),
        );
        assert_eq!(want.bus.transactions, plain.bus.transactions);

        // Monitored: mid-stream snapshot barriers at a prime period must
        // land on identical sample positions and identical counters.
        let monitored = session(parallelism, Some(997))
            .run_monitored_pipelined(&mut oltp(), REFS)
            .unwrap();
        assert_eq!(
            want.board.statistics_report(),
            monitored.result.board.statistics_report(),
            "parallelism {parallelism}: barriers changed pipelined final counters"
        );
        let s = want.series.points();
        let p = monitored.series.points();
        assert_eq!(
            s.len(),
            p.len(),
            "parallelism {parallelism}: sample count diverged"
        );
        for (a, b) in s.iter().zip(p) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                a.snapshot.admitted(),
                b.snapshot.admitted(),
                "parallelism {parallelism}: sample {} at a different stream position",
                a.index
            );
            assert_eq!(
                a.cumulative, b.cumulative,
                "parallelism {parallelism}: sample {} counters diverged",
                a.index
            );
            assert_eq!(a.window, b.window);
        }
        assert!(
            monitored.telemetry.producer_blocks > 0,
            "parallelism {parallelism}: producer never shipped a block"
        );
    }
}

/// Runs a profiled live source at parallelism 1 and 2 and checks every profile
/// point — window end, bus cycle and per-node miss ratio — against the
/// per-reference reference.
fn assert_profile_matches(
    name: &str,
    make: &dyn Fn() -> Box<dyn Workload>,
    refs: u64,
    window: u64,
) -> Reference {
    let want = reference(&mut *make(), refs, None, Some(window));
    assert_eq!(want.profile.len() as u64, refs / window, "{name}");
    for parallelism in [1usize, 2] {
        let mut workload = make();
        let got = session(parallelism, None)
            .execute(
                PipelinedLiveSource::new(host(), &mut *workload, refs).profile_every(window),
                ExecutionOptions::new(),
            )
            .unwrap();
        assert_eq!(
            want.profile, got.profile,
            "{name}: profile diverged at parallelism {parallelism}"
        );
        assert_eq!(
            want.board.statistics_report(),
            got.board.statistics_report(),
            "{name}: profiled run diverged at parallelism {parallelism}"
        );
    }
    want
}

/// Profile windows come from block cuts, not from per-reference
/// delivery. Three edge cases: windows far smaller than a block, windows
/// with no bus traffic at all, and windows that end exactly where a
/// block fills up.
#[test]
fn profile_marks_match_a_per_reference_reference() {
    const BLOCK: u64 = PipelinedLiveSource::DEFAULT_BLOCK_CAPACITY as u64;

    // A 100-reference window carries far fewer than a block's worth of
    // transactions, so every block is cut short.
    let small = assert_profile_matches(
        "small windows",
        &|| Box::new(UniformRandom::new(8, 16 << 20, 0.3, 11)),
        6_000,
        100,
    );
    assert!(small
        .txns_at_windows
        .windows(2)
        .all(|w| w[1] - w[0] < BLOCK));

    // 8 KB per CPU fits the host L2: after the first lap every reference
    // hits there, and most windows see no bus transaction at all.
    let quiet = assert_profile_matches(
        "silent windows",
        &|| Box::new(Sequential::new(8, 8 << 10, 128)),
        4_000,
        50,
    );
    let silent = quiet
        .txns_at_windows
        .windows(2)
        .filter(|w| w[0] == w[1])
        .count();
    assert!(silent > 50, "only {silent} windows without bus traffic");

    // Streaming loads over fresh lines: one bus read per reference, so a
    // window of one block's worth of references ends exactly where the
    // producer's block fills.
    let aligned = assert_profile_matches(
        "block-end windows",
        &|| Box::new(Sequential::new(8, 16 << 20, 128)),
        3 * BLOCK,
        BLOCK,
    );
    for (i, txns) in aligned.txns_at_windows.iter().enumerate() {
        assert_eq!(
            *txns,
            (i as u64 + 1) * BLOCK,
            "window {i} is not block-aligned"
        );
    }
}

/// Sampling and profiling at once: the sampler's barriers at admitted
/// positions and the live source's barriers at window marks interleave
/// in one run, and each must still match the per-reference reference —
/// every sample at the same stream position with the same counters, and
/// every profile point equal.
#[test]
fn sampled_and_profiled_live_run_matches_the_reference() {
    const REFS: u64 = 12_000;
    const WINDOW: u64 = 1_500;
    let want = reference(&mut oltp(), REFS, Some(997), Some(WINDOW));
    assert!(want.series.len() > 5, "reference must sample");
    assert_eq!(want.profile.len() as u64, REFS / WINDOW);
    for parallelism in [1usize, 2] {
        let got = session(parallelism, None)
            .execute(
                PipelinedLiveSource::new(host(), &mut oltp(), REFS).profile_every(WINDOW),
                ExecutionOptions::new().sample_every(Some(997)),
            )
            .unwrap();
        assert_eq!(
            want.board.statistics_report(),
            got.board.statistics_report(),
            "parallelism {parallelism}: sampled and profiled run diverged"
        );
        assert_eq!(
            want.profile, got.profile,
            "parallelism {parallelism}: profile diverged"
        );
        let s = want.series.points();
        let p = got.series.points();
        assert_eq!(
            s.len(),
            p.len(),
            "parallelism {parallelism}: sample count diverged"
        );
        for (a, b) in s.iter().zip(p) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                a.snapshot.admitted(),
                b.snapshot.admitted(),
                "parallelism {parallelism}: sample {} at a different stream position",
                a.index
            );
            assert_eq!(
                a.cumulative, b.cumulative,
                "parallelism {parallelism}: sample {} counters diverged",
                a.index
            );
            assert_eq!(a.window, b.window);
        }
    }
}
