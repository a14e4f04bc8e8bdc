//! The board's passivity and its documented limitations (§3.4).

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter, TraceCapture};
use memories_bus::{Address, BusListener, BusOp, NodeId, ProcId, SnoopResponse, Transaction};
use memories_console::{EmulationSession, Shared};
use memories_host::{HostConfig, MesiState};
use memories_workloads::micro::UniformRandom;

fn cache(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(2)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

fn host(cpus: usize) -> HostConfig {
    HostConfig {
        num_cpus: cpus,
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(4 << 10, 2, 128).unwrap(),
        ..HostConfig::s7a()
    }
}

/// Passivity: attaching the board changes nothing about the host's
/// execution — same machine counters with and without the board.
#[test]
fn attaching_the_board_does_not_perturb_the_host() {
    let run = |with_board: bool| {
        let board = BoardConfig::single_node(cache(1 << 20), (0..4).map(ProcId::new)).unwrap();
        let session = EmulationSession::builder()
            .host(host(4))
            .board(board)
            .build()
            .unwrap();
        let mut w = UniformRandom::new(4, 8 << 20, 0.3, 42);
        if with_board {
            let r = session.run(&mut w, 40_000).unwrap();
            (r.machine.total().clone(), r.bus.transactions)
        } else {
            // Same machine, no board: drive it directly.
            let mut machine = memories_host::HostMachine::new(host(4)).unwrap();
            use memories_host::AccessKind;
            use memories_workloads::{RefKind, Workload, WorkloadEvent};
            let mut done = 0;
            while done < 40_000 {
                match w.next_event() {
                    WorkloadEvent::Ref(r) => {
                        let kind = match r.kind {
                            RefKind::Load => AccessKind::Load,
                            RefKind::Store => AccessKind::Store,
                        };
                        machine.access(r.cpu, kind, r.addr);
                        done += 1;
                    }
                    WorkloadEvent::Instructions { cpu, count } => {
                        machine.tick_instructions(cpu, count)
                    }
                    _ => {}
                }
            }
            (
                machine.stats().total().clone(),
                machine.bus().stats().transactions,
            )
        }
    };
    assert_eq!(run(true), run(false));
}

/// §3.4: the board cannot see clean L2 evictions, so the emulated cache
/// can believe a line is "still cached below" after the host quietly
/// dropped it. We construct that divergence explicitly.
#[test]
fn clean_evictions_are_invisible_to_the_board() {
    let board_cfg = BoardConfig::single_node(cache(1 << 20), [ProcId::new(0)]).unwrap();
    let board = Shared::new(MemoriesBoard::new(board_cfg).unwrap());
    let mut machine = memories_host::HostMachine::new(host(1)).unwrap();
    machine.attach_listener(Box::new(board.handle()));

    // Host L2: 4 KB / 2-way / 128 B = 16 sets. Lines 0, 16, 32 conflict.
    let line0 = Address::new(0);
    machine.load(0, line0); // clean fill (Exclusive)
    machine.load(0, Address::new(16 * 128));
    machine.load(0, Address::new(32 * 128)); // silently evicts line 0

    let host_line = machine.config().outer_cache.line_addr(line0);
    assert_eq!(machine.cpu(0).outer_state(host_line), MesiState::Invalid);
    // The board still tracks the line as resident — it never saw the
    // clean eviction.
    board.with(|b| {
        assert!(
            !b.node(NodeId::new(0)).probe(line0).is_invalid(),
            "the board should still believe line 0 is cached"
        );
    });

    // The host re-reads line 0: to the board this looks like an L3 hit
    // even though the L2 had dropped it — the modeled inaccuracy of a
    // passive, non-inclusive emulator.
    machine.load(0, line0);
    board.with(|b| {
        let s = b.node(NodeId::new(0)).counters();
        assert_eq!(s.get(NodeCounter::ReadHits), 1);
    });
}

/// §3.4's other ramification: a DClaim can arrive for a line the
/// emulated cache has evicted (the host L2 still held it shared). The
/// board counts these as upgrade misses rather than failing.
#[test]
fn upgrades_for_evicted_lines_are_counted_not_fatal() {
    let board_cfg = BoardConfig::single_node(
        // Tiny emulated cache: 2 sets x 2 ways.
        CacheParams::builder()
            .capacity(512)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap(),
        [ProcId::new(0)],
    )
    .unwrap();
    let mut board = MemoriesBoard::new(board_cfg).unwrap();

    // Fill the emulated set 0 (lines 0, 2, 4 with 2 sets): line 0 evicted.
    for (i, line) in [0u64, 2, 4].iter().enumerate() {
        let t = Transaction::new(
            i as u64,
            i as u64 * 60,
            ProcId::new(0),
            BusOp::Read,
            Address::new(line * 128),
            SnoopResponse::Null,
        );
        board.on_transaction(&t);
    }
    // The host upgrades line 0 (it still has it shared).
    let t = Transaction::new(
        3,
        300,
        ProcId::new(0),
        BusOp::DClaim,
        Address::new(0),
        SnoopResponse::Null,
    );
    board.on_transaction(&t);
    let s = board.node(NodeId::new(0)).counters();
    assert_eq!(s.get(NodeCounter::UpgradeMisses), 1);
}

/// Gapless capture: unlike a logic analyzer, the board never pauses the
/// host, so the trace is exactly the bus stream, in order.
#[test]
fn trace_capture_is_gapless_and_ordered() {
    let capture = Shared::new(TraceCapture::new(1 << 20));
    let mut machine = memories_host::HostMachine::new(host(2)).unwrap();
    machine.attach_listener(Box::new(capture.handle()));

    let addrs: Vec<Address> = (0..500u64).map(|i| Address::new((i % 64) * 128)).collect();
    for (i, a) in addrs.iter().enumerate() {
        if i % 3 == 0 {
            machine.store(i % 2, *a);
        } else {
            machine.load(i % 2, *a);
        }
    }
    let bus_memory_txns = machine.bus().stats().memory_transactions();
    capture.with(|c| {
        assert_eq!(c.captured(), bus_memory_txns, "capture missed transactions");
        assert_eq!(c.dropped(), 0);
    });
}
