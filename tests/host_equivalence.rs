//! The host machine's one set-major outer (L2) store against a reference
//! machine built the way the host was before it: one public
//! `SnoopCache` per CPU as that CPU's L2, each snooped in turn.
//!
//! Random load / store / DMA / flush / instruction-tick sequences drive
//! both machines over 1, 2 and 8 CPUs, 1-, 2-, 4-, 8-, 16- and 64-way
//! outer caches, with and without an inner (L1) cache, and once more with
//! a share of lines whose tags do not fit the store's 32-bit tag words.
//! A seeded S7A OLTP run does the same at full size. The two machines
//! must record the same bus stream
//! (sequence, cycle, requester, operation, address, response), the same
//! per-CPU counters, the same memory reads and writes, and the same
//! resident `(line, state)` set in every CPU's outer and inner cache.

use std::cell::RefCell;
use std::rc::Rc;

use memories_bus::{
    Address, BusListener, BusOp, Geometry, LineAddr, ListenerReaction, ProcId, SnoopResponse,
    SystemBus, Transaction,
};
use memories_host::{
    AccessKind, ConfigError, HostConfig, HostMachine, MesiState, ProcessorCounters, SnoopCache,
};
use memories_workloads::{OltpConfig, OltpWorkload, RefKind, Workload, WorkloadEvent};
use proptest::prelude::*;

/// Records every transaction it observes.
struct Recorder(Rc<RefCell<Vec<Transaction>>>);

impl BusListener for Recorder {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.0.borrow_mut().push(*txn);
        ListenerReaction::Proceed
    }
}

struct RefCpu {
    id: ProcId,
    inner: Option<SnoopCache>,
    outer: SnoopCache,
    counters: ProcessorCounters,
}

impl RefCpu {
    fn invalidate_inner(&mut self, line: LineAddr) {
        if let Some(inner) = &mut self.inner {
            inner.invalidate(line);
        }
    }
}

/// The reference: per-CPU L2 caches, each probed on its own.
struct RefMachine {
    config: HostConfig,
    cpus: Vec<RefCpu>,
    bus: SystemBus,
    mem_reads: u64,
    mem_writes: u64,
    io_bridge: ProcId,
    idle_carry: f64,
}

impl RefMachine {
    fn new(config: HostConfig) -> Self {
        let cpus = (0..config.num_cpus)
            .map(|i| RefCpu {
                id: ProcId::new(i as u8),
                inner: config.inner_cache.map(SnoopCache::new),
                outer: SnoopCache::new(config.outer_cache),
                counters: ProcessorCounters::default(),
            })
            .collect();
        let mut bus = SystemBus::new(config.bus);
        bus.idle(0);
        RefMachine {
            io_bridge: ProcId::new(config.num_cpus as u8),
            config,
            cpus,
            bus,
            mem_reads: 0,
            mem_writes: 0,
            idle_carry: 0.0,
        }
    }

    fn access(&mut self, cpu: usize, kind: AccessKind, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        {
            let c = &mut self.cpus[cpu].counters;
            match kind {
                AccessKind::Load => c.loads += 1,
                AccessKind::Store => c.stores += 1,
            }
        }
        let inner_hit = self.cpus[cpu]
            .inner
            .as_mut()
            .is_some_and(|l1| l1.touch(line));
        if inner_hit {
            let outer_state = self.cpus[cpu].outer.state(line);
            match (kind, outer_state) {
                (AccessKind::Load, _) | (AccessKind::Store, MesiState::Modified) => {
                    self.cpus[cpu].counters.inner_hits += 1;
                    return;
                }
                (AccessKind::Store, MesiState::Exclusive) => {
                    self.cpus[cpu].counters.inner_hits += 1;
                    self.cpus[cpu].outer.set_state(line, MesiState::Modified);
                    return;
                }
                _ => {}
            }
        }

        let outer_state = self.cpus[cpu].outer.state(line);
        match (kind, outer_state) {
            (AccessKind::Load, s) if s.is_valid() => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.cpus[cpu].outer.touch(line);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Load, _) => self.bus_read_miss(cpu, line, BusOp::Read),
            (AccessKind::Store, MesiState::Modified) => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.cpus[cpu].outer.touch(line);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Store, MesiState::Exclusive) => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.cpus[cpu].outer.set_state(line, MesiState::Modified);
                self.cpus[cpu].outer.touch(line);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Store, MesiState::Shared) => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.cpus[cpu].counters.upgrades += 1;
                let resp = self.snoop_others(cpu, BusOp::DClaim, line);
                self.bus.transact(
                    self.cpus[cpu].id,
                    BusOp::DClaim,
                    self.config.outer_cache.line_base(line),
                    resp,
                );
                self.cpus[cpu].outer.set_state(line, MesiState::Modified);
                self.cpus[cpu].outer.touch(line);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Store, MesiState::Invalid) => self.bus_read_miss(cpu, line, BusOp::Rwitm),
        }
    }

    fn tick_instructions(&mut self, cpu: usize, count: u64) {
        self.cpus[cpu].counters.instructions += count;
        self.idle_carry +=
            self.config.instructions_to_bus_cycles(count) / self.config.num_cpus as f64;
        if self.idle_carry >= 1.0 {
            let whole = self.idle_carry.floor();
            self.bus.idle(whole as u64);
            self.idle_carry -= whole;
        }
    }

    fn dma_read(&mut self, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let resp = self.snoop_all(BusOp::DmaRead, line);
        if resp == SnoopResponse::Modified {
            self.mem_writes += 1;
        } else {
            self.mem_reads += 1;
        }
        self.bus.transact(
            self.io_bridge,
            BusOp::DmaRead,
            addr.align_down(self.config.outer_cache.line_size()),
            resp,
        );
    }

    fn dma_write(&mut self, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let resp = self.snoop_all(BusOp::DmaWrite, line);
        self.mem_writes += 1;
        self.bus.transact(
            self.io_bridge,
            BusOp::DmaWrite,
            addr.align_down(self.config.outer_cache.line_size()),
            resp,
        );
    }

    fn flush(&mut self, cpu: usize, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let own = self.cpus[cpu].outer.invalidate(line);
        self.cpus[cpu].invalidate_inner(line);
        let resp = self.snoop_others(cpu, BusOp::Flush, line);
        if own.is_dirty() || resp == SnoopResponse::Modified {
            self.mem_writes += 1;
        }
        self.bus.transact(
            self.cpus[cpu].id,
            BusOp::Flush,
            self.config.outer_cache.line_base(line),
            resp,
        );
    }

    fn fill_inner(&mut self, cpu: usize, line: LineAddr) {
        if let Some(inner) = &mut self.cpus[cpu].inner {
            let _ = inner.fill(line, MesiState::Shared);
        }
    }

    fn snoop_others(&mut self, cpu: usize, op: BusOp, line: LineAddr) -> SnoopResponse {
        let mut combined = SnoopResponse::Null;
        for i in 0..self.cpus.len() {
            if i == cpu {
                continue;
            }
            combined = combined.combine(self.snoop_one(i, op, line));
        }
        combined
    }

    fn snoop_all(&mut self, op: BusOp, line: LineAddr) -> SnoopResponse {
        let mut combined = SnoopResponse::Null;
        for i in 0..self.cpus.len() {
            combined = combined.combine(self.snoop_one(i, op, line));
        }
        combined
    }

    fn snoop_one(&mut self, i: usize, op: BusOp, line: LineAddr) -> SnoopResponse {
        let resp = self.cpus[i].outer.snoop(op, line);
        if op.invalidates_others() && resp != SnoopResponse::Null {
            self.cpus[i].invalidate_inner(line);
        }
        if resp.is_intervention() {
            self.cpus[i].counters.interventions_supplied += 1;
        }
        resp
    }

    fn bus_read_miss(&mut self, cpu: usize, line: LineAddr, op: BusOp) {
        let resp = self.snoop_others(cpu, op, line);
        {
            let c = &mut self.cpus[cpu].counters;
            match op {
                BusOp::Read => c.outer_read_misses += 1,
                _ => c.outer_write_misses += 1,
            }
            match resp {
                SnoopResponse::Modified => c.misses_filled_modified += 1,
                SnoopResponse::Shared => c.misses_filled_shared += 1,
                _ => c.misses_filled_memory += 1,
            }
        }
        match resp {
            SnoopResponse::Modified => self.mem_writes += 1,
            SnoopResponse::Shared => {}
            _ => self.mem_reads += 1,
        }
        let fill_state = match (op, resp) {
            (BusOp::Rwitm, _) => MesiState::Modified,
            (_, SnoopResponse::Null) => MesiState::Exclusive,
            _ => MesiState::Shared,
        };
        self.bus.transact(
            self.cpus[cpu].id,
            op,
            self.config.outer_cache.line_base(line),
            resp,
        );
        let victim = self.cpus[cpu].outer.fill(line, fill_state);
        self.fill_inner(cpu, line);
        if let Some(v) = victim {
            self.cpus[cpu].invalidate_inner(v.line);
            if v.state.is_dirty() {
                self.cpus[cpu].counters.writebacks += 1;
                self.mem_writes += 1;
                self.bus.transact(
                    self.cpus[cpu].id,
                    BusOp::WriteBack,
                    self.config.outer_cache.line_base(v.line),
                    SnoopResponse::Null,
                );
            }
        }
    }
}

/// One step of a host input sequence.
#[derive(Clone, Copy, Debug)]
enum Step {
    Access(usize, AccessKind, Address),
    Flush(usize, Address),
    DmaRead(Address),
    DmaWrite(Address),
    Tick(usize, u64),
}

/// Both machines, each with a recorder on its bus.
struct Pair {
    machine: HostMachine,
    reference: RefMachine,
    seen: Rc<RefCell<Vec<Transaction>>>,
    expected: Rc<RefCell<Vec<Transaction>>>,
}

impl Pair {
    fn new(config: HostConfig) -> Self {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let expected = Rc::new(RefCell::new(Vec::new()));
        let mut machine = HostMachine::new(config.clone()).expect("valid test config");
        machine.attach_listener(Box::new(Recorder(Rc::clone(&seen))));
        let mut reference = RefMachine::new(config);
        reference
            .bus
            .attach(Box::new(Recorder(Rc::clone(&expected))));
        Pair {
            machine,
            reference,
            seen,
            expected,
        }
    }

    fn step(&mut self, step: Step) {
        match step {
            Step::Access(cpu, kind, addr) => {
                self.machine.access(cpu, kind, addr);
                self.reference.access(cpu, kind, addr);
            }
            Step::Flush(cpu, addr) => {
                self.machine.flush(cpu, addr);
                self.reference.flush(cpu, addr);
            }
            Step::DmaRead(addr) => {
                self.machine.dma_read(addr);
                self.reference.dma_read(addr);
            }
            Step::DmaWrite(addr) => {
                self.machine.dma_write(addr);
                self.reference.dma_write(addr);
            }
            Step::Tick(cpu, count) => {
                self.machine.tick_instructions(cpu, count);
                self.reference.tick_instructions(cpu, count);
            }
        }
    }

    /// The first difference between the two machines, if any.
    fn divergence(&self) -> Option<String> {
        let (seen, expected) = (self.seen.borrow(), self.expected.borrow());
        if let Some(i) =
            (0..seen.len().max(expected.len())).find(|&i| seen.get(i) != expected.get(i))
        {
            return Some(format!(
                "bus stream differs at {i}: {:?} vs reference {:?}",
                seen.get(i),
                expected.get(i)
            ));
        }
        let m = &self.machine;
        let r = &self.reference;
        if (m.memory().reads(), m.memory().writes()) != (r.mem_reads, r.mem_writes) {
            return Some(format!(
                "memory reads/writes {}/{} vs reference {}/{}",
                m.memory().reads(),
                m.memory().writes(),
                r.mem_reads,
                r.mem_writes
            ));
        }
        if m.bus().current_cycle() != r.bus.current_cycle() {
            return Some("bus clocks differ".into());
        }
        for (cpu, rc) in r.cpus.iter().enumerate() {
            let view = m.cpu(cpu);
            if view.id() != rc.id {
                return Some(format!("cpu {cpu}: ids differ"));
            }
            if view.counters() != &rc.counters {
                return Some(format!(
                    "cpu {cpu}: counters {:?} vs reference {:?}",
                    view.counters(),
                    rc.counters
                ));
            }
            let outer = sorted(view.outer_cache().iter());
            if outer != sorted(rc.outer.iter()) {
                return Some(format!("cpu {cpu}: resident outer lines differ"));
            }
            for (line, state) in &outer {
                if view.outer_state(*line) != *state || !view.outer_cache().contains(*line) {
                    return Some(format!("cpu {cpu}: lookup of {line} disagrees with iter"));
                }
            }
            let inner = view.inner_cache().map(|c| sorted(c.iter()));
            if inner != rc.inner.as_ref().map(|c| sorted(c.iter())) {
                return Some(format!("cpu {cpu}: resident inner lines differ"));
            }
        }
        None
    }
}

fn sorted(iter: impl Iterator<Item = (LineAddr, MesiState)>) -> Vec<(LineAddr, MesiState)> {
    let mut v: Vec<_> = iter.collect();
    v.sort_by_key(|(l, _)| l.value());
    v
}

/// Outer sets in every small machine of at most 8 ways: few, so
/// sequences fill and evict.
const SETS: u64 = 4;
/// Distinct lines a sequence touches: three times the largest outer cache
/// of at most 8 ways, and one and a half times the 64-way one.
const LINES: u64 = SETS * 8 * 3;
/// The bit that makes a line's tag too wide for a 32-bit tag word. It
/// lies above every set index, so the line stays in its set.
const WIDE_BIT: u64 = 1 << 50;

/// Every third line number gets [`WIDE_BIT`]. Three is prime to every
/// set count, so wide and narrow tags share every set.
fn widen(n: u64) -> u64 {
    if n.is_multiple_of(3) {
        n | WIDE_BIT
    } else {
        n
    }
}

/// Outer sets of a `ways`-way machine. Caches of more than 8 ways have
/// one set, so that a sequence of a few hundred steps still overflows it.
fn sets(ways: u32) -> u64 {
    if ways > 8 {
        1
    } else {
        SETS
    }
}

/// Distinct lines a sequence touches in a `ways`-way machine: all
/// [`LINES`] up to 8 ways, else one and a half times the cache.
fn lines(ways: u32) -> u64 {
    if ways > 8 {
        u64::from(ways) * 3 / 2
    } else {
        LINES
    }
}

fn small_config(cpus: usize, ways: u32, inner: bool) -> HostConfig {
    HostConfig {
        num_cpus: cpus,
        // One 2-way set: the inner cache evicts lines the outer still holds.
        inner_cache: inner.then(|| Geometry::new(256, 2, 128).unwrap()),
        outer_cache: Geometry::new(sets(ways) * u64::from(ways) * 128, ways, 128).unwrap(),
        ..HostConfig::s7a()
    }
}

/// A step in terms of a raw draw: CPU numbers are reduced modulo the
/// machine's CPU count when the step runs.
fn arb_step() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (0u8..20, 0u8..8, 0u64..LINES, 0u64..128)
}

/// Line numbers are reduced modulo the machine's [`lines`]. With `wide`,
/// they pass through [`widen`].
fn to_step(
    (kind, cpu, line, offset): (u8, u8, u64, u64),
    cpus: usize,
    ways: u32,
    wide: bool,
) -> Step {
    let cpu = usize::from(cpu) % cpus;
    let line = line % lines(ways);
    let line = if wide { widen(line) } else { line };
    step(kind, cpu, Address::new(line * 128 + offset), offset)
}

fn step(kind: u8, cpu: usize, addr: Address, offset: u64) -> Step {
    match kind {
        0..=8 => Step::Access(cpu, AccessKind::Load, addr),
        9..=15 => Step::Access(cpu, AccessKind::Store, addr),
        16 => Step::Flush(cpu, addr),
        17 => Step::DmaRead(addr),
        18 => Step::DmaWrite(addr),
        _ => Step::Tick(cpu, offset * 7),
    }
}

fn diverges(
    cpus: usize,
    ways: u32,
    inner: bool,
    wide: bool,
    draws: &[(u8, u8, u64, u64)],
) -> Option<String> {
    let mut pair = Pair::new(small_config(cpus, ways, inner));
    for (i, &draw) in draws.iter().enumerate() {
        pair.step(to_step(draw, cpus, ways, wide));
        if let Some(d) = pair.divergence() {
            return Some(format!(
                "{cpus} cpus, {ways}-way, inner {inner}, wide {wide}, after step {i}: {d}"
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_outer_store_matches_per_cpu_caches(
        draws in prop::collection::vec(arb_step(), 1..300),
    ) {
        for cpus in [1usize, 2, 8] {
            for ways in [1u32, 2, 4, 8, 16, 64] {
                for inner in [true, false] {
                    // Two thirds of the wide run's lines are narrow, so the
                    // costly 16- and 64-way machines run only that one.
                    for wide in [false, true].into_iter().filter(|&w| w || ways <= 8) {
                        let divergence = diverges(cpus, ways, inner, wide, &draws);
                        prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());
                    }
                }
            }
        }
    }
}

#[test]
fn seeded_s7a_oltp_run_matches_per_cpu_caches() {
    let mut pair = Pair::new(HostConfig::s7a());
    let mut workload = OltpWorkload::new(OltpConfig {
        seed: 0x05EE_D200,
        ..OltpConfig::scaled_default()
    });
    let mut refs = 0;
    while refs < 200_000 {
        let step = match workload.next_event() {
            WorkloadEvent::Ref(r) => {
                refs += 1;
                let kind = match r.kind {
                    RefKind::Load => AccessKind::Load,
                    RefKind::Store => AccessKind::Store,
                };
                Step::Access(r.cpu, kind, r.addr)
            }
            WorkloadEvent::Instructions { cpu, count } => Step::Tick(cpu, count),
            WorkloadEvent::Dma { write: true, addr } => Step::DmaWrite(addr),
            WorkloadEvent::Dma { write: false, addr } => Step::DmaRead(addr),
        };
        pair.step(step);
    }
    let stats = pair.machine.stats();
    let total = stats.total();
    assert!(total.writebacks > 0, "the run must cast out dirty lines");
    assert!(
        total.misses_filled_shared + total.misses_filled_modified > 0,
        "the run must intervene"
    );
    assert!(total.upgrades > 0, "the run must upgrade shared lines");
    assert_eq!(pair.divergence(), None);
}

/// The proptest's sequences are short and its CPUs share every line, so
/// its 16- and 64-way machines rarely fill a set. Here each CPU mostly
/// uses lines of its own, one in eight is shared, and every third line
/// is wide; the runs must cast out wide and narrow lines alike.
#[test]
fn long_runs_with_wide_tags_evict_like_per_cpu_caches() {
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut draw = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for cpus in [1usize, 2, 8] {
        for ways in [16u32, 64] {
            let mut pair = Pair::new(small_config(cpus, ways, true));
            for i in 0..4_000 {
                let r = draw();
                let cpu = (r % cpus as u64) as usize;
                let n = (r >> 8) % lines(ways);
                let own = if (r >> 24) % 8 == 0 {
                    0
                } else {
                    cpu as u64 + 1
                };
                let line = own << 20 | widen(n);
                let offset = (r >> 32) % 128;
                pair.step(step(
                    (r >> 40) as u8 % 20,
                    cpu,
                    Address::new(line * 128 + offset),
                    offset,
                ));
                if i % 100 == 99 {
                    if let Some(d) = pair.divergence() {
                        panic!("{cpus} cpus, {ways}-way, by step {i}: {d}");
                    }
                }
            }
            let expected = pair.expected.borrow();
            let (wide, narrow): (Vec<&Transaction>, Vec<_>) = expected
                .iter()
                .filter(|t| t.op == BusOp::WriteBack)
                .partition(|t| t.addr.value() >= WIDE_BIT * 128);
            assert!(
                !wide.is_empty() && !narrow.is_empty(),
                "{cpus} cpus, {ways}-way: {} wide and {} narrow write-backs",
                wide.len(),
                narrow.len()
            );
        }
    }
}

#[test]
fn outer_caches_of_more_than_64_ways_are_rejected() {
    let mut config = small_config(2, 64, false);
    HostMachine::new(config.clone()).expect("64 ways are supported");
    config.outer_cache = Geometry::new(65 * 128, 65, 128).unwrap();
    assert_eq!(
        config.validate(),
        Err(ConfigError::TooManyOuterWays { ways: 65 })
    );
    assert!(matches!(
        HostMachine::new(config),
        Err(ConfigError::TooManyOuterWays { ways: 65 })
    ));
}
