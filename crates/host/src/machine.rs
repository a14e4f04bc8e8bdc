//! The assembled host machine: processors, bus, memory, and I/O bridge.

use std::fmt;

use memories_bus::{Address, BusListener, BusOp, LineAddr, ProcId, SnoopResponse, SystemBus};

use crate::config::{ConfigError, HostConfig};
use crate::cpu::{AccessKind, CpuView, Processor};
use crate::memctrl::MemoryController;
use crate::mesi::MesiState;
use crate::outer::{OuterStore, OuterWay};
use crate::stats::MachineStats;

/// The host SMP machine.
///
/// Drives per-processor loads/stores and DMA through the private cache
/// hierarchy, resolves MESI coherence by snooping the other processors,
/// and places the resulting transactions on the [`SystemBus`], where
/// passive listeners (the MemorIES board, trace collectors) observe them.
///
/// Retry semantics: if a listener requests a retry (the board's ingress
/// buffers are full, §3.3), the transaction's recorded response is
/// upgraded to `Retry` and counted in the bus statistics — the listener
/// missed it, and the model (unlike real hardware) completes the access
/// anyway. The paper's claim is that this never happens below 42 % bus
/// utilization; the counter makes that claim checkable.
pub struct HostMachine {
    config: HostConfig,
    cpus: Vec<Processor>,
    /// Every processor's outer (L2) cache, set-major.
    outer: OuterStore,
    bus: SystemBus,
    mem: MemoryController,
    io_bridge: ProcId,
    idle_carry: f64,
}

impl HostMachine {
    /// Builds a machine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: HostConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cpus = (0..config.num_cpus)
            .map(|i| Processor::new(ProcId::new(i as u8), &config))
            .collect();
        let outer = OuterStore::new(config.outer_cache, config.num_cpus);
        let io_bridge = ProcId::new(config.num_cpus as u8);
        let mut bus = SystemBus::new(config.bus);
        bus.idle(0);
        Ok(HostMachine {
            config,
            cpus,
            outer,
            bus,
            mem: MemoryController::new(),
            io_bridge,
            idle_carry: 0.0,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Attaches a passive bus listener (e.g. the MemorIES board).
    pub fn attach_listener(&mut self, listener: Box<dyn BusListener>) {
        self.bus.attach(listener);
    }

    /// Detaches all listeners, returning them for inspection.
    pub fn detach_listeners(&mut self) -> Vec<Box<dyn BusListener>> {
        self.bus.detach_all()
    }

    /// The bus (for statistics and elapsed-time queries).
    pub fn bus(&self) -> &SystemBus {
        &self.bus
    }

    /// The memory controller's counters.
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// Read-only access to one processor.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu(&self, cpu: usize) -> CpuView<'_> {
        CpuView::new(&self.cpus[cpu], &self.outer, cpu)
    }

    /// Number of processors.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// A snapshot of all processor counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats::from_counters(self.cpus.iter().map(|c| c.counters.clone()).collect())
    }

    /// Issues a load from processor `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn load(&mut self, cpu: usize, addr: Address) {
        self.access(cpu, AccessKind::Load, addr);
    }

    /// Issues a store from processor `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn store(&mut self, cpu: usize, addr: Address) {
        self.access(cpu, AccessKind::Store, addr);
    }

    /// Issues a load or store from processor `cpu`.
    ///
    /// The processor's outer ways are probed once, and the touch, upgrade
    /// or fill that follows reuses that probe.
    pub fn access(&mut self, cpu: usize, kind: AccessKind, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let p = &mut self.cpus[cpu];
        match kind {
            AccessKind::Load => p.counters.loads += 1,
            AccessKind::Store => p.counters.stores += 1,
        }
        // Inner (L1) probe. Stores must still hold the outer cache in a
        // writable state, so they fall through on shared lines.
        let inner_hit = p.inner.as_mut().is_some_and(|l1| l1.touch(line));
        let way = self.outer.probe(cpu, line);
        if inner_hit {
            match (kind, way.state) {
                (AccessKind::Load, _) | (AccessKind::Store, MesiState::Modified) => {
                    p.counters.inner_hits += 1;
                    return;
                }
                (AccessKind::Store, MesiState::Exclusive) => {
                    p.counters.inner_hits += 1;
                    self.outer.set_state(&way, MesiState::Modified);
                    return;
                }
                // Shared: fall through to the upgrade path below.
                // Invalid would break inclusion; treat as a write miss.
                _ => {}
            }
        }

        match (kind, way.state) {
            (AccessKind::Load, s) if s.is_valid() => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.outer.touch(&way, s);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Load, _) => self.bus_read_miss(cpu, line, &way, BusOp::Read),
            (AccessKind::Store, MesiState::Modified | MesiState::Exclusive) => {
                self.cpus[cpu].counters.outer_hits += 1;
                self.outer.touch(&way, MesiState::Modified);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Store, MesiState::Shared) => {
                // Upgrade: DClaim invalidates the other copies.
                self.cpus[cpu].counters.outer_hits += 1;
                self.cpus[cpu].counters.upgrades += 1;
                let resp = self.snoop(Some(cpu), BusOp::DClaim, line);
                self.bus.transact(
                    self.cpus[cpu].id,
                    BusOp::DClaim,
                    self.config.outer_cache.line_base(line),
                    resp,
                );
                self.outer.touch(&way, MesiState::Modified);
                self.fill_inner(cpu, line);
            }
            (AccessKind::Store, MesiState::Invalid) => {
                self.bus_read_miss(cpu, line, &way, BusOp::Rwitm)
            }
        }
    }

    /// Retires `count` instructions on processor `cpu`, advancing the bus
    /// clock by the corresponding idle time (shared across processors:
    /// with `n` CPUs running concurrently, `n` instruction ticks advance
    /// wall-clock time by one instruction's worth).
    pub fn tick_instructions(&mut self, cpu: usize, count: u64) {
        self.cpus[cpu].counters.instructions += count;
        self.idle_carry +=
            self.config.instructions_to_bus_cycles(count) / self.config.num_cpus as f64;
        if self.idle_carry >= 1.0 {
            let whole = self.idle_carry.floor();
            self.bus.idle(whole as u64);
            self.idle_carry -= whole;
        }
    }

    /// Performs an inbound DMA read of the line containing `addr`.
    pub fn dma_read(&mut self, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let resp = self.snoop(None, BusOp::DmaRead, line);
        if resp == SnoopResponse::Modified {
            // The downgraded owner pushes data to memory on the way out.
            self.mem.serve_write();
        } else {
            self.mem.serve_read();
        }
        self.bus.transact(
            self.io_bridge,
            BusOp::DmaRead,
            addr.align_down(self.config.outer_cache.line_size()),
            resp,
        );
    }

    /// Performs an inbound DMA write of the line containing `addr`,
    /// invalidating every cached copy.
    pub fn dma_write(&mut self, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let resp = self.snoop(None, BusOp::DmaWrite, line);
        self.mem.serve_write();
        self.bus.transact(
            self.io_bridge,
            BusOp::DmaWrite,
            addr.align_down(self.config.outer_cache.line_size()),
            resp,
        );
    }

    /// Flushes the line containing `addr` from every cache, writing dirty
    /// data back to memory. Issued on behalf of processor `cpu`.
    pub fn flush(&mut self, cpu: usize, addr: Address) {
        let line = self.config.outer_cache.line_addr(addr);
        let own = self.outer.invalidate(&self.outer.probe(cpu, line));
        self.cpus[cpu].invalidate_inner(line);
        let resp = self.snoop(Some(cpu), BusOp::Flush, line);
        if own.is_dirty() || resp == SnoopResponse::Modified {
            self.mem.serve_write();
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
            // Inner victims leave silently: coherence state lives in the
            // outer cache (stores set it Modified immediately).
            let _ = inner.fill(line, MesiState::Shared);
        }
    }

    /// Snoops every processor that holds `line`, except `requester`
    /// (DMA traffic has none); returns the combined response.
    ///
    /// Each holder supplies an intervention; an invalidating `op` also
    /// drops its inner copy (inclusion).
    fn snoop(&mut self, requester: Option<usize>, op: BusOp, line: LineAddr) -> SnoopResponse {
        let cpus = &mut self.cpus;
        let invalidates = op.invalidates_others();
        self.outer.snoop(line, op, requester, |i| {
            let p = &mut cpus[i];
            if invalidates {
                p.invalidate_inner(line);
            }
            p.counters.interventions_supplied += 1;
        })
    }

    fn bus_read_miss(&mut self, cpu: usize, line: LineAddr, way: &OuterWay, op: BusOp) {
        debug_assert!(matches!(op, BusOp::Read | BusOp::Rwitm));
        let resp = self.snoop(Some(cpu), op, line);
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
            SnoopResponse::Modified => {
                // MESI downgrade/invalidate pushes the dirty data to memory.
                self.mem.serve_write();
                if op == BusOp::Read {
                    // Reader still gets the line via intervention; memory
                    // is updated in the same beat (no separate read).
                } else {
                    // RWITM: requester takes the data; memory copy updated.
                }
            }
            SnoopResponse::Shared => {}
            _ => self.mem.serve_read(),
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

        let victim = self.outer.fill(way, fill_state);
        self.fill_inner(cpu, line);
        if let Some(v) = victim {
            self.cpus[cpu].invalidate_inner(v.line);
            if v.state.is_dirty() {
                self.cpus[cpu].counters.writebacks += 1;
                self.mem.serve_write();
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

impl fmt::Debug for HostMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMachine")
            .field("cpus", &self.cpus.len())
            .field("outer_cache", &self.config.outer_cache.to_string())
            .field("bus_cycles", &self.bus.current_cycle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::Geometry;

    fn small_machine(cpus: usize) -> HostMachine {
        let cfg = HostConfig {
            num_cpus: cpus,
            inner_cache: Some(Geometry::new(512, 2, 128).unwrap()),
            outer_cache: Geometry::new(2048, 2, 128).unwrap(),
            ..HostConfig::s7a()
        };
        HostMachine::new(cfg).unwrap()
    }

    #[test]
    fn cold_load_misses_then_hits() {
        let mut m = small_machine(2);
        let a = Address::new(0x1000);
        m.load(0, a);
        let s = m.stats();
        assert_eq!(s.cpu(0).outer_read_misses, 1);
        assert_eq!(s.cpu(0).misses_filled_memory, 1);
        m.load(0, a);
        let s = m.stats();
        assert_eq!(s.cpu(0).outer_read_misses, 1);
        assert_eq!(s.cpu(0).inner_hits, 1);
        // Exclusive fill: no other sharer.
        let line = m.config().outer_cache.line_addr(a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Exclusive);
    }

    #[test]
    fn read_sharing_downgrades_to_shared() {
        let mut m = small_machine(2);
        let a = Address::new(0x1000);
        let line = m.config().outer_cache.line_addr(a);
        m.load(0, a);
        m.load(1, a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Shared);
        assert_eq!(m.cpu(1).outer_state(line), MesiState::Shared);
        let s = m.stats();
        assert_eq!(s.cpu(1).misses_filled_shared, 1);
        assert_eq!(s.cpu(0).interventions_supplied, 1);
        assert_eq!(m.bus().stats().shared_interventions, 1);
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let mut m = small_machine(2);
        let a = Address::new(0x1000);
        let line = m.config().outer_cache.line_addr(a);
        m.load(0, a);
        m.load(1, a);
        m.store(0, a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Modified);
        assert_eq!(m.cpu(1).outer_state(line), MesiState::Invalid);
        let s = m.stats();
        assert_eq!(s.cpu(0).upgrades, 1);
        assert_eq!(m.bus().stats().count(BusOp::DClaim), 1);
        // CPU 1's inner copy must be gone too (inclusion).
        assert!(!m.cpu(1).inner_cache().unwrap().contains(line));
    }

    #[test]
    fn write_miss_pulls_modified_data_from_owner() {
        let mut m = small_machine(2);
        let a = Address::new(0x1000);
        let line = m.config().outer_cache.line_addr(a);
        m.store(0, a); // cpu0: RWITM, fills Modified
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Modified);
        m.store(1, a); // cpu1: RWITM, modified intervention from cpu0
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Invalid);
        assert_eq!(m.cpu(1).outer_state(line), MesiState::Modified);
        let s = m.stats();
        assert_eq!(s.cpu(1).misses_filled_modified, 1);
        assert_eq!(m.bus().stats().modified_interventions, 1);
    }

    #[test]
    fn dirty_eviction_produces_writeback_transaction() {
        let mut m = small_machine(1);
        // Outer cache: 8 sets x 2 ways; lines 0, 8, 16 all map to set 0.
        let base = 0u64;
        m.store(0, Address::new(base)); // line 0 Modified
        m.load(0, Address::new(base + 8 * 128)); // line 8
        m.load(0, Address::new(base + 16 * 128)); // line 16 evicts line 0 (LRU)
        let s = m.stats();
        assert_eq!(s.cpu(0).writebacks, 1);
        assert_eq!(m.bus().stats().count(BusOp::WriteBack), 1);
        // The evicted line is gone from the inner cache too.
        let line0 = m.config().outer_cache.line_addr(Address::new(base));
        assert!(!m.cpu(0).inner_cache().unwrap().contains(line0));
    }

    #[test]
    fn store_hit_in_inner_with_exclusive_outer_silently_modifies() {
        let mut m = small_machine(1);
        let a = Address::new(0x2000);
        let line = m.config().outer_cache.line_addr(a);
        m.load(0, a); // fills E
        m.store(0, a); // inner hit, outer E -> M, no bus traffic
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Modified);
        assert_eq!(m.bus().stats().count(BusOp::DClaim), 0);
        assert_eq!(m.bus().stats().count(BusOp::Rwitm), 0);
        let s = m.stats();
        assert_eq!(s.cpu(0).inner_hits, 1);
    }

    #[test]
    fn dma_write_invalidates_all_copies() {
        let mut m = small_machine(2);
        let a = Address::new(0x3000);
        let line = m.config().outer_cache.line_addr(a);
        m.load(0, a);
        m.load(1, a);
        m.dma_write(a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Invalid);
        assert_eq!(m.cpu(1).outer_state(line), MesiState::Invalid);
        assert_eq!(m.bus().stats().count(BusOp::DmaWrite), 1);
    }

    #[test]
    fn dma_read_pulls_dirty_data_out() {
        let mut m = small_machine(1);
        let a = Address::new(0x3000);
        let line = m.config().outer_cache.line_addr(a);
        m.store(0, a);
        let writes_before = m.memory().writes();
        m.dma_read(a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Shared);
        assert_eq!(m.memory().writes(), writes_before + 1);
    }

    #[test]
    fn flush_cleans_everywhere() {
        let mut m = small_machine(2);
        let a = Address::new(0x4000);
        let line = m.config().outer_cache.line_addr(a);
        m.store(0, a);
        m.flush(1, a); // flush issued by another cpu
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Invalid);
        assert_eq!(m.bus().stats().count(BusOp::Flush), 1);
    }

    #[test]
    fn instruction_ticks_advance_the_bus_clock() {
        let mut m = small_machine(2);
        let before = m.bus().current_cycle();
        // 2 cpus: 2x262 instructions at CPI 1.5 -> 150 bus cycles total.
        m.tick_instructions(0, 262);
        m.tick_instructions(1, 262);
        let elapsed = m.bus().current_cycle() - before;
        assert!((149..=151).contains(&elapsed), "elapsed {elapsed}");
        assert_eq!(m.stats().total_instructions(), 524);
    }

    #[test]
    fn inclusion_invariant_holds_under_traffic() {
        let mut m = small_machine(2);
        // Drive enough conflicting traffic to force evictions.
        for i in 0..200u64 {
            let cpu = (i % 2) as usize;
            let addr = Address::new((i * 37 % 64) * 128);
            if i % 3 == 0 {
                m.store(cpu, addr);
            } else {
                m.load(cpu, addr);
            }
        }
        for cpu in 0..2 {
            let p = m.cpu(cpu);
            let inner = p.inner_cache().unwrap();
            for (line, _) in inner.iter() {
                assert!(
                    p.outer_cache().contains(line),
                    "inclusion violated: cpu{cpu} line {line} in L1 but not L2"
                );
            }
        }
    }

    #[test]
    fn cpu_view_follows_config() {
        let m = HostMachine::new(HostConfig::s7a()).unwrap();
        assert_eq!(m.cpu(7).id(), ProcId::new(7));
        assert!(m.cpu(0).inner_cache().is_some());
        assert_eq!(m.cpu(0).outer_cache().geometry().capacity(), 8 << 20);
        assert_eq!(m.cpu(0).outer_cache().iter().count(), 0);

        let m = HostMachine::new(HostConfig::s7a_l2_off()).unwrap();
        assert!(m.cpu(0).inner_cache().is_none());
        assert_eq!(m.cpu(0).outer_cache().geometry().capacity(), 64 << 10);
    }

    #[test]
    fn l2_off_machine_snoops_at_l1() {
        let cfg = HostConfig {
            num_cpus: 2,
            inner_cache: None,
            outer_cache: Geometry::new(512, 2, 128).unwrap(),
            ..HostConfig::s7a()
        };
        let mut m = HostMachine::new(cfg).unwrap();
        let a = Address::new(0x100);
        m.load(0, a);
        m.store(1, a);
        let line = m.config().outer_cache.line_addr(a);
        assert_eq!(m.cpu(0).outer_state(line), MesiState::Invalid);
        assert_eq!(m.cpu(1).outer_state(line), MesiState::Modified);
    }
}
