//! NUMA directory and remote-cache emulation firmware (§2.3).
//!
//! "MemorIES can also emulate NUMA directory protocols, for example, a
//! system with 4 NUMA nodes kept coherent using a sparse-directory cache
//! coherence scheme. The memory address space can be partitioned so that
//! one of the 4 nodes is the 'home' for that particular partition. ... If
//! an entry gets evicted out of the sparse directory, then the other L3
//! nodes can be informed about the eviction so that the entry can also be
//! invalidated in the other L3 tag directories." Each node's private
//! memory can additionally hold a remote-cache tag directory.

use std::fmt;

use memories_bus::{Address, BusListener, BusOp, ListenerReaction, ProcId, Transaction};
use memories_protocol::StateId;

use crate::error::BoardError;
use crate::filter::NodePartition;
use crate::params::{CacheParams, ParamError};
use crate::tagstore::TagStore;

/// L3 directory states used by the NUMA firmware (a fixed MSI-style
/// scheme; the programmable-table machinery belongs to the main board
/// firmware).
const L3_SHARED: StateId = StateId::new_const(1);
const L3_MODIFIED: StateId = StateId::new_const(2);
const RC_VALID: StateId = StateId::new_const(1);
/// Sparse directory entry states: whether the line is dirty at its home.
const DIR_CLEAN: StateId = StateId::new_const(1);
const DIR_DIRTY: StateId = StateId::new_const(2);

/// Sparse directory shape: a set-associative array of line entries, each
/// holding a presence bitmask over the NUMA nodes and a dirty bit. The
/// shape is held to Table 2's bounds (1–8 ways, 128 B–16 KB lines, a
/// power-of-two set count), like every other directory on the board.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectoryParams {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: u32,
    /// Line size the directory tracks, in bytes.
    pub line_size: u64,
}

impl DirectoryParams {
    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways as usize
    }

    /// The directory's tag-store parameters (LRU, at any capacity).
    fn cache_params(&self) -> Result<CacheParams, ParamError> {
        CacheParams::builder()
            .capacity(self.entries() as u64 * self.line_size)
            .ways(self.ways)
            .line_size(self.line_size)
            .allow_scaled_down()
            .build()
    }
}

/// Configuration of the NUMA emulation firmware.
#[derive(Clone, Debug)]
pub struct NumaConfig {
    /// CPU partition: `partition[i]` lists the CPUs of NUMA node `i`
    /// (2–4 nodes).
    pub partition: Vec<Vec<ProcId>>,
    /// Home interleaving granularity in bytes: address `a` is homed at
    /// node `(a / stripe) % nodes`.
    pub home_stripe: u64,
    /// Per-node L3 directory parameters.
    pub l3: CacheParams,
    /// The sparse directory shape at each home node.
    pub directory: DirectoryParams,
    /// Optional per-node remote cache.
    pub remote_cache: Option<CacheParams>,
}

impl NumaConfig {
    /// A four-node configuration splitting `cpus` round-robin, with 4 KB
    /// home striping.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the partition or the directory shape is
    /// invalid.
    pub fn four_node(
        cpus: impl IntoIterator<Item = ProcId>,
        l3: CacheParams,
        directory: DirectoryParams,
    ) -> Result<Self, BoardError> {
        let mut partition: Vec<Vec<ProcId>> = vec![Vec::new(); 4];
        for (i, cpu) in cpus.into_iter().enumerate() {
            partition[i % 4].push(cpu);
        }
        let cfg = NumaConfig {
            partition,
            home_stripe: 4096,
            l3,
            directory,
            remote_cache: None,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the partition and the directory shape; returns the
    /// directory's tag-store parameters.
    fn validate(&self) -> Result<CacheParams, BoardError> {
        // Reuse the partition validator for shape checks.
        NodePartition::new(
            self.partition
                .iter()
                .map(|cpus| (0u8, cpus.iter().copied())),
        )?;
        Ok(self.directory.cache_params()?)
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.partition.len()
    }

    /// The home node of an address.
    pub fn home_of(&self, addr: Address) -> usize {
        ((addr.value() / self.home_stripe) % self.partition.len() as u64) as usize
    }

    /// The NUMA node of a requester, if it belongs to the partition.
    pub fn node_of(&self, proc: ProcId) -> Option<usize> {
        self.partition.iter().position(|cpus| cpus.contains(&proc))
    }
}

/// Counters of the NUMA firmware.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumaCounters {
    /// Requests homed at the requester's own node.
    pub local_requests: u64,
    /// Requests homed at another node.
    pub remote_requests: u64,
    /// Sparse directory hits.
    pub directory_hits: u64,
    /// Sparse directory misses (new entries allocated).
    pub directory_misses: u64,
    /// Directory entries evicted to make room.
    pub directory_evictions: u64,
    /// L3 invalidations caused by directory evictions (the "inform the
    /// other L3 nodes" traffic).
    pub eviction_invalidations: u64,
    /// Invalidations caused by writes to shared lines.
    pub write_invalidations: u64,
    /// Remote-cache hits (only when a remote cache is configured).
    pub remote_cache_hits: u64,
    /// Remote-cache misses.
    pub remote_cache_misses: u64,
}

impl NumaCounters {
    /// Fraction of requests that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_requests + self.remote_requests;
        if total == 0 {
            0.0
        } else {
            self.remote_requests as f64 / total as f64
        }
    }
}

/// The NUMA emulation firmware: per-node L3 directories, per-home sparse
/// directories, and optional per-node remote caches, driven passively
/// from the bus.
///
/// Every directory is a [`TagStore`]. A sparse directory's entry state
/// says whether its line is dirty; its presence bitmask over the nodes
/// sits beside it, one byte per way at `set * ways + way`.
pub struct NumaEmulator {
    config: NumaConfig,
    l3: Vec<TagStore>,
    remote_caches: Vec<Option<TagStore>>,
    directories: Vec<TagStore>,
    presence: Vec<Vec<u8>>,
    counters: NumaCounters,
}

impl NumaEmulator {
    /// Builds the firmware.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] for an invalid partition, or
    /// [`BoardError::Params`] for a directory shape outside Table 2.
    pub fn new(config: NumaConfig) -> Result<Self, BoardError> {
        let directory = config.validate()?;
        let nodes = config.nodes();
        Ok(NumaEmulator {
            l3: (0..nodes).map(|_| TagStore::new(&config.l3)).collect(),
            remote_caches: (0..nodes)
                .map(|_| config.remote_cache.as_ref().map(TagStore::new))
                .collect(),
            directories: (0..nodes).map(|_| TagStore::new(&directory)).collect(),
            presence: vec![vec![0; config.directory.entries()]; nodes],
            config,
            counters: NumaCounters::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NumaConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &NumaCounters {
        &self.counters
    }

    /// The L3 directory state a node holds for `addr` (tests).
    pub fn l3_state(&self, node: usize, addr: Address) -> StateId {
        let l3 = &self.l3[node];
        l3.probe(l3.geometry().line_addr(addr)).state()
    }

    /// Whether a node's remote cache holds `addr` (tests; `false` when no
    /// remote cache is configured).
    pub fn remote_cache_contains(&self, node: usize, addr: Address) -> bool {
        self.remote_caches[node]
            .as_ref()
            .is_some_and(|rc| rc.probe(rc.geometry().line_addr(addr)).hit())
    }

    /// Drops `addr` from the L3 directory and remote cache of every node
    /// in `mask` but `skip`; returns how many L3 entries it freed.
    fn invalidate_in_nodes(&mut self, addr: Address, mask: u8, skip: Option<usize>) -> u64 {
        let mut invalidated = 0;
        for node in 0..self.config.nodes() {
            if Some(node) == skip || mask & (1 << node) == 0 {
                continue;
            }
            let l3 = &mut self.l3[node];
            let probe = l3.probe(l3.geometry().line_addr(addr));
            l3.update(&probe, StateId::INVALID, false);
            if probe.hit() {
                invalidated += 1;
            }
            if let Some(rc) = &mut self.remote_caches[node] {
                let probe = rc.probe(rc.geometry().line_addr(addr));
                rc.update(&probe, StateId::INVALID, false);
            }
        }
        invalidated
    }
}

impl BusListener for NumaEmulator {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        let write = match txn.op {
            BusOp::Read => false,
            BusOp::Rwitm | BusOp::DClaim => true,
            _ => return ListenerReaction::Proceed,
        };
        let Some(node) = self.config.node_of(txn.proc) else {
            return ListenerReaction::Proceed;
        };
        let home = self.config.home_of(txn.addr);

        if node == home {
            self.counters.local_requests += 1;
        } else {
            self.counters.remote_requests += 1;
            // Remote requests go through the requester's remote cache.
            if let Some(rc) = &mut self.remote_caches[node] {
                let line = rc.geometry().line_addr(txn.addr);
                let probe = rc.probe(line);
                if probe.hit() {
                    self.counters.remote_cache_hits += 1;
                    rc.update(&probe, probe.state(), true);
                } else {
                    self.counters.remote_cache_misses += 1;
                    rc.fill(&probe, line, RC_VALID);
                }
            }
        }

        // The requester's L3 directory tracks the line.
        let l3 = &mut self.l3[node];
        let line = l3.geometry().line_addr(txn.addr);
        let state = if write { L3_MODIFIED } else { L3_SHARED };
        let probe = l3.probe(line);
        if probe.hit() {
            l3.update(&probe, state, true);
        } else {
            l3.fill(&probe, line, state);
        }

        // The home node's sparse directory.
        let dir = &mut self.directories[home];
        let geom = *dir.geometry();
        let line = geom.line_addr(txn.addr);
        let node_bit = 1u8 << node;
        let probe = dir.probe(line);
        if let Some(way) = probe.way() {
            self.counters.directory_hits += 1;
            let presence =
                &mut self.presence[home][probe.set() * geom.ways() as usize + way as usize];
            let others = *presence & !node_bit;
            if write {
                *presence = node_bit;
                dir.update(&probe, DIR_DIRTY, true);
            } else {
                *presence |= node_bit;
                dir.update(&probe, probe.state(), true);
            }
            if write && others != 0 {
                self.counters.write_invalidations +=
                    self.invalidate_in_nodes(geom.line_base(line), others, Some(node));
            }
        } else {
            self.counters.directory_misses += 1;
            let evicted = dir.fill(&probe, line, if write { DIR_DIRTY } else { DIR_CLEAN });
            // The new line sits in the victim's way: read the victim's
            // sharers before recording the requester.
            let way = dir.probe(line).way().expect("a filled line is resident");
            let presence =
                &mut self.presence[home][probe.set() * geom.ways() as usize + way as usize];
            let sharers = std::mem::replace(presence, node_bit);
            if let Some(victim) = evicted {
                self.counters.directory_evictions += 1;
                // Inform the L3 nodes: the evicted entry's sharers must
                // drop the line (the sparse directory can no longer
                // track it).
                self.counters.eviction_invalidations +=
                    self.invalidate_in_nodes(geom.line_base(victim.line), sharers, None);
            }
        }
        ListenerReaction::Proceed
    }
}

impl fmt::Debug for NumaEmulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NumaEmulator")
            .field("nodes", &self.config.nodes())
            .field("counters", &self.counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::SnoopResponse;

    fn config(dir_sets: usize) -> NumaConfig {
        let l3 = CacheParams::builder()
            .capacity(8192)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        NumaConfig::four_node(
            (0..8).map(ProcId::new),
            l3,
            DirectoryParams {
                sets: dir_sets,
                ways: 2,
                line_size: 128,
            },
        )
        .unwrap()
    }

    fn txn(proc: u8, op: BusOp, addr: u64) -> Transaction {
        Transaction::new(
            0,
            0,
            ProcId::new(proc),
            op,
            Address::new(addr),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn home_striping_and_node_mapping() {
        let c = config(16);
        assert_eq!(c.home_of(Address::new(0)), 0);
        assert_eq!(c.home_of(Address::new(4096)), 1);
        assert_eq!(c.home_of(Address::new(3 * 4096)), 3);
        assert_eq!(c.home_of(Address::new(4 * 4096)), 0);
        // Round-robin partition: cpu0->node0, cpu1->node1, cpu5->node1.
        assert_eq!(c.node_of(ProcId::new(0)), Some(0));
        assert_eq!(c.node_of(ProcId::new(5)), Some(1));
        assert_eq!(c.node_of(ProcId::new(13)), None);
    }

    #[test]
    fn local_vs_remote_separation() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        // cpu0 is node 0; address 0 is homed at node 0 -> local.
        n.on_transaction(&txn(0, BusOp::Read, 0));
        // address 4096 is homed at node 1 -> remote for cpu0.
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        assert_eq!(n.counters().local_requests, 1);
        assert_eq!(n.counters().remote_requests, 1);
        assert!((n.counters().remote_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn directory_tracks_sharers_and_write_invalidates() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        // Two nodes read the same home-0 line.
        n.on_transaction(&txn(0, BusOp::Read, 0)); // node 0
        n.on_transaction(&txn(1, BusOp::Read, 0)); // node 1
        assert!(!n.l3_state(0, Address::new(0)).is_invalid());
        assert!(!n.l3_state(1, Address::new(0)).is_invalid());
        // Node 2 writes it: nodes 0 and 1 must be invalidated.
        n.on_transaction(&txn(2, BusOp::Rwitm, 0));
        assert!(n.l3_state(0, Address::new(0)).is_invalid());
        assert!(n.l3_state(1, Address::new(0)).is_invalid());
        assert!(!n.l3_state(2, Address::new(0)).is_invalid());
        assert_eq!(n.counters().write_invalidations, 2);
    }

    #[test]
    fn directory_eviction_informs_l3_nodes() {
        // A 1-set, 2-way directory: the third distinct home-0 line evicts.
        // Offsets keep the three lines in different L3 sets (the L3 is
        // 8 KB/2-way/128 B = 32 sets) so only the directory conflicts.
        let mut n = NumaEmulator::new(config(1)).unwrap();
        let stripe = 4 * 4096u64; // stride between consecutive home-0 windows
        let (a, b, c) = (0u64, stripe + 128, 2 * stripe + 256);
        n.on_transaction(&txn(0, BusOp::Read, a));
        n.on_transaction(&txn(0, BusOp::Read, b));
        assert_eq!(n.counters().directory_evictions, 0);
        n.on_transaction(&txn(0, BusOp::Read, c));
        assert_eq!(n.counters().directory_evictions, 1);
        assert_eq!(n.counters().eviction_invalidations, 1);
        // The evicted entry (LRU: address a) was invalidated in node 0's L3.
        assert!(n.l3_state(0, Address::new(a)).is_invalid());
        assert!(!n.l3_state(0, Address::new(c)).is_invalid());
    }

    #[test]
    fn remote_cache_counts_hits_after_first_touch() {
        let mut cfg = config(16);
        cfg.remote_cache = Some(
            CacheParams::builder()
                .capacity(4096)
                .ways(2)
                .line_size(128)
                .allow_scaled_down()
                .build()
                .unwrap(),
        );
        let mut n = NumaEmulator::new(cfg).unwrap();
        // cpu0 (node 0) touches a node-1-homed line twice.
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        assert_eq!(n.counters().remote_cache_misses, 1);
        assert_eq!(n.counters().remote_cache_hits, 1);
        assert!(n.remote_cache_contains(0, Address::new(4096)));
        // Local requests bypass the remote cache.
        n.on_transaction(&txn(0, BusOp::Read, 0));
        assert_eq!(n.counters().remote_cache_misses, 1);
    }

    #[test]
    fn non_memory_traffic_is_ignored() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        n.on_transaction(&txn(0, BusOp::Sync, 0));
        n.on_transaction(&txn(0, BusOp::WriteBack, 0));
        assert_eq!(
            n.counters().local_requests + n.counters().remote_requests,
            0
        );
    }
}
