//! The set-major, probe-once `TagStore` against a reference copy of the
//! three-array store it replaced (separate tag, state and stamp arrays,
//! one search per call).
//!
//! Random sequences of `state` / `touch` / `set_state` / `allocate` /
//! `invalidate` drive both stores across 1, 2, 4 and 8 ways under every
//! replacement policy. After every step the two must agree on the call's
//! result (victims included), `resident_lines` and the sorted `iter()`.

use memories::{CacheParams, EvictedLine, ReplacementPolicy, TagStore};
use memories_bus::{Address, Geometry, LineAddr};
use memories_protocol::StateId;
use proptest::prelude::*;

/// Sets in every store under test: few, so sequences fill and evict.
const SETS: u64 = 4;
/// Distinct lines a sequence touches: three times the largest capacity.
const LINES: u64 = SETS * 8 * 3;

fn plru_touch(bits: u8, way: u32, ways: u32) -> u8 {
    let full = if ways >= 8 { 0xffu8 } else { (1u8 << ways) - 1 };
    let mut b = bits | (1 << way);
    if b == full {
        b = 1 << way;
    }
    b
}

fn plru_victim(bits: u8, ways: u32) -> u32 {
    (0..ways).find(|w| bits & (1 << w) == 0).unwrap_or(0)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The reference: the store as it was before the set-major layout.
struct ThreeArrayStore {
    geom: Geometry,
    policy: ReplacementPolicy,
    tags: Vec<u64>,
    states: Vec<StateId>,
    stamps: Vec<u64>,
    plru: Vec<u8>,
    rng: XorShift,
    tick: u64,
    resident: u64,
}

impl ThreeArrayStore {
    fn new(params: &CacheParams) -> Self {
        let geom = *params.geometry();
        let n = geom.lines() as usize;
        ThreeArrayStore {
            geom,
            policy: params.replacement(),
            tags: vec![0; n],
            states: vec![StateId::INVALID; n],
            stamps: vec![0; n],
            plru: vec![0; geom.sets()],
            rng: XorShift(0x9E37_79B9_7F4A_7C15),
            tick: 0,
            resident: 0,
        }
    }

    fn way_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.geom.ways() as usize;
        set * ways..(set + 1) * ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        self.way_range(set)
            .find(|&i| !self.states[i].is_invalid() && self.tags[i] == tag)
    }

    fn state(&self, line: LineAddr) -> StateId {
        self.find(line).map_or(StateId::INVALID, |i| self.states[i])
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        match self.policy {
            ReplacementPolicy::Lru => {
                self.tick += 1;
                self.stamps[i] = self.tick;
            }
            ReplacementPolicy::PlruBits => {
                let set = self.geom.set_index(line);
                let way = (i - set * self.geom.ways() as usize) as u32;
                self.plru[set] = plru_touch(self.plru[set], way, self.geom.ways());
            }
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
        }
        true
    }

    fn set_state(&mut self, line: LineAddr, state: StateId) -> Option<StateId> {
        let i = self.find(line)?;
        let old = self.states[i];
        self.states[i] = state;
        if state.is_invalid() {
            self.resident -= 1;
        }
        Some(old)
    }

    fn allocate(&mut self, line: LineAddr, state: StateId) -> Option<EvictedLine> {
        if let Some(i) = self.find(line) {
            self.states[i] = state;
            self.touch(line);
            return None;
        }
        let set = self.geom.set_index(line);
        let ways = self.geom.ways();
        let free = self.way_range(set).find(|&i| self.states[i].is_invalid());
        let (idx, victim) = match free {
            Some(i) => {
                self.resident += 1;
                (i, None)
            }
            None => {
                let way = match self.policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                        let base = set * ways as usize;
                        let mut oldest_way = 0u32;
                        let mut oldest = u64::MAX;
                        for w in 0..ways {
                            let s = self.stamps[base + w as usize];
                            if s < oldest {
                                oldest = s;
                                oldest_way = w;
                            }
                        }
                        oldest_way
                    }
                    ReplacementPolicy::Random => (self.rng.next() % u64::from(ways)) as u32,
                    ReplacementPolicy::PlruBits => plru_victim(self.plru[set], ways),
                };
                let i = set * ways as usize + way as usize;
                let victim = EvictedLine {
                    line: self.geom.line_from_parts(self.tags[i], set),
                    state: self.states[i],
                };
                (i, Some(victim))
            }
        };
        self.tags[idx] = self.geom.tag(line);
        self.states[idx] = state;
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.tick += 1;
                self.stamps[idx] = self.tick;
            }
            ReplacementPolicy::PlruBits => {
                let way = (idx - set * ways as usize) as u32;
                self.plru[set] = plru_touch(self.plru[set], way, ways);
            }
            ReplacementPolicy::Random => {}
        }
        victim
    }

    fn invalidate(&mut self, line: LineAddr) -> StateId {
        match self.find(line) {
            Some(i) => {
                let old = self.states[i];
                self.states[i] = StateId::INVALID;
                self.resident -= 1;
                old
            }
            None => StateId::INVALID,
        }
    }

    fn iter(&self) -> impl Iterator<Item = (LineAddr, StateId)> + '_ {
        let ways = self.geom.ways() as usize;
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_invalid())
            .map(move |(i, s)| (self.geom.line_from_parts(self.tags[i], i / ways), *s))
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    State(u64),
    Touch(u64),
    SetState(u64, u8),
    Allocate(u64, u8),
    Invalidate(u64),
}

#[derive(Debug, PartialEq, Eq)]
enum Out {
    State(StateId),
    Touch(bool),
    SetState(Option<StateId>),
    Allocate(Option<EvictedLine>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..LINES, 0u8..StateId::MAX_STATES as u8).prop_map(|(kind, line, s)| {
        // Allocation-heavy, so sets fill and the victim paths run.
        match kind {
            0 => Op::State(line),
            1 | 2 => Op::Touch(line),
            3 => Op::SetState(line, s),
            4 => Op::Invalidate(line),
            _ => Op::Allocate(line, s.max(1)),
        }
    })
}

fn params(ways: u32, policy: ReplacementPolicy) -> CacheParams {
    CacheParams::builder()
        .capacity(u64::from(ways) * SETS * 128)
        .ways(ways)
        .line_size(128)
        .replacement(policy)
        .allow_scaled_down()
        .build()
        .expect("valid test geometry")
}

fn sorted(iter: impl Iterator<Item = (LineAddr, StateId)>) -> Vec<(u64, StateId)> {
    let mut v: Vec<_> = iter.map(|(line, s)| (line.value(), s)).collect();
    v.sort_unstable();
    v
}

/// Runs `ops` against both stores, returning the first divergence.
fn diverges(ways: u32, policy: ReplacementPolicy, ops: &[Op]) -> Option<String> {
    let p = params(ways, policy);
    let mut store = TagStore::new(&p);
    let mut reference = ThreeArrayStore::new(&p);
    let geom = *store.geometry();
    let line = |n: u64| geom.line_addr(Address::new(n * 128));
    for (step, op) in ops.iter().enumerate() {
        let (got, want) = match *op {
            Op::State(n) => (
                Out::State(store.state(line(n))),
                Out::State(reference.state(line(n))),
            ),
            Op::Touch(n) => (
                Out::Touch(store.touch(line(n))),
                Out::Touch(reference.touch(line(n))),
            ),
            Op::SetState(n, s) => (
                Out::SetState(store.set_state(line(n), StateId::new(s))),
                Out::SetState(reference.set_state(line(n), StateId::new(s))),
            ),
            Op::Allocate(n, s) => (
                Out::Allocate(store.allocate(line(n), StateId::new(s))),
                Out::Allocate(reference.allocate(line(n), StateId::new(s))),
            ),
            Op::Invalidate(n) => (
                Out::State(store.invalidate(line(n))),
                Out::State(reference.invalidate(line(n))),
            ),
        };
        let context = format!("{ways}-way {policy}, step {step} ({op:?})");
        if got != want {
            return Some(format!("{context}: got {got:?}, reference {want:?}"));
        }
        if store.resident_lines() != reference.resident {
            return Some(format!(
                "{context}: resident {} vs reference {}",
                store.resident_lines(),
                reference.resident
            ));
        }
        if sorted(store.iter()) != sorted(reference.iter()) {
            return Some(format!("{context}: resident entries differ"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn set_major_store_matches_three_array_store(
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        for ways in [1u32, 2, 4, 8] {
            for policy in ReplacementPolicy::ALL {
                let divergence = diverges(ways, policy, &ops);
                prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());
            }
        }
    }
}

#[test]
fn long_eviction_heavy_sequences_agree() {
    // A deterministic stream long enough to wrap every set many times.
    let mut rng = XorShift(0x5EED);
    let ops: Vec<Op> = (0..20_000)
        .map(|_| {
            let r = rng.next();
            let line = (r >> 8) % LINES;
            let s = ((r >> 40) % StateId::MAX_STATES as u64) as u8;
            match r % 10 {
                0 => Op::State(line),
                1 | 2 => Op::Touch(line),
                3 => Op::SetState(line, s),
                4 => Op::Invalidate(line),
                _ => Op::Allocate(line, s.max(1)),
            }
        })
        .collect();
    for ways in [1u32, 2, 4, 8] {
        for policy in ReplacementPolicy::ALL {
            assert_eq!(diverges(ways, policy, &ops), None);
        }
    }
}
