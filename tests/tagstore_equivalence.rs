//! The set-major, probe-once `TagStore` against a reference copy of the
//! three-array store it replaced (separate tag, state and stamp arrays,
//! one search per call).
//!
//! Random sequences of `state` / `touch` / `set_state` / `allocate` /
//! `invalidate` drive both stores across 1, 2, 4 and 8 ways under every
//! replacement policy. The `TagStore` runs each one as the node
//! controller does: one `probe`, then `update` on a hit or `fill` on an
//! allocating miss. After every step the two must agree on the call's
//! result (victims included), `resident_lines` and the sorted `iter()`.
//! The wide cases set bit 40 of a quarter of the line numbers, so tags at
//! and above 2^32 share sets with small ones.

use memories::{CacheParams, EvictedLine, ReplacementPolicy, TagStore};
use memories_bus::{Address, Geometry, LineAddr};
use memories_protocol::StateId;
use proptest::prelude::*;

/// Sets in every store under test: few, so sequences fill and evict.
const SETS: u64 = 4;
/// Distinct lines a sequence touches: three times the largest capacity.
const LINES: u64 = SETS * 8 * 3;
/// The line-number bit the wide cases set: above it, tags pass 2^32.
const WIDE: u64 = 1 << 40;

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

impl Op {
    /// The line number the operation names.
    fn line(self) -> u64 {
        match self {
            Op::State(n)
            | Op::Touch(n)
            | Op::SetState(n, _)
            | Op::Allocate(n, _)
            | Op::Invalidate(n) => n,
        }
    }

    /// The same operation on the line `WIDE` above: same set, wide tag.
    fn widen(self) -> Op {
        match self {
            Op::State(n) => Op::State(n | WIDE),
            Op::Touch(n) => Op::Touch(n | WIDE),
            Op::SetState(n, s) => Op::SetState(n | WIDE, s),
            Op::Allocate(n, s) => Op::Allocate(n | WIDE, s),
            Op::Invalidate(n) => Op::Invalidate(n | WIDE),
        }
    }
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

/// `arb_op` with bit 40 set on a quarter of the line numbers.
fn arb_wide_op() -> impl Strategy<Value = Op> {
    (arb_op(), 0u8..4).prop_map(|(op, q)| if q == 0 { op.widen() } else { op })
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

/// Applies `op` to `store` through one probe and one transition.
fn apply(store: &mut TagStore, op: Op, line: LineAddr) -> Out {
    let probe = store.probe(line);
    match op {
        Op::State(_) => Out::State(probe.state()),
        Op::Touch(_) => {
            store.update(&probe, probe.state(), true);
            Out::Touch(probe.hit())
        }
        Op::SetState(_, s) => {
            store.update(&probe, StateId::new(s), false);
            Out::SetState(probe.hit().then_some(probe.state()))
        }
        Op::Allocate(_, s) if probe.hit() => {
            store.update(&probe, StateId::new(s), true);
            Out::Allocate(None)
        }
        Op::Allocate(_, s) => Out::Allocate(store.fill(&probe, line, StateId::new(s))),
        Op::Invalidate(_) => {
            store.update(&probe, StateId::INVALID, false);
            Out::State(probe.state())
        }
    }
}

/// Runs `ops` against both stores, returning the first divergence.
fn diverges(ways: u32, policy: ReplacementPolicy, ops: &[Op]) -> Option<String> {
    let p = params(ways, policy);
    let mut store = TagStore::new(&p);
    let mut reference = ThreeArrayStore::new(&p);
    let geom = *store.geometry();
    let line = |n: u64| geom.line_addr(Address::new(n * 128));
    for (step, op) in ops.iter().enumerate() {
        let line = line(op.line());
        let got = apply(&mut store, *op, line);
        let want = match *op {
            Op::State(_) => Out::State(reference.state(line)),
            Op::Touch(_) => Out::Touch(reference.touch(line)),
            Op::SetState(_, s) => Out::SetState(reference.set_state(line, StateId::new(s))),
            Op::Allocate(_, s) => Out::Allocate(reference.allocate(line, StateId::new(s))),
            Op::Invalidate(_) => Out::State(reference.invalidate(line)),
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

    #[test]
    fn wide_tags_match_three_array_store(
        ops in prop::collection::vec(arb_wide_op(), 1..400),
    ) {
        for ways in [1u32, 2, 4, 8] {
            for policy in ReplacementPolicy::ALL {
                let divergence = diverges(ways, policy, &ops);
                prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());
            }
        }
    }
}

/// A deterministic stream long enough to wrap every set many times; with
/// `wide`, bit 40 is set on a quarter of its line numbers.
fn long_ops(wide: bool) -> Vec<Op> {
    let mut rng = XorShift(0x5EED);
    (0..20_000)
        .map(|_| {
            let r = rng.next();
            let line = (r >> 8) % LINES;
            let s = ((r >> 40) % StateId::MAX_STATES as u64) as u8;
            let op = match r % 10 {
                0 => Op::State(line),
                1 | 2 => Op::Touch(line),
                3 => Op::SetState(line, s),
                4 => Op::Invalidate(line),
                _ => Op::Allocate(line, s.max(1)),
            };
            if wide && (r >> 60).is_multiple_of(4) {
                op.widen()
            } else {
                op
            }
        })
        .collect()
}

#[test]
fn long_eviction_heavy_sequences_agree() {
    let ops = long_ops(false);
    for ways in [1u32, 2, 4, 8] {
        for policy in ReplacementPolicy::ALL {
            assert_eq!(diverges(ways, policy, &ops), None);
        }
    }
}

#[test]
fn long_wide_tag_sequences_agree() {
    let ops = long_ops(true);
    for ways in [1u32, 2, 4, 8] {
        for policy in ReplacementPolicy::ALL {
            assert_eq!(diverges(ways, policy, &ops), None);
        }
    }
}
