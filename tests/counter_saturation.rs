//! The 40-bit counters saturate at exactly 2^40 − 1, through every path
//! the board and the parallel engine use: `add`, `incr`, `observe` and
//! `merge`. A counter that went past the ceiling reads 2^40 − 1 with its
//! saturation flag set, and reads the same however far past it went.
//!
//! Paper scale needs this: at 20% utilization a 40-bit counter fills in
//! about thirty hours (§3).

use std::collections::HashSet;

use memories::{Counter40, GlobalCounters, NodeCounter, NodeCounters};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};

const MAX: u64 = Counter40::MAX;

fn read(seq: u64) -> Transaction {
    Transaction::new(
        seq,
        seq,
        ProcId::new(0),
        BusOp::Read,
        Address::new(0),
        SnoopResponse::Null,
    )
}

/// A global bank that has observed `n` reads, built by doubling merges
/// from a bank that observed one: 2·log2(n) merges instead of `n`
/// observations.
fn global_with(n: u64) -> GlobalCounters {
    let mut one = GlobalCounters::default();
    one.observe(&read(0));
    let mut bank = GlobalCounters::default();
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        let copy = bank.clone();
        bank.merge(&copy);
        if n >> bit & 1 == 1 {
            bank.merge(&one);
        }
    }
    bank
}

#[test]
fn node_counters_step_past_the_ceiling() {
    let mut bank = NodeCounters::new();
    bank.add(NodeCounter::ReadHits, MAX - 1);
    assert_eq!(bank.get(NodeCounter::ReadHits), MAX - 1);
    assert!(!bank.any_saturated());

    bank.incr(NodeCounter::ReadHits);
    assert_eq!(bank.get(NodeCounter::ReadHits), MAX);
    assert!(!bank.counter(NodeCounter::ReadHits).saturated());
    assert!(!bank.any_saturated());

    bank.incr(NodeCounter::ReadHits);
    assert_eq!(bank.get(NodeCounter::ReadHits), MAX);
    assert!(bank.counter(NodeCounter::ReadHits).saturated());
    assert!(bank.any_saturated());

    for _ in 0..1000 {
        bank.incr(NodeCounter::ReadHits);
    }
    assert_eq!(bank.get(NodeCounter::ReadHits), MAX);
    assert_eq!(
        bank.counter(NodeCounter::ReadHits).to_string(),
        format!("{MAX}+")
    );
    assert_eq!(bank.get(NodeCounter::ReadMisses), 0);
}

#[test]
fn global_counters_step_past_the_ceiling() {
    let mut bank = global_with(MAX - 1);
    assert_eq!(bank.transactions(), MAX - 1);
    assert_eq!(bank.count(BusOp::Read), MAX - 1);
    assert!(!bank.any_saturated());

    bank.observe(&read(1));
    assert_eq!(bank.transactions(), MAX);
    assert_eq!(bank.count(BusOp::Read), MAX);
    assert!(!bank.any_saturated());

    bank.observe(&read(2));
    assert_eq!(bank.transactions(), MAX);
    assert_eq!(bank.count(BusOp::Read), MAX);
    assert_eq!(bank.count(BusOp::Rwitm), 0);
    assert!(bank.any_saturated());
}

#[test]
fn merges_that_cross_the_ceiling_saturate() {
    // Landing exactly on the ceiling is not saturation.
    let mut exact = NodeCounters::new();
    exact.add(NodeCounter::WriteMisses, MAX - 3);
    let mut three = NodeCounters::new();
    three.add(NodeCounter::WriteMisses, 3);
    exact.merge(&three);
    assert_eq!(exact.get(NodeCounter::WriteMisses), MAX);
    assert!(!exact.any_saturated());

    // One past it is.
    let mut over = NodeCounters::new();
    over.add(NodeCounter::WriteMisses, MAX - 1);
    over.merge(&three);
    assert_eq!(over.get(NodeCounter::WriteMisses), MAX);
    assert!(over.counter(NodeCounter::WriteMisses).saturated());

    // A saturated part keeps the whole saturated, whatever it merges with.
    let mut clean = NodeCounters::new();
    clean.merge(&over);
    assert!(clean.counter(NodeCounter::WriteMisses).saturated());
    assert_eq!(clean.get(NodeCounter::WriteMisses), MAX);

    // Two global halves whose sum crosses the ceiling, and two that land
    // on it exactly.
    let mut crossed = global_with(MAX / 2 + 1);
    crossed.merge(&global_with(MAX / 2 + 1));
    assert_eq!(crossed.transactions(), MAX);
    assert!(crossed.any_saturated());
    let mut landed = global_with(MAX / 2 + 1);
    landed.merge(&global_with(MAX / 2));
    assert_eq!(landed.transactions(), MAX);
    assert!(!landed.any_saturated());
}

#[test]
fn banks_that_overshot_by_different_amounts_compare_equal() {
    let mut a = NodeCounters::new();
    a.add(NodeCounter::CastoutsSeen, MAX);
    a.incr(NodeCounter::CastoutsSeen);
    let mut b = NodeCounters::new();
    b.add(NodeCounter::CastoutsSeen, MAX - 1);
    b.add(NodeCounter::CastoutsSeen, 1 << 20);
    assert_eq!(a, b);
    assert_eq!(a.to_string(), b.to_string());

    let (x, y) = (
        a.counter(NodeCounter::CastoutsSeen),
        b.counter(NodeCounter::CastoutsSeen),
    );
    assert_eq!(x, y);
    assert_eq!(HashSet::from([x, y]).len(), 1);
    assert_ne!(
        x,
        Counter40::of(MAX),
        "a saturated counter is not a full one"
    );
}
