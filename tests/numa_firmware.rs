//! The NUMA sparse-directory firmware (§2.3) driven end to end by a live
//! host machine.

use memories::numa::{DirectoryParams, NumaConfig, NumaCounters, NumaEmulator};
use memories::{BoardError, CacheParams, ParamError};
use memories_bus::{Geometry, GeometryError, ProcId};
use memories_console::{apply_event, Shared};
use memories_host::{HostConfig, HostMachine};
use memories_workloads::{OltpConfig, OltpWorkload, Workload};

fn l3() -> CacheParams {
    CacheParams::builder()
        .capacity(2 << 20)
        .ways(4)
        .allow_scaled_down()
        .build()
        .unwrap()
}

fn directory(sets: usize, ways: u32) -> DirectoryParams {
    DirectoryParams {
        sets,
        ways,
        line_size: 128,
    }
}

fn run(dir_sets: usize, remote_cache: bool, refs: u64) -> NumaEmulator {
    let mut config =
        NumaConfig::four_node((0..8).map(ProcId::new), l3(), directory(dir_sets, 8)).unwrap();
    if remote_cache {
        config.remote_cache = Some(
            CacheParams::builder()
                .capacity(1 << 20)
                .ways(4)
                .allow_scaled_down()
                .build()
                .unwrap(),
        );
    }
    let host = HostConfig {
        inner_cache: None,
        outer_cache: Geometry::new(64 << 10, 4, 128).unwrap(),
        ..HostConfig::s7a()
    };
    let mut machine = HostMachine::new(host).unwrap();
    let shared = Shared::new(NumaEmulator::new(config).unwrap());
    machine.attach_listener(Box::new(shared.handle()));

    let mut w = OltpWorkload::new(OltpConfig {
        journal: None,
        ..OltpConfig::scaled_default()
    });
    let mut done = 0;
    while done < refs {
        if apply_event(&mut machine, w.next_event()) {
            done += 1;
        }
    }
    drop(machine.detach_listeners());
    let Ok(emulator) = shared.try_unwrap() else {
        panic!("last handle");
    };
    emulator
}

#[test]
fn four_way_striping_splits_requests_roughly_evenly() {
    let e = run(4096, false, 60_000);
    let c = e.counters();
    let total = c.local_requests + c.remote_requests;
    assert!(total > 10_000, "too little directory traffic: {total}");
    // With 4 nodes and 4 KB striping over a large footprint, ~3/4 of
    // requests are remote.
    let frac = c.remote_fraction();
    assert!(
        (0.6..0.9).contains(&frac),
        "remote fraction {frac:.3} outside the striped expectation"
    );
}

#[test]
fn bigger_directories_evict_less() {
    let small = run(64, false, 60_000);
    let large = run(8192, false, 60_000);
    assert!(
        small.counters().directory_evictions > large.counters().directory_evictions,
        "small dir {} evictions vs large dir {}",
        small.counters().directory_evictions,
        large.counters().directory_evictions
    );
    // Eviction invalidations track evictions.
    assert!(small.counters().eviction_invalidations > 0);
}

#[test]
fn remote_cache_absorbs_repeat_remote_traffic() {
    let e = run(4096, true, 60_000);
    let c = e.counters();
    let total = c.remote_cache_hits + c.remote_cache_misses;
    assert_eq!(
        total, c.remote_requests,
        "remote cache must see every remote request"
    );
    assert!(
        c.remote_cache_hits > 0,
        "no remote-cache hits despite OLTP reuse"
    );
}

#[test]
fn counters_are_pinned() {
    // Every counter of two directory sizes, as the firmware's own LRU
    // directory produced them before directories became tag stores.
    let small = run(64, true, 60_000);
    assert_eq!(
        *small.counters(),
        NumaCounters {
            local_requests: 14831,
            remote_requests: 42759,
            directory_hits: 2173,
            directory_misses: 55417,
            directory_evictions: 54393,
            eviction_invalidations: 55133,
            write_invalidations: 1028,
            remote_cache_hits: 301,
            remote_cache_misses: 42458,
        }
    );
    let large = run(4096, true, 60_000);
    assert_eq!(
        *large.counters(),
        NumaCounters {
            local_requests: 14831,
            remote_requests: 42759,
            directory_hits: 15289,
            directory_misses: 42301,
            directory_evictions: 10742,
            eviction_invalidations: 9432,
            write_invalidations: 5410,
            remote_cache_hits: 5845,
            remote_cache_misses: 36914,
        }
    );
}

#[test]
fn bad_directory_shapes_are_errors() {
    let mut config =
        NumaConfig::four_node((0..8).map(ProcId::new), l3(), directory(64, 8)).unwrap();
    let cases = [
        (
            directory(3, 2),
            ParamError::Geometry(GeometryError::SetsNotPowerOfTwo { sets: 3 }),
        ),
        (directory(64, 9), ParamError::BadAssociativity { ways: 9 }),
    ];
    for (shape, want) in cases {
        config.directory = shape;
        assert!(
            matches!(NumaEmulator::new(config.clone()), Err(BoardError::Params(e)) if e == want),
            "{shape:?} must be rejected with {want:?}"
        );
        assert!(
            matches!(
                NumaConfig::four_node((0..8).map(ProcId::new), l3(), shape),
                Err(BoardError::Params(e)) if e == want
            ),
            "four_node must reject {shape:?}"
        );
    }
}
