//! A live run whose workload panics stops with a typed error instead of
//! re-raising the panic on the caller's thread, at 1 and 2 shards. The
//! error carries the panic message and the pipeline's admitted count at
//! the panic, which the producer alone fixes: it ships only whole blocks,
//! so the same blocks reach the board at any parallelism.
//!
//! Each run goes on its own thread under a watchdog, so a run that hangs
//! instead of returning fails the test.

use std::sync::mpsc;
use std::time::Duration;

use memories::{BoardConfig, CacheParams, Error};
use memories_bus::ProcId;
use memories_console::{EmulationSession, SessionError};
use memories_host::HostConfig;
use memories_workloads::micro::UniformRandom;
use memories_workloads::{Workload, WorkloadEvent};

/// The reference at which the workload panics.
const PANIC_AT: u64 = 40_000;
/// References the run asks for: well past the panic.
const REFS: u64 = 4 * PANIC_AT;
const MESSAGE: &str = "injected workload fault";

/// A workload that panics when it is asked for reference `panic_at`.
struct Faulty {
    inner: UniformRandom,
    refs: u64,
    panic_at: u64,
}

impl Workload for Faulty {
    fn name(&self) -> &str {
        "faulty"
    }

    fn num_cpus(&self) -> usize {
        self.inner.num_cpus()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let event = self.inner.next_event();
        if let WorkloadEvent::Ref(_) = event {
            self.refs += 1;
            if self.refs == self.panic_at {
                panic!("{MESSAGE} at reference {}", self.panic_at);
            }
        }
        event
    }
}

fn workload(panic_at: u64) -> Faulty {
    Faulty {
        inner: UniformRandom::new(4, 64 << 20, 0.3, 11),
        refs: 0,
        panic_at,
    }
}

/// Two cache candidates in their own coherence domains, so a session at
/// parallelism 2 runs two worker shards.
fn session(parallelism: usize) -> EmulationSession {
    let params = |capacity| {
        CacheParams::builder()
            .capacity(capacity)
            .ways(4)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    };
    let host = HostConfig {
        num_cpus: 4,
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(64 << 10, 4, 128).unwrap(),
        ..HostConfig::s7a()
    };
    EmulationSession::builder()
        .host(host)
        .board(
            BoardConfig::parallel_configs(
                vec![params(256 << 10), params(1 << 20)],
                (0..4).map(ProcId::new).collect(),
            )
            .unwrap(),
        )
        .parallelism(parallelism)
        .build()
        .unwrap()
}

/// Runs `refs` references of a workload that panics at `panic_at` on its
/// own thread and returns the transactions the board admitted, failing
/// the test if the run does not return within a minute.
fn run_watched(parallelism: usize, panic_at: u64, refs: u64) -> Result<u64, Error> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = session(parallelism).run(&mut workload(panic_at), refs);
        let _ = tx.send(result.map(|r| r.board.filter().stats().forwarded));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the run at parallelism {parallelism} hung")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the run at parallelism {parallelism} panicked instead of returning an error")
        }
    }
}

#[test]
fn producer_panic_is_a_typed_error_with_the_stream_position() {
    // A clean run of every reference before the panic bounds what the
    // faulty run can have admitted.
    let clean = run_watched(1, u64::MAX, PANIC_AT - 1).expect("a workload that never panics runs");
    let mut positions = Vec::new();
    for parallelism in [1, 2] {
        let err = run_watched(parallelism, PANIC_AT, REFS)
            .expect_err("a panicking workload must fail the run");
        let Error::Other(inner) = &err else {
            panic!("expected a session error, got {err}");
        };
        match inner.downcast_ref::<SessionError>() {
            Some(SessionError::ProducerPanicked { admitted, message }) => {
                assert!(
                    message.contains(MESSAGE),
                    "parallelism {parallelism}: panic message lost: {message:?}"
                );
                assert!(
                    *admitted > 0,
                    "parallelism {parallelism}: blocks shipped before the panic were not admitted"
                );
                positions.push(*admitted);
            }
            other => panic!("parallelism {parallelism}: expected ProducerPanicked, got {other:?}"),
        }
    }
    assert_eq!(
        positions[0], positions[1],
        "the admitted count at the panic depends on parallelism"
    );
    assert!(
        positions[0] <= clean,
        "a run cut at reference {PANIC_AT} admitted {} of a whole run's {clean}",
        positions[0]
    );
}
