//! The board's timing model: SDRAM service rate and transaction buffers.
//!
//! §3.3: "The throughput of the SDRAMs implementing state/Tag/LRU
//! functions is roughly 42% of the maximum 6xx bus bandwidth. In order to
//! handle occasional bursts exceeding 42% bus utilization, MemorIES
//! provides transaction buffers between the 6xx bus and the cache control
//! logic." The node controllers hold 512 buffer entries; if they ever
//! fill, the address filter posts a retry on the bus — which, in months of
//! lab use at 2–20% utilization, never happened.

use memories_bus::BUS_HZ;

/// Timing parameters of the board.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingConfig {
    /// Node-controller transaction buffer capacity (512 on the board).
    pub buffer_capacity: usize,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            buffer_capacity: 512,
        }
    }
}

/// Occupancy model of one node controller's transaction buffer feeding
/// its SDRAM.
///
/// Events arrive stamped with the bus cycle of their transaction; the
/// SDRAM drains the buffer at 0.105 events per cycle: one tag operation
/// per 4-cycle address tenure at 42% of peak (§3.3). Arrivals beyond
/// capacity overflow.
///
/// Occupancy is tracked in integer fixed point (micro-entries,
/// 1/1,000,000 of a buffer entry) rather than `f64`: accumulating
/// fractional drains in floating point drifts over multi-billion-cycle
/// runs, and cycle deltas beyond 2^53 do not even round-trip through
/// `f64`, so long traces could flip overflow/retry decisions. The drain
/// rate is exactly 105 000 micro-entries per cycle, and every update is
/// exact integer arithmetic with a 128-bit intermediate, so overflow
/// counts are reproducible at any trace length.
///
/// # Examples
///
/// ```
/// use memories::{TimingConfig, TransactionBuffer};
///
/// let mut buf = TransactionBuffer::new(&TimingConfig::default());
/// assert!(buf.arrive(0)); // accepted
/// assert_eq!(buf.occupancy(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TransactionBuffer {
    capacity: usize,
    /// Current occupancy in micro-entries (≤ capacity · 10⁶).
    occupancy_micro: u64,
    last_cycle: u64,
}

/// Micro-entries per buffer entry (the fixed-point scale).
const MICRO: u64 = 1_000_000;

/// Micro-entries the SDRAM drains per bus cycle: 10⁶ × 0.42 / 4.
const DRAIN_MICRO_PER_CYCLE: u64 = 105_000;

impl TransactionBuffer {
    /// Creates an empty buffer.
    pub fn new(config: &TimingConfig) -> Self {
        TransactionBuffer {
            capacity: config.buffer_capacity,
            occupancy_micro: 0,
            last_cycle: 0,
        }
    }

    /// Registers an event arriving at bus cycle `cycle`. Returns `false`
    /// on overflow (the event was not buffered).
    pub fn arrive(&mut self, cycle: u64) -> bool {
        // Drain since the last arrival. The 128-bit product keeps huge
        // idle gaps (cycle deltas up to 2^64) exact, and what is left
        // never exceeds the old occupancy, so it fits back in 64 bits.
        if cycle > self.last_cycle {
            let drained = u128::from(cycle - self.last_cycle) * u128::from(DRAIN_MICRO_PER_CYCLE);
            self.occupancy_micro = u128::from(self.occupancy_micro).saturating_sub(drained) as u64;
        }
        self.last_cycle = self.last_cycle.max(cycle);
        if self.occupancy_micro + MICRO > self.capacity as u64 * MICRO {
            return false;
        }
        self.occupancy_micro += MICRO;
        true
    }

    /// Current (modeled) buffer occupancy, rounded up.
    pub fn occupancy(&self) -> usize {
        (self.occupancy_micro.div_ceil(MICRO)) as usize
    }
}

/// Wall-clock arithmetic for the board: how long processing a reference
/// stream takes at the paper's Table 3 bus speed and utilization.
///
/// This is the model behind Table 3's MemorIES column: the board runs in
/// real time, so processing N references takes exactly as long as the host
/// takes to *produce* N references.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdramModel;

impl SdramModel {
    /// Bus cycles per reference: one 8-byte-wide reference per two cycles.
    const CYCLES_PER_TRANSACTION: f64 = 2.0;
    /// Fraction of bus cycles carrying transactions.
    const UTILIZATION: f64 = 0.20;

    /// The paper's Table 3 assumptions: 100 MHz bus at 20% utilization,
    /// one 8-byte-wide reference per two bus cycles — which reproduces the
    /// published column exactly (32768 refs → 3.28 ms, 10 M refs → 1 s,
    /// 10 G refs → 16.67 min).
    pub fn table3_default() -> Self {
        SdramModel
    }

    /// Transactions the bus delivers per second at this utilization.
    pub fn transactions_per_second(&self) -> f64 {
        BUS_HZ as f64 * Self::UTILIZATION / Self::CYCLES_PER_TRANSACTION
    }

    /// Seconds of real time the board needs to observe `references` bus
    /// references.
    pub fn seconds_for(&self, references: u64) -> f64 {
        references as f64 / self.transactions_per_second()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_absorbs_bursts_below_capacity() {
        let mut b = TransactionBuffer::new(&TimingConfig::default());
        // 100 arrivals in the same cycle: fits in 512 entries.
        for _ in 0..100 {
            assert!(b.arrive(1000));
        }
        assert_eq!(b.occupancy(), 100);
    }

    #[test]
    fn buffer_overflows_on_sustained_oversubscription() {
        let cfg = TimingConfig { buffer_capacity: 8 };
        let mut b = TransactionBuffer::new(&cfg);
        let arrivals: Vec<u64> = (0..100).collect();
        let mut rejected = 0;
        // Back-to-back arrivals every cycle: drain is ~0.1/cycle, so the
        // 8-deep buffer fills almost immediately.
        for &cycle in &arrivals {
            if !b.arrive(cycle) {
                rejected += 1;
            }
            assert!(b.occupancy() <= 8);
        }
        assert!(rejected > 0);
        assert_eq!(
            (rejected, b.occupancy()),
            exact_reference(&arrivals, 8, DRAIN_MICRO_PER_CYCLE)
        );
    }

    #[test]
    fn buffer_drains_over_idle_time() {
        let cfg = TimingConfig {
            buffer_capacity: 16,
        };
        let mut b = TransactionBuffer::new(&cfg);
        for _ in 0..10 {
            assert!(b.arrive(0));
        }
        assert_eq!(b.occupancy(), 10);
        // 10 ops at ~9.52 cycles each drain within ~96 cycles.
        assert!(b.arrive(200));
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn buffer_never_overflows_at_20_percent_utilization() {
        // The paper's lab observation: 2-20% utilization never retries.
        let mut b = TransactionBuffer::new(&TimingConfig::default());
        // One transaction per 60 cycles = 20% utilization of 12-cycle txns.
        for i in 0..100_000u64 {
            assert!(b.arrive(i * 60));
            assert!(b.occupancy() <= 2);
        }
    }

    /// Bit-exact reference model: the leaky bucket evaluated entirely in
    /// 128-bit integers, written as directly from the definition as
    /// possible. Returns (overflows, final occupancy in entries).
    fn exact_reference(
        arrivals: &[u64],
        capacity: usize,
        drain_micro_per_cycle: u64,
    ) -> (u64, usize) {
        let micro = u128::from(MICRO);
        let cap = capacity as u128 * micro;
        let mut occ: u128 = 0;
        let mut last: u64 = 0;
        let mut overflows: u64 = 0;
        for &cycle in arrivals {
            if cycle > last {
                occ = occ
                    .saturating_sub(u128::from(cycle - last) * u128::from(drain_micro_per_cycle));
            }
            last = last.max(cycle);
            if occ + micro > cap {
                overflows += 1;
            } else {
                occ += micro;
            }
        }
        (overflows, occ.div_ceil(micro) as usize)
    }

    #[test]
    fn long_run_fixed_point_matches_exact_reference() {
        // Multi-billion-cycle arrival pattern: dense oversubscribing
        // bursts separated by gaps from 0 cycles up to beyond 2^53 —
        // the regime where the old f64 occupancy model drifted (repeated
        // fractional drains) or lost the delta outright (cycle deltas
        // that don't round-trip through f64).
        let cfg = TimingConfig {
            buffer_capacity: 32,
        };
        let mut arrivals: Vec<u64> = Vec::new();
        let mut cycle: u64 = 0;
        let mut state: u64 = 0x243F_6A88_85A3_08D3; // deterministic LCG
        for burst in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Bursts of 1..=64 back-to-back arrivals, one per cycle.
            let len = 1 + (state >> 33) % 64;
            for i in 0..len {
                arrivals.push(cycle + i);
            }
            cycle += len;
            // Mostly short gaps (0..128 cycles, keeps the bucket partly
            // full), with periodic huge idle stretches.
            let gap = match burst % 101 {
                100 => (1 << 54) + ((state >> 7) % 1024), // > 2^53: exceeds f64 integer range
                50 => (1 << 40) + (state % 4096),
                _ => (state >> 17) % 128,
            };
            cycle += gap;
        }

        let mut buf = TransactionBuffer::new(&cfg);
        let mut overflows_seen = 0u64;
        for &c in &arrivals {
            if !buf.arrive(c) {
                overflows_seen += 1;
            }
            assert!(buf.occupancy() <= cfg.buffer_capacity);
        }

        let (ref_overflows, ref_occupancy) =
            exact_reference(&arrivals, cfg.buffer_capacity, DRAIN_MICRO_PER_CYCLE);
        // The bursts really do oversubscribe a 32-deep buffer.
        assert!(ref_overflows > 0, "pattern should provoke overflows");
        assert_eq!(overflows_seen, ref_overflows);
        assert_eq!(buf.occupancy(), ref_occupancy);
    }

    #[test]
    fn drain_rate_is_exact_for_default_timing() {
        // 42% of one operation per 4-cycle address tenure is exactly
        // 0.105 entries per cycle, so 21 entries drain in 200 cycles with
        // no fixed-point rounding.
        assert_eq!(DRAIN_MICRO_PER_CYCLE * 4 * 100, 42 * MICRO);
        let mut b = TransactionBuffer::new(&TimingConfig::default());
        for _ in 0..21 {
            assert!(b.arrive(0));
        }
        let mut early = b.clone();
        assert!(early.arrive(199));
        assert_eq!(early.occupancy(), 2);
        assert!(b.arrive(200));
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn sdram_model_reproduces_table3_column() {
        let m = SdramModel::table3_default();
        assert!((m.transactions_per_second() - 10_000_000.0).abs() < 1.0);
        // The four Table 3 rows.
        assert!((m.seconds_for(32_768) - 0.003_276_8).abs() < 1e-7);
        assert!((m.seconds_for(262_144) - 0.026_214_4).abs() < 1e-6);
        assert!((m.seconds_for(10_000_000) - 1.0).abs() < 1e-9);
        let minutes = m.seconds_for(10_000_000_000) / 60.0;
        assert!((minutes - 16.67).abs() < 0.01);
    }
}
