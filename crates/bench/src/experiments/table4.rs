//! Table 4: execution time of Augmint vs. MemorIES, SPLASH2 FFT.
//!
//! Both columns are model arithmetic (the real Augmint and the real S7A
//! are unavailable): host run time comes from the FFT work model on the
//! S7A's fixed clocks, and the execution-driven simulator cost is the
//! calibrated ~900x slowdown — the ratio implied by every row of the
//! paper's table.

use memories_console::report::{seconds, Table};
use memories_host::HostConfig;
use memories_sim::AugmintModel;
use memories_workloads::splash::Fft;

/// One Table 4 row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// FFT size exponent `m`.
    pub m: u32,
    /// Modeled Augmint wall-clock seconds.
    pub augmint_seconds: f64,
    /// Modeled host (= board) wall-clock seconds.
    pub board_seconds: f64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Table4 {
    /// Rows for m = 20, 22, 24, 26.
    pub rows: Vec<Row>,
}

/// Runs the experiment (pure model arithmetic; scale-independent).
pub fn run() -> Table4 {
    let host = HostConfig::s7a();
    let rows = [20u32, 22, 24, 26]
        .iter()
        .map(|&m| {
            let fft = Fft::scaled(8, m, 7);
            let board_seconds = host.seconds_for_instructions(fft.estimated_instructions());
            Row {
                m,
                augmint_seconds: AugmintModel.seconds_for(board_seconds, 8),
                board_seconds,
            }
        })
        .collect();
    Table4 { rows }
}

impl Table4 {
    /// Renders the table with the paper's values alongside.
    pub fn render(&self) -> String {
        let paper_augmint = ["47 min", "3.2 h", "13 h", "> 2 days"];
        let paper_board = ["3 s", "13 s", "53 s", "196 s"];
        let mut t = Table::new([
            "FFT m",
            "Augmint (model)",
            "Augmint (paper)",
            "MemorIES (model)",
            "MemorIES (paper)",
        ])
        .with_title("Table 4. Execution time of Augmint vs. MemorIES (FFT, 8 threads)");
        for (i, r) in self.rows.iter().enumerate() {
            t.row([
                r.m.to_string(),
                seconds(r.augmint_seconds),
                paper_augmint[i].to_string(),
                seconds(r.board_seconds),
                paper_board[i].to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_track_the_paper_within_2x() {
        let t = run();
        let paper_board = [3.0, 13.0, 53.0, 196.0];
        let paper_augmint = [47.0 * 60.0, 3.2 * 3600.0, 13.0 * 3600.0, 2.0 * 86_400.0];
        for (i, r) in t.rows.iter().enumerate() {
            let board_ratio = r.board_seconds / paper_board[i];
            assert!(
                (0.5..2.0).contains(&board_ratio),
                "m={} board {} vs paper {}",
                r.m,
                r.board_seconds,
                paper_board[i]
            );
            let augmint_ratio = r.augmint_seconds / paper_augmint[i];
            assert!(
                (0.4..2.5).contains(&augmint_ratio),
                "m={} augmint {} vs paper {}",
                r.m,
                r.augmint_seconds,
                paper_augmint[i]
            );
        }
    }

    #[test]
    fn simulator_gap_grows_with_problem_size_in_absolute_terms() {
        let t = run();
        let gaps: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r.augmint_seconds - r.board_seconds)
            .collect();
        assert!(gaps.windows(2).all(|w| w[1] > w[0]));
        // And the board wins every row by the calibrated slowdown.
        for r in &t.rows {
            assert!((r.augmint_seconds / r.board_seconds - 900.0).abs() < 1.0);
        }
    }

    #[test]
    fn render_includes_paper_columns() {
        let text = run().render();
        assert!(text.contains("47 min"));
        assert!(text.contains("196 s"));
    }
}
