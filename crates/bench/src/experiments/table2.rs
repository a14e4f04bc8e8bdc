//! Table 2: the board's cache emulation parameter ranges.
//!
//! Rendered from the *enforced* bounds in [`CacheParams`], not from a
//! copy of the text — the table and the validation code cannot drift
//! apart.

use memories::CacheParams;
use memories_console::report::{bytes, Table};

/// Renders Table 2 from the live validation constants, then demonstrates
/// that the corner cases actually construct.
pub fn render() -> String {
    let mut t = Table::new(["feature", "parameters"])
        .with_title("Table 2. Summary of cache emulation parameters");
    t.row([
        "cache size".to_string(),
        format!(
            "{} - {}",
            bytes(CacheParams::MIN_CAPACITY),
            bytes(CacheParams::MAX_CAPACITY)
        ),
    ]);
    t.row([
        "cache associativity".to_string(),
        format!(
            "direct mapped to {}-way set associative",
            CacheParams::MAX_WAYS
        ),
    ]);
    t.row([
        "processors per shared cache node".to_string(),
        format!("1 - {}", CacheParams::MAX_PROCS_PER_NODE),
    ]);
    t.row([
        "cache line size".to_string(),
        format!(
            "{} - {}",
            bytes(CacheParams::MIN_LINE),
            bytes(CacheParams::MAX_LINE)
        ),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        let text = render();
        assert!(text.contains("2MB - 8GB"));
        assert!(text.contains("8-way"));
        assert!(text.contains("1 - 8"));
        assert!(text.contains("128B - 16KB"));
    }

    /// The corner-case parameter sets of Table 2 both build.
    #[test]
    fn corners_construct() {
        let min = CacheParams::builder()
            .capacity(CacheParams::MIN_CAPACITY)
            .ways(1)
            .line_size(CacheParams::MIN_LINE)
            .build()
            .expect("minimum Table 2 corner");
        let max = CacheParams::builder()
            .capacity(CacheParams::MAX_CAPACITY)
            .ways(CacheParams::MAX_WAYS)
            .line_size(CacheParams::MAX_LINE)
            .build()
            .expect("maximum Table 2 corner");
        assert_eq!(min.capacity(), 2 << 20);
        assert_eq!(max.capacity(), 8 << 30);
    }
}
