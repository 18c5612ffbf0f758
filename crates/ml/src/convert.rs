//! The crate's two sanctioned numeric casts.
//!
//! Every `usize`/count → `f64` conversion in the crate funnels through
//! [`count_f64`], and the one place a (bounded, non-negative) float becomes a
//! count again uses [`ceil_count`]. Centralizing the casts keeps the rest of
//! the crate free of `as` conversions, so `clippy::as_conversions` finds
//! no other cast in `ml`.

/// Converts a sample/feature count to `f64`.
///
/// Counts in this crate are bounded by in-memory dataset sizes, far below
/// 2^53, so the conversion is exact.
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "counts are < 2^53 so usize -> f64 is exact here"
)]
pub(crate) fn count_f64(n: usize) -> f64 {
    n as f64
}

/// Rounds a non-negative, count-bounded float up to a `usize`.
///
/// Used for split sizes like `ceil(fraction * n)` where the input is clamped
/// to `[0, n]` for an in-memory count `n`.
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "input is a count-bounded non-negative float"
)]
pub(crate) fn ceil_count(x: f64) -> usize {
    x.max(0.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_f64_is_exact_for_small_counts() {
        assert_eq!(count_f64(0), 0.0);
        assert_eq!(count_f64(330), 330.0);
        assert_eq!(count_f64(1 << 30), 1_073_741_824.0);
    }

    #[test]
    fn ceil_count_rounds_up_and_clamps_negatives() {
        assert_eq!(ceil_count(0.0), 0);
        assert_eq!(ceil_count(2.1), 3);
        assert_eq!(ceil_count(5.0), 5);
        assert_eq!(ceil_count(-1.5), 0);
    }
}
