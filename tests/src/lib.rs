// Integration tests live in tests/tests/.

// The README's Rust blocks compile (and, unless marked `no_run`, run) as
// doctests of this crate, so the documented API cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../../README.md")]
pub struct ReadmeDoctests;
