//! # nice
//!
//! Umbrella crate for the NICE reproduction: re-exports the public API of
//! [`nice_core`] (which in turn exposes the OpenFlow substrate, the symbolic
//! engine, the controller platform, the host models, the model checker and
//! the evaluated applications) and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! See `README.md` for a tour and for the mapping between the paper and
//! this implementation.

#![forbid(unsafe_code)]

pub use nice_core::*;

/// The crate version (useful for examples printing a banner).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }

    #[test]
    fn reexports_are_reachable() {
        // The facade and the main sub-crates are visible through the
        // umbrella crate.
        let _ = std::any::type_name::<super::Nice>();
        let _ = std::any::type_name::<super::mc::ModelChecker>();
        let _ = std::any::type_name::<super::openflow::Packet>();
        let _ = std::any::type_name::<super::sym::SymValue>();
    }
}
