//! The repo's benchmark: a host-normalised end-to-end ledger over six
//! workloads, with shim-traced per-layer self time. See `README.md`.

pub mod clock;
pub mod fingerprint;
pub mod hostref;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod product;
pub mod report;
pub mod rss;
pub mod shims;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
