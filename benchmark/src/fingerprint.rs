//! `sim_fingerprint`: what a sample simulated, folded to one hex string.
//!
//! A reviewer-facing string, not a gated number: a PR that deliberately
//! fixes simulated behaviour changes it visibly without being rejected
//! for it. Within one run it *is* checked — every round of a workload,
//! and the shim-wired traced run, must reproduce it exactly.

use std::collections::BTreeMap;

/// Named integer facts about one simulated sample. Fields are hashed in
/// name order, so the order they were recorded in never matters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Facts(BTreeMap<String, u64>);

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Facts {
    /// No facts yet.
    pub fn new() -> Facts {
        Facts::default()
    }

    /// Record one fact. Floats go in as their bit pattern.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.0.insert(name.into(), value);
    }

    /// The fnv64 of every `name=value` line, as 16 hex digits.
    pub fn hex(&self) -> String {
        let mut text = String::new();
        for (name, value) in &self.0 {
            text.push_str(&format!("{name}={value}\n"));
        }
        format!("{:016x}", fnv64(text.as_bytes()))
    }

    /// Names whose values differ between `self` and `other` (or that only
    /// one side has): what to print when two fingerprints disagree.
    pub fn diff(&self, other: &Facts) -> Vec<String> {
        let names: std::collections::BTreeSet<&String> =
            self.0.keys().chain(other.0.keys()).collect();
        names
            .into_iter()
            .filter(|n| self.0.get(*n) != other.0.get(*n))
            .map(|n| format!("{n}: {:?} vs {:?}", self.0.get(n), other.0.get(n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_order_does_not_change_the_fingerprint() {
        let mut a = Facts::new();
        a.set("events", 10);
        a.set("drops", 3);
        a.set("flow0.fct_ns", 99);
        let mut b = Facts::new();
        b.set("flow0.fct_ns", 99);
        b.set("events", 10);
        b.set("drops", 3);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn any_changed_fact_changes_the_fingerprint_and_is_named() {
        let mut a = Facts::new();
        a.set("events", 10);
        a.set("drops", 3);
        let mut b = a.clone();
        b.set("drops", 4);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.diff(&b), vec!["drops: Some(3) vs Some(4)".to_string()]);
        assert!(a.diff(&a).is_empty());
    }
}
