//! The second crate: names `alpha` already claimed, and its own exits.
use std::process::{self, exit};

fn record(m: &mut Metrics, l: Labels) {
    m.counter_add("tcp_retx_total", l, 1);
    m.counter_add("tcp_beta_only_total", l, 1);
    m.gauge_set("shared_and_unprefixed", l, 1.0);
    // simlint::allow(metric-name-registry, reason = "fixture: nothing to allow here")
    m.counter_add("tcp_beta_only_total", l, 2);
}

fn leave() {
    process::exit(3);
    exit(3);
}
