//! metric-name-registry: every registration method and every way a
//! name can be wrong.

fn record(m: &mut Metrics, l: Labels) {
    m.counter_add("tcp_retx_total", l, 1);
    m.gauge_set("campaign_degraded", l, 1.0);
    m.observe("tcp_rtt_ns", l, 42);
    // Names resolved to handles are checked at the resolving call.
    let id = *slot.get_or_insert_with(|| m.counter_handle("tcp_rto_total", l));
    let h = m.histogram_handle("tcp_cwnd_bytes", l);
    m.counter_add_at(id, 1);
    m.counter_add(name_in_a_variable, l, 1);
    Metrics::counter_add(m, "tcp_second_argument_total", l, 1);

    m.counter_add("TcpRetxTotal", l, 1);
    m.observe("9_tcp_leading_digit", l, 1);
    m.gauge_set("unprefixed_thing", l, 1.0);
    let stray = m.histogram_handle("stray_ns", l);
    m.gauge_set("shared_and_unprefixed", l, 1.0);

    // simlint::allow(metric-name-registry, reason = "fixture: a legacy dashboard name")
    m.observe("legacy_depth", l, 3);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_skipped() {
        m.counter_add("NotChecked", l, 1);
    }
}
