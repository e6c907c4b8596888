//! EXPERIMENTS.md's headline table held to the tracked `results/`: each
//! measured number a JSON artifact backs is formatted at the table's
//! printed precision and must appear in its row. Only files are read;
//! nothing is simulated.

use serde_json::Value;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn result(name: &str) -> Value {
    let path = root().join("results").join(format!("{name}.json"));
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn num(v: &Value) -> f64 {
    v.as_f64().expect("a number")
}

/// A `(name, value)` pair list as a fig5 artifact stores it.
fn pairs(v: &Value) -> Vec<(String, f64)> {
    let rows = v.as_array().expect("a pair list");
    rows.iter()
        .map(|p| (p[0].as_str().unwrap().to_string(), num(&p[1])))
        .collect()
}

/// `lo–hi %` at one decimal, the way the table prints a band.
fn band(values: impl Iterator<Item = f64>) -> String {
    let (lo, hi) = values.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    format!("{lo:.1}–{hi:.1} %")
}

/// `(fct s, energy J)` as the Fig 7 row prints a cluster.
fn cluster(v: &Value) -> String {
    format!("({:.2} s, {:.0} J)", num(&v[0]), num(&v[1]))
}

/// The table writes a minus sign, not a hyphen.
fn signed(x: f64) -> String {
    format!("{x:.2}").replace('-', "−")
}

#[test]
fn headline_table_shows_what_results_hold() {
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let table = doc
        .split("## Headline claims")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("a headline table");
    // A row is `| claim | paper | measured | verdict |`; only the
    // measured cell counts.
    let measured = |claim: &str| {
        let line = table
            .lines()
            .find(|l| l.starts_with(&format!("| {claim}")))
            .unwrap_or_else(|| panic!("no headline row for {claim:?}"));
        line.split('|').nth(3).expect("a measured cell")
    };

    let fig1 = result("fig1");
    let fig4 = result("fig4");
    let fig5 = result("fig5");
    let fig6 = result("fig6");
    let fig7 = result("fig7");
    let fig8 = result("fig8");
    let theorem1 = result("theorem1");

    let savings = |load: f64| {
        let rows = fig4["rows"].as_array().unwrap();
        let r = rows
            .iter()
            .find(|r| num(&r["load"]) == load)
            .expect("a load");
        format!("{:.2} %", num(&r["savings_pct"]["mean"]))
    };
    let vs_baseline = pairs(&fig5["vs_baseline_pct"]);
    let real_ccas = vs_baseline.iter().filter(|(cca, _)| cca != "bbr2");

    let expected = [
        (
            "\"full speed, then idle\"",
            format!("{:.1} %", num(&fig1["peak_savings_pct"])),
        ),
        (
            "savings at 25 %",
            [0.25, 0.5, 0.75].map(savings).join(" / "),
        ),
        ("CCAs (except bbr2)", band(real_ccas.map(|(_, pct)| -pct))),
        (
            "bbr2 vs bbr",
            format!("{:.2}×", num(&fig5["bbr2_over_bbr"])),
        ),
        (
            "MTU 1500 → 9000",
            band(
                pairs(&fig5["mtu_savings_pct"])
                    .into_iter()
                    .map(|(_, pct)| pct),
            ),
        ),
        (
            "energy vs power",
            signed(num(&fig6["energy_power_correlation"])),
        ),
        (
            "CCA power spread",
            format!("{:.1} %", (num(&fig6["power_spread_1500"]) - 1.0) * 100.0),
        ),
        (
            "energy vs FCT",
            format!("r = **{:.2}**", num(&fig7["energy_fct_correlation"])),
        ),
        ("energy vs FCT", cluster(&fig7["cluster_1500"])),
        ("energy vs FCT", cluster(&fig7["cluster_jumbo"])),
        (
            "energy vs retransmissions",
            format!("{:.2}", num(&fig8["correlation_excl_bbr2"])),
        ),
        (
            "Theorem 1",
            format!("{} violations", theorem1["violations"].as_u64().unwrap()),
        ),
    ];
    for (claim, shown) in expected {
        let cell = measured(claim);
        assert!(
            cell.contains(&shown),
            "EXPERIMENTS.md's {claim:?} row shows {cell:?}, not {shown:?} as results/ holds"
        );
    }
}
