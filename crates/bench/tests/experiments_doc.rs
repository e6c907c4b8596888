//! EXPERIMENTS.md's tables held to the tracked `results/`: each measured
//! number a JSON artifact backs is formatted at the table's printed
//! precision and must appear in its row (the headline table) or be its
//! cell (the Fig 1, 2, 4, 5–8 and chaos tables). Only files are read;
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

/// A count at no decimals, a space between every three digits from
/// 1 000 up.
fn grouped(x: f64) -> String {
    let digits = format!("{x:.0}");
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(d);
    }
    out
}

/// The number a header or row label starts with: `50` of `50 %`,
/// `9000` of `9000 (W)`.
fn lead(label: &str) -> f64 {
    let word = label.split(' ').next().unwrap_or_default();
    word.parse()
        .unwrap_or_else(|_| panic!("{label:?} starts with no number"))
}

fn doc() -> String {
    std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

/// The first table under the `## {heading}` section, as rows of trimmed
/// cells with bold marks dropped; row 0 is the header.
fn table(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let section = doc
        .split(&format!("\n## {heading}"))
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .unwrap_or_else(|| panic!("no section {heading:?}"));
    let rows: Vec<Vec<String>> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|---"))
        .map(|l| {
            let cells = l.trim().trim_matches('|').split('|');
            cells.map(|c| c.trim().replace("**", "")).collect()
        })
        .collect();
    assert!(rows.len() > 1, "no table under {heading:?}");
    rows
}

/// Every body cell of `table` must be `expect(row label, column header)`;
/// the failure names each cell that is not.
fn check(heading: &str, expect: impl Fn(&str, &str) -> String) {
    let rows = table(&doc(), heading);
    let (header, body) = rows.split_first().expect("a header row");
    let mut stale = Vec::new();
    for row in body {
        for (col, cell) in header.iter().zip(row).skip(1) {
            let want = expect(&row[0], col);
            if *cell != want {
                stale.push(format!(
                    "{} / {col}: shows {cell:?}, results/ hold {want:?}",
                    row[0]
                ));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md's {heading:?} table disagrees with results/:\n{}",
        stale.join("\n")
    );
}

/// `items` entry whose `key` field is `at` (a load, rate or fraction).
fn at<'a>(items: &'a Value, key: &str, at: f64) -> &'a Value {
    let items = items.as_array().expect("a list");
    items
        .iter()
        .find(|v| (num(&v[key]) - at).abs() < 1e-9)
        .unwrap_or_else(|| panic!("no {key} = {at}"))
}

#[test]
fn headline_table_shows_what_results_hold() {
    let rows = table(&doc(), "Headline claims");
    // A row is `| claim | paper | measured | verdict |`; only the
    // measured cell counts.
    let measured = |claim: &str| {
        let row = rows
            .iter()
            .find(|r| r[0].starts_with(claim))
            .unwrap_or_else(|| panic!("no headline row for {claim:?}"));
        row[2].as_str()
    };

    let fig1 = result("fig1");
    let fig2 = result("fig2");
    let fig4 = result("fig4");
    let fig5 = result("fig5");
    let fig6 = result("fig6");
    let fig7 = result("fig7");
    let fig8 = result("fig8");
    let theorem1 = result("theorem1");

    let savings = |load| {
        let r = at(&fig4["rows"], "load", load);
        format!("{:.2} %", num(&r["savings_pct"]["mean"]))
    };
    let idle = num(&fig2["idle_w"]);
    let half = num(&at(&fig2["points"], "target_gbps", 5.0)["power_w"]["mean"]);
    let line = num(&fig2["line_rate_w"]);
    let vs_baseline = pairs(&fig5["vs_baseline_pct"]);
    let real_ccas = vs_baseline.iter().filter(|(cca, _)| cca != "bbr2");

    let expected = [
        (
            "\"full speed, then idle\"",
            format!("{:.1} %", num(&fig1["peak_savings_pct"])),
        ),
        (
            "\"full speed, then idle\"",
            format!(
                "({:.1} J vs {:.1} J)",
                num(&fig1["fair_energy_j"]["mean"]),
                num(&at(&fig1["points"], "fraction", 1.0)["energy_j"]["mean"]),
            ),
        ),
        (
            "RAPL operating points",
            format!("{idle:.2} / {half:.2} / {line:.2} W"),
        ),
        (
            "marginal power",
            format!("+{:.2} W / +{:.2} W", half - idle, line - half),
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
            format!("r = {:.2}", num(&fig7["energy_fct_correlation"])),
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
    let stale: Vec<String> = expected
        .iter()
        .map(|(claim, shown)| (claim, measured(claim), shown))
        .filter(|(_, cell, shown)| !cell.contains(shown.as_str()))
        .map(|(claim, cell, shown)| format!("{claim:?} row shows {cell:?}, not {shown:?}"))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md's headline table disagrees with results/:\n{}",
        stale.join("\n")
    );
}

#[test]
fn fig1_savings_row_shows_what_results_hold() {
    let fig1 = result("fig1");
    check("Figure 1", |row, col| {
        assert_eq!(row, "measured savings");
        let point = at(&fig1["points"], "fraction", lead(col) / 100.0);
        format!("{:.1} %", num(&point["savings_pct"]["mean"]))
    });
}

#[test]
fn fig2_rows_show_what_results_hold() {
    let fig2 = result("fig2");
    check("Figure 2", |row, col| {
        let gbps = lead(col);
        let watts = match row {
            _ if gbps == 0.0 => num(&fig2["idle_w"]),
            "measured W" => num(&at(&fig2["points"], "target_gbps", gbps)["power_w"]["mean"]),
            "full-speed-then-idle mix W" => {
                num(&at(&fig2["points"], "target_gbps", gbps)["mix_power_w"])
            }
            _ => panic!("unknown Fig 2 row {row:?}"),
        };
        format!("{watts:.2}")
    });
}

#[test]
fn fig4_table_shows_what_results_hold() {
    let fig4 = result("fig4");
    let rates = fig4["rates_gbps"].as_array().expect("rates");
    let line_rate = rates
        .iter()
        .position(|r| num(r) == 10.0)
        .expect("a 10 Gb/s rate");
    check("Figure 4", |row, col| {
        let r = at(&fig4["rows"], "load", lead(row) / 100.0);
        match col {
            "idle W" => format!("{:.2}", num(&r["idle_w"])),
            "P(10G) W" => format!("{:.2}", num(&r["power_w"][line_rate]["mean"])),
            "full-speed-then-idle saving" => format!(
                "{:.2} ± {:.2} %",
                num(&r["savings_pct"]["mean"]),
                num(&r["savings_pct"]["std"])
            ),
            _ => panic!("unknown Fig 4 column {col:?}"),
        }
    });
}

#[test]
fn fig5_to_8_table_shows_what_results_hold() {
    let fig5 = result("fig5");
    let cells = fig5["matrix"]["cells"].as_array().expect("cells");
    check("Figures 5–8", |cca, col| {
        // `E@1500`, `P@9000 (W)`, `retx@9000 per 5 GB`.
        let (what, mtu) = col.split_once('@').expect("a <what>@<mtu> column");
        let mtu = lead(mtu);
        let cell = cells
            .iter()
            .find(|c| c["cca"].as_str() == Some(cca) && num(&c["mtu"]) == mtu)
            .unwrap_or_else(|| panic!("no {cca} @ {mtu} cell"));
        match what {
            // kJ per 50 GB, from 5 GB runs.
            "E" => format!("{:.2}", num(&cell["energy_j"]["mean"]) * 10.0 / 1000.0),
            "P" => format!("{:.2}", num(&cell["power_w"]["mean"])),
            "retx" => grouped(num(&cell["retx"]["mean"])),
            _ => panic!("unknown Fig 5–8 column {col:?}"),
        }
    });
}

#[test]
fn chaos_table_shows_what_results_hold() {
    let chaos = result("chaos");
    check("Chaos", |row, col| {
        let r = at(&chaos["rows"], "loss_rate", lead(row) / 100.0);
        match col {
            "drops/run" => grouped(num(&r["injected_drops"])),
            "retx" => grouped(num(&r["retx"])),
            "fair (J)" => format!("{:.2}", num(&r["fair_energy_j"]["mean"])),
            "serial (J)" => format!("{:.2}", num(&r["serial_energy_j"]["mean"])),
            "serial savings" => format!("{:.1} %", num(&r["savings_pct"]["mean"])),
            _ => panic!("unknown chaos column {col:?}"),
        }
    });
}
