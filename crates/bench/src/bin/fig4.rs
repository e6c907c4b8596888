//! Regenerate Figure 4: power vs bitrate under background load, plus the
//! fate of the unfairness savings on loaded hosts.
use greenenvy::{fig4, savings};

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 4", &scale);
    let result = fig4::run(&fig4::Config::at_scale(scale));
    println!("{}", fig4::render(&result));
    // The paper's §4.2 dollar extrapolation, fed with what we measured.
    let measured: Vec<(String, f64)> = result
        .rows
        .iter()
        .map(|r| {
            (
                format!("{:.0}% load", r.load * 100.0),
                (r.savings_pct.mean / 100.0).clamp(0.0, 1.0),
            )
        })
        .collect();
    println!("{}", savings::render(&measured));
    if let Some(p) = bench::save_json("fig4", &result) {
        println!("json: {}", p.display());
    }
}
