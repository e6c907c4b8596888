//! Regenerate Figure 3: fair vs full-speed-then-idle throughput traces.
use greenenvy::fig3;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 3", &scale);
    let result = fig3::run(&fig3::Config::at_scale(scale));
    println!("{}", fig3::render(&result));
    if let Some(p) = bench::save_json("fig3", &result) {
        println!("json: {}", p.display());
    }
}
