//! Regenerate Figure 2: power vs throughput for a CUBIC sender.
use greenenvy::fig2;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 2", &scale);
    let result = fig2::run(&fig2::Config::at_scale(scale));
    println!("{}", fig2::render(&result));
    println!(
        "strictly concave (0.3 W tolerance): {}",
        result.is_concave(0.3)
    );
    if let Some(p) = bench::save_json("fig2", &result) {
        println!("json: {}", p.display());
    }
}
