//! Regenerate Figure 1: energy savings vs bandwidth allocated to flow #1.
use greenenvy::fig1;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 1", &scale);
    let result = fig1::run(&fig1::Config::at_scale(scale));
    println!("{}", fig1::render(&result));
    if let Some(p) = bench::save_json("fig1", &result) {
        println!("json: {}", p.display());
    }
}
