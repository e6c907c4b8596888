//! Regenerate Figure 7 from the shared CCA x MTU campaign.
use greenenvy::fig7;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 7", &scale);
    let matrix = bench::load_or_run_matrix(scale);
    let result = fig7::from_matrix(matrix);
    println!("{}", fig7::render(&result));
    if let Some(p) = bench::save_json("fig7", &result) {
        println!("json: {}", p.display());
    }
}
