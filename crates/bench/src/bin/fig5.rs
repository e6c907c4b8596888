//! Regenerate Figure 5 from the shared CCA x MTU campaign.
use greenenvy::fig5;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 5", &scale);
    let matrix = bench::load_or_run_matrix(scale);
    let result = fig5::from_matrix(matrix);
    println!("{}", fig5::render(&result));
    if let Some(p) = bench::save_json("fig5", &result) {
        println!("json: {}", p.display());
    }
}
