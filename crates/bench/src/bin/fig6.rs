//! Regenerate Figure 6 from the shared CCA x MTU campaign.
use greenenvy::fig6;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 6", &scale);
    let matrix = bench::load_or_run_matrix(scale);
    let result = fig6::from_matrix(matrix);
    println!("{}", fig6::render(&result));
    if let Some(p) = bench::save_json("fig6", &result) {
        println!("json: {}", p.display());
    }
}
