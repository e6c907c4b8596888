//! Regenerate Figure 8 from the shared CCA x MTU campaign.
use greenenvy::fig8;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Figure 8", &scale);
    let matrix = bench::load_or_run_matrix(scale);
    let result = fig8::from_matrix(matrix);
    println!("{}", fig8::render(&result));
    if let Some(p) = bench::save_json("fig8", &result) {
        println!("json: {}", p.display());
    }
}
