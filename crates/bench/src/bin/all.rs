//! Regenerate every figure and table of the paper in one invocation.
//!
//! `GREENENVY_SCALE=paper|standard|quick cargo run --release -p bench --bin all`
use greenenvy::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, savings, theorem};

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("All figures", &scale);

    let r1 = fig1::run(&fig1::Config::at_scale(scale));
    println!("{}", fig1::render(&r1));
    bench::save_json("fig1", &r1);

    let r2 = fig2::run(&fig2::Config::at_scale(scale));
    println!("{}", fig2::render(&r2));
    bench::save_json("fig2", &r2);

    let r3 = fig3::run(&fig3::Config::at_scale(scale));
    println!("{}", fig3::render(&r3));
    bench::save_json("fig3", &r3);

    let r4 = fig4::run(&fig4::Config::at_scale(scale));
    println!("{}", fig4::render(&r4));
    bench::save_json("fig4", &r4);
    let measured: Vec<(String, f64)> = r4
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

    // One campaign, four projections — exactly as in the paper.
    let matrix = bench::load_or_run_matrix(scale);
    let r5 = fig5::from_matrix(matrix.clone());
    println!("{}", fig5::render(&r5));
    bench::save_json("fig5", &r5);
    let r6 = fig6::from_matrix(matrix.clone());
    println!("{}", fig6::render(&r6));
    bench::save_json("fig6", &r6);
    let r7 = fig7::from_matrix(matrix.clone());
    println!("{}", fig7::render(&r7));
    bench::save_json("fig7", &r7);
    let r8 = fig8::from_matrix(matrix);
    println!("{}", fig8::render(&r8));
    bench::save_json("fig8", &r8);

    let rt = theorem::run(10_000);
    println!("{}", theorem::render(&rt));
    bench::save_json("theorem1", &rt);
}
