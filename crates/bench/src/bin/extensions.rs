//! Run the §5 future-work extension experiments: flow multiplexing at one
//! sender, SRPT scheduling, and incast.
use greenenvy::extensions;

fn main() {
    let scale = bench::scale_from_env();
    bench::announce("Extensions (paper §5)", &scale);

    let m = extensions::multiplexed::run(&extensions::multiplexed::Config::at_scale(scale));
    println!("{}", extensions::multiplexed::render(&m));
    bench::save_json("ext_multiplexed", &m);

    let s = extensions::srpt::run(&extensions::srpt::Config::at_scale(scale));
    println!("{}", extensions::srpt::render(&s));
    bench::save_json("ext_srpt", &s);

    let i = extensions::incast::run(&extensions::incast::Config::at_scale(scale));
    println!("{}", extensions::incast::render(&i));
    bench::save_json("ext_incast", &i);

    let b = extensions::modern::run(&extensions::modern::Config::at_scale(scale));
    println!("{}", extensions::modern::render(&b));
    bench::save_json("ext_modern", &b);

    let p = extensions::production::run(&extensions::production::Config::at_scale(scale));
    println!("{}", extensions::production::render(&p));
    bench::save_json("ext_production", &p);
}
