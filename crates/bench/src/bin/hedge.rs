//! Regenerates the hedging-frontier artifact (tail latency vs wasted
//! work per provider); `--samples N` overrides the default 3000-sample
//! methodology (§V).

fn main() {
    let report = bench::experiments::hedge::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
