//! Figure 6: RUBiS bidding-mix performance — throughput and
//! serialization-failure rate per isolation mode.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig6_rubis [-- --duration-ms 2000]
//! ```

use pgssi_bench::args::BenchArgs;
use pgssi_bench::harness::Mode;
use pgssi_bench::rubis::{Rubis, RubisConfig};

fn main() {
    let args = BenchArgs::parse();
    let duration = args.duration_or(2000);
    let threads = args.usize_or("--threads", 8);
    let config = RubisConfig {
        trace: args.trace(),
        ..RubisConfig::default()
    };

    println!("Figure 6: RUBiS bidding mix (85% read-only / 15% read-write)");
    println!(
        "scale: {} users, {} items, {} categories; {threads} threads, {duration:?} per mode\n",
        config.users, config.items, config.categories
    );
    println!(
        "  {:<8} {:>16} {:>22}",
        "", "Throughput (req/s)", "Serialization failures"
    );
    let mut si_tps = None;
    let mut dbs = Vec::new();
    for mode in Mode::MAIN {
        let bench = Rubis::new(config);
        let db = bench.setup(mode);
        let r = bench.run_on(&db, mode, threads, duration, 3);
        if mode == Mode::Si {
            si_tps = Some(r.tps());
        }
        println!(
            "  {:<8} {:>16.0} {:>21.3}%   ({:.2}x SI)",
            mode.label(),
            r.tps(),
            100.0 * r.failure_rate(),
            r.tps() / si_tps.unwrap_or(r.tps())
        );
        dbs.push((mode, db));
    }
    println!("\npaper's table: SI 435 req/s @ 0.004%, SSI 422 @ 0.03%, S2PL 208 @ 0.76%");
    println!("shape to match: SSI within a few % of SI; S2PL near half, with the");
    println!("highest failure rate (deadlocks from category-scan vs bid conflicts).");
    for (mode, db) in &dbs {
        args.print_stats(mode.label(), db);
        args.print_latency(mode.label(), db);
    }
}
