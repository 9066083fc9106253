//! Figure 4: SIBENCH transaction throughput for SSI and S2PL as a percentage
//! of SI throughput, as a function of table size.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig4_sibench [-- --duration-ms 1500 --threads 4 --stats]
//! ```

use pgssi_bench::args::BenchArgs;
use pgssi_bench::harness::{print_header, print_normalized_row, Mode};
use pgssi_bench::sibench::Sibench;
use pgssi_common::EngineConfig;

fn main() {
    let args = BenchArgs::parse();
    let duration = args.duration_or(1200);
    let threads = args.usize_or("--threads", 8);
    let sizes: Vec<i64> = vec![10, 100, 1000, 10_000];

    println!("Figure 4: SIBENCH throughput, normalized to SI");
    println!(
        "mix: 50% update-one-key, 50% scan-for-minimum; {threads} threads, {duration:?} per cell\n"
    );
    print_header("rows", &Mode::ALL);
    let mut last_dbs = Vec::new();
    for size in sizes {
        let bench = Sibench { table_size: size };
        let mut results = Vec::new();
        last_dbs.clear();
        for mode in Mode::ALL {
            let db = bench.setup_with(EngineConfig {
                trace: args.trace(),
                ..mode.config()
            });
            let r = bench.run_on(&db, mode, threads, duration, 42);
            results.push((mode, r));
            last_dbs.push((mode, db));
        }
        print_normalized_row(&size.to_string(), &results);
    }
    for (mode, db) in &last_dbs {
        args.print_stats(mode.label(), db);
        args.print_latency(mode.label(), db);
    }
    println!("\npaper's shape: S2PL well below SI (readers block writers);");
    println!("SSI close to SI (10-20% CPU overhead), r/o optimization narrowing");
    println!("the gap as the table (and query) grows.");
}
