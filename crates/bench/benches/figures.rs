//! `cargo bench` wrapper over the paper's figures at miniature scale: each
//! Criterion benchmark measures committed-transactions-per-iteration-window
//! for one (figure, mode) cell. For the full tables, run the dedicated
//! binaries (`fig4_sibench`, `fig5_dbt2`, `fig6_rubis`, `sec84_deferrable`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgssi_bench::dbt2::{Dbt2, Dbt2Config};
use pgssi_bench::harness::Mode;
use pgssi_bench::rubis::{Rubis, RubisConfig};
use pgssi_bench::sibench::Sibench;

fn fig4_mini(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_sibench_100rows");
    for mode in Mode::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                let bench = Sibench { table_size: 100 };
                b.iter_custom(|iters| {
                    let window =
                        Duration::from_millis(40).max(Duration::from_millis(iters.min(10)));
                    let r = bench.run(mode, 2, window, 42);
                    // Report time-per-committed-transaction.
                    Duration::from_secs_f64(
                        r.elapsed.as_secs_f64() / r.committed.max(1) as f64 * iters as f64,
                    )
                });
            },
        );
    }
    g.finish();
}

fn fig5_mini(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_dbt2_8pct_ro");
    for mode in Mode::MAIN {
        g.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                let bench = Dbt2 {
                    config: Dbt2Config {
                        warehouses: 1,
                        districts: 3,
                        customers: 20,
                        items: 60,
                        read_only_fraction: 0.08,
                        ..Dbt2Config::in_memory()
                    },
                };
                b.iter_custom(|iters| {
                    let r = bench.run(mode, 2, Duration::from_millis(60), 7);
                    Duration::from_secs_f64(
                        r.elapsed.as_secs_f64() / r.committed.max(1) as f64 * iters as f64,
                    )
                });
            },
        );
    }
    g.finish();
}

fn fig6_mini(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_rubis_bidding");
    for mode in Mode::MAIN {
        g.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                b.iter_custom(|iters| {
                    let bench = Rubis::new(RubisConfig {
                        users: 60,
                        items: 40,
                        categories: 5,
                        bids: 80,
                        trace: false,
                    });
                    let r = bench.run(mode, 2, Duration::from_millis(60), 3);
                    Duration::from_secs_f64(
                        r.elapsed.as_secs_f64() / r.committed.max(1) as f64 * iters as f64,
                    )
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    targets = fig4_mini, fig5_mini, fig6_mini
}
criterion_main!(figures);
