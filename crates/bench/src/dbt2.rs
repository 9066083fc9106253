//! DBT-2++ (paper §8.2, Figure 5a): a TPC-C-like transaction-processing
//! workload extended with Cahill's "credit check" transaction, which can form
//! dependency cycles with New-Order and Payment — plain TPC-C is serializable
//! under SI, so without it SSI would have nothing to catch.
//!
//! Faithful structural elements: the district `next_o_id` hotspot, per-item
//! stock updates, order/order-line/new-order inserts, the 8% standard
//! read-only fraction (Order-Status + Stock-Level), and the paper's
//! contention-reducing tweaks (no warehouse year-to-date total; item catalog
//! is read outside transactions like their cached read-only data). Scale is
//! laptop-sized; see DESIGN.md §2.

use std::ops::Bound;
use std::time::Duration;

use pgssi_common::{row, Key, Result, Row, Value};
use pgssi_engine::{BeginOptions, Database, IndexDef, IndexKind, TableDef, Transaction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{run_for, seed_for, Mode, RunResult};

/// Scale and shape parameters.
#[derive(Clone, Debug)]
pub struct Dbt2Config {
    /// Warehouses (TPC-C scale unit).
    pub warehouses: i64,
    /// Districts per warehouse (TPC-C: 10).
    pub districts: i64,
    /// Customers per district (TPC-C: 3000; scaled down).
    pub customers: i64,
    /// Items in the catalog (TPC-C: 100k; scaled down).
    pub items: i64,
    /// Fraction of read-only transactions in the mix, 0.0–1.0 (TPC-C: ~8%).
    pub read_only_fraction: f64,
    /// TPC-C terminal think time: how long a session idles after receiving a
    /// transaction's response before composing the next one. Zero (the
    /// closed-loop default) saturates the workers; non-zero values reproduce
    /// the paper's many-mostly-idle-terminals shape, where hundreds of
    /// sessions generate only moderate concurrent load (§8.2 runs DBT-2 this
    /// way). Only honored by the session-mode runs ([`Dbt2::run_sessions_on`]).
    pub think_time: Duration,
    /// TPC-C keying time: idle time *before* a transaction is submitted.
    /// Scheduling-wise it merges with `think_time` into one inter-transaction
    /// pause; it is kept separate so configs can mirror TPC-C clause 5.2.5.7.
    pub keying_time: Duration,
    /// Lifecycle tracing ([`pgssi_common::EngineConfig::trace`]) for the
    /// database this config builds.
    pub trace: bool,
}

impl Dbt2Config {
    /// Figure 5a's in-memory configuration at laptop scale. The
    /// warehouse-district product is sized so the per-district contention per
    /// worker thread is comparable to the paper's 25 warehouses vs ~4 clients.
    pub fn in_memory() -> Dbt2Config {
        Dbt2Config {
            warehouses: 8,
            districts: 10,
            customers: 30,
            items: 400,
            read_only_fraction: 0.08,
            think_time: Duration::ZERO,
            keying_time: Duration::ZERO,
            trace: false,
        }
    }

    /// Total inter-transaction pause a session observes.
    pub fn pause(&self) -> Duration {
        self.think_time + self.keying_time
    }
}

/// The DBT-2++ workload.
pub struct Dbt2 {
    /// Parameters.
    pub config: Dbt2Config,
}

impl Dbt2 {
    /// Create the schema and load the initial data set.
    pub fn setup(&self, mode: Mode) -> Database {
        let c = &self.config;
        let db = Database::new(pgssi_common::EngineConfig {
            trace: c.trace,
            ..mode.config()
        });
        db.create_table(TableDef::new("warehouse", &["w_id", "name"], vec![0]))
            .unwrap();
        db.create_table(TableDef::new(
            "district",
            &["w_id", "d_id", "next_o_id", "ytd"],
            vec![0, 1],
        ))
        .unwrap();
        db.create_table(TableDef::new(
            "customer",
            &["w_id", "d_id", "c_id", "balance", "credit_ok"],
            vec![0, 1, 2],
        ))
        .unwrap();
        db.create_table(TableDef::new("item", &["i_id", "price"], vec![0]))
            .unwrap();
        db.create_table(TableDef::new(
            "stock",
            &["w_id", "i_id", "quantity"],
            vec![0, 1],
        ))
        .unwrap();
        db.create_table(
            TableDef::new(
                "orders",
                &["w_id", "d_id", "o_id", "c_id", "carrier"],
                vec![0, 1, 2],
            )
            .with_index(IndexDef {
                name: "orders_by_customer".into(),
                cols: vec![0, 1, 3, 2],
                unique: false,
                kind: IndexKind::BTree,
            }),
        )
        .unwrap();
        db.create_table(TableDef::new(
            "order_line",
            &["w_id", "d_id", "o_id", "ol_n", "i_id", "amount"],
            vec![0, 1, 2, 3],
        ))
        .unwrap();
        db.create_table(TableDef::new(
            "new_order",
            &["w_id", "d_id", "o_id"],
            vec![0, 1, 2],
        ))
        .unwrap();

        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        for w in 0..c.warehouses {
            t.insert("warehouse", row![w, format!("wh-{w}")]).unwrap();
            for d in 0..c.districts {
                t.insert("district", row![w, d, 1i64, 0i64]).unwrap();
                for cu in 0..c.customers {
                    t.insert("customer", row![w, d, cu, 0i64, true]).unwrap();
                }
            }
        }
        for i in 0..c.items {
            t.insert("item", row![i, 1 + (i % 90)]).unwrap();
            for w in 0..c.warehouses {
                t.insert("stock", row![w, i, 1000i64]).unwrap();
            }
        }
        t.commit().unwrap();
        // Preload a few orders per district so read-only transactions have
        // real data to report on from the first second (TPC-C ships with a
        // populated order book too).
        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        for w in 0..c.warehouses {
            for d in 0..c.districts {
                for o in 1..=15i64 {
                    let cu = (o * 7) % c.customers;
                    t.insert("orders", row![w, d, o, cu, Value::Null]).unwrap();
                    t.insert("new_order", row![w, d, o]).unwrap();
                    for ol in 0..4i64 {
                        let i = (o * 11 + ol) % c.items;
                        t.insert("order_line", row![w, d, o, ol, i, 10 + ol])
                            .unwrap();
                    }
                }
                t.update("district", &row![w, d], row![w, d, 16i64, 0i64])
                    .unwrap();
            }
        }
        t.commit().unwrap();
        db
    }

    fn district_key(&self, rng: &mut SmallRng) -> (i64, i64) {
        (
            rng.gen_range(0..self.config.warehouses),
            rng.gen_range(0..self.config.districts),
        )
    }

    /// NEW-ORDER: allocate the next order id from the district (the classic
    /// hotspot), read items, decrement stock, insert order rows.
    pub fn new_order(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let c = rng.gen_range(0..self.config.customers);
        let district = txn.get("district", &row![w, d])?.expect("district");
        let o_id = district[2].as_int().unwrap();
        txn.update(
            "district",
            &row![w, d],
            row![w, d, o_id + 1, district[3].as_int().unwrap()],
        )?;
        let _customer = txn.get("customer", &row![w, d, c])?.expect("customer");
        txn.insert("orders", row![w, d, o_id, c, Value::Null])?;
        txn.insert("new_order", row![w, d, o_id])?;
        let n_items = rng.gen_range(3..8);
        let mut total = 0i64;
        for ol in 0..n_items {
            let i = rng.gen_range(0..self.config.items);
            let item = txn.get("item", &row![i])?.expect("item");
            let price = item[1].as_int().unwrap();
            let stock = txn.get("stock", &row![w, i])?.expect("stock");
            let q = stock[2].as_int().unwrap();
            let new_q = if q > 10 { q - 1 } else { q + 91 };
            txn.update("stock", &row![w, i], row![w, i, new_q])?;
            let qty = rng.gen_range(1..5);
            let amount = price * qty;
            total += amount;
            txn.insert("order_line", row![w, d, o_id, ol, i, amount])?;
        }
        let _ = total;
        Ok(())
    }

    /// PAYMENT: update the customer balance and the district year-to-date.
    pub fn payment(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let c = rng.gen_range(0..self.config.customers);
        let amount = rng.gen_range(1..500);
        let district = txn.get("district", &row![w, d])?.expect("district");
        txn.update(
            "district",
            &row![w, d],
            row![
                w,
                d,
                district[2].as_int().unwrap(),
                district[3].as_int().unwrap() + amount
            ],
        )?;
        let customer = txn.get("customer", &row![w, d, c])?.expect("customer");
        txn.update(
            "customer",
            &row![w, d, c],
            row![
                w,
                d,
                c,
                customer[3].as_int().unwrap() - amount,
                customer[4].as_bool().unwrap()
            ],
        )?;
        Ok(())
    }

    /// ORDER-STATUS (read-only): last order of a customer with its lines.
    pub fn order_status(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let c = rng.gen_range(0..self.config.customers);
        let lo: Key = row![w, d, c, 0i64];
        let hi: Key = row![w, d, c, i64::MAX];
        let orders = txn.range(
            "orders",
            "orders_by_customer",
            Bound::Included(lo),
            Bound::Included(hi),
        )?;
        if let Some((_, order)) = orders.last() {
            let o_id = order[2].as_int().unwrap();
            let lo: Key = row![w, d, o_id, 0i64];
            let hi: Key = row![w, d, o_id, i64::MAX];
            let _lines = txn.range_pk("order_line", Bound::Included(lo), Bound::Included(hi))?;
        }
        Ok(())
    }

    /// DELIVERY: take the oldest undelivered order in a district, stamp a
    /// carrier, and credit the customer with the order total.
    pub fn delivery(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let lo: Key = row![w, d, 0i64];
        let hi: Key = row![w, d, i64::MAX];
        let pending = txn.range_pk("new_order", Bound::Included(lo), Bound::Included(hi))?;
        let Some((_, oldest)) = pending.first() else {
            return Ok(()); // nothing to deliver
        };
        let o_id = oldest[2].as_int().unwrap();
        txn.delete("new_order", &row![w, d, o_id])?;
        let order = txn.get("orders", &row![w, d, o_id])?.expect("order");
        let c = order[3].as_int().unwrap();
        txn.update("orders", &row![w, d, o_id], row![w, d, o_id, c, 7i64])?;
        let lo: Key = row![w, d, o_id, 0i64];
        let hi: Key = row![w, d, o_id, i64::MAX];
        let total: i64 = txn
            .range_pk("order_line", Bound::Included(lo), Bound::Included(hi))?
            .iter()
            .map(|(_, l)| l[5].as_int().unwrap())
            .sum();
        let customer = txn.get("customer", &row![w, d, c])?.expect("customer");
        txn.update(
            "customer",
            &row![w, d, c],
            row![
                w,
                d,
                c,
                customer[3].as_int().unwrap() + total,
                customer[4].as_bool().unwrap()
            ],
        )?;
        Ok(())
    }

    /// STOCK-LEVEL (read-only): how many items in the district's recent orders
    /// have stock below a threshold.
    pub fn stock_level(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let district = txn.get("district", &row![w, d])?.expect("district");
        let next_o = district[2].as_int().unwrap();
        let lo: Key = row![w, d, (next_o - 20).max(0), 0i64];
        let hi: Key = row![w, d, next_o, i64::MAX];
        let lines = txn.range_pk("order_line", Bound::Included(lo), Bound::Included(hi))?;
        let mut low = 0;
        for (_, l) in lines.iter().take(40) {
            let i = l[4].as_int().unwrap();
            if let Some(stock) = txn.get("stock", &row![w, i])? {
                if stock[2].as_int().unwrap() < 900 {
                    low += 1;
                }
            }
        }
        let _ = low;
        Ok(())
    }

    /// CREDIT-CHECK (Cahill's TPC-C++ extension): compare a customer's balance
    /// against the total of their open (undelivered) order lines and update
    /// their credit flag. Reads what New-Order/Delivery write and writes what
    /// Payment reads — the ingredient that makes cycles possible.
    pub fn credit_check(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let (w, d) = self.district_key(rng);
        let c = rng.gen_range(0..self.config.customers);
        let customer = txn.get("customer", &row![w, d, c])?.expect("customer");
        let balance = customer[3].as_int().unwrap();
        let lo: Key = row![w, d, c, 0i64];
        let hi: Key = row![w, d, c, i64::MAX];
        let orders = txn.range(
            "orders",
            "orders_by_customer",
            Bound::Included(lo),
            Bound::Included(hi),
        )?;
        let mut open_total = 0i64;
        for (_, order) in orders.iter().rev().take(3) {
            if order[4] != Value::Null {
                continue; // delivered
            }
            let o_id = order[2].as_int().unwrap();
            let lo: Key = row![w, d, o_id, 0i64];
            let hi: Key = row![w, d, o_id, i64::MAX];
            open_total += txn
                .range_pk("order_line", Bound::Included(lo), Bound::Included(hi))?
                .iter()
                .map(|(_, l)| l[5].as_int().unwrap())
                .sum::<i64>();
        }
        let good = balance - open_total > -5000;
        txn.update("customer", &row![w, d, c], row![w, d, c, balance, good])?;
        Ok(())
    }

    /// Run one transaction drawn from the mix. Read-only fraction comes from
    /// the config; the read/write side keeps TPC-C's internal proportions
    /// (New-Order 49%, Payment 43%, Delivery 4%, Credit-Check 4% of RW).
    pub fn one_txn(&self, db: &Database, mode: Mode, rng: &mut SmallRng) -> bool {
        let read_only = rng.gen_bool(self.config.read_only_fraction);
        let opts = if read_only {
            BeginOptions::new(mode.isolation()).read_only()
        } else {
            BeginOptions::new(mode.isolation())
        };
        let Ok(mut txn) = db.begin_with(opts) else {
            return false;
        };
        let body: Result<()> = if read_only {
            if rng.gen_bool(0.5) {
                self.order_status(&mut txn, rng)
            } else {
                self.stock_level(&mut txn, rng)
            }
        } else {
            let dice = rng.gen_range(0..100);
            if dice < 49 {
                self.new_order(&mut txn, rng)
            } else if dice < 92 {
                self.payment(&mut txn, rng)
            } else if dice < 96 {
                self.delivery(&mut txn, rng)
            } else {
                self.credit_check(&mut txn, rng)
            }
        };
        body.and_then(|()| txn.commit()).is_ok()
    }

    /// Timed run against an existing database (lets callers keep the handle
    /// for a post-run `stats_report`).
    pub fn run_on(
        &self,
        db: &Database,
        mode: Mode,
        threads: usize,
        duration: Duration,
        seed: u64,
    ) -> RunResult {
        run_for(threads, duration, |th, iter| {
            let mut rng =
                SmallRng::seed_from_u64(seed_for(seed, th).wrapping_add(iter.wrapping_mul(31)));
            self.one_txn(db, mode, &mut rng)
        })
    }

    /// Timed run.
    pub fn run(&self, mode: Mode, threads: usize, duration: Duration, seed: u64) -> RunResult {
        let db = self.setup(mode);
        self.run_on(&db, mode, threads, duration, seed)
    }

    /// Timed run in *session mode*: `sessions` logical DBT-2 terminals
    /// multiplexed onto `workers` pool threads via `pgssi-server`'s
    /// [`SessionPool`], each observing the configured think/keying pause
    /// between transactions. This is the paper's §8.2 client shape — many
    /// mostly-idle terminals — which the thread-per-client harness above
    /// cannot express once `sessions` exceeds sensible OS-thread counts.
    ///
    /// [`SessionPool`]: pgssi_server::SessionPool
    pub fn run_sessions_on(
        &self,
        db: &Database,
        mode: Mode,
        sessions: usize,
        workers: usize,
        duration: Duration,
        seed: u64,
    ) -> RunResult {
        use pgssi_server::{SessionPool, SessionTask};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::Instant;

        struct Terminal {
            bench: Dbt2,
            mode: Mode,
            rng: SmallRng,
            pause: Duration,
            stop: Arc<AtomicBool>,
            committed: Arc<AtomicU64>,
            aborted: Arc<AtomicU64>,
        }

        impl SessionTask for Terminal {
            fn run(
                &mut self,
                db: &pgssi_engine::ShardedDatabase,
                _sid: pgssi_server::SessionId,
            ) -> pgssi_server::Next {
                if self.stop.load(Ordering::Relaxed) {
                    return pgssi_server::Next::Stop;
                }
                // DBT-2 terminals drive a single engine; the pool wraps it as
                // a one-shard cluster.
                if self.bench.one_txn(db.shard(0), self.mode, &mut self.rng) {
                    self.committed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.aborted.fetch_add(1, Ordering::Relaxed);
                }
                if self.pause.is_zero() {
                    pgssi_server::Next::Again
                } else {
                    pgssi_server::Next::After(self.pause)
                }
            }
        }

        let pool = SessionPool::new(
            db.clone(),
            pgssi_common::ServerConfig {
                workers,
                max_sessions: sessions,
                ..pgssi_common::ServerConfig::default()
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        for s in 0..sessions {
            pool.spawn(Box::new(Terminal {
                bench: Dbt2 {
                    config: self.config.clone(),
                },
                mode,
                rng: SmallRng::seed_from_u64(seed_for(seed, s)),
                pause: self.config.pause(),
                stop: Arc::clone(&stop),
                committed: Arc::clone(&committed),
                aborted: Arc::clone(&aborted),
            }))
            .expect("session capacity sized to the sweep");
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let elapsed = start.elapsed();
        pool.shutdown();
        RunResult {
            committed: committed.load(Ordering::Relaxed),
            aborted: aborted.load(Ordering::Relaxed),
            elapsed,
        }
    }

    /// Consistency audit used by tests: district `next_o_id` must equal 1 +
    /// number of orders in that district (New-Order's invariant).
    pub fn audit(&self, db: &Database) -> Result<bool> {
        let mut txn = db.begin(pgssi_engine::IsolationLevel::RepeatableRead);
        let mut ok = true;
        for w in 0..self.config.warehouses {
            for d in 0..self.config.districts {
                let district = txn.get("district", &row![w, d])?.expect("district");
                let next_o = district[2].as_int().unwrap();
                let lo: Key = row![w, d, 0i64];
                let hi: Key = row![w, d, i64::MAX];
                let orders = txn.range_pk("orders", Bound::Included(lo), Bound::Included(hi))?;
                if orders.len() as i64 != next_o - 1 {
                    ok = false;
                }
                // Order ids must be dense and unique.
                let mut ids: Vec<i64> = orders
                    .iter()
                    .map(|(_, o): &(Key, Row)| o[2].as_int().unwrap())
                    .collect();
                ids.sort();
                ids.dedup();
                if ids.len() != orders.len() {
                    ok = false;
                }
            }
        }
        txn.commit()?;
        Ok(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dbt2 {
        Dbt2 {
            config: Dbt2Config {
                warehouses: 1,
                districts: 2,
                customers: 10,
                items: 30,
                read_only_fraction: 0.2,
                think_time: Duration::ZERO,
                keying_time: Duration::ZERO,
                trace: false,
            },
        }
    }

    #[test]
    fn all_modes_progress_and_stay_consistent() {
        let bench = tiny();
        for mode in [Mode::Si, Mode::Ssi, Mode::S2pl] {
            let db = bench.setup(mode);
            let r = run_for(2, Duration::from_millis(150), |th, iter| {
                let mut rng =
                    SmallRng::seed_from_u64(seed_for(3, th).wrapping_add(iter.wrapping_mul(31)));
                bench.one_txn(&db, mode, &mut rng)
            });
            assert!(r.committed > 0, "{mode:?} made no progress");
            assert!(
                bench.audit(&db).unwrap(),
                "{mode:?} violated order-id invariants"
            );
        }
    }

    #[test]
    fn session_mode_runs_more_sessions_than_workers() {
        let mut bench = tiny();
        bench.config.think_time = Duration::from_millis(2);
        bench.config.keying_time = Duration::from_millis(1);
        assert_eq!(bench.config.pause(), Duration::from_millis(3));
        let db = bench.setup(Mode::Ssi);
        let r = bench.run_sessions_on(&db, Mode::Ssi, 64, 2, Duration::from_millis(150), 11);
        assert!(r.committed > 0, "sessions made no progress");
        assert!(bench.audit(&db).unwrap(), "session mode broke invariants");
        let report = db.stats_report();
        assert_eq!(report.sessions_opened, 64);
        // Think times keep terminals mostly idle: with 64 sessions pausing 3ms
        // between transactions, total throughput is bounded by sessions/pause,
        // not by the two workers.
        assert!(r.committed <= 64 * 150 / 3 + 64);
    }

    #[test]
    fn each_transaction_type_runs_clean_in_isolation() {
        let bench = tiny();
        let db = bench.setup(Mode::Ssi);
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..40 {
            let mut txn = db.begin(pgssi_engine::IsolationLevel::Serializable);
            let r = match i % 6 {
                0..=1 => bench.new_order(&mut txn, &mut rng),
                2 => bench.payment(&mut txn, &mut rng),
                3 => bench.order_status(&mut txn, &mut rng),
                4 => bench.delivery(&mut txn, &mut rng),
                _ => bench.credit_check(&mut txn, &mut rng),
            };
            r.expect("single-threaded transactions cannot conflict");
            txn.commit().expect("single-threaded commit");
        }
        assert!(bench.audit(&db).unwrap());
    }
}
