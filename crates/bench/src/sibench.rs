//! SIBENCH (paper §8.1, Figure 4).
//!
//! One table of N ⟨key, value⟩ pairs. The mix is 50% *update* transactions
//! (bump the value of one random key) and 50% *query* transactions (scan the
//! whole table for the key with the lowest value). Every query/update pair is
//! an rw-conflict, so locking approaches suffer while SI and SSI run the mix
//! concurrently — SSI paying only the dependency-tracking overhead, reduced
//! further by the read-only optimizations as table size (query length) grows.

use std::time::Duration;

use pgssi_common::{row, EngineConfig};
use pgssi_engine::{BeginOptions, Database, TableDef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{run_for, seed_for, Mode, RunResult};

/// SIBENCH workload over a table of `table_size` rows.
pub struct Sibench {
    /// Number of ⟨key, value⟩ rows.
    pub table_size: i64,
}

impl Sibench {
    /// Build the database and load `table_size` rows.
    pub fn setup(&self, mode: Mode) -> Database {
        self.setup_with(mode.config())
    }

    /// [`Sibench::setup`] with an explicit engine configuration (the figure
    /// binaries add `--trace` to it).
    pub fn setup_with(&self, config: EngineConfig) -> Database {
        let db = Database::new(config);
        db.create_table(TableDef::new("si", &["k", "v"], vec![0]))
            .expect("create");
        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        for k in 0..self.table_size {
            t.insert("si", row![k, k]).expect("load");
        }
        t.commit().expect("load commit");
        db
    }

    /// One update transaction: bump the value of a random key.
    pub fn update_txn(&self, db: &Database, mode: Mode, rng: &mut SmallRng) -> bool {
        let k = rng.gen_range(0..self.table_size);
        let mut txn = db.begin(mode.isolation());
        let ok = (|| -> pgssi_common::Result<()> {
            let cur = txn.get("si", &row![k])?.expect("row exists");
            let v = cur[1].as_int().unwrap();
            txn.update("si", &row![k], row![k, v + 1])?;
            Ok(())
        })()
        .and_then(|()| txn.commit());
        ok.is_ok()
    }

    /// One query transaction: scan the table for the minimum value. Declared
    /// READ ONLY so the §4 optimizations apply.
    pub fn query_txn(&self, db: &Database, mode: Mode) -> bool {
        let mut txn = match db.begin_with(BeginOptions::new(mode.isolation()).read_only()) {
            Ok(t) => t,
            Err(_) => return false,
        };
        let ok = (|| -> pgssi_common::Result<i64> {
            let rows = txn.scan("si")?;
            let min = rows
                .iter()
                .min_by_key(|r| r[1].as_int().unwrap())
                .map(|r| r[0].as_int().unwrap())
                .unwrap_or(-1);
            Ok(min)
        })()
        .and_then(|min| txn.commit().map(|()| min));
        ok.is_ok()
    }

    /// Timed 50/50 update/scan run against an existing database.
    pub fn run_on(
        &self,
        db: &Database,
        mode: Mode,
        threads: usize,
        duration: Duration,
        seed: u64,
    ) -> RunResult {
        run_for(threads, duration, |th, iter| {
            let mut rng = SmallRng::seed_from_u64(seed_for(seed, th).wrapping_add(iter));
            if iter % 2 == 0 {
                self.update_txn(db, mode, &mut rng)
            } else {
                self.query_txn(db, mode)
            }
        })
    }

    /// Timed 50/50 run.
    pub fn run(&self, mode: Mode, threads: usize, duration: Duration, seed: u64) -> RunResult {
        let db = self.setup(mode);
        self.run_on(&db, mode, threads, duration, seed)
    }
}

/// Sanity-check the workload semantics (used by tests).
pub fn smoke(table_size: i64) -> (u64, u64) {
    let b = Sibench { table_size };
    let r = b.run(Mode::Ssi, 2, Duration::from_millis(100), 42);
    (r.committed, r.aborted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_make_progress() {
        let b = Sibench { table_size: 20 };
        for mode in Mode::ALL {
            let r = b.run(mode, 2, Duration::from_millis(80), 7);
            assert!(r.committed > 0, "{mode:?} made no progress");
        }
    }

    #[test]
    fn query_finds_minimum() {
        let b = Sibench { table_size: 10 };
        let db = b.setup(Mode::Ssi);
        let mut txn = db.begin(pgssi_engine::IsolationLevel::Serializable);
        let rows = txn.scan("si").unwrap();
        assert_eq!(rows.len(), 10);
        let min = rows.iter().map(|r| r[1].as_int().unwrap()).min().unwrap();
        assert_eq!(min, 0);
        txn.commit().unwrap();
    }
}
