//! RUBiS-style auction workload (paper §8.3, Figure 6).
//!
//! The standard "bidding" mix: 85% read-only page views (browse a category,
//! view an item with its bids, view a user with comments) and 15% read/write
//! actions (place a bid, leave a comment, register a user). The load-bearing
//! conflict from the paper: category-listing scans (`items` by category) race
//! with bids updating those same items — frequent rw-conflicts that make 2PL
//! block and deadlock while SI/SSI sail through.

use std::ops::Bound;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use pgssi_common::{row, Key, Result};
use pgssi_engine::{BeginOptions, Database, IndexDef, IndexKind, TableDef, Transaction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{run_for, seed_for, Mode, RunResult};

/// Scale parameters.
#[derive(Clone, Copy, Debug)]
pub struct RubisConfig {
    /// Registered users.
    pub users: i64,
    /// Active auctions.
    pub items: i64,
    /// Item categories.
    pub categories: i64,
    /// Pre-loaded bids.
    pub bids: i64,
    /// Lifecycle tracing ([`pgssi_common::EngineConfig::trace`]).
    pub trace: bool,
}

impl Default for RubisConfig {
    fn default() -> Self {
        RubisConfig {
            users: 300,
            items: 200,
            categories: 10,
            bids: 400,
            trace: false,
        }
    }
}

/// The auction workload with id allocators for new rows.
pub struct Rubis {
    /// Parameters.
    pub config: RubisConfig,
    next_bid: AtomicI64,
    next_user: AtomicI64,
    next_comment: AtomicI64,
}

impl Rubis {
    /// New workload at the given scale.
    pub fn new(config: RubisConfig) -> Rubis {
        Rubis {
            next_bid: AtomicI64::new(config.bids),
            next_user: AtomicI64::new(config.users),
            next_comment: AtomicI64::new(0),
            config,
        }
    }

    /// Create the schema and load users, items, and bids.
    pub fn setup(&self, mode: Mode) -> Database {
        let c = &self.config;
        let db = Database::new(pgssi_common::EngineConfig {
            trace: c.trace,
            ..mode.config()
        });
        db.create_table(TableDef::new("users", &["u_id", "name", "rating"], vec![0]))
            .unwrap();
        db.create_table(
            TableDef::new(
                "items",
                &["i_id", "seller", "category", "current_bid", "num_bids"],
                vec![0],
            )
            .with_index(IndexDef {
                name: "items_by_category".into(),
                cols: vec![2, 0],
                unique: false,
                kind: IndexKind::BTree,
            }),
        )
        .unwrap();
        db.create_table(
            TableDef::new("bids", &["b_id", "i_id", "u_id", "amount"], vec![0]).with_index(
                IndexDef {
                    name: "bids_by_item".into(),
                    cols: vec![1, 0],
                    unique: false,
                    kind: IndexKind::BTree,
                },
            ),
        )
        .unwrap();
        db.create_table(
            TableDef::new("comments", &["c_id", "to_user", "rating"], vec![0]).with_index(
                IndexDef {
                    name: "comments_by_user".into(),
                    cols: vec![1, 0],
                    unique: false,
                    kind: IndexKind::BTree,
                },
            ),
        )
        .unwrap();

        let mut t = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        for u in 0..c.users {
            t.insert("users", row![u, format!("user{u}"), 0i64])
                .unwrap();
        }
        for i in 0..c.items {
            t.insert("items", row![i, i % c.users, i % c.categories, 0i64, 0i64])
                .unwrap();
        }
        for b in 0..c.bids {
            let i = b % c.items;
            t.insert("bids", row![b, i, (b * 7) % c.users, b]).unwrap();
        }
        t.commit().unwrap();
        db
    }

    /// Browse a category: list its items (read-only; the scan that conflicts
    /// with bidding).
    pub fn browse_category(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let cat = rng.gen_range(0..self.config.categories);
        let lo: Key = row![cat, 0i64];
        let hi: Key = row![cat, i64::MAX];
        let _items = txn.range(
            "items",
            "items_by_category",
            Bound::Included(lo),
            Bound::Included(hi),
        )?;
        Ok(())
    }

    /// View one item and its bid history (read-only).
    pub fn view_item(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let i = rng.gen_range(0..self.config.items);
        let _item = txn.get("items", &row![i])?;
        let lo: Key = row![i, 0i64];
        let hi: Key = row![i, i64::MAX];
        let _bids = txn.range(
            "bids",
            "bids_by_item",
            Bound::Included(lo),
            Bound::Included(hi),
        )?;
        Ok(())
    }

    /// View a user profile and their comments (read-only).
    pub fn view_user(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let u = rng.gen_range(0..self.config.users);
        let _user = txn.get("users", &row![u])?;
        let lo: Key = row![u, 0i64];
        let hi: Key = row![u, i64::MAX];
        let _comments = txn.range(
            "comments",
            "comments_by_user",
            Bound::Included(lo),
            Bound::Included(hi),
        )?;
        Ok(())
    }

    /// Place a bid: read the item, insert the bid, bump the item's current bid
    /// (read/write; conflicts with category scans and item views).
    pub fn place_bid(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let i = rng.gen_range(0..self.config.items);
        let u = rng.gen_range(0..self.config.users);
        let item = txn.get("items", &row![i])?.expect("item");
        let current = item[3].as_int().unwrap();
        let n = item[4].as_int().unwrap();
        let amount = current + rng.gen_range(1..25);
        let b = self.next_bid.fetch_add(1, Ordering::Relaxed);
        txn.insert("bids", row![b, i, u, amount])?;
        txn.update(
            "items",
            &row![i],
            row![
                i,
                item[1].as_int().unwrap(),
                item[2].as_int().unwrap(),
                amount,
                n + 1
            ],
        )?;
        Ok(())
    }

    /// Leave a comment and adjust the target user's rating (read/write).
    pub fn store_comment(&self, txn: &mut Transaction, rng: &mut SmallRng) -> Result<()> {
        let to = rng.gen_range(0..self.config.users);
        let c = self.next_comment.fetch_add(1, Ordering::Relaxed);
        let delta = rng.gen_range(-1..=1i64);
        txn.insert("comments", row![c, to, delta])?;
        let user = txn.get("users", &row![to])?.expect("user");
        let name = user[1].as_text().unwrap().to_string();
        txn.update(
            "users",
            &row![to],
            row![to, name, user[2].as_int().unwrap() + delta],
        )?;
        Ok(())
    }

    /// Register a new user (read/write).
    pub fn register_user(&self, txn: &mut Transaction) -> Result<()> {
        let u = self.next_user.fetch_add(1, Ordering::Relaxed);
        txn.insert("users", row![u, format!("user{u}"), 0i64])?;
        Ok(())
    }

    /// One request from the bidding mix: 85% read-only, 15% read/write.
    pub fn one_request(&self, db: &Database, mode: Mode, rng: &mut SmallRng) -> bool {
        let read_only = rng.gen_bool(0.85);
        let opts = if read_only {
            BeginOptions::new(mode.isolation()).read_only()
        } else {
            BeginOptions::new(mode.isolation())
        };
        let Ok(mut txn) = db.begin_with(opts) else {
            return false;
        };
        let body: Result<()> = if read_only {
            match rng.gen_range(0..3) {
                0 => self.browse_category(&mut txn, rng),
                1 => self.view_item(&mut txn, rng),
                _ => self.view_user(&mut txn, rng),
            }
        } else {
            match rng.gen_range(0..10) {
                0..=6 => self.place_bid(&mut txn, rng),
                7..=8 => self.store_comment(&mut txn, rng),
                _ => self.register_user(&mut txn),
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
                SmallRng::seed_from_u64(seed_for(seed, th).wrapping_add(iter.wrapping_mul(17)));
            self.one_request(db, mode, &mut rng)
        })
    }

    /// Timed run.
    pub fn run(&self, mode: Mode, threads: usize, duration: Duration, seed: u64) -> RunResult {
        let db = self.setup(mode);
        self.run_on(&db, mode, threads, duration, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_progress() {
        for mode in Mode::MAIN {
            let bench = Rubis::new(RubisConfig {
                users: 30,
                items: 20,
                categories: 4,
                bids: 40,
                trace: false,
            });
            let r = bench.run(mode, 2, Duration::from_millis(120), 11);
            assert!(r.committed > 0, "{mode:?} made no progress");
        }
    }

    #[test]
    fn bid_updates_item_summary() {
        let bench = Rubis::new(RubisConfig {
            users: 10,
            items: 5,
            categories: 2,
            bids: 0,
            trace: false,
        });
        let db = bench.setup(Mode::Ssi);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut txn = db.begin(pgssi_engine::IsolationLevel::Serializable);
        bench.place_bid(&mut txn, &mut rng).unwrap();
        txn.commit().unwrap();
        let mut check = db.begin(pgssi_engine::IsolationLevel::ReadCommitted);
        let total_bids: i64 = check
            .scan("items")
            .unwrap()
            .iter()
            .map(|r| r[4].as_int().unwrap())
            .sum();
        assert_eq!(total_bids, 1);
        check.commit().unwrap();
    }
}
