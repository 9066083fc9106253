//! The record registry: `SxactId → record` and `TxnId → record`
//! (subtransaction aliases included), through which the manager resolves a
//! peer — an edge's other endpoint, an MVCC event's writer, a read-only
//! tracker. Each map is hashed into [`REGISTRY_SHARDS`] leaf-level mutexes.
//! Nothing iterates the shards but [`Registry::record_count`], so the
//! registry behaves as one map, which the model test below checks.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pgssi_common::TxnId;

use crate::sxact::{Sxact, SxactId};

/// Shared handle to a serializable-transaction record.
pub(crate) type SxRef = Arc<Sxact>;

/// Number of shards per registry map. Fixed, like the SIREAD table's
/// partition count: an observatory A/B of `1` against `16` (`readmostly-ssi`
/// 163.1k vs 160.8k txn/s) sits inside run-to-run spread — 2 vCPU,
/// re-measure on ≥ 8 cores.
const REGISTRY_SHARDS: usize = 16;

type Shard<K> = Mutex<HashMap<K, SxRef>>;

/// The sharded record registry.
pub(crate) struct Registry {
    by_id: [Shard<u64>; REGISTRY_SHARDS],
    by_txid: [Shard<TxnId>; REGISTRY_SHARDS],
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            by_id: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            by_txid: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    #[inline]
    fn id_shard(&self, id: SxactId) -> &Shard<u64> {
        &self.by_id[(id.0 as usize) % REGISTRY_SHARDS]
    }

    #[inline]
    fn txid_shard(&self, txid: TxnId) -> &Shard<TxnId> {
        &self.by_txid[(txid.0 as usize) % REGISTRY_SHARDS]
    }

    pub(crate) fn get(&self, id: SxactId) -> Option<SxRef> {
        self.id_shard(id).lock().get(&id.0).cloned()
    }

    pub(crate) fn get_txid(&self, txid: TxnId) -> Option<SxRef> {
        self.txid_shard(txid).lock().get(&txid).cloned()
    }

    pub(crate) fn insert(&self, rec: &SxRef) {
        self.id_shard(rec.id)
            .lock()
            .insert(rec.id.0, Arc::clone(rec));
        self.insert_txid(rec.txid, rec);
    }

    pub(crate) fn insert_txid(&self, txid: TxnId, rec: &SxRef) {
        self.txid_shard(txid).lock().insert(txid, Arc::clone(rec));
    }

    pub(crate) fn remove(&self, id: SxactId, txid: TxnId, aliases: &[TxnId]) {
        self.id_shard(id).lock().remove(&id.0);
        self.txid_shard(txid).lock().remove(&txid);
        for a in aliases {
            self.txid_shard(*a).lock().remove(a);
        }
    }

    pub(crate) fn record_count(&self) -> usize {
        self.by_id.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::CommitSeqNo;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Insert / alias / remove sequences over 40 records (txid `n` for record
        /// `n`, aliases 100..124), checked step by step against plain `HashMap`s.
        #[test]
        fn registry_behaves_as_one_map(
            ops in proptest::collection::vec((0..5u8, 0..40u64, 100..124u64), 1..200),
        ) {
            let reg = Registry::new();
            let mut by_id: HashMap<u64, u64> = HashMap::new();
            let mut by_txid: HashMap<TxnId, u64> = HashMap::new();
            for (kind, id, alias) in ops {
                let (own, alias) = (TxnId(id), TxnId(alias));
                let rec = Arc::new(Sxact::new(SxactId(id), own, CommitSeqNo(1), false, false));
                match kind {
                    0 => {
                        reg.insert(&rec);
                        by_id.insert(id, id);
                        by_txid.insert(own, id);
                    }
                    1 => {
                        reg.insert_txid(alias, &rec);
                        by_txid.insert(alias, id);
                    }
                    2 => {
                        reg.remove(SxactId(id), own, &[alias]);
                        by_id.remove(&id);
                        by_txid.remove(&own);
                        by_txid.remove(&alias);
                    }
                    _ => {}
                }
                prop_assert_eq!(reg.get(SxactId(id)).map(|r| r.id.0), by_id.get(&id).copied());
                for t in [own, alias] {
                    prop_assert_eq!(reg.get_txid(t).map(|r| r.id.0), by_txid.get(&t).copied());
                }
                prop_assert_eq!(reg.record_count(), by_id.len());
            }
        }
    }
}
