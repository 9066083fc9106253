//! The record registry: one map, `TxnId → record`, through which the manager
//! resolves a peer — an edge's other endpoint, an MVCC event's writer, a
//! read-only tracker. A record is keyed by its top-level txid, which is also
//! its id everywhere else, and by each subtransaction alias (subxids come
//! from the same never-reused counter, so no alias collides with a record's
//! own key). The map is hashed into [`REGISTRY_SHARDS`] leaf-level mutexes,
//! so a begin or a retirement without aliases touches one shard. Nothing
//! iterates the shards but [`Registry::record_count`], so the registry
//! behaves as one map, which the model test below checks.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pgssi_common::TxnId;

use crate::sxact::Sxact;

/// Shared handle to a serializable-transaction record.
pub(crate) type SxRef = Arc<Sxact>;

/// Number of registry shards. Fixed, like the SIREAD table's partition
/// count: an observatory A/B of `1` against `16` (`readmostly-ssi` 163.1k vs
/// 160.8k txn/s) sits inside run-to-run spread — 2 vCPU, re-measure on ≥ 8
/// cores.
const REGISTRY_SHARDS: usize = 16;

/// The sharded record registry.
pub(crate) struct Registry {
    shards: [Mutex<HashMap<TxnId, SxRef>>; REGISTRY_SHARDS],
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    #[inline]
    fn shard(&self, txid: TxnId) -> &Mutex<HashMap<TxnId, SxRef>> {
        &self.shards[(txid.0 as usize) % REGISTRY_SHARDS]
    }

    /// The record `txid` names: its own top-level txid or one of its aliases.
    pub(crate) fn get(&self, txid: TxnId) -> Option<SxRef> {
        self.shard(txid).lock().get(&txid).cloned()
    }

    /// Register `rec` under its own txid.
    pub(crate) fn insert(&self, rec: &SxRef) {
        self.insert_alias(rec.txid, rec);
    }

    /// Register `rec` under `txid` (its own, or a subtransaction alias).
    pub(crate) fn insert_alias(&self, txid: TxnId, rec: &SxRef) {
        self.shard(txid).lock().insert(txid, Arc::clone(rec));
    }

    /// Forget `txid` and its aliases.
    pub(crate) fn remove(&self, txid: TxnId, aliases: &[TxnId]) {
        for t in std::iter::once(&txid).chain(aliases) {
            self.shard(*t).lock().remove(t);
        }
    }

    /// Records registered, aliases not counted.
    pub(crate) fn record_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().iter().filter(|(k, r)| **k == r.txid).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::CommitSeqNo;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Insert / alias / remove sequences over 40 records (record `n` has
        /// txid `n`, aliases 100..124), checked step by step against a plain
        /// `HashMap` from txid to the owning record's txid.
        #[test]
        fn registry_behaves_as_one_map(
            ops in proptest::collection::vec((0..5u8, 0..40u64, 100..124u64), 1..200),
        ) {
            let reg = Registry::new();
            let mut model: HashMap<TxnId, TxnId> = HashMap::new();
            for (kind, id, alias) in ops {
                let (own, alias) = (TxnId(id), TxnId(alias));
                let rec = Arc::new(Sxact::new(own, CommitSeqNo(1), false, false));
                match kind {
                    0 => {
                        reg.insert(&rec);
                        model.insert(own, own);
                    }
                    1 => {
                        reg.insert_alias(alias, &rec);
                        model.insert(alias, own);
                    }
                    2 => {
                        reg.remove(own, &[alias]);
                        model.remove(&own);
                        model.remove(&alias);
                    }
                    _ => {}
                }
                for t in [own, alias] {
                    prop_assert_eq!(reg.get(t).map(|r| r.txid), model.get(&t).copied());
                }
                let records = model.iter().filter(|(k, v)| k == v).count();
                prop_assert_eq!(reg.record_count(), records);
            }
        }
    }
}
