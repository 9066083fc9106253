//! Tables, indexes, and the catalog.
//!
//! A table is an MVCC heap plus a primary-key B+-tree and any number of
//! secondary indexes. Index entries always point at the *chain root* tuple (the
//! version originally inserted); readers walk the version chain from there, and
//! therefore must re-check the indexed columns of the version they actually see
//! (entries for superseded key values linger until vacuum).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pgssi_common::{Error, Key, RelId, Result, Row, TupleId};
use pgssi_index::{BTreeIndex, HashIndex};
use pgssi_storage::Heap;

/// Which access method an index uses (paper §7.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// B+-tree: ordered scans, page-granularity predicate (gap) locks.
    BTree,
    /// Hash: equality only, **no** predicate-lock support — serializable access
    /// falls back to a relation-level SIREAD lock.
    Hash,
}

/// Definition of a secondary index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the database.
    pub name: String,
    /// Column positions forming the key, in order.
    pub cols: Vec<usize>,
    /// Reject duplicate keys.
    pub unique: bool,
    /// Access method.
    pub kind: IndexKind,
}

/// Definition of a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Column names (positional rows; no typed schema beyond [`pgssi_common::Value`]).
    pub columns: Vec<String>,
    /// Column positions forming the primary key.
    pub pk: Vec<usize>,
    /// Secondary indexes.
    pub indexes: Vec<IndexDef>,
}

impl TableDef {
    /// Minimal definition: name, columns, primary key columns.
    pub fn new(name: impl Into<String>, columns: &[&str], pk: Vec<usize>) -> TableDef {
        TableDef {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            pk,
            indexes: Vec::new(),
        }
    }

    /// Add a secondary index (builder style).
    pub fn with_index(mut self, index: IndexDef) -> TableDef {
        self.indexes.push(index);
        self
    }
}

/// A live index: definition plus the physical structure.
pub struct IndexSlot {
    /// Definition.
    pub def: IndexDef,
    /// Physical structure.
    pub imp: IndexImpl,
}

/// Physical index implementations.
pub enum IndexImpl {
    /// See [`BTreeIndex`].
    BTree(BTreeIndex),
    /// See [`HashIndex`].
    Hash(HashIndex),
}

impl IndexSlot {
    /// The index's relation id (lock-target namespace).
    pub fn rel(&self) -> RelId {
        match &self.imp {
            IndexImpl::BTree(b) => b.rel(),
            IndexImpl::Hash(h) => h.rel(),
        }
    }

    /// Extract this index's key from a row.
    pub fn key_of(&self, row: &Row) -> Key {
        self.def.cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// Insert an entry (caller handles uniqueness and predicate-lock checks).
    pub fn insert(&self, key: Key, tid: TupleId) -> Option<pgssi_index::InsertOutcome> {
        match &self.imp {
            IndexImpl::BTree(b) => Some(b.insert(key, tid)),
            IndexImpl::Hash(h) => {
                h.insert(key, tid);
                None
            }
        }
    }

    /// Remove an entry (vacuum).
    pub fn remove(&self, key: &Key, tid: TupleId) -> bool {
        match &self.imp {
            IndexImpl::BTree(b) => b.remove(key, tid),
            IndexImpl::Hash(h) => h.remove(key, tid),
        }
    }
}

/// Everything behind a table's DDL lock: replaced wholesale by `recluster`.
pub struct TableInner {
    /// The MVCC heap.
    pub heap: Arc<Heap>,
    /// Primary-key index (unique B+-tree).
    pub pk: IndexSlot,
    /// Secondary indexes.
    pub secondaries: Vec<IndexSlot>,
    /// Definition.
    pub def: TableDef,
}

impl TableInner {
    /// Extract the primary key from a row.
    pub fn pk_of(&self, row: &Row) -> Key {
        self.pk.key_of(row)
    }

    /// Find a secondary index by name.
    pub fn secondary(&self, name: &str) -> Result<&IndexSlot> {
        self.secondaries
            .iter()
            .find(|s| s.def.name == name)
            .ok_or_else(|| Error::NoSuchIndex(name.to_string()))
    }
}

/// A table: stable identity (heap relation id) plus DDL-lockable innards.
pub struct Table {
    /// Table name.
    pub name: String,
    /// Heap relation id — stable across `recluster`.
    pub heap_rel: RelId,
    /// DDL lock: readers of the schema take `read()`, DDL takes `write()`.
    pub inner: RwLock<TableInner>,
}

/// The database catalog: name → table, plus relation-id allocation.
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    next_rel: AtomicU32,
}

impl Default for Catalog {
    /// Empty catalog; relation ids start at 1.
    fn default() -> Catalog {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            next_rel: AtomicU32::new(1),
        }
    }
}

impl Catalog {
    /// Allocate a fresh relation id.
    pub fn alloc_rel(&self) -> RelId {
        RelId(self.next_rel.fetch_add(1, Ordering::Relaxed))
    }

    fn build_index(&self, def: &IndexDef) -> IndexSlot {
        let rel = self.alloc_rel();
        let imp = match def.kind {
            IndexKind::BTree => IndexImpl::BTree(BTreeIndex::new(rel)),
            IndexKind::Hash => IndexImpl::Hash(HashIndex::new(rel)),
        };
        IndexSlot {
            def: def.clone(),
            imp,
        }
    }

    /// Create a table from its definition.
    pub fn create_table(&self, def: TableDef) -> Result<Arc<Table>> {
        for idx in &def.indexes {
            for &c in &idx.cols {
                if c >= def.columns.len() {
                    return Err(Error::Misuse(format!(
                        "index {} references column {c} out of range",
                        idx.name
                    )));
                }
            }
        }
        if def.pk.is_empty() {
            return Err(Error::Misuse(format!(
                "table {} needs a primary key",
                def.name
            )));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&def.name) {
            return Err(Error::Misuse(format!("table {} already exists", def.name)));
        }
        let heap_rel = self.alloc_rel();
        let pk = IndexSlot {
            def: IndexDef {
                name: format!("{}_pkey", def.name),
                cols: def.pk.clone(),
                unique: true,
                kind: IndexKind::BTree,
            },
            imp: IndexImpl::BTree(BTreeIndex::new(self.alloc_rel())),
        };
        let secondaries = def.indexes.iter().map(|d| self.build_index(d)).collect();
        let table = Arc::new(Table {
            name: def.name.clone(),
            heap_rel,
            inner: RwLock::new(TableInner {
                heap: Arc::new(Heap::new(heap_rel)),
                pk,
                secondaries,
                def,
            }),
        });
        tables.insert(table.name.clone(), Arc::clone(&table));
        Ok(table)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// Reverse-map a relation id (heap or any of its indexes) to the owning
    /// table's name. Relation ids are assigned in open order and shift across
    /// recoveries, so crash-safe records (2PC prepare) persist names instead.
    pub fn table_of_rel(&self, rel: RelId) -> Option<String> {
        let tables = self.tables.read();
        for t in tables.values() {
            if t.heap_rel == rel {
                return Some(t.name.clone());
            }
            let inner = t.inner.read();
            if inner.pk.rel() == rel || inner.secondaries.iter().any(|s| s.rel() == rel) {
                return Some(t.name.clone());
            }
        }
        None
    }

    /// Names of all tables (deterministic order).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::row;

    fn cat() -> Catalog {
        Catalog::default()
    }

    #[test]
    fn create_and_lookup_table() {
        let c = cat();
        let def = TableDef::new("t", &["id", "v"], vec![0]);
        let t = c.create_table(def).unwrap();
        assert_eq!(t.name, "t");
        assert!(Arc::ptr_eq(&t, &c.table("t").unwrap()));
        assert!(matches!(c.table("nope"), Err(Error::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_table_rejected() {
        let c = cat();
        c.create_table(TableDef::new("t", &["id"], vec![0]))
            .unwrap();
        assert!(c
            .create_table(TableDef::new("t", &["id"], vec![0]))
            .is_err());
    }

    #[test]
    fn pk_required_and_index_columns_validated() {
        let c = cat();
        assert!(c.create_table(TableDef::new("t", &["id"], vec![])).is_err());
        let bad = TableDef::new("t", &["id"], vec![0]).with_index(IndexDef {
            name: "i".into(),
            cols: vec![5],
            unique: false,
            kind: IndexKind::BTree,
        });
        assert!(c.create_table(bad).is_err());
    }

    #[test]
    fn key_extraction_uses_index_columns() {
        let c = cat();
        let def = TableDef::new("t", &["a", "b", "c"], vec![0]).with_index(IndexDef {
            name: "t_bc".into(),
            cols: vec![2, 1],
            unique: false,
            kind: IndexKind::BTree,
        });
        let t = c.create_table(def).unwrap();
        let inner = t.inner.read();
        let r = row![1, "x", 9];
        assert_eq!(inner.pk_of(&r), row![1]);
        assert_eq!(inner.secondary("t_bc").unwrap().key_of(&r), row![9, "x"]);
        assert!(inner.secondary("none").is_err());
    }

    #[test]
    fn rel_ids_are_distinct() {
        let c = cat();
        let t = c
            .create_table(TableDef::new("t", &["id"], vec![0]).with_index(IndexDef {
                name: "i".into(),
                cols: vec![0],
                unique: false,
                kind: IndexKind::Hash,
            }))
            .unwrap();
        let inner = t.inner.read();
        let rels = [t.heap_rel, inner.pk.rel(), inner.secondaries[0].rel()];
        assert_ne!(rels[0], rels[1]);
        assert_ne!(rels[1], rels[2]);
        assert_ne!(rels[0], rels[2]);
    }
}
