//! Typed row values and keys.
//!
//! Rows are flat tuples of [`Value`]s; index keys are projections of row columns
//! (the same [`Row`] type, compared lexicographically), which is enough to express
//! composite keys like TPC-C's `(w_id, d_id, o_id)` without a full type system.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Chain, Take};
use std::ops::{Deref, DerefMut};
use std::{array, vec};

/// A single column value.
///
/// The variant order defines cross-type ordering (`Null < Bool < Int < Text`), but
/// well-formed schemas never compare values of different types; the cross-type rule
/// only exists so that `Key` can implement `Ord` totally.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL. Sorts before everything, equal to itself (index semantics, not SQL
    /// three-valued logic; the engine does not implement `NULL != NULL`).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Returns the integer payload, or `None` for other variants.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, or `None` for other variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the text payload, or `None` for other variants.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Text(_) => 3,
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// How many values a [`Row`] holds without a heap allocation. Four covers
/// every key in the workspace (the widest, DBT-2's `order_line` primary key and
/// `orders_by_customer`, have four columns) and every two-column SIBENCH row.
pub const INLINE_VALUES: usize = 4;

/// A stored row: a flat tuple of column values.
///
/// Up to [`INLINE_VALUES`] values live inline, so building, cloning and
/// dropping a short row or key never touches the allocator; a longer one
/// spills to a `Vec`. The representation is invisible: a `Row` derefs to
/// `[Value]`, and equality, ordering, hashing and `Debug` are exactly those of
/// the slice (and therefore of `Vec<Value>`).
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` live values, then `Value::Null` padding (which owns nothing).
    Inline(u8, [Value; INLINE_VALUES]),
    Heap(Vec<Value>),
}

const NULLS: [Value; INLINE_VALUES] = [Value::Null, Value::Null, Value::Null, Value::Null];

/// An index key: an ordered projection of row columns, compared lexicographically.
pub type Key = Row;

impl Row {
    /// An empty row (no allocation).
    pub const fn new() -> Row {
        Row(Repr::Inline(0, NULLS))
    }

    /// An empty row with room for `n` values; allocates only if `n` exceeds
    /// [`INLINE_VALUES`].
    pub fn with_capacity(n: usize) -> Row {
        if n <= INLINE_VALUES {
            Row::new()
        } else {
            Row(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// Append a value, spilling to the heap when the inline slots are full.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            Repr::Inline(len, vals) if (*len as usize) < INLINE_VALUES => {
                vals[*len as usize] = v;
                *len += 1;
            }
            Repr::Inline(_, vals) => {
                let mut heap = Vec::with_capacity(2 * INLINE_VALUES);
                heap.extend(std::mem::replace(vals, NULLS));
                heap.push(v);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(v),
        }
    }
}

impl Default for Row {
    fn default() -> Row {
        Row::new()
    }
}

impl Deref for Row {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline(len, vals) => &vals[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Row {
    fn deref_mut(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline(len, vals) => &mut vals[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        **self == **other
    }
}

impl Eq for Row {}

impl Ord for Row {
    fn cmp(&self, other: &Row) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Row {
        let iter = iter.into_iter();
        let mut row = Row::with_capacity(iter.size_hint().0);
        for v in iter {
            row.push(v);
        }
        row
    }
}

impl From<Vec<Value>> for Row {
    fn from(vals: Vec<Value>) -> Row {
        if vals.len() <= INLINE_VALUES {
            vals.into_iter().collect()
        } else {
            Row(Repr::Heap(vals))
        }
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(vals: [Value; N]) -> Row {
        vals.into_iter().collect()
    }
}

impl IntoIterator for Row {
    type Item = Value;
    /// The inline values, then the spilled ones; one side is always empty.
    type IntoIter = Chain<Take<array::IntoIter<Value, INLINE_VALUES>>, vec::IntoIter<Value>>;

    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            Repr::Inline(len, vals) => vals.into_iter().take(len as usize).chain(Vec::new()),
            Repr::Heap(heap) => NULLS.into_iter().take(0).chain(heap),
        }
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Build a [`Row`] (or [`Key`]) from anything convertible to [`Value`].
///
/// ```
/// use pgssi_common::{row, Value};
/// let r = row![1, "alice", true];
/// assert_eq!(r[1], Value::text("alice"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_type_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::text("a") < Value::text("b"));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn cross_type_ordering_is_total() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::text("x"),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn composite_key_ordering_is_lexicographic() {
        let a: Key = row![1, 10];
        let b: Key = row![1, 11];
        let c: Key = row![2, 0];
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::text("hi").as_text(), Some("hi"));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Int(7).as_text(), None);
    }

    #[test]
    fn inline_row_is_its_values_plus_a_word() {
        let values = INLINE_VALUES * std::mem::size_of::<Value>();
        assert!(std::mem::size_of::<Row>() <= values + 8);
    }

    #[test]
    fn row_macro_builds_values() {
        let r = row![42, "name", false];
        assert_eq!(
            *r,
            [Value::Int(42), Value::text("name"), Value::Bool(false)]
        );
    }
}
