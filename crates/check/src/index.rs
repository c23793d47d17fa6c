//! Per-model query indexes used by the binding enumerator.
//!
//! Built once per [`Checker`](crate::Checker): class extents (including
//! subtype instances) and a secondary hash index on `(attribute, value)`
//! pairs, which turns `v : Class { name = "engine" }` lookups into O(1)
//! probes instead of extent scans.
//!
//! The index also supports **point updates** (`add_obj` / `remove_obj` /
//! `update_attr`), so an incremental consumer
//! ([`DeltaChecker`](crate::DeltaChecker)) can track a model across an
//! edit script without the O(model) rebuild. Point updates keep every
//! extent and bucket iterating in the exact order a fresh
//! [`ModelIndex::build`] would produce (ids ascending), so incremental
//! and from-scratch evaluation enumerate candidates identically.
//!
//! # Storage layout (scale)
//!
//! Extents are **bitsets** over the object-id space: one word-array per
//! class, with a cached population count. A point update flips one bit
//! (O(1)) where the previous sorted-`Vec` layout memmoved half the
//! extent (O(n) — ruinous for 10⁵-object models whose every object
//! conforms to a root class). Iteration walks words and emits set bits
//! in ascending id order, which is exactly the order the old layout
//! stored explicitly.
//!
//! Attribute buckets are **hybrid sorted sets** (`IdSet`): one id
//! inline, with no heap allocation (almost all buckets — names are
//! near-unique, so a 10⁵-object model has about 10⁵ one-object
//! buckets), a sorted `Vec` from the second id, spilling into a
//! `BTreeSet` past `SPILL` entries so the handful of giant buckets
//! (e.g. a boolean attribute splitting the model in half) update in
//! O(log n) instead of O(n). Every shape iterates ascending, so the
//! representation is invisible to consumers.

use mmt_model::fx::FxHashMap;
use mmt_model::{AttrId, ClassId, Model, ObjId, Value};
use std::collections::BTreeSet;

/// Size past which an [`IdSet`] trades its sorted `Vec` for a
/// `BTreeSet`. Below this, memmove beats tree rebalancing.
const SPILL: usize = 64;

/// Query indexes for one model.
#[derive(Clone, Debug)]
pub struct ModelIndex {
    /// `extents[class]` = bitset of live objects whose class conforms
    /// to `class`.
    extents: Vec<BitExtent>,
    /// `(attr, value)` → ids of live objects with that attribute value.
    attr_index: FxHashMap<(AttrId, Value), IdSet<ObjId>>,
}

impl ModelIndex {
    /// Builds indexes for `model`.
    pub fn build(model: &Model) -> ModelIndex {
        let meta = model.metamodel();
        let n_classes = meta.class_count();
        let mut extents: Vec<BitExtent> = vec![BitExtent::new(); n_classes];
        let mut attr_index: FxHashMap<(AttrId, Value), IdSet<ObjId>> = FxHashMap::default();
        for (id, obj) in model.objects() {
            // Add to the extent of every (transitive) supertype.
            for (sup, extent) in extents.iter_mut().enumerate() {
                if meta.conforms(obj.class, ClassId(sup as u32)) {
                    extent.insert(id);
                }
            }
            let class = meta.class(obj.class);
            for (slot, &attr) in class.all_attrs.iter().enumerate() {
                attr_index
                    .entry((attr, obj.attrs[slot]))
                    .or_default()
                    .insert(id);
            }
        }
        ModelIndex {
            extents,
            attr_index,
        }
    }

    /// Number of objects conforming to `class`. O(1).
    pub fn extent_len(&self, class: ClassId) -> usize {
        self.extents[class.index()].len
    }

    /// Objects conforming to `class`, ascending.
    pub fn extent_iter(&self, class: ClassId) -> impl Iterator<Item = ObjId> + '_ {
        self.extents[class.index()].iter()
    }

    /// Number of objects whose `attr` equals `value`. O(1).
    pub fn by_attr_len(&self, attr: AttrId, value: Value) -> usize {
        self.attr_index
            .get(&(attr, value))
            .map(IdSet::len)
            .unwrap_or(0)
    }

    /// Objects whose `attr` equals `value`, ascending.
    pub fn by_attr_iter(&self, attr: AttrId, value: Value) -> impl Iterator<Item = ObjId> + '_ {
        self.attr_index
            .get(&(attr, value))
            .map(IdSet::iter)
            .unwrap_or(IdSetIter::One(None))
    }

    /// Point update: registers the object at `id` (call *after* it was
    /// added to `model`). O(classes + attrs · log n) instead of an
    /// O(model) rebuild.
    pub fn add_obj(&mut self, model: &Model, id: ObjId) {
        let obj = model.get(id).expect("added object is live");
        let meta = model.metamodel();
        for (sup, extent) in self.extents.iter_mut().enumerate() {
            if meta.conforms(obj.class, ClassId(sup as u32)) {
                extent.insert(id);
            }
        }
        let class = meta.class(obj.class);
        for (slot, &attr) in class.all_attrs.iter().enumerate() {
            self.attr_index
                .entry((attr, obj.attrs[slot]))
                .or_default()
                .insert(id);
        }
    }

    /// Point update: unregisters the object at `id` (call *before*
    /// deleting it from `model` — the entry's attribute values are read
    /// from the live object).
    pub fn remove_obj(&mut self, model: &Model, id: ObjId) {
        let obj = model.get(id).expect("object is live until deleted");
        let meta = model.metamodel();
        for (sup, extent) in self.extents.iter_mut().enumerate() {
            if meta.conforms(obj.class, ClassId(sup as u32)) {
                extent.remove(id);
            }
        }
        let class = meta.class(obj.class);
        for (slot, &attr) in class.all_attrs.iter().enumerate() {
            if let Some(bucket) = self.attr_index.get_mut(&(attr, obj.attrs[slot])) {
                bucket.remove(id);
                if bucket.is_empty() {
                    self.attr_index.remove(&(attr, obj.attrs[slot]));
                }
            }
        }
    }

    /// Point update: re-keys one attribute slot of `id` from `old` to
    /// `new` (extents are untouched). No-op when the values are equal.
    pub fn update_attr(&mut self, id: ObjId, attr: AttrId, old: Value, new: Value) {
        if old == new {
            return;
        }
        if let Some(bucket) = self.attr_index.get_mut(&(attr, old)) {
            bucket.remove(id);
            if bucket.is_empty() {
                self.attr_index.remove(&(attr, old));
            }
        }
        self.attr_index.entry((attr, new)).or_default().insert(id);
    }
}

/// One class extent: a bitset over the object-id space plus a cached
/// population count. Insert/remove flip a bit in O(1); iteration emits
/// set bits ascending.
#[derive(Clone, Debug, Default)]
struct BitExtent {
    words: Vec<u64>,
    len: usize,
}

impl BitExtent {
    fn new() -> BitExtent {
        BitExtent::default()
    }

    fn insert(&mut self, id: ObjId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
        }
    }

    fn remove(&mut self, id: ObjId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if let Some(word) = self.words.get_mut(w) {
            let mask = 1u64 << b;
            if *word & mask != 0 {
                *word &= !mask;
                self.len -= 1;
            }
        }
    }

    fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
            remaining: self.len,
        }
    }
}

/// Ascending iterator over the set bits of a [`BitExtent`]. Exact-sized
/// (from the cached population count) so `collect` allocates once.
struct BitIter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
    remaining: usize,
}

impl Iterator for BitIter<'_> {
    type Item = ObjId;

    fn next(&mut self) -> Option<ObjId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(ObjId(self.word as u32 * 64 + bit))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitIter<'_> {}

/// A sorted set of ids, shaped for the common case of one member: the
/// first is kept inline, and the heap is used only from the second — a
/// sorted `Vec` up to [`SPILL`] members, a `BTreeSet` past it. An
/// attribute bucket here (names are near-unique, so almost every bucket
/// holds one object) and a match-state bucket of the
/// [`DeltaChecker`](crate::DeltaChecker) (most objects are bound by one
/// match) are both one. A set keeps its `Vec` while it has a member, and
/// its tree for good (hysteresis — a bucket oscillating around a
/// threshold would otherwise thrash); an emptied set takes its next
/// member inline. Every shape iterates ascending, so the representation
/// is invisible to consumers.
#[derive(Clone, Debug)]
pub(crate) enum IdSet<T> {
    /// Exactly one member, inline.
    One(T),
    /// No member, or two up to [`SPILL`] members, ascending.
    Few(Vec<T>),
    /// More than [`SPILL`] members. Boxed so that the set stays three
    /// words (24 bytes, not 32): the maps holding a bucket per object
    /// have about 10⁵ entries at 10⁵ objects, and only a bucket past
    /// `SPILL` pays the box's allocation.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeSet<T>>),
}

impl<T> Default for IdSet<T> {
    fn default() -> IdSet<T> {
        IdSet::Few(Vec::new())
    }
}

impl<T: Copy + Ord> IdSet<T> {
    /// The set of `ids`, which come ascending and once each, allocated
    /// at its final size.
    pub(crate) fn from_sorted(mut ids: impl ExactSizeIterator<Item = T>) -> IdSet<T> {
        match ids.len() {
            1 => IdSet::One(ids.next().expect("one id")),
            n if n <= SPILL => IdSet::Few(ids.collect()),
            _ => IdSet::Many(Box::new(ids.collect())),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            IdSet::One(_) => 1,
            IdSet::Few(v) => v.len(),
            IdSet::Many(s) => s.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `id`; a no-op when it is a member already.
    pub(crate) fn insert(&mut self, id: T) {
        match self {
            IdSet::One(first) => {
                if *first != id {
                    // The `Vec`'s first growth step, as a push would take.
                    let mut v = Vec::with_capacity(4);
                    v.extend([id.min(*first), id.max(*first)]);
                    *self = IdSet::Few(v);
                }
            }
            IdSet::Few(v) if v.is_empty() => *self = IdSet::One(id),
            IdSet::Few(v) => {
                if let Err(pos) = v.binary_search(&id) {
                    v.insert(pos, id);
                    if v.len() > SPILL {
                        *self = IdSet::Many(Box::new(v.iter().copied().collect()));
                    }
                }
            }
            IdSet::Many(s) => {
                s.insert(id);
            }
        }
    }

    /// Removes `id`; a no-op when it is not a member.
    pub(crate) fn remove(&mut self, id: T) {
        match self {
            IdSet::One(only) => {
                if *only == id {
                    *self = IdSet::default();
                }
            }
            IdSet::Few(v) => {
                if let Ok(pos) = v.binary_search(&id) {
                    v.remove(pos);
                }
            }
            IdSet::Many(s) => {
                s.remove(&id);
            }
        }
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> IdSetIter<'_, T> {
        match self {
            IdSet::One(only) => IdSetIter::One(Some(*only)),
            IdSet::Few(v) => IdSetIter::Few(v.iter()),
            IdSet::Many(s) => IdSetIter::Many(s.iter()),
        }
    }
}

/// Ascending iterator over an [`IdSet`] (or nothing, for absent
/// buckets).
pub(crate) enum IdSetIter<'a, T> {
    One(Option<T>),
    Few(std::slice::Iter<'a, T>),
    Many(std::collections::btree_set::Iter<'a, T>),
}

impl<T: Copy> Iterator for IdSetIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            IdSetIter::One(only) => only.take(),
            IdSetIter::Few(it) => it.next().copied(),
            IdSetIter::Many(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IdSetIter::One(only) => {
                let n = usize::from(only.is_some());
                (n, Some(n))
            }
            IdSetIter::Few(it) => it.size_hint(),
            IdSetIter::Many(it) => it.size_hint(),
        }
    }
}

impl<T: Copy> ExactSizeIterator for IdSetIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::Metamodel;
    use std::sync::Arc;

    #[test]
    fn extents_and_attr_lookup() {
        let mm = parse_metamodel(
            "metamodel X { abstract class Named { attr name: Str; } class A extends Named { } class B extends Named { } }",
        )
        .unwrap();
        let m = parse_model(
            r#"model m : X {
                a1 = A { name = "x" }
                a2 = A { name = "y" }
                b1 = B { name = "x" }
            }"#,
            &mm,
        )
        .unwrap();
        let idx = ModelIndex::build(&m);
        let named = mm.class_named("Named").unwrap();
        let a = mm.class_named("A").unwrap();
        assert_eq!(idx.extent_len(named), 3);
        assert_eq!(idx.extent_len(a), 2);
        assert_eq!(idx.extent_iter(named).count(), 3);
        assert_eq!(
            idx.extent_iter(a).collect::<Vec<_>>(),
            vec![ObjId(0), ObjId(1)]
        );
        let name_attr = mm.attr_of(named, mmt_model::Sym::new("name")).unwrap();
        assert_eq!(idx.by_attr_len(name_attr, Value::str("x")), 2);
        assert_eq!(
            idx.by_attr_iter(name_attr, Value::str("x"))
                .collect::<Vec<_>>(),
            vec![ObjId(0), ObjId(2)]
        );
        assert_eq!(idx.by_attr_len(name_attr, Value::str("zz")), 0);
        assert_eq!(idx.by_attr_iter(name_attr, Value::str("zz")).count(), 0);
    }

    /// Point updates observe exactly what a fresh build would.
    #[test]
    fn point_updates_match_rebuild() {
        let mm = parse_metamodel(
            "metamodel X { abstract class Named { attr name: Str; } class A extends Named { } class B extends Named { } }",
        )
        .unwrap();
        let mut m = parse_model(
            r#"model m : X {
                a1 = A { name = "x" }
                a2 = A { name = "y" }
                b1 = B { name = "x" }
            }"#,
            &mm,
        )
        .unwrap();
        let mut idx = ModelIndex::build(&m);
        let named = mm.class_named("Named").unwrap();
        let a = mm.class_named("A").unwrap();
        let name_attr = mm.attr_of(named, mmt_model::Sym::new("name")).unwrap();

        // Add an object.
        let fresh = m.add(a).unwrap();
        m.set_attr(fresh, name_attr, Value::str("x")).unwrap();
        // add_obj reads the live slots, so indexing after the set is
        // equivalent to add_obj + update_attr.
        idx.add_obj(&m, fresh);
        // Rename a2: y -> x.
        let a2 = ObjId(1);
        idx.update_attr(a2, name_attr, Value::str("y"), Value::str("x"));
        m.set_attr(a2, name_attr, Value::str("x")).unwrap();
        // Delete b1.
        let b1 = ObjId(2);
        idx.remove_obj(&m, b1);
        m.delete(b1).unwrap();

        let rebuilt = ModelIndex::build(&m);
        for class in [named, a] {
            assert_eq!(
                idx.extent_iter(class).collect::<Vec<_>>(),
                rebuilt.extent_iter(class).collect::<Vec<_>>()
            );
        }
        for val in ["x", "y", "zz"] {
            assert_eq!(
                idx.by_attr_iter(name_attr, Value::str(val))
                    .collect::<Vec<_>>(),
                rebuilt
                    .by_attr_iter(name_attr, Value::str(val))
                    .collect::<Vec<_>>(),
                "value {val}"
            );
        }
    }

    fn observations(idx: &ModelIndex, mm: &Arc<Metamodel>, n: u32) -> Vec<Vec<ObjId>> {
        let named = mm.class_named("Named").unwrap();
        let a = mm.class_named("A").unwrap();
        let b = mm.class_named("B").unwrap();
        let name_attr = mm.attr_of(named, mmt_model::Sym::new("name")).unwrap();
        let mut out: Vec<Vec<ObjId>> = [named, a, b]
            .into_iter()
            .map(|c| {
                assert_eq!(idx.extent_iter(c).count(), idx.extent_len(c));
                idx.extent_iter(c).collect()
            })
            .collect();
        for v in 0..n {
            let val = Value::str(&format!("v{}", v % 7));
            assert_eq!(
                idx.by_attr_iter(name_attr, val).count(),
                idx.by_attr_len(name_attr, val)
            );
            out.push(idx.by_attr_iter(name_attr, val).collect());
        }
        out
    }

    /// Randomized add/rename/delete script, point-updated index ≡
    /// rebuilt index after every step — driven well past the bucket
    /// [`SPILL`] threshold and through a tombstone-heavy deletion wave
    /// (delete ~90%, then re-add), so both `IdSet` representations and
    /// sparse bitsets are exercised.
    #[test]
    fn point_updates_match_rebuild_randomized_tombstone_heavy() {
        let mm = parse_metamodel(
            "metamodel X { abstract class Named { attr name: Str; } class A extends Named { } class B extends Named { } }",
        )
        .unwrap();
        let named = mm.class_named("Named").unwrap();
        let name_attr = mm.attr_of(named, mmt_model::Sym::new("name")).unwrap();
        let a = mm.class_named("A").unwrap();
        let b = mm.class_named("B").unwrap();
        let mut m = mmt_model::Model::new("m", Arc::clone(&mm));
        let mut idx = ModelIndex::build(&m);
        let mut live: Vec<ObjId> = Vec::new();
        // Deterministic LCG — no external RNG dependency needed here.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let step = |m: &mut mmt_model::Model,
                    idx: &mut ModelIndex,
                    live: &mut Vec<ObjId>,
                    op: u64,
                    r: u64| {
            match op {
                // Add (the common case — drives buckets past SPILL).
                0..=4 => {
                    let class = if r.is_multiple_of(2) { a } else { b };
                    let id = m.add(class).unwrap();
                    let val = Value::str(&format!("v{}", r % 7));
                    m.set_attr(id, name_attr, val).unwrap();
                    idx.add_obj(m, id);
                    live.push(id);
                }
                // Rename.
                5..=6 if !live.is_empty() => {
                    let id = live[(r % live.len() as u64) as usize];
                    let old = m.attr(id, name_attr).unwrap();
                    let new = Value::str(&format!("v{}", (r / 7) % 7));
                    idx.update_attr(id, name_attr, old, new);
                    m.set_attr(id, name_attr, new).unwrap();
                }
                // Delete (leaves a tombstone in the model arena).
                _ if !live.is_empty() => {
                    let pos = (r % live.len() as u64) as usize;
                    let id = live.swap_remove(pos);
                    idx.remove_obj(m, id);
                    m.delete(id).unwrap();
                }
                _ => {}
            }
        };
        for _ in 0..300 {
            let (op, r) = (rng(10), rng(u64::MAX));
            step(&mut m, &mut idx, &mut live, op, r);
        }
        let rebuilt = ModelIndex::build(&m);
        assert_eq!(observations(&idx, &mm, 7), observations(&rebuilt, &mm, 7));
        // Tombstone wave: delete ~90% of what's live, verify, re-add.
        let keep = live.len() / 10;
        while live.len() > keep {
            let r = rng(u64::MAX);
            step(&mut m, &mut idx, &mut live, 9, r);
        }
        let rebuilt = ModelIndex::build(&m);
        assert_eq!(observations(&idx, &mm, 7), observations(&rebuilt, &mm, 7));
        for _ in 0..100 {
            let r = rng(u64::MAX);
            step(&mut m, &mut idx, &mut live, rng(10), r);
        }
        let rebuilt = ModelIndex::build(&m);
        assert_eq!(observations(&idx, &mm, 7), observations(&rebuilt, &mm, 7));
    }
}
