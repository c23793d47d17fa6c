//! Models: typed object graphs conforming to a [`Metamodel`].
//!
//! Objects are addressed by stable [`ObjId`]s. Deleting an object leaves a
//! tombstone so ids are never reused; this keeps diffs between a model and
//! its edited copies well-defined (the enforcement engines rely on it).

use crate::fx::FxHashMap;
use crate::intern::Sym;
use crate::meta::{AttrId, ClassId, Metamodel, RefId};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifier of an object within one model. Stable across edits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Index into the model's object table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A live object: its class, attribute slots and reference slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Object {
    /// Instantiated class (always concrete).
    pub class: ClassId,
    /// Attribute values, indexed by the class's slot layout.
    pub attrs: Box<[Value]>,
    /// Reference targets, indexed by the class's slot layout. Order within
    /// a slot is not semantically significant; the model keeps each slot
    /// sorted so graph equality is order-insensitive.
    pub refs: Box<[Vec<ObjId>]>,
}

/// Errors raised by model mutation and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Object id does not exist or has been deleted.
    NoSuchObject(ObjId),
    /// The class is abstract and cannot be instantiated.
    AbstractClass(String),
    /// The property is not declared on the object's class.
    NoSuchProperty {
        /// The class name.
        class: String,
        /// The missing property name.
        name: String,
    },
    /// The value's type does not match the attribute's declared type.
    TypeMismatch {
        /// Attribute name.
        attr: String,
        /// Declared type name.
        expected: &'static str,
        /// Provided type name.
        got: &'static str,
    },
    /// A link target does not conform to the reference's target class.
    BadLinkTarget {
        /// Reference name.
        reference: String,
        /// Offending target.
        target: ObjId,
    },
    /// The two models belong to different metamodels.
    MetamodelMismatch,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoSuchObject(o) => write!(f, "no such object {o}"),
            ModelError::AbstractClass(c) => write!(f, "class `{c}` is abstract"),
            ModelError::NoSuchProperty { class, name } => {
                write!(f, "class `{class}` has no property `{name}`")
            }
            ModelError::TypeMismatch {
                attr,
                expected,
                got,
            } => write!(f, "attribute `{attr}` expects {expected}, got {got}"),
            ModelError::BadLinkTarget { reference, target } => {
                write!(f, "reference `{reference}`: target {target} has wrong type")
            }
            ModelError::MetamodelMismatch => f.write_str("metamodel mismatch"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A model: a named, typed object graph.
///
/// Besides the forward object table, the model maintains an **inverse
/// link index** (`incoming`): for every object that is the target of at
/// least one link, the sorted list of `(source, reference)` pairs
/// pointing at it. This makes [`Model::delete`] — which must scrub every
/// incoming link — O(degree) instead of O(model), and lets incremental
/// consumers ([`Model::incoming`]) discover a deletion's blast radius
/// without scanning the object table. The index is derived state: it is
/// maintained by every link mutation and ignored by [`Model::graph_eq`].
#[derive(Clone, Debug)]
pub struct Model {
    /// Model name (e.g. the file stem or the QVT-R domain name it binds to).
    pub name: Sym,
    meta: Arc<Metamodel>,
    objs: Vec<Option<Object>>,
    live: usize,
    /// `incoming[dst]` = sorted `(src, ref)` pairs with `dst ∈
    /// src.refs[ref]`. Sparse: objects with no incoming links carry no
    /// entry, so ref-less metamodels pay nothing. Behind [`Arc`] with
    /// copy-on-write semantics: cloning a model — forking a session's
    /// checker as a repair root, or snapshotting a tuple — shares the
    /// index, and only the first link-mutating edit on the copy
    /// ([`Model::add_link`], [`Model::remove_link`], [`Model::delete`])
    /// pays for the deep copy.
    incoming: Arc<FxHashMap<ObjId, Vec<(ObjId, RefId)>>>,
}

impl Model {
    /// Creates an empty model named `name` conforming to `meta`.
    pub fn new(name: &str, meta: Arc<Metamodel>) -> Model {
        Model::with_capacity(name, meta, 0)
    }

    /// As [`Model::new`], with the object table pre-sized for `capacity`
    /// objects — builders that know the final size up front (generators,
    /// snapshot loaders) avoid the O(log n) re-allocations of organic
    /// growth.
    pub fn with_capacity(name: &str, meta: Arc<Metamodel>, capacity: usize) -> Model {
        Model {
            name: Sym::new(name),
            meta,
            objs: Vec::with_capacity(capacity),
            live: 0,
            incoming: Arc::default(),
        }
    }

    /// Pre-sizes the object table for `additional` more objects.
    pub fn reserve(&mut self, additional: usize) {
        self.objs.reserve(additional);
    }

    /// The metamodel this model conforms to.
    pub fn metamodel(&self) -> &Arc<Metamodel> {
        &self.meta
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the model has no live objects.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total id-space size (live + tombstones); ids are `0..id_bound()`.
    pub fn id_bound(&self) -> usize {
        self.objs.len()
    }

    /// Creates an object of concrete class `class` with default attributes.
    pub fn add(&mut self, class: ClassId) -> Result<ObjId, ModelError> {
        let c = self.meta.class(class);
        if c.is_abstract {
            return Err(ModelError::AbstractClass(c.name.resolve()));
        }
        let id = ObjId(self.objs.len() as u32);
        let n_refs = c.all_refs.len();
        self.objs.push(Some(Object {
            class,
            attrs: self.meta.default_attrs(class),
            refs: vec![Vec::new(); n_refs].into_boxed_slice(),
        }));
        self.live += 1;
        Ok(id)
    }

    /// Creates an object of class `class` at a specific id, padding the id
    /// space with tombstones as needed. Errors when the id is already live.
    ///
    /// Used to replay deltas deterministically
    /// (`mmt_dist::Delta::apply`): ids in a delta refer to the edited
    /// copy's id space, which may contain gaps.
    pub fn add_at(&mut self, id: ObjId, class: ClassId) -> Result<(), ModelError> {
        let c = self.meta.class(class);
        if c.is_abstract {
            return Err(ModelError::AbstractClass(c.name.resolve()));
        }
        if self.contains(id) {
            return Err(ModelError::NoSuchObject(id)); // occupied: cannot re-add
        }
        if id.index() >= self.objs.len() {
            self.objs.resize(id.index() + 1, None);
        }
        let n_refs = c.all_refs.len();
        self.objs[id.index()] = Some(Object {
            class,
            attrs: self.meta.default_attrs(class),
            refs: vec![Vec::new(); n_refs].into_boxed_slice(),
        });
        self.live += 1;
        Ok(())
    }

    /// Drops trailing tombstones until [`Model::id_bound`] is `bound`,
    /// stopping early at a live object (which is never dropped).
    ///
    /// Undo of an `add_at` past the id bound needs this: deleting the
    /// object again leaves it, and the padding before it, as tombstones,
    /// so the next [`Model::add`] (or any id minted from `id_bound()`)
    /// would land elsewhere than before the edit.
    pub fn truncate_tombstones(&mut self, bound: usize) {
        while self.objs.len() > bound && matches!(self.objs.last(), Some(None)) {
            self.objs.pop();
        }
    }

    /// Deletes `obj` and removes every link that targets it.
    ///
    /// O(degree): incoming links are found through the inverse index and
    /// outgoing links unregister themselves from it — no object-table
    /// scan.
    pub fn delete(&mut self, obj: ObjId) -> Result<(), ModelError> {
        if self.get(obj).is_none() {
            return Err(ModelError::NoSuchObject(obj));
        }
        // Scrub incoming links: only the recorded sources are touched.
        // (`contains_key` first: don't copy-on-write a shared index when
        // the object has no incoming links.)
        let sources = if self.incoming.contains_key(&obj) {
            Arc::make_mut(&mut self.incoming).remove(&obj)
        } else {
            None
        };
        if let Some(sources) = sources {
            for (src, r) in sources {
                let o = self.objs[src.index()]
                    .as_mut()
                    .expect("link source is live");
                let slot = self
                    .meta
                    .ref_slot(o.class, r)
                    .expect("indexed link reads a declared reference");
                if let Ok(pos) = o.refs[slot].binary_search(&obj) {
                    o.refs[slot].remove(pos);
                }
            }
        }
        // Unregister the object's own outgoing links from the index.
        let meta = Arc::clone(&self.meta);
        let o = self.objs[obj.index()].take().expect("checked live above");
        self.live -= 1;
        for (slot, &r) in meta.class(o.class).all_refs.iter().enumerate() {
            for &dst in &o.refs[slot] {
                self.unindex_link(obj, r, dst);
            }
        }
        Ok(())
    }

    /// Sorted `(source, reference)` pairs of every link targeting `obj`
    /// (empty for unknown or link-free objects). O(1) lookup — the
    /// inverse of [`Model::targets`].
    pub fn incoming(&self, obj: ObjId) -> &[(ObjId, RefId)] {
        self.incoming.get(&obj).map(Vec::as_slice).unwrap_or(&[])
    }

    fn index_link(&mut self, src: ObjId, r: RefId, dst: ObjId) {
        let entry = Arc::make_mut(&mut self.incoming).entry(dst).or_default();
        if let Err(pos) = entry.binary_search(&(src, r)) {
            entry.insert(pos, (src, r));
        }
    }

    fn unindex_link(&mut self, src: ObjId, r: RefId, dst: ObjId) {
        if !self.incoming.contains_key(&dst) {
            return; // don't copy-on-write a shared index for a no-op
        }
        let incoming = Arc::make_mut(&mut self.incoming);
        if let Some(entry) = incoming.get_mut(&dst) {
            if let Ok(pos) = entry.binary_search(&(src, r)) {
                entry.remove(pos);
            }
            if entry.is_empty() {
                incoming.remove(&dst);
            }
        }
    }

    /// Returns the object behind `obj`, if live.
    pub fn get(&self, obj: ObjId) -> Option<&Object> {
        self.objs.get(obj.index()).and_then(Option::as_ref)
    }

    /// True iff `obj` is a live object.
    pub fn contains(&self, obj: ObjId) -> bool {
        self.get(obj).is_some()
    }

    /// The class of `obj`.
    pub fn class_of(&self, obj: ObjId) -> Result<ClassId, ModelError> {
        self.get(obj)
            .map(|o| o.class)
            .ok_or(ModelError::NoSuchObject(obj))
    }

    fn obj_mut(&mut self, obj: ObjId) -> Result<&mut Object, ModelError> {
        self.objs
            .get_mut(obj.index())
            .and_then(Option::as_mut)
            .ok_or(ModelError::NoSuchObject(obj))
    }

    /// Sets attribute `attr` of `obj` to `value`, checking types.
    pub fn set_attr(&mut self, obj: ObjId, attr: AttrId, value: Value) -> Result<(), ModelError> {
        let meta = Arc::clone(&self.meta);
        let o = self.obj_mut(obj)?;
        let decl = meta.attr(attr);
        let slot = meta
            .attr_slot(o.class, attr)
            .ok_or_else(|| ModelError::NoSuchProperty {
                class: meta.class(o.class).name.resolve(),
                name: decl.name.resolve(),
            })?;
        if value.ty() != decl.ty {
            return Err(ModelError::TypeMismatch {
                attr: decl.name.resolve(),
                expected: decl.ty.name(),
                got: value.ty().name(),
            });
        }
        o.attrs[slot] = value;
        Ok(())
    }

    /// Sets attribute named `name` of `obj` (resolving through inheritance).
    pub fn set_attr_named(
        &mut self,
        obj: ObjId,
        name: &str,
        value: Value,
    ) -> Result<(), ModelError> {
        let class = self.class_of(obj)?;
        let attr =
            self.meta
                .attr_of(class, Sym::new(name))
                .ok_or_else(|| ModelError::NoSuchProperty {
                    class: self.meta.class(class).name.resolve(),
                    name: name.to_owned(),
                })?;
        self.set_attr(obj, attr, value)
    }

    /// Reads attribute `attr` of `obj`.
    pub fn attr(&self, obj: ObjId, attr: AttrId) -> Result<Value, ModelError> {
        let o = self.get(obj).ok_or(ModelError::NoSuchObject(obj))?;
        let slot =
            self.meta
                .attr_slot(o.class, attr)
                .ok_or_else(|| ModelError::NoSuchProperty {
                    class: self.meta.class(o.class).name.resolve(),
                    name: self.meta.attr(attr).name.resolve(),
                })?;
        Ok(o.attrs[slot])
    }

    /// Reads attribute named `name` of `obj`.
    pub fn attr_named(&self, obj: ObjId, name: &str) -> Result<Value, ModelError> {
        let class = self.class_of(obj)?;
        let attr =
            self.meta
                .attr_of(class, Sym::new(name))
                .ok_or_else(|| ModelError::NoSuchProperty {
                    class: self.meta.class(class).name.resolve(),
                    name: name.to_owned(),
                })?;
        self.attr(obj, attr)
    }

    /// Adds a link `src --r--> dst`, keeping the slot sorted and duplicate
    /// free. Returns `true` if the link was newly added.
    pub fn add_link(&mut self, src: ObjId, r: RefId, dst: ObjId) -> Result<bool, ModelError> {
        let meta = Arc::clone(&self.meta);
        let decl = meta.reference(r);
        let dst_class = self.class_of(dst)?;
        if !meta.conforms(dst_class, decl.target) {
            return Err(ModelError::BadLinkTarget {
                reference: decl.name.resolve(),
                target: dst,
            });
        }
        let o = self.obj_mut(src)?;
        let slot = meta
            .ref_slot(o.class, r)
            .ok_or_else(|| ModelError::NoSuchProperty {
                class: meta.class(o.class).name.resolve(),
                name: decl.name.resolve(),
            })?;
        match o.refs[slot].binary_search(&dst) {
            Ok(_) => Ok(false),
            Err(pos) => {
                o.refs[slot].insert(pos, dst);
                self.index_link(src, r, dst);
                Ok(true)
            }
        }
    }

    /// Removes the link `src --r--> dst`. Returns `true` if it existed.
    pub fn remove_link(&mut self, src: ObjId, r: RefId, dst: ObjId) -> Result<bool, ModelError> {
        let meta = Arc::clone(&self.meta);
        let o = self.obj_mut(src)?;
        let decl = meta.reference(r);
        let slot = meta
            .ref_slot(o.class, r)
            .ok_or_else(|| ModelError::NoSuchProperty {
                class: meta.class(o.class).name.resolve(),
                name: decl.name.resolve(),
            })?;
        match o.refs[slot].binary_search(&dst) {
            Ok(pos) => {
                o.refs[slot].remove(pos);
                self.unindex_link(src, r, dst);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// The targets of reference `r` on `obj` (sorted, duplicate free).
    pub fn targets(&self, obj: ObjId, r: RefId) -> Result<&[ObjId], ModelError> {
        let o = self.get(obj).ok_or(ModelError::NoSuchObject(obj))?;
        let slot = self
            .meta
            .ref_slot(o.class, r)
            .ok_or_else(|| ModelError::NoSuchProperty {
                class: self.meta.class(o.class).name.resolve(),
                name: self.meta.reference(r).name.resolve(),
            })?;
        Ok(&o.refs[slot])
    }

    /// True iff the link `src --r--> dst` is present.
    pub fn has_link(&self, src: ObjId, r: RefId, dst: ObjId) -> bool {
        self.targets(src, r)
            .map(|t| t.binary_search(&dst).is_ok())
            .unwrap_or(false)
    }

    /// Iterates over all live objects as `(id, object)`.
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, &Object)> {
        self.objs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|o| (ObjId(i as u32), o)))
    }

    /// Iterates over ids of live objects whose class conforms to `class`.
    pub fn objects_of<'a>(&'a self, class: ClassId) -> impl Iterator<Item = ObjId> + 'a {
        self.objects()
            .filter(move |(_, o)| self.meta.conforms(o.class, class))
            .map(|(id, _)| id)
    }

    /// Counts live instances conforming to `class`.
    pub fn count_of(&self, class: ClassId) -> usize {
        self.objects_of(class).count()
    }

    /// Structural equality on the live object graph, id-sensitive.
    ///
    /// Two models are graph-equal when they conform to the same metamodel
    /// and contain the same live ids with equal class, attributes and link
    /// sets. (Link slots are kept sorted, so `Vec` equality is set
    /// equality.) Tombstone layout and model names are ignored.
    pub fn graph_eq(&self, other: &Model) -> bool {
        if !Arc::ptr_eq(&self.meta, &other.meta) {
            return false;
        }
        if self.live != other.live {
            return false;
        }
        self.objects().all(|(id, o)| other.get(id) == Some(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{MetamodelBuilder, Upper};
    use crate::value::AttrType;

    fn mm() -> (Arc<Metamodel>, ClassId, AttrId, AttrId, ClassId, RefId) {
        let mut b = MetamodelBuilder::new("FM");
        let f = b.class("Feature").unwrap();
        let name = b.attr(f, "name", AttrType::Str).unwrap();
        let mand = b.attr(f, "mandatory", AttrType::Bool).unwrap();
        let m = b.class("FeatureModel").unwrap();
        let feats = b.reference(m, "features", f, 0, Upper::Many, true).unwrap();
        let meta = b.build().unwrap();
        (meta, f, name, mand, m, feats)
    }

    #[test]
    fn add_set_get() {
        let (meta, f, name, mand, _, _) = mm();
        let mut m = Model::new("m", meta);
        let o = m.add(f).unwrap();
        assert_eq!(m.len(), 1);
        m.set_attr(o, name, Value::str("engine")).unwrap();
        assert_eq!(m.attr(o, name).unwrap(), Value::str("engine"));
        assert_eq!(m.attr(o, mand).unwrap(), Value::Bool(false));
        m.set_attr_named(o, "mandatory", Value::Bool(true)).unwrap();
        assert_eq!(m.attr_named(o, "mandatory").unwrap(), Value::Bool(true));
    }

    #[test]
    fn type_checked_set() {
        let (meta, f, name, _, _, _) = mm();
        let mut m = Model::new("m", meta);
        let o = m.add(f).unwrap();
        assert!(matches!(
            m.set_attr(o, name, Value::Int(4)).unwrap_err(),
            ModelError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn links_sorted_and_deduped() {
        let (meta, f, _, _, fm, feats) = mm();
        let mut m = Model::new("m", meta);
        let root = m.add(fm).unwrap();
        let a = m.add(f).unwrap();
        let b = m.add(f).unwrap();
        assert!(m.add_link(root, feats, b).unwrap());
        assert!(m.add_link(root, feats, a).unwrap());
        assert!(!m.add_link(root, feats, a).unwrap());
        assert_eq!(m.targets(root, feats).unwrap(), &[a, b]);
        assert!(m.has_link(root, feats, a));
        assert!(m.remove_link(root, feats, a).unwrap());
        assert!(!m.remove_link(root, feats, a).unwrap());
        assert!(!m.has_link(root, feats, a));
    }

    #[test]
    fn link_target_type_checked() {
        let (meta, _, _, _, fm, feats) = mm();
        let mut m = Model::new("m", meta);
        let root = m.add(fm).unwrap();
        let other = m.add(fm).unwrap();
        assert!(matches!(
            m.add_link(root, feats, other).unwrap_err(),
            ModelError::BadLinkTarget { .. }
        ));
    }

    #[test]
    fn delete_scrubs_incoming_links() {
        let (meta, f, _, _, fm, feats) = mm();
        let mut m = Model::new("m", meta);
        let root = m.add(fm).unwrap();
        let a = m.add(f).unwrap();
        m.add_link(root, feats, a).unwrap();
        m.delete(a).unwrap();
        assert!(!m.contains(a));
        assert_eq!(m.targets(root, feats).unwrap(), &[] as &[ObjId]);
        assert_eq!(m.len(), 1);
        // Ids are not reused.
        let b = m.add(f).unwrap();
        assert_ne!(a, b);
        // Deleting twice errors.
        assert!(m.delete(a).is_err());
    }

    /// Truncation drops trailing tombstones only: it restores the id
    /// bound an `add_at` past a gap raised, and never drops a live
    /// object or a tombstone below a live one.
    #[test]
    fn truncate_tombstones_drops_trailing_tombstones_only() {
        let (meta, f, _, _, _, _) = mm();
        let mut m = Model::new("m", meta);
        let a = m.add(f).unwrap();
        let b = m.add(f).unwrap();
        m.delete(a).unwrap();
        let bound = m.id_bound();
        // A fresh object two ids past the bound pads one tombstone.
        let fresh = ObjId(bound as u32 + 1);
        m.add_at(fresh, f).unwrap();
        assert_eq!(m.id_bound(), bound + 2);
        // A live object blocks truncation entirely.
        m.truncate_tombstones(bound);
        assert_eq!(m.id_bound(), bound + 2);
        assert!(m.contains(fresh));
        // Once it is deleted, the bound comes back — but not past `b`,
        // and the tombstone of `a` below it stays.
        m.delete(fresh).unwrap();
        m.truncate_tombstones(bound);
        assert_eq!(m.id_bound(), bound);
        m.truncate_tombstones(0);
        assert_eq!(m.id_bound(), b.index() + 1);
        assert!(m.contains(b) && !m.contains(a));
        assert_eq!(m.len(), 1);
        assert_eq!(m.add(f).unwrap(), ObjId(bound as u32));
    }

    #[test]
    fn extents_respect_subtyping() {
        let mut b = MetamodelBuilder::new("X");
        let top = b.abstract_class("Named").unwrap();
        let p = b.class_full("Person", &[top], false).unwrap();
        let c = b.class_full("Company", &[top], false).unwrap();
        let meta = b.build().unwrap();
        let mut m = Model::new("m", meta);
        let o1 = m.add(p).unwrap();
        let o2 = m.add(c).unwrap();
        assert!(m.add(top).is_err());
        let named: Vec<_> = m.objects_of(top).collect();
        assert_eq!(named, vec![o1, o2]);
        assert_eq!(m.count_of(p), 1);
    }

    #[test]
    fn graph_eq_is_id_sensitive_and_ignores_tombstones() {
        let (meta, f, name, _, _, _) = mm();
        let mut a = Model::new("a", Arc::clone(&meta));
        let mut b = Model::new("b", meta);
        let oa = a.add(f).unwrap();
        let ob = b.add(f).unwrap();
        assert_eq!(oa, ob);
        a.set_attr(oa, name, Value::str("x")).unwrap();
        b.set_attr(ob, name, Value::str("x")).unwrap();
        assert!(a.graph_eq(&b));
        // A diverging attribute breaks equality.
        b.set_attr(ob, name, Value::str("y")).unwrap();
        assert!(!a.graph_eq(&b));
        // Tombstones don't matter: delete and re-add the same shape at a
        // different id is NOT equal (id-sensitive)...
        b.set_attr(ob, name, Value::str("x")).unwrap();
        let extra = b.add(f).unwrap();
        b.delete(extra).unwrap();
        // ...but a tombstone with identical live ids is equal.
        assert!(a.graph_eq(&b));
    }

    /// The inverse link index tracks every mutation path: add, remove,
    /// delete-with-scrub — `incoming` always equals what a full scan
    /// would find.
    #[test]
    fn incoming_index_tracks_link_mutations() {
        let (meta, f, _, _, fm, feats) = mm();
        let mut m = Model::new("m", meta);
        let r1 = m.add(fm).unwrap();
        let r2 = m.add(fm).unwrap();
        let a = m.add(f).unwrap();
        assert_eq!(m.incoming(a), &[]);
        m.add_link(r1, feats, a).unwrap();
        m.add_link(r2, feats, a).unwrap();
        assert_eq!(m.incoming(a), &[(r1, feats), (r2, feats)]);
        // Duplicate adds don't duplicate index entries.
        m.add_link(r1, feats, a).unwrap();
        assert_eq!(m.incoming(a).len(), 2);
        m.remove_link(r1, feats, a).unwrap();
        assert_eq!(m.incoming(a), &[(r2, feats)]);
        // Deleting the source scrubs its outgoing entry from the index.
        m.delete(r2).unwrap();
        assert_eq!(m.incoming(a), &[]);
        // Deleting a target with live incoming links scrubs the sources.
        m.add_link(r1, feats, a).unwrap();
        m.delete(a).unwrap();
        assert_eq!(m.targets(r1, feats).unwrap(), &[] as &[ObjId]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let (meta, f, name, _, _, _) = mm();
        let mut m = Model::with_capacity("m", meta, 100);
        assert!(m.is_empty());
        let o = m.add(f).unwrap();
        m.set_attr(o, name, Value::str("x")).unwrap();
        m.reserve(1000);
        assert_eq!(m.len(), 1);
        assert_eq!(m.attr(o, name).unwrap(), Value::str("x"));
    }

    #[test]
    fn clone_is_deep() {
        let (meta, f, name, _, _, _) = mm();
        let mut a = Model::new("a", meta);
        let o = a.add(f).unwrap();
        let mut b = a.clone();
        b.set_attr(o, name, Value::str("changed")).unwrap();
        assert_eq!(a.attr(o, name).unwrap(), Value::str(""));
        assert!(!a.graph_eq(&b));
    }
}
