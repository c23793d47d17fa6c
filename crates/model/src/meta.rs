//! Metamodels: class definitions with attributes, references and
//! single/multiple inheritance.
//!
//! A [`Metamodel`] is built with [`MetamodelBuilder`] and frozen on
//! [`MetamodelBuilder::build`]; freezing precomputes the inheritance
//! closure, per-class slot layouts (so objects store values in flat
//! arrays), and subtype bitmatrices used by extent queries.

use crate::intern::Sym;
use crate::value::{AttrType, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a class within one metamodel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClassId(pub u32);

/// Identifier of an attribute within one metamodel (global, not per-class).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AttrId(pub u32);

/// Identifier of a reference within one metamodel (global, not per-class).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RefId(pub u32);

impl ClassId {
    /// Index into the metamodel's class table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl AttrId {
    /// Index into the metamodel's attribute table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl RefId {
    /// Index into the metamodel's reference table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A declared property: an attribute or a reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PropId {
    /// An attribute.
    Attr(AttrId),
    /// A reference.
    Ref(RefId),
}

/// An attribute declaration: a named, typed, single-valued property.
#[derive(Clone, Debug)]
pub struct Attr {
    /// Attribute name (unique among the owning class and its supertypes).
    pub name: Sym,
    /// Owning class.
    pub owner: ClassId,
    /// Value type.
    pub ty: AttrType,
}

/// Upper bound of a reference multiplicity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Upper {
    /// At most `n` targets.
    Bounded(u32),
    /// Unbounded (`*`).
    Many,
}

impl Upper {
    /// True if `count` respects the bound.
    pub fn admits(self, count: usize) -> bool {
        match self {
            Upper::Bounded(n) => count <= n as usize,
            Upper::Many => true,
        }
    }
}

impl fmt::Display for Upper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Upper::Bounded(n) => write!(f, "{n}"),
            Upper::Many => f.write_str("*"),
        }
    }
}

/// A reference declaration: a named, typed, multi-valued link property.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Reference name (unique among the owning class and its supertypes).
    pub name: Sym,
    /// Owning class.
    pub owner: ClassId,
    /// Target class (targets may be instances of any subtype).
    pub target: ClassId,
    /// Lower multiplicity bound.
    pub lower: u32,
    /// Upper multiplicity bound.
    pub upper: Upper,
    /// Whether targets are contained by (owned by) the source object.
    pub containment: bool,
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct Class {
    /// Class name (unique in the metamodel).
    pub name: Sym,
    /// Direct supertypes.
    pub supers: Vec<ClassId>,
    /// Abstract classes have no direct instances.
    pub is_abstract: bool,
    /// Attributes declared directly on this class.
    pub own_attrs: Vec<AttrId>,
    /// References declared directly on this class.
    pub own_refs: Vec<RefId>,
    /// All attributes, including inherited, in slot order (frozen).
    pub all_attrs: Vec<AttrId>,
    /// All references, including inherited, in slot order (frozen).
    pub all_refs: Vec<RefId>,
}

/// A frozen metamodel. Cheap to share via [`Arc`].
#[derive(Debug)]
pub struct Metamodel {
    /// Metamodel name.
    pub name: Sym,
    classes: Vec<Class>,
    attrs: Vec<Attr>,
    refs: Vec<Reference>,
    class_by_name: HashMap<Sym, ClassId>,
    /// `conforms[sub][sup]`: row-major boolean matrix of the subtype
    /// relation's reflexive-transitive closure.
    conforms: Vec<bool>,
    /// For each class, all concrete classes conforming to it (incl. itself
    /// when concrete), used to enumerate extents.
    concrete_subs: Vec<Vec<ClassId>>,
}

impl Metamodel {
    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of attribute declarations.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Number of reference declarations.
    pub fn ref_count(&self) -> usize {
        self.refs.len()
    }

    /// The class table entry for `id`.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The attribute table entry for `id`.
    pub fn attr(&self, id: AttrId) -> &Attr {
        &self.attrs[id.index()]
    }

    /// The reference table entry for `id`.
    pub fn reference(&self, id: RefId) -> &Reference {
        &self.refs[id.index()]
    }

    /// Iterates over all classes as `(id, class)`.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: Sym) -> Option<ClassId> {
        self.class_by_name.get(&name).copied()
    }

    /// Looks a class up by name given as a string. Interns nothing: a
    /// name that is not interned names no class.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        Sym::lookup(name).and_then(|s| self.class_by_name(s))
    }

    /// Resolves an attribute by name on `class`, considering inheritance.
    pub fn attr_of(&self, class: ClassId, name: Sym) -> Option<AttrId> {
        self.class(class)
            .all_attrs
            .iter()
            .copied()
            .find(|&a| self.attr(a).name == name)
    }

    /// Resolves a reference by name on `class`, considering inheritance.
    pub fn ref_of(&self, class: ClassId, name: Sym) -> Option<RefId> {
        self.class(class)
            .all_refs
            .iter()
            .copied()
            .find(|&r| self.reference(r).name == name)
    }

    /// True iff `sub` conforms to (is-a) `sup`, reflexively.
    pub fn conforms(&self, sub: ClassId, sup: ClassId) -> bool {
        self.conforms[sub.index() * self.classes.len() + sup.index()]
    }

    /// All concrete classes conforming to `class` (its instantiable extent).
    pub fn concrete_subtypes(&self, class: ClassId) -> &[ClassId] {
        &self.concrete_subs[class.index()]
    }

    /// Slot index of attribute `attr` in instances of `class`.
    ///
    /// Returns `None` when `class` does not declare or inherit `attr`.
    pub fn attr_slot(&self, class: ClassId, attr: AttrId) -> Option<usize> {
        self.class(class).all_attrs.iter().position(|&a| a == attr)
    }

    /// Slot index of reference `r` in instances of `class`.
    pub fn ref_slot(&self, class: ClassId, r: RefId) -> Option<usize> {
        self.class(class).all_refs.iter().position(|&x| x == r)
    }

    /// Default attribute values for a freshly created instance of `class`.
    pub fn default_attrs(&self, class: ClassId) -> Box<[Value]> {
        self.class(class)
            .all_attrs
            .iter()
            .map(|&a| self.attr(a).ty.default_value())
            .collect()
    }
}

/// Error raised while building a metamodel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// A property name clashes within a class (including inherited names).
    DuplicateProperty {
        /// Class on which the clash occurs.
        class: String,
        /// The clashing property name.
        name: String,
        /// The later of the two clashing declarations in the class's
        /// layout (inherited properties first, then its own, each in
        /// declaration order): the class's own member when it
        /// redeclares an inherited name.
        decl: PropId,
    },
    /// The inheritance graph has a cycle through the named class.
    InheritanceCycle(String),
    /// An id referred to a class that does not exist.
    UnknownClass(String),
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::DuplicateClass(n) => write!(f, "duplicate class `{n}`"),
            MetaError::DuplicateProperty { class, name, .. } => {
                write!(f, "duplicate property `{name}` on class `{class}`")
            }
            MetaError::InheritanceCycle(n) => {
                write!(f, "inheritance cycle through class `{n}`")
            }
            MetaError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Incrementally constructs a [`Metamodel`].
pub struct MetamodelBuilder {
    name: Sym,
    classes: Vec<Class>,
    attrs: Vec<Attr>,
    refs: Vec<Reference>,
    class_by_name: HashMap<Sym, ClassId>,
}

impl MetamodelBuilder {
    /// Starts building a metamodel called `name`.
    pub fn new(name: &str) -> Self {
        MetamodelBuilder {
            name: Sym::new(name),
            classes: Vec::new(),
            attrs: Vec::new(),
            refs: Vec::new(),
            class_by_name: HashMap::new(),
        }
    }

    /// Declares a concrete class.
    pub fn class(&mut self, name: &str) -> Result<ClassId, MetaError> {
        self.class_full(name, &[], false)
    }

    /// Declares an abstract class.
    pub fn abstract_class(&mut self, name: &str) -> Result<ClassId, MetaError> {
        self.class_full(name, &[], true)
    }

    /// Declares a class with explicit supertypes and abstractness.
    pub fn class_full(
        &mut self,
        name: &str,
        supers: &[ClassId],
        is_abstract: bool,
    ) -> Result<ClassId, MetaError> {
        let sym = Sym::new(name);
        if self.class_by_name.contains_key(&sym) {
            return Err(MetaError::DuplicateClass(name.to_owned()));
        }
        for s in supers {
            if s.index() >= self.classes.len() {
                return Err(MetaError::UnknownClass(format!("#{}", s.0)));
            }
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(Class {
            name: sym,
            supers: supers.to_vec(),
            is_abstract,
            own_attrs: Vec::new(),
            own_refs: Vec::new(),
            all_attrs: Vec::new(),
            all_refs: Vec::new(),
        });
        self.class_by_name.insert(sym, id);
        Ok(id)
    }

    /// Adds a supertype to an already-declared class.
    pub fn add_super(&mut self, class: ClassId, sup: ClassId) -> Result<(), MetaError> {
        if class.index() >= self.classes.len() || sup.index() >= self.classes.len() {
            return Err(MetaError::UnknownClass(format!("#{}", sup.0)));
        }
        self.classes[class.index()].supers.push(sup);
        Ok(())
    }

    /// Declares an attribute on `class`.
    pub fn attr(&mut self, class: ClassId, name: &str, ty: AttrType) -> Result<AttrId, MetaError> {
        if class.index() >= self.classes.len() {
            return Err(MetaError::UnknownClass(format!("#{}", class.0)));
        }
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(Attr {
            name: Sym::new(name),
            owner: class,
            ty,
        });
        self.classes[class.index()].own_attrs.push(id);
        Ok(id)
    }

    /// Declares a reference on `class` targeting `target`.
    pub fn reference(
        &mut self,
        class: ClassId,
        name: &str,
        target: ClassId,
        lower: u32,
        upper: Upper,
        containment: bool,
    ) -> Result<RefId, MetaError> {
        if class.index() >= self.classes.len() || target.index() >= self.classes.len() {
            return Err(MetaError::UnknownClass(format!("#{}", class.0)));
        }
        let id = RefId(self.refs.len() as u32);
        self.refs.push(Reference {
            name: Sym::new(name),
            owner: class,
            target,
            lower,
            upper,
            containment,
        });
        self.classes[class.index()].own_refs.push(id);
        Ok(id)
    }

    /// Freezes the metamodel, computing inheritance closures and layouts.
    pub fn build(mut self) -> Result<Arc<Metamodel>, MetaError> {
        let n = self.classes.len();
        // Topologically order classes over the supertype DAG, detecting cycles.
        let order = self.toposort()?;
        // Reflexive-transitive conformance matrix.
        let mut conforms = vec![false; n * n];
        for &c in &order {
            let ci = c.index();
            conforms[ci * n + ci] = true;
            let supers = self.classes[ci].supers.clone();
            for s in supers {
                for j in 0..n {
                    if conforms[s.index() * n + j] {
                        conforms[ci * n + j] = true;
                    }
                }
            }
        }
        // Slot layouts: inherited first (in supertype declaration order,
        // deduplicated), then own.
        for &c in &order {
            let ci = c.index();
            let mut attrs: Vec<AttrId> = Vec::new();
            let mut refs: Vec<RefId> = Vec::new();
            let supers = self.classes[ci].supers.clone();
            for s in supers {
                for &a in &self.classes[s.index()].all_attrs {
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                }
                for &r in &self.classes[s.index()].all_refs {
                    if !refs.contains(&r) {
                        refs.push(r);
                    }
                }
            }
            attrs.extend(self.classes[ci].own_attrs.iter().copied());
            refs.extend(self.classes[ci].own_refs.iter().copied());
            // Property-name uniqueness across the flattened layout.
            for (i, &a) in attrs.iter().enumerate() {
                for &b in &attrs[i + 1..] {
                    if self.attrs[a.index()].name == self.attrs[b.index()].name {
                        return Err(MetaError::DuplicateProperty {
                            class: self.classes[ci].name.resolve(),
                            name: self.attrs[a.index()].name.resolve(),
                            decl: PropId::Attr(b),
                        });
                    }
                }
            }
            for (i, &a) in refs.iter().enumerate() {
                for &b in &refs[i + 1..] {
                    if self.refs[a.index()].name == self.refs[b.index()].name {
                        return Err(MetaError::DuplicateProperty {
                            class: self.classes[ci].name.resolve(),
                            name: self.refs[a.index()].name.resolve(),
                            decl: PropId::Ref(b),
                        });
                    }
                }
            }
            self.classes[ci].all_attrs = attrs;
            self.classes[ci].all_refs = refs;
        }
        // Concrete subtype extents.
        let mut concrete_subs = vec![Vec::new(); n];
        for sup in 0..n {
            for sub in 0..n {
                if conforms[sub * n + sup] && !self.classes[sub].is_abstract {
                    concrete_subs[sup].push(ClassId(sub as u32));
                }
            }
        }
        Ok(Arc::new(Metamodel {
            name: self.name,
            classes: self.classes,
            attrs: self.attrs,
            refs: self.refs,
            class_by_name: self.class_by_name,
            conforms,
            concrete_subs,
        }))
    }

    fn toposort(&self) -> Result<Vec<ClassId>, MetaError> {
        let n = self.classes.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::with_capacity(n);
        // Iterative DFS to avoid recursion depth limits on deep hierarchies.
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let supers = &self.classes[node].supers;
                if *edge < supers.len() {
                    let next = supers[*edge].index();
                    *edge += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            return Err(MetaError::InheritanceCycle(
                                self.classes[next].name.resolve(),
                            ));
                        }
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    order.push(ClassId(node as u32));
                    stack.pop();
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature_metamodel() -> Arc<Metamodel> {
        let mut b = MetamodelBuilder::new("FM");
        let f = b.class("Feature").unwrap();
        b.attr(f, "name", AttrType::Str).unwrap();
        b.attr(f, "mandatory", AttrType::Bool).unwrap();
        let m = b.class("FeatureModel").unwrap();
        b.reference(m, "features", f, 0, Upper::Many, true).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let mm = feature_metamodel();
        let f = mm.class_named("Feature").unwrap();
        assert_eq!(mm.class(f).name.resolve(), "Feature");
        let name = mm.attr_of(f, Sym::new("name")).unwrap();
        assert_eq!(mm.attr(name).ty, AttrType::Str);
        assert!(mm.attr_of(f, Sym::new("nope")).is_none());
        let m = mm.class_named("FeatureModel").unwrap();
        let r = mm.ref_of(m, Sym::new("features")).unwrap();
        assert_eq!(mm.reference(r).target, f);
        assert!(mm.reference(r).containment);
    }

    /// A failed lookup of a fresh name leaves the interner without it.
    #[test]
    fn class_named_interns_nothing() {
        let mm = feature_metamodel();
        let fresh = "class-named-probe-unknown";
        assert_eq!(mm.class_named(fresh), None);
        assert_eq!(Sym::lookup(fresh), None);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = MetamodelBuilder::new("X");
        b.class("A").unwrap();
        assert_eq!(
            b.class("A").unwrap_err(),
            MetaError::DuplicateClass("A".into())
        );
    }

    #[test]
    fn inheritance_layout_and_conformance() {
        let mut b = MetamodelBuilder::new("X");
        let named = b.abstract_class("Named").unwrap();
        b.attr(named, "name", AttrType::Str).unwrap();
        let person = b.class_full("Person", &[named], false).unwrap();
        b.attr(person, "age", AttrType::Int).unwrap();
        let mm = b.build().unwrap();
        assert!(mm.conforms(person, named));
        assert!(!mm.conforms(named, person));
        assert!(mm.conforms(person, person));
        // Inherited attribute resolvable and laid out first.
        let name = mm.attr_of(person, Sym::new("name")).unwrap();
        assert_eq!(mm.attr_slot(person, name), Some(0));
        let age = mm.attr_of(person, Sym::new("age")).unwrap();
        assert_eq!(mm.attr_slot(person, age), Some(1));
        // Extents: Named is abstract, only Person is concrete.
        assert_eq!(mm.concrete_subtypes(named), &[person]);
    }

    #[test]
    fn inheritance_cycle_detected() {
        let mut b = MetamodelBuilder::new("X");
        let a = b.class("A").unwrap();
        let c = b.class_full("B", &[a], false).unwrap();
        b.add_super(a, c).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            MetaError::InheritanceCycle(_)
        ));
    }

    #[test]
    fn duplicate_property_via_inheritance_rejected() {
        let mut b = MetamodelBuilder::new("X");
        let a = b.class("A").unwrap();
        b.attr(a, "name", AttrType::Str).unwrap();
        let c = b.class_full("B", &[a], false).unwrap();
        b.attr(c, "name", AttrType::Str).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            MetaError::DuplicateProperty { .. }
        ));
    }

    #[test]
    fn diamond_inheritance_dedups_slots() {
        let mut b = MetamodelBuilder::new("X");
        let top = b.abstract_class("Top").unwrap();
        b.attr(top, "id", AttrType::Int).unwrap();
        let l = b.class_full("L", &[top], true).unwrap();
        let r = b.class_full("R", &[top], true).unwrap();
        let bot = b.class_full("Bot", &[l, r], false).unwrap();
        let mm = b.build().unwrap();
        assert_eq!(mm.class(bot).all_attrs.len(), 1);
        assert!(mm.conforms(bot, top));
    }

    #[test]
    fn default_attrs_follow_types() {
        let mm = feature_metamodel();
        let f = mm.class_named("Feature").unwrap();
        let defaults = mm.default_attrs(f);
        assert_eq!(defaults.len(), 2);
        assert_eq!(defaults[1], Value::Bool(false));
    }

    #[test]
    fn upper_bound_admits() {
        assert!(Upper::Many.admits(1_000_000));
        assert!(Upper::Bounded(2).admits(2));
        assert!(!Upper::Bounded(2).admits(3));
        assert_eq!(Upper::Many.to_string(), "*");
        assert_eq!(Upper::Bounded(3).to_string(), "3");
    }
}
