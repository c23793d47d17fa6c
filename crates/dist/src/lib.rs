//! # mmt-dist — edits, diffs, and weighted graph-edit distances
//!
//! This crate is the metric space underneath the paper's §3 enforcement
//! semantics. QVT-R's `enforce` mode — and its multidirectional
//! generalization — is specified as *least change*: given an
//! inconsistent tuple of models and a repair shape selecting which
//! models may be rewritten, the engines must return consistent models
//! at **minimal distance** from the originals. "Distance" has to mean
//! something precise for that sentence to define anything; here it is a
//! **weighted graph-edit distance** over typed object graphs.
//!
//! ## The edit alphabet
//!
//! [`EditOp`] fixes the alphabet of atomic edits on an
//! [`mmt_model::Model`]:
//!
//! * `AddObj` / `DelObj` — create or destroy an object of a concrete
//!   class (deletion implicitly scrubs incoming links, mirroring
//!   [`mmt_model::Model::delete`]);
//! * `SetAttr` — overwrite one attribute slot (the op records the old
//!   value, so scripts are invertible and human-readable);
//! * `AddLink` / `DelLink` — insert or remove one edge in a reference
//!   slot.
//!
//! An edit *script* is a [`Delta`]. [`Delta::between`] computes a
//! canonical minimal script between two models over the same metamodel,
//! exploiting the id-stability contract of [`mmt_model::Model`] (ids
//! are never reused, deletions leave tombstones): objects are matched
//! **by id**, so the diff is a cheap slot-wise comparison rather than a
//! graph-isomorphism search. [`Delta::apply`] replays a script, and
//! `apply ∘ between` is a round-trip: `apply(between(a, b), a)` is
//! [`graph_eq`](mmt_model::Model::graph_eq) to `b`.
//!
//! ## Weighted distance, and why it is the §3 metric
//!
//! [`CostModel`] prices each op kind (`Default` is the uniform
//! all-ones model, i.e. plain graph-edit distance — what §3 calls
//! "some notion of distance between models" instantiated the way the
//! Echo tool does it). The distance from `a` to `b` is then
//! `Delta::between(a, b)` summed under the cost model
//! ([`Delta::cost`]). Two properties matter to the engines:
//!
//! 1. **Decomposability.** The cost of a script is the sum of its op
//!    costs, so uniform-cost search can explore candidate edits in
//!    increasing cumulative cost and stop at the first consistent
//!    state, and the SAT grounding can mirror every potential edit as
//!    one weighted cost literal under a sequential counter. Both
//!    engines consume *this* crate's prices, which is what makes their
//!    minima comparable in the differential tests.
//! 2. **No free structure.** A deleted object does not additionally pay
//!    for its vanishing links or attribute values, and a fresh object
//!    pays `add_obj` plus only the attributes that differ from the
//!    class defaults. [`Delta::between`] and the grounding encode the
//!    same convention, so "cost 4" means the same thing in both.
//!
//! ## `TupleCost`: the multidirectional weighting
//!
//! The paper's enforcement is over *tuples*: a shape like `→F_CFᵏ`
//! rewrites `k` configurations at once, and §3 ends by proposing that
//! users "prioritize the update of some models over others" — e.g.
//! prefer touching configurations to touching the feature model.
//! [`TupleCost`] realizes exactly that: per-model multipliers over the
//! tuple, with the total distance
//!
//! ```text
//! Δ(ā, b̄) = Σᵢ  wᵢ · cost(between(aᵢ, bᵢ))
//! ```
//!
//! [`TupleCost::uniform`] recovers the unweighted §3 semantics;
//! [`TupleCost::weighted`] (e.g. `weighted(vec![1, 100])`) makes the
//! second model two orders of magnitude more expensive, steering every
//! least-change repair away from it whenever the cheap models can
//! absorb the change. [`TupleCost::auto`] — the engines' default — is
//! uniform at whatever arity the tuple at hand has; explicit weightings
//! are arity-checked on entry ([`TupleCost::resolved`]), so a weight
//! vector built for the wrong tuple is an error, never a silently
//! mispriced repair.

use mmt_model::{AttrId, ClassId, Model, ModelError, ObjId, RefId, Value};
use std::fmt;

/// One atomic edit on a model.
///
/// Ids refer to the id space of the model the op applies to; the
/// id-stability contract of [`mmt_model::Model`] (tombstoned deletes,
/// never-reused ids) keeps them meaningful across edits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EditOp {
    /// Create an object of concrete `class` at `id`.
    AddObj {
        /// Id the object is created at.
        id: ObjId,
        /// Concrete class instantiated.
        class: ClassId,
    },
    /// Delete the object at `id` (incoming links are scrubbed).
    DelObj {
        /// Id of the deleted object.
        id: ObjId,
        /// Class it had (for display and inversion).
        class: ClassId,
    },
    /// Overwrite attribute `attr` of `id` with `value`.
    SetAttr {
        /// Object edited.
        id: ObjId,
        /// Attribute overwritten.
        attr: AttrId,
        /// New value.
        value: Value,
        /// Previous value (for display and inversion).
        old: Value,
    },
    /// Insert the link `src --r--> dst`.
    AddLink {
        /// Link source.
        src: ObjId,
        /// Reference the link belongs to.
        r: RefId,
        /// Link target.
        dst: ObjId,
    },
    /// Remove the link `src --r--> dst`.
    DelLink {
        /// Link source.
        src: ObjId,
        /// Reference the link belongs to.
        r: RefId,
        /// Link target.
        dst: ObjId,
    },
}

impl EditOp {
    /// The object whose slots this edit writes.
    ///
    /// For link edits that is the *source* object — link sets are stored
    /// on the source side, so `AddLink`/`DelLink` leave the target
    /// object's slots untouched.
    pub fn primary_obj(&self) -> ObjId {
        match *self {
            EditOp::AddObj { id, .. } | EditOp::DelObj { id, .. } | EditOp::SetAttr { id, .. } => {
                id
            }
            EditOp::AddLink { src, .. } | EditOp::DelLink { src, .. } => src,
        }
    }

    /// True when this edit can only *remove* structure (objects or
    /// links), never add any: `DelObj` and `DelLink`.
    ///
    /// Under the positive pattern language (templates read attributes,
    /// extents and links without negation) a purely-destructive edit can
    /// never create a new match or witness, which lets incremental
    /// checkers skip the "did a new witness appear?" probe.
    pub fn is_destructive_only(&self) -> bool {
        matches!(self, EditOp::DelObj { .. } | EditOp::DelLink { .. })
    }

    /// The edit that undoes this one: `AddObj ↔ DelObj`, `AddLink ↔
    /// DelLink`, and `SetAttr` with `value`/`old` swapped.
    ///
    /// Exact for every op except `DelObj` of an object carrying
    /// non-default attributes or links: deletion scrubs those for free,
    /// and a single `AddObj` cannot restore them. Callers that need
    /// exact undo of arbitrary deletions must *expand* the deletion
    /// first ([`expand_op`]), as the session journal in `mmt-core` and
    /// the repair search in `mmt-enforce` do.
    pub fn inverse(&self) -> EditOp {
        match *self {
            EditOp::AddObj { id, class } => EditOp::DelObj { id, class },
            EditOp::DelObj { id, class } => EditOp::AddObj { id, class },
            EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            } => EditOp::SetAttr {
                id,
                attr,
                value: old,
                old: value,
            },
            EditOp::AddLink { src, r, dst } => EditOp::DelLink { src, r, dst },
            EditOp::DelLink { src, r, dst } => EditOp::AddLink { src, r, dst },
        }
    }
}

/// Appends to `out` the form of `op` that inverts exactly op by op,
/// expanded against the pre-edit model `m`:
///
/// * no-op edits expand to nothing;
/// * `SetAttr` is normalized so `old` is the *actual* current value
///   (exact inversion never trusts the caller's claim);
/// * `DelObj` of an object still carrying links or non-default
///   attributes becomes explicit `DelLink`s (incoming then outgoing)
///   and `SetAttr`-to-default ops followed by the bare deletion, so
///   [`EditOp::inverse`] of each op, in reverse order, restores the
///   object with everything it carried;
/// * invalid ops (missing objects, …) pass through unchanged — applying
///   them surfaces the error.
///
/// O(degree + attributes) for deletions (incoming links come from the
/// model's inverse link index), O(1) otherwise.
pub fn expand_op(m: &Model, op: &EditOp, out: &mut Vec<EditOp>) {
    match *op {
        EditOp::SetAttr {
            id, attr, value, ..
        } => match m.attr(id, attr) {
            Ok(cur) if cur == value => {}
            Ok(cur) => out.push(EditOp::SetAttr {
                id,
                attr,
                value,
                old: cur,
            }),
            Err(_) => out.push(*op),
        },
        EditOp::AddLink { src, r, dst } => {
            if !(m.contains(src) && m.contains(dst) && m.has_link(src, r, dst)) {
                out.push(*op);
            }
        }
        EditOp::DelLink { src, r, dst } => {
            if !(m.contains(src) && m.contains(dst) && !m.has_link(src, r, dst)) {
                out.push(*op);
            }
        }
        EditOp::DelObj { id, .. } => {
            let Some(obj) = m.get(id) else {
                out.push(*op); // missing object: applying it errors
                return;
            };
            let class = obj.class;
            let meta = m.metamodel();
            // Incoming links (the ones deletion would scrub); self-loops
            // are outgoing links too and go out with those.
            for &(src, r) in m.incoming(id) {
                if src != id {
                    out.push(EditOp::DelLink { src, r, dst: id });
                }
            }
            for (slot, &r) in meta.class(class).all_refs.iter().enumerate() {
                for &dst in &obj.refs[slot] {
                    out.push(EditOp::DelLink { src: id, r, dst });
                }
            }
            let defaults = meta.default_attrs(class);
            for (slot, &attr) in meta.class(class).all_attrs.iter().enumerate() {
                if obj.attrs[slot] != defaults[slot] {
                    out.push(EditOp::SetAttr {
                        id,
                        attr,
                        value: defaults[slot],
                        old: obj.attrs[slot],
                    });
                }
            }
            out.push(EditOp::DelObj { id, class });
        }
        EditOp::AddObj { .. } => out.push(*op),
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditOp::AddObj { id, class } => write!(f, "+ {id} : class#{}", class.0),
            EditOp::DelObj { id, class } => write!(f, "- {id} : class#{}", class.0),
            EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            } => write!(f, "{id}.attr#{} = {value} (was {old})", attr.0),
            EditOp::AddLink { src, r, dst } => write!(f, "+ {src} --ref#{}--> {dst}", r.0),
            EditOp::DelLink { src, r, dst } => write!(f, "- {src} --ref#{}--> {dst}", r.0),
        }
    }
}

/// Per-op-kind prices for the graph-edit distance.
///
/// The `Default` is the uniform all-ones model. Both enforcement
/// engines take their prices from here, which is what makes the search
/// engine's path costs and the SAT engine's cost literals comparable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// Price of creating an object.
    pub add_obj: u64,
    /// Price of deleting an object.
    pub del_obj: u64,
    /// Price of overwriting one attribute.
    pub set_attr: u64,
    /// Price of inserting one link.
    pub add_link: u64,
    /// Price of removing one link.
    pub del_link: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            add_obj: 1,
            del_obj: 1,
            set_attr: 1,
            add_link: 1,
            del_link: 1,
        }
    }
}

impl CostModel {
    /// The price of one edit.
    pub fn of(&self, op: &EditOp) -> u64 {
        match op {
            EditOp::AddObj { .. } => self.add_obj,
            EditOp::DelObj { .. } => self.del_obj,
            EditOp::SetAttr { .. } => self.set_attr,
            EditOp::AddLink { .. } => self.add_link,
            EditOp::DelLink { .. } => self.del_link,
        }
    }
}

/// Per-model weight multipliers over a model tuple (§3's proposed
/// "prioritize the update of some models over others").
///
/// The weighted tuple distance is `Σᵢ wᵢ · dᵢ` where `dᵢ` is the
/// single-model edit distance of the `i`-th component.
///
/// A weighting is either **auto** ([`TupleCost::auto`]) — uniform `wᵢ = 1`
/// at whatever arity the tuple at hand has — or **explicit**
/// ([`TupleCost::uniform`] / [`TupleCost::weighted`]) with a fixed arity.
/// Explicit weightings are arity-checked: the engines reject a mismatch
/// via [`TupleCost::resolved`] instead of silently padding with 1s, and
/// [`TupleCost::weight`] panics on an out-of-range index, so a weight
/// vector built for the wrong tuple can never silently misprice a repair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleCost {
    /// `None` = auto (uniform at any arity).
    weights: Option<Vec<u64>>,
}

/// An explicit [`TupleCost`] was applied to a tuple of a different arity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TupleArityError {
    /// The tuple's arity.
    pub expected: usize,
    /// The weighting's arity.
    pub got: usize,
}

impl fmt::Display for TupleArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuple cost has {} weights but the model tuple has arity {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for TupleArityError {}

impl TupleCost {
    /// Uniform weights at whatever arity the model tuple at hand has —
    /// the default of the enforcement engines. Use this instead of the
    /// historical `uniform(0)` "resized per call" placeholder.
    pub fn auto() -> TupleCost {
        TupleCost { weights: None }
    }

    /// Uniform weights (`wᵢ = 1`) over an `n`-tuple: plain §3 least
    /// change, arity-checked against the tuple it is applied to.
    pub fn uniform(n: usize) -> TupleCost {
        TupleCost {
            weights: Some(vec![1; n]),
        }
    }

    /// Explicit per-model weights, in model-space order.
    pub fn weighted(weights: Vec<u64>) -> TupleCost {
        TupleCost {
            weights: Some(weights),
        }
    }

    /// True for the [`TupleCost::auto`] weighting.
    pub fn is_auto(&self) -> bool {
        self.weights.is_none()
    }

    /// The arity an explicit weighting was built for (`None` for auto).
    pub fn arity(&self) -> Option<usize> {
        self.weights.as_ref().map(Vec::len)
    }

    /// Resolves this weighting against a tuple of arity `n`: auto becomes
    /// `uniform(n)`; an explicit weighting must match `n` exactly.
    pub fn resolved(&self, n: usize) -> Result<TupleCost, TupleArityError> {
        match &self.weights {
            None => Ok(TupleCost::uniform(n)),
            Some(w) if w.len() == n => Ok(self.clone()),
            Some(w) => Err(TupleArityError {
                expected: n,
                got: w.len(),
            }),
        }
    }

    /// The weight multiplier of the model at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when the weighting is explicit and `idx` is out of range —
    /// resolve the weighting against the tuple's arity first
    /// ([`TupleCost::resolved`]); the engines do this on entry.
    pub fn weight(&self, idx: usize) -> u64 {
        match &self.weights {
            None => 1,
            Some(w) => match w.get(idx) {
                Some(&x) => x,
                None => panic!(
                    "tuple cost of arity {} indexed at {idx}; resolve against the tuple first",
                    w.len()
                ),
            },
        }
    }

    /// The weighted total over per-model distances, in model-space
    /// order: `Σᵢ wᵢ · dᵢ`. Saturates at [`u64::MAX`] instead of
    /// wrapping — a silently wrapped total would make an enormous
    /// distance look small, inverting every least-change comparison
    /// built on it. (The repair engines go further and treat an
    /// overflowing step as an explicit error.)
    ///
    /// # Panics
    ///
    /// Panics when the weighting is explicit and shorter than
    /// `per_model` (see [`TupleCost::weight`]).
    pub fn total(&self, per_model: &[u64]) -> u64 {
        per_model.iter().enumerate().fold(0u64, |acc, (i, &d)| {
            acc.saturating_add(self.weight(i).saturating_mul(d))
        })
    }
}

/// An edit script between two models over the same metamodel.
///
/// Scripts from [`Delta::between`] are *canonical*: ops are grouped
/// del-link, del-obj, add-obj, set-attr, add-link (a safe replay
/// order) and sorted by id within each group.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Delta {
    ops: Vec<EditOp>,
}

impl Delta {
    /// The empty script.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Computes a minimal edit script turning `old` into `new`.
    ///
    /// Both models must share the same metamodel instance
    /// (`MetamodelMismatch` otherwise). Objects are matched by id —
    /// valid because model edits never reuse ids — so the script is
    /// minimal for the id-faithful edit semantics the engines use:
    ///
    /// * ids live in `old` but not `new` become `DelObj` (their links
    ///   ride along for free, as in [`mmt_model::Model::delete`]);
    /// * ids live in `new` but not `old` become `AddObj` plus `SetAttr`
    ///   for every attribute differing from the class default, plus
    ///   `AddLink` for their outgoing links;
    /// * ids live in both with the same class diff slot-wise; a class
    ///   change at one id is a delete/re-add pair.
    pub fn between(old: &Model, new: &Model) -> Result<Delta, ModelError> {
        if !std::sync::Arc::ptr_eq(old.metamodel(), new.metamodel()) {
            return Err(ModelError::MetamodelMismatch);
        }
        let meta = old.metamodel();
        let mut del_links = Vec::new();
        let mut del_objs = Vec::new();
        let mut add_objs = Vec::new();
        let mut set_attrs = Vec::new();
        let mut add_links = Vec::new();
        // Ids live on both sides but with different classes: replayed
        // as a delete/re-add pair, so links *to* them from survivors
        // are scrubbed by the delete and must be re-added.
        let mut reclassed: Vec<ObjId> = Vec::new();

        // Deletions: live in old, dead (or re-classed) in new.
        for (id, o) in old.objects() {
            match new.get(id) {
                Some(n) if n.class == o.class => {}
                Some(_) => {
                    reclassed.push(id);
                    del_objs.push(EditOp::DelObj { id, class: o.class });
                }
                None => del_objs.push(EditOp::DelObj { id, class: o.class }),
            }
        }
        // Additions: live in new, dead (or re-classed) in old. A fresh
        // object pays only for attributes off the class default.
        for (id, n) in new.objects() {
            let fresh = !matches!(old.get(id), Some(o) if o.class == n.class);
            if fresh {
                add_objs.push(EditOp::AddObj { id, class: n.class });
                let defaults = meta.default_attrs(n.class);
                for (slot, &attr) in meta.class(n.class).all_attrs.iter().enumerate() {
                    if n.attrs[slot] != defaults[slot] {
                        set_attrs.push(EditOp::SetAttr {
                            id,
                            attr,
                            value: n.attrs[slot],
                            old: defaults[slot],
                        });
                    }
                }
                for (slot, &r) in meta.class(n.class).all_refs.iter().enumerate() {
                    for &dst in &n.refs[slot] {
                        add_links.push(EditOp::AddLink { src: id, r, dst });
                    }
                }
            }
        }
        // Survivors: slot-wise attribute and link diffs.
        for (id, o) in old.objects() {
            let Some(n) = new.get(id) else { continue };
            if n.class != o.class {
                continue; // handled as delete + add above
            }
            for (slot, &attr) in meta.class(o.class).all_attrs.iter().enumerate() {
                if o.attrs[slot] != n.attrs[slot] {
                    set_attrs.push(EditOp::SetAttr {
                        id,
                        attr,
                        value: n.attrs[slot],
                        old: o.attrs[slot],
                    });
                }
            }
            for (slot, &r) in meta.class(o.class).all_refs.iter().enumerate() {
                // Slots are sorted and duplicate-free; set-diff them.
                for &dst in &o.refs[slot] {
                    if !n.refs[slot].contains(&dst) {
                        // A link whose target dies — or is re-classed,
                        // i.e. replayed as delete + re-add — rides along
                        // with the DelObj; only survivor→survivor
                        // removals are edits in their own right.
                        if new.contains(dst) && !reclassed.contains(&dst) {
                            del_links.push(EditOp::DelLink { src: id, r, dst });
                        }
                    }
                }
                for &dst in &n.refs[slot] {
                    // Links to a re-classed target are scrubbed by its
                    // DelObj even when present on both sides, so they
                    // must be re-established unconditionally.
                    if !o.refs[slot].contains(&dst) || reclassed.contains(&dst) {
                        add_links.push(EditOp::AddLink { src: id, r, dst });
                    }
                }
            }
        }
        let mut ops = del_links;
        ops.append(&mut del_objs);
        ops.append(&mut add_objs);
        ops.append(&mut set_attrs);
        ops.append(&mut add_links);
        Ok(Delta { ops })
    }

    /// Replays this script on `m` (which should be graph-equal to the
    /// `old` side of [`Delta::between`]). Ops are applied in script
    /// order; `between` emits them in a safe order.
    pub fn apply(&self, m: &mut Model) -> Result<(), ModelError> {
        for op in &self.ops {
            match *op {
                EditOp::AddObj { id, class } => m.add_at(id, class)?,
                EditOp::DelObj { id, .. } => m.delete(id)?,
                EditOp::SetAttr {
                    id, attr, value, ..
                } => m.set_attr(id, attr, value)?,
                EditOp::AddLink { src, r, dst } => {
                    m.add_link(src, r, dst)?;
                }
                EditOp::DelLink { src, r, dst } => {
                    m.remove_link(src, r, dst)?;
                }
            }
        }
        Ok(())
    }

    /// Appends one op to the script.
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the script changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The script's total price under `cost` — the (unweighted)
    /// graph-edit distance when the script came from [`Delta::between`].
    pub fn cost(&self, cost: &CostModel) -> u64 {
        self.ops.iter().map(|op| cost.of(op)).sum()
    }

    /// The script that undoes this one: each op inverted
    /// ([`EditOp::inverse`]), in reverse order, so that
    /// `apply(inverse(d), apply(d, m))` restores `m`.
    ///
    /// Exactness inherits [`EditOp::inverse`]'s caveat: a `DelObj` whose
    /// object still carried attributes or links at deletion time
    /// (possible in [`Delta::between`] scripts, where scrubbed structure
    /// rides the deletion for free) inverts to a bare `AddObj` and loses
    /// that structure. Scripts built op-by-op against a live model
    /// through [`expand_op`] — the form the `mmt-core` session journal
    /// stores — invert exactly; for arbitrary diffs, use
    /// `Delta::between(new, old)` instead.
    pub fn inverse(&self) -> Delta {
        Delta {
            ops: self.ops.iter().rev().map(EditOp::inverse).collect(),
        }
    }

    /// The distinct objects whose slots this script writes, ascending
    /// (the union of [`EditOp::primary_obj`] over the ops, plus link
    /// targets).
    pub fn touched_objs(&self) -> Vec<ObjId> {
        let mut out: Vec<ObjId> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            out.push(op.primary_obj());
            if let EditOp::AddLink { dst, .. } | EditOp::DelLink { dst, .. } = *op {
                out.push(dst);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return f.write_str("(no changes)");
        }
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// The weighted distance between two model tuples: per-component
/// [`Delta::between`] costs combined under `tuple`. Saturates at
/// [`u64::MAX`] (see [`TupleCost::total`]). Errors when any component
/// pair disagrees on its metamodel.
///
/// # Panics
///
/// Panics when `tuple` is explicit and its arity differs from the
/// tuples' — pass [`TupleCost::auto`] (or a weighting of the right
/// arity) rather than relying on padding.
pub fn tuple_distance(
    old: &[Model],
    new: &[Model],
    cost: &CostModel,
    tuple: &TupleCost,
) -> Result<u64, ModelError> {
    debug_assert_eq!(old.len(), new.len());
    let tuple = tuple
        .resolved(old.len())
        .expect("tuple cost arity matches the model tuple");
    let mut total: u64 = 0;
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        total = total.saturating_add(
            tuple
                .weight(i)
                .saturating_mul(Delta::between(o, n)?.cost(cost)),
        );
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_model::{AttrType, Metamodel, MetamodelBuilder, Upper};
    use std::sync::Arc;

    /// Feature/FeatureModel metamodel with attrs and a containment ref.
    fn mm() -> Arc<Metamodel> {
        let mut b = MetamodelBuilder::new("FM");
        let f = b.class("Feature").unwrap();
        b.attr(f, "name", AttrType::Str).unwrap();
        b.attr(f, "mandatory", AttrType::Bool).unwrap();
        let m = b.class("FeatureModel").unwrap();
        b.reference(m, "features", f, 0, Upper::Many, true).unwrap();
        b.build().unwrap()
    }

    fn feature(m: &mut Model, name: &str) -> ObjId {
        let meta = Arc::clone(m.metamodel());
        let f = meta.class_named("Feature").unwrap();
        let id = m.add(f).unwrap();
        m.set_attr_named(id, "name", Value::str(name)).unwrap();
        id
    }

    #[test]
    fn identical_models_have_empty_delta() {
        let meta = mm();
        let mut a = Model::new("a", Arc::clone(&meta));
        feature(&mut a, "engine");
        let b = a.clone();
        let d = Delta::between(&a, &b).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.cost(&CostModel::default()), 0);
        assert_eq!(d.to_string(), "(no changes)");
    }

    #[test]
    fn add_object_with_attrs() {
        let meta = mm();
        let old = Model::new("m", Arc::clone(&meta));
        let mut new = old.clone();
        let id = feature(&mut new, "engine");
        let d = Delta::between(&old, &new).unwrap();
        // AddObj + one SetAttr (name off default; mandatory stays false).
        assert_eq!(d.len(), 2);
        assert!(matches!(d.ops()[0], EditOp::AddObj { .. }));
        assert!(matches!(
            d.ops()[1],
            EditOp::SetAttr { id: i, .. } if i == id
        ));
        assert_eq!(d.cost(&CostModel::default()), 2);
    }

    #[test]
    fn delete_object_swallows_incoming_links() {
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, mmt_model::Sym::new("features")).unwrap();
        let root = old.add(fm).unwrap();
        let f = feature(&mut old, "engine");
        old.add_link(root, features, f).unwrap();
        let mut new = old.clone();
        new.delete(f).unwrap();
        let d = Delta::between(&old, &new).unwrap();
        // One DelObj; the dangling link is NOT a separate DelLink.
        assert_eq!(d.len(), 1);
        assert!(matches!(d.ops()[0], EditOp::DelObj { id, .. } if id == f));
        assert_eq!(d.cost(&CostModel::default()), 1);
    }

    #[test]
    fn set_attr_records_old_and_new() {
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        let f = feature(&mut old, "engine");
        let mut new = old.clone();
        new.set_attr_named(f, "mandatory", Value::Bool(true))
            .unwrap();
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.len(), 1);
        match d.ops()[0] {
            EditOp::SetAttr { id, value, old, .. } => {
                assert_eq!(id, f);
                assert_eq!(value, Value::Bool(true));
                assert_eq!(old, Value::Bool(false));
            }
            ref op => panic!("unexpected op {op}"),
        }
    }

    #[test]
    fn link_changes_between_survivors() {
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, mmt_model::Sym::new("features")).unwrap();
        let root = old.add(fm).unwrap();
        let a = feature(&mut old, "a");
        let b = feature(&mut old, "b");
        old.add_link(root, features, a).unwrap();
        let mut new = old.clone();
        new.remove_link(root, features, a).unwrap();
        new.add_link(root, features, b).unwrap();
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.len(), 2);
        assert!(matches!(d.ops()[0], EditOp::DelLink { dst, .. } if dst == a));
        assert!(matches!(d.ops()[1], EditOp::AddLink { dst, .. } if dst == b));
    }

    #[test]
    fn apply_then_diff_round_trips() {
        // A busy diff: delete one feature, rename another, add a third,
        // rewire links — apply(between(a, b), a) must reproduce b.
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, mmt_model::Sym::new("features")).unwrap();
        let root = old.add(fm).unwrap();
        let a = feature(&mut old, "a");
        let b = feature(&mut old, "b");
        old.add_link(root, features, a).unwrap();
        old.add_link(root, features, b).unwrap();

        let mut new = old.clone();
        new.delete(a).unwrap();
        new.set_attr_named(b, "name", Value::str("renamed"))
            .unwrap();
        let c = feature(&mut new, "c");
        new.set_attr_named(c, "mandatory", Value::Bool(true))
            .unwrap();
        new.add_link(root, features, c).unwrap();

        let d = Delta::between(&old, &new).unwrap();
        let mut replay = old.clone();
        d.apply(&mut replay).unwrap();
        assert!(replay.graph_eq(&new), "replayed:\n{d}");
        // And the reverse direction also round-trips.
        let back = Delta::between(&new, &old).unwrap();
        let mut undo = new.clone();
        back.apply(&mut undo).unwrap();
        assert!(undo.graph_eq(&old));
    }

    #[test]
    fn reclassed_target_keeps_incoming_links() {
        // A re-classed object replays as delete + re-add, which scrubs
        // links pointing at it from survivors; between() must re-add
        // them for the round-trip to hold.
        let mut b = MetamodelBuilder::new("X");
        let named = b.abstract_class("Named").unwrap();
        let a = b.class_full("A", &[named], false).unwrap();
        let bc = b.class_full("B", &[named], false).unwrap();
        let holder = b.class("Holder").unwrap();
        let holds = b
            .reference(holder, "holds", named, 0, Upper::Many, false)
            .unwrap();
        let meta = b.build().unwrap();

        let mut old = Model::new("m", Arc::clone(&meta));
        let h = old.add(holder).unwrap();
        let k = old.add(a).unwrap();
        old.add_link(h, holds, k).unwrap();
        // new: same id k, different class, link kept.
        let mut new = old.clone();
        new.delete(k).unwrap();
        new.add_at(k, bc).unwrap();
        new.add_link(h, holds, k).unwrap();

        let d = Delta::between(&old, &new).unwrap();
        // The link rides the DelObj for free but must be re-added.
        assert!(!d
            .ops()
            .iter()
            .any(|op| matches!(op, EditOp::DelLink { .. })));
        assert!(d
            .ops()
            .iter()
            .any(|op| matches!(*op, EditOp::AddLink { src, dst, .. } if src == h && dst == k)));
        let mut replay = old.clone();
        d.apply(&mut replay).unwrap();
        assert!(replay.graph_eq(&new), "replayed:\n{d}");
    }

    #[test]
    fn diff_after_apply_is_empty() {
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        feature(&mut old, "x");
        let mut new = old.clone();
        feature(&mut new, "y");
        let d = Delta::between(&old, &new).unwrap();
        let mut replay = old.clone();
        d.apply(&mut replay).unwrap();
        assert!(Delta::between(&replay, &new).unwrap().is_empty());
    }

    #[test]
    fn metamodel_mismatch_rejected() {
        let a = Model::new("a", mm());
        let b = Model::new("b", mm()); // distinct Arc ⇒ distinct identity
        assert!(matches!(
            Delta::between(&a, &b),
            Err(ModelError::MetamodelMismatch)
        ));
    }

    #[test]
    fn cost_model_prices_each_kind() {
        let cm = CostModel {
            add_obj: 2,
            del_obj: 3,
            set_attr: 5,
            add_link: 7,
            del_link: 11,
        };
        let id = ObjId(0);
        let class = ClassId(0);
        let attr = AttrId(0);
        let r = RefId(0);
        assert_eq!(cm.of(&EditOp::AddObj { id, class }), 2);
        assert_eq!(cm.of(&EditOp::DelObj { id, class }), 3);
        assert_eq!(
            cm.of(&EditOp::SetAttr {
                id,
                attr,
                value: Value::Bool(true),
                old: Value::Bool(false),
            }),
            5
        );
        assert_eq!(
            cm.of(&EditOp::AddLink {
                src: id,
                r,
                dst: id
            }),
            7
        );
        assert_eq!(
            cm.of(&EditOp::DelLink {
                src: id,
                r,
                dst: id
            }),
            11
        );
        let default = CostModel::default();
        for op in [
            EditOp::AddObj { id, class },
            EditOp::DelObj { id, class },
            EditOp::AddLink {
                src: id,
                r,
                dst: id,
            },
        ] {
            assert_eq!(default.of(&op), 1);
        }
    }

    #[test]
    fn tuple_cost_uniform_and_weighted() {
        let u = TupleCost::uniform(3);
        assert_eq!(u.arity(), Some(3));
        assert!(!u.is_auto());
        for i in 0..3 {
            assert_eq!(u.weight(i), 1);
        }
        // The asymmetric weighting `ground` relies on: model 1 is 100×
        // as expensive as model 0.
        let w = TupleCost::weighted(vec![1, 100]);
        assert_eq!(w.arity(), Some(2));
        assert_eq!(w.weight(0), 1);
        assert_eq!(w.weight(1), 100);
        // Weighted totals.
        assert_eq!(w.total(&[3, 2]), 3 + 200);
        assert_eq!(u.total(&[1, 1, 1]), 3);
    }

    #[test]
    fn tuple_cost_auto_resolves_to_any_arity() {
        let a = TupleCost::auto();
        assert!(a.is_auto());
        assert_eq!(a.arity(), None);
        assert_eq!(a.weight(7), 1); // auto is uniform everywhere
        for n in [0, 1, 3] {
            let r = a.resolved(n).unwrap();
            assert_eq!(r, TupleCost::uniform(n));
        }
        // Explicit weightings resolve only at their own arity.
        let w = TupleCost::weighted(vec![1, 100]);
        assert_eq!(w.resolved(2).unwrap(), w);
        assert_eq!(
            w.resolved(3).unwrap_err(),
            TupleArityError {
                expected: 3,
                got: 2
            }
        );
        assert!(w.resolved(3).unwrap_err().to_string().contains("arity 3"));
    }

    #[test]
    #[should_panic(expected = "resolve against the tuple first")]
    fn tuple_cost_out_of_range_weight_panics() {
        TupleCost::weighted(vec![1, 100]).weight(7);
    }

    /// ISSUE 3 bugfix regression: near-`u64::MAX` weights must saturate,
    /// not wrap. `4 × (u64::MAX/4 + 1)` is exactly `2^64`, which the
    /// historical wrapping sum turned into **0** — a maximally expensive
    /// tuple priced as free.
    #[test]
    fn weighted_total_saturates_instead_of_wrapping() {
        let heavy = TupleCost::weighted(vec![u64::MAX / 4 + 1]);
        assert_eq!(heavy.total(&[4]), u64::MAX);
        // A huge component plus a small one stays saturated.
        let w = TupleCost::weighted(vec![u64::MAX / 4 + 1, 1]);
        assert_eq!(w.total(&[4, 3]), u64::MAX);
        // Ordinary magnitudes are untouched.
        assert_eq!(w.total(&[0, 3]), 3);
    }

    #[test]
    fn edit_op_read_set_helpers() {
        let id = ObjId(3);
        let class = ClassId(1);
        let attr = AttrId(2);
        let r = RefId(0);
        let add = EditOp::AddObj { id, class };
        let del = EditOp::DelObj { id, class };
        let set = EditOp::SetAttr {
            id,
            attr,
            value: Value::Bool(true),
            old: Value::Bool(false),
        };
        let link = EditOp::AddLink {
            src: ObjId(1),
            r,
            dst: id,
        };
        let unlink = EditOp::DelLink {
            src: ObjId(1),
            r,
            dst: id,
        };
        assert_eq!(link.primary_obj(), ObjId(1));
        assert_eq!(set.primary_obj(), id);
        assert!(del.is_destructive_only());
        assert!(unlink.is_destructive_only());
        assert!(!add.is_destructive_only() && !set.is_destructive_only());
        let mut d = Delta::new();
        d.push(set);
        d.push(link);
        d.push(del);
        assert_eq!(d.touched_objs(), vec![ObjId(1), id]);
    }

    #[test]
    fn edit_op_inverse_round_trips() {
        let id = ObjId(1);
        let class = ClassId(0);
        let attr = AttrId(0);
        let r = RefId(0);
        let ops = [
            EditOp::AddObj { id, class },
            EditOp::DelObj { id, class },
            EditOp::SetAttr {
                id,
                attr,
                value: Value::str("new"),
                old: Value::str("old"),
            },
            EditOp::AddLink {
                src: id,
                r,
                dst: ObjId(2),
            },
            EditOp::DelLink {
                src: id,
                r,
                dst: ObjId(2),
            },
        ];
        for op in ops {
            // Inversion is an involution.
            assert_eq!(op.inverse().inverse(), op);
        }
        assert_eq!(
            EditOp::AddObj { id, class }.inverse(),
            EditOp::DelObj { id, class }
        );
        let set = EditOp::SetAttr {
            id,
            attr,
            value: Value::str("new"),
            old: Value::str("old"),
        };
        match set.inverse() {
            EditOp::SetAttr { value, old, .. } => {
                assert_eq!(value, Value::str("old"));
                assert_eq!(old, Value::str("new"));
            }
            op => panic!("unexpected inverse {op}"),
        }
    }

    #[test]
    fn delta_inverse_undoes_expanded_scripts() {
        // An op-by-op script with the deletion expanded (links and
        // non-default attrs cleared first): inverse replay restores the
        // original exactly.
        let meta = mm();
        let mut m = Model::new("m", Arc::clone(&meta));
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, mmt_model::Sym::new("features")).unwrap();
        let feat_class = meta.class_named("Feature").unwrap();
        let name = meta
            .attr_of(feat_class, mmt_model::Sym::new("name"))
            .unwrap();
        let root = m.add(fm).unwrap();
        let f = feature(&mut m, "engine");
        m.add_link(root, features, f).unwrap();

        let mut d = Delta::new();
        d.push(EditOp::AddObj {
            id: ObjId(2),
            class: feat_class,
        });
        d.push(EditOp::SetAttr {
            id: ObjId(2),
            attr: name,
            value: Value::str("gps"),
            old: Value::str(""),
        });
        d.push(EditOp::AddLink {
            src: root,
            r: features,
            dst: ObjId(2),
        });
        // Expanded deletion of `f`: unlink + reset attr + delete.
        d.push(EditOp::DelLink {
            src: root,
            r: features,
            dst: f,
        });
        d.push(EditOp::SetAttr {
            id: f,
            attr: name,
            value: Value::str(""),
            old: Value::str("engine"),
        });
        d.push(EditOp::DelObj {
            id: f,
            class: feat_class,
        });

        let mut edited = m.clone();
        d.apply(&mut edited).unwrap();
        assert!(!edited.contains(f));
        let inv = d.inverse();
        assert_eq!(inv.len(), d.len());
        inv.apply(&mut edited).unwrap();
        assert!(edited.graph_eq(&m), "inverse replay:\n{inv}");
        // Involution at the script level.
        assert_eq!(inv.inverse(), d);
    }

    /// `expand_op` turns a structure-carrying deletion into the form
    /// `delta_inverse_undoes_expanded_scripts` inverts exactly, drops
    /// no-ops and corrects a `SetAttr`'s claimed `old`.
    #[test]
    fn expand_op_makes_deletions_invert_exactly() {
        let meta = mm();
        let mut m = Model::new("m", Arc::clone(&meta));
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, mmt_model::Sym::new("features")).unwrap();
        let feat_class = meta.class_named("Feature").unwrap();
        let name = meta
            .attr_of(feat_class, mmt_model::Sym::new("name"))
            .unwrap();
        let root = m.add(fm).unwrap();
        let f = feature(&mut m, "engine");
        m.add_link(root, features, f).unwrap();
        let expand = |op: EditOp| {
            let mut out = Vec::new();
            expand_op(&m, &op, &mut out);
            out
        };
        let del = EditOp::DelObj {
            id: f,
            class: feat_class,
        };
        let script = expand(del);
        assert_eq!(
            script,
            [
                EditOp::DelLink {
                    src: root,
                    r: features,
                    dst: f
                },
                EditOp::SetAttr {
                    id: f,
                    attr: name,
                    value: Value::str(""),
                    old: Value::str("engine"),
                },
                del,
            ]
        );
        let mut edited = m.clone();
        for op in &script {
            Delta { ops: vec![*op] }.apply(&mut edited).unwrap();
        }
        for op in script.iter().rev() {
            Delta {
                ops: vec![op.inverse()],
            }
            .apply(&mut edited)
            .unwrap();
        }
        assert!(edited.graph_eq(&m));
        // No-ops vanish; a wrong `old` is replaced by the real value.
        let link = EditOp::AddLink {
            src: root,
            r: features,
            dst: f,
        };
        assert!(expand(link).is_empty());
        let rename = |old| EditOp::SetAttr {
            id: f,
            attr: name,
            value: Value::str("gps"),
            old,
        };
        assert_eq!(
            expand(rename(Value::str("?"))),
            [rename(Value::str("engine"))]
        );
        // Ops on missing objects pass through for the apply to reject.
        let gone = EditOp::DelObj {
            id: ObjId(9),
            class: feat_class,
        };
        assert_eq!(expand(gone), [gone]);
    }

    /// The documented caveat: inverting a `between` script whose
    /// `DelObj` swallowed structure is lossy — use `between(new, old)`
    /// for arbitrary diffs.
    #[test]
    fn delta_inverse_is_lossy_on_swallowed_deletions() {
        let meta = mm();
        let mut old = Model::new("m", Arc::clone(&meta));
        let f = feature(&mut old, "engine"); // name off default
        let mut new = old.clone();
        new.delete(f).unwrap();
        let d = Delta::between(&old, &new).unwrap();
        let mut back = new.clone();
        d.inverse().apply(&mut back).unwrap();
        // The object is back, but its name was swallowed by the delete.
        assert!(back.contains(f));
        assert!(!back.graph_eq(&old));
        let exact = Delta::between(&new, &old).unwrap();
        let mut exact_back = new.clone();
        exact.apply(&mut exact_back).unwrap();
        assert!(exact_back.graph_eq(&old));
    }

    #[test]
    fn tuple_distance_weights_components() {
        let meta = mm();
        let mut a0 = Model::new("a0", Arc::clone(&meta));
        feature(&mut a0, "x");
        let a1 = Model::new("a1", Arc::clone(&meta));
        // New tuple: one attr flip in component 0, one fresh feature
        // (AddObj + SetAttr) in component 1.
        let mut b0 = a0.clone();
        b0.set_attr_named(ObjId(0), "mandatory", Value::Bool(true))
            .unwrap();
        let mut b1 = a1.clone();
        feature(&mut b1, "y");
        let cost = CostModel::default();
        let old = [a0, a1];
        let new = [b0, b1];
        assert_eq!(
            tuple_distance(&old, &new, &cost, &TupleCost::uniform(2)).unwrap(),
            1 + 2
        );
        assert_eq!(
            tuple_distance(&old, &new, &cost, &TupleCost::weighted(vec![1, 100])).unwrap(),
            1 + 200
        );
    }

    #[test]
    fn display_is_line_oriented() {
        let meta = mm();
        let old = Model::new("m", Arc::clone(&meta));
        let mut new = old.clone();
        feature(&mut new, "engine");
        let d = Delta::between(&old, &new).unwrap();
        let printed = d.to_string();
        assert_eq!(printed.lines().count(), 2, "{printed}");
        assert!(printed.contains("+ @0"));
        assert!(printed.contains("\"engine\""));
    }
}
