//! # mmt-model — metamodel and model substrate
//!
//! The MDE substrate the paper assumes from Eclipse/EMF, rebuilt from
//! scratch: metamodels ([`Metamodel`]) describe classes with attributes,
//! references and inheritance; models ([`Model`]) are typed object graphs
//! conforming to a metamodel. A textual format ([`text`]) and a
//! conformance validator ([`conformance`]) round the substrate out.
//!
//! Everything downstream — the QVT-R front-end, the checking engine, the
//! enforcement engines — operates on these types.

pub mod conformance;
pub mod fx;
pub mod intern;
pub mod meta;
pub mod mmt_sync;
pub mod model;
pub mod text;
pub mod value;

pub use intern::Sym;
pub use meta::{
    Attr, AttrId, Class, ClassId, MetaError, Metamodel, MetamodelBuilder, PropId, RefId, Reference,
    Upper,
};
pub use model::{Model, ModelError, ObjId, Object};
pub use value::{AttrType, Value};
