//! # bXDM — an XQuery/XPath Data Model extended for scientific data
//!
//! bXDM is the logical data model at the heart of the HPDC 2006 paper
//! *"Building a Generic SOAP Framework over Binary XML"*. It is the
//! XQuery 1.0 / XPath 2.0 Data Model (XDM) — chosen over the XML Infoset
//! because XDM carries **typed atomic values** — extended with two element
//! refinements that make numeric scientific payloads cheap:
//!
//! * **LeafElement** — an element whose entire content is a single typed
//!   atomic value (`<t xsi:type="xsd:int">42</t>`), stored in machine
//!   representation, so no integer/float ↔ ASCII conversion is needed when
//!   the document is encoded in binary.
//! * **ArrayElement** — an element representing a whole array of
//!   same-typed items as *one* node, stored as a packed `Vec<T>` —
//!   compatible with the packed layouts used by C and Fortran codes —
//!   rather than thousands of repeated child elements.
//!
//! All seven XDM node kinds (document, element, attribute, namespace,
//! processing instruction, text, comment) are representable; the SOAP
//! engine, the textual XML codec and the BXSA binary codec all operate on
//! this model, which is what lets applications switch serializations
//! without code changes.
//!
//! ```
//! use bxdm::{Element, AtomicValue, ArrayValue};
//!
//! let doc = Element::component("data:Dataset")
//!     .with_namespace("data", "http://example.org/data")
//!     .with_child(
//!         Element::array("data:values", ArrayValue::F64(vec![1.0, 2.5, -3.0])),
//!     )
//!     .with_child(Element::leaf("data:count", AtomicValue::I32(3)));
//!
//! assert_eq!(doc.find_child("values").unwrap().as_f64_array().unwrap(), &[1.0, 2.5, -3.0]);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod name;
pub mod namespace;
pub mod navigate;
pub mod node;
pub mod value;
pub mod visitor;

pub use name::QName;
pub use namespace::{NamespaceDecl, NsContext, ScopeChain, XMLNS_PREFIX, XSD_URI, XSI_URI};
pub use node::{Attribute, Content, Document, Element, Node};
pub use value::{ArrayValue, AtomicValue, ValueParseError};
pub use visitor::{walk_document, walk_element, walk_node, Visitor};
