//! # xmltext — textual XML 1.0 serialization of the bXDM model
//!
//! The paper's baseline encoding: SOAP's de-facto wire format. This crate
//! provides a writer (bXDM → XML 1.0 text) and a parser (XML 1.0 text →
//! bXDM), built from scratch with no external XML dependency.
//!
//! Two properties matter for the reproduction:
//!
//! * **Typed round trips** (paper §4.2): leaf elements serialize with an
//!   `xsi:type` attribute and array elements with a `bx:arrayType`
//!   attribute plus one child element per item, so the parser can rebuild
//!   the *typed* bXDM tree — this is what makes BXSA↔XML transcoding
//!   lossless (floats are canonicalized to shortest-round-trip form, the
//!   paper's stated exception).
//! * **The cost being measured**: every number crossing this codec passes
//!   through its ASCII lexical form. This conversion is precisely the
//!   bottleneck the paper attributes SOAP's poor scientific-data
//!   performance to, and it is what the BXSA path avoids.
//!
//! ```
//! use bxdm::{Document, Element, AtomicValue, ArrayValue};
//! use xmltext::{to_string, parse};
//!
//! let doc = Document::with_root(
//!     Element::component("data")
//!         .with_child(Element::leaf("n", AtomicValue::I32(7)))
//!         .with_child(Element::array("v", ArrayValue::F64(vec![1.5, -2.0]))),
//! );
//! let xml = to_string(&doc).unwrap();
//! let back = parse(&xml).unwrap();
//! assert_eq!(back, doc);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod escape;
pub mod field;
pub mod lexer;
mod markup;
pub mod num;
pub mod reader;
pub mod writer;

pub use error::{XmlError, XmlResult};
pub use field::{TypedText, XmlFieldReader, XmlFieldWriter, XmlHead, XmlItem};
pub use markup::MAX_DEPTH;
pub use reader::{parse, parse_into};
pub use writer::{to_string, to_string_with, write_element_into, write_into, XmlWriteOptions};

/// Prefix conventionally bound to the bXDM extension namespace (array
/// typing attributes).
pub const BX_PREFIX: &str = "bx";
/// The bXDM extension namespace URI.
pub const BX_URI: &str = "http://bxsoap.example.org/bxdm";
