#![warn(missing_docs)]
//! `xust-sax` — a small streaming (SAX-style) XML parser and writer.
//!
//! This crate is the event-level substrate used by the rest of the
//! workspace: the DOM tree in `xust-tree` is built from these events, and
//! the `twoPassSAX` transform algorithm of the paper (Section 6) runs
//! directly on the event stream so that memory stays bounded by document
//! depth rather than document size.
//!
//! The event model mirrors the paper's five event types:
//! `startDocument()`, `startElement(n)`, `text(t)`, `endElement(n)`,
//! `endDocument()`.
//!
//! # Example
//!
//! ```
//! use xust_sax::{SaxParser, SaxEvent};
//!
//! let xml = "<db><part pname='keyboard'/></db>";
//! let mut parser = SaxParser::from_str(xml);
//! let mut names = Vec::new();
//! while let Some(ev) = parser.next_event().unwrap() {
//!     if let SaxEvent::StartElement { name, .. } = ev {
//!         // `name` is an interned `Sym`: O(1) to compare, resolve on
//!         // demand.
//!         names.push(name.as_str());
//!     }
//! }
//! assert_eq!(names, ["db", "part"]);
//! ```

mod error;
mod escape;
mod event;
mod parser;
mod writer;

pub use error::{SaxError, SaxResult};
pub use escape::{escape_attr_into, escape_text_into, unescape};
pub use event::SaxEvent;
pub use parser::{SaxParser, DEFAULT_DEPTH_LIMIT};
pub use writer::{events_to_string, SaxWriter, NO_ATTRS};
// Re-exported so event consumers can name and intern symbols without a
// direct xust-intern dependency.
pub use xust_intern::{intern, Interner, IntoSym, Sym};
