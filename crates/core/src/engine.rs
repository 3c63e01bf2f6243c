//! Unified entry point over the five evaluation methods of the paper.

use std::fmt;

use xust_tree::Document;

use crate::copy_update::copy_update;
use crate::naive::{naive_direct, naive_xquery};
use crate::query::TransformQuery;
use crate::sax2pass::two_pass_sax_str;
use crate::topdown::top_down;
use crate::twopass::two_pass;

/// The five evaluation strategies compared in Section 7 (Fig. 12/13),
/// plus the rewriting variant run on the XQuery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Snapshot + in-place update (≈ GalaXUpdate).
    CopyUpdate,
    /// Section 3.1's rewriting plan, natively (NAIVE).
    Naive,
    /// Section 3.1's rewriting executed as generated XQuery text on the
    /// `xust-xquery` engine.
    NaiveXQuery,
    /// Section 3.3's automaton method with native qualifier evaluation
    /// (GENTOP).
    TopDown,
    /// Section 5's bottomUp + topDown (TD-BU).
    TwoPass,
    /// Section 6's streaming two-pass over SAX events.
    TwoPassSax,
}

impl Method {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [Method; 6] = [
        Method::CopyUpdate,
        Method::Naive,
        Method::NaiveXQuery,
        Method::TopDown,
        Method::TwoPass,
        Method::TwoPassSax,
    ];

    /// This method's position in [`Method::ALL`] (for per-method
    /// arrays): the declaration order is the `ALL` order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The label used in the paper's figures.
    pub fn paper_name(&self) -> &'static str {
        match self {
            Method::CopyUpdate => "GalaXUpdate",
            Method::Naive => "NAIVE",
            Method::NaiveXQuery => "NAIVE(xquery)",
            Method::TopDown => "GENTOP",
            Method::TwoPass => "TD-BU",
            Method::TwoPassSax => "twoPassSAX",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_name())
    }
}

/// Error from [`evaluate`].
#[derive(Debug)]
pub struct TransformError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transform evaluation error: {}", self.message)
    }
}

impl std::error::Error for TransformError {}

/// Evaluates `Qt(T)` with the chosen method. All methods produce
/// structurally identical results (the cross-method equivalence tests and
/// proptests enforce this); they differ only in cost profile.
pub fn evaluate(
    doc: &Document,
    q: &TransformQuery,
    method: Method,
) -> Result<Document, TransformError> {
    match method {
        Method::CopyUpdate => Ok(copy_update(doc, q)),
        Method::Naive => Ok(naive_direct(doc, q)),
        Method::NaiveXQuery => naive_xquery(doc, q).map_err(|message| TransformError { message }),
        Method::TopDown => Ok(top_down(doc, q)),
        Method::TwoPass => Ok(two_pass(doc, q)),
        Method::TwoPassSax => {
            // DOM-in, DOM-out convenience wrapper; use
            // `sax2pass::two_pass_sax_files` for true streaming.
            let xml = doc.serialize();
            let out = two_pass_sax_str(&xml, q).map_err(|e| TransformError {
                message: e.to_string(),
            })?;
            if out.is_empty() {
                return Ok(Document::new());
            }
            Document::parse(&out).map_err(|e| TransformError {
                message: e.to_string(),
            })
        }
    }
}

/// Evaluates a transform query written in concrete syntax.
///
/// ```
/// use xust_tree::Document;
/// use xust_core::{evaluate_str, Method};
///
/// let doc = Document::parse("<db><part><price>9</price></part></db>").unwrap();
/// let out = evaluate_str(
///     &doc,
///     r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
///     Method::TwoPass,
/// ).unwrap();
/// assert_eq!(out.serialize(), "<db><part/></db>");
/// ```
pub fn evaluate_str(
    doc: &Document,
    query: &str,
    method: Method,
) -> Result<Document, TransformError> {
    let q = crate::query::parse_transform(query).map_err(|e| TransformError {
        message: e.to_string(),
    })?;
    evaluate(doc, &q, method)
}

/// Re-exported so callers of the streaming API can pick Ld storage.
pub use crate::sax2pass::LdStorage as SaxLdStorage;

#[cfg(test)]
mod tests {
    use super::*;
    use xust_tree::docs_eq;
    use xust_xpath::parse_path;

    #[test]
    fn all_methods_agree() {
        let doc = Document::parse(
            "<db><part><pname>kb</pname><supplier><price>9</price><country>A</country></supplier></part><part><pname>m</pname><supplier><price>20</price><country>B</country></supplier></part></db>",
        )
        .unwrap();
        let queries = [
            TransformQuery::delete("db", parse_path("//price").unwrap()),
            TransformQuery::delete("db", parse_path("//supplier[country = 'A']/price").unwrap()),
            TransformQuery::insert(
                "db",
                parse_path("db/part[pname = 'kb']").unwrap(),
                Document::parse("<note>x</note>").unwrap(),
            ),
            TransformQuery::replace(
                "db",
                parse_path("//supplier[price < 15]").unwrap(),
                Document::parse("<hidden/>").unwrap(),
            ),
            TransformQuery::rename("db", parse_path("db/part").unwrap(), "component"),
        ];
        for q in &queries {
            let reference = evaluate(&doc, q, Method::CopyUpdate).unwrap();
            for m in Method::ALL {
                let got = evaluate(&doc, q, m).unwrap();
                assert!(
                    docs_eq(&reference, &got),
                    "{m} disagrees on {} {}:\nexpected {}\ngot      {}",
                    q.op.kind(),
                    q.path,
                    reference.serialize(),
                    got.serialize()
                );
            }
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::TopDown.paper_name(), "GENTOP");
        assert_eq!(Method::TwoPass.to_string(), "TD-BU");
        assert_eq!(Method::ALL.len(), 6);
        for (i, m) in Method::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m} sits at ALL[{i}]");
        }
    }

    #[test]
    fn evaluate_str_parses_and_runs() {
        let doc = Document::parse("<db><a><b/></a></db>").unwrap();
        for m in Method::ALL {
            let out = evaluate_str(
                &doc,
                r#"transform copy $a := doc("db") modify do delete $a//b return $a"#,
                m,
            )
            .unwrap();
            assert_eq!(out.serialize(), "<db><a/></db>", "{m}");
        }
    }

    #[test]
    fn bad_query_is_error() {
        let doc = Document::parse("<a/>").unwrap();
        assert!(evaluate_str(&doc, "garbage", Method::TopDown).is_err());
    }
}
