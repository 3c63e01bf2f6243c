//! Streaming composition of user and transform queries — the paper's
//! §9 future work ("extend our composition techniques to work with the
//! SAX based two-pass algorithm"), built from `xust-core`'s push-based
//! pass machinery.
//!
//! The transformed document `Qt(T)` is never materialized. Instead the
//! input is streamed three times:
//!
//! 1. **transform pass 1** — evaluate the qualifiers of `Qt`'s embedded
//!    path bottom-up ([`xust_core::PreparedTransform::prepare`]);
//! 2. **transform pass 2 → user pass 1** — replay the transform as an
//!    event stream and pipe it straight into a qualifier prepass for the
//!    *user* path ρ ([`xust_core::PathPrepass`]), producing the user
//!    path's own truth list over `Qt(T)`;
//! 3. **transform pass 2 → binding selector** — replay again; a
//!    [`xust_core::PathSelector`] replays the user truths, and each
//!    element selected by ρ is buffered as a small DOM on which the
//!    `where`/`return` body is evaluated with `$x` bound.
//!
//! Memory is O(depth · (|p| + |ρ|)) + |Ld| + the largest *matched
//! binding subtree* — still independent of |T| whenever the user query
//! selects bounded fragments (the usual case; a user query selecting the
//! root degenerates to buffering the document).
//!
//! Caveat (serialization): atomic items returned by the body are emitted
//! unescaped, exactly like [`Engine::serialize_value`]; bodies returning
//! raw strings containing XML metacharacters inside a wrapper element
//! may serialize differently than the DOM composition.

use std::io::{Read, Write};

use xust_core::{
    EventSink, LdStorage, PathPrepass, PathSelector, PreparedTransform, SaxStats,
    SaxTransformError, TransformQuery,
};
use xust_sax::{escape_attr_into, SaxEvent, SaxParser};
use xust_tree::{Document, NodeId};
use xust_xquery::{Engine, Item};

use crate::user::{ComposeError, UserQuery};

/// Statistics from a streaming composition run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamComposeStats {
    /// Transform pass-1/2 statistics.
    pub transform: SaxStats,
    /// User-path prepass statistics (over the transformed stream).
    pub user_prepass: SaxStats,
    /// Number of `$x` bindings produced.
    pub bindings: u64,
    /// Nodes in the largest buffered binding subtree (the memory bound
    /// beyond the automata stacks).
    pub peak_buffer_nodes: usize,
}

/// Streaming composition over three independent reads of the same input.
pub fn compose_two_pass_sax<R1: Read, R2: Read, R3: Read, W: Write>(
    pass1: SaxParser<R1>,
    pass2: SaxParser<R2>,
    pass3: SaxParser<R3>,
    qt: &TransformQuery,
    uq: &UserQuery,
    mut out: W,
) -> Result<StreamComposeStats, ComposeError> {
    if qt.doc_name != uq.doc_name {
        return Err(ComposeError::new(format!(
            "transform reads doc(\"{}\") but user query reads doc(\"{}\")",
            qt.doc_name, uq.doc_name
        )));
    }
    let ce = |e: SaxTransformError| ComposeError::new(e.to_string());

    // Pass 1: transform qualifiers.
    let mut prepared = PreparedTransform::prepare(pass1, qt, LdStorage::Memory).map_err(ce)?;

    // Pass 2: user-path qualifiers over the transformed stream.
    let mut upre = PathPrepass::new(&uq.source, LdStorage::Memory);
    prepared.replay_into(pass2, &mut upre).map_err(ce)?;
    let upath = upre.finish().map_err(ce)?;

    // Pass 3: select bindings, evaluate the body per binding.
    let mut body_out = String::new();
    let mut stats = StreamComposeStats {
        user_prepass: upath.stats,
        ..Default::default()
    };
    {
        let mut sink = BindingSink {
            sel: upath.selector(),
            buf: None,
            uq,
            out: &mut body_out,
            prev_atomic: false,
            bindings: &mut stats.bindings,
            peak: &mut stats.peak_buffer_nodes,
        };
        prepared.replay_into(pass3, &mut sink).map_err(ce)?;
    }
    stats.transform = prepared.stats;

    match &uq.wrapper {
        Some((name, attrs)) => {
            let mut open = format!("<{name}");
            for (k, v) in attrs {
                open.push(' ');
                open.push_str(k);
                open.push_str("=\"");
                escape_attr_into(v, &mut open);
                open.push('"');
            }
            if body_out.is_empty() {
                open.push_str("/>");
                out.write_all(open.as_bytes()).map_err(io_err)?;
            } else {
                open.push('>');
                out.write_all(open.as_bytes()).map_err(io_err)?;
                out.write_all(body_out.as_bytes()).map_err(io_err)?;
                out.write_all(format!("</{name}>").as_bytes())
                    .map_err(io_err)?;
            }
        }
        None => out.write_all(body_out.as_bytes()).map_err(io_err)?,
    }
    Ok(stats)
}

fn io_err(e: std::io::Error) -> ComposeError {
    ComposeError::new(format!("stream composition output: {e}"))
}

/// Convenience: compose over an in-memory document, returning the
/// serialized result.
pub fn compose_sax_str(
    xml: &str,
    qt: &TransformQuery,
    uq: &UserQuery,
) -> Result<String, ComposeError> {
    let mut out = Vec::new();
    compose_two_pass_sax(
        SaxParser::from_str(xml),
        SaxParser::from_str(xml),
        SaxParser::from_str(xml),
        qt,
        uq,
        &mut out,
    )?;
    Ok(String::from_utf8(out).expect("output is UTF-8"))
}

/// Convenience: compose file → file with bounded memory.
pub fn compose_sax_files(
    input: impl AsRef<std::path::Path>,
    qt: &TransformQuery,
    uq: &UserQuery,
    output: impl AsRef<std::path::Path>,
) -> Result<StreamComposeStats, ComposeError> {
    let open =
        |p: &std::path::Path| SaxParser::from_file(p).map_err(|e| ComposeError::new(e.to_string()));
    let out = std::io::BufWriter::new(std::fs::File::create(output).map_err(io_err)?);
    compose_two_pass_sax(
        open(input.as_ref())?,
        open(input.as_ref())?,
        open(input.as_ref())?,
        qt,
        uq,
        out,
    )
}

/// Buffer for one in-flight binding subtree.
struct BufState {
    doc: Document,
    stack: Vec<NodeId>,
    /// Binding nodes inside the buffer, in start (= document) order.
    marks: Vec<NodeId>,
}

/// Sink for pass 3: drives the user-path selector over the transformed
/// stream, buffers selected subtrees, evaluates the body per binding.
struct BindingSink<'a> {
    sel: PathSelector<'a>,
    buf: Option<BufState>,
    uq: &'a UserQuery,
    out: &'a mut String,
    /// Whether the last emitted item was atomic (for space-joining, as
    /// in `Engine::serialize_value`).
    prev_atomic: bool,
    bindings: &'a mut u64,
    peak: &'a mut usize,
}

impl BindingSink<'_> {
    fn flush(&mut self, buf: BufState) -> Result<(), SaxTransformError> {
        *self.peak = (*self.peak).max(buf.doc.node_count());
        let mut engine = Engine::new();
        let did = engine.load_doc("__xust_binding", buf.doc);
        for &m in &buf.marks {
            *self.bindings += 1;
            let v = engine
                .eval_expr(
                    &self.uq.body,
                    &[(self.uq.var.clone(), vec![Item::Node(did, m)])],
                )
                .map_err(|e| SaxTransformError::Sink(e.to_string()))?;
            let first_atomic = v.first().is_some_and(is_atomic);
            if self.prev_atomic && first_atomic {
                self.out.push(' ');
            }
            self.out.push_str(&engine.serialize_value(&v));
            if let Some(last) = v.last() {
                self.prev_atomic = is_atomic(last);
            }
        }
        Ok(())
    }
}

fn is_atomic(item: &Item) -> bool {
    !matches!(
        item,
        Item::DocNode(_) | Item::Node(_, _) | Item::Attr(_, _, _)
    )
}

impl EventSink for BindingSink<'_> {
    fn event(&mut self, ev: SaxEvent) -> Result<(), SaxTransformError> {
        match ev {
            SaxEvent::StartDocument | SaxEvent::EndDocument => {}
            SaxEvent::StartElement { name, attrs } => {
                let selected = self.sel.start_element(name);
                match &mut self.buf {
                    Some(buf) => {
                        let parent = *buf.stack.last().expect("buffer stack non-empty");
                        let n = buf.doc.create_element_with_attrs(name, attrs);
                        buf.doc.append_child(parent, n);
                        buf.stack.push(n);
                        if selected {
                            buf.marks.push(n);
                        }
                    }
                    None if selected => {
                        let mut doc = Document::new();
                        let n = doc.create_element_with_attrs(name, attrs);
                        doc.set_root(n);
                        self.buf = Some(BufState {
                            doc,
                            stack: vec![n],
                            marks: vec![n],
                        });
                    }
                    None => {}
                }
            }
            SaxEvent::Text(t) => {
                if let Some(buf) = &mut self.buf {
                    let parent = *buf.stack.last().expect("buffer stack non-empty");
                    let n = buf.doc.create_text(t);
                    buf.doc.append_child(parent, n);
                }
            }
            SaxEvent::EndElement(_) => {
                self.sel.end_element();
                if let Some(buf) = &mut self.buf {
                    buf.stack.pop();
                    if buf.stack.is_empty() {
                        let buf = self.buf.take().expect("just matched");
                        self.flush(buf)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compose, naive_composition_to_string};
    use xust_core::top_down;
    use xust_xpath::parse_path;

    fn doc_xml() -> &'static str {
        "<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price><country>A</country></supplier></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price><country>B</country></supplier></part></db>"
    }

    fn check(qt: &TransformQuery, uq_text: &str) {
        let uq = UserQuery::parse(uq_text).unwrap();
        let d = Document::parse(doc_xml()).unwrap();
        let expect = naive_composition_to_string(&d, qt, &uq).unwrap();
        let got = compose_sax_str(doc_xml(), qt, &uq).unwrap();
        assert_eq!(got, expect, "stream compose deviates for user {uq_text}");
        // And the DOM composition agrees too (three-way).
        let qc = compose(qt, &uq).unwrap();
        assert_eq!(qc.execute_to_string(&d).unwrap(), expect);
    }

    #[test]
    fn example_41_security_view() {
        // Example 4.1: delete suppliers from country A, then ask for
        // keyboard suppliers.
        let qt = TransformQuery::delete("foo", parse_path("//supplier[country = 'A']").unwrap());
        check(
            &qt,
            "<result>{ for $x in doc(\"foo\")/db/part[pname = 'keyboard']/supplier return $x }</result>",
        );
        check(
            &qt,
            "<result>{ for $x in doc(\"foo\")/db/part[pname = 'mouse']/supplier return $x }</result>",
        );
    }

    #[test]
    fn insert_transform_with_descendant_user_path() {
        let qt = TransformQuery::insert(
            "foo",
            parse_path("//part[pname = 'keyboard']").unwrap(),
            Document::parse("<supplier><sname>New</sname></supplier>").unwrap(),
        );
        check(&qt, "for $x in doc(\"foo\")//supplier/sname return $x");
    }

    #[test]
    fn rename_transform_streamed() {
        let qt = TransformQuery::rename("foo", parse_path("//supplier").unwrap(), "vendor");
        check(&qt, "for $x in doc(\"foo\")//vendor/sname return $x");
    }

    #[test]
    fn replace_transform_streamed() {
        let qt = TransformQuery::replace(
            "foo",
            parse_path("//supplier[price < 15]").unwrap(),
            Document::parse("<supplier><sname>cheap</sname></supplier>").unwrap(),
        );
        check(&qt, "for $x in doc(\"foo\")//supplier/sname return $x");
    }

    #[test]
    fn nested_bindings_buffer_once() {
        // ρ = //part with nested parts: outer buffer holds both bindings.
        let xml = "<db><part><pname>a</pname><part><pname>b</pname></part></part></db>";
        let qt = TransformQuery::delete("d", parse_path("//pname[. = 'zzz']").unwrap());
        let uq = UserQuery::parse("for $x in doc(\"d\")//part/pname return $x").unwrap();
        let d = Document::parse(xml).unwrap();
        let expect = naive_composition_to_string(&d, &qt, &uq).unwrap();
        assert_eq!(compose_sax_str(xml, &qt, &uq).unwrap(), expect);
    }

    #[test]
    fn where_clause_body_on_buffered_binding() {
        let qt = TransformQuery::delete("d", parse_path("//country").unwrap());
        check(
            &qt,
            "<out>{ for $x in doc(\"d\")/db/part/supplier where $x/price = '12' return $x/sname }</out>",
        );
    }

    #[test]
    fn empty_result_wrapper_collapses() {
        let qt = TransformQuery::delete("d", parse_path("//part").unwrap());
        let uq = UserQuery::parse("<out>{ for $x in doc(\"d\")//part return $x }</out>").unwrap();
        let d = Document::parse(doc_xml()).unwrap();
        let expect = naive_composition_to_string(&d, &qt, &uq).unwrap();
        assert_eq!(compose_sax_str(doc_xml(), &qt, &uq).unwrap(), expect);
        assert_eq!(expect, "<out/>");
    }

    #[test]
    fn root_deleted_stream_is_empty() {
        let qt = TransformQuery::delete("d", parse_path("//db").unwrap());
        let uq = UserQuery::parse("for $x in doc(\"d\")//part return $x").unwrap();
        assert_eq!(compose_sax_str(doc_xml(), &qt, &uq).unwrap(), "");
    }

    #[test]
    fn stats_report_bindings_and_buffer_bound() {
        let qt = TransformQuery::delete("d", parse_path("//country").unwrap());
        let uq = UserQuery::parse("for $x in doc(\"d\")//supplier return $x").unwrap();
        let mut out = Vec::new();
        let stats = compose_two_pass_sax(
            SaxParser::from_str(doc_xml()),
            SaxParser::from_str(doc_xml()),
            SaxParser::from_str(doc_xml()),
            &qt,
            &uq,
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.bindings, 2);
        // Each supplier subtree (post-delete) has 5 nodes: supplier,
        // sname, text, price, text.
        assert_eq!(stats.peak_buffer_nodes, 5);
        // The result itself reflects the transform: no country elements.
        assert!(!String::from_utf8(out).unwrap().contains("country"));
    }

    #[test]
    fn matches_dom_transform_then_query() {
        // End-to-end sanity against the DOM pipeline on a larger doc.
        let xml = xust_xmark::generate_string(xust_xmark::XmarkConfig::new(0.003).with_seed(7));
        let qt = TransformQuery::delete("x", parse_path("//price").unwrap());
        let uq = UserQuery::parse(
            "<result>{ for $x in doc(\"x\")/site/regions//item/location return $x }</result>",
        )
        .unwrap();
        let d = Document::parse(&xml).unwrap();
        let transformed = top_down(&d, &qt);
        let mut engine = Engine::new();
        engine.load_doc("x", transformed);
        let expect = {
            let v = engine.eval_expr(&uq.to_expr(), &[]).unwrap();
            engine.serialize_value(&v)
        };
        assert_eq!(compose_sax_str(&xml, &qt, &uq).unwrap(), expect);
    }
}
