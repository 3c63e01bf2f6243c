//! SAX layer invariants: parse→serialize roundtrips, event-stream
//! equivalence with the DOM, and escaping correctness on hostile text.

use proptest::prelude::*;

use xust::sax::{events_to_string, SaxEvent, SaxParser};
use xust::tree::{docs_eq, Document, ElementBuilder};

const LABELS: [&str; 4] = ["a", "b", "long-name.x", "_u"];
// Texts that force escaping and whitespace handling — including CR/LF/
// tab content, which the writer must protect with character references
// so the reader's XML 1.0 §2.11/§3.3.3 normalization cannot corrupt a
// round-trip.
const TEXTS: [&str; 14] = [
    "plain",
    "a<b",
    "x&y",
    "\"q\" 'p'",
    "  padded  ",
    "2>1",
    "l1\r\nl2\rl3",
    "tab\there\nand newline",
    // Multi-byte UTF-8 right next to every escapable byte.
    "é<ü&€",
    "😀>\"'😀",
    // Nothing but escapes.
    "<&>",
    // Escapes on the first and the last byte.
    "&edges<",
    "\"ends'",
    // CR, LF and TAB together (each a reference inside attributes).
    "cr\rlf\ntab\tend",
];

fn arb_tree(depth: u32) -> impl Strategy<Value = ElementBuilder> {
    let leaf = (0..LABELS.len(), proptest::option::of(0..TEXTS.len())).prop_map(|(l, t)| {
        let mut b = ElementBuilder::new(LABELS[l]);
        if let Some(t) = t {
            b = b.text(TEXTS[t]);
        }
        b
    });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            0..LABELS.len(),
            proptest::option::of((0..2usize, 0..TEXTS.len())),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(l, attr, children)| {
                let mut b = ElementBuilder::new(LABELS[l]);
                if let Some((k, v)) = attr {
                    b = b.attr(["k", "id"][k], TEXTS[v]);
                }
                for c in children {
                    b = b.child(c);
                }
                b
            })
    })
}

fn arb_doc() -> impl Strategy<Value = Document> {
    arb_tree(3).prop_map(|b| ElementBuilder::new("root").child(b).build_document())
}

/// Collects the SAX events of a serialized document.
fn events_of(xml: &str) -> Vec<SaxEvent> {
    SaxParser::from_str(xml).collect_events().expect("parses")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// serialize ∘ parse = id on the event stream (modulo Start/End
    /// document framing).
    #[test]
    fn serialize_parse_event_fixpoint(doc in arb_doc()) {
        let xml = doc.serialize();
        let events = events_of(&xml);
        // Events re-serialized give back the same bytes.
        let again = events_to_string(&events).expect("serializable");
        prop_assert_eq!(again, xml);
    }

    /// The DOM built from SAX events equals the original document.
    #[test]
    fn dom_roundtrip(doc in arb_doc()) {
        let xml = doc.serialize();
        let reparsed = Document::parse(&xml).expect("well-formed");
        prop_assert!(docs_eq(&doc, &reparsed));
    }

    /// Escaping is involutive: text content and attribute values survive
    /// a full write/read cycle byte-for-byte.
    #[test]
    fn hostile_text_survives(t in prop::sample::select(TEXTS.to_vec()), a in prop::sample::select(TEXTS.to_vec())) {
        let mut d = Document::new();
        let r = d.create_element_with_attrs("r", vec![("k".into(), a.to_string())]);
        let txt = d.create_text(t);
        d.append_child(r, txt);
        d.set_root(r);
        let xml = d.serialize();
        let back = Document::parse(&xml).expect("well-formed");
        let root = back.root().unwrap();
        prop_assert_eq!(back.attr(root, "k"), Some(a));
        prop_assert_eq!(back.immediate_text(root), t);
    }
}

#[test]
fn event_shapes() {
    let events = events_of("<a k=\"v\">hi<b/></a>");
    assert!(matches!(&events[0], SaxEvent::StartDocument));
    assert!(
        matches!(&events[1], SaxEvent::StartElement { name, attrs } if name == "a" && attrs.len() == 1)
    );
    assert!(matches!(&events[2], SaxEvent::Text(t) if t == "hi"));
    assert!(matches!(&events[3], SaxEvent::StartElement { name, .. } if name == "b"));
    assert!(matches!(&events[4], SaxEvent::EndElement(n) if n == "b"));
    assert!(matches!(&events[5], SaxEvent::EndElement(n) if n == "a"));
    assert!(matches!(&events[6], SaxEvent::EndDocument));
}

#[test]
fn whitespace_only_text_preserved() {
    let xml = "<a> <b/> </a>";
    assert_eq!(events_to_string(&events_of(xml)).unwrap(), xml);
}

#[test]
fn crlf_cdata_entity_roundtrip() {
    // One document exercising every §2.11/§3.3.3 normalization case:
    // CRLF and bare CR in text, literal whitespace in attribute values,
    // CDATA with CRLF content, and character references (exempt).
    let xml = "<r a=\"v1\r\nv2\tv3\">line1\r\nline2\rline3<![CDATA[cd\r\nata <&]]>&#13;tail</r>";
    let d1 = Document::parse(xml).unwrap();
    let root = d1.root().unwrap();
    assert_eq!(d1.attr(root, "a"), Some("v1 v2 v3"));
    assert_eq!(
        d1.immediate_text(root),
        "line1\nline2\nline3cd\nata <&\rtail"
    );
    // parse ∘ serialize is an identity from here on.
    let s1 = d1.serialize();
    let d2 = Document::parse(&s1).unwrap();
    assert!(docs_eq(&d1, &d2));
    assert_eq!(d2.serialize(), s1);
}

#[test]
fn crlf_roundtrip_via_events() {
    // CRLF content normalizes on the first parse, then re-serializes to
    // a stable fixpoint (CR protected as a character reference).
    let once = events_to_string(&events_of("<a>x\r\ny</a>")).unwrap();
    assert_eq!(once, "<a>x\ny</a>");
    let twice = events_to_string(&events_of(&once)).unwrap();
    assert_eq!(twice, once);
    // A bare CR that must *survive* (entered via reference).
    let once = events_to_string(&events_of("<a>x&#13;y</a>")).unwrap();
    assert_eq!(once, "<a>x&#13;y</a>");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// parse → serialize → parse is an identity on XMark documents
    /// spiked with CDATA sections, entity references, and CRLF line
    /// endings — the workload shape the serve layer re-parses on every
    /// streamed response.
    #[test]
    fn xmark_parse_serialize_parse_identity(seed in 0u64..1024) {
        let base = xust::xmark::generate_string(
            xust::xmark::XmarkConfig::new(0.0015).with_seed(seed),
        );
        // Splice hostile content into the closing region of the doc so
        // the parser sees CDATA, entities, and CRLF in one pass.
        let tail = "</site>";
        assert!(base.ends_with(tail));
        let spiked = format!(
            "{}<extra note=\"a\r\nb\tc\">one\r\ntwo\rthree<![CDATA[x\r\n<&]]>&#13;&amp;end</extra>{}",
            &base[..base.len() - tail.len()],
            tail
        );
        let d1 = Document::parse(&spiked).expect("spiked xmark parses");
        let s1 = d1.serialize();
        let d2 = Document::parse(&s1).expect("serialized form parses");
        prop_assert!(docs_eq(&d1, &d2), "parse∘serialize is not an identity");
        prop_assert_eq!(d2.serialize(), s1, "serialization is not a fixpoint");
    }
}
