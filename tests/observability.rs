//! End-to-end observability: the METRICS exposition parses line by
//! line, STATS, `--stats-json` and METRICS agree on every registry row,
//! histograms stay conserved under concurrency, TRACE captures a slow
//! request's phase breakdown (the write floor and a cache hit's
//! re-serialization included), and EXPLAIN predicts the method the
//! planner then actually picks.

use std::collections::HashMap;

use xust::serve::{LatencyHistogram, Phase, PlannerConfig, Request, Server, Verb, REGISTRY};

/// A memory document big enough to clear the planner's tiny-doc
/// threshold (3 nodes per part + root).
fn big_doc(parts: usize) -> String {
    let mut xml = String::from("<db>");
    for i in 0..parts {
        xml.push_str(&format!("<part><price>{i}</price><n>p{i}</n></part>"));
    }
    xml.push_str("</db>");
    xml
}

fn view_query() -> &'static str {
    r#"transform copy $a := doc("db") modify do delete $a//price return $a"#
}

/// A METRICS sample: series name and its `(label, value)` pairs, values
/// unescaped.
type Series = (String, Vec<(String, String)>);

/// Validates one line of the Prometheus text exposition —
/// `name{label="v",…} value` or a `#`-prefixed comment — and returns
/// the parsed sample (`None` for a comment).
fn parse_metric_line(line: &str) -> Option<(Series, f64)> {
    if let Some(comment) = line.strip_prefix('#') {
        assert!(comment.starts_with(' '), "malformed comment line: {line:?}");
        return None;
    }
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in {line:?}"));
    let value = value
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
    let (name, labels) = match series.split_once('{') {
        Some((name, labels)) => {
            let labels = labels
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
            (name, parse_labels(labels, line))
        }
        None => (series, Vec::new()),
    };
    assert!(!name.is_empty(), "empty metric name in {line:?}");
    assert!(
        !name.starts_with(|c: char| c.is_ascii_digit()),
        "metric name starts with digit in {line:?}"
    );
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name {name:?} in {line:?}"
    );
    Some(((name.to_string(), labels), value))
}

fn assert_metric_line(line: &str) {
    parse_metric_line(line);
}

/// Walks `k="v",k="v"`. A value runs to its first unescaped `"`, which
/// must end the pair, so an unescaped `"` inside a value is rejected;
/// the only escapes are `\\`, `\"` and `\n`.
fn parse_labels(mut rest: &str, line: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    loop {
        let (key, after) = rest
            .split_once("=\"")
            .unwrap_or_else(|| panic!("label without '=\"' in {line:?}"));
        assert!(
            !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad label key {key:?} in {line:?}"
        );
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next() {
                Some((_, '\\')) => value.push(match chars.next() {
                    Some((_, '\\')) => '\\',
                    Some((_, '"')) => '"',
                    Some((_, 'n')) => '\n',
                    other => panic!("bad escape {other:?} in {line:?}"),
                }),
                Some((i, '"')) => break i,
                Some((_, c)) => value.push(c),
                None => panic!("unterminated label value in {line:?}"),
            }
        };
        pairs.push((key.to_string(), value));
        rest = &after[end + 1..];
        if rest.is_empty() {
            return pairs;
        }
        rest = rest
            .strip_prefix(',')
            .unwrap_or_else(|| panic!("unescaped '\"' inside a label value in {line:?}"));
    }
}

#[test]
fn metric_line_check_rejects_unescaped_quotes() {
    assert_metric_line(r#"xust_x{scope="view",key="pub\"lic"} 1"#);
    let malformed =
        std::panic::catch_unwind(|| assert_metric_line(r#"xust_x{scope="view",key="pub"lic"} 1"#));
    assert!(malformed.is_err(), "an unescaped quote must be rejected");
}

#[test]
fn metrics_exposition_parses_and_covers_verbs_views_methods() {
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", &big_doc(40)).unwrap();
    server.register_view("public", view_query()).unwrap();
    // A view name a label value must escape.
    server.register_view("pub\"lic", view_query()).unwrap();
    // A mixed workload so every series family has data.
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "pub\"lic".into(),
            doc: "db".into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    server
        .handle(&Request::Query {
            view: "public".into(),
            doc: "db".into(),
            query: r#"<out>{ for $x in doc("db")/db/part return $x }</out>"#.into(),
        })
        .unwrap();
    server
        .handle(&Request::Transform {
            doc: "db".into(),
            query: view_query().into(),
        })
        .unwrap();
    server
        .handle(&Request::Update {
            doc: "db".into(),
            update: r#"transform copy $a := doc("db") modify do insert <x/> into $a/db return $a"#
                .into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "nope".into(),
            doc: "db".into(),
        })
        .unwrap_err();

    let text = server.metrics();
    assert!(!text.is_empty());
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert_metric_line(line);
    }
    // Per-verb counters, including the error and METRICS itself.
    assert!(text.contains("xust_verb_requests_total{verb=\"view\"} 4"));
    assert!(text.contains("xust_verb_errors_total{verb=\"view\"} 1"));
    assert!(text.contains("xust_verb_requests_total{verb=\"update\"} 1"));
    assert!(text.contains("xust_verb_requests_total{verb=\"metrics\"} 1"));
    // Latency summaries per verb, per view, and per method.
    assert!(text.contains("# TYPE xust_latency_micros summary"));
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            text.contains(&format!(
                "xust_latency_micros{{scope=\"verb\",key=\"view\",quantile=\"{q}\"}}"
            )),
            "missing verb quantile {q}: {text}"
        );
    }
    assert!(text.contains("xust_latency_micros{scope=\"view\",key=\"public\",quantile=\"0.5\"}"));
    assert!(
        text.contains("xust_latency_micros_count{scope=\"view\",key=\"pub\\\"lic\"} 1"),
        "quoted view name not escaped: {text}"
    );
    assert!(text.contains("scope=\"method\""));
    assert!(text.contains("xust_method_executions_total"));
    // Gauges and cache counters ride along.
    assert!(text.contains("xust_store_docs"));
    assert!(text.contains("xust_prepared_cache_hits{cache=\"transforms\"}"));
}

#[test]
fn histograms_conserve_count_and_sum_under_concurrency() {
    use std::sync::Arc;
    let hist = Arc::new(LatencyHistogram::new());
    let reference = LatencyHistogram::new();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let sample = |t: u64, i: u64| (t * 131 + i * 17) % 250_000 + 1;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record(sample(t, i));
                }
            })
        })
        .collect();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.record(sample(t, i));
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    let (got, want) = (hist.snapshot(), reference.snapshot());
    assert_eq!(got.count, THREADS * PER_THREAD);
    assert_eq!(got.sum, want.sum, "sum lost under concurrency");
    assert_eq!(got.max, want.max);
    // Quantiles land in exactly the same buckets: recording is
    // commutative, so the concurrent histogram equals the serial one.
    assert_eq!((got.p50, got.p90, got.p99), (want.p50, want.p90, want.p99));
}

#[test]
fn trace_captures_slow_request_phase_breakdown() {
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", &big_doc(3000)).unwrap();
    server.register_view("public", view_query()).unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();

    let traces = server.obs().recent_traces(8);
    let view = traces
        .iter()
        .find(|t| t.target == "public/db")
        .expect("view request was traced");
    assert!(view.ok);
    assert!(view.micros > 0);
    assert!(
        view.phases().iter().any(|(p, _)| *p == Phase::Eval),
        "no Eval phase in {:?}",
        view.phases()
    );
    // The phase breakdown accounts for the request: each phase fits
    // inside the total, and together they cover most of it (the
    // remainder is dispatch glue between the bracketed sections).
    let phase_sum: u64 = view.phases().iter().map(|&(_, us)| us).sum();
    assert!(
        phase_sum <= view.micros + view.micros / 5 + 50,
        "phases sum to {phase_sum}µs but the request took {}µs",
        view.micros
    );
    assert!(
        phase_sum * 2 >= view.micros,
        "phases cover only {phase_sum}µs of {}µs",
        view.micros
    );
    // The materialization was slow enough to make the slow log, and the
    // rendered TRACE output carries the breakdown.
    assert!(server
        .obs()
        .slowest_traces()
        .iter()
        .any(|t| t.seq == view.seq));
    let rendered = server.traces(8);
    assert!(rendered.contains("view public/db"), "{rendered}");
    assert!(rendered.contains("phases["), "{rendered}");
    assert!(rendered.contains("slowest:"), "{rendered}");
}

#[test]
fn tracing_disabled_records_nothing_but_serves_metrics() {
    let server = Server::builder().threads(2).tracing(false).build();
    server.load_doc_str("db", &big_doc(20)).unwrap();
    server.register_view("public", view_query()).unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.obs().requests_traced(), 0);
    assert!(server.obs().recent_traces(8).is_empty());
    assert!(server.traces(8).contains("tracing disabled"));
    // Counters are unconditional: METRICS still reflects the request.
    let text = server.metrics();
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert_metric_line(line);
    }
    assert!(text.contains("xust_verb_requests_total{verb=\"view\"} 1"));
}

#[test]
fn explain_predicts_the_method_the_planner_then_picks() {
    // Exploration off and the result cache disabled: every VIEW
    // re-materializes, and between EXPLAIN and the next VIEW no
    // feedback lands — the two must agree exactly.
    let server = Server::builder()
        .threads(1)
        .result_cache_capacity(0)
        .planner(PlannerConfig {
            explore_every: 0,
            ..PlannerConfig::default()
        })
        .build();
    server.load_doc_str("db", &big_doc(2000)).unwrap();
    server.register_view("public", view_query()).unwrap();
    // Warm the planner's feedback cells.
    for _ in 0..4 {
        server
            .handle(&Request::View {
                view: "public".into(),
                doc: "db".into(),
            })
            .unwrap();
    }
    let explanation = server.explain("public", "db").unwrap();
    assert_eq!(explanation.links.len(), 1);
    let predicted = explanation.links[0].method;
    assert!(!explanation.links[0].fixed, "memory chain is adaptive");
    // The warmed candidate carries both kinds of evidence.
    let chosen_evidence = explanation.links[0]
        .candidates
        .iter()
        .find(|c| c.method == predicted)
        .expect("predicted method is among the candidates");
    assert!(chosen_evidence.ewma.is_some(), "no EWMA after warming");
    assert!(
        chosen_evidence.histogram.is_some(),
        "no histogram after warming"
    );
    let resp = server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(
        resp.method,
        Some(predicted),
        "EXPLAIN predicted {predicted} but the planner picked {:?}",
        resp.method
    );
    // EXPLAIN itself never perturbs the plan: asking again agrees.
    assert_eq!(
        server.explain("public", "db").unwrap().links[0].method,
        predicted
    );
}

/// A parsed JSON value — just enough JSON for `render_json`'s output.
#[derive(Debug)]
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut at = 0;
        let value = Json::value(text.as_bytes(), &mut at);
        assert_eq!(at, text.len(), "trailing bytes after JSON value");
        value
    }

    fn value(s: &[u8], at: &mut usize) -> Json {
        let (open, close) = match s[*at] {
            b'"' => return Json::Str(Json::string(s, at)),
            b'{' => (b'{', b'}'),
            b'[' => (b'[', b']'),
            _ => {
                let start = *at;
                while *at < s.len() && s[*at].is_ascii_digit() {
                    *at += 1;
                }
                let digits = std::str::from_utf8(&s[start..*at]).unwrap();
                return Json::Num(digits.parse().expect("unsigned integer"));
            }
        };
        *at += 1;
        let (mut fields, mut items) = (Vec::new(), Vec::new());
        while s[*at] != close {
            if s[*at] == b',' {
                *at += 1;
            }
            if open == b'{' {
                let key = Json::string(s, at);
                assert_eq!(s[*at], b':', "object key without ':'");
                *at += 1;
                fields.push((key, Json::value(s, at)));
            } else {
                items.push(Json::value(s, at));
            }
        }
        *at += 1;
        if open == b'{' {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        }
    }

    fn string(s: &[u8], at: &mut usize) -> String {
        assert_eq!(s[*at], b'"');
        *at += 1;
        let mut out = Vec::new();
        while s[*at] != b'"' {
            if s[*at] == b'\\' {
                *at += 1;
                out.push(match s[*at] {
                    b'n' => b'\n',
                    b'r' => b'\r',
                    b't' => b'\t',
                    c @ (b'"' | b'\\') => c,
                    c => panic!("unexpected escape \\{}", c as char),
                });
            } else {
                out.push(s[*at]);
            }
            *at += 1;
        }
        *at += 1;
        String::from_utf8(out).unwrap()
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let mut hits = self.fields().iter().filter(|(k, _)| k == key);
        let (_, v) = hits.next().unwrap_or_else(|| panic!("no key {key:?}"));
        assert!(hits.next().is_none(), "duplicate key {key:?}");
        v
    }

    fn num(&self) -> u64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

/// `STATS` lines keyed by `(family, labels)`, each a `key → value` map.
fn parse_stats(text: &str) -> HashMap<(String, Vec<String>), HashMap<String, u64>> {
    let mut rows = HashMap::new();
    for line in text.lines() {
        let (head, body) = line
            .split_once(": ")
            .unwrap_or_else(|| panic!("STATS line without ': ' {line:?}"));
        let mut head = head.split(' ').map(str::to_string);
        let family = head.next().unwrap();
        let values: HashMap<String, u64> = body
            .split(' ')
            .map(|pair| {
                let (k, v) = pair.split_once('=').expect("key=value");
                (k.to_string(), v.parse().expect("integer value"))
            })
            .collect();
        let key = (family, head.collect());
        assert!(
            rows.insert(key, values).is_none(),
            "duplicate STATS row {line:?}"
        );
    }
    rows
}

/// A document and views on which four writes take the four maintenance
/// fates in turn: static retain, dynamic retain, patch, recompute.
fn fates_server() -> Server {
    let mut xml = String::from("<db>");
    for i in 0..40 {
        xml.push_str(&format!("<part><price>{i}</price><n>p{i}</n></part>"));
    }
    xml.push_str("<aux><k/></aux><notes><note>a</note><note>b</note></notes></db>");
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", &xml).unwrap();
    for (name, op) in [
        ("public", "delete $a//price"),
        ("renote", "rename $a//note as memo"),
        ("cheap", "delete $a//part[price > 30]"),
        ("pub\"lic", "delete $a//n"),
    ] {
        let q = format!(r#"transform copy $a := doc("db") modify do {op} return $a"#);
        server.register_view(name, &q).unwrap();
    }
    server
}

fn view(server: &Server, name: &str) {
    server
        .handle(&Request::View {
            view: name.into(),
            doc: "db".into(),
        })
        .unwrap();
}

#[test]
fn stats_json_and_metrics_agree_on_every_registry_row() {
    let server = fates_server();
    let views = ["public", "renote", "cheap", "pub\"lic"];
    // A VIEW miss per view, then a hit.
    for name in views {
        view(&server, name);
    }
    view(&server, "public");
    // Static retain, dynamic retain, patch, recompute — re-reading
    // every view between writes so each write finds cached entries.
    for op in [
        "insert <spare/> into $a/db/aux/k",
        "insert <spare/> into $a//k",
        "insert <note>c</note> into $a/db/notes",
        r#"rename $a/db/part[n = "p3"]/price as cost"#,
    ] {
        let update = format!(r#"transform copy $a := doc("db") modify do {op} return $a"#);
        server
            .handle(&Request::Update {
                doc: "db".into(),
                update,
            })
            .unwrap();
        for name in views {
            view(&server, name);
        }
    }
    server
        .handle(&Request::Transform {
            doc: "db".into(),
            query: view_query().into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "nope".into(),
            doc: "db".into(),
        })
        .unwrap_err();

    let metrics = server.metrics();
    let snap = server.stats();
    // The workload reached everything the issue-level contract names.
    assert!(snap.result_hits > 0 && snap.result_misses > 0);
    assert!(snap.static_retained > 0, "no static retain");
    assert!(
        snap.delta_retained > snap.static_retained,
        "no dynamic retain"
    );
    assert!(snap.delta_patched > 0, "no patch");
    assert!(snap.delta_recomputed > 0, "no recompute");
    assert_eq!((snap.transform_requests, snap.failures), (1, 1));
    assert_eq!(snap.verbs[Verb::Metrics.index()], (Verb::Metrics, 1, 0));

    let stats = parse_stats(&snap.to_string());
    let json = Json::parse(&snap.render_json());
    let mut series: HashMap<Series, f64> = HashMap::new();
    for line in metrics.lines() {
        if let Some((key, value)) = parse_metric_line(line) {
            assert!(series.insert(key, value).is_none(), "duplicate {line:?}");
        }
    }
    let (mut samples, mut lines, mut json_keys) = (0, 0, 0);
    for family in REGISTRY {
        let rows = (family.rows)(&snap);
        if family.labels.is_empty() {
            json_keys += family.metrics.len();
        } else {
            json_keys += 1;
            let Json::Arr(items) = json.get(family.key) else {
                panic!("{} is not a JSON array", family.key);
            };
            assert_eq!(items.len(), rows.len(), "{} JSON rows", family.key);
        }
        for row in &rows {
            lines += 1;
            let labels: Vec<String> = row.labels.iter().map(|l| l.to_string()).collect();
            let stats_row = &stats[&(family.key.to_string(), labels.clone())];
            let json_row = if family.labels.is_empty() {
                &json
            } else {
                let Json::Arr(items) = json.get(family.key) else {
                    unreachable!()
                };
                let matches = |item: &&Json| {
                    (family.labels.iter().zip(&labels))
                        .all(|(name, v)| matches!(item.get(name), Json::Str(s) if s == v))
                };
                let mut found = items.iter().filter(matches);
                let item = found.next().expect("JSON row for every registry row");
                assert!(found.next().is_none(), "duplicate JSON row {labels:?}");
                item
            };
            for (metric, &value) in family.metrics.iter().zip(&row.values) {
                samples += 1;
                let what = format!("{} {labels:?} {}", family.key, metric.key);
                assert_eq!(stats_row[metric.key], value, "STATS {what}");
                assert_eq!(json_row.get(metric.key).num(), value, "JSON {what}");
                let mut pairs: Vec<(String, String)> = (family.labels.iter().zip(&labels))
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                pairs.extend(
                    metric
                        .quantile
                        .map(|q| ("quantile".to_string(), q.to_string())),
                );
                let got = series.get(&(metric.series.to_string(), pairs));
                assert_eq!(got, Some(&(value as f64)), "METRICS {what}");
            }
        }
    }
    // Nothing is rendered outside the registry.
    assert_eq!(series.len(), samples, "METRICS samples");
    assert_eq!(stats.len(), lines, "STATS lines");
    assert_eq!(json.fields().len(), json_keys, "JSON top-level keys");
}

#[test]
fn update_trace_attributes_wal_append_and_tree_clone() {
    let wal = std::env::temp_dir().join(format!("xust-obs-phases-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let server = Server::builder().threads(1).build();
    server.attach_wal(&wal).unwrap();
    server.load_doc_str("db", &big_doc(200)).unwrap();
    server
        .handle(&Request::Update {
            doc: "db".into(),
            update: r#"transform copy $a := doc("db") modify do insert <x/> into $a/db return $a"#
                .into(),
        })
        .unwrap();
    let _ = std::fs::remove_file(&wal);
    let traces = server.obs().recent_traces(1);
    let update = &traces[0];
    assert_eq!(update.verb, Verb::Update);
    for phase in [Phase::Wal, Phase::Clone] {
        assert!(
            update.phases().iter().any(|(p, _)| *p == phase),
            "no {phase} phase in {:?}",
            update.phases()
        );
    }
}

#[test]
fn view_hit_after_a_retained_write_traces_its_reserialization() {
    let server = Server::builder().threads(1).build();
    server.load_doc_str("db", &big_doc(200)).unwrap();
    server.register_view("public", view_query()).unwrap();
    let read = || {
        server
            .handle(&Request::View {
                view: "public".into(),
                doc: "db".into(),
            })
            .unwrap()
    };
    read();
    // The inserted label is disjoint from the view's `price`, so the
    // write keeps the entry and defers its serialization to a hit.
    server
        .handle(&Request::Update {
            doc: "db".into(),
            update: r#"transform copy $a := doc("db") modify do insert <x/> into $a/db return $a"#
                .into(),
        })
        .unwrap();
    assert_eq!(
        server.stats().delta_retained,
        1,
        "the write retained the entry"
    );
    let hits = server.view_results().hits();
    let first = read();
    let second = read();
    assert_eq!(server.view_results().hits(), hits + 2, "both reads hit");
    assert_eq!(first.body, second.body);
    assert!(first.body.contains("<x/>"));

    let traces = server.obs().recent_traces(2);
    let phases =
        |t: &xust::serve::RequestTrace| t.phases().iter().map(|&(p, _)| p).collect::<Vec<_>>();
    let (second, first) = (phases(&traces[0]), phases(&traces[1]));
    assert!(first.contains(&Phase::Cache), "{first:?}");
    assert!(
        first.contains(&Phase::Serialize),
        "the first hit re-serialized the maintained entry: {first:?}"
    );
    assert!(second.contains(&Phase::Cache), "{second:?}");
    assert!(
        !second.contains(&Phase::Serialize),
        "the second hit shipped cached bytes: {second:?}"
    );
}
