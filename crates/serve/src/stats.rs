//! The metric registry: every serve counter, gauge, labeled family and
//! latency histogram is declared **once**, in [`REGISTRY`], and one
//! generic writer per format renders all of them:
//!
//! - `STATS` ([`StatsSnapshot`]'s `Display`): one line per row,
//!   `family[ label…]: key=value …`;
//! - `--stats-json` ([`StatsSnapshot::render_json`]): one object; label-free
//!   families flatten into top-level `"key":value` pairs, labeled
//!   families become `"family":[{"label":"…",…,"key":value,…}]`;
//! - `METRICS` ([`StatsSnapshot::render_metrics`]): per metric a
//!   `# HELP`/`# TYPE` announcement, then one `series{label="…"} value`
//!   line per row, label values escaped.
//!
//! No writer knows any metric by name, so a metric cannot appear in one
//! rendering and not another, or with different values.
//!
//! Every counter is a relaxed atomic: the numbers are observability
//! data, not synchronization. The concurrency tests use them to prove
//! that cache hits really skip parse + NFA construction (the `compiles`
//! counter stays at the number of *distinct* queries while `cache_hits`
//! grows with request volume).
//!
//! ## Latency histograms
//!
//! [`LatencyHistogram`] has 64 buckets; bucket `i` covers
//! `[2^(i/2), 2^((i+1)/2))` microseconds, so consecutive bucket bounds
//! differ by a factor of √2 (≈ ±41% relative error per bucket). Bucket
//! 0 also absorbs sub-microsecond samples and the last bucket absorbs
//! everything from ~50 minutes up, which comfortably brackets the
//! 1µs–60s range a request can plausibly take. Quantiles walk the
//! cumulative counts and report the bucket's upper bound, clamped to
//! the exact observed maximum. Recording is one relaxed `fetch_add` per
//! field with no locks and no allocation (a view's histogram is created
//! once per view name), so histograms record unconditionally, like the
//! counters; `--no-trace` switches off only per-request traces.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use xust_core::{Method, Sym};

/// Declares a fieldless enum with its fixed [`ALL`](Verb::ALL) order,
/// lower-case wire names, and a constant-time `index()` into per-variant
/// arrays (the declaration order *is* the index order).
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[doc = $doc:literal])* $variant:ident => $wire:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[doc = $doc])* $variant, )+
        }

        impl $name {
            /// Every variant, in declaration (index) order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Lower-case name, as rendered on the wire.
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )+
                }
            }

            /// This variant's position in `ALL`.
            pub const fn index(self) -> usize {
                self as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}
pub(crate) use named_enum;

named_enum! {
    /// The protocol verb a request arrived under. One counter pair per
    /// verb means a failed `UPDATE` and a failed `QUERY` are
    /// distinguishable in `STATS`/`METRICS`.
    pub enum Verb {
        /// `VIEW` — materialize a view.
        View => "view",
        /// `QUERY` — answer a user query over a virtual view.
        Query => "query",
        /// `TRANSFORM` — run an ad-hoc transform.
        Transform => "transform",
        /// `UPDATE` — live write through the update path.
        Update => "update",
        /// `STREAM` — open a streaming transform session.
        Stream => "stream",
        /// `LOAD` — load or reload a document.
        Load => "load",
        /// `REMOVE` — remove a document.
        Remove => "remove",
        /// `METRICS` — metrics exposition.
        Metrics => "metrics",
        /// `TRACE` — recent/slowest request traces.
        Trace => "trace",
        /// `EXPLAIN` — plan report without execution.
        Explain => "explain",
        /// `ANALYZE` — registration-time static-analysis report.
        Analyze => "analyze",
        /// Connection setup — not a wire verb; its error counter records
        /// clients dropped before the protocol loop started (e.g. a failed
        /// `try_clone` after accept), so `METRICS` sees every lost client.
        Conn => "conn",
    }
}

const N_METHODS: usize = Method::ALL.len();
const N_VERBS: usize = Verb::ALL.len();

/// Number of histogram buckets (fixed; see the module docs).
pub const HIST_BUCKETS: usize = 64;

/// A lock-free log-bucketed latency histogram (microsecond samples).
///
/// Recording is four relaxed atomic ops (bucket, count, sum, max);
/// concurrent recorders never lose a sample — the conservation law
/// `count == Σ buckets` and `sum == Σ samples` holds under any
/// interleaving and is asserted by the concurrency tests.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// A point-in-time digest of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (µs).
    pub sum: u64,
    /// Largest sample (µs).
    pub max: u64,
    /// Median estimate (µs).
    pub p50: u64,
    /// 90th percentile estimate (µs).
    pub p90: u64,
    /// 99th percentile estimate (µs).
    pub p99: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for a sample of `micros`: `⌊2·log₂(v)⌋`,
    /// computed in integer arithmetic (`v ≥ 2^(k+½)` iff
    /// `v² ≥ 2^(2k+1)`), clamped into the fixed bucket range.
    pub fn bucket_index(micros: u64) -> usize {
        let v = micros.max(1);
        let log2 = 63 - v.leading_zeros() as usize;
        let upper_half = (v as u128) * (v as u128) >= (1u128 << (2 * log2 + 1));
        (2 * log2 + usize::from(upper_half)).min(HIST_BUCKETS - 1)
    }

    /// The exclusive upper bound of bucket `i` in microseconds:
    /// `⌈2^((i+1)/2)⌉`.
    pub fn bucket_upper(i: usize) -> u64 {
        debug_assert!(i < HIST_BUCKETS);
        2f64.powf((i as f64 + 1.0) / 2.0).ceil() as u64
    }

    /// Records one sample. Lock-free; relaxed ordering throughout (the
    /// histogram is observability data, not synchronization).
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.sum.fetch_add(micros, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.max.fetch_max(micros, Ordering::Relaxed); // relaxed: monotone max; no data published
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        ld(&self.count)
    }

    /// Sum of all samples (µs).
    pub fn sum(&self) -> u64 {
        ld(&self.sum)
    }

    /// Largest sample (µs); 0 when empty.
    pub fn max(&self) -> u64 {
        ld(&self.max)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample, clamped to the observed
    /// maximum; 0 when empty. Error is bounded by one bucket (√2).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: [u64; HIST_BUCKETS] = std::array::from_fn(|i| ld(&self.buckets[i]));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max().max(1));
            }
        }
        self.max()
    }

    /// A consistent-enough digest for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// How a metric's value behaves, as announced by `METRICS`' `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// A latency summary: its quantile series carry a `quantile` label;
    /// its `_count`/`_sum` parts ride under the quantiles' announcement.
    Summary,
}

impl Kind {
    /// The Prometheus type name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

/// One value column of a [`Family`].
#[derive(Debug)]
pub struct Metric {
    /// `STATS` / JSON key.
    pub key: &'static str,
    /// `METRICS` series name.
    pub series: &'static str,
    /// Value behaviour.
    pub kind: Kind,
    /// The `quantile` label value of a summary quantile series.
    pub quantile: Option<&'static str>,
    /// One-line description (`# HELP`).
    pub help: &'static str,
}

impl Metric {
    const fn new(
        key: &'static str,
        series: &'static str,
        kind: Kind,
        help: &'static str,
    ) -> Metric {
        Metric {
            key,
            series,
            kind,
            quantile: None,
            help,
        }
    }

    const fn quantile(
        key: &'static str,
        series: &'static str,
        q: &'static str,
        help: &'static str,
    ) -> Metric {
        Metric {
            quantile: Some(q),
            ..Metric::new(key, series, Kind::Summary, help)
        }
    }

    /// Whether `METRICS` announces this series with `# HELP`/`# TYPE`
    /// (a summary's `_count`/`_sum` parts are covered by its quantiles').
    fn announced(&self) -> bool {
        self.kind != Kind::Summary || self.quantile.is_some()
    }
}

const fn counter(key: &'static str, series: &'static str, help: &'static str) -> Metric {
    Metric::new(key, series, Kind::Counter, help)
}

const fn gauge(key: &'static str, series: &'static str, help: &'static str) -> Metric {
    Metric::new(key, series, Kind::Gauge, help)
}

/// One row of a family: its label values and one value per metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row<'a> {
    /// Label values, parallel to [`Family::labels`].
    pub labels: Vec<&'a str>,
    /// Values, parallel to [`Family::metrics`].
    pub values: Vec<u64>,
}

/// A group of metrics sharing one label schema — the unit of
/// declaration in [`REGISTRY`].
#[derive(Debug)]
pub struct Family {
    /// `STATS` line prefix; the JSON key of a labeled family.
    pub key: &'static str,
    /// Label names (empty for a family of scalars).
    pub labels: &'static [&'static str],
    /// Value columns.
    pub metrics: &'static [Metric],
    /// The family's rows in a snapshot (exactly one for a scalar family).
    pub rows: fn(&StatsSnapshot) -> Vec<Row<'_>>,
}

/// The latency summary's quantile series (its three quantile columns
/// share it).
const LATENCY: &str = "xust_latency_micros";

fn row<'a>(labels: Vec<&'a str>, values: Vec<u64>) -> Row<'a> {
    Row { labels, values }
}

/// Declares the registry: the label-free families — whose fields the
/// macro turns into [`ServeStats`] atomics (`counters`) or into values
/// [`crate::Server::stats`] fills in from other components (`sourced`),
/// plus the matching [`StatsSnapshot`] fields and
/// [`ServeStats::snapshot`] — followed by the labeled families.
macro_rules! registry {
    (
        counters { $( $cgroup:ident {
            $( $(#[doc = $chelp:literal])+ $cfield:ident => $cseries:literal; )+
        } )+ }
        sourced { $( $sgroup:ident {
            $( $(#[doc = $shelp:literal])+ $sfield:ident: $skind:ident => $sseries:literal; )+
        } )+ }
        labeled { $( $family:expr, )+ }
    ) => {
        /// Counters and histograms for one [`crate::Server`].
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $( $( $(#[doc = $chelp])+ pub $cfield: AtomicU64, )+ )+
            per_method: [AtomicU64; N_METHODS],
            per_verb: [VerbCounters; N_VERBS],
            verb_latency: [LatencyHistogram; N_VERBS],
            /// Evaluation time per method (not whole requests).
            method_latency: [LatencyHistogram; N_METHODS],
            /// Per-view request latency. Read-mostly: a view's histogram
            /// is created once, then only its atomics move.
            view_latency: RwLock<HashMap<String, Arc<LatencyHistogram>>>,
            /// Per-view delta-maintenance outcomes.
            view_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
            /// Per-document delta-maintenance outcomes for writes *to that
            /// document*. With the result cache keyed by per-document
            /// versions, a document's counters move only when it is
            /// written — a hot writer shows up here alone, and its shard
            /// neighbours' rows staying at zero is the observable proof
            /// that neighbour invalidation is gone.
            doc_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
            /// Per-document element-label histograms (`label → live
            /// count`), seeded when an in-memory document is (re)loaded and
            /// shifted incrementally by every applied write.
            // lock-order: leaf mutex — nothing else is ever taken while held.
            doc_labels: Mutex<HashMap<String, HashMap<Sym, i64>>>,
        }

        /// A point-in-time copy of [`ServeStats`] plus the values
        /// [`crate::Server::stats`] sources from the server's other
        /// components. Every field is a row of some [`REGISTRY`] family.
        #[derive(Debug, Clone)]
        pub struct StatsSnapshot {
            $( $( $(#[doc = $chelp])+ pub $cfield: u64, )+ )+
            $( $( $(#[doc = $shelp])+ pub $sfield: u64, )+ )+
            /// Executions per evaluation method, in [`Method::ALL`] order.
            pub per_method: [(Method, u64); N_METHODS],
            /// Per-verb `(verb, requests, errors)`, in [`Verb::ALL`] order.
            pub verbs: Vec<(Verb, u64, u64)>,
            /// Per-view delta outcomes: `(view, retained, patched,
            /// recomputed)`, sorted by view.
            pub view_delta: Vec<(String, u64, u64, u64)>,
            /// Per-document delta outcomes for writes to that document:
            /// `(doc, retained, patched, patched_fragments, recomputed)`,
            /// sorted. A document appears iff it was written.
            pub doc_delta: Vec<(String, u64, u64, u64, u64)>,
            /// Per-document element-label histograms: `(doc, [(label,
            /// count)])` sorted by document, rows by count descending then
            /// label. Only seeded (in-memory) documents appear.
            pub doc_labels: Vec<(String, Vec<(String, i64)>)>,
            /// Non-empty latency histograms: `(scope, key, digest)` with
            /// scope `verb`, `view` or `method`.
            pub latency: Vec<(&'static str, String, HistogramSnapshot)>,
            /// Prepared caches: `(cache, [entries, capacity, hits, misses,
            /// evictions])` (sourced).
            pub prepared_caches: Vec<(&'static str, [u64; 5])>,
        }

        impl ServeStats {
            /// Takes a consistent-enough snapshot for reporting. Sourced
            /// values read 0 here; [`crate::Server::stats`] fills them.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $( $cfield: ld(&self.$cfield), )+ )+
                    $( $( $sfield: 0, )+ )+
                    per_method: Method::ALL.map(|m| (m, self.method_count(m))),
                    verbs: Verb::ALL
                        .iter()
                        .map(|&v| {
                            let (requests, errors) = self.verb_counts(v);
                            (v, requests, errors)
                        })
                        .collect(),
                    view_delta: sorted_rows(&self.view_delta, |k, c| {
                        (k, ld(&c.retained), ld(&c.patched), ld(&c.recomputed))
                    }),
                    doc_delta: sorted_rows(&self.doc_delta, |k, c| {
                        let fragments = ld(&c.patched_fragments);
                        (k, ld(&c.retained), ld(&c.patched), fragments, ld(&c.recomputed))
                    }),
                    doc_labels: {
                        let map = self.doc_labels.lock().expect("stats lock poisoned");
                        let mut v: Vec<(String, Vec<(String, i64)>)> = map
                            .iter()
                            .map(|(doc, hist)| (doc.clone(), sorted_labels(hist)))
                            .collect();
                        v.sort_by(|a, b| a.0.cmp(&b.0));
                        v
                    },
                    latency: self.latency_rows(),
                    prepared_caches: Vec::new(),
                }
            }
        }

        /// Every metric the server exposes, in rendering order.
        pub const REGISTRY: &[Family] = &[
            $( Family {
                key: stringify!($cgroup),
                labels: &[],
                metrics: &[ $(
                    counter(stringify!($cfield), $cseries, concat!($($chelp),+)),
                )+ ],
                rows: |s| vec![row(Vec::new(), vec![$(s.$cfield),+])],
            }, )+
            $( Family {
                key: stringify!($sgroup),
                labels: &[],
                metrics: &[ $(
                    Metric::new(stringify!($sfield), $sseries, Kind::$skind, concat!($($shelp),+)),
                )+ ],
                rows: |s| vec![row(Vec::new(), vec![$(s.$sfield),+])],
            }, )+
            $( $family, )+
        ];
    };
}

registry! {
    counters {
        requests {
            /// Requests accepted (all kinds).
            requests => "xust_requests_total";
            /// Requests that returned an error.
            failures => "xust_failures_total";
            /// View materializations served.
            view_requests => "xust_view_requests_total";
            /// User queries answered against a virtual view.
            query_requests => "xust_query_requests_total";
            /// Ad-hoc transform executions.
            transform_requests => "xust_transform_requests_total";
            /// Live `UPDATE` writes accepted (applied and installed).
            update_requests => "xust_update_requests_total";
            /// Streaming sessions opened.
            stream_sessions => "xust_stream_sessions_total";
            /// Total busy time across requests, in microseconds.
            busy_micros => "xust_busy_micros_total";
        }
        cache {
            /// Prepared-cache hits (transform or composed query reused).
            cache_hits => "xust_prepared_cache_hits_total";
            /// Prepared-cache misses (entry had to be built).
            cache_misses => "xust_prepared_cache_misses_total";
            /// Transform parse + NFA compilations actually performed.
            compiles => "xust_compiles_total";
            /// User-query compositions actually performed.
            compositions => "xust_compositions_total";
        }
        batches {
            /// Batched entry-point invocations.
            batches => "xust_batches_total";
            /// Items executed through batched entry points.
            batch_items => "xust_batch_items_total";
            /// Work-stealing events across batch executions.
            batch_steals => "xust_batch_steals_total";
        }
        updates {
            /// View-result cache entries retained across a write (delta
            /// applied in place, no recomputation).
            delta_retained => "xust_delta_retained_total";
            /// Of the retained entries, how many the static commutation
            /// table answered alone (no dynamic test ran).
            static_retained => "xust_static_retained_total";
            /// Entries that failed the relevance test but were patched in
            /// place through their provenance maps (the third fate).
            delta_patched => "xust_patched_total";
            /// Result fragments spliced across all patch fates.
            patched_fragments => "xust_patched_fragments_total";
            /// View-result cache entries invalidated by a write.
            delta_recomputed => "xust_delta_recomputed_total";
        }
        wal {
            /// Intact write-ahead-log records replayed at attach time.
            wal_recovered => "xust_wal_recovered_total";
            /// WAL recoveries that found and dropped a torn tail frame.
            wal_truncations => "xust_wal_truncations_total";
        }
        shared {
            /// One-pass shared evaluations run (factorised sweeps).
            shared_passes => "xust_shared_passes_total";
            /// Views whose results rode a shared pass instead of a
            /// private evaluation.
            shared_pass_views => "xust_shared_pass_views_total";
        }
    }
    sourced {
        results {
            /// View-result cache hits.
            result_hits: Counter => "xust_result_cache_hits_total";
            /// View-result cache misses.
            result_misses: Counter => "xust_result_cache_misses_total";
            /// Resident view-result cache entries.
            result_cache_entries: Gauge => "xust_result_cache_entries";
            /// Documents with resident view-result cache entries.
            result_cache_docs: Gauge => "xust_result_cache_docs";
        }
        server {
            /// Distinct labels in the shared interner (it never shrinks;
            /// see DESIGN.md "Interning").
            interned_labels: Gauge => "xust_interned_labels";
            /// Executor jobs running or queued.
            executor_in_flight: Gauge => "xust_executor_in_flight";
            /// Executor worker threads.
            executor_threads: Gauge => "xust_executor_threads";
            /// Store snapshots currently pinned.
            store_active_snapshots: Gauge => "xust_store_active_snapshots";
            /// Store snapshots taken.
            store_snapshots: Counter => "xust_store_snapshots_total";
            /// Store shards.
            store_shards: Gauge => "xust_store_shards";
            /// Documents in the store.
            store_docs: Gauge => "xust_store_docs";
            /// Registered views.
            views_registered: Gauge => "xust_views_registered";
            /// Requests traced into the trace ring.
            requests_traced: Counter => "xust_requests_traced_total";
        }
    }
    labeled {
        Family {
            key: "verb",
            labels: &["verb"],
            metrics: &[
                counter("requests", "xust_verb_requests_total", "Requests per protocol verb."),
                counter("errors", "xust_verb_errors_total", "Failed requests per protocol verb."),
            ],
            rows: |s| {
                let verbs = s.verbs.iter();
                verbs.map(|&(v, r, e)| row(vec![v.name()], vec![r, e])).collect()
            },
        },
        Family {
            key: "method",
            labels: &["method"],
            metrics: &[counter(
                "executions",
                "xust_method_executions_total",
                "Evaluations per method (the paper's per-method cost breakdown).",
            )],
            rows: |s| {
                let methods = s.per_method.iter();
                methods.map(|&(m, n)| row(vec![m.paper_name()], vec![n])).collect()
            },
        },
        Family {
            key: "view",
            labels: &["view"],
            metrics: &[
                counter(
                    "delta_retained",
                    "xust_view_delta_retained_total",
                    "Writes a view's cached result survived.",
                ),
                counter(
                    "delta_patched",
                    "xust_view_delta_patched_total",
                    "Writes a view's cached result absorbed through an in-place patch.",
                ),
                counter(
                    "delta_recomputed",
                    "xust_view_delta_recomputed_total",
                    "Writes that invalidated a view's cached result.",
                ),
            ],
            rows: |s| {
                let views = s.view_delta.iter();
                views.map(|(v, r, p, x)| row(vec![v.as_str()], vec![*r, *p, *x])).collect()
            },
        },
        Family {
            key: "doc",
            labels: &["doc"],
            metrics: &[
                counter(
                    "delta_retained",
                    "xust_doc_delta_retained_total",
                    "Cached entries retained across writes to a document.",
                ),
                counter(
                    "delta_patched",
                    "xust_doc_delta_patched_total",
                    "Cached entries patched in place by writes to a document.",
                ),
                counter(
                    "patched_fragments",
                    "xust_doc_patched_fragments_total",
                    "Result fragments spliced by writes to a document.",
                ),
                counter(
                    "delta_recomputed",
                    "xust_doc_delta_recomputed_total",
                    "Cached entries dropped by writes to a document.",
                ),
            ],
            rows: |s| {
                let docs = s.doc_delta.iter();
                docs.map(|(d, r, p, f, x)| row(vec![d.as_str()], vec![*r, *p, *f, *x])).collect()
            },
        },
        Family {
            key: "prepared_cache",
            labels: &["cache"],
            metrics: &[
                gauge("entries", "xust_prepared_cache_entries", "Resident prepared-cache entries."),
                gauge("capacity", "xust_prepared_cache_capacity", "Prepared-cache capacity."),
                counter("hits", "xust_prepared_cache_hits", "Prepared-cache hits."),
                counter("misses", "xust_prepared_cache_misses", "Prepared-cache misses."),
                counter("evictions", "xust_prepared_cache_evictions", "Prepared-cache evictions."),
            ],
            rows: |s| {
                let caches = s.prepared_caches.iter();
                caches.map(|(c, v)| row(vec![*c], v.to_vec())).collect()
            },
        },
        Family {
            key: "latency",
            labels: &["scope", "key"],
            metrics: &[
                Metric::quantile(
                    "p50",
                    LATENCY,
                    "0.5",
                    "Latency (µs) per verb and view (requests) and per method (evaluations).",
                ),
                Metric::quantile("p90", LATENCY, "0.9", ""),
                Metric::quantile("p99", LATENCY, "0.99", ""),
                Metric::new("count", "xust_latency_micros_count", Kind::Summary, ""),
                Metric::new("sum", "xust_latency_micros_sum", Kind::Summary, ""),
                gauge("max", "xust_latency_micros_max", "Largest latency sample (µs)."),
            ],
            rows: |s| {
                let hists = s.latency.iter();
                hists
                    .map(|(scope, key, h)| {
                        let values = vec![h.p50, h.p90, h.p99, h.count, h.sum, h.max];
                        row(vec![*scope, key.as_str()], values)
                    })
                    .collect()
            },
        },
        Family {
            key: "doc_label",
            labels: &["doc", "label"],
            metrics: &[gauge(
                "count",
                "xust_doc_label_count",
                "Live elements per label in an in-memory document.",
            )],
            rows: |s| {
                let docs = s.doc_labels.iter();
                docs.flat_map(|(d, labels)| {
                    labels.iter().map(move |(l, n)| {
                        row(vec![d.as_str(), l.as_str()], vec![(*n).max(0) as u64])
                    })
                })
                .collect()
            },
        },
    }
}

/// Request/error counters for one [`Verb`].
#[derive(Debug, Default)]
struct VerbCounters {
    requests: AtomicU64,
    errors: AtomicU64,
}

/// Per-view (or per-document) delta-maintenance counters.
#[derive(Debug, Default)]
pub struct DeltaCell {
    /// Writes this row's cached result survived (maintained in place).
    pub retained: AtomicU64,
    /// Writes this row's cached result absorbed through an in-place
    /// provenance patch (failed the relevance test, was not dropped).
    pub patched: AtomicU64,
    /// Result fragments spliced into this row's cached results (only
    /// per-document rows track this; per-view rows leave it at zero).
    pub patched_fragments: AtomicU64,
    /// Writes that invalidated this row's cached result.
    pub recomputed: AtomicU64,
}

/// Point-in-time read of one stats counter.
// relaxed: counters are independent monotone values; readers either
// tolerate staleness (snapshots, reports) or re-validate with a CAS.
fn ld(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
}

/// Adds `n` to a monotone counter.
fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed); // relaxed: monotone counter; no data published
}

/// The shared get-or-create for the keyed maps: a read-lock lookup on
/// the hot path, falling back to a write-lock insert the first time a
/// key reports. Every keyed map in [`ServeStats`] goes through here so
/// the locking discipline lives in one place.
fn cell_of<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, key: &str) -> Arc<T> {
    if let Some(cell) = map.read().expect("stats lock poisoned").get(key) {
        return Arc::clone(cell);
    }
    let mut map = map.write().expect("stats lock poisoned");
    Arc::clone(map.entry(key.to_string()).or_default())
}

/// A keyed map read out as `f(key, cell)` rows, sorted by key.
fn sorted_rows<T, R>(map: &RwLock<HashMap<String, Arc<T>>>, f: impl Fn(String, &T) -> R) -> Vec<R> {
    let map = map.read().expect("stats lock poisoned");
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    keys.into_iter().map(|k| f(k.clone(), &map[k])).collect()
}

/// One histogram row in reporting order: count descending, then label
/// ascending (stable output for tests and operators alike).
fn sorted_labels(hist: &HashMap<Sym, i64>) -> Vec<(String, i64)> {
    let mut v: Vec<(String, i64)> = hist
        .iter()
        .map(|(l, &n)| (l.as_str().to_string(), n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

impl ServeStats {
    /// Records one timed request's outcome: the verb's counters, busy
    /// time, the failure total, and the verb latency histogram — plus
    /// the view's histogram when a view request succeeded (failures
    /// are not charged to a view, so unknown view names cannot mint
    /// histograms).
    pub fn record_request(&self, verb: Verb, view: Option<&str>, ok: bool, micros: u64) {
        add(&self.busy_micros, micros);
        self.record_verb(verb, ok);
        if !ok {
            add(&self.failures, 1);
        }
        self.verb_latency[verb.index()].record(micros);
        if let (true, Some(view)) = (ok, view) {
            cell_of(&self.view_latency, view).record(micros);
        }
    }

    /// Records one request under `verb`; `ok == false` also bumps the
    /// verb's error counter.
    pub fn record_verb(&self, verb: Verb, ok: bool) {
        let cell = &self.per_verb[verb.index()];
        add(&cell.requests, 1);
        if !ok {
            add(&cell.errors, 1);
        }
    }

    /// `(requests, errors)` recorded for `verb`.
    pub fn verb_counts(&self, verb: Verb) -> (u64, u64) {
        let cell = &self.per_verb[verb.index()];
        (ld(&cell.requests), ld(&cell.errors))
    }

    /// Records one evaluation with `method` that took `micros`.
    pub fn record_method(&self, method: Method, micros: u64) {
        self.count_method(method);
        self.method_latency[method.index()].record(micros);
    }

    /// Records one execution with `method` whose evaluation time is not
    /// its own (a client-paced streaming session).
    pub fn count_method(&self, method: Method) {
        add(&self.per_method[method.index()], 1);
    }

    /// Executions recorded for `method`.
    pub fn method_count(&self, method: Method) -> u64 {
        ld(&self.per_method[method.index()])
    }

    /// The request-latency histogram for `verb`.
    pub fn verb_histogram(&self, verb: Verb) -> &LatencyHistogram {
        &self.verb_latency[verb.index()]
    }

    /// The evaluation-latency histogram for `method`.
    pub fn method_histogram(&self, method: Method) -> &LatencyHistogram {
        &self.method_latency[method.index()]
    }

    /// Every non-empty histogram: verbs and methods in index order,
    /// views sorted by name.
    fn latency_rows(&self) -> Vec<(&'static str, String, HistogramSnapshot)> {
        let verbs = Verb::ALL.iter().map(|v| {
            (
                "verb",
                v.name().to_string(),
                self.verb_histogram(*v).snapshot(),
            )
        });
        let views = sorted_rows(&self.view_latency, |k, h| ("view", k, h.snapshot()));
        let methods = Method::ALL.iter().map(|m| {
            (
                "method",
                m.to_string(),
                self.method_histogram(*m).snapshot(),
            )
        });
        verbs
            .chain(views)
            .chain(methods)
            .filter(|(_, _, h)| h.count > 0)
            .collect()
    }

    /// Records one delta-maintenance outcome for `view` (and the global
    /// totals): `retained == true` means the cached result survived the
    /// write, `false` that it was dropped for lazy recomputation.
    pub fn record_view_delta(&self, view: &str, retained: bool) {
        let cell = cell_of(&self.view_delta, view);
        if retained {
            add(&self.delta_retained, 1);
            add(&cell.retained, 1);
        } else {
            add(&self.delta_recomputed, 1);
            add(&cell.recomputed, 1);
        }
    }

    /// Records one patch-fate outcome for `view` (and the global
    /// total): the view's cached result failed the relevance test but
    /// was spliced in place through its provenance map.
    pub fn record_view_patched(&self, view: &str) {
        add(&self.delta_patched, 1);
        add(&cell_of(&self.view_delta, view).patched, 1);
    }

    /// The delta counters for `view`: `(retained, patched, recomputed)`,
    /// if any write ever examined a cached result of this view.
    pub fn view_delta(&self, view: &str) -> Option<(u64, u64, u64)> {
        self.view_delta
            .read()
            .expect("stats lock poisoned")
            .get(view)
            .map(|c| (ld(&c.retained), ld(&c.patched), ld(&c.recomputed)))
    }

    /// Records one write's maintenance outcome for the *written*
    /// document: how many of its cached entries were retained, patched
    /// in place (and with how many spliced fragments), and dropped for
    /// recomputation. Called once per write (even when every count is
    /// zero — the row proves the write was examined).
    pub fn record_doc_delta(
        &self,
        doc: &str,
        retained: u64,
        patched: u64,
        patched_fragments: u64,
        recomputed: u64,
    ) {
        let cell = cell_of(&self.doc_delta, doc);
        add(&cell.retained, retained);
        add(&cell.patched, patched);
        add(&cell.patched_fragments, patched_fragments);
        add(&cell.recomputed, recomputed);
    }

    /// Drops `doc`'s per-document delta row and label histogram. Called
    /// when the document is removed from the store: without this, a
    /// server with document-name churn (load → write → remove cycles)
    /// accumulates one permanent row per ever-written name — unbounded
    /// memory and an ever-growing `STATS` reply. A re-created name
    /// starts a fresh row (its versions are a new lineage; so are its
    /// counters).
    pub fn forget_doc(&self, doc: &str) {
        self.doc_delta
            .write()
            .expect("stats lock poisoned")
            .remove(doc);
        self.doc_labels
            .lock()
            .expect("stats lock poisoned")
            .remove(doc);
    }

    /// The delta counters for writes to `doc`: `(retained, patched,
    /// patched_fragments, recomputed)`, if `doc` was ever written
    /// through the update path.
    pub fn doc_delta(&self, doc: &str) -> Option<(u64, u64, u64, u64)> {
        self.doc_delta
            .read()
            .expect("stats lock poisoned")
            .get(doc)
            .map(|c| {
                (
                    ld(&c.retained),
                    ld(&c.patched),
                    ld(&c.patched_fragments),
                    ld(&c.recomputed),
                )
            })
    }

    /// Installs `doc`'s label histogram wholesale — called when an
    /// in-memory document is loaded or reloaded (a reload is an
    /// unbounded delta; the seed is the new ground truth).
    pub fn seed_doc_labels(&self, doc: &str, hist: HashMap<Sym, i64>) {
        self.doc_labels
            .lock()
            .expect("stats lock poisoned")
            .insert(doc.to_string(), hist);
    }

    /// Folds one write's label-count shift into `doc`'s histogram;
    /// labels whose count returns to zero are dropped from the row. A
    /// shift for a document that was never seeded (file-backed, or
    /// racing a removal) is discarded — there is no ground truth to
    /// shift.
    pub fn shift_doc_labels(&self, doc: &str, delta: &HashMap<Sym, i64>) {
        let mut map = self.doc_labels.lock().expect("stats lock poisoned");
        let Some(hist) = map.get_mut(doc) else {
            return;
        };
        for (&label, &d) in delta {
            if d == 0 {
                continue;
            }
            let slot = hist.entry(label).or_insert(0);
            *slot += d;
            if *slot == 0 {
                hist.remove(&label);
            }
        }
    }

    /// `doc`'s element-label histogram, sorted by count descending then
    /// label ascending — `None` when the document was never seeded.
    pub fn doc_labels(&self, doc: &str) -> Option<Vec<(String, i64)>> {
        let map = self.doc_labels.lock().expect("stats lock poisoned");
        map.get(doc).map(sorted_labels)
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends `{name="value",…}` to a `METRICS` series, escaping `\`, `"`
/// and newline in every value; appends nothing when there are no labels.
fn write_labels<'a>(out: &mut String, labels: impl Iterator<Item = (&'a str, &'a str)>) {
    let mut sep = '{';
    for (name, value) in labels {
        out.push(sep);
        sep = ',';
        out.push_str(name);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if sep == ',' {
        out.push('}');
    }
}

/// `STATS`: one line per row, `family[ label…]: key=value …`.
impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for family in REGISTRY {
            for row in (family.rows)(self) {
                write!(f, "{sep}{}", family.key)?;
                sep = "\n";
                for label in &row.labels {
                    write!(f, " {label}")?;
                }
                f.write_str(":")?;
                for (metric, value) in family.metrics.iter().zip(&row.values) {
                    write!(f, " {}={value}", metric.key)?;
                }
            }
        }
        Ok(())
    }
}

impl StatsSnapshot {
    /// `--stats-json`: one JSON object (stable key order, no trailing
    /// newline). The workspace deliberately has no serde.
    pub fn render_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        let mut sep = '{';
        for family in REGISTRY {
            let rows = (family.rows)(self);
            if family.labels.is_empty() {
                for row in &rows {
                    for (metric, value) in family.metrics.iter().zip(&row.values) {
                        let _ = write!(s, "{sep}\"{}\":{value}", metric.key);
                        sep = ',';
                    }
                }
                continue;
            }
            let _ = write!(s, "{sep}\"{}\":[", family.key);
            sep = ',';
            for (i, row) in rows.iter().enumerate() {
                s.push_str(if i == 0 { "{" } else { ",{" });
                let labels = (family.labels.iter().zip(&row.labels))
                    .map(|(name, value)| format!("\"{name}\":\"{}\"", json_escape(value)));
                let values = (family.metrics.iter().zip(&row.values))
                    .map(|(metric, value)| format!("\"{}\":{value}", metric.key));
                s.push_str(&labels.chain(values).collect::<Vec<_>>().join(","));
                s.push('}');
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// `METRICS`: a Prometheus-style text exposition. Each series is
    /// announced once (`# HELP`, `# TYPE`), then one
    /// `series{labels} value` line per row.
    pub fn render_metrics(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for family in REGISTRY {
            let rows = (family.rows)(self);
            let mut announced = "";
            for (i, metric) in family.metrics.iter().enumerate() {
                if metric.announced() && metric.series != announced {
                    let _ = writeln!(out, "# HELP {} {}", metric.series, metric.help.trim());
                    let _ = writeln!(out, "# TYPE {} {}", metric.series, metric.kind.name());
                    announced = metric.series;
                }
                for row in &rows {
                    out.push_str(metric.series);
                    let labels = family
                        .labels
                        .iter()
                        .copied()
                        .zip(row.labels.iter().copied());
                    write_labels(
                        &mut out,
                        labels.chain(metric.quantile.map(|q| ("quantile", q))),
                    );
                    let _ = writeln!(out, " {}", row.values[i]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_core::intern;

    #[test]
    fn counters_roundtrip() {
        let s = ServeStats::default();
        add(&s.requests, 3);
        s.count_method(Method::TwoPass);
        s.record_method(Method::TwoPass, 40);
        s.count_method(Method::Naive);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(s.method_count(Method::TwoPass), 2);
        assert_eq!(s.method_count(Method::Naive), 1);
        assert_eq!(s.method_count(Method::TopDown), 0);
        assert_eq!(s.method_histogram(Method::TwoPass).count(), 1);
        let text = snap.to_string();
        assert!(text.contains("requests: requests=3 "), "{text}");
        assert!(text.contains("method TD-BU: executions=2"), "{text}");
        assert!(text.contains("latency method TD-BU: p50=40 "), "{text}");
    }

    #[test]
    fn indexes_are_positions() {
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        for (i, m) in Method::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn per_view_delta_counters_roll_up() {
        let s = ServeStats::default();
        assert!(s.view_delta("public").is_none());
        s.record_view_delta("public", true);
        s.record_view_delta("public", true);
        s.record_view_delta("public", false);
        s.record_view_delta("audit", false);
        s.record_view_patched("public");
        assert_eq!(s.view_delta("public"), Some((2, 1, 1)));
        assert_eq!(s.view_delta("audit"), Some((0, 0, 1)));
        let snap = s.snapshot();
        assert_eq!(snap.delta_retained, 2);
        assert_eq!(snap.delta_patched, 1);
        assert_eq!(snap.delta_recomputed, 2);
        assert_eq!(
            snap.view_delta,
            vec![("audit".into(), 0, 0, 1), ("public".into(), 2, 1, 1)]
        );
        let text = snap.to_string();
        assert!(text.contains("delta_retained=2"));
        assert!(
            text.contains("view public: delta_retained=2 delta_patched=1 delta_recomputed=1"),
            "{text}"
        );
    }

    #[test]
    fn per_doc_delta_counters_roll_up() {
        let s = ServeStats::default();
        assert!(s.doc_delta("hot").is_none());
        s.record_doc_delta("hot", 3, 1, 4, 1);
        s.record_doc_delta("hot", 2, 0, 0, 0);
        s.record_doc_delta("cold", 0, 0, 0, 0);
        assert_eq!(s.doc_delta("hot"), Some((5, 1, 4, 1)));
        assert_eq!(s.doc_delta("cold"), Some((0, 0, 0, 0)));
        assert!(
            s.doc_delta("neighbour").is_none(),
            "never-written docs have no row"
        );
        let snap = s.snapshot();
        assert_eq!(
            snap.doc_delta,
            vec![("cold".into(), 0, 0, 0, 0), ("hot".into(), 5, 1, 4, 1)]
        );
        assert!(snap.to_string().contains(
            "doc hot: delta_retained=5 delta_patched=1 patched_fragments=4 delta_recomputed=1"
        ));
        // Removing a document drops its row; a re-created name starts
        // a fresh lineage of counters.
        s.forget_doc("hot");
        assert!(s.doc_delta("hot").is_none());
        s.record_doc_delta("hot", 1, 0, 0, 0);
        assert_eq!(s.doc_delta("hot"), Some((1, 0, 0, 0)));
    }

    #[test]
    fn per_verb_counters_cover_every_verb() {
        let s = ServeStats::default();
        assert_eq!(s.verb_counts(Verb::View), (0, 0));
        s.record_verb(Verb::View, true);
        s.record_verb(Verb::View, false);
        s.record_verb(Verb::Update, true);
        assert_eq!(s.verb_counts(Verb::View), (2, 1));
        assert_eq!(s.verb_counts(Verb::Update), (1, 0));
        let snap = s.snapshot();
        // Every verb has a row (a stable schema), in index order.
        assert_eq!(snap.verbs.len(), Verb::ALL.len());
        assert_eq!(snap.verbs[Verb::View.index()], (Verb::View, 2, 1));
        assert_eq!(snap.verbs[Verb::Load.index()], (Verb::Load, 0, 0));
        let text = snap.to_string();
        assert!(text.contains("verb view: requests=2 errors=1"), "{text}");
        assert!(text.contains("verb update: requests=1 errors=0"), "{text}");
    }

    #[test]
    fn record_request_feeds_counters_and_histograms() {
        let s = ServeStats::default();
        s.record_request(Verb::View, Some("public"), true, 100);
        s.record_request(Verb::View, Some("public"), true, 100);
        s.record_request(Verb::View, Some("nope"), false, 7);
        assert_eq!(s.verb_counts(Verb::View), (3, 1));
        assert_eq!(ld(&s.failures), 1);
        assert_eq!(ld(&s.busy_micros), 207);
        assert_eq!(s.verb_histogram(Verb::View).count(), 3);
        // Failed requests mint no view histogram.
        let snap = s.snapshot();
        let scopes: Vec<(&str, &str, u64)> = snap
            .latency
            .iter()
            .map(|(scope, key, h)| (*scope, key.as_str(), h.count))
            .collect();
        assert_eq!(scopes, vec![("verb", "view", 3), ("view", "public", 2)]);
        assert!(snap
            .to_string()
            .contains("latency view public: p50=100 p90=100 p99=100 count=2 sum=200 max=100"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let s = ServeStats::default();
        add(&s.requests, 2);
        s.count_method(Method::TopDown);
        s.record_verb(Verb::Query, true);
        s.record_request(Verb::View, Some("pub\"lic"), true, 120);
        s.record_view_delta("public", true);
        s.record_doc_delta("db", 1, 1, 2, 0);
        s.seed_doc_labels("db", HashMap::from([(intern("person"), 3)]));
        let json = s.snapshot().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests\":2,"), "{json}");
        assert!(
            json.contains("{\"verb\":\"query\",\"requests\":1,\"errors\":0}"),
            "{json}"
        );
        assert!(
            json.contains("{\"method\":\"GENTOP\",\"executions\":1}"),
            "{json}"
        );
        assert!(json.contains("\"key\":\"pub\\\"lic\""), "escaped: {json}");
        assert!(
            json.contains(
                "\"doc\":[{\"doc\":\"db\",\"delta_retained\":1,\"delta_patched\":1,\
                 \"patched_fragments\":2,\"delta_recomputed\":0}]"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"doc_label\":[{\"doc\":\"db\",\"label\":\"person\",\"count\":3}]"),
            "{json}"
        );
        assert!(json.contains("\"prepared_cache\":[]"), "{json}");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn metrics_label_values_are_escaped() {
        let s = ServeStats::default();
        s.record_request(Verb::View, Some("a\\b\"c\nd"), true, 5);
        let text = s.snapshot().render_metrics();
        assert!(
            text.contains("xust_latency_micros_count{scope=\"view\",key=\"a\\\\b\\\"c\\nd\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE xust_latency_micros summary"),
            "{text}"
        );
        assert!(!text.contains("# TYPE xust_latency_micros_count"), "{text}");
        assert!(
            text.contains("# TYPE xust_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("xust_busy_micros_total 5\n"), "{text}");
    }

    /// The registry is the single declaration: no `METRICS` series (with
    /// its quantile) or `STATS`/JSON key is declared twice where a
    /// rendering would conflate them.
    #[test]
    fn registry_declares_each_series_once() {
        let mut series = std::collections::HashSet::new();
        let mut scalar_keys = std::collections::HashSet::new();
        let mut family_keys = std::collections::HashSet::new();
        for family in REGISTRY {
            assert!(family_keys.insert(family.key), "family {}", family.key);
            let mut keys = std::collections::HashSet::new();
            for m in family.metrics {
                assert!(series.insert((m.series, m.quantile)), "series {}", m.series);
                assert!(keys.insert(m.key), "key {} in {}", m.key, family.key);
                if family.labels.is_empty() {
                    assert!(scalar_keys.insert(m.key), "scalar key {}", m.key);
                }
                assert!(
                    !m.announced() || !m.help.trim().is_empty() || m.quantile.is_some(),
                    "{} has no help",
                    m.series
                );
            }
        }
    }

    #[test]
    fn doc_label_histogram_shifts_and_clamps() {
        let s = ServeStats::default();
        assert!(s.doc_labels("db").is_none());
        // Shifts against an unseeded doc are discarded: without a seed
        // baseline the counts would be deltas, not a histogram.
        s.shift_doc_labels("db", &HashMap::from([(intern("person"), 1)]));
        assert!(s.doc_labels("db").is_none());
        s.seed_doc_labels(
            "db",
            HashMap::from([(intern("person"), 2), (intern("item"), 5)]),
        );
        s.shift_doc_labels(
            "db",
            &HashMap::from([(intern("person"), -2), (intern("open_auction"), 1)]),
        );
        // Zero-count keys are dropped; new keys appear; sort is count
        // desc, then label asc.
        assert_eq!(
            s.doc_labels("db").unwrap(),
            vec![("item".into(), 5), ("open_auction".into(), 1)]
        );
        let snap = s.snapshot();
        assert_eq!(snap.doc_labels.len(), 1);
        let text = snap.to_string();
        assert!(text.contains("doc_label db item: count=5"), "{text}");
        s.forget_doc("db");
        assert!(s.doc_labels("db").is_none());
    }

    #[test]
    fn bucket_index_is_monotone_and_sqrt2_spaced() {
        let mut last = 0;
        for v in 1..100_000u64 {
            let i = LatencyHistogram::bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
            // v sits strictly below its bucket's upper bound.
            assert!(
                v < LatencyHistogram::bucket_upper(i) + 1,
                "{v} outside bucket {i}"
            );
        }
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // 60 s = 6·10⁷ µs lands comfortably inside the bucket range.
        assert!(LatencyHistogram::bucket_index(60_000_000) < HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // A √2-bucketed quantile is within one bucket of the truth.
        let p50 = h.quantile(0.5);
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!(p50 <= 500 * 2, "p50={p50} more than one bucket off");
        assert_eq!(h.quantile(1.0), 1000, "p100 clamps to the exact max");
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0, "empty → 0");
    }

    #[test]
    fn concurrent_records_conserve_count_and_sum() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let concurrent = Arc::new(LatencyHistogram::new());
        let reference = LatencyHistogram::new();
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&concurrent);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        h.record((t as u64 * 31 + i * 7) % 10_000 + 1);
                    }
                })
            })
            .collect();
        for t in 0..THREADS as u64 {
            for i in 0..PER_THREAD {
                reference.record((t * 31 + i * 7) % 10_000 + 1);
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(concurrent.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(concurrent.count(), reference.count());
        assert_eq!(concurrent.sum(), reference.sum());
        assert_eq!(concurrent.max(), reference.max());
        // Same multiset of samples → same buckets → quantiles within
        // one bucket (here: exactly equal) of the single-threaded run.
        for q in [0.5, 0.9, 0.99] {
            let (a, b) = (concurrent.quantile(q), reference.quantile(q));
            let (ba, bb) = (
                LatencyHistogram::bucket_index(a),
                LatencyHistogram::bucket_index(b),
            );
            assert!(ba.abs_diff(bb) <= 1, "q={q}: {a} vs {b}");
        }
    }
}
