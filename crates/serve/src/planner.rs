//! The adaptive method planner.
//!
//! Section 7 of the paper ranks the five evaluation methods by document
//! size and query shape: snapshotting wins only on tiny inputs, the
//! rewriting (NAIVE) degrades with descendant axes, topDown (GENTOP)
//! pays per-node qualifier re-evaluation, TD-BU amortizes qualifiers
//! into one bottom-up pass, and twoPassSAX is the only option when the
//! document does not fit a DOM. The planner encodes that ranking as a
//! *prior* over [`QueryCost`] features, then sharpens it with observed
//! per-method latency feedback (an EWMA of ns/node per size class), so
//! a server converges on whatever is actually fastest for its workload
//! on its hardware.

use std::sync::Mutex;
use std::time::Duration;

use xust_core::{Method, QueryCost};

/// The document the planner is choosing a method for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocShape {
    /// Parsed in memory, with its arena node count.
    InMemory {
        /// Number of arena slots (≈ node count).
        nodes: usize,
    },
    /// On disk, unparsed, with its size in bytes. Only the streaming
    /// method applies.
    File {
        /// File size in bytes.
        bytes: u64,
    },
}

/// Planner tuning knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Below this many nodes the snapshot/rewriting constant factors win
    /// regardless of shape.
    pub tiny_doc_nodes: usize,
    /// Every `explore_every`-th decision tries the least-sampled
    /// candidate instead of the predicted-best (0 disables exploration).
    pub explore_every: u64,
    /// EWMA smoothing factor numerator out of 100 (new sample weight).
    pub ewma_weight: u32,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            tiny_doc_nodes: 512,
            explore_every: 16,
            ewma_weight: 25,
        }
    }
}

const N_METHODS: usize = Method::ALL.len();
/// Size classes: < 4k nodes, < 64k nodes, larger.
const N_CLASSES: usize = 3;

fn class_of(nodes: usize) -> usize {
    match nodes {
        0..=4_095 => 0,
        4_096..=65_535 => 1,
        _ => 2,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// EWMA of nanoseconds per node.
    ns_per_node: f64,
    samples: u64,
}

#[derive(Debug, Default)]
struct Feedback {
    cells: [[Cell; N_METHODS]; N_CLASSES],
    decisions: u64,
}

/// What [`AdaptivePlanner::explain`] reports: the method the planner
/// would pick, and why.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The method `choose` would return for this (cost, shape).
    pub method: Method,
    /// True when the tiny-document fast path decided (no feedback
    /// consulted).
    pub tiny: bool,
    /// The feedback size class consulted, when one was.
    pub size_class: Option<usize>,
    /// The candidate methods in prior order, each with its observed
    /// `(ns_per_node, samples)` evidence if sampled.
    pub candidates: Vec<(Method, Option<(f64, u64)>)>,
}

/// Picks an evaluation method per request; see the module docs.
///
/// All state sits behind one small mutex — decisions and feedback
/// recording are a few arithmetic operations, so contention is
/// negligible next to query evaluation.
pub struct AdaptivePlanner {
    config: PlannerConfig,
    feedback: Mutex<Feedback>,
}

impl AdaptivePlanner {
    /// Creates a planner with the given knobs.
    pub fn new(config: PlannerConfig) -> AdaptivePlanner {
        AdaptivePlanner {
            config,
            feedback: Mutex::new(Feedback::default()),
        }
    }

    /// The static prior: candidate methods for this query shape, best
    /// first, before any latency feedback.
    pub fn candidates(cost: &QueryCost, shape: DocShape) -> Vec<Method> {
        match shape {
            // An unparsed file admits only the streaming method.
            DocShape::File { .. } => vec![Method::TwoPassSax],
            DocShape::InMemory { .. } => {
                let mut order = Vec::with_capacity(4);
                if cost.has_qualifiers() {
                    // Qualifiers: one bottom-up pass beats re-evaluation;
                    // keep GENTOP second for cheap qualifiers.
                    order.push(Method::TwoPass);
                    order.push(Method::TopDown);
                } else {
                    // No qualifiers: topDown alone is optimal; TD-BU's
                    // extra pass buys nothing.
                    order.push(Method::TopDown);
                    order.push(Method::TwoPass);
                }
                // The rewriting stays competitive without descendant
                // axes (its repeated subtree scans stay local).
                order.push(Method::Naive);
                order.push(Method::CopyUpdate);
                order
            }
        }
    }

    /// Chooses a method for one request.
    pub fn choose(&self, cost: &QueryCost, shape: DocShape) -> Method {
        let nodes = match shape {
            DocShape::File { .. } => return Method::TwoPassSax,
            DocShape::InMemory { nodes } => nodes,
        };
        let candidates = Self::candidates(cost, shape);
        if nodes < self.config.tiny_doc_nodes {
            // Tiny documents: constant factors dominate; the prior's
            // cheap baselines are fine and feedback noise is high.
            return if cost.has_qualifiers() || cost.has_descendant() {
                candidates[0]
            } else {
                Method::Naive
            };
        }
        let mut fb = self.feedback.lock().expect("planner lock poisoned");
        fb.decisions += 1;
        let class = class_of(nodes);
        if self.config.explore_every > 0 && fb.decisions.is_multiple_of(self.config.explore_every) {
            // Exploration turn: give the least-sampled candidate a run
            // so feedback covers the whole candidate set.
            if let Some(&m) = candidates
                .iter()
                .min_by_key(|&&m| fb.cells[class][m.index()].samples)
            {
                return m;
            }
        }
        Self::exploit(&fb, class, &candidates)
    }

    /// Exploitation rule, shared by [`choose`](Self::choose) and
    /// [`explain`](Self::explain): predicted-best among sampled
    /// candidates; fall back to prior order for unsampled ones.
    fn exploit(fb: &Feedback, class: usize, candidates: &[Method]) -> Method {
        let best_sampled = candidates
            .iter()
            .filter(|&&m| fb.cells[class][m.index()].samples > 0)
            .min_by(|&&a, &&b| {
                let ca = fb.cells[class][a.index()].ns_per_node;
                let cb = fb.cells[class][b.index()].ns_per_node;
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
            });
        *best_sampled.unwrap_or(&candidates[0])
    }

    /// Reports the method [`choose`](Self::choose) would pick right
    /// now, with the evidence behind it, *without* counting a decision
    /// or taking an exploration turn (so `EXPLAIN` never perturbs the
    /// plan it reports — modulo a concurrent request landing on its
    /// exploration tick in between).
    pub fn explain(&self, cost: &QueryCost, shape: DocShape) -> PlanChoice {
        let nodes = match shape {
            DocShape::File { bytes } => {
                // Streaming is forced; evidence (if any) lives in the
                // byte→node scaled class `record` feeds.
                let class = class_of((bytes / 64).max(1) as usize);
                let fb = self.feedback.lock().expect("planner lock poisoned");
                let cell = fb.cells[class][Method::TwoPassSax.index()];
                return PlanChoice {
                    method: Method::TwoPassSax,
                    tiny: false,
                    size_class: Some(class),
                    candidates: vec![(
                        Method::TwoPassSax,
                        (cell.samples > 0).then_some((cell.ns_per_node, cell.samples)),
                    )],
                };
            }
            DocShape::InMemory { nodes } => nodes,
        };
        let candidates = Self::candidates(cost, shape);
        if nodes < self.config.tiny_doc_nodes {
            let method = if cost.has_qualifiers() || cost.has_descendant() {
                candidates[0]
            } else {
                Method::Naive
            };
            return PlanChoice {
                method,
                tiny: true,
                size_class: None,
                candidates: candidates.into_iter().map(|m| (m, None)).collect(),
            };
        }
        let class = class_of(nodes);
        let fb = self.feedback.lock().expect("planner lock poisoned");
        let method = Self::exploit(&fb, class, &candidates);
        PlanChoice {
            method,
            tiny: false,
            size_class: Some(class),
            candidates: candidates
                .into_iter()
                .map(|m| {
                    let cell = fb.cells[class][m.index()];
                    (
                        m,
                        (cell.samples > 0).then_some((cell.ns_per_node, cell.samples)),
                    )
                })
                .collect(),
        }
    }

    /// Feeds one observed execution back into the model.
    pub fn record(&self, method: Method, shape: DocShape, elapsed: Duration) {
        let nodes = match shape {
            DocShape::InMemory { nodes } => nodes.max(1),
            // Rough byte→node scale so file feedback lands in a sane
            // class; streaming has a single candidate anyway.
            DocShape::File { bytes } => (bytes / 64).max(1) as usize,
        };
        let sample = elapsed.as_nanos() as f64 / nodes as f64;
        let mut fb = self.feedback.lock().expect("planner lock poisoned");
        let cell = &mut fb.cells[class_of(nodes)][method.index()];
        if cell.samples == 0 {
            cell.ns_per_node = sample;
        } else {
            let w = f64::from(self.config.ewma_weight) / 100.0;
            cell.ns_per_node = w * sample + (1.0 - w) * cell.ns_per_node;
        }
        cell.samples += 1;
    }

    /// Observed model state: `(method, size_class, ns_per_node,
    /// samples)` for every sampled cell.
    pub fn snapshot(&self) -> Vec<(Method, usize, f64, u64)> {
        let fb = self.feedback.lock().expect("planner lock poisoned");
        let mut out = Vec::new();
        for (class, row) in fb.cells.iter().enumerate() {
            for (mi, cell) in row.iter().enumerate() {
                if cell.samples > 0 {
                    out.push((Method::ALL[mi], class, cell.ns_per_node, cell.samples));
                }
            }
        }
        out
    }
}

impl Default for AdaptivePlanner {
    fn default() -> AdaptivePlanner {
        AdaptivePlanner::new(PlannerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_xpath::parse_path;

    fn cost(p: &str) -> QueryCost {
        QueryCost::of_path(&parse_path(p).unwrap())
    }

    const MEM: DocShape = DocShape::InMemory { nodes: 100_000 };

    #[test]
    fn file_shape_forces_streaming() {
        let planner = AdaptivePlanner::default();
        let c = cost("//a[b]/c");
        assert_eq!(
            planner.choose(&c, DocShape::File { bytes: 1 << 30 }),
            Method::TwoPassSax
        );
    }

    #[test]
    fn prior_prefers_twopass_with_qualifiers_topdown_without() {
        assert_eq!(
            AdaptivePlanner::candidates(&cost("//part[pname = 'kb']"), MEM)[0],
            Method::TwoPass
        );
        assert_eq!(
            AdaptivePlanner::candidates(&cost("/site/people/person"), MEM)[0],
            Method::TopDown
        );
    }

    #[test]
    fn tiny_docs_use_cheap_baselines() {
        let planner = AdaptivePlanner::default();
        let m = planner.choose(&cost("a/b/c"), DocShape::InMemory { nodes: 40 });
        assert_eq!(m, Method::Naive);
    }

    #[test]
    fn feedback_overrides_prior() {
        let planner = AdaptivePlanner::new(PlannerConfig {
            explore_every: 0, // pure exploitation for determinism
            ..PlannerConfig::default()
        });
        let c = cost("//open_auction[initial > 10]/bidder");
        // Teach it that TopDown is 10x faster than the prior's TwoPass.
        for _ in 0..8 {
            planner.record(Method::TwoPass, MEM, Duration::from_millis(100));
            planner.record(Method::TopDown, MEM, Duration::from_millis(10));
        }
        assert_eq!(planner.choose(&c, MEM), Method::TopDown);
        // And that feedback is per size class: a mid-size class with no
        // samples still follows the prior.
        let mid = DocShape::InMemory { nodes: 8_192 };
        assert_eq!(planner.choose(&c, mid), Method::TwoPass);
    }

    #[test]
    fn exploration_samples_other_candidates() {
        let planner = AdaptivePlanner::new(PlannerConfig {
            explore_every: 2,
            ..PlannerConfig::default()
        });
        let c = cost("//a[b]");
        for _ in 0..4 {
            planner.record(Method::TwoPass, MEM, Duration::from_millis(1));
        }
        let chosen: Vec<Method> = (0..8).map(|_| planner.choose(&c, MEM)).collect();
        // Every second decision explores the least-sampled candidate,
        // which is never the already-sampled TwoPass.
        assert!(chosen.iter().any(|&m| m != Method::TwoPass));
        assert!(chosen.contains(&Method::TwoPass));
    }

    #[test]
    fn explain_matches_choose_without_perturbing_it() {
        let planner = AdaptivePlanner::new(PlannerConfig {
            explore_every: 0, // pure exploitation for determinism
            ..PlannerConfig::default()
        });
        let c = cost("//open_auction[initial > 10]/bidder");
        for _ in 0..8 {
            planner.record(Method::TwoPass, MEM, Duration::from_millis(100));
            planner.record(Method::TopDown, MEM, Duration::from_millis(10));
        }
        for shape in [
            MEM,
            DocShape::InMemory { nodes: 40 },
            DocShape::InMemory { nodes: 8_192 },
            DocShape::File { bytes: 1 << 20 },
        ] {
            let plan = planner.explain(&c, shape);
            assert_eq!(plan.method, planner.choose(&c, shape), "{shape:?}");
        }
        // Evidence is reported for the sampled candidates.
        let plan = planner.explain(&c, MEM);
        assert!(!plan.tiny);
        assert_eq!(plan.size_class, Some(2));
        let td = plan
            .candidates
            .iter()
            .find(|(m, _)| *m == Method::TopDown)
            .unwrap();
        let (ns, samples) = td.1.expect("TopDown was sampled");
        assert_eq!(samples, 8);
        assert!(ns > 0.0);
        // Tiny path reports no feedback evidence.
        let tiny = planner.explain(&c, DocShape::InMemory { nodes: 40 });
        assert!(tiny.tiny);
        assert!(tiny.candidates.iter().all(|(_, e)| e.is_none()));
    }

    #[test]
    fn snapshot_reports_sampled_cells() {
        let planner = AdaptivePlanner::default();
        planner.record(Method::Naive, MEM, Duration::from_micros(500));
        let snap = planner.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, Method::Naive);
        assert!(snap[0].2 > 0.0);
    }
}
