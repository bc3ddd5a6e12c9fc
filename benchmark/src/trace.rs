//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, req, src}`; the spans of
//! one sampled operation share `req`. They are kept in memory and
//! written to `benchmark/out/trace-<workload>.jsonl` when the run ends.
//! Nothing here reaches into the program: a span is either timed by the
//! benchmark's own clock around a public call (`src = "client"`), taken
//! from the `timing` the server carries on a reply (`"reply"`), or an
//! estimate laid into its parent from a counter the servers report
//! (`"estimate"`, always labelled as such). Spans inside the program
//! are ROADMAP item 3.
//!
//! A layer's *self time* is its span minus the part of that interval
//! its child spans cover. Summed over a tree the self times equal the
//! root span exactly, which is what lets a workload's waterfall rows
//! sum to its traced end-to-end figure.
//!
//! A span around a call that crosses into another process — a router
//! call, a process spawn — is a **container**, not a layer: all the
//! benchmark sees is how long the call took. What happened inside is
//! laid into it from the replies and from the probes' estimates
//! ([`Tracer::lay_at_end`]); the part of a container that nothing laid
//! into it explains is *unattributed*, together with the root's own
//! self time. An estimate that does not fit into its container is not
//! hidden either: the excess is counted as *over-attributed*. The two
//! are netted per kind of container over the traced ops — one op
//! running a little short of the model and the next a little long is
//! spread, not mis-attribution — and what remains of either, summed
//! over the kinds, counts against `waterfall.unattributed_ratio`: a
//! model of a call that is wrong in either direction shows.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    Client,
    Reply,
    Estimate,
}

impl Src {
    fn label(self) -> &'static str {
        match self {
            Src::Client => "client",
            Src::Reply => "reply",
            Src::Estimate => "estimate",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
    pub src: Src,
    /// See the module docs: self time counts as unattributed.
    container: bool,
    /// Children laid in from the end reach back to here.
    laid_to_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// What `lay_at_end` was asked to lay and could not fit, by the name
    /// of the container it did not fit into.
    over_attributed_ns: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            over_attributed_ns: BTreeMap::new(),
        }
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        req: u64,
        src: Src,
    ) -> u32 {
        let end_ns = end_ns.max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            src,
            container: false,
            laid_to_ns: end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// A client-timed span from two `Instant`s.
    pub fn client(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) -> u32 {
        self.add(
            name,
            self.ns_of(start),
            self.ns_of(end),
            parent,
            req,
            Src::Client,
        )
    }

    /// A client-timed span around a call into another process.
    pub fn container(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) -> u32 {
        let id = self.client(name, start, end, parent, req);
        self.spans[id as usize].container = true;
        id
    }

    /// Lay child spans of the given durations (ns) back to back at the
    /// *end* of what is still free of `parent`'s interval (a reply's
    /// server-side work finished just before the reply arrived; a second
    /// call lays to the left of the first). Returns, per part, what did
    /// not fit before the parent's start — the caller either carries it
    /// into the next container or reports it with
    /// [`Tracer::over_attributed`].
    #[must_use]
    pub fn lay_at_end(
        &mut self,
        parent: u32,
        req: u64,
        parts: &[(&'static str, f64, Src)],
    ) -> Vec<f64> {
        let p_start = self.spans[parent as usize].start_ns;
        let mut end = self.spans[parent as usize].laid_to_ns;
        let mut left_over = vec![0.0; parts.len()];
        for (i, &(name, dur_ns, src)) in parts.iter().enumerate().rev() {
            let want = dur_ns.max(0.0);
            let fits = want.min((end - p_start) as f64);
            left_over[i] = want - fits;
            let start = end - fits as u64;
            self.add(name, start, end, Some(parent), req, src);
            end = start;
        }
        self.spans[parent as usize].laid_to_ns = end;
        left_over
    }

    /// Count time that was claimed for a layer inside `container` and
    /// did not fit into it.
    pub fn over_attributed(&mut self, container: u32, left_over: &[f64]) {
        let name = self.spans[container as usize].name;
        *self.over_attributed_ns.entry(name).or_insert(0.0) += left_over.iter().sum::<f64>();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"src\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                s.src.label()
            )?;
        }
        out.flush()
    }

    /// Self time of every span. Each span is first cut down to its
    /// *effective* interval — clipped to its parent's, minus whatever an
    /// earlier-starting sibling already covers — so that effective
    /// intervals of siblings are disjoint; self time is then the
    /// effective length minus the children's effective lengths. Time two
    /// parallel parts both cover is thereby counted once (for the part
    /// that started first), and self times sum to the root exactly.
    fn self_times(&self) -> Vec<u64> {
        let n = self.spans.len();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize].push(i as u32);
            }
        }
        let mut eff: Vec<(u64, u64)> = self.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        let mut selfs = vec![0u64; n];
        // `add` only accepts ids it already returned as parents, so a
        // parent's index is always below its children's and one forward
        // pass sees every parent's effective interval before its kids'.
        for i in 0..n {
            let (p_start, p_end) = eff[i];
            let kids = &mut children[i];
            kids.sort_unstable_by_key(|&k| self.spans[k as usize].start_ns);
            let mut reach = p_start;
            let mut covered = 0u64;
            for &k in kids.iter() {
                let s = &self.spans[k as usize];
                let start = s.start_ns.max(reach);
                let end = s.end_ns.min(p_end);
                eff[k as usize] = if end > start {
                    covered += end - start;
                    reach = end;
                    (start, end)
                } else {
                    (start, start)
                };
            }
            selfs[i] = (p_end - p_start) - covered;
        }
        selfs
    }

    /// The waterfall of every tree rooted at a span named `root`.
    pub fn waterfall(&self, root: &'static str) -> Waterfall {
        let selfs = self.self_times();
        // Which spans descend from a `root`-named root.
        let mut in_tree = vec![false; self.spans.len()];
        let mut ops = 0usize;
        let mut total_ns = 0u64;
        let mut by_name: BTreeMap<&'static str, (u64, Src)> = BTreeMap::new();
        // Per kind of container (and the root): time nothing explains.
        let mut unexplained: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            in_tree[i] = match s.parent {
                None => s.name == root,
                Some(p) => in_tree[p as usize],
            };
            if !in_tree[i] {
                continue;
            }
            if s.parent.is_none() {
                ops += 1;
                total_ns += s.end_ns - s.start_ns;
            }
            if s.container || s.parent.is_none() {
                *unexplained.entry(s.name).or_insert(0.0) += selfs[i] as f64;
            } else {
                by_name.entry(s.name).or_insert((0, s.src)).0 += selfs[i];
            }
        }
        let (mut unattributed_ns, mut over_attributed_ns) = (0.0, 0.0);
        let kinds: std::collections::BTreeSet<&'static str> = unexplained
            .keys()
            .chain(self.over_attributed_ns.keys())
            .copied()
            .collect();
        for kind in kinds {
            let net = unexplained.get(kind).copied().unwrap_or(0.0)
                - self.over_attributed_ns.get(kind).copied().unwrap_or(0.0);
            if net >= 0.0 {
                unattributed_ns += net;
            } else {
                over_attributed_ns -= net;
            }
        }
        let per_op = |ns: f64| {
            if ops == 0 {
                0.0
            } else {
                ns / ops as f64 / 1e3
            }
        };
        let mut rows: Vec<WaterfallRow> = by_name
            .into_iter()
            .map(|(name, (ns, src))| WaterfallRow {
                name,
                src,
                per_op_us: per_op(ns as f64),
            })
            .collect();
        rows.sort_by(|a, b| b.per_op_us.total_cmp(&a.per_op_us));
        Waterfall {
            root,
            ops,
            total_per_op_us: per_op(total_ns as f64),
            unattributed_per_op_us: per_op(unattributed_ns),
            over_attributed_per_op_us: per_op(over_attributed_ns),
            rows,
        }
    }
}

pub struct WaterfallRow {
    pub name: &'static str,
    pub src: Src,
    pub per_op_us: f64,
}

/// Per-operation mean self time by layer; `rows` plus `unattributed`
/// less `over_attributed` sum to `total_per_op_us`.
pub struct Waterfall {
    pub root: &'static str,
    pub ops: usize,
    pub total_per_op_us: f64,
    pub unattributed_per_op_us: f64,
    /// Claimed for a layer by an estimate, but more than the calls it was
    /// claimed inside of took.
    pub over_attributed_per_op_us: f64,
    pub rows: Vec<WaterfallRow>,
}

impl Waterfall {
    /// How much of the traced figure the layers fail to explain, in
    /// either direction, as a share of it.
    pub fn unattributed_ratio(&self) -> f64 {
        if self.total_per_op_us > 0.0 {
            (self.unattributed_per_op_us + self.over_attributed_per_op_us) / self.total_per_op_us
        } else {
            0.0
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "waterfall {} — mean per op over {} traced ops, total {:.1} us\n",
            self.root, self.ops, self.total_per_op_us
        );
        let share = |us: f64| {
            if self.total_per_op_us > 0.0 {
                100.0 * us / self.total_per_op_us
            } else {
                0.0
            }
        };
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<34} {:>12.1} us {:>6.1} %  ({})\n",
                r.name,
                r.per_op_us,
                share(r.per_op_us),
                r.src.label()
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>12.1} us {:>6.1} %\n",
            "(unattributed)",
            self.unattributed_per_op_us,
            share(self.unattributed_per_op_us)
        ));
        out.push_str(&format!(
            "  {:<34} {:>12.1} us {:>6.1} %  (estimates that did not fit)\n",
            "(over-attributed)",
            self.over_attributed_per_op_us,
            share(self.over_attributed_per_op_us)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_and_overlaps_count_once() {
        let mut t = Tracer::new();
        let root = t.add("op", 0, 1_000, None, 1, Src::Client);
        let call = t.add("router.call", 100, 900, Some(root), 1, Src::Client);
        // Two overlapping children (parallel members) cover 300..800 once.
        t.add("core.identify", 300, 700, Some(call), 1, Src::Reply);
        t.add("core.identify", 500, 800, Some(call), 1, Src::Reply);
        // A second, unrelated tree must not leak into the first's rows.
        t.add("other", 0, 50, None, 2, Src::Client);
        let w = t.waterfall("op");
        assert_eq!(w.ops, 1);
        let row = |n: &str| w.rows.iter().find(|r| r.name == n).unwrap().per_op_us;
        // The overlap 500..700 counts once: identify covers 300..800.
        assert!((row("router.call") - 0.3).abs() < 1e-9);
        assert!((row("core.identify") - 0.5).abs() < 1e-9);
        assert!((w.unattributed_per_op_us - 0.2).abs() < 1e-9);
        assert!((w.total_per_op_us - 1.0).abs() < 1e-9);
        let sum: f64 = w.rows.iter().map(|r| r.per_op_us).sum();
        assert!((sum + w.unattributed_per_op_us - w.total_per_op_us).abs() < 1e-9);
    }

    #[test]
    fn a_container_is_explained_only_by_what_is_laid_into_it() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = t.client("op", at(0), at(2_000), None, 0);
        let call = t.container("router.call", at(1_000), at(2_000), Some(root), 0);
        let left = t.lay_at_end(
            call,
            0,
            &[
                ("infer", 300.0, Src::Reply),
                ("identify", 500.0, Src::Reply),
            ],
        );
        assert_eq!(left, [0.0, 0.0]);
        // A second lay goes to the left of the first; 400 of it do not fit.
        let left = t.lay_at_end(call, 0, &[("wire", 600.0, Src::Estimate)]);
        assert_eq!(left, [400.0]);
        t.over_attributed(call, &left);
        let w = t.waterfall("op");
        let row = |n: &str| w.rows.iter().find(|r| r.name == n).unwrap().per_op_us;
        assert!((row("identify") - 0.5).abs() < 1e-9);
        assert!((row("infer") - 0.3).abs() < 1e-9);
        assert!((row("wire") - 0.2).abs() < 1e-9);
        assert!(w.rows.iter().all(|r| r.name != "router.call"));
        // Root self (0..1000) is unattributed, the container is full and
        // over-claimed: the two kinds do not cancel each other.
        assert!((w.unattributed_per_op_us - 1.0).abs() < 1e-9);
        assert!((w.over_attributed_per_op_us - 0.4).abs() < 1e-9);
        assert!((w.unattributed_ratio() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn short_and_long_ops_of_one_kind_net_out() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        // The model says 500; one call took 400, the next 600.
        for (req, (start, end)) in [(0, 400), (1_000, 1_600)].into_iter().enumerate() {
            let call = t.container("router.call", at(start), at(end), None, req as u64);
            let left = t.lay_at_end(call, req as u64, &[("engine", 500.0, Src::Estimate)]);
            t.over_attributed(call, &left);
        }
        let w = t.waterfall("router.call");
        assert_eq!(w.ops, 2);
        assert!(w.unattributed_ratio() < 1e-9, "{}", w.unattributed_ratio());
    }

    #[test]
    fn an_unexplained_container_counts_as_unattributed() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = t.client("op", at(0), at(1_000), None, 0);
        t.container("router.call", at(0), at(1_000), Some(root), 0);
        assert!((t.waterfall("op").unattributed_ratio() - 1.0).abs() < 1e-9);
    }
}
