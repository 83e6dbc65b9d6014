//! Probe-budget certification: bottom-up worst-case oracle-access and
//! transient-allocation summaries over the call graph.
//!
//! The LCA contract (Definition 2.2, Theorem 4.1) is that every query
//! is answered within a bounded number of oracle probes. This module
//! makes the bound a *certified static artifact*: per-function cost
//! summaries in the [`Bound`] domain are folded bottom-up over the
//! call graph (SCC-condensed using the same Kosaraju cycles as D013),
//! and every hot-path root is emitted into a deterministic
//! canonical-JSON budget certificate (`check --emit-budget`).
//!
//! The cost model, per Definition 2.2's access accounting:
//!
//! - A call to a fn *named* `try_query` or `try_sample_weighted` is
//!   one oracle access. The bodies of fns with those names are
//!   intrinsic — never folded — so a decorator like
//!   `BudgetedOracle::try_query` forwarding to an inner oracle
//!   charges one logical access, not two, and a rejection-sampling
//!   loop *inside* `try_sample_weighted` stays inside its unit cost.
//! - A call to a fn named `try_sample_weighted_many` is a *batch* of
//!   single samples. Its body is intrinsic too, and a batch root
//!   certifies `batch-count` probes (its count argument). At a call
//!   site the batch costs the site's `probe-total(<expr>)` annotation:
//!   the total over one invocation of the calling fn, amortized over
//!   the enclosing loops (a retry loop re-issues the *rest* of a
//!   batch, so loop trips times count would overstate it
//!   quadratically). A batch call with no `probe-total` is unbounded
//!   (D016). A fn whose summary forwards `batch-count` is charged at
//!   each call site with the symbol bound by a `batch-count(<expr>)`
//!   annotation; an unbound `batch-count` reaching a root exceeds any
//!   budget that does not name it (D015).
//! - Every D011-style allocation site costs one transient allocation
//!   (`alloc_site_what`, shared with D011 so the two rules can never
//!   disagree about what allocates).
//! - A site's multiplicity is the product of its enclosing loops'
//!   trip bounds (`dataflow::loop_trip_bound`); branches sum, which
//!   only over-approximates.
//! - Imprecise call fan-out joins (termwise max) candidate callee
//!   *probe* summaries — access counts must be conservative under
//!   name-based dispatch. Allocation summaries fold only over
//!   *precise* edges, mirroring D011's hot-path reachability, so the
//!   scratch-reuse query path is not charged for allocations in
//!   same-name fns it can never reach. Cycles through precise edges
//!   multiply the summed
//!   member costs by the declared `recursion-bound` (an opaque
//!   symbol); an undeclared cycle is unbounded (D013 already fires).
//!   Apparent cycles through *imprecise* edges are name-collision
//!   artifacts and are broken, mirroring D013's choice to ignore
//!   them for cycle detection.
//!
//! Three rules enforce the certificate: D014 (hot loops with cost
//! inside must have a derivable trip bound), D015 (certified probes
//! at a root must not exceed the declared `probe-budget`), D016 (no
//! oracle access may sit at unbounded multiplicity).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::callgraph::{
    alloc_site_what, bounded_receivers, extract_calls, in_scope, via, CallGraph,
};
use crate::cfg::{enclosing_loops, extract_loops, LoopSite};
use crate::dataflow::{
    int_consts, line_annotation, loop_trip_bound, parse_bound, Bound, BATCH_COUNT_DIRECTIVE,
    PROBE_TOTAL_DIRECTIVE,
};
use crate::engine::{unix_path, Diagnostic, Workspace};
use crate::rules::Finding;
use lcakp_canon::{line, list, object, quote, rows};

/// Fn names whose calls are intrinsic unit oracle accesses.
pub const PROBE_INTRINSICS: &[&str] = &["try_query", "try_sample_weighted"];

/// Fn names whose calls are intrinsic *batches* of weighted samples.
pub const BATCH_PROBE_INTRINSICS: &[&str] = &["try_sample_weighted_many"];

/// The symbol a batch intrinsic's count argument is certified as, and
/// the one a `batch-count(<expr>)` call-site annotation binds.
pub const BATCH_COUNT_SYMBOL: &str = "batch-count";

/// True when a fn (or call-site) name is a unit oracle-access
/// intrinsic.
pub fn is_probe_name(name: &str) -> bool {
    PROBE_INTRINSICS.contains(&name)
}

/// True when a fn (or call-site) name is a batch oracle-access
/// intrinsic.
pub fn is_batch_probe_name(name: &str) -> bool {
    BATCH_PROBE_INTRINSICS.contains(&name)
}

/// The certified per-invocation probes of an intrinsic fn — `1` for a
/// unit access, `batch-count` for a batch — or `None` for an ordinary
/// fn, whose body is folded.
fn intrinsic_probes(name: &str) -> Option<Bound> {
    if is_probe_name(name) {
        Some(Bound::constant(1))
    } else if is_batch_probe_name(name) {
        Some(Bound::symbol(BATCH_COUNT_SYMBOL))
    } else {
        None
    }
}

/// A per-function worst-case cost summary.
#[derive(Debug, Clone)]
pub struct FnCost {
    /// Worst-case oracle accesses per invocation.
    pub probes: Bound,
    /// Worst-case transient allocation sites touched per invocation.
    pub allocs: Bound,
}

impl FnCost {
    fn zero() -> Self {
        FnCost {
            probes: Bound::zero(),
            allocs: Bound::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.probes.is_zero() && self.allocs.is_zero()
    }
}

/// One certified hot-path root in the budget certificate.
#[derive(Debug, Clone)]
pub struct RootBudget {
    /// `Type::name` display of the root fn.
    pub root: String,
    /// Workspace-relative defining path.
    pub path: PathBuf,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Certified worst-case probe bound.
    pub probes: Bound,
    /// Certified worst-case transient-allocation bound.
    pub allocs: Bound,
    /// Declared budget: a `probe-budget(…)` annotation, or the
    /// implicit `1` (`batch-count` for a batch) for the `try_*`
    /// intrinsics themselves.
    pub declared: Option<Bound>,
    /// Whether the certified probe bound is within the declared
    /// budget (vacuously true for zero-probe roots with no
    /// declaration).
    pub within: bool,
}

/// The full analysis: certificate plus precomputed D014–D016
/// diagnostics (shared through `Workspace::budget` so four consumers
/// fold the graph once).
#[derive(Debug, Clone, Default)]
pub struct BudgetAnalysis {
    /// Certified roots, sorted by (display, path, line).
    pub roots: Vec<RootBudget>,
    /// D014 unbounded-loop-in-hot-path diagnostics.
    pub d014: Vec<Diagnostic>,
    /// D015 probe-budget-exceeded diagnostics.
    pub d015: Vec<Diagnostic>,
    /// D016 uncertified-oracle-call diagnostics.
    pub d016: Vec<Diagnostic>,
}

/// One extracted call site with its loop multiplicity.
#[derive(Debug, Clone)]
struct CallSite {
    name: String,
    /// Token index of the callee-name identifier.
    idx: usize,
    line: u32,
    col: u32,
    /// Product of enclosing loop trip bounds.
    mult: Bound,
    /// Candidate callee fn indices (from the resolved call graph),
    /// with the edge's precision flag.
    targets: Vec<(usize, bool)>,
    /// A `probe-total(<expr>)` annotation on the call or an enclosing
    /// loop: the amortized total charged for a batch intrinsic call.
    probe_total: Option<Bound>,
    /// A `batch-count(<expr>)` annotation on the call: the value of
    /// the callee summary's `batch-count` symbol at this site.
    batch_count: Option<Bound>,
}

/// Extracted per-fn site data.
#[derive(Debug, Clone, Default)]
struct FnSites {
    loops: Vec<LoopSite>,
    loop_bounds: Vec<Bound>,
    calls: Vec<CallSite>,
    /// (token index, multiplicity) per allocation site.
    allocs: Vec<(usize, Bound)>,
}

struct Analyzer<'a> {
    ws: &'a Workspace,
    graph: &'a CallGraph,
    /// Cycle index per fn, for fns in a declared-or-not hot cycle.
    cycle_of: Vec<Option<usize>>,
    sites: Vec<Option<FnSites>>,
    memo: Vec<Option<FnCost>>,
    in_progress: Vec<bool>,
}

impl<'a> Analyzer<'a> {
    fn new(ws: &'a Workspace) -> Self {
        let graph = ws.callgraph();
        let mut cycle_of = vec![None; graph.fns.len()];
        for (cycle_idx, cycle) in graph.cycles.iter().enumerate() {
            for &member in &cycle.members {
                cycle_of[member] = Some(cycle_idx);
            }
        }
        Analyzer {
            ws,
            graph,
            cycle_of,
            sites: vec![None; graph.fns.len()],
            memo: vec![None; graph.fns.len()],
            in_progress: vec![false; graph.fns.len()],
        }
    }

    /// Extracts (and caches) the loop/call/alloc sites of a fn body.
    fn sites_for(&mut self, fn_idx: usize) -> FnSites {
        if let Some(sites) = &self.sites[fn_idx] {
            return sites.clone();
        }
        let def = &self.graph.fns[fn_idx];
        let mut out = FnSites::default();
        if let Some((open, close)) = def.body {
            let ctx = &self.ws.ctxs[def.ctx];
            let consts = int_consts(ctx);
            out.loops = extract_loops(ctx, open, close);
            out.loop_bounds = out
                .loops
                .iter()
                .map(|lp| loop_trip_bound(ctx, lp, &consts))
                .collect();
            // Resolved targets per (line, col) from the call graph.
            let mut targets: BTreeMap<(u32, u32), Vec<(usize, bool)>> = BTreeMap::new();
            for edge in &self.graph.edges {
                if edge.caller == fn_idx {
                    targets
                        .entry((edge.line, edge.col))
                        .or_default()
                        .push((edge.callee, edge.precise));
                }
            }
            for raw in extract_calls(ctx, open, close) {
                let mult = self.multiplicity(&out, raw.idx);
                let probe_total =
                    line_annotation(ctx, raw.line, PROBE_TOTAL_DIRECTIVE).or_else(|| {
                        enclosing_loops(&out.loops, raw.idx)
                            .into_iter()
                            .rev()
                            .find_map(|lp| {
                                line_annotation(ctx, out.loops[lp].line, PROBE_TOTAL_DIRECTIVE)
                            })
                    });
                let batch_count = line_annotation(ctx, raw.line, BATCH_COUNT_DIRECTIVE);
                out.calls.push(CallSite {
                    name: raw.name,
                    idx: raw.idx,
                    line: raw.line,
                    col: raw.col,
                    mult,
                    targets: targets
                        .get(&(raw.line, raw.col))
                        .cloned()
                        .unwrap_or_default(),
                    probe_total,
                    batch_count,
                });
            }
            let bounded = bounded_receivers(ctx, def);
            for i in open + 1..close {
                if ctx.is_test_line(ctx.tokens[i].line) {
                    continue;
                }
                if alloc_site_what(ctx, i, &bounded).is_some() {
                    let mult = self.multiplicity(&out, i);
                    out.allocs.push((i, mult));
                }
            }
        }
        self.sites[fn_idx] = Some(out.clone());
        out
    }

    /// Product of the trip bounds of every loop enclosing token `i`.
    fn multiplicity(&self, sites: &FnSites, i: usize) -> Bound {
        let mut mult = Bound::constant(1);
        for loop_idx in enclosing_loops(&sites.loops, i) {
            mult = mult.mul(&sites.loop_bounds[loop_idx]);
        }
        mult
    }

    /// The multiplier a fn's whole body runs under due to recursion:
    /// the declared `recursion-bound` of its cycle as an opaque
    /// symbol, unbounded for an undeclared cycle, 1 outside cycles.
    fn cycle_multiplier(&self, fn_idx: usize) -> Bound {
        match self.cycle_of[fn_idx] {
            Some(cycle_idx) => match &self.graph.cycles[cycle_idx].bound {
                Some(bound) => Bound::symbol(bound),
                None => Bound::unbounded(),
            },
            None => Bound::constant(1),
        }
    }

    /// Per-invocation cost of a fn, memoized.
    fn cost_of(&mut self, fn_idx: usize) -> FnCost {
        if let Some(cost) = &self.memo[fn_idx] {
            return cost.clone();
        }
        if let Some(probes) = intrinsic_probes(&self.graph.fns[fn_idx].name) {
            let cost = FnCost {
                probes,
                allocs: Bound::zero(),
            };
            self.memo[fn_idx] = Some(cost.clone());
            return cost;
        }
        if let Some(cycle_idx) = self.cycle_of[fn_idx] {
            // Fold the whole cycle at once: per-entry cost = (sum of
            // member local costs, intra-cycle edges excluded) × the
            // declared recursion bound. Every member memoizes the
            // same summary.
            let members = self.graph.cycles[cycle_idx].members.clone();
            for &m in &members {
                self.in_progress[m] = true;
            }
            let mut local = FnCost::zero();
            for &m in &members {
                let c = self.local_cost(m, Some(cycle_idx));
                local.probes = local.probes.add(&c.probes);
                local.allocs = local.allocs.add(&c.allocs);
            }
            let mult = self.cycle_multiplier(fn_idx);
            let cost = FnCost {
                probes: local.probes.mul(&mult),
                allocs: local.allocs.mul(&mult),
            };
            for &m in &members {
                self.in_progress[m] = false;
                self.memo[m] = Some(cost.clone());
            }
            return cost;
        }
        self.in_progress[fn_idx] = true;
        let cost = self.local_cost(fn_idx, None);
        self.in_progress[fn_idx] = false;
        self.memo[fn_idx] = Some(cost.clone());
        cost
    }

    /// Cost of one fn's own sites, folding callee summaries. Targets
    /// inside `skip_cycle` contribute nothing (the cycle multiplier
    /// accounts for them); in-progress targets reached through
    /// imprecise name collisions are broken, mirroring D013.
    fn local_cost(&mut self, fn_idx: usize, skip_cycle: Option<usize>) -> FnCost {
        let sites = self.sites_for(fn_idx);
        let mut probes = Bound::zero();
        let mut allocs = Bound::zero();
        for call in &sites.calls {
            if is_probe_name(&call.name) {
                probes = probes.add(&call.mult);
                continue;
            }
            if is_batch_probe_name(&call.name) {
                // Amortized: the annotation already totals every trip
                // of the enclosing loops.
                let total = call.probe_total.clone().unwrap_or_else(Bound::unbounded);
                probes = probes.add(&total);
                continue;
            }
            // Probes join every candidate target — the access count
            // must be conservative under name-based dispatch. Allocs
            // join only precise targets, mirroring D011's hot-path
            // reachability: an imprecise fan-out to every same-name fn
            // would charge the scratch-reuse query path for allocations
            // in fns it can never reach.
            let mut probes_joined: Option<Bound> = None;
            let mut allocs_joined: Option<Bound> = None;
            for &(target, precise) in &call.targets {
                if skip_cycle.is_some() && self.cycle_of[target] == skip_cycle {
                    continue;
                }
                if self.in_progress[target] {
                    continue;
                }
                let cost = self.cost_of(target);
                probes_joined = Some(match &probes_joined {
                    Some(acc) => acc.join(&cost.probes),
                    None => cost.probes.clone(),
                });
                if precise {
                    allocs_joined = Some(match &allocs_joined {
                        Some(acc) => acc.join(&cost.allocs),
                        None => cost.allocs,
                    });
                }
            }
            let bind = |joined: Bound| match &call.batch_count {
                Some(count) => joined.substitute(BATCH_COUNT_SYMBOL, count),
                None => joined,
            };
            if let Some(joined) = probes_joined {
                probes = probes.add(&call.mult.mul(&bind(joined)));
            }
            if let Some(joined) = allocs_joined {
                allocs = allocs.add(&call.mult.mul(&bind(joined)));
            }
        }
        for (_, mult) in &sites.allocs {
            allocs = allocs.add(mult);
        }
        FnCost { probes, allocs }
    }

    /// True when a loop's body contains any cost the budget tracks:
    /// an oracle access, an allocation site, or a call into a fn
    /// whose summary is nonzero. Zero-cost unbounded loops (pure
    /// arithmetic walks like the rMedian scale descent) are not D014
    /// findings.
    fn loop_has_cost(&mut self, fn_idx: usize, loop_idx: usize) -> bool {
        let sites = self.sites_for(fn_idx);
        let lp = sites.loops[loop_idx].clone();
        if sites.allocs.iter().any(|(idx, _)| lp.contains(*idx)) {
            return true;
        }
        let inside: Vec<CallSite> = sites
            .calls
            .iter()
            .filter(|call| lp.contains(call.idx))
            .cloned()
            .collect();
        for call in inside {
            if is_probe_name(&call.name) || is_batch_probe_name(&call.name) {
                return true;
            }
            for (target, _) in call.targets {
                if !self.cost_of(target).is_zero() {
                    return true;
                }
            }
        }
        false
    }
}

/// Runs the full budget analysis over a workspace: certificate roots
/// plus D014–D016 diagnostics. Deterministic: iteration follows the
/// (path, line) order of `CallGraph::fns` everywhere.
pub fn analyze(ws: &Workspace) -> BudgetAnalysis {
    let graph = ws.callgraph();
    let mut az = Analyzer::new(ws);
    let mut analysis = BudgetAnalysis::default();

    for (fn_idx, def) in graph.fns.iter().enumerate() {
        if !graph.hot[fn_idx] || def.body.is_none() {
            continue;
        }
        let intrinsic = intrinsic_probes(&def.name);
        let scoped = in_scope(def);
        // D014 / D016 skip intrinsic bodies: their cost is the unit
        // access by definition, so internal retry loops (rejection
        // sampling) live inside that unit.
        if scoped && intrinsic.is_none() {
            let sites = az.sites_for(fn_idx);
            let suffix = via(graph, fn_idx);
            for (loop_idx, bound) in sites.loop_bounds.iter().enumerate() {
                if bound.is_unbounded() && az.loop_has_cost(fn_idx, loop_idx) {
                    let lp = &sites.loops[loop_idx];
                    analysis.d014.push(Diagnostic {
                        path: def.path.clone(),
                        finding: Finding {
                            rule: "D014",
                            line: lp.line,
                            col: lp.col,
                            message: format!(
                                "`{}` loop with oracle or allocation cost in hot-path fn \
                                 `{}`{suffix} has no derivable trip bound; use a constant \
                                 range or annotate with `lcakp-lint: loop-bound(<expr>) \
                                 reason=\"…\"`",
                                lp.kind.keyword(),
                                def.display()
                            ),
                        },
                    });
                }
            }
            let cycle_mult = az.cycle_multiplier(fn_idx);
            for call in &sites.calls {
                if is_batch_probe_name(&call.name) && call.probe_total.is_none() {
                    analysis.d016.push(Diagnostic {
                        path: def.path.clone(),
                        finding: Finding {
                            rule: "D016",
                            line: call.line,
                            col: call.col,
                            message: format!(
                                "batch oracle access `{}` in hot-path fn `{}`{suffix} has no \
                                 probe total — one call draws many samples, so a per-call \
                                 charge would under-count it; annotate the call or its loop \
                                 with `lcakp-lint: probe-total(<expr>) reason=\"…\"`",
                                call.name,
                                def.display()
                            ),
                        },
                    });
                    continue;
                }
                let mult = if is_batch_probe_name(&call.name) {
                    Bound::constant(1)
                } else if is_probe_name(&call.name) {
                    call.mult.clone()
                } else {
                    continue;
                };
                if mult.mul(&cycle_mult).is_unbounded() {
                    analysis.d016.push(Diagnostic {
                        path: def.path.clone(),
                        finding: Finding {
                            rule: "D016",
                            line: call.line,
                            col: call.col,
                            message: format!(
                                "oracle access `{}` in hot-path fn `{}`{suffix} has unbounded \
                                 multiplicity — it escapes every summarized probe bound; bound \
                                 the enclosing loops (loop-bound/recursion-bound) or move it \
                                 off the hot path",
                                call.name,
                                def.display()
                            ),
                        },
                    });
                }
            }
        }
        if !def.root {
            continue;
        }
        let cost = az.cost_of(fn_idx);
        let declared_text = def.probe_budget.clone();
        let declared = match &declared_text {
            Some(text) => parse_bound(text),
            None => intrinsic,
        };
        let within = match &declared {
            Some(budget) => cost.probes.leq(budget),
            None => cost.probes.is_zero(),
        };
        if scoped {
            if declared_text.is_some() && declared.is_none() {
                analysis.d015.push(Diagnostic {
                    path: def.path.clone(),
                    finding: Finding {
                        rule: "D015",
                        line: def.line,
                        col: def.col,
                        message: format!(
                            "probe-budget annotation on hot-path root `{}` does not parse \
                             (grammar: INT, kebab-case symbols, `+`, `*`, parens)",
                            def.display()
                        ),
                    },
                });
            } else if !within {
                let message = match &declared {
                    Some(budget) => format!(
                        "certified worst-case probe bound `{}` of hot-path root `{}` exceeds \
                         its declared probe-budget `{}`",
                        cost.probes.render(),
                        def.display(),
                        budget.render()
                    ),
                    None => format!(
                        "hot-path root `{}` makes oracle accesses (certified bound `{}`) but \
                         declares no budget; annotate with `lcakp-lint: probe-budget(<expr>) \
                         reason=\"…\"` matching the runtime cap",
                        def.display(),
                        cost.probes.render()
                    ),
                };
                analysis.d015.push(Diagnostic {
                    path: def.path.clone(),
                    finding: Finding {
                        rule: "D015",
                        line: def.line,
                        col: def.col,
                        message,
                    },
                });
            }
        }
        analysis.roots.push(RootBudget {
            root: def.display(),
            path: def.path.clone(),
            line: def.line,
            probes: cost.probes,
            allocs: cost.allocs,
            declared,
            within,
        });
    }

    analysis
        .roots
        .sort_by(|a, b| (&a.root, &a.path, a.line).cmp(&(&b.root, &b.path, b.line)));
    analysis
}

/// D014 — unbounded loop in hot path.
pub fn check_unbounded_loops(ws: &Workspace) -> Vec<Diagnostic> {
    ws.budget().d014.clone()
}

/// D015 — probe budget exceeded (or missing) at a hot-path root.
pub fn check_probe_budget(ws: &Workspace) -> Vec<Diagnostic> {
    ws.budget().d015.clone()
}

/// D016 — uncertified oracle call.
pub fn check_uncertified_probes(ws: &Workspace) -> Vec<Diagnostic> {
    ws.budget().d016.clone()
}

/// Renders the budget certificate as canonical JSON: fixed field
/// order, roots sorted by (display, path, line), symbol inventory
/// sorted. Byte-deterministic across runs.
pub fn render_budget_json(analysis: &BudgetAnalysis) -> String {
    let roots = analysis.roots.iter().map(|root| {
        line([
            ("root", quote(&root.root)),
            ("path", quote(&unix_path(&root.path))),
            ("line", root.line.to_string()),
            ("probes", quote(&root.probes.render())),
            ("allocs", quote(&root.allocs.render())),
            (
                "declared_budget",
                root.declared
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |budget| quote(&budget.render())),
            ),
            ("within_budget", root.within.to_string()),
        ])
    });
    let mut symbols: BTreeSet<String> = BTreeSet::new();
    for root in &analysis.roots {
        symbols.extend(root.probes.symbols());
        symbols.extend(root.allocs.symbols());
        if let Some(declared) = &root.declared {
            symbols.extend(declared.symbols());
        }
    }
    let mut out = object([
        ("schema", quote("lcakp-lint/budget-certificate@1")),
        ("roots", rows(roots)),
        ("symbols", list(symbols.iter().map(|sym| quote(sym)))),
        ("root_count", analysis.roots.len().to_string()),
    ]);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;

    fn workspace(files: &[(&str, &str, &str)]) -> Workspace {
        let ctxs = files
            .iter()
            .map(|(path, krate, src)| {
                FileCtx::from_source(*path, *krate, src).expect("fixture lexes")
            })
            .collect();
        Workspace::from_ctxs(ctxs)
    }

    fn root<'a>(analysis: &'a BudgetAnalysis, name: &str) -> &'a RootBudget {
        analysis
            .roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("root `{name}` missing: {:?}", analysis.roots))
    }

    #[test]
    fn const_loop_multiplies_probe_cost() {
        let ws = workspace(&[(
            "crates/core/src/q.rs",
            "core",
            "impl LcaKp {\n\
             \x20   // lcakp-lint: probe-budget(6) reason=\"three rounds of two probes\"\n\
             \x20   pub fn query_rounds(&self, oracle: &Oracle) -> u64 {\n\
             \x20       let mut total = 0;\n\
             \x20       for _ in 0..3 {\n\
             \x20           total += oracle.try_query(total);\n\
             \x20           total += oracle.try_sample_weighted(total);\n\
             \x20       }\n\
             \x20       total\n\
             \x20   }\n\
             }\n",
        )]);
        let analysis = ws.budget();
        let r = root(analysis, "LcaKp::query_rounds");
        assert_eq!(r.probes.render(), "6");
        assert!(r.within);
        assert!(analysis.d014.is_empty() && analysis.d015.is_empty() && analysis.d016.is_empty());
    }

    #[test]
    fn intrinsic_bodies_are_never_folded() {
        // A decorator named `try_query` forwarding to an inner oracle
        // costs one access at its callers, not two — and its internal
        // rejection loop raises no D014/D016.
        let ws = workspace(&[(
            "crates/oracle/src/o.rs",
            "oracle",
            "impl BudgetedOracle {\n\
             \x20   pub fn try_query(&self, id: u64) -> u64 {\n\
             \x20       let mut v = self.inner.try_query(id);\n\
             \x20       while v == 0 {\n\
             \x20           v = self.inner.try_query(id + 1);\n\
             \x20       }\n\
             \x20       v\n\
             \x20   }\n\
             }\n\
             impl LcaKp {\n\
             \x20   // lcakp-lint: probe-budget(1) reason=\"one decorated access\"\n\
             \x20   pub fn query_once(&self, oracle: &BudgetedOracle) -> u64 {\n\
             \x20       oracle.try_query(7)\n\
             \x20   }\n\
             }\n",
        )]);
        let analysis = ws.budget();
        assert_eq!(root(analysis, "LcaKp::query_once").probes.render(), "1");
        assert_eq!(
            root(analysis, "BudgetedOracle::try_query")
                .declared
                .as_ref()
                .map(Bound::render)
                .as_deref(),
            Some("1"),
            "intrinsic roots carry the implicit unit budget"
        );
        assert!(analysis.d014.is_empty() && analysis.d016.is_empty());
    }

    #[test]
    fn declared_recursion_multiplies_cycle_cost() {
        let ws = workspace(&[(
            "crates/core/src/r.rs",
            "core",
            "impl LcaKp {\n\
             \x20   // lcakp-lint: probe-budget(depth-bound) reason=\"one probe per level\"\n\
             \x20   pub fn query_deep(&self, oracle: &Oracle, lvl: u32) -> u64 {\n\
             \x20       self.descend(oracle, lvl)\n\
             \x20   }\n\
             \x20   // lcakp-lint: recursion-bound(depth-bound) reason=\"level strictly decreases\"\n\
             \x20   fn descend(&self, oracle: &Oracle, lvl: u32) -> u64 {\n\
             \x20       if lvl == 0 {\n\
             \x20           return 0;\n\
             \x20       }\n\
             \x20       oracle.try_query(u64::from(lvl)) + self.descend(oracle, lvl - 1)\n\
             \x20   }\n\
             }\n",
        )]);
        let analysis = ws.budget();
        let r = root(analysis, "LcaKp::query_deep");
        assert_eq!(r.probes.render(), "depth-bound");
        assert!(r.within);
        assert!(analysis.d016.is_empty());
    }

    #[test]
    fn zero_cost_unbounded_loops_are_not_d014() {
        // The rMedian-style scale descent: unbounded `while`, but no
        // probes and no allocations inside — not a finding.
        let ws = workspace(&[(
            "crates/core/src/w.rs",
            "core",
            "impl LcaKp {\n\
             \x20   pub fn query_scale(&self, oracle: &Oracle) -> u64 {\n\
             \x20       let mut scale = self.n;\n\
             \x20       while scale > 1 {\n\
             \x20           scale /= 2;\n\
             \x20       }\n\
             \x20       scale + oracle.try_query(0)\n\
             \x20   }\n\
             }\n",
        )]);
        let analysis = ws.budget();
        assert!(analysis.d014.is_empty(), "{:?}", analysis.d014);
        assert_eq!(root(analysis, "LcaKp::query_scale").probes.render(), "1");
    }

    #[test]
    fn certificate_json_is_canonical() {
        let ws = workspace(&[(
            "crates/core/src/q.rs",
            "core",
            "impl LcaKp {\n\
             \x20   // lcakp-lint: probe-budget(rounds) reason=\"annotated cap\"\n\
             \x20   pub fn query_sym(&self, oracle: &Oracle) -> u64 {\n\
             \x20       // lcakp-lint: loop-bound(rounds) reason=\"config cap\"\n\
             \x20       for _ in 0..self.rounds {\n\
             \x20           oracle.try_query(0);\n\
             \x20       }\n\
             \x20       0\n\
             \x20   }\n\
             }\n",
        )]);
        let json = render_budget_json(ws.budget());
        assert!(json.starts_with("{\n  \"schema\": \"lcakp-lint/budget-certificate@1\",\n"));
        assert!(json.contains("\"probes\": \"rounds\""));
        assert!(json.contains("\"declared_budget\": \"rounds\""));
        assert!(json.contains("\"within_budget\": true"));
        assert!(json.contains("\"symbols\": [\"rounds\"]"));
        assert_eq!(json, render_budget_json(ws.budget()), "deterministic");
    }
}
