//! The evaluation algorithm of Figures 4 and 5: demand-driven traversal
//! of the interpretation graph `G(p, a, i)` guided by the automaton
//! hierarchy `EM(p, i)`.
//!
//! # Correspondence with the paper
//!
//! * The machines are the ε-free position automata of
//!   [`rq_automata::position()`], not the paper's Thompson machines: a
//!   walk pays one node per `(state, term)`, and a machine without glue
//!   states pays it only where a letter was read (`tc` inserts one node
//!   per reached term forward instead of four).  Inverse machines are
//!   exact reversals, so a machine has a set of start states and a set
//!   of final states.  Any construction runs here —
//!   [`CompiledPlan::compile_with`] takes the Thompson reference too.
//! * The paper's `EM` is built by physically splicing fresh copies of
//!   `M(e_r)` over derived-predicate transitions.  We simulate the copies
//!   with *instances*: a node is `(instance, state, term)` where
//!   `instance` identifies one spliced copy and `state` a state of that
//!   copy's machine.  The `id` bridges into and out of a copy become the
//!   instance's entry (a node at every start state of its machine) and
//!   its `exit` link (taken at every final state, into every target of
//!   the splice it stands for).
//! * `G` is the node set; arcs are never materialized ("the arcs of the
//!   graph need not be stored at all").
//! * `C` holds the continuation nodes: nodes whose state has an outgoing
//!   transition on a not-yet-expanded derived predicate.
//! * `S` holds the start nodes of the next iteration: `(q_s', u)` for the
//!   fresh copies, one per start state `q_s'`.
//! * The main loop runs until `C` is empty — or until the caller's
//!   iteration bound, which §3's cyclic-data discussion (Figure 8)
//!   motivates, is reached.
//! * The paper's `traverse` is recursive; we use an explicit stack so
//!   deep databases cannot overflow the call stack.  The visit-once
//!   discipline ("if (q', v) is not yet in G") is identical.

use crate::nodeset::{Node, NodeSet};
use crate::source::TupleSource;
use rq_automata::{position, Label, Nfa};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_relalg::{EqSystem, Expr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which machine an instance runs: the automaton of `pred`'s equation,
/// possibly inverted (for transitions taken through an `Inv` label).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct MachineKey {
    pred: Pred,
    inverted: bool,
}

/// One spliced copy of a machine.
#[derive(Clone, Copy, Debug)]
struct Instance {
    /// Index into [`CompiledPlan::machines`].
    machine: u32,
    /// Where the copy's final states continue: the parent instance and
    /// the splice (of the parent's machine) whose target states it
    /// enters, or `None` for the root instance (whose final states emit
    /// answers).
    exit: Option<(u32, u32)>,
}

/// The derived-label transitions of one machine, grouped into
/// *splices*: a state's run of transitions on one derived label is one
/// splice, and runs with the same label and the same target states are
/// the same splice.  One spliced copy serves a splice — entering it
/// from any of its states and leaving it to all of its targets is what
/// the transitions say — so a position machine, whose occurrence of
/// `r` is entered from several states (and whose reversal leaves one
/// state to several), splices no more copies than the Thompson machine.
#[derive(Debug, Default)]
struct Splices {
    /// `at[offsets[q] + t]`: the splice of transition `t` of state `q`
    /// (`u32::MAX` on base and `id` labels).  Both are empty when the
    /// machine has no derived-label transition.
    offsets: Vec<u32>,
    at: Vec<u32>,
    /// Label and target states per splice.
    exits: Vec<(Label, Vec<u32>)>,
}

impl Splices {
    fn of(machine: &Nfa, derived: &FxHashSet<Pred>) -> Self {
        let is_derived = |label: Label| label.pred().is_some_and(|r| derived.contains(&r));
        let mut out = Splices::default();
        if !machine.trans.iter().flatten().any(|&(l, _)| is_derived(l)) {
            return out;
        }
        for row in &machine.trans {
            out.offsets.push(out.at.len() as u32);
            for run in row.chunk_by(|x, y| x.0 == y.0) {
                let mut id = u32::MAX;
                if is_derived(run[0].0) {
                    let exit = (run[0].0, run.iter().map(|&(_, to)| to as u32).collect());
                    id = match out.exits.iter().position(|e| *e == exit) {
                        Some(known) => known as u32,
                        None => {
                            out.exits.push(exit);
                            out.exits.len() as u32 - 1
                        }
                    };
                }
                out.at.extend(std::iter::repeat_n(id, run.len()));
            }
        }
        out
    }

    /// The splice of transition `t` of state `q`, or `u32::MAX`.
    #[inline]
    fn at(&self, q: u32, t: usize) -> u32 {
        match self.offsets.get(q as usize) {
            Some(&offset) => self.at[offset as usize + t],
            None => u32::MAX,
        }
    }
}

/// Monotone source of [`CompiledPlan`] identities: two plans compiled
/// at different times never share machine-memo entries even if their
/// equation systems coincide.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(0);

/// Statistics of one [`EvalContext`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalContextStats {
    /// Memo lookups answered from the context.
    pub hits: u64,
    /// Memo lookups that found nothing.
    pub misses: u64,
    /// Memoized `(plan, machine, constant)` answer sets.
    pub entries: usize,
}

/// An epoch-scoped memo of completed machine traversals, shared by
/// every query evaluated against one immutable database snapshot.
///
/// The key is `(plan id, machine, source constant)`; the value is the
/// complete, converged answer set of traversing that machine from that
/// constant — exactly the answer set of the point query the machine
/// encodes.  Per-source runs over one equation system traverse
/// overlapping state, which is what makes the sharing worthwhile: the
/// evaluator consults the memo both at the **root** (a repeated point
/// query returns instantly) and at **machine-instance expansion time**
/// (a continuation about to splice a fresh copy of machine `m` for
/// term `u` routes `m`'s memoized answers straight to the parent state
/// instead of re-traversing the sub-machine).
///
/// Soundness rests on two invariants the evaluator maintains:
///
/// * only *naturally converged* runs record (never runs truncated by an
///   iteration bound, a node budget, or a `stop_on_answer` early exit),
///   so every entry is a complete fixpoint answer set; and
/// * the context must never outlive the database version it was
///   computed on — the serving layer keys one context per snapshot
///   epoch, so publishing a new epoch invalidates wholesale by
///   construction.
///
/// The memo is concurrency-safe ([`rq_common::BoundedMemo`]): one
/// context serves every wire worker answering on the epoch.  It is bounded by an
/// entry cap: once full, new results simply are not recorded — always
/// sound, because the memo is an optimization, never the source of
/// truth — so a long-lived epoch serving a diverse query stream cannot
/// grow without bound.
pub struct EvalContext {
    /// `(plan id, machine, source constant) → complete answer set`.
    memo: rq_common::BoundedMemo<(u64, u32, Const), Vec<Const>>,
}

/// Default entry cap for [`EvalContext`].
pub const DEFAULT_CONTEXT_ENTRIES: usize = 1 << 16;

impl EvalContext {
    /// Fresh, empty context with the default entry cap
    /// ([`DEFAULT_CONTEXT_ENTRIES`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CONTEXT_ENTRIES)
    }

    /// Fresh, empty context holding at most `max_entries` memoized
    /// answer sets; overflow stops recording (never lookups).
    pub fn with_capacity(max_entries: usize) -> Self {
        Self {
            memo: rq_common::BoundedMemo::new(max_entries),
        }
    }

    fn lookup(&self, plan: u64, machine: u32, from: Const) -> Option<Arc<Vec<Const>>> {
        self.memo.get(&(plan, machine, from))
    }

    /// Memoize `answers`, which must be sorted and duplicate-free (what
    /// a traversal returns).  One clone, at exact capacity: the entry
    /// lives as long as the epoch.
    fn record(&self, plan: u64, machine: u32, from: Const, answers: &[Const]) {
        let key = (plan, machine, from);
        // Saturated memo: skip the clone a refused insert would throw
        // away (one read-lock probe instead).
        if self.memo.would_refuse(&key) {
            return;
        }
        self.memo.insert(key, Arc::new(answers.to_vec()));
    }

    /// Carry the entries of `prev` whose `(plan id, machine)` the
    /// caller vouches for into this context (answer sets are
    /// `Arc`-shared, never cloned).  Returns how many entries carried.
    ///
    /// This is the cross-epoch half of the memo story: a memoized
    /// answer set stays valid across a database publish as long as the
    /// relations its machine (transitively) reads were untouched.  The
    /// serving layer resolves that from plan read-sets vs. the
    /// publish's dirty shards ([`CompiledPlan::machine_preds`] maps
    /// each machine index back to its predicate); the engine only
    /// moves the vouched-for entries.
    pub fn carry_from(&self, prev: &EvalContext, mut keep: impl FnMut(u64, u32) -> bool) -> usize {
        self.memo
            .carry_from(&prev.memo, |&(plan, machine, _)| keep(plan, machine))
    }

    /// Every memoized `(machine, root constant)` of `plan` whose
    /// machine is in `machines`, sorted — the work-list of a delta
    /// repair ([`Evaluator::repair`]).
    pub fn roots_for(&self, plan: u64, machines: &FxHashSet<u32>) -> Vec<(u32, Const)> {
        let mut out = Vec::new();
        self.memo.for_each(|&(p, m, c), _| {
            if p == plan && machines.contains(&m) {
                out.push((m, c));
            }
        });
        out.sort_unstable();
        out
    }

    /// The memoized answer set for one key, without counting a hit or
    /// a miss (maintenance reads must not skew serving stats).
    pub fn peek(&self, plan: u64, machine: u32, from: Const) -> Option<Arc<Vec<Const>>> {
        self.memo.peek(&(plan, machine, from))
    }

    /// Merge `additions` into an existing memoized answer set, keeping
    /// it sorted and deduplicated.  Returns how many answers were
    /// genuinely new.  A missing entry is left missing: an absent memo
    /// key re-derives on demand, so there is nothing to repair.
    ///
    /// Soundness: the caller vouches that after the additions the entry
    /// is the **complete** fixpoint answer set over the *new* database
    /// version — this is the semi-naive repair contract (monotone
    /// additions only; deletions invalidate wholesale instead).
    pub fn patch(&self, plan: u64, machine: u32, from: Const, additions: &FxHashSet<Const>) -> u64 {
        let key = (plan, machine, from);
        let Some(existing) = self.memo.peek(&key) else {
            return 0;
        };
        let fresh = additions
            .iter()
            .filter(|w| existing.binary_search(w).is_err());
        let mut merged = Vec::with_capacity(existing.len() + additions.len());
        merged.extend_from_slice(&existing);
        merged.extend(fresh);
        let added = (merged.len() - existing.len()) as u64;
        if added > 0 {
            merged.sort_unstable();
            merged.shrink_to_fit();
            self.memo.insert(key, Arc::new(merged));
        }
        added
    }

    /// Drop every entry of `plan` whose machine is in `machines` — the
    /// fallback when a repair cannot complete (truncated closure):
    /// stale entries must not serve, so queries re-derive cold.
    /// Returns how many entries were purged.
    pub fn purge(&self, plan: u64, machines: &FxHashSet<u32>) -> usize {
        self.memo
            .retain(|&(p, m, _)| p != plan || !machines.contains(&m))
    }

    /// Number of memoized answer sets.
    pub fn entries(&self) -> usize {
        self.memo.len()
    }

    /// Hit/miss/entry counts.
    pub fn stats(&self) -> EvalContextStats {
        let stats = self.memo.stats();
        EvalContextStats {
            hits: stats.hits,
            misses: stats.misses,
            entries: stats.entries,
        }
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalContext")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Options controlling an evaluation.
#[derive(Clone, Debug, Default)]
pub struct EvalOptions {
    /// Stop after this many iterations of the main loop even if `C` is
    /// not empty.  With cyclic data the natural termination condition
    /// may never hold (Figure 8); §3 adopts the Marchetti-Spaccamela
    /// bound `m·n`, which [`crate::query::cyclic_iteration_bound`]
    /// computes.  When the bound is at least the data's true requirement
    /// the answer set is complete.
    pub max_iterations: Option<u64>,
    /// Abort (with `converged = false`) once the graph `G` holds this
    /// many nodes.  A safety valve for non-terminating evaluations —
    /// §4 queries over cyclic data can otherwise grow `G` without
    /// bound, since the m·n cyclic guard only covers the §3 linear
    /// shape.  `None` (the default) means no limit.
    pub node_budget: Option<u64>,
    /// Stop the traversal as soon as this constant is emitted as an
    /// answer.  The `p(a, b)` membership form sets this to `b`: once
    /// `b` is known to be in the answer set there is no point
    /// materializing the rest of `p(a, Y)`.  A run stopped this way
    /// reports `converged = true` — the membership question is fully
    /// answered — but its answer set is deliberately partial.
    pub stop_on_answer: Option<Const>,
    /// Ignored — a traversal runs on its caller's thread; kept because
    /// the benchmark harness (`bench/src/layers.rs`) still names it.
    pub expand_threads: usize,
    /// Record per-iteration statistics.
    pub record_iterations: bool,
    /// Record the nodes and arcs of `G(p, a, i)` for export (Figure 3
    /// style).  Off by default: the algorithm itself never stores arcs.
    pub record_graph: bool,
}

/// Statistics for one iteration of the main loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationStat {
    /// Nodes added to `G` this iteration.
    pub new_nodes: u64,
    /// Answers known after this iteration.
    pub answers_so_far: u64,
    /// Continuation nodes pending at the end of this iteration.
    pub continuations: u64,
    /// Size of the traversal work-list this iteration started from
    /// (the freshly seeded start nodes).
    pub worklist: u64,
}

/// How one recorded arc of `G(p, a, i)` was derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcKind {
    /// An `id` transition.
    Id,
    /// A base-relation transition, forward.
    Sym(Pred),
    /// A base-relation transition, inverse.
    Inv(Pred),
    /// The implicit `id` from a copy's final state back to its parent.
    Exit,
    /// The implicit `id` from a continuation node into a fresh copy.
    Enter(Pred),
}

/// A node of the recorded graph: `(instance, state, term)`.
pub type DumpNode = (u32, u32, Const);

/// A recorded arc `(from, kind, to)`.
pub type DumpArc = (DumpNode, ArcKind, DumpNode);

/// A recorded interpretation graph (only when
/// [`EvalOptions::record_graph`] is set): nodes are
/// `(instance, state, term)`, arcs carry their provenance.
#[derive(Clone, Debug)]
pub struct GraphDump {
    /// All arcs `(from, kind, to)`.  The node set is implied.
    pub arcs: Vec<DumpArc>,
    /// The root start nodes, one per start state of the root machine.
    pub starts: Vec<DumpNode>,
    /// The root instance's final-state nodes, sorted: each answer at
    /// every final state it was reached at.
    pub answer_nodes: Vec<DumpNode>,
}

impl GraphDump {
    /// Render as GraphViz DOT; `show` renders a term.
    pub fn to_dot(
        &self,
        show: &impl Fn(Const) -> String,
        pred_name: &impl Fn(Pred) -> String,
    ) -> String {
        let mut out = String::from("digraph g {\n  rankdir=LR;\n");
        let node_id = |n: &(u32, u32, Const)| format!("\"i{}q{}_{}\"", n.0, n.1, show(n.2));
        for n in &self.starts {
            out.push_str(&format!("  {} [style=bold];\n", node_id(n)));
        }
        for n in &self.answer_nodes {
            out.push_str(&format!("  {} [shape=doublecircle];\n", node_id(n)));
        }
        for (from, kind, to) in &self.arcs {
            let label = match kind {
                ArcKind::Id => "id".to_string(),
                ArcKind::Sym(r) => pred_name(*r),
                ArcKind::Inv(r) => format!("{}^-1", pred_name(*r)),
                ArcKind::Exit => "id (exit)".to_string(),
                ArcKind::Enter(r) => format!("id (enter {})", pred_name(*r)),
            };
            out.push_str(&format!(
                "  {} -> {} [label=\"{}\"];\n",
                node_id(from),
                node_id(to),
                label
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Number of distinct nodes mentioned.
    pub fn node_count(&self) -> usize {
        let mut set: FxHashSet<(u32, u32, Const)> = self.starts.iter().copied().collect();
        for (a, _, b) in &self.arcs {
            set.insert(*a);
            set.insert(*b);
        }
        set.len()
    }
}

/// Result of an evaluation.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// The answer set: all `v` with `(q_f, v)` in the final graph,
    /// strictly ascending.
    pub answers: Vec<Const>,
    /// Unit-cost instrumentation.
    pub counters: Counters,
    /// Whether the algorithm stopped because `C` was empty (`true`) or
    /// because the iteration bound was hit (`false`).
    pub converged: bool,
    /// Number of nodes in the final graph `G`.
    pub graph_nodes: u64,
    /// Number of machine copies spliced (≥ 1 for the root).
    pub instances: u64,
    /// Epoch-memo teleports: sub-traversals skipped because the
    /// complete answer set was already memoized (a root-level hit
    /// counts as one).
    pub memo_teleports: u64,
    /// Per-iteration statistics, if requested.
    pub iteration_stats: Vec<IterationStat>,
    /// The recorded graph, if requested.
    pub graph: Option<GraphDump>,
}

/// The compiled half of an evaluator: machines for every derived
/// predicate of an equation system, in both orientations, plus the
/// lookup tables the traversal needs.
///
/// The forward machine of `p` is the ε-free [`position()`] automaton of
/// `e_p`; its partner, at the next index, is the exact reversal
/// ([`Nfa::reverse`]), so forward state `s` and inverse state `s` are
/// the same position read in opposite directions.  Compiling a plan
/// runs the construction once; the plan is immutable afterwards and
/// `Sync`, so a serving layer can compile once per program and share
/// the plan across concurrent query threads ([`Evaluator::with_plan`]).
pub struct CompiledPlan {
    id: u64,
    machines: Vec<Nfa>,
    /// One per machine.
    splices: Vec<Splices>,
    machine_index: FxHashMap<MachineKey, u32>,
    derived: FxHashSet<Pred>,
}

impl CompiledPlan {
    /// Compile the served machines for `system`.
    pub fn compile(system: &EqSystem) -> Self {
        Self::compile_with(system, position)
    }

    /// Compile with another construction of the forward machines —
    /// [`rq_automata::thompson`] is the reference the served machines
    /// are tested and ablated against.  Any construction works: the
    /// traversal follows `id` transitions and enters and leaves a
    /// machine through its start and final sets.
    pub fn compile_with(system: &EqSystem, construct: fn(&Expr) -> Nfa) -> Self {
        let derived = system.derived();
        let mut machines = Vec::with_capacity(system.lhs.len() * 2);
        let mut machine_index = FxHashMap::default();
        for &p in &system.lhs {
            let m = construct(&system.rhs[&p]);
            machine_index.insert(
                MachineKey {
                    pred: p,
                    inverted: true,
                },
                machines.len() as u32 + 1,
            );
            machine_index.insert(
                MachineKey {
                    pred: p,
                    inverted: false,
                },
                machines.len() as u32,
            );
            let inverse = m.reverse();
            machines.push(m);
            machines.push(inverse);
        }
        let splices = machines.iter().map(|m| Splices::of(m, &derived)).collect();
        Self {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            machines,
            splices,
            machine_index,
            derived,
        }
    }

    /// The plan's process-unique identity — the [`EvalContext`] memo
    /// key component that keeps two plans' machine numberings apart.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of compiled machines (two per derived predicate).
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// `(machine index, predicate)` for every compiled machine (both
    /// orientations map back to their predicate), sorted by index.
    /// This is the granularity of cross-epoch memo carry-forward: an
    /// [`EvalContext`] entry for machine `m` stays valid across a
    /// publish exactly when the read-set of `m`'s predicate is
    /// disjoint from the publish's dirty shards.
    pub fn machine_preds(&self) -> Vec<(u32, Pred)> {
        let mut out: Vec<(u32, Pred)> = self
            .machine_index
            .iter()
            .map(|(key, &machine)| (machine, key.pred))
            .collect();
        out.sort_unstable_by_key(|&(machine, _)| machine);
        out
    }

    /// Machine indices whose traversals can consult any predicate in
    /// `dirty` — directly through a base-label transition, or
    /// transitively by splicing an affected child machine.  These are
    /// exactly the machines whose [`EvalContext`] entries a publish of
    /// `dirty` makes stale (the engine-side mirror of the serving
    /// layer's read-set check).
    pub fn affected_machines(&self, dirty: &FxHashSet<Pred>) -> FxHashSet<u32> {
        let mut affected: FxHashSet<u32> = FxHashSet::default();
        for (idx, m) in self.machines.iter().enumerate() {
            let direct = m.trans.iter().flatten().any(|&(label, _)| match label {
                Label::Sym(r) | Label::Inv(r) => !self.derived.contains(&r) && dirty.contains(&r),
                Label::Id => false,
            });
            if direct {
                affected.insert(idx as u32);
            }
        }
        // Propagate through derived-label routing to a fixpoint: a
        // machine that splices an affected child is itself affected.
        loop {
            let mut grew = false;
            for (idx, m) in self.machines.iter().enumerate() {
                if affected.contains(&(idx as u32)) {
                    continue;
                }
                let routes = m.trans.iter().flatten().any(|&(label, _)| {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => return false,
                    };
                    self.derived.contains(&r)
                        && affected.contains(&self.machine_index[&MachineKey { pred: r, inverted }])
                });
                if routes {
                    affected.insert(idx as u32);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        affected
    }

    /// For every machine, the derived-label transitions that splice a
    /// given child machine: `child machine → [(machine, from state, to
    /// state)]`.  The repair loop uses this to lift a child machine's
    /// new `(entry, answer)` pairs into frontier edges of its parents.
    fn derived_routes(&self) -> FxHashMap<u32, Vec<(u32, u32, u32)>> {
        let mut routes: FxHashMap<u32, Vec<(u32, u32, u32)>> = FxHashMap::default();
        for (mi, m) in self.machines.iter().enumerate() {
            for (s, trans) in m.trans.iter().enumerate() {
                for &(label, to) in trans {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => continue,
                    };
                    if !self.derived.contains(&r) {
                        continue;
                    }
                    let child = self.machine_index[&MachineKey { pred: r, inverted }];
                    routes
                        .entry(child)
                        .or_default()
                        .push((mi as u32, s as u32, to as u32));
                }
            }
        }
        routes
    }
}

/// How an evaluator holds its plan: built for this evaluator, or
/// borrowed from a cache.
enum PlanRef<'a> {
    Owned(Box<CompiledPlan>),
    Shared(&'a CompiledPlan),
}

impl PlanRef<'_> {
    #[inline]
    fn get(&self) -> &CompiledPlan {
        match self {
            PlanRef::Owned(p) => p,
            PlanRef::Shared(p) => p,
        }
    }
}

/// Safety valve on [`Evaluator::repair`]'s lift rounds.  Each round
/// peels one level of machine-splice nesting, so real repairs finish in
/// a handful; tripping the cap means something pathological and the
/// repair falls back to a purge.
const MAX_REPAIR_ROUNDS: u32 = 64;

/// Memoized repair-closure results: `(machine, seed state, seed term)` →
/// complete sorted answer set, or `None` when the traversal's budgets
/// truncated that closure.
type ClosureCache = FxHashMap<(u32, u32, Const), Option<Arc<Vec<Const>>>>;

/// The read-only state one traversal phase runs against.  Machine
/// instances and their expansion table are only mutated between
/// iterations, in the expansion phase.
struct StepCtx<'p> {
    plan: &'p CompiledPlan,
    instances: &'p [Instance],
    expansions: &'p FxHashMap<(u32, u32), u32>,
    stop_on_answer: Option<Const>,
    record_graph: bool,
}

/// Expand one node of `G`: emit answers or exit to the parent at final
/// states, follow `id` and base-relation transitions, route derived
/// transitions into already-spliced copies, and queue continuations
/// for everything else.  A state's transitions on one base label share
/// one read of the relation row.  Every node new to `graph` is pushed
/// on `stack`.  Returns `true` when the `stop_on_answer` target was
/// emitted (the caller stops the traversal).
#[allow(clippy::too_many_arguments)]
fn expand_node<S: TupleSource>(
    step: &StepCtx<'_>,
    source: &S,
    node: Node,
    graph: &mut NodeSet,
    stack: &mut Vec<Node>,
    answers: &mut Vec<Const>,
    continuations: &mut FxHashMap<(u32, u32), FxHashSet<Const>>,
    counters: &mut Counters,
    succ_buf: &mut Vec<Const>,
    arcs: &mut Vec<DumpArc>,
) -> bool {
    let (inst, state, term) = node;
    let instance = step.instances[inst as usize];
    let machine = &step.plan.machines[instance.machine as usize];
    let mut visit = |from: Node, kind: ArcKind, next: Node, counters: &mut Counters| {
        if step.record_graph {
            arcs.push((from, kind, next));
        }
        if graph.insert(next) {
            counters.nodes_inserted += 1;
            stack.push(next);
        }
    };
    // Final state: exit to the parent (an implicit id arc) or emit an
    // answer at the root.
    if machine.finals[state as usize] {
        match instance.exit {
            None => {
                // A term reaching two final states is pushed twice; the
                // caller sorts and dedups.
                answers.push(term);
                if step.stop_on_answer == Some(term) {
                    // Membership established: the partial answer set
                    // already decides the query.
                    return true;
                }
            }
            Some((pi, splice)) => {
                let parent = step.instances[pi as usize].machine;
                for &q in &step.plan.splices[parent as usize].exits[splice as usize].1 {
                    visit(node, ArcKind::Exit, (pi, q, term), counters);
                }
            }
        }
    }
    // Rows are sorted by label: the transitions on one label form a
    // run, and a run on a base label shares one read of the source's
    // row (CSR rows are iterated in place).
    let mut first = 0;
    for run in machine.trans[state as usize].chunk_by(|x, y| x.0 == y.0) {
        let splice = step.plan.splices[instance.machine as usize].at(state, first);
        first += run.len();
        counters.rule_firings += run.len() as u64;
        match run[0].0 {
            Label::Id => {
                for &(_, to) in run {
                    visit(node, ArcKind::Id, (inst, to as u32, term), counters);
                }
            }
            Label::Sym(r) | Label::Inv(r) if splice != u32::MAX => {
                // Already expanded? Route straight into the child copy;
                // otherwise queue in C.
                if let Some(&child) = step.expansions.get(&(inst, splice)) {
                    let child_machine =
                        &step.plan.machines[step.instances[child as usize].machine as usize];
                    for &s in &child_machine.starts {
                        visit(node, ArcKind::Enter(r), (child, s as u32, term), counters);
                    }
                } else {
                    continuations.entry((inst, state)).or_default().insert(term);
                }
            }
            Label::Sym(r) => {
                let terms = source.successors(r, term, succ_buf, counters);
                for &(_, to) in run {
                    for &v in terms {
                        visit(node, ArcKind::Sym(r), (inst, to as u32, v), counters);
                    }
                }
            }
            Label::Inv(r) => {
                let terms = source.predecessors(r, term, succ_buf, counters);
                for &(_, to) in run {
                    for &v in terms {
                        visit(node, ArcKind::Inv(r), (inst, to as u32, v), counters);
                    }
                }
            }
        }
    }
    false
}

/// The evaluator for one equation system over one tuple source.
pub struct Evaluator<'a, S: TupleSource> {
    system: &'a EqSystem,
    source: &'a S,
    plan: PlanRef<'a>,
    ctx: Option<&'a EvalContext>,
}

impl<'a, S: TupleSource> Evaluator<'a, S> {
    /// Build an evaluator.  Machines for every derived predicate of the
    /// system are compiled eagerly in both orientations (they are tiny —
    /// proportional to the equation sizes).
    pub fn new(system: &'a EqSystem, source: &'a S) -> Self {
        Self {
            system,
            source,
            plan: PlanRef::Owned(Box::new(CompiledPlan::compile(system))),
            ctx: None,
        }
    }

    /// Build an evaluator around an already compiled plan (which must
    /// have been compiled from `system`).  This skips all machine
    /// construction, so a cached plan turns evaluator setup into a few
    /// pointer copies.
    pub fn with_plan(system: &'a EqSystem, plan: &'a CompiledPlan, source: &'a S) -> Self {
        Self {
            system,
            source,
            plan: PlanRef::Shared(plan),
            ctx: None,
        }
    }

    /// Attach an epoch-scoped [`EvalContext`]: completed traversals of
    /// this evaluator record their answer sets into the context, and
    /// later evaluations — by this evaluator or any other sharing the
    /// context — reuse them at the root and at machine-instance
    /// expansion time.  The caller owns the invalidation contract: a
    /// context must only ever be shared between evaluations over the
    /// **same** database version (the serving layer keys one context
    /// per snapshot epoch).
    pub fn with_context(mut self, ctx: &'a EvalContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// The equation system being evaluated.
    pub fn system(&self) -> &EqSystem {
        self.system
    }

    /// Evaluate the query `p(a, Y)` (or, with `inverted`, the query
    /// `p(X, a)` through the inverse machine).
    pub fn evaluate(&self, p: Pred, a: Const, options: &EvalOptions) -> EvalOutcome {
        self.evaluate_inner(p, a, false, options)
    }

    /// Evaluate `p(X, a)` by traversing the inverse machine from `a`.
    pub fn evaluate_inverse(&self, p: Pred, a: Const, options: &EvalOptions) -> EvalOutcome {
        self.evaluate_inner(p, a, true, options)
    }

    fn machine_id(&self, pred: Pred, inverted: bool) -> u32 {
        self.plan.get().machine_index[&MachineKey { pred, inverted }]
    }

    fn evaluate_inner(
        &self,
        p: Pred,
        a: Const,
        inverted: bool,
        options: &EvalOptions,
    ) -> EvalOutcome {
        assert!(
            self.system.rhs.contains_key(&p),
            "query predicate must be derived"
        );
        let plan = self.plan.get();
        let root_machine = self.machine_id(p, inverted);
        let span = rq_common::obs::span("engine.traverse");
        // Introspection runs (recorded graphs, per-iteration stats)
        // bypass the epoch memo: they exist to observe the plain
        // algorithm, and memo shortcuts would skew what they record.
        let ctx = if options.record_graph || options.record_iterations {
            None
        } else {
            self.ctx
        };
        if let Some(ctx) = ctx {
            if let Some(hit) = ctx.lookup(plan.id, root_machine, a) {
                // The complete answer set of this exact traversal is
                // already memoized for the epoch.
                span.note("memo", "root_hit");
                return EvalOutcome {
                    answers: hit.as_ref().clone(),
                    counters: Counters::new(),
                    converged: true,
                    graph_nodes: 0,
                    instances: 0,
                    memo_teleports: 1,
                    iteration_stats: Vec::new(),
                    graph: None,
                };
            }
        }
        let seeds: Vec<(u32, Const)> = plan.machines[root_machine as usize]
            .starts
            .iter()
            .map(|&s| (s as u32, a))
            .collect();
        let (outcome, stopped_early) = self.traverse_from(root_machine, &seeds, options, ctx, None);
        if let Some(ctx) = ctx {
            // Record only naturally converged, untruncated runs: those
            // are complete fixpoint answer sets, the only thing the
            // epoch memo may hold.
            if outcome.converged && !stopped_early {
                ctx.record(plan.id, root_machine, a, &outcome.answers);
            }
        }
        if span.active() {
            span.note("nodes", outcome.graph_nodes);
            span.note("instances", outcome.instances);
            span.note("iterations", outcome.counters.iterations);
            span.note("memo_teleports", outcome.memo_teleports);
            span.note("answers", outcome.answers.len());
            span.note("converged", outcome.converged);
        }
        outcome
    }

    /// The main loop of Figures 4–5, generalized over its entry points:
    /// seed the traversal at arbitrary `(state, term)` nodes of
    /// `root_machine` instead of only at `(start, a)`.  Point queries
    /// seed every start state; the delta-repair closures seed
    /// the states a new tuple's transition touches (backward closures
    /// run the partner machine).  `banned` machines are excluded from
    /// memo teleports — during a repair their memo entries are the very
    /// thing being patched, so routing through them would read stale
    /// answers.  Returns the outcome plus whether the run stopped early
    /// on `stop_on_answer`.
    fn traverse_from(
        &self,
        root_machine: u32,
        seeds: &[(u32, Const)],
        options: &EvalOptions,
        ctx: Option<&EvalContext>,
        banned: Option<&FxHashSet<u32>>,
    ) -> (EvalOutcome, bool) {
        let plan = self.plan.get();
        let mut counters = Counters::new();
        let mut iteration_stats = Vec::new();
        let mut memo_teleports = 0u64;
        let mut succ_buf: Vec<Const> = Vec::new();
        let mut instances: Vec<Instance> = vec![Instance {
            machine: root_machine,
            exit: None,
        }];
        // (instance, splice) → child.
        let mut expansions: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        // G: the node set.  Its size is `counters.nodes_inserted` — the
        // paper's unit cost is one per node that enters G.
        let mut graph = NodeSet::new(plan.machines[root_machine as usize].trans.len());
        // C: continuation terms per (instance, state).
        let mut continuations: FxHashMap<(u32, u32), FxHashSet<Const>> = FxHashMap::default();
        let mut answers: Vec<Const> = Vec::new();

        // S: starting points of the current iteration.
        let mut starts: Vec<Node> = seeds.iter().map(|&(q, c)| (0, q, c)).collect();
        let root_starts = starts.clone();
        let mut arcs: Vec<DumpArc> = Vec::new();
        // Arcs from the expansion phase (enter edges), keyed by target
        // start node so they are attributed when the node is seeded.
        let mut enter_arcs: Vec<DumpArc> = Vec::new();

        let mut converged = false;
        let mut stopped_early = false;
        loop {
            counters.iterations += 1;
            let nodes_before = counters.nodes_inserted;
            // Seed this iteration's work-list with the unvisited
            // starts.
            let mut seeds: Vec<Node> = Vec::new();
            for node in starts.drain(..) {
                if graph.insert(node) {
                    counters.nodes_inserted += 1;
                    seeds.push(node);
                }
            }
            // Traversal phase: depth-first expansion of the work-list.
            // Instances and expansions are immutable for the whole
            // phase.
            let step = StepCtx {
                plan,
                instances: &instances,
                expansions: &expansions,
                stop_on_answer: options.stop_on_answer,
                record_graph: options.record_graph,
            };
            let worklist = seeds.len() as u64;
            let mut stack = seeds;
            let mut stopped = false;
            while let Some(node) = stack.pop() {
                if expand_node(
                    &step,
                    self.source,
                    node,
                    &mut graph,
                    &mut stack,
                    &mut answers,
                    &mut continuations,
                    &mut counters,
                    &mut succ_buf,
                    &mut arcs,
                ) {
                    stopped = true;
                    break;
                }
            }
            if stopped {
                // Membership established (`stop_on_answer`): the
                // partial answer set already decides the query.
                converged = true;
                stopped_early = true;
                break;
            }

            if options.record_iterations {
                // Count each answer once, however many final states it
                // reached.
                answers.sort_unstable();
                answers.dedup();
                iteration_stats.push(IterationStat {
                    new_nodes: counters.nodes_inserted - nodes_before,
                    answers_so_far: answers.len() as u64,
                    continuations: continuations.values().map(|s| s.len() as u64).sum(),
                    worklist,
                });
            }

            if continuations.is_empty() {
                converged = true;
                break;
            }
            if let Some(limit) = options.max_iterations {
                if counters.iterations >= limit {
                    break;
                }
            }
            if let Some(budget) = options.node_budget {
                if counters.nodes_inserted >= budget {
                    break;
                }
            }

            // Expansion phase: for every pending (instance, state) and
            // every derived transition out of that state, splice a
            // fresh copy and seed S with a node per start state of it.  The
            // work-list is sorted so instance numbering is independent
            // of hash-map order.
            let mut pending: Vec<((u32, u32), Vec<Const>)> = continuations
                .drain()
                .map(|(key, terms)| {
                    let mut terms: Vec<Const> = terms.into_iter().collect();
                    terms.sort_unstable();
                    (key, terms)
                })
                .collect();
            pending.sort_unstable_by_key(|&(key, _)| key);
            for ((inst, state), terms) in pending {
                let machine_id = instances[inst as usize].machine as usize;
                let splices = &plan.splices[machine_id];
                let mut first = 0;
                for run in
                    plan.machines[machine_id].trans[state as usize].chunk_by(|x, y| x.0 == y.0)
                {
                    let splice = splices.at(state, first);
                    first += run.len();
                    let (r, child_inverted) = match run[0].0 {
                        Label::Sym(r) if splice != u32::MAX => (r, false),
                        Label::Inv(r) if splice != u32::MAX => (r, true),
                        _ => continue,
                    };
                    let exits = &splices.exits[splice as usize].1;
                    let child_machine = self.machine_id(r, child_inverted);
                    // Epoch memo: a term whose complete sub-answer set
                    // is already known routes those answers straight to
                    // the parent's continuation state — the whole child
                    // sub-traversal is skipped.  Sound because entries
                    // are complete fixpoint answer sets over the same
                    // database version (see [`EvalContext`]).
                    // During a repair the affected machines' own memo
                    // entries are the stale state being patched, so
                    // teleports through them are banned.
                    let teleportable = banned.is_none_or(|b| !b.contains(&child_machine));
                    let mut fresh: Vec<Const> = Vec::with_capacity(terms.len());
                    for &u in &terms {
                        let hit = if teleportable {
                            ctx.and_then(|ctx| ctx.lookup(plan.id, child_machine, u))
                        } else {
                            None
                        };
                        if let Some(sub) = hit {
                            memo_teleports += 1;
                            for &v in sub.iter() {
                                starts.extend(exits.iter().map(|&q| (inst, q, v)));
                            }
                            continue;
                        }
                        fresh.push(u);
                    }
                    if fresh.is_empty() {
                        continue;
                    }
                    let child = *expansions.entry((inst, splice)).or_insert_with(|| {
                        let id = instances.len() as u32;
                        instances.push(Instance {
                            machine: child_machine,
                            exit: Some((inst, splice)),
                        });
                        graph.add_instance(plan.machines[child_machine as usize].trans.len());
                        id
                    });
                    let child_starts =
                        &plan.machines[instances[child as usize].machine as usize].starts;
                    for u in fresh {
                        for &s in child_starts {
                            let node = (child, s as u32, u);
                            if options.record_graph {
                                enter_arcs.push(((inst, state, u), ArcKind::Enter(r), node));
                            }
                            starts.push(node);
                        }
                    }
                }
            }
        }

        // The walk pushed a root answer once per final state it reached.
        answers.sort_unstable();
        answers.dedup();
        let dump = options.record_graph.then(|| {
            arcs.extend(enter_arcs);
            // The root's final-state nodes of G: every node of G is a
            // seed or the head of a recorded arc.
            let finals = &plan.machines[root_machine as usize].finals;
            let mut answer_nodes: Vec<DumpNode> = root_starts
                .iter()
                .chain(arcs.iter().map(|(_, _, to)| to))
                .filter(|&&(i, q, _)| i == 0 && finals[q as usize])
                .copied()
                .collect();
            answer_nodes.sort_unstable();
            answer_nodes.dedup();
            GraphDump {
                arcs,
                starts: root_starts,
                answer_nodes,
            }
        });
        let outcome = EvalOutcome {
            answers,
            graph_nodes: counters.nodes_inserted,
            counters,
            converged,
            instances: instances.len() as u64,
            memo_teleports,
            iteration_stats,
            graph: dump,
        };
        (outcome, stopped_early)
    }

    /// Semi-naive delta repair: given the per-predicate tuple pairs a
    /// publish **added** and this evaluator's [`EvalContext`], extend
    /// every affected memo entry's answer set in place instead of
    /// discarding it.  The source this evaluator wraps must already
    /// read the **new** database version.
    ///
    /// New tuples only ever add derivation paths (ingests are monotone:
    /// no deletions, no rule changes), so each converged answer set is
    /// repaired by closing over the new paths:
    ///
    /// 1. every delta tuple lights up the base-label transitions that
    ///    read its predicate, giving *frontier edges* `(s, u) → (t, v)`
    ///    inside each affected machine;
    /// 2. a backward closure in the partner (inverse) machine finds the
    ///    entry terms `α` that reach the edge, and a forward closure
    ///    from its head finds the finish terms `w` it now proves — both
    ///    run the full generalized traversal over the new database, so
    ///    spliced sub-machines see the delta too;
    /// 3. each genuinely new pair `(α, w)` of a machine is lifted onto
    ///    the derived-label transitions that splice that machine,
    ///    becoming the next round's frontier — rounds peel one level of
    ///    recursion nesting and stop when nothing new appears.
    ///
    /// Memo teleports through affected machines are banned while the
    /// closures run (their entries are the stale state being patched).
    /// If any closure fails to converge within `options`' budgets, or
    /// the round cap trips, the affected entries are purged instead and
    /// `repaired: false` tells the caller to fall back cold.
    pub fn repair(
        &self,
        delta: &FxHashMap<Pred, Vec<(Const, Const)>>,
        options: &EvalOptions,
    ) -> RepairOutcome {
        let Some(ctx) = self.ctx else {
            return RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            };
        };
        let plan = self.plan.get();
        let dirty: FxHashSet<Pred> = delta.keys().copied().collect();
        let affected = plan.affected_machines(&dirty);
        let roots = ctx.roots_for(plan.id, &affected);
        if affected.is_empty() || roots.is_empty() {
            return RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            };
        }
        let span = rq_common::obs::span("engine.repair");
        // Snapshot the pre-repair entries: a pair already present was
        // propagated by the old fixpoint (parents reflect all its
        // consequences), so it neither re-frontiers nor needs patching.
        let mut old_entries: FxHashMap<(u32, Const), Arc<Vec<Const>>> = FxHashMap::default();
        for &(m, c) in &roots {
            if let Some(entry) = ctx.peek(plan.id, m, c) {
                old_entries.insert((m, c), entry);
            }
        }
        let closure_options = EvalOptions {
            stop_on_answer: None,
            record_iterations: false,
            record_graph: false,
            ..options.clone()
        };
        let routes = plan.derived_routes();

        // (machine, entry term) → new finish terms accumulated so far.
        let mut additions: FxHashMap<(u32, Const), FxHashSet<Const>> = FxHashMap::default();
        // Frontier edges (machine, tail state, head state, tail term,
        // head term).  Round 1: the delta tuples themselves, oriented
        // by the transition label that reads them.
        let mut frontier: Vec<(u32, u32, u32, Const, Const)> = Vec::new();
        for (mi, m) in plan.machines.iter().enumerate() {
            for (s, trans) in m.trans.iter().enumerate() {
                for &(label, t) in trans {
                    let (r, inverted) = match label {
                        Label::Sym(r) => (r, false),
                        Label::Inv(r) => (r, true),
                        Label::Id => continue,
                    };
                    if plan.derived.contains(&r) {
                        continue;
                    }
                    let Some(pairs) = delta.get(&r) else { continue };
                    for &(u, v) in pairs {
                        let (tail, head) = if inverted { (v, u) } else { (u, v) };
                        frontier.push((mi as u32, s as u32, t as u32, tail, head));
                    }
                }
            }
        }

        // One repair closure: the complete answer set of `machine`
        // seeded at `(state, term)`, shared across frontier edges with
        // the same seed.  `None` marks a closure the budgets truncated
        // (partial sets must never be patched into the memo).
        let mut closures = ClosureCache::default();
        let mut closure_nodes = 0u64;
        let mut closure = |machine: u32, state: u32, term: Const| {
            if let Some(hit) = closures.get(&(machine, state, term)) {
                return hit.clone();
            }
            let seeds = [(state, term)];
            let (outcome, _) = self.traverse_from(
                machine,
                &seeds,
                &closure_options,
                Some(ctx),
                Some(&affected),
            );
            closure_nodes += outcome.graph_nodes;
            let result = outcome.converged.then(|| Arc::new(outcome.answers));
            closures.insert((machine, state, term), result.clone());
            result
        };
        let mut failed = false;
        let mut rounds = 0u32;
        'rounds: while !frontier.is_empty() {
            rounds += 1;
            if rounds > MAX_REPAIR_ROUNDS {
                failed = true;
                break;
            }
            for (mi, s, t, tail, head) in std::mem::take(&mut frontier) {
                // Entry terms that reach the edge's tail: a closure in
                // the partner machine, the exact reversal (same state
                // indices; its finals are our starts).
                let Some(entries) = closure(mi ^ 1, s, tail) else {
                    failed = true;
                    break 'rounds;
                };
                if entries.is_empty() {
                    continue;
                }
                let Some(finishes) = closure(mi, t, head) else {
                    failed = true;
                    break 'rounds;
                };
                // Lift: a new pair of machine `mi` becomes a frontier
                // edge on every derived transition that splices `mi`.
                let lifts = routes.get(&mi);
                for &alpha in entries.iter() {
                    let old = old_entries.get(&(mi, alpha));
                    // `patch` leaves a missing entry missing, so a pair
                    // matters only to a memoized root or to a parent
                    // machine — of thousands of upstream terms, a few.
                    if old.is_none() && lifts.is_none() {
                        continue;
                    }
                    for &w in finishes.iter() {
                        if old.is_some_and(|e| e.binary_search(&w).is_ok()) {
                            continue;
                        }
                        if additions.entry((mi, alpha)).or_default().insert(w) {
                            for &(parent, s, t) in lifts.into_iter().flatten() {
                                frontier.push((parent, s, t, alpha, w));
                            }
                        }
                    }
                }
            }
        }

        // What the publish paid for, whether it patched or fell back.
        if span.active() {
            span.note("roots", roots.len());
            span.note("closures", closures.len());
            span.note("closure_nodes", closure_nodes);
        }
        if failed {
            let purged = ctx.purge(plan.id, &affected) as u64;
            span.note("fallback", true);
            span.note("purged", purged);
            return RepairOutcome {
                purged_entries: purged,
                ..RepairOutcome::default()
            };
        }
        let mut out = RepairOutcome {
            repaired: true,
            ..RepairOutcome::default()
        };
        for ((machine, from), to) in additions {
            let added = ctx.patch(plan.id, machine, from, &to);
            if added > 0 {
                out.patched_entries += 1;
                out.added_rows += added;
            }
        }
        if span.active() {
            span.note("rounds", rounds);
            span.note("patched", out.patched_entries);
            span.note("rows", out.added_rows);
        }
        out
    }
}

/// What [`Evaluator::repair`] did to the epoch memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Memo entries whose answer sets grew.
    pub patched_entries: u64,
    /// Total answers added across patched entries.
    pub added_rows: u64,
    /// Entries purged because the repair fell back (0 on success).
    pub purged_entries: u64,
    /// Whether the memo is again complete for the new database version.
    /// `false` means the affected entries were purged instead and the
    /// caller should treat the plan as cold.
    pub repaired: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::EdbSource;
    use rq_datalog::{parse_program, Database};
    use rq_relalg::{lemma1, Lemma1Options};

    fn run(src: &str, query_pred: &str, from: &str) -> (rq_datalog::Program, EvalOutcome) {
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let p = program.pred_by_name(query_pred).unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str(from.into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = ev.evaluate(p, a, &EvalOptions::default());
        (program, out)
    }

    fn names(program: &rq_datalog::Program, set: &[Const]) -> Vec<String> {
        let mut v: Vec<String> = set.iter().map(|&c| program.consts.display(c)).collect();
        v.sort();
        v
    }

    #[test]
    fn shared_plan_matches_owned_plan_and_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<CompiledPlan>();
        // An evaluator over a Sync source is itself shareable across
        // scoped threads — the property the batch service relies on.
        assert_sync::<Evaluator<'_, EdbSource<'_>>>();

        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
                   down(b2,b1). down(b1,b).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let plan = CompiledPlan::compile(&sys);
        assert_eq!(plan.machine_count(), 2); // sg forward + inverse
        let owned = Evaluator::new(&sys, &source).evaluate(sg, a, &EvalOptions::default());
        // One plan, several evaluators, concurrent queries.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let shared = Evaluator::with_plan(&sys, &plan, &source);
                    let out = shared.evaluate(sg, a, &EvalOptions::default());
                    assert_eq!(out.answers, owned.answers);
                    assert_eq!(out.graph_nodes, owned.graph_nodes);
                });
            }
        });
    }

    /// Every constant of `program`, both directions: the served plan
    /// answers exactly like the Thompson reference plan and inserts no
    /// more nodes.  Returns the summed nodes (served, reference) of the
    /// forward runs.
    fn assert_served_matches_thompson(
        program: &rq_datalog::Program,
        db: &Database,
        pred: &str,
    ) -> (u64, u64) {
        let sys = lemma1(program, &Lemma1Options::default()).unwrap().system;
        let p = program.pred_by_name(pred).unwrap();
        let source = EdbSource::new(db);
        let reference = CompiledPlan::compile_with(&sys, rq_automata::thompson);
        let served = Evaluator::new(&sys, &source);
        let thompson = Evaluator::with_plan(&sys, &reference, &source);
        let opts = EvalOptions::default();
        let mut forward_nodes = (0, 0);
        for c in 0..program.consts.len() {
            let a = Const::from_index(c);
            let pairs = [
                (served.evaluate(p, a, &opts), thompson.evaluate(p, a, &opts)),
                (
                    served.evaluate_inverse(p, a, &opts),
                    thompson.evaluate_inverse(p, a, &opts),
                ),
            ];
            for (inverse, (ours, theirs)) in pairs.iter().enumerate() {
                assert_eq!(ours.answers, theirs.answers, "{a:?}, inverse {inverse}");
                assert_eq!(ours.counters.iterations, theirs.counters.iterations);
                assert!(
                    ours.counters.nodes_inserted <= theirs.counters.nodes_inserted,
                    "{a:?}, inverse {inverse}: served {} > Thompson {}",
                    ours.counters.nodes_inserted,
                    theirs.counters.nodes_inserted
                );
            }
            forward_nodes.0 += pairs[0].0.counters.nodes_inserted;
            forward_nodes.1 += pairs[0].1.counters.nodes_inserted;
        }
        forward_nodes
    }

    #[test]
    fn compacted_machines_same_answers_fewer_nodes() {
        // A union-heavy program: Thompson glue states cost one graph
        // node per constant funneled through them.
        let mut src = String::from(
            "r(X,Y) :- a(X,Y).\n\
             r(X,Y) :- b(X,Y).\n\
             r(X,Y) :- c(X,Y).\n\
             r(X,Z) :- a(X,Y), r(Y,Z).\n",
        );
        for i in 0..20 {
            src.push_str(&format!("a(v{}, v{}).\n", i, i + 1));
            src.push_str(&format!("b(v{}, w{}).\n", i, i));
            src.push_str(&format!("c(w{}, v{}).\n", i, i));
        }
        let program = parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let (served, reference) = assert_served_matches_thompson(&program, &db, "r");
        assert!(
            served < reference,
            "served {served} !< Thompson {reference}"
        );
    }

    #[test]
    fn compacted_machines_agree_on_linear_case() {
        // sg splices a copy per recursion level: the served machines
        // must keep the iteration structure (checked per run) while
        // entering and leaving copies through start and final sets.
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
                   down(b2,b1). down(b1,b).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let (served, reference) = assert_served_matches_thompson(&program, &db, "sg");
        assert!(
            served < reference,
            "served {served} !< Thompson {reference}"
        );
    }

    #[test]
    fn a_derived_occurrence_entered_from_two_states_splices_once() {
        // p = e*·q: the occurrence of q follows both the start and the
        // e-state, and the e-cycle puts `a` at both.  One copy of q
        // serves both runs; a copy per run would walk q from `a` twice.
        let src = "p(X,Y) :- q(X,Y).\n\
                   p(X,Y) :- e(X,Z), p(Z,Y).\n\
                   q(X,Y) :- flat(X,Y).\n\
                   q(X,Y) :- up(X,Z), q(Z,W), down(W,Y).\n\
                   e(a,b). e(b,a). flat(a,z). flat(b,y). up(a,b). down(y,x).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let p = program.pred_by_name("p").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let reference = CompiledPlan::compile_with(&sys, rq_automata::thompson);
        let opts = EvalOptions::default();
        let served = Evaluator::new(&sys, &source).evaluate(p, a, &opts);
        let thompson = Evaluator::with_plan(&sys, &reference, &source).evaluate(p, a, &opts);
        assert_eq!(names(&program, &served.answers), vec!["x", "y", "z"]);
        assert_eq!(served.answers, thompson.answers);
        assert_eq!(served.instances, thompson.instances);
        assert!(served.graph_nodes < thompson.graph_nodes);
    }

    #[test]
    fn tc_node_counts_are_pinned_on_a_chain() {
        // tc = e*·e serves as e⁺: one node per reached term forward,
        // two per term backward (the reversal keeps both positions),
        // where the Thompson machine's glue states cost four.
        for n in [1usize, 5, 40] {
            let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
            for i in 0..n {
                src.push_str(&format!("e(n{}, n{}).\n", i, i + 1));
            }
            let program = parse_program(&src).unwrap();
            let db = Database::from_program(&program);
            let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
            let tc = program.pred_by_name("tc").unwrap();
            let get = |name: String| {
                program
                    .consts
                    .get(&rq_common::ConstValue::Str(name))
                    .unwrap()
            };
            let (head, tail) = (get("n0".into()), get(format!("n{n}")));
            let source = EdbSource::new(&db);
            let reference = CompiledPlan::compile_with(&sys, rq_automata::thompson);
            let served = Evaluator::new(&sys, &source);
            let thompson = Evaluator::with_plan(&sys, &reference, &source);
            let opts = EvalOptions::default();
            let nodes = |out: EvalOutcome| {
                assert!(out.converged);
                out.counters.nodes_inserted as usize
            };
            assert_eq!(nodes(served.evaluate(tc, head, &opts)), n + 1);
            assert_eq!(nodes(served.evaluate_inverse(tc, tail, &opts)), 2 * n + 1);
            assert_eq!(nodes(thompson.evaluate(tc, head, &opts)), 4 * n + 3);
            assert_eq!(nodes(thompson.evaluate_inverse(tc, tail, &opts)), 3 * n + 1);
            // One read of e per reached term forward.
            let out = served.evaluate(tc, head, &opts);
            assert_eq!(out.counters.tuples_retrieved as usize, n);
        }
    }

    #[test]
    fn regular_closure_single_iteration() {
        let (p, out) = run(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c). e(c,d). e(x,y).",
            "tc",
            "a",
        );
        assert_eq!(names(&p, &out.answers), vec!["b", "c", "d"]);
        assert!(out.converged);
        // Regular case: exactly one iteration (Theorem 3).
        assert_eq!(out.counters.iterations, 1);
        assert_eq!(out.instances, 1);
    }

    #[test]
    fn regular_closure_on_cycle() {
        let (p, out) = run(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c). e(c,a).",
            "tc",
            "a",
        );
        // Reaches everything including a itself.
        assert_eq!(names(&p, &out.answers), vec!["a", "b", "c"]);
        assert!(out.converged);
    }

    #[test]
    fn same_generation_linear_case() {
        let (p, out) = run(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). up(a1,a2). flat(a2,b2). flat(a,z).\n\
             down(b2,b1). down(b1,b).",
            "sg",
            "a",
        );
        // flat(a,z) at level 0; up²·flat·down² gives b.
        assert_eq!(names(&p, &out.answers), vec!["b", "z"]);
        assert!(out.converged);
        // Needs 3 iterations: levels 0, 1, 2 of the recursion.
        assert_eq!(out.counters.iterations, 3);
    }

    #[test]
    fn demand_driven_ignores_unreachable_facts() {
        // Facts not reachable from the query constant must never be
        // retrieved (the demand-driven property).
        let (p, out) = run(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b).\n\
             e(u1,u2). e(u2,u3). e(u3,u4). e(u4,u5).",
            "tc",
            "a",
        );
        assert_eq!(names(&p, &out.answers), vec!["b"]);
        // Only a's edge plus b's (empty) probe are touched.
        assert!(out.counters.tuples_retrieved <= 2);
    }

    #[test]
    fn nonconvergent_cycle_respects_bound() {
        // up cycle of length 2, down cycle of length 3, flat at one spot:
        // needs 6 iterations (Figure 8 with m=2, n=3).
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a1,a2). up(a2,a1).\n\
                   flat(a1,b1).\n\
                   down(b1,b2). down(b2,b3). down(b3,b1).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a1 = program
            .consts
            .get(&rq_common::ConstValue::Str("a1".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        // With bound m·n + 1 = 7 the answer is complete:
        // up^k(a1)=a1 for even k; down^k(b1) cycles with period 3 →
        // answers are down^{even k}(b1) = {b1, b3, b2} for k=0,2,4.
        let out = ev.evaluate(
            sg,
            a1,
            &EvalOptions {
                max_iterations: Some(7),
                record_iterations: true,
                ..EvalOptions::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(names(&program, &out.answers), vec!["b1", "b2", "b3"]);
    }

    #[test]
    fn inverse_query() {
        let (p, out) = {
            let src = "tc(X,Y) :- e(X,Y).\n\
                       tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                       e(a,b). e(b,c). e(z,c).";
            let program = parse_program(src).unwrap();
            let db = Database::from_program(&program);
            let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
            let tc = program.pred_by_name("tc").unwrap();
            let c = program
                .consts
                .get(&rq_common::ConstValue::Str("c".into()))
                .unwrap();
            let source = EdbSource::new(&db);
            let ev = Evaluator::new(&sys, &source);
            let out = ev.evaluate_inverse(tc, c, &EvalOptions::default());
            (program, out)
        };
        // All X with tc(X, c): a, b, z.
        assert_eq!(names(&p, &out.answers), vec!["a", "b", "z"]);
    }

    #[test]
    fn nonregular_mutual_recursion() {
        // Naughton's example [15]: p(X,Y) :- b0(X,Y);
        // p(X,Y) :- b1(X,Z), p(Y,Z) — not a binary-chain program as
        // written, but its §4 transform is; here we test the hand-built
        // equivalent equation system q2 = r2 ∪ a·q2·r1 instead.
        let src = "q1(X,Z) :- a(X,Y), q2(Y,Z).\n\
                   q2(X,Y) :- r2(X,Y).\n\
                   q2(X,Z) :- q1(X,Y), r1(Y,Z).\n\
                   a(s,t). a(t,u).\n\
                   r2(u,v).\n\
                   r1(v,w). r1(w,x0).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let q1 = program.pred_by_name("q1").unwrap();
        let s = program
            .consts
            .get(&rq_common::ConstValue::Str("s".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = ev.evaluate(q1, s, &EvalOptions::default());
        // q1(s,?): a(s,t), q2(t,?): q1(t,?)·r1 → a(t,u), q2(u,v)=r2,
        // then r1(v,w) → q2(t,w) → q1 path gives q1(s, x0)? Compare with
        // naive evaluation.
        let naive = rq_datalog::naive_eval(&program).unwrap();
        let expected: Vec<String> = {
            let mut v: Vec<String> = naive
                .tuples(q1)
                .into_iter()
                .filter(|t| t[0] == s)
                .map(|t| program.consts.display(t[1]))
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&program, &out.answers), expected);
        assert!(out.converged);
    }

    #[test]
    fn graph_dump_matches_node_count() {
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a,a1). flat(a1,b1). down(b1,b). flat(a,z).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = ev.evaluate(
            sg,
            a,
            &EvalOptions {
                record_graph: true,
                ..EvalOptions::default()
            },
        );
        let dump = out.graph.expect("recorded");
        // Every node of G appears in the dump (the dump also sees the
        // start node even if isolated).
        assert_eq!(dump.node_count() as u64, out.graph_nodes);
        // Answers appear as final-state nodes of the root instance.
        assert_eq!(dump.answer_nodes.len(), out.answers.len());
        let dot = dump.to_dot(&|c| program.consts.display(c), &|q| {
            program.pred_name(q).to_string()
        });
        assert!(dot.contains("digraph"));
        assert!(dot.contains("up"));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn answers_monotone_across_iterations() {
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   up(a,a1). up(a1,a2). up(a2,a3).\n\
                   flat(a,b0). flat(a1,b1). flat(a2,b2). flat(a3,b3).\n\
                   down(b1,c1). down(b2,x1). down(x1,c2). down(b3,y1). down(y1,y2). down(y2,c3).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&sys, &source);
        let out = ev.evaluate(
            sg,
            a,
            &EvalOptions {
                max_iterations: None,
                record_iterations: true,
                ..EvalOptions::default()
            },
        );
        assert!(out.converged);
        // Lemma 2(1): the partial answer set grows monotonically and each
        // level contributes sg_i's new answers.
        let answers: Vec<u64> = out
            .iteration_stats
            .iter()
            .map(|s| s.answers_so_far)
            .collect();
        assert!(answers.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*answers.last().unwrap() as usize, out.answers.len());
        assert_eq!(names(&program, &out.answers), vec!["b0", "c1", "c2", "c3"]);
    }

    #[test]
    fn an_answer_reached_at_two_finals_counts_once() {
        // sg = flat ∪ up·sg·down has two final states: z is reached at
        // the flat one in iteration 1 and at the down one in iteration 2.
        let src = "sg(X,Y) :- flat(X,Y).\n\
                   sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                   flat(a,z). up(a,a1). flat(a1,b1). down(b1,z).";
        let program = parse_program(src).unwrap();
        let db = Database::from_program(&program);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let source = EdbSource::new(&db);
        let opts = EvalOptions {
            record_iterations: true,
            record_graph: true,
            ..EvalOptions::default()
        };
        let out = Evaluator::new(&sys, &source).evaluate(sg, a, &opts);
        assert_eq!(names(&program, &out.answers), vec!["z"]);
        let so_far: Vec<u64> = out
            .iteration_stats
            .iter()
            .map(|s| s.answers_so_far)
            .collect();
        assert_eq!(so_far, vec![1, 1]);
        // The dump shows z at both final states of the root.
        let dump = out.graph.unwrap();
        assert_eq!(dump.answer_nodes.len(), 2);
        assert!(dump
            .answer_nodes
            .iter()
            .all(|&(i, _, v)| i == 0 && v == out.answers[0]));
    }

    /// Shared fixture for the repair tests: compile one plan for `src`,
    /// warm-evaluate `queries` against `src`'s facts recording into a
    /// context, then hand back everything needed to repair against the
    /// extended database `src + delta_facts`.
    fn repair_fixture(
        src: &str,
        delta_facts: &str,
    ) -> (rq_datalog::Program, Database, Database, rq_relalg::EqSystem) {
        let program = parse_program(src).unwrap();
        let db_old = Database::from_program(&program);
        let extended = parse_program(&format!("{src}\n{delta_facts}")).unwrap();
        // Appending facts that reuse existing constants keeps pred and
        // const ids identical across the two programs.
        assert_eq!(program.preds.len(), extended.preds.len());
        assert_eq!(program.consts.len(), extended.consts.len());
        let db_new = Database::from_program(&extended);
        let sys = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        (program, db_old, db_new, sys)
    }

    #[test]
    fn repair_extends_a_chain_memo_to_match_cold_reevaluation() {
        let (program, db_old, db_new, sys) = repair_fixture(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,c). e(d,f).",
            "e(c,d).",
        );
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (a, c, d) = (get("a"), get("c"), get("d"));
        let opts = EvalOptions::default();

        let old_source = EdbSource::new(&db_old);
        let warm = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        let before = warm.evaluate(tc, a, &opts);
        assert_eq!(names(&program, &before.answers), vec!["b", "c"]);
        assert!(warm.evaluate_inverse(tc, d, &opts).converged);

        // The publish adds e(c,d): a is now connected to d and f.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(c, d)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert!(repaired.repaired);
        assert!(repaired.patched_entries >= 2, "forward and inverse roots");
        assert!(repaired.added_rows >= 2);

        // The repaired entries answer straight from the memo and match
        // a cold evaluation over the new database exactly.
        let post = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate(tc, a, &opts);
        assert_eq!(post.memo_teleports, 1, "root memo hit");
        assert_eq!(post.graph_nodes, 0);
        let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(tc, a, &opts);
        assert_eq!(
            names(&program, &post.answers),
            names(&program, &cold.answers)
        );
        assert_eq!(names(&program, &post.answers), vec!["b", "c", "d", "f"]);
        let post_inv = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate_inverse(tc, d, &opts);
        let cold_inv =
            Evaluator::with_plan(&sys, &plan, &new_source).evaluate_inverse(tc, d, &opts);
        assert_eq!(
            names(&program, &post_inv.answers),
            names(&program, &cold_inv.answers)
        );
    }

    /// Naughton's nonregular mutual recursion: q2 = r2 ∪ a·q2·r1.  The
    /// machines splice each other, so repairing the memoized `q1(s, Y)`
    /// entry after an `a` delta needs the full pipeline: closures that
    /// cross derived transitions (splicing sub-machines against the new
    /// database) and several lift rounds to carry new `q2` pairs up
    /// into `q1`'s entry.
    const NAUGHTON_SRC: &str = "q1(X,Z) :- a(X,Y), q2(Y,Z).\n\
        q2(X,Y) :- r2(X,Y).\n\
        q2(X,Z) :- q1(X,Y), r1(Y,Z).\n\
        a(s,t). a(t,u).\n\
        r2(u,v). r1(v,w). r1(w,x0).\n\
        r2(u2,v2). r1(v2,w2). r1(w2,x2).";

    #[test]
    fn repair_lifts_delta_pairs_through_spliced_machines() {
        // The delta edge a(u,u2) connects the reachable region to the
        // dormant u2 branch: q1(s, Y) gains x2 only through derivations
        // nested several splices deep.
        let (program, db_old, db_new, sys) = repair_fixture(NAUGHTON_SRC, "a(u,u2).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let q1 = program.pred_by_name("q1").unwrap();
        let a_pred = program.pred_by_name("a").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (s, u, u2) = (get("s"), get("u"), get("u2"));
        let opts = EvalOptions::default();

        let old_source = EdbSource::new(&db_old);
        let before = Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(q1, s, &opts);
        assert!(before.converged);

        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(a_pred, vec![(u, u2)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert!(repaired.repaired);
        assert!(repaired.added_rows >= 1);

        let post = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .evaluate(q1, s, &opts);
        assert_eq!(post.memo_teleports, 1, "root memo hit");
        assert_eq!(post.graph_nodes, 0);
        let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(q1, s, &opts);
        assert_eq!(
            names(&program, &post.answers),
            names(&program, &cold.answers)
        );
        assert!(
            post.answers.len() > before.answers.len(),
            "the delta must actually extend the answer set"
        );
    }

    #[test]
    fn memo_payloads_carry_no_growth_slack() {
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..1030 {
            src.push_str(&format!("e(n{}, n{}).\n", i, i + 1));
        }
        let (program, db_old, db_new, sys) = repair_fixture(&src, "e(n1030, n0).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (n0, n1030) = (get("n0"), get("n1030"));
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let out = Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(tc, n0, &opts);
        // The walk pushed 1,030 answers one by one; the memo holds them
        // in a vector of exactly that size.
        assert_eq!(out.answers.len(), 1030);
        let machine = plan.machine_index[&MachineKey {
            pred: tc,
            inverted: false,
        }];
        let recorded = ctx.peek(plan.id(), machine, n0).unwrap();
        assert_eq!(*recorded, out.answers);
        assert_eq!(recorded.capacity(), 1030);
        // So does a patched entry (the delta closes the chain into a
        // ring: n0 now reaches itself).
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(n1030, n0)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(&delta, &opts);
        assert_eq!(repaired.added_rows, 1);
        let patched = ctx.peek(plan.id(), machine, n0).unwrap();
        assert_eq!((patched.len(), patched.capacity()), (1031, 1031));
    }

    #[test]
    fn repair_patches_memoized_roots_only() {
        // A 1,000-node chain into `hub`, three memoized roots along it,
        // and a delta edge leaving `hub`: the backward closure finds
        // every chain node upstream of the new edge, but only the three
        // memoized ones have an entry to patch — what the repair
        // reports must not depend on how the other 997 are skipped.
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..999 {
            src.push_str(&format!("e(n{}, n{}).\n", i, i + 1));
        }
        src.push_str("e(n999, hub). e(out, far). e(far, away).");
        let (program, db_old, db_new, sys) = repair_fixture(&src, "e(hub, out).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let e = program.pred_by_name("e").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let warm = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        let roots = [get("n0"), get("n500"), get("n999")];
        for &root in &roots {
            assert!(warm.evaluate(tc, root, &opts).converged);
        }
        assert_eq!(ctx.stats().entries, 3);

        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(e, vec![(get("hub"), get("out"))]);
        let new_source = EdbSource::new(&db_new);
        let new_eval = Evaluator::with_plan(&sys, &plan, &new_source).with_context(&ctx);
        let repaired = new_eval.repair(&delta, &opts);
        // Each root gains {out, far, away}.
        assert_eq!(
            repaired,
            RepairOutcome {
                patched_entries: 3,
                added_rows: 9,
                purged_entries: 0,
                repaired: true,
            }
        );
        assert_eq!(ctx.stats().entries, 3, "no entry appears for the other 997");
        for &root in &roots {
            let post = new_eval.evaluate(tc, root, &opts);
            assert_eq!(post.memo_teleports, 1, "root memo hit");
            let cold = Evaluator::with_plan(&sys, &plan, &new_source).evaluate(tc, root, &opts);
            assert_eq!(post.answers, cold.answers);
        }
    }

    #[test]
    fn truncated_repair_purges_instead_of_patching() {
        let (program, db_old, db_new, sys) = repair_fixture(NAUGHTON_SRC, "a(u,u2).");
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let q1 = program.pred_by_name("q1").unwrap();
        let a_pred = program.pred_by_name("a").unwrap();
        let get = |n: &str| {
            program
                .consts
                .get(&rq_common::ConstValue::Str(n.into()))
                .unwrap()
        };
        let (s, u, u2) = (get("s"), get("u"), get("u2"));

        let old_source = EdbSource::new(&db_old);
        Evaluator::with_plan(&sys, &plan, &old_source)
            .with_context(&ctx)
            .evaluate(q1, s, &EvalOptions::default());
        assert_eq!(ctx.stats().entries, 1);

        // One iteration is not enough for closures that must splice a
        // sub-machine, so the repair cannot complete — the stale entry
        // must be purged, never half-patched.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(a_pred, vec![(u, u2)]);
        let new_source = EdbSource::new(&db_new);
        let repaired = Evaluator::with_plan(&sys, &plan, &new_source)
            .with_context(&ctx)
            .repair(
                &delta,
                &EvalOptions {
                    max_iterations: Some(1),
                    ..EvalOptions::default()
                },
            );
        assert!(!repaired.repaired);
        assert_eq!(repaired.purged_entries, 1);
        assert_eq!(repaired.patched_entries, 0);
        assert_eq!(ctx.stats().entries, 0);
    }

    #[test]
    fn repair_without_affected_entries_is_a_no_op() {
        let (program, db_old, _db_new, sys) = repair_fixture(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). g(b,c).",
            "g(a,c).",
        );
        let plan = CompiledPlan::compile(&sys);
        let ctx = EvalContext::new();
        let tc = program.pred_by_name("tc").unwrap();
        let g = program.pred_by_name("g").unwrap();
        let a = program
            .consts
            .get(&rq_common::ConstValue::Str("a".into()))
            .unwrap();
        let c = program
            .consts
            .get(&rq_common::ConstValue::Str("c".into()))
            .unwrap();
        let opts = EvalOptions::default();
        let old_source = EdbSource::new(&db_old);
        let ev = Evaluator::with_plan(&sys, &plan, &old_source).with_context(&ctx);
        ev.evaluate(tc, a, &opts);

        // g is not read by tc's machines: nothing is affected, nothing
        // is touched.
        let mut delta: FxHashMap<Pred, Vec<(Const, Const)>> = FxHashMap::default();
        delta.insert(g, vec![(a, c)]);
        let repaired = ev.repair(&delta, &opts);
        assert!(repaired.repaired);
        assert_eq!(
            repaired,
            RepairOutcome {
                repaired: true,
                ..RepairOutcome::default()
            }
        );
        assert_eq!(ctx.stats().entries, 1);
    }
}
