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
//!
//! Delta repair, which keeps an epoch's memo exact across a publish,
//! lives in the child module `repair`.

use crate::context::{EvalContext, PlanMemo};
use crate::nodeset::{Node, NodeSet};
use crate::source::TupleSource;
use rq_automata::{position, Label, Nfa};
use rq_common::{Const, Counters, FxHashMap, FxHashSet, Pred};
use rq_relalg::{EqSystem, Expr};
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) mod repair;

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
#[derive(Clone, Debug, Default)]
pub struct EvalOutcome {
    /// The answer set: all `v` with `(q_f, v)` in the final graph,
    /// strictly ascending.
    pub answers: Vec<Const>,
    /// Unit-cost instrumentation; `counters.nodes_inserted` is the
    /// number of nodes in the final graph `G`.
    pub counters: Counters,
    /// Whether the algorithm stopped because `C` was empty (`true`) or
    /// because the iteration bound was hit (`false`).
    pub converged: bool,
    /// Number of machine copies spliced (≥ 1 for the root).
    pub instances: u64,
    /// Epoch-memo teleports: sub-traversals skipped because the
    /// complete answer set was already memoized (a root-level hit
    /// counts as one).
    pub memo_teleports: u64,
    /// Whether the epoch memo held the whole answer at the root, so no
    /// traversal ran (the counters are then all zero).
    pub root_hit: bool,
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
    /// publish exactly when [`Self::stale_machines`] leaves `m` out.
    pub fn machine_preds(&self) -> Vec<(u32, Pred)> {
        let mut out: Vec<(u32, Pred)> = self
            .machine_index
            .iter()
            .map(|(key, &machine)| (machine, key.pred))
            .collect();
        out.sort_unstable_by_key(|&(machine, _)| machine);
        out
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
        let memo = if options.record_graph || options.record_iterations {
            None
        } else {
            self.ctx.map(|ctx| ctx.view(plan.id))
        };
        if let Some(memo) = memo {
            let mut answers = Vec::new();
            if memo.lookup(root_machine, a, &mut answers) {
                // The complete answer set of this exact traversal is
                // already memoized for the epoch.
                span.note("memo", "root_hit");
                return EvalOutcome {
                    answers,
                    converged: true,
                    memo_teleports: 1,
                    root_hit: true,
                    ..EvalOutcome::default()
                };
            }
        }
        let seeds: Vec<(u32, Const)> = plan.machines[root_machine as usize]
            .starts
            .iter()
            .map(|&s| (s as u32, a))
            .collect();
        let (outcome, stopped_early) =
            self.traverse_from(root_machine, &seeds, options, memo, None);
        // Record only naturally converged, untruncated runs: those are
        // complete fixpoint answer sets, the only thing the memo may hold.
        if let (Some(ctx), Some(_)) = (self.ctx, memo) {
            if outcome.converged && !stopped_early {
                let machines = plan.machines.len() as u32;
                ctx.record(plan.id, machines, root_machine, a, &outcome.answers);
            }
        }
        if span.active() {
            span.note("nodes", outcome.counters.nodes_inserted);
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
        memo: Option<PlanMemo<'_>>,
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
                        succ_buf.clear();
                        let hit = teleportable
                            && memo.is_some_and(|m| m.lookup(child_machine, u, &mut succ_buf));
                        if hit {
                            memo_teleports += 1;
                            for &v in &succ_buf {
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
            counters,
            converged,
            instances: instances.len() as u64,
            memo_teleports,
            root_hit: false,
            iteration_stats,
            graph: dump,
        };
        (outcome, stopped_early)
    }
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

    pub(super) fn names(program: &rq_datalog::Program, set: &[Const]) -> Vec<String> {
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
                    assert_eq!(out.counters.nodes_inserted, owned.counters.nodes_inserted);
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
        assert!(served.counters.nodes_inserted < thompson.counters.nodes_inserted);
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
        assert_eq!(dump.node_count() as u64, out.counters.nodes_inserted);
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
}
