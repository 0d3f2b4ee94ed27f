//! Workload generators: program text and request streams as a pure
//! function of `--seed`.  The server under test sees only the generated
//! `.dl` file and the requests; the seed never reaches it.

use crate::rng::{Rng, Zipf};
use std::fmt::Write;

pub const TC_RULES: &str = "tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n";
pub const CNX_RULES: &str = "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n";

/// Queries per `POST /batch` in `nary_sweep`.
pub const BATCH: usize = 32;
/// `/ingest` requests per second in `durable_mixed` (a fixed schedule).
pub const INGEST_HZ: u64 = 10;
/// Edges per ingest: two chains of this many edges each.
pub const CHAIN_EDGES: u32 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    HotPoints,
    ColdReach,
    NarySweep,
    DurableMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HotPoints,
        Kind::ColdReach,
        Kind::NarySweep,
        Kind::DurableMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotPoints => "hot_points",
            Kind::ColdReach => "cold_reach",
            Kind::NarySweep => "nary_sweep",
            Kind::DurableMixed => "durable_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One read query; node and airport numbers are the harness's own ids,
/// rendered as the constants `n<id>` / `p<id>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// `tc(a, Y)`
    Fwd(u32),
    /// `tc(X, a)`
    Bwd(u32),
    /// `tc(a, b)`
    Member(u32, u32),
    /// `cnx(p<airport>, <deptime>, D, AT)`
    Cnx(u32, u32),
}

impl Query {
    pub fn text(&self) -> String {
        match *self {
            Query::Fwd(a) => format!("tc(n{a}, Y)"),
            Query::Bwd(a) => format!("tc(X, n{a})"),
            Query::Member(a, b) => format!("tc(n{a}, n{b})"),
            Query::Cnx(a, dt) => format!("cnx(p{a}, {dt}, D, AT)"),
        }
    }
}

/// One read request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Query(Query),
    Batch(Vec<Query>),
}

impl Request {
    pub fn queries(&self) -> &[Query] {
        match self {
            Request::Query(q) => std::slice::from_ref(q),
            Request::Batch(qs) => qs,
        }
    }

    pub fn path(&self) -> &'static str {
        match self {
            Request::Query(_) => "/query",
            Request::Batch(_) => "/batch",
        }
    }

    /// The JSON request body.  Query texts hold no character JSON must
    /// escape.
    pub fn body(&self) -> String {
        match self {
            Request::Query(q) => format!("{{\"query\":\"{}\"}}", q.text()),
            Request::Batch(qs) => {
                let mut out = String::from("{\"queries\":[");
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", q.text());
                }
                out.push_str("]}");
                out
            }
        }
    }
}

/// A directed graph over nodes `0..nodes`, built family by family.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub nodes: u32,
    pub edges: Vec<(u32, u32)>,
    /// `(first node, node count)` of every weakly connected block, in
    /// ascending node order — `tc(a, b)` draws `b` from `a`'s block.
    pub blocks: Vec<(u32, u32)>,
    /// `(family name, first node, node count)`.
    pub families: Vec<(&'static str, u32, u32)>,
}

impl Graph {
    fn begin(&mut self, family: &'static str) {
        self.families.push((family, self.nodes, 0));
    }

    fn end(&mut self) {
        let last = self.families.last_mut().expect("begin() was called");
        last.2 = self.nodes - last.1;
    }

    fn block(&mut self, len: u32) -> u32 {
        let start = self.nodes;
        self.blocks.push((start, len));
        self.nodes += len;
        start
    }

    /// `count` grids of `w × h`, arcs to the right and downward.
    pub fn add_grids(&mut self, count: u32, w: u32, h: u32) {
        self.begin("grid");
        for _ in 0..count {
            let base = self.block(w * h);
            for r in 0..h {
                for c in 0..w {
                    let u = base + r * w + c;
                    if c + 1 < w {
                        self.edges.push((u, u + 1));
                    }
                    if r + 1 < h {
                        self.edges.push((u, u + w));
                    }
                }
            }
        }
        self.end();
    }

    /// `count` simple paths of `len` nodes.
    pub fn add_chains(&mut self, count: u32, len: u32) {
        self.begin("chain");
        for _ in 0..count {
            let base = self.block(len);
            for i in 0..len - 1 {
                self.edges.push((base + i, base + i + 1));
            }
        }
        self.end();
    }

    /// `count` layered DAGs with hubs: every node of a non-final layer
    /// gets a log-uniform out-degree in `1..=max_degree` into the next
    /// layer, so a few nodes fan out widely and most barely at all.
    pub fn add_hub_dags(
        &mut self,
        count: u32,
        layers: u32,
        width: u32,
        max_degree: u32,
        rng: &mut Rng,
    ) {
        self.begin("hub");
        for _ in 0..count {
            let base = self.block(layers * width);
            for layer in 0..layers - 1 {
                for i in 0..width {
                    let degree = (f64::from(max_degree).powf(rng.unit()) as u32).clamp(1, width);
                    let mut targets: Vec<u32> = (0..degree)
                        .map(|_| rng.below(width as usize) as u32)
                        .collect();
                    targets.sort_unstable();
                    targets.dedup();
                    let u = base + layer * width + i;
                    for t in targets {
                        self.edges.push((u, base + (layer + 1) * width + t));
                    }
                }
            }
        }
        self.end();
    }

    /// `count` directed rings of `len` nodes, each with `chords` extra
    /// arcs between random ring members — every node reaches the whole
    /// ring, so the traversal meets cycles at every depth.
    pub fn add_rings(&mut self, count: u32, len: u32, chords: u32, rng: &mut Rng) {
        self.begin("ring");
        for _ in 0..count {
            let base = self.block(len);
            for i in 0..len {
                self.edges.push((base + i, base + (i + 1) % len));
            }
            for _ in 0..chords {
                let u = rng.below(len as usize) as u32;
                // A chord never duplicates a ring arc or loops on itself.
                let v = (u + 2 + rng.below(len as usize - 3) as u32) % len;
                self.edges.push((base + u, base + v));
            }
        }
        self.end();
    }

    /// The block holding `node`.
    pub fn block_of(&self, node: u32) -> (u32, u32) {
        let i = self.blocks.partition_point(|&(start, _)| start <= node);
        self.blocks[i - 1]
    }

    pub fn program(&self) -> String {
        let mut out = String::with_capacity(TC_RULES.len() + self.edges.len() * 20);
        out.push_str(TC_RULES);
        for &(u, v) in &self.edges {
            let _ = writeln!(out, "e(n{u},n{v}).");
        }
        out
    }
}

/// `airports × per_airport` flights: airport `a` departs on the hour
/// from 06:00, every flight lands 90 minutes later at a random other
/// airport (the shape of `rq_workloads::flights::network`).  Times are
/// minutes since midnight.
#[derive(Clone, Debug)]
pub struct Flights {
    pub airports: u32,
    pub per_airport: u32,
    /// Destination of airport `a`'s `f`-th departure at `[a * per_airport + f]`.
    pub dest: Vec<u32>,
}

impl Flights {
    pub const FIRST_DEP: u32 = 6 * 60;
    pub const HEADWAY: u32 = 60;
    pub const FLIGHT_MIN: u32 = 90;

    pub fn new(airports: u32, per_airport: u32, rng: &mut Rng) -> Self {
        assert!(airports >= 2);
        let mut dest = Vec::with_capacity((airports * per_airport) as usize);
        for a in 0..airports {
            for _ in 0..per_airport {
                let d = rng.below(airports as usize - 1) as u32;
                dest.push(if d >= a { d + 1 } else { d }); // no self-loops
            }
        }
        Self {
            airports,
            per_airport,
            dest,
        }
    }

    pub fn dep(f: u32) -> u32 {
        Self::FIRST_DEP + f * Self::HEADWAY
    }

    pub fn program(&self) -> String {
        let mut out = String::from(CNX_RULES);
        for a in 0..self.airports {
            for f in 0..self.per_airport {
                let (dep, d) = (Self::dep(f), self.dest[(a * self.per_airport + f) as usize]);
                let _ = writeln!(
                    out,
                    "flight(p{a}, {dep}, p{d}, {}).",
                    dep + Self::FLIGHT_MIN
                );
            }
        }
        for f in 0..self.per_airport {
            let _ = writeln!(out, "is_deptime({}).", Self::dep(f));
        }
        out
    }
}

/// The facts one `/ingest` publishes in `durable_mixed`: two fresh
/// chains, one hanging off a node the readers' answers include and one
/// off a node they do not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ingest {
    pub edges: Vec<(u32, u32)>,
    /// `(anchor, last node)` of each chain; `tc(anchor, last)` must hold
    /// once the ingest is acknowledged, and after any restart.
    pub tails: [(u32, u32); 2],
}

impl Ingest {
    /// The fact clauses, as `/ingest` and `QueryService::ingest` take them.
    pub fn facts(&self) -> String {
        let mut out = String::new();
        for &(u, v) in &self.edges {
            let _ = write!(out, "e(n{u},n{v}). ");
        }
        out
    }

    pub fn body(&self) -> String {
        format!("{{\"facts\":\"{}\"}}", self.facts())
    }
}

/// The program's data, kept by the harness to compute reference answers.
#[derive(Clone, Debug)]
pub enum Data {
    Graph(Graph),
    Flights(Flights),
}

/// How timed reads are drawn.
#[derive(Clone, Debug)]
pub enum Reads {
    /// Endless: rank `i` (Zipf(1.0)) asks `Fwd(keys[i])`.
    Zipf(Vec<u32>),
    /// Endless: uniform over `Fwd(key)`.
    Uniform(Vec<u32>),
    /// Each request once, in this order, dealt round-robin to the
    /// connections; the timed part ends early if it runs out.
    Once(Vec<Request>),
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub program: String,
    pub data: Data,
    /// Sent once each before timing starts; every answer is checked.
    pub warmup: Vec<Request>,
    pub reads: Reads,
    /// The hot-block node each ingest hangs its first chain off, in
    /// turn (`durable_mixed` only).
    ingest_anchors: Vec<u32>,
}

/// One connection's view of the timed read stream.
pub struct ReadStream<'w> {
    reads: &'w Reads,
    rng: Rng,
    zipf: Option<Zipf>,
    next: usize,
    stride: usize,
}

impl ReadStream<'_> {
    pub fn next_request(&mut self) -> Option<Request> {
        match self.reads {
            Reads::Zipf(keys) => {
                let zipf = self.zipf.as_ref().expect("built with the stream");
                Some(Request::Query(Query::Fwd(keys[zipf.sample(&mut self.rng)])))
            }
            Reads::Uniform(keys) => {
                Some(Request::Query(Query::Fwd(keys[self.rng.below(keys.len())])))
            }
            Reads::Once(requests) => {
                let request = requests.get(self.next)?.clone();
                self.next += self.stride;
                Some(request)
            }
        }
    }
}

const GRID_SIDE: u32 = 100;

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::HotPoints => hot_points(seed),
            Kind::ColdReach => cold_reach(seed),
            Kind::NarySweep => nary_sweep(seed),
            Kind::DurableMixed => durable_mixed(seed),
        }
    }

    /// The timed read stream of connection `conn` out of `conns`.
    pub fn read_stream(&self, conn: usize, conns: usize) -> ReadStream<'_> {
        ReadStream {
            reads: &self.reads,
            rng: Rng::derive(self.seed, &format!("reads-{conn}")),
            zipf: match &self.reads {
                Reads::Zipf(keys) => Some(Zipf::new(keys.len(), 1.0)),
                _ => None,
            },
            next: conn,
            stride: conns,
        }
    }

    /// The `k`-th ingest (1-based; it publishes epoch `k`).  Chain nodes
    /// take fresh ids above the grid's, eight per ingest.
    pub fn ingest(&self, k: u64) -> Ingest {
        assert_eq!(self.kind, Kind::DurableMixed);
        let side = GRID_SIDE;
        let mut rng = Rng::derive(self.seed, &format!("ingest-{k}"));
        let anchors = [
            self.ingest_anchors[(k as usize - 1) % self.ingest_anchors.len()],
            // A node of the near quadrant: it reaches the hot block, the
            // hot block does not reach it.
            rng.below((side / 2) as usize) as u32 * side + rng.below((side / 2) as usize) as u32,
        ];
        let mut next = side * side + (k as u32 - 1) * 2 * CHAIN_EDGES;
        let mut edges = Vec::with_capacity(2 * CHAIN_EDGES as usize);
        let tails = anchors.map(|anchor| {
            let mut from = anchor;
            for _ in 0..CHAIN_EDGES {
                edges.push((from, next));
                from = next;
                next += 1;
            }
            (anchor, from)
        });
        Ingest { edges, tails }
    }
}

/// The nodes of the `k × k` block in the far (bottom-right) corner of a
/// `side × side` grid, row-major.
fn corner_block(side: u32, k: u32) -> Vec<u32> {
    (side - k..side)
        .flat_map(|r| (side - k..side).map(move |c| r * side + c))
        .collect()
}

fn grid_graph(side: u32) -> Graph {
    let mut g = Graph::default();
    g.add_grids(1, side, side);
    g
}

/// The wire and the result cache do the work; the engine idles.
fn hot_points(seed: u64) -> Workload {
    let graph = grid_graph(GRID_SIDE);
    // Node (r, c) reaches the (side-r)·(side-c)-1 nodes below and right
    // of it: answers of 0..=2499 rows over the far 50×50 block.
    let answer_rows = |n: u32| (GRID_SIDE - n / GRID_SIDE) * (GRID_SIDE - n % GRID_SIDE) - 1;
    let mut by_size = corner_block(GRID_SIDE, 50);
    by_size.sort_by_key(|&n| (answer_rows(n), n));
    // Under Zipf(1.0) the top ten ranks carry a third of the requests,
    // so a free shuffle would let the seed decide the mean response
    // size (±17 % over seeds).  Instead the rank → size-class map is
    // fixed and the seed only picks among the ten keys of a class, whose
    // answers differ by a few rows: the seed changes which keys are hot,
    // not how much work a request is.
    let mut class_of_rank: Vec<usize> = (0..by_size.len()).collect();
    Rng::derive(0, "hot-rank-classes").shuffle(&mut class_of_rank);
    let mut rng = Rng::derive(seed, "hot-keys");
    for class in by_size.chunks_mut(10) {
        rng.shuffle(class);
    }
    let keys: Vec<u32> = class_of_rank.iter().map(|&i| by_size[i]).collect();
    let mut warm = keys.clone();
    Rng::derive(seed, "hot-warmup").shuffle(&mut warm);
    Workload {
        kind: Kind::HotPoints,
        seed,
        program: graph.program(),
        data: Data::Graph(graph),
        warmup: warm
            .into_iter()
            .map(|n| Request::Query(Query::Fwd(n)))
            .collect(),
        reads: Reads::Zipf(keys),
        ingest_anchors: Vec::new(),
    }
}

/// Requests answered before timing starts in `cold_reach`.
pub const COLD_WARMUP: usize = 5_000;

/// The cold-path graph: four disjoint families in one `e` shard.
pub fn cold_graph(seed: u64) -> Graph {
    let mut g = Graph::default();
    g.add_grids(64, 32, 32);
    g.add_chains(128, 512);
    g.add_hub_dags(8, 6, 256, 32, &mut Rng::derive(seed, "cold-hubs"));
    g.add_rings(256, 256, 32, &mut Rng::derive(seed, "cold-rings"));
    g
}

/// No request repeats, so the working set exceeds every cache: the
/// engine's traversal and the CSR read path do the work.
fn cold_reach(seed: u64) -> Workload {
    let graph = cold_graph(seed);
    let mut rng = Rng::derive(seed, "cold-stream");
    // Every (node, form) pair at most once: 50 % forward, 25 % inverse,
    // 25 % membership with the target drawn from the same block (a miss
    // traverses the whole block for a one-word answer).
    let mut stream: Vec<Request> = Vec::with_capacity(graph.nodes as usize * 2);
    for a in 0..graph.nodes {
        stream.push(Request::Query(Query::Fwd(a)));
        if a % 2 == 0 {
            stream.push(Request::Query(Query::Bwd(a)));
        } else {
            let (start, len) = graph.block_of(a);
            let b = start + rng.below(len as usize) as u32;
            stream.push(Request::Query(Query::Member(a, b)));
        }
    }
    rng.shuffle(&mut stream);
    let timed = stream.split_off(COLD_WARMUP);
    Workload {
        kind: Kind::ColdReach,
        seed,
        program: graph.program(),
        data: Data::Graph(graph),
        warmup: stream,
        reads: Reads::Once(timed),
        ingest_anchors: Vec::new(),
    }
}

pub const NARY_AIRPORTS: u32 = 20_000;
pub const NARY_DEPARTURES: u32 = 12;
/// Batches answered before timing starts in `nary_sweep`.
pub const NARY_WARMUP: usize = 500;

/// The §4 rewrite, the trie probe route and batch fan-out do the work.
fn nary_sweep(seed: u64) -> Workload {
    let flights = Flights::new(
        NARY_AIRPORTS,
        NARY_DEPARTURES,
        &mut Rng::derive(seed, "nary-flights"),
    );
    let mut pairs: Vec<Query> = (0..flights.airports)
        .flat_map(|a| (0..flights.per_airport).map(move |f| Query::Cnx(a, Flights::dep(f))))
        .collect();
    Rng::derive(seed, "nary-stream").shuffle(&mut pairs);
    let mut batches: Vec<Request> = pairs
        .chunks(BATCH)
        .map(|chunk| Request::Batch(chunk.to_vec()))
        .collect();
    let timed = batches.split_off(NARY_WARMUP);
    Workload {
        kind: Kind::NarySweep,
        seed,
        program: flights.program(),
        data: Data::Flights(flights),
        warmup: batches,
        reads: Reads::Once(timed),
        ingest_anchors: Vec::new(),
    }
}

/// Writes beside reads: the WAL, checkpoints and the service's publish
/// and repair path do the work.
fn durable_mixed(seed: u64) -> Workload {
    let graph = grid_graph(GRID_SIDE);
    let keys = corner_block(GRID_SIDE, 16);
    let mut warm = keys.clone();
    Rng::derive(seed, "durable-warmup").shuffle(&mut warm);
    // A chain off node (r, c) adds four rows to the answer of every hot
    // key above and left of it — 1 to 256 keys, by position.  Ingests
    // walk a seeded permutation of the block instead of drawing anchors
    // freely, so how fast the answers grow over a run depends on the
    // seed as little as a finite run allows.
    let mut ingest_anchors = keys.clone();
    Rng::derive(seed, "durable-anchors").shuffle(&mut ingest_anchors);
    Workload {
        kind: Kind::DurableMixed,
        seed,
        program: graph.program(),
        data: Data::Graph(graph),
        warmup: warm
            .into_iter()
            .map(|n| Request::Query(Query::Fwd(n)))
            .collect(),
        reads: Reads::Uniform(keys),
        ingest_anchors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload sends, as bytes.
    fn fingerprint(w: &Workload) -> String {
        let mut out = w.program.clone();
        for r in &w.warmup {
            out.push_str(&r.body());
        }
        for conn in 0..2 {
            let mut s = w.read_stream(conn, 2);
            for _ in 0..200 {
                out.push_str(&s.next_request().expect("200 reads").body());
            }
        }
        if w.kind == Kind::DurableMixed {
            for k in 1..=20 {
                out.push_str(&w.ingest(k).body());
            }
        }
        out
    }

    #[test]
    fn generators_are_byte_identical_per_seed_and_differ_across_seeds() {
        for kind in Kind::ALL {
            let a = fingerprint(&Workload::generate(kind, 42));
            let b = fingerprint(&Workload::generate(kind, 42));
            let c = fingerprint(&Workload::generate(kind, 7));
            assert!(
                a == b,
                "{} differs between two runs of seed 42",
                kind.name()
            );
            assert!(a != c, "{} ignores its seed", kind.name());
        }
    }

    #[test]
    fn cold_graph_has_the_documented_shape() {
        let g = cold_graph(42);
        assert_eq!(g.nodes, 64 * 1024 + 128 * 512 + 8 * 1536 + 256 * 256);
        assert_eq!(g.blocks.len(), 64 + 128 + 8 + 256);
        assert!(
            (300_000..400_000).contains(&g.edges.len()),
            "{}",
            g.edges.len()
        );
        assert_eq!(g.block_of(0), (0, 1024));
        assert_eq!(g.block_of(1023), (0, 1024));
        assert_eq!(g.block_of(1024), (1024, 1024));
        let names: Vec<_> = g.families.iter().map(|f| f.0).collect();
        assert_eq!(names, ["grid", "chain", "hub", "ring"]);
        assert!(g
            .edges
            .iter()
            .all(|&(u, v)| u != v && g.block_of(u) == g.block_of(v)));
    }

    #[test]
    fn cold_stream_never_repeats_a_request() {
        let w = Workload::generate(Kind::ColdReach, 42);
        let Reads::Once(timed) = &w.reads else {
            panic!("cold_reach is a finite stream")
        };
        let mut seen = std::collections::HashSet::new();
        for r in w.warmup.iter().chain(timed) {
            assert!(seen.insert(r.queries()[0]), "{r:?} repeats");
        }
        assert_eq!(w.warmup.len(), COLD_WARMUP);
    }

    #[test]
    fn hot_keys_keep_their_size_class_across_seeds() {
        let rows = |n: u32| (GRID_SIDE - n / GRID_SIDE) * (GRID_SIDE - n % GRID_SIDE) - 1;
        let keys = |seed| match Workload::generate(Kind::HotPoints, seed).reads {
            Reads::Zipf(keys) => keys,
            _ => panic!("hot_points is Zipf"),
        };
        let (a, b) = (keys(1), keys(2));
        assert_eq!(a.len(), 2500);
        assert_ne!(a, b);
        for (x, y) in a.iter().zip(&b) {
            assert!(rows(*x).abs_diff(rows(*y)) <= 160, "{x} vs {y}");
        }
    }

    #[test]
    fn ingests_take_fresh_nodes_and_stay_under_the_body_limit() {
        let w = Workload::generate(Kind::DurableMixed, 42);
        let mut fresh = std::collections::HashSet::new();
        for k in 1..=50 {
            let ing = w.ingest(k);
            assert_eq!(ing.edges.len(), 8);
            assert!(ing.body().len() < 1 << 20);
            for &(_, v) in &ing.edges {
                assert!(v >= GRID_SIDE * GRID_SIDE && fresh.insert(v));
            }
            assert_eq!(ing.tails[0].1 + CHAIN_EDGES, ing.tails[1].1);
        }
        let biggest = Workload::generate(Kind::NarySweep, 42)
            .warmup
            .iter()
            .map(|r| r.body().len())
            .max();
        assert!(biggest < Some(1 << 20));
    }
}
