//! Reference answers, computed by the harness from the edge and flight
//! lists it generated — nothing here calls the code under test.

use crate::gen::{Data, Flights, Graph, Query};
use rq_common::FxHashSet;
use std::collections::BTreeSet;

/// Forward and backward adjacency with an epoch tag per arc, so one
/// structure answers "reachable as of epoch `e`" for every epoch the
/// `durable_mixed` writer publishes.
#[derive(Clone, Debug, Default)]
pub struct Reach {
    fwd: Vec<Vec<(u32, u64)>>,
    rev: Vec<Vec<(u32, u64)>>,
}

impl Reach {
    pub fn new(graph: &Graph) -> Self {
        let mut reach = Reach::default();
        reach.add_edges(&graph.edges, 0);
        reach
    }

    /// Add arcs that exist from `epoch` on.
    pub fn add_edges(&mut self, edges: &[(u32, u32)], epoch: u64) {
        for &(u, v) in edges {
            let need = u.max(v) as usize + 1;
            if self.fwd.len() < need {
                self.fwd.resize(need, Vec::new());
                self.rev.resize(need, Vec::new());
            }
            self.fwd[u as usize].push((v, epoch));
            self.rev[v as usize].push((u, epoch));
        }
    }

    /// Nodes reachable from `a` by one or more arcs of epoch ≤ `epoch`
    /// (so `a` itself only when it lies on a cycle), ascending.
    pub fn forward(&self, a: u32, epoch: u64) -> Vec<u32> {
        Self::closure(&self.fwd, a, epoch)
    }

    /// Nodes that reach `a`, ascending.
    pub fn backward(&self, a: u32, epoch: u64) -> Vec<u32> {
        Self::closure(&self.rev, a, epoch)
    }

    pub fn member(&self, a: u32, b: u32, epoch: u64) -> bool {
        self.forward(a, epoch).binary_search(&b).is_ok()
    }

    fn closure(adj: &[Vec<(u32, u64)>], a: u32, epoch: u64) -> Vec<u32> {
        let mut seen = FxHashSet::default();
        let mut stack = vec![a];
        while let Some(u) = stack.pop() {
            for &(v, since) in adj.get(u as usize).map_or(&[][..], Vec::as_slice) {
                if since <= epoch && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        let mut nodes: Vec<u32> = seen.into_iter().collect();
        nodes.sort_unstable();
        nodes
    }
}

/// All `(destination, arrival)` of connections leaving `airport` at
/// exactly `deptime`: the first leg departs at `deptime`, every later
/// leg departs strictly after the previous arrival.
pub fn connections(flights: &Flights, airport: u32, deptime: u32) -> BTreeSet<(u32, u32)> {
    let mut answers = BTreeSet::new();
    let mut boarded = BTreeSet::new();
    let mut stack = vec![(airport, deptime)];
    while let Some((a, dt)) = stack.pop() {
        if !boarded.insert((a, dt)) {
            continue;
        }
        for f in 0..flights.per_airport {
            if Flights::dep(f) != dt {
                continue;
            }
            let d = flights.dest[(a * flights.per_airport + f) as usize];
            let at = dt + Flights::FLIGHT_MIN;
            answers.insert((d, at));
            for f2 in 0..flights.per_airport {
                if at < Flights::dep(f2) {
                    stack.push((d, Flights::dep(f2)));
                }
            }
        }
    }
    answers
}

/// A reference answer, in the harness's own ids and ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The nodes a `tc` point query enumerates.
    Nodes(Vec<u32>),
    /// The `(destination, arrival)` rows of a `cnx` query.
    Pairs(Vec<(u32, u32)>),
    /// The verdict of a fully bound query.
    Holds(bool),
}

impl Expected {
    /// A short description for failure messages.
    pub fn describe(&self) -> String {
        match self {
            Expected::Nodes(n) => format!("{} rows", n.len()),
            Expected::Pairs(p) => format!("{} rows", p.len()),
            Expected::Holds(h) => format!("holds={h}"),
        }
    }
}

/// The data a query is checked against.
pub enum Reference<'a> {
    Graph(Reach),
    Flights(&'a Flights),
}

impl<'a> Reference<'a> {
    pub fn new(data: &'a Data) -> Self {
        match data {
            Data::Graph(graph) => Reference::Graph(Reach::new(graph)),
            Data::Flights(flights) => Reference::Flights(flights),
        }
    }

    /// Record the arcs an acknowledged ingest published as `epoch`.
    pub fn add_edges(&mut self, edges: &[(u32, u32)], epoch: u64) {
        match self {
            Reference::Graph(reach) => reach.add_edges(edges, epoch),
            Reference::Flights(_) => panic!("the flights workload has no ingests"),
        }
    }

    /// The reference answer of `query` on the database as of `epoch`.
    pub fn answer(&self, query: &Query, epoch: u64) -> Expected {
        match (self, *query) {
            (Reference::Graph(r), Query::Fwd(a)) => Expected::Nodes(r.forward(a, epoch)),
            (Reference::Graph(r), Query::Bwd(a)) => Expected::Nodes(r.backward(a, epoch)),
            (Reference::Graph(r), Query::Member(a, b)) => Expected::Holds(r.member(a, b, epoch)),
            (Reference::Flights(f), Query::Cnx(a, dt)) => {
                Expected::Pairs(connections(f, a, dt).into_iter().collect())
            }
            _ => panic!("{query:?} does not belong to this workload's program"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Graph, Query};
    use crate::rng::Rng;
    use rq_common::ConstValue;
    use rq_datalog::{parse_program, seminaive_eval};

    /// The full `pred` relation by semi-naive evaluation, each tuple
    /// rendered column by column.
    fn derived(program_text: &str, pred: &str) -> BTreeSet<Vec<String>> {
        let program = parse_program(program_text).expect("generated program parses");
        let result = seminaive_eval(&program).expect("evaluates");
        let p = program.pred_by_name(pred).expect("pred exists");
        result
            .tuples(p)
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&c| match program.consts.value(c) {
                        ConstValue::Int(i) => i.to_string(),
                        _ => program.consts.display(c),
                    })
                    .collect()
            })
            .collect()
    }

    fn check_family(graph: &Graph) {
        let tc = derived(&graph.program(), "tc");
        let reference = Reference::Graph(Reach::new(graph));
        let mut pairs = 0;
        for a in 0..graph.nodes {
            let id = |name: &str| name[1..].parse::<u32>().expect("node names are n<id>");
            let want = |keep: &dyn Fn(&Vec<String>) -> Option<u32>| {
                let mut rows: Vec<u32> = tc.iter().filter_map(keep).collect();
                rows.sort_unstable();
                Expected::Nodes(rows)
            };
            let name = format!("n{a}");
            let fwd = want(&|t| (t[0] == name).then(|| id(&t[1])));
            let bwd = want(&|t| (t[1] == name).then(|| id(&t[0])));
            assert_eq!(reference.answer(&Query::Fwd(a), 0), fwd, "tc(n{a}, Y)");
            assert_eq!(reference.answer(&Query::Bwd(a), 0), bwd, "tc(X, n{a})");
            let b = (a * 7 + 3) % graph.nodes;
            let holds = tc.contains(&vec![name.clone(), format!("n{b}")]);
            assert_eq!(
                reference.answer(&Query::Member(a, b), 0),
                Expected::Holds(holds)
            );
            let Expected::Nodes(rows) = fwd else {
                unreachable!()
            };
            pairs += rows.len();
        }
        assert_eq!(pairs, tc.len());
    }

    #[test]
    fn reachability_agrees_with_seminaive_on_every_family() {
        let mut rng = Rng::derive(5, "oracle-test");
        let mut grid = Graph::default();
        grid.add_grids(2, 10, 10);
        check_family(&grid);
        let mut chain = Graph::default();
        chain.add_chains(4, 50);
        check_family(&chain);
        let mut hub = Graph::default();
        hub.add_hub_dags(1, 5, 40, 16, &mut rng);
        check_family(&hub);
        let mut ring = Graph::default();
        ring.add_rings(4, 50, 6, &mut rng);
        check_family(&ring);
    }

    #[test]
    fn epoch_tags_hide_later_arcs() {
        let mut g = Graph::default();
        g.add_chains(1, 3);
        let mut reach = Reach::new(&g);
        reach.add_edges(&[(2, 3), (3, 4)], 2);
        assert_eq!(reach.forward(0, 1), vec![1, 2]);
        assert_eq!(reach.forward(0, 2), vec![1, 2, 3, 4]);
        assert_eq!(reach.backward(4, 2), vec![0, 1, 2, 3]);
        assert!(!reach.member(0, 4, 1) && reach.member(0, 4, 2));
        // An unknown node reaches nothing.
        assert!(reach.forward(99, 2).is_empty());
    }

    #[test]
    fn connections_agree_with_seminaive_on_a_twenty_airport_network() {
        let flights = Flights::new(20, 6, &mut Rng::derive(9, "oracle-flights"));
        let cnx = derived(&flights.program(), "cnx");
        let reference = Reference::Flights(&flights);
        let mut total = 0;
        for a in 0..flights.airports {
            for f in 0..flights.per_airport {
                let dt = Flights::dep(f);
                let mut want: Vec<(u32, u32)> = cnx
                    .iter()
                    .filter(|t| t[0] == format!("p{a}") && t[1] == dt.to_string())
                    .map(|t| (t[2][1..].parse().unwrap(), t[3].parse().unwrap()))
                    .collect();
                want.sort_unstable();
                total += want.len();
                assert_eq!(
                    reference.answer(&Query::Cnx(a, dt), 0),
                    Expected::Pairs(want),
                    "cnx(p{a}, {dt}, D, AT)"
                );
            }
        }
        assert_eq!(total, cnx.len());
        assert!(
            total > 300,
            "the network has multi-leg connections: {total}"
        );
    }
}
