//! Property-based tests: Dijkstra against the Bellman–Ford oracle, and
//! structural invariants of the tight-edge DAG.

use proptest::prelude::*;
use wrsn_graph::{bellman_ford, dijkstra, dijkstra_to, tight_edges, AncestorSets, Dag, Digraph};

/// Strategy producing a random digraph (as node count + edge list) with
/// weights in a realistic per-bit-energy range.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.0f64..200.0);
        (Just(n), proptest::collection::vec(edge, 0..60))
    })
}

/// Strategy producing a random DAG over up to 150 nodes (more than two
/// bitset words) as per-node parent lists, plus picks of edges to remove
/// afterwards: node `u` may take parents only among nodes ranked above it.
fn arb_dag() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<usize>)> {
    (2usize..150).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0u64..1_000, n),
            proptest::collection::vec((0..n, 0..n), 0..4 * n),
            proptest::collection::vec(0..usize::MAX, 0..n),
        )
            .prop_map(|(n, rank, edges, cuts)| {
                let mut parents = vec![Vec::new(); n];
                for (u, p) in edges {
                    if (rank[p], p) < (rank[u], u) && !parents[u].contains(&p) {
                        parents[u].push(p);
                    }
                }
                (parents, cuts)
            })
    })
}

/// The nodes reachable from `u` along parent edges, excluding `u`, by DFS.
fn ancestors_by_dfs(dag: &Dag, u: usize) -> Vec<usize> {
    let mut seen = vec![false; dag.node_count()];
    let mut stack = dag.parents(u).to_vec();
    while let Some(x) = stack.pop() {
        if !seen[x] {
            seen[x] = true;
            stack.extend_from_slice(dag.parents(x));
        }
    }
    (0..dag.node_count()).filter(|&x| seen[x]).collect()
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> Digraph {
    let mut g = Digraph::new(n);
    for &(u, v, w) in edges {
        if u != v {
            g.add_edge(u, v, w);
        }
    }
    g
}

proptest! {
    /// Dijkstra distances equal the Bellman–Ford oracle on arbitrary
    /// non-negative-weight digraphs.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn dijkstra_matches_bellman_ford((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let bf = bellman_ford(&g, 0);
        let dj = dijkstra(&g, 0);
        for v in 0..n {
            match dj.distance(v) {
                Some(d) => prop_assert!((d - bf[v]).abs() <= 1e-9 * d.abs().max(1.0)),
                None => prop_assert_eq!(bf[v], f64::INFINITY),
            }
        }
    }

    /// `dijkstra_to(g, t)` equals `dijkstra(reversed(g), t)`.
    #[test]
    fn to_target_is_reverse_source((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let t = n - 1;
        let to = dijkstra_to(&g, t);
        let from_rev = dijkstra(&g.reversed(), t);
        prop_assert_eq!(to.distances(), from_rev.distances());
    }

    /// Every reconstructed path is a real path in the graph whose total
    /// weight equals the reported distance.
    #[test]
    fn paths_are_consistent((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let t = 0;
        let sp = dijkstra_to(&g, t);
        for v in 0..n {
            let Some(path) = sp.path_from(v) else { continue };
            prop_assert_eq!(path[0], v);
            prop_assert_eq!(*path.last().unwrap(), t);
            let mut total = 0.0;
            for w in path.windows(2) {
                let weight = g
                    .out(w[0])
                    .iter()
                    .filter(|&&(to, _)| to == w[1])
                    .map(|&(_, wt)| wt)
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(weight.is_finite(), "path uses a non-edge");
                total += weight;
            }
            prop_assert!((total - sp.distance(v).unwrap()).abs() <= 1e-6);
        }
    }

    /// The tight-edge subgraph is acyclic whenever all weights are strictly
    /// positive, and every reachable non-target node keeps at least one
    /// parent (so the fat tree always supports a routing tree).
    #[test]
    fn tight_edges_form_rooted_dag((n, edges) in arb_graph()) {
        let mut g = Digraph::new(n);
        for (u, v, w) in edges {
            if u != v {
                g.add_edge(u, v, w + 0.001); // strictly positive
            }
        }
        let t = 0;
        let sp = dijkstra_to(&g, t);
        let parents = tight_edges(&g, &sp);
        let dag = Dag::from_parents(parents.clone()); // panics if cyclic
        for v in 1..n {
            if sp.distance(v).is_some() {
                prop_assert!(
                    !dag.parents(v).is_empty(),
                    "reachable node {} lost all parents", v
                );
            }
        }
        // Walking any chain of tight parents from a reachable node must
        // terminate at the target with non-increasing distance.
        for v in 1..n {
            if sp.distance(v).is_none() { continue; }
            let mut cur = v;
            let mut steps = 0;
            while cur != t {
                let p = dag.parents(cur)[0];
                prop_assert!(sp.distance(p).unwrap() <= sp.distance(cur).unwrap() + 1e-9);
                cur = p;
                steps += 1;
                prop_assert!(steps <= n, "tight-parent chain does not terminate");
            }
        }
    }

    /// Descendant counts from the bitset machinery agree with a brute-force
    /// DFS count.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn descendant_counts_match_bruteforce((n, edges) in arb_graph()) {
        let mut g = Digraph::new(n);
        for (u, v, w) in edges {
            if u != v {
                g.add_edge(u, v, w + 0.001);
            }
        }
        let sp = dijkstra_to(&g, 0);
        let parents = tight_edges(&g, &sp);
        let dag = Dag::from_parents(parents.clone());
        let counts = dag.descendant_counts();
        for p in 0..n {
            let mut reached = 0;
            for u in 0..n {
                if u == p { continue; }
                // DFS from u along parent edges looking for p.
                let mut stack = vec![u];
                let mut seen = vec![false; n];
                let mut hit = false;
                while let Some(x) = stack.pop() {
                    if x == p { hit = true; break; }
                    if seen[x] { continue; }
                    seen[x] = true;
                    stack.extend(parents[x].iter().copied());
                }
                if hit { reached += 1; }
            }
            prop_assert_eq!(counts[p], reached, "node {}", p);
        }
    }

    /// `ancestors_into` equals a per-node DFS, also on a reused buffer and
    /// after edge removals that keep the original topological order.
    #[test]
    fn ancestor_sets_match_dfs((parents, cuts) in arb_dag()) {
        let mut dag = Dag::from_parents(parents);
        let n = dag.node_count();
        let order = dag.topo_order().unwrap();
        // Start from a dirty buffer of a different size.
        let mut sets = AncestorSets::default();
        Dag::from_parents(vec![vec![], vec![0], vec![1]]).ancestors_into(&[0, 1, 2], &mut sets);
        for round in 0..2 {
            dag.ancestors_into(&order, &mut sets);
            for (u, set) in dag.ancestor_sets().iter().enumerate() {
                let want = ancestors_by_dfs(&dag, u);
                prop_assert_eq!(sets.ones(u).collect::<Vec<_>>(), want.clone(), "round {}, node {}", round, u);
                prop_assert_eq!(set.ones().collect::<Vec<_>>(), want.clone());
                for a in 0..n {
                    prop_assert_eq!(sets.contains(u, a), want.contains(&a));
                }
            }
            for &pick in &cuts {
                let edges: Vec<(usize, usize)> = dag.edges().collect();
                if let Some(&(u, p)) = edges.get(pick % edges.len().max(1)) {
                    prop_assert!(dag.remove_edge(u, p));
                }
            }
        }
    }
}
