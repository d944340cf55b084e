"""Analyze the bundled Davis Southern Women attendance network.

18 women x 14 social events.  The script ranks the women, compares the
distance-based ranking with the classic baselines, sweeps the top-k agreement,
and cuts the distance matrix at 0.5 to reveal the socially peripheral pair.

Run:  python3 demos/davis_analysis.py
"""

from hellrank import (
    RankVector,
    Side,
    bipartite_closeness,
    bipartite_degree,
    distance_matrix,
    hellrank,
    kendall_tau,
    load_builtin,
    spearman_rho,
    sweep_k,
    threshold_graph,
    top_k_vector,
)

graph = load_builtin("davis")
print(graph)

scores = hellrank(graph, Side.LEFT)
ranked = scores.ranked()
print("\nWomen ranked by Hellinger-distance centrality:")
for i, (name, value) in enumerate(ranked, start=1):
    print(f"  {i:2d}. {name:<10} {value:.4f}")

degree = bipartite_degree(graph, Side.LEFT)
closeness = bipartite_closeness(graph, Side.LEFT)
print("\nRank agreement with the baselines:")
for name, other in (("degree", degree), ("closeness", closeness)):
    tau = kendall_tau(RankVector.from_scores(scores), RankVector.from_scores(other))
    rho5 = spearman_rho(top_k_vector(scores, 5), top_k_vector(other, 5))
    print(f"  vs {name:<10} Kendall tau = {tau:.3f}   top-5 Spearman rho = {rho5:.3f}")

print("\nTop-k agreement with degree as k grows:")
for k, rho in sweep_k(scores, degree, 10):
    bar = "#" * int(round(20 * max(rho, 0.0)))
    print(f"  k={k:2d}  rho={rho:6.3f}  {bar}")

print("\nComponents of the threshold graph (edges where distance < 0.5):")
cut = threshold_graph(distance_matrix(graph, Side.LEFT), 0.5)
seen: set[str] = set()
for start in cut.nodes:
    if start in seen:
        continue
    component, stack = set(), [start]
    while stack:
        v = stack.pop()
        if v in component:
            continue
        component.add(v)
        stack.extend(cut.neighbors(v))
    seen |= component
    print(f"  {sorted(component)}")
print(
    "\nFlora and Olivia attended only the same two small events, so they sit"
    "\nfar from everyone else and split off into their own component."
)
