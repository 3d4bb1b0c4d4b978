"""
Build a similarity graph and score a corpus
===========================================

Synthesizes 120 dated artifacts in two stylistic waves, runs the full
pipeline (temporally-directed graph -> implication network -> creativity
scores), and prints the head of the ranking next to the stage statistics.
"""

import numpy as np

import creanet as cn

rng = np.random.default_rng(0)
dim = 8

# an early motif that later artifacts keep copying, a late counter-motif,
# and unstructured background filling the rest of the timeline
motif_a = np.zeros(dim)
motif_a[0] = 5.0
motif_b = np.zeros(dim)
motif_b[1] = 5.0

years, features = [], []
for _ in range(10):
    years.append(int(rng.integers(1420, 1460)))
    features.append(motif_a + rng.normal(0, 0.05, dim))
for _ in range(50):
    years.append(int(rng.integers(1500, 1800)))
    features.append(motif_a + rng.normal(0, 0.2, dim))
for _ in range(10):
    years.append(int(rng.integers(1850, 1900)))
    features.append(motif_b + rng.normal(0, 0.05, dim))
for _ in range(50):
    years.append(int(rng.integers(1400, 1900)))
    features.append(rng.normal(0, 1.0, dim))

n = len(years)
artifacts = [cn.Artifact(id=f"art{i:03d}", year=years[i]) for i in range(n)]
corpus = cn.Corpus(artifacts, {"visual": cn.FeatureSet("visual", np.stack(features))})

config = cn.RunConfig(k=15)
result = cn.run_pipeline(corpus, "visual", config)

# The result keeps each stage's counts, not its arrays, which the pipeline
# writes over as it goes. The public stages, run one by one, leave their
# inputs as they are and give the arrays themselves.
graph = cn.build_graph(corpus, "visual", config, result.sigma)
thresholds = cn.compute_thresholds(graph, corpus.years, config)
net = cn.build_implication_network(graph, thresholds, corpus.years, config)
op = cn.normalize(net, config)  # the column-stochastic operator the power iteration applies
score = cn.solve_power(op, config)
print(f"kernel bandwidth (median heuristic): {result.sigma:.3f}")
print(f"similarity graph: {graph.n_edges} edges over {n} artifacts, "
      f"balancing threshold m = {thresholds[0]:.4f}")
print(f"implication network: {net.kept.n_edges} kept (subsequent), "
      f"{net.reversed.n_edges} reversed (prior), {net.dropped_count} dropped; "
      f"{result.dangling_count} nodes with no incoming edge")
print(f"scoring operator: K and R^T scaled, {op.kept_values.size + op.reversed_values.size} "
      f"entries, {int(np.count_nonzero(op.dangling))} columns spread over every node")
print(f"power iteration: {score.iterations} iterations, residual {score.residual:.2e}; "
      f"scores equal run_pipeline's: {np.array_equal(score.scores, result.score.scores)}")

scores = result.score.scores
ranks = cn.score_ranks(scores, corpus.ids)
print("\nrank  id      year  score")
for i in np.argsort(ranks)[:10]:
    print(f"{ranks[i]:4d}  {corpus.ids[i]}  {corpus.years[i]}  {scores[i]:.5f}")
