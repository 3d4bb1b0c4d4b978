"""
Originality versus influence
============================

Splits the implication network by edge label and re-scores under a sweep of
beta: prior-labeled edges carry novelty against what came before, and
subsequent-labeled edges carry adoption by what came after. Two artifacts
introduce equally novel motifs around 1500; only the founder's motif is
taken up by a 30-strong school. Leaning on originality (beta high) the two
stay comparable, but leaning on influence (beta low) the founder climbs to
rank 1 while the ignored loner sinks to the bottom.
"""

import numpy as np

import creanet as cn

rng = np.random.default_rng(2)
dim = 6

motif = np.zeros(dim)
motif[0] = 4.0              # the founder's motif, copied for three centuries
dead_motif = np.zeros(dim)
dead_motif[2] = 4.0         # the loner's motif, equally novel, never copied

ids, years, features = [], [], []


def add(name, year, feat):
    ids.append(name)
    years.append(year)
    features.append(feat)


for i in range(50):         # unstructured background across the timeline
    add(f"bg{i:02d}", int(rng.integers(1400, 1890)), rng.normal(0, 1.0, dim))
add("founder", 1500, motif)
add("loner", 1505, dead_motif)
for i in range(30):         # the school forming around the founder's motif
    add(f"fol{i:02d}", int(rng.integers(1550, 1850)), motif + rng.normal(0, 0.15, dim))

corpus = cn.Corpus(
    [cn.Artifact(id=ids[i], year=years[i]) for i in range(len(ids))],
    {"visual": cn.FeatureSet("visual", np.stack(features))})
row = {name: i for i, name in enumerate(ids)}
followers = [i for i, name in enumerate(ids) if name.startswith("fol")]

print(f"rank out of {len(ids)} (1 = highest)   founder  loner  median follower")
for beta in (0.9, 0.5, 0.1):
    config = cn.RunConfig(k=10, beta=beta, scoring="split")
    result = cn.run_pipeline(corpus, "visual", config)
    ranks = cn.score_ranks(result.score.scores, corpus.ids)
    label = {0.9: "originality emphasis", 0.5: "even blend          ",
             0.1: "influence emphasis  "}[beta]
    print(f"beta = {beta}  {label}  {ranks[row['founder']]:7d}  "
          f"{ranks[row['loner']]:5d}  {int(np.median(ranks[followers])):15d}")
