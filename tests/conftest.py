"""Shared fixtures: deterministic random graph corpora.

Corpus graphs are random decorated trees, filtered to be negative definite
(and rational where the tests need it) and kept small enough that the
bounded enumerations stay cheap: the acceptance suite re-runs the oracles
over every corpus graph.
"""

import math
import random

import pytest
from hypothesis import settings

from singlat import (ResolutionGraph, classify_singularity, intersection_matrix,
                     is_negative_definite, lattice_determinant, linalg)
from singlat import graph as graph_module
from singlat.oracle import Box

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")

CORPUS_SEED = 20250809

_EULERS = (-2, -2, -2, -2, -3, -3, -4, -5)


def graph(vertices, edges=()):
    return ResolutionGraph.from_data(vertices, edges)


def random_tree_candidate(rng, max_vertices=6, genus_pool=(0,)):
    sizes = list(range(1, max_vertices + 1))
    n = rng.choices(sizes, weights=sizes)[0]
    vertices = [(f"v{i}", rng.choice(_EULERS), rng.choice(genus_pool)) for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
    return graph(vertices, edges)


def _affordable(g) -> bool:
    # keep the acceptance-scale enumerations cheap: bound the discriminant
    # and the scale-3 chi grid
    if lattice_determinant(g) > 60:
        return False
    return math.prod(b + 1 for _, b in Box.for_graph(g, 3).bounds) <= 200_000


def generate_rational_corpus(count=100, seed=CORPUS_SEED, max_vertices=6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_tree_candidate(rng, max_vertices)
        if not is_negative_definite(intersection_matrix(g)):
            continue
        if not _affordable(g):
            continue
        if classify_singularity(g).kind != "rational":
            continue
        out.append(g)
    return out


def generate_negdef_corpus(count=40, seed=CORPUS_SEED + 1, max_vertices=6):
    """Negative-definite graphs of any kind, genus sprinkled in."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_tree_candidate(rng, max_vertices, genus_pool=(0, 0, 0, 1))
        if not is_negative_definite(intersection_matrix(g)):
            continue
        if not _affordable(g):
            continue
        out.append(g)
    return out


@pytest.fixture(scope="session")
def rational_corpus():
    corpus = generate_rational_corpus()
    assert len(corpus) >= 100
    return corpus


@pytest.fixture(scope="session")
def negdef_corpus():
    return generate_negdef_corpus()


def count_eliminations(monkeypatch, runs, dense_runs=None):
    """Record the square block of every elimination, by either route: each
    `linalg.eliminate` call, and each tree pass that returns (as -M). The
    dense ones also go to `dense_runs` when it is given."""
    eliminate, tree_pass = linalg.eliminate, graph_module._tree_elimination

    def dense(rows, rhs_rows=None):
        block = [list(row) for row in rows]
        runs.append(block)
        if dense_runs is not None:
            dense_runs.append(block)
        return eliminate(rows, rhs_rows)

    def tree(g):
        result = tree_pass(g)
        if result is not None:
            runs.append([list(row) for row in intersection_matrix(g).negated()])
        return result

    monkeypatch.setattr(linalg, "eliminate", dense)
    monkeypatch.setattr(graph_module, "_tree_elimination", tree)


def tie_break_policies(count=10, seed=CORPUS_SEED + 2):
    """Randomized but reproducible tie-breaking policies."""
    rng = random.Random(seed)
    policies = []
    for _ in range(count):
        policy_rng = random.Random(rng.randrange(10 ** 9))
        policies.append(lambda cands, r=policy_rng: r.choice(cands))
    return policies
