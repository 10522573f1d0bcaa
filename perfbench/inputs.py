"""Seeded inputs for every workload, built without importing `singlat`.

`build(workload, seed)` returns the job one round runs: the graphs (as
plain specs the checks can compute with) and the fixed list of
operations. The same seed always gives the same job. Graphs are chosen by
the benchmark's own lattice code in `facts`, so no value the program
computes can leak into a timed operation.
"""

from __future__ import annotations

import math
import random

import facts
from facts import Spec

# Built-in catalog graphs, copied from the program's documentation.
STATIC = {
    "paper-z7": Spec("paper-z7", ["E1", "E2", "c", "E3", "E4", "f"], [-2, -2, -2, -2, -3, -2],
                     [("E1", "E2"), ("E2", "c"), ("c", "E3"), ("E3", "E4"), ("c", "f")]),
    "gamma-2-3-7": Spec("gamma-2-3-7", ["c", "a2", "a3", "a7"], [-1, -2, -3, -7],
                        [("c", "a2"), ("c", "a3"), ("c", "a7")]),
    "cusp-3x3": Spec("cusp-3x3", ["E1", "E2", "E3"], [-3, -3, -3],
                     [("E1", "E2"), ("E2", "E3"), ("E3", "E1")]),
    "simply-elliptic-d3": Spec("simply-elliptic-d3", ["E"], [-3], [], genera=[1]),
    "E6": Spec("E6", ["v1", "v2", "c", "v3", "v4", "v5"], [-2] * 6,
               [("v1", "v2"), ("v2", "c"), ("c", "v3"), ("v3", "v4"), ("c", "v5")]),
    "E7": Spec("E7", ["v1", "v2", "v3", "c", "v4", "v5", "v6"], [-2] * 7,
               [("v1", "v2"), ("v2", "v3"), ("v3", "c"), ("c", "v4"), ("v4", "v5"), ("c", "v6")]),
    "E8": Spec("E8", ["v1", "v2", "v3", "v4", "c", "v5", "v6", "v7"], [-2] * 8,
               [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "c"), ("c", "v5"),
                ("v5", "v6"), ("c", "v7")]),
}

# Known discriminant orders of the static catalog.
KNOWN_DET = {"paper-z7": 7, "gamma-2-3-7": 1, "cusp-3x3": 16, "simply-elliptic-d3": 3,
             "E6": 3, "E7": 2, "E8": 1}


def a_n(n: int, name: str | None = None) -> Spec:
    ids = [f"v{i}" for i in range(1, n + 1)]
    return Spec(name or f"A{n}", ids, [-2] * n, [(ids[i], ids[i + 1]) for i in range(n - 1)])


def d_n(n: int, name: str | None = None) -> Spec:
    ids = [f"v{i}" for i in range(1, n + 1)]
    edges = [(ids[i], ids[i + 1]) for i in range(n - 3)]
    edges += [(ids[n - 3], ids[n - 2]), (ids[n - 3], ids[n - 1])]
    return Spec(name or f"D{n}", ids, [-2] * n, edges)


def catalog_spec(name: str) -> Spec:
    if name in STATIC:
        return STATIC[name]
    return a_n(int(name[1:])) if name[0] == "A" else d_n(int(name[1:]))


def known_det(name: str) -> int:
    if name in KNOWN_DET:
        return KNOWN_DET[name]
    return int(name[1:]) + 1 if name[0] == "A" else 4


def shuffled(spec: Spec, rng: random.Random, name: str) -> Spec:
    """The same graph with its vertices declared in a seeded order."""
    order = list(range(spec.n))
    rng.shuffle(order)
    return Spec(name, [spec.ids[i] for i in order], [spec.eulers[i] for i in order],
                spec.edges, [spec.genera[i] for i in order])


def encode(spec: Spec, **expect) -> dict:
    return {"name": spec.name, "ids": list(spec.ids), "eulers": list(spec.eulers),
            "genera": list(spec.genera), "edges": [list(e) for e in spec.edges],
            "expect": expect}


def decode(doc: dict) -> Spec:
    return Spec(doc["name"], doc["ids"], doc["eulers"], [tuple(e) for e in doc["edges"]],
                doc["genera"])


# --- cli-cold ---------------------------------------------------------------

# Every graph here fits the oracle's eight-vertex limit. A cold command
# costs about 0.1 s of interpreter start and import before it does any
# work, so most commands cost about the same on any catalog graph;
# `classify`, `special` and `verify` grow with the graph and get pools of
# graphs of about equal cost. The light commands are more than half of the
# operations and `verify` is the top tenth, so the median and the 90th
# percentile each sit inside a group of like operations whatever the seed.
COLD_LIGHT_POOL = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "D7", "E6", "E7",
                   "paper-z7", "gamma-2-3-7", "cusp-3x3", "simply-elliptic-d3")
COLD_SLOTS = (
    (("check", "invariants", "sh", "blowup", "extend"), COLD_LIGHT_POOL, 4),
    (("classify", "special"), ("A5", "A6", "D5", "D6", "E6", "paper-z7"), 2),
    (("verify",), ("A7", "D7", "E7", "E8", "paper-z7"), 4),
)


def cli_cold(rng: random.Random) -> dict:
    graphs, ops = {}, []
    for commands, pool, count in COLD_SLOTS:
        for cmd in commands:
            for name in rng.sample(pool, count):
                spec = catalog_spec(name)
                graphs[name] = encode(spec, det=known_det(name),
                                      highest_root=facts.highest_root(name, spec.n))
                argv = [cmd, "--catalog", name, "--format", "json"]
                if cmd in ("blowup", "extend"):
                    argv += ["--vertex", rng.choice(spec.ids)]
                ops.append({"graph": name, "argv": argv})
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


# --- families ---------------------------------------------------------------

FAMILY_A = range(2, 10)
FAMILY_D = range(4, 10)
# Chains are cyclic quotients 1/n(1, q) with entries 2, 3 or 4: each slot
# fixes the determinant n (the number of classes) and the chain's length,
# and the seed picks q among the fractions that fit, so every seed does
# about the same work.
FAMILY_CHAINS = ((7, 3), (11, 4), (13, 4), (17, 4), (19, 6), (23, 5), (29, 5), (31, 6))
FAMILY_COMMANDS = ("invariants", "sh", "classify", "special")


def hirzebruch_jung(n: int, q: int) -> list[int]:
    """Continued fraction n/q = b1 - 1/(b2 - ...), all b_i >= 2."""
    out = []
    while q:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def chain(weights, name: str) -> Spec:
    ids = [f"c{i}" for i in range(1, len(weights) + 1)]
    return Spec(name, ids, [-b for b in weights], [(ids[i], ids[i + 1])
                                                   for i in range(len(ids) - 1)])


def families(rng: random.Random) -> dict:
    graphs = {}
    for n in FAMILY_A:
        spec = shuffled(a_n(n), rng, f"A{n}")
        graphs[spec.name] = encode(spec, det=n + 1, family="A",
                                   highest_root=_permuted_root(spec, a_n(n)))
    for n in FAMILY_D:
        spec = shuffled(d_n(n), rng, f"D{n}")
        graphs[spec.name] = encode(spec, det=4, family="D",
                                   highest_root=_permuted_root(spec, d_n(n)))
    for det, length in FAMILY_CHAINS:
        choices = [q for q in range(1, det) if math.gcd(q, det) == 1
                   and len(hirzebruch_jung(det, q)) == length
                   and max(hirzebruch_jung(det, q)) <= 4]
        weights = hirzebruch_jung(det, rng.choice(choices))
        spec = shuffled(chain(weights, f"chain-{det}"), rng, f"chain-{det}")
        graphs[spec.name] = encode(spec, det=det, family="chain",
                                   continuant=facts.continuant(weights),
                                   highest_root=[1] * length)
    names = list(graphs)
    rng.shuffle(names)
    ops = [{"graph": name, "argv": [cmd, "-", "--format", "json"]}
           for name in names for cmd in FAMILY_COMMANDS]
    return {"graphs": graphs, "ops": ops}


def _permuted_root(spec: Spec, canonical: Spec) -> list[int]:
    root = dict(zip(canonical.ids, facts.highest_root(canonical.name, canonical.n)))
    return [root[vid] for vid in spec.ids]


# --- elliptic ---------------------------------------------------------------

ELLIPTIC_EULERS = (-2, -2, -2, -2, -3, -3, -4, -5, -6, -7)
# Vertex counts and grid sizes below Z_min the elliptic trees are picked
# at. Grids of elliptic trees with five to nine vertices start at 96
# points, and a check costs about 0.3 ms per point, more on more vertices.
# Two plateaus of equal trees sit at the median and at the 90th percentile
# of the workload's operations, so both percentiles rest on several
# operations of the same cost whatever the seed; geometric rungs spread
# the rest. The cap keeps every operation well under a second.
GRID_SLOTS = ((6, 96),) * 8 + ((9, 768),) * 7 + tuple(
    (None, round(96 * 2 ** (k / 4))) for k in range(2, 12))  # (vertices or any, grid)
GRID_CAP = 1600
MIN_ELLIPTIC_GRID = 48
MIN_ELLIPTIC_DETS = (5, 8, 12, 16, 24, 32)
CUSP_DETS = (12, 20, 32, 48)
STAR_DETS = (1, 4, 8, 16)
ELLIPTIC_TRIES = 6000


def _random_tree(rng: random.Random, name: str) -> Spec:
    n = rng.randint(5, 9)
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    return Spec(name, ids, [rng.choice(ELLIPTIC_EULERS) for _ in range(n)], edges)


def _distance(value, target) -> float:
    """Ratio distance of two sizes. For (vertices, size) pairs a vertex
    count that differs from a given one outweighs any size."""
    if isinstance(target, tuple):
        mismatch = target[0] is not None and value[0] != target[0]
        return mismatch * 100 + abs(math.log(value[1] / target[1]))
    return abs(math.log(value / target))


def _nearest(pool, key, targets):
    """For each target, the unused pool entry whose key is closest."""
    chosen, used = [], set()
    for t in targets:
        best = min((i for i in range(len(pool)) if i not in used),
                   key=lambda i: (_distance(key(pool[i]), t), i))
        used.add(best)
        chosen.append(pool[best])
    return chosen


def elliptic(rng: random.Random) -> dict:
    trees, min_elliptic = [], []
    for k in range(ELLIPTIC_TRIES):
        spec = _random_tree(rng, f"tree-{k}")
        if not facts.negative_definite(spec):
            continue
        z = facts.fundamental_cycle(spec)
        grid = facts.grid_points(z)
        if facts.chi(spec, z) != 0 or grid > GRID_CAP:
            continue
        if facts.canonical_cycle(spec) == z:
            if grid == MIN_ELLIPTIC_GRID and facts.det(spec) <= 64:
                min_elliptic.append((spec, grid))
        else:
            trees.append((spec, grid))
    picked = [(s, "check") for s, _ in _nearest(trees, lambda t: (t[0].n, t[1]), GRID_SLOTS)]
    for spec, _ in _nearest(min_elliptic, lambda t: facts.det(t[0]), MIN_ELLIPTIC_DETS):
        picked.append((spec, "classify"))

    cusps = []
    while len(cusps) < 200:
        length = rng.randint(3, 6)
        weights = [rng.choice((2, 3, 3, 4)) for _ in range(length)]
        ids = [f"e{i}" for i in range(length)]
        spec = Spec(f"cusp-{len(cusps)}", ids, [-b for b in weights],
                    [(ids[i], ids[(i + 1) % length]) for i in range(length)])
        if max(weights) > 2 and 0 < facts.det(spec) <= 64 and facts.negative_definite(spec):
            cusps.append(spec)
    picked += [(s, "classify") for s in _nearest(cusps, facts.det, CUSP_DETS)]

    stars = []
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                if q * r + p * r + p * q < p * q * r:
                    ids = ["c", "a", "b", "d"]
                    stars.append(Spec(f"gamma-{p}-{q}-{r}", ids, [-1, -p, -q, -r],
                                      [("c", "a"), ("c", "b"), ("c", "d")]))
    rng.shuffle(stars)
    stars = [s for s in stars if facts.grid_points(facts.fundamental_cycle(s)) <= GRID_CAP]
    picked += [(s, "classify") for s in _nearest(stars, facts.det, STAR_DETS)]

    graphs, ops = {}, []
    for index, (spec, deepest) in enumerate(picked):
        spec = Spec(f"g{index}-{spec.name}", spec.ids, spec.eulers, spec.edges, spec.genera)
        verdict = facts.singularity_kind(spec)
        graphs[spec.name] = encode(spec, det=facts.det(spec))
        ops.append({"graph": spec.name, "argv": ["check", "-", "--format", "json"]})
        if deepest == "classify" and verdict["minimally_elliptic"] and verdict["support_all"]:
            ops.append({"graph": spec.name, "argv": ["classify", "-", "--format", "json"]})
    return {"graphs": graphs, "ops": ops}


# --- corpus-verify ----------------------------------------------------------

# The shape of the corpora the test suite audits the oracles on. The
# oracle's cost follows det * n^2 closely (n vertices: every class is
# enumerated and replayed over n-by-n pairings), so each slot asks for a
# vertex count and a determinant, the same for every seed, and takes the
# nearest graph of a seeded pool. Eight equal slots sit at the median of
# the operations and five at the 90th percentile.
CORPUS_EULERS = (-2, -2, -2, -2, -3, -3, -4, -5)
CORPUS_RATIONAL_SLOTS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (2, 7)) + ((3, 7),) * 8 + (
    (4, 4), (4, 5), (3, 10)) + ((3, 13),) * 5
CORPUS_NEGDEF_SLOTS = ((1, 2), (2, 3), (2, 5), (3, 4), (2, 9), (3, 8), (4, 5), (3, 10))
CORPUS_POOL = 400


def _corpus_tree(rng: random.Random, name: str, genus_pool) -> Spec:
    sizes = list(range(1, 7))
    n = rng.choices(sizes, weights=sizes)[0]
    ids = [f"v{i}" for i in range(n)]
    eulers = [rng.choice(CORPUS_EULERS) for _ in range(n)]
    genera = [rng.choice(genus_pool) for _ in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    return Spec(name, ids, eulers, edges, genera)


def _affordable(spec: Spec) -> bool:
    if not facts.negative_definite(spec) or facts.det(spec) > 60:
        return False
    return facts.grid_points([3 * c for c in facts.fundamental_cycle(spec)]) <= 200_000


def corpus_verify(rng: random.Random) -> dict:
    graphs = {}
    for label, slots, genus_pool, rational in (
            ("rat", CORPUS_RATIONAL_SLOTS, (0,), True),
            ("nd", CORPUS_NEGDEF_SLOTS, (0, 0, 0, 1), False)):
        pool = []
        while len(pool) < CORPUS_POOL:
            spec = _corpus_tree(rng, f"{label}-{len(pool)}", genus_pool)
            if not _affordable(spec):
                continue
            if rational and facts.chi(spec, facts.fundamental_cycle(spec)) != 1:
                continue
            pool.append(spec)
        for spec in _nearest(pool, lambda s: (s.n, facts.det(s)), slots):
            graphs[spec.name] = encode(spec, det=facts.det(spec))
    names = list(graphs)
    rng.shuffle(names)
    return {"graphs": graphs, "ops": [{"graph": name, "argv": None} for name in names]}


GENERATORS = {"cli-cold": cli_cold, "families": families, "elliptic": elliptic,
            "corpus-verify": corpus_verify}


def build(workload: str, seed: int) -> dict:
    job = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    job["workload"] = workload
    return job
