"""Seeded input generation for the benchmark workloads.

A workload is a list of blocks; a block is a list of items; an item is one
user request: one or more `spindisk` command lines plus what the output
check needs to know about them.  Every block of a workload has the same
composition of item kinds, so any whole number of blocks carries the same
mix of work; the seed varies switch angles, mixture weights, job seeds
and the order of items inside a block.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyse", "simulate", "optimise")

#: Number of blocks every measured phase runs at least; the output digest
#: and the traced run cover exactly this prefix, so both repeat exactly
#: for a given seed whatever the machine's speed.
MIN_BLOCKS = {"analyse": 4, "simulate": 8, "optimise": 4}

#: Blocks written during set-up; a long run cycles through them again.
GENERATED_BLOCKS = {"analyse": 12, "simulate": 32, "optimise": 16}

LATTICE_N = 720
CORR_GRID = 721
SPECTRUM_NMAX = 99
CHSH_STEP = math.pi / 360
SIM_GRID = 16
SIM_RUNS = 200_000
#: simulate: mixture size of each job in a block, 0 for `sim --quantum`.
#: The sizes are fixed so that every seed carries the same amount of work.
SIM_BLOCK = (2, 3, 3, 0)

# analyse: one block of 50 models.  32 single colourings with small k
# (every other one on the 720-point lattice), 6 with medium k, one each
# of the large k values, and 9 mixtures of 2-4 small-k components.
_SMALL_K = [0, 2, 4, 6, 8] * 6 + [4, 6]
_MEDIUM_K = [12, 12, 12, 16, 16, 16]
_LARGE_K = [24, 32, 40]
_MIXTURE_SIZES = [2, 3, 4] * 3

# optimise: one block is this cycle of 12 `spindisk optimize` jobs, with
# the L2 k=2 searches in the middle of the latency order so that the
# median item is one of them.  Fixed-k searches with k >= 4 and --monotone
# are left out: their run times are heavy-tailed and, at start counts an
# item can afford, they fail their checks (see README.md).
_OPTIMISE_KINDS = {
    "l2_k2": ["--k", "2", "--starts", "4"],
    "sup_k2": ["--k", "2", "--metric", "sup", "--starts", "2"],
    "pool": ["--pool", "0,2,4", "--iterations", "5", "--starts", "2"],
}
OPTIMISE_CYCLE = ["sup_k2"] * 3 + ["l2_k2"] * 6 + ["pool"] * 3


@dataclass
class Item:
    """One request: the command lines it runs and facts its check needs."""

    item_id: int
    kind: str
    commands: list[list[str]]
    meta: dict = field(default_factory=dict)


@dataclass
class Inputs:
    blocks: list[list[Item]]
    warmup: Item
    digest: str


def _random_theta(rng: np.random.Generator, k: int) -> list[float]:
    while True:
        theta = np.sort(rng.uniform(1e-3, math.pi - 1e-3, k))
        if k == 0 or np.all(np.diff(theta) > 1e-6):
            return theta.tolist()


def _lattice_theta(rng: np.random.Generator, k: int) -> tuple[list[int], list[float]]:
    idx = sorted(int(j) for j in rng.choice(np.arange(1, LATTICE_N // 2), size=k, replace=False))
    return idx, [2.0 * math.pi * j / LATTICE_N for j in idx]


def _random_mixture(rng: np.random.Generator, n: int, ks) -> dict:
    while True:
        w = rng.dirichlet(np.ones(n))
        if w.min() > 1e-3:
            break
    w = w / w.sum()
    return {"components": [
        {"w": float(wi), "theta": _random_theta(rng, int(rng.choice(ks)))} for wi in w
    ]}


class _Writer:
    """Writes model files under one directory and hashes every input."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.hash = hashlib.sha256()
        self.next_id = 0
        os.makedirs(workdir, exist_ok=True)

    def model(self, name: str, model: dict) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        text = json.dumps(model)
        with open(path, "w") as fh:
            fh.write(text)
        self.hash.update(text.encode())
        return path

    def item(self, kind: str, commands: list[list[str]], **meta) -> Item:
        for argv in commands:
            self.hash.update("\0".join(argv).encode() + b"\n")
        item = Item(self.next_id, kind, commands, meta)
        self.next_id += 1
        return item


def _analyse_item(w: _Writer, name: str, kind: str, model: dict, **meta) -> Item:
    path = w.model(name, model)
    commands = [
        ["corr", path, "--grid", str(CORR_GRID)],
        ["spectrum", path, "--nmax", str(SPECTRUM_NMAX)],
        ["chsh", path, "--scan-step", repr(CHSH_STEP)],
    ]
    return w.item(kind, commands, model=model, **meta)


def _analyse_block(w: _Writer, rng: np.random.Generator, b: int, tiny: bool) -> list[Item]:
    specs = []
    for i, k in enumerate(_SMALL_K):
        specs.append(("small_lattice" if i % 2 == 0 else "small", k))
    specs += [("medium", k) for k in _MEDIUM_K]
    specs += [("large", k) for k in _LARGE_K]
    specs += [("mixture", n) for n in _MIXTURE_SIZES]
    if tiny:
        specs = [("small_lattice", 4), ("small", 6), ("medium", 12), ("mixture", 3)]
    order = rng.permutation(len(specs))
    items = []
    for pos in order:
        kind, k = specs[pos]
        name = f"b{b:02d}_{len(items):02d}"
        if kind == "small_lattice":
            idx, theta = _lattice_theta(rng, k)
            items.append(_analyse_item(w, name, kind, {"theta": theta}, lattice=idx))
        elif kind == "mixture":
            items.append(_analyse_item(w, name, kind, _random_mixture(rng, k, (0, 2, 4, 6))))
        else:
            items.append(_analyse_item(w, name, kind, {"theta": _random_theta(rng, k)}))
    return items


def _sim_item(w: _Writer, rng: np.random.Generator, name: str, n_components: int,
              runs: int) -> Item:
    """A classical job on a mixture of n_components, or a quantum job if it is 0."""
    job_seed = str(int(rng.integers(2**31)))
    tail = ["--grid", str(SIM_GRID), "--runs", str(runs), "--seed", job_seed]
    if not n_components:
        return w.item("quantum", [["sim", "--quantum", *tail]], model=None, runs=runs)
    model = _random_mixture(rng, n_components, (0, 2, 4, 6, 8))
    path = w.model(name, model)
    return w.item("classical", [["sim", path, *tail]], model=model, runs=runs)


def _simulate_block(w: _Writer, rng: np.random.Generator, b: int, tiny: bool) -> list[Item]:
    runs = 20_000 if tiny else SIM_RUNS
    return [
        _sim_item(w, rng, f"b{b:02d}_{j}", n, runs) for j, n in enumerate(SIM_BLOCK)
    ]


def _optimise_item(w: _Writer, rng: np.random.Generator, kind: str) -> Item:
    job_seed = str(int(rng.integers(2**31)))
    return w.item(kind, [["optimize", *_OPTIMISE_KINDS[kind], "--seed", job_seed]])


def _optimise_block(w: _Writer, rng: np.random.Generator, b: int, tiny: bool) -> list[Item]:
    kinds = ["l2_k2", "sup_k2", "pool"] if tiny else OPTIMISE_CYCLE
    return [_optimise_item(w, rng, kinds[i]) for i in rng.permutation(len(kinds))]


_BLOCK = {"analyse": _analyse_block, "simulate": _simulate_block, "optimise": _optimise_block}


def _warmup(w: _Writer, workload: str, rng: np.random.Generator, tiny: bool) -> Item:
    if workload == "analyse":
        return _analyse_item(w, "warmup", "small", {"theta": _random_theta(rng, 4)})
    if workload == "simulate":
        return _sim_item(w, rng, "warmup", 2, runs=20_000 if tiny else SIM_RUNS)
    return _optimise_item(w, rng, "l2_k2")


def generate(workload: str, seed: int, workdir: str, tiny: bool = False) -> Inputs:
    """Write the workload's model files under workdir and return its items.

    The same (workload, seed, tiny) always yields the same files, command
    lines and digest.  `tiny` writes one small block, for the benchmark's
    own tests.
    """
    if workload not in _BLOCK:
        raise ValueError(f"unknown workload {workload!r}")
    w = _Writer(workdir)
    root = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    warm_seq, *block_seqs = root.spawn(1 + GENERATED_BLOCKS[workload])
    warmup = _warmup(w, workload, np.random.default_rng(warm_seq), tiny)
    n_blocks = 1 if tiny else len(block_seqs)
    blocks = [
        _BLOCK[workload](w, np.random.default_rng(block_seqs[b]), b, tiny)
        for b in range(n_blocks)
    ]
    return Inputs(blocks, warmup, w.hash.hexdigest())
