"""Seeded corpus of library outputs the command line never reaches, hashed
for byte comparison.

Usage::

    PYTHONPATH=src python tests/library_corpus.py RUNS [--seed N]

Each of ``RUNS`` seeded items calls the library once and hashes the label,
shape, dtype and bytes of every array it returns; the script prints one
line per item and a total.  Running it against two source trees
(``PYTHONPATH=<tree>/src``) and comparing the totals checks that a change
keeps these outputs byte-identical, as ``cli_corpus.py`` does for reports.

The items cycle through eight kinds: an operator batch applied to a single
state, an operator (single or batched) applied to a batched state, a joint
table from spectral candidates, batched pointer tables, partial traces of
pure and density states, a 1000-member direct table, the ``bell-ancilla``
tables, and the same tables for a batch of 1 to 50 settings.  The ancilla
items hash their tables, not their state, whose zero amplitudes may carry
either sign.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import math
import sys

import numpy as np

from qrs_sim import bell
from qrs_sim.linalg import DensityOperator, Operator, SpaceRegistry, StateVector, partial_trace
from qrs_sim.reference import ReferenceSystem, joint_distribution

SPACE = SpaceRegistry([("A", 2), ("B", 3), ("C", 3), ("D", 2)])
KINDS = ("apply-single", "apply-batched", "spectral", "pointer-batch", "partial-trace", "direct-1000", "ancilla", "ancilla-batch")


def _unitaries(rng, d: int, batch):
    shape = (d, d) if batch is None else (batch, d, d)
    return np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]


def _state(rng, batch):
    shape = (SPACE.dim,) if batch is None else (batch, SPACE.dim)
    return StateVector(SPACE, rng.normal(size=shape) + 1j * rng.normal(size=shape), normalize=True)


def _labels(rng, most: int) -> list[str]:
    """One to ``most`` distinct labels of ``SPACE`` in a random order."""
    return [str(label) for label in rng.permutation(SPACE.labels)[: int(rng.integers(1, most + 1))]]


def _operator(rng, batch) -> Operator:
    sub = SpaceRegistry((label, SPACE.dims[SPACE.axis(label)]) for label in _labels(rng, 3))
    return Operator(sub, _unitaries(rng, sub.dim, batch))


def _config(rng, batch=None) -> bell.ExperimentConfig:
    z = rng.normal(size=4)
    a, b = complex(z[0], z[1]), complex(z[2], z[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    thetas = rng.uniform(-2 * math.pi, 2 * math.pi, size=2 if batch is None else (2, batch)).tolist()
    return bell.ExperimentConfig(a / norm, b / norm, *(t if batch is None else tuple(t) for t in thetas))


def item(kind: str, rng) -> list[np.ndarray]:
    """The arrays one item of ``kind`` returns."""
    if kind == "apply-single":
        return [_operator(rng, int(rng.choice([1, 7, 100]))).apply(_state(rng, None)).amplitudes]
    if kind == "apply-batched":
        batch = int(rng.choice([1, 7, 100]))
        return [_operator(rng, batch if rng.random() < 0.5 else None).apply(_state(rng, batch)).amplitudes]
    if kind == "spectral":
        systems = [(label,) for label in _labels(rng, 4)]
        return [joint_distribution(systems, ReferenceSystem(_state(rng, None), isolated=True)).probabilities]
    if kind == "pointer-batch":
        state = bell.evolve_experiment(_config(rng, int(rng.integers(1, 50))))
        return [table.probabilities for table in bell.pointer_tables(state, (bell.M2, bell.M1), (bell.M1,))]
    if kind == "partial-trace":
        state = _state(rng, int(rng.integers(1, 9)) if rng.random() < 0.5 else None)
        keep = _labels(rng, 3)
        rho = DensityOperator(SPACE, np.einsum("...i,...j->...ij", state.amplitudes, state.amplitudes.conj()))
        return [partial_trace(state, keep).matrix, partial_trace(rho, keep).matrix]
    if kind == "direct-1000":
        return [bell.correlation_direct(_config(rng, 1000)).probabilities]
    state = bell.ancilla_experiment(_config(rng, int(rng.integers(1, 51)) if kind == "ancilla-batch" else None))
    return [table.probabilities for table in bell.pointer_tables(state, (bell.A1, bell.A2, bell.M1, bell.M2), (bell.M1, bell.M2))]


def digest(kind: str, arrays: list[np.ndarray]) -> str:
    hashed = hashlib.sha256(kind.encode())
    for array in arrays:
        hashed.update(f"{array.shape}{array.dtype}".encode())
        hashed.update(np.ascontiguousarray(array).tobytes())
    return hashed.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=int, help="number of seeded library calls")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    total = hashlib.sha256()
    kinds: collections.Counter = collections.Counter()
    for number in range(args.runs):
        kind = KINDS[number % len(KINDS)]
        line = digest(kind, item(kind, rng))
        total.update(line.encode())
        kinds[kind] += 1
        print(f"{number:5d} {kind:13s} {line}")
    summary = ", ".join(f"{kind} x {count}" for kind, count in sorted(kinds.items()))
    print(f"total {total.hexdigest()} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
