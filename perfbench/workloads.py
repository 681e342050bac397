"""The benchmark's workloads: which certified jobs run, on which instances.

A workload is a fixed list of CLI commands, each with an instance family.
One *round* runs every command of the workload once, in order; a *pass*
runs INSTANCES_PER_COMMAND rounds, so every generated instance is solved
once per pass.  Instances come from the package's generator functions,
called directly with a generator derived from the benchmark seed (the CLI's
``gen`` command caps dimensions at 16, below the M_64 blocks used here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from povmround.algebra import BlockAlgebra, Povm
from povmround.generators import (
    random_functionals,
    random_povm_near_pvm,
    random_state,
    rotated_pvm_pair,
)
from povmround.io import Instance

INSTANCES_PER_COMMAND = 16


def rounding_instance(rng: np.random.Generator, dims, n: int, delta: float) -> Instance:
    alg = BlockAlgebra(tuple(dims))
    povm = random_povm_near_pvm(alg, n, delta, rng)
    phi = random_state(alg, rng)
    meta = {"family": "random_povm_near_pvm", "dims": list(dims), "n": n, "delta": delta}
    return Instance(alg, state=phi, povm=povm, metadata=meta)


def tensor_rounding_instance(
    rng: np.random.Generator, small_dim: int, factor: int, n: int, delta: float
) -> Instance:
    """POVM a_i (x) 1_factor in M_{small_dim*factor} with a non-product state,
    so 1 (x) M_factor lies in the commutant of the inputs."""
    small = BlockAlgebra((small_dim,))
    base = random_povm_near_pvm(small, n, delta, rng)
    alg = BlockAlgebra((small_dim * factor,))
    povm = Povm(
        alg, [alg.element([np.kron(e.blocks[0], np.eye(factor))]) for e in base.elements]
    )
    phi = random_state(alg, rng)
    meta = {
        "family": "tensor_povm_near_pvm",
        "small_dim": small_dim,
        "factor": factor,
        "n": n,
        "delta": delta,
    }
    return Instance(alg, state=phi, povm=povm, metadata=meta)


def repair_instance(rng: np.random.Generator, dims, n_p: int, n_q: int, theta: float) -> Instance:
    alg, phi, p, q = rotated_pvm_pair(theta, tuple(dims), n_p=n_p, n_q=n_q, rng=rng)
    meta = {"family": "rotated_pvm_pair", "dims": list(dims), "n_p": n_p, "n_q": n_q, "theta": theta}
    return Instance(alg, state=phi, pvm_pair=(p, q), metadata=meta)


def majorant_instance(rng: np.random.Generator, dims, n: int) -> Instance:
    alg = BlockAlgebra(tuple(dims))
    meta = {"family": "random_functionals", "dims": list(dims), "n": n}
    return Instance(alg, functionals=random_functionals(alg, n, rng), metadata=meta)


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload and the instance family it runs on."""

    name: str                                     # CLI subcommand
    make: Callable[[np.random.Generator], Instance]
    tensor_factor: int = 0                        # orthogonalize-sym: size of the 1 (x) M_f symmetry

    @property
    def metric(self) -> str:
        return self.name.replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-large-block",
            "single M_64 blocks: instance and report JSON dominate the job, decomposition "
            "and Newton never run",
            (
                Command("orthogonalize", partial(rounding_instance, dims=(64,), n=4, delta=0.05)),
                Command("repair", partial(repair_instance, dims=(64,), n_p=4, n_q=4, theta=0.1)),
            ),
        ),
        Workload(
            "many-small-blocks",
            "hundreds of M_2/M_4 blocks: per-block Python loops and tiny eigh/cholesky "
            "calls dominate; majorant Newton on 4x4 blocks",
            (
                Command("orthogonalize", partial(rounding_instance, dims=(2,) * 128, n=4, delta=0.05)),
                Command("repair", partial(repair_instance, dims=(4,) * 24, n_p=3, n_q=3, theta=0.1)),
                Command("majorant", partial(majorant_instance, dims=(4,) * 8, n=3)),
            ),
        ),
        Workload(
            "sym-majorant-d16",
            "dense d=16: the O(d^6) Kronecker SVD of sym mode and the dense Newton "
            "solve of the majorant dominate",
            (
                Command(
                    "orthogonalize-sym",
                    partial(tensor_rounding_instance, small_dim=8, factor=2, n=3, delta=0.2),
                    tensor_factor=2,
                ),
                Command("majorant", partial(majorant_instance, dims=(16,), n=3)),
            ),
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[list[Instance]]:
    """INSTANCES_PER_COMMAND instances per command, determined by the seed."""
    pools = []
    for c, cmd in enumerate(workload.commands):
        rng = np.random.default_rng([seed, c])
        pools.append([cmd.make(rng) for _ in range(INSTANCES_PER_COMMAND)])
    return pools
