"""Pinned digests of every named benchmark circuit.

The named circuits are generated, not read from files, so a change to the
generator or to how a :class:`~repro.placement.netlist.Netlist` stores its
structure could silently change every experiment's instance.  Each digest
hashes the full object view — every cell's name, index, width, delay and
kind, and every net's name, index, driver, sinks and weight, floats by
``repr`` — of a freshly generated circuit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.placement.iscas import benchmark_names, load_benchmark
from repro.placement.netlist import Netlist

PINNED = {
    "tiny16": "f30eb8357299721f4107324ccac782d0d373a29af5587cc1115f4b9dcc6e700b",
    "mini64": "7e6f3a727c047aa9c82985b0bc6fc0b753abb1b9d075aabd1ff468670ad45b40",
    "small200": "1a16be8db499cf3ad8fb1c54b5937f3593feae844e0533e09df4733a0563c09f",
    "highway": "ec627865967535f7d37faf5da13dc759e6e3c3933e951e6185637f09d6307382",
    "c532": "cf26a5603ac34b175fa94cda9129e2f6e607ae8587275a5d753465f33a79710e",
    "c1355": "2f0de660ad014ed3f6624ddf09b4b639ce09a07bc81f06aeee77121e09744afa",
    "c3540": "9d1ec4c5f4c11f96605866c6639d9a6df68b8ce63b08ab3460eacc036de55f02",
    "big2k": "a8f031c76c54353ae008af1da90bd9754118fe3fcdd0b40ab5ba2252f46e837e",
    "big10k": "ff07693ee774a2ef750b5ff89c93a4afb823ccfa693e87527af2efc97a7fa092",
}


def netlist_digest(netlist: Netlist) -> str:
    """sha256 of a netlist's cells and nets, one text line per object."""
    digest = hashlib.sha256()
    for cell in netlist.cells:
        digest.update(
            f"{cell.index} {cell.name} {cell.width!r} {cell.delay!r} {cell.kind.value}\n".encode()
        )
    for net in netlist.nets:
        digest.update(
            f"{net.index} {net.name} {net.driver} {net.sinks} {net.weight!r}\n".encode()
        )
    return digest.hexdigest()


def test_every_named_circuit_is_pinned():
    assert sorted(PINNED) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_circuit_matches_its_pinned_digest(name):
    assert netlist_digest(load_benchmark(name, use_cache=False)) == PINNED[name]
