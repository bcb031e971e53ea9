"""Reference implementations the identity suites pin the package against.

The package ships one implementation of each piece; the frozen references
they replaced live here, outside ``src/``: the dictionary tabu list and the
search driven by it (:mod:`oracles.tabu`), the direct wirelength, QAP
and timing kernels (:mod:`oracles.kernels`), and the per-cell timing-graph
builder (:mod:`oracles.timing_graph`).  Tests import them as
``from oracles.… import …`` (``tests/`` is on ``sys.path`` under pytest's
default import mode); benchmarks add ``tests/`` to ``sys.path`` themselves.
"""
