"""Experiment harnesses regenerating every paper artefact.

===================== =================================================
module                paper artefact
===================== =================================================
``figure1``           Figure 1(a) and 1(b): protocol comparison tables
``theorems``          Theorems 4.1, 5.1, 5.2: constructive latency runs
``lower_bounds``      Propositions 3.1-3.3: counterexample searches
``rate_sweep``        Section 5.3: broadcast rate vs round usefulness
``tradeoff``          Section 1: genuine multicast vs broadcast-to-all
``ablation``          Sections 4.1/6: stage skipping vs Fritzke et al. [5]
``prediction``        §5.3 extension: quiescence prediction strategies
``wan_heterogeneity`` §6 remark: topology decides the best algorithm
``scalability``       Figure 1 asymptotics: group-count/group-size sweeps
===================== =================================================

Each module exposes a ``*_table()`` function that renders its table
(``python -m repro.cli <experiment>`` prints it) plus granular
functions the benchmark suite calls and asserts on.
"""

from repro.experiments import (  # noqa: F401
    ablation,
    prediction,
    wan_heterogeneity,
    figure1,
    lower_bounds,
    rate_sweep,
    scalability,
    theorems,
    tradeoff,
)

__all__ = ["ablation", "figure1", "lower_bounds", "prediction",
           "rate_sweep", "scalability", "theorems", "tradeoff",
           "wan_heterogeneity"]
