"""Theorem 1.1 under the ``auto`` planner equals the same run on ``dense``.

``auto`` resolves the pipeline's gated min-plus and tree runs to the
closed-form ``symbolic`` engine.  The paper's claim is a round count, so
the planner may only change wall clock: value, chosen skeleton and source,
total rounds and every per-phase :class:`RoundReport` must match a run
pinned to ``dense``.
"""

from __future__ import annotations

import pytest

from repro.congest import Network, available_engines
from repro.core import quantum_weighted_diameter, quantum_weighted_radius
from repro.graphs.generators import yao_spanner_graph
from repro.runtime import configure

pytestmark = [
    pytest.mark.engines,
    pytest.mark.skipif(
        "dense" not in available_engines(), reason="dense engine needs NumPy"
    ),
]


def _summary(result):
    """Everything a caller can observe of one run, phase reports included."""
    phases = {"pipeline": result.report}
    for search, charge in (
        ("outer", result.outer_charge),
        ("inner", result.inner_outcome.charge),
    ):
        phases[f"{search}.initialization"] = charge.costs.initialization
        phases[f"{search}.setup"] = charge.costs.setup
        phases[f"{search}.evaluation"] = charge.costs.evaluation
        phases[f"{search}.extra_classical"] = charge.extra_classical
    return {
        "value": result.value,
        "within_guarantee": result.within_guarantee,
        "chosen_set_index": result.chosen_set_index,
        "chosen_skeleton": list(result.chosen_skeleton),
        "chosen_source": result.chosen_source,
        "total_rounds": result.total_rounds,
        "phases": phases,
    }


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize(
    "algorithm", [quantum_weighted_diameter, quantum_weighted_radius]
)
def test_auto_planner_matches_dense(monkeypatch, algorithm, seed):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    network = Network(yao_spanner_graph(48, seed=seed))
    auto = _summary(algorithm(network, seed=seed))
    with configure(engine="dense"):
        dense = _summary(algorithm(network, seed=seed))
    assert auto == dense
