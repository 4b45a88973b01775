"""Design-space exploration: parallel sweeps and Pareto frontiers.

The estimator answers one ``(strategy, d, k)`` point in microseconds; this
package turns that into a *map* of the whole design space:

* :mod:`repro.dse.sweep` — a :class:`SweepSpec` planner that chunks the
  strategy × pipeline × (d, k) grid and evaluates it on the ``repro.exec``
  fork pool, streaming results into a columnar :class:`PointStore`;
* :mod:`repro.dse.frontier` — a vectorized Pareto skyline kernel over
  (gates, depth, two-qudit count, ancilla) objectives plus report/chart
  emitters.
"""

from repro.dse.frontier import frontier_report, pareto_mask, scenario_frontiers
from repro.dse.sweep import (
    PIPELINE_VARIANTS,
    PointStore,
    SweepSpec,
    plan_sweep,
    run_sweep,
)

__all__ = [
    "PIPELINE_VARIANTS",
    "PointStore",
    "SweepSpec",
    "frontier_report",
    "pareto_mask",
    "plan_sweep",
    "run_sweep",
    "scenario_frontiers",
]
