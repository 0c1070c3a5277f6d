"""Backend resolution, plus the columnar metric kernels the benchmark times.

The backend picks only which queue walk runs: ``"numpy"`` (the fast
backend) sets ``ctx.vectorize``, so the backfilling disciplines call the
compiled walks of :mod:`repro.core.native` (which fall back to the Python
walks on their own when the kernel does not load); ``"python"`` runs the
scalar Python walks, the reference.  Everything else — the event path
(:mod:`repro.core.events`), the sorted stream, the objective over the
schedule — is one code path on both, so switching backends can never
change a schedule, an objective, or a cache fingerprint (the backend is
deliberately absent from :func:`repro.experiments.engine.cell_fingerprint`).
The name ``"numpy"`` is historical: a simulation imports no numpy.

:class:`ResultColumns`, :func:`exact_sum` and the two ``*_columns``
reductions are kept only for the benchmark harness: nothing in the package
calls them.  Their exactness rests on two facts:

* IEEE-754 elementwise arithmetic (``+``, ``-``, ``*``, comparisons) is
  identical between CPython floats and NumPy float64.
* ``np.add.accumulate`` is a strictly *sequential* left-to-right reduction
  (every prefix is materialised), so its final element equals Python's
  ``sum()`` bit for bit.  ``np.sum`` is **not** usable here: its pairwise
  summation re-associates additions and would differ in the last bits.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule import Schedule, ScheduledJob

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ResultColumns",
    "average_response_time_columns",
    "average_weighted_response_time_columns",
    "exact_sum",
    "resolve_backend",
]

#: Environment variable overriding an unspecified backend choice.
ENV_BACKEND = "REPRO_BACKEND"

#: Accepted values of the ``backend`` parameter (``None`` means "consult
#: :data:`ENV_BACKEND`, then auto-select").
BACKENDS = ("auto", "python", "numpy")


def resolve_backend(backend: str | None) -> str:
    """Resolve a backend request to a concrete ``"python"`` or ``"numpy"``.

    ``None`` (the default everywhere) consults the :data:`ENV_BACKEND`
    environment variable and falls back to ``"auto"``, which selects
    ``"numpy"``, the fast backend; unknown names raise
    :class:`ValueError`.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "").strip() or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)} (or None to consult ${ENV_BACKEND})"
        )
    return "numpy" if backend == "auto" else backend


# -- columnar result buffers and exact metric kernels --------------------------


class ResultColumns:
    """Kept only for the benchmark harness, which reduces it."""

    __slots__ = ("submit", "start", "end", "area")

    def __init__(self) -> None:
        self.submit = array("d")
        self.start = array("d")
        self.end = array("d")
        self.area = array("d")

    def __len__(self) -> int:
        return len(self.end)

    def append(self, item: "ScheduledJob") -> None:
        job = item.job
        self.submit.append(job.submit_time)
        self.start.append(item.start_time)
        self.end.append(item.end_time)
        self.area.append(job.area)

    @classmethod
    def from_schedule(cls, schedule: "Schedule | Iterable[ScheduledJob]") -> "ResultColumns":
        cols = cls()
        for item in schedule:
            cols.append(item)
        return cols


def exact_sum(values: Any) -> float:
    """Kept only for the benchmark harness, which patches it."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def average_response_time_columns(columns: ResultColumns) -> float:
    """Kept only for the benchmark harness, which patches it."""
    n = len(columns)
    if n == 0:
        return 0.0
    import numpy as np

    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    return exact_sum(end - submit) / n


def average_weighted_response_time_columns(columns: ResultColumns) -> float:
    """Kept only for the benchmark harness, which patches it."""
    n = len(columns)
    if n == 0:
        return 0.0
    import numpy as np

    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    area = np.frombuffer(columns.area, dtype=np.float64)
    return exact_sum((end - submit) * area) / n
