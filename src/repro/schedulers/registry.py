"""Open registry of scheduler configurations (rows × columns).

Tables 3–6 of the paper evaluate a 5 x 3 grid (minus the cells the paper
omits):

==============  =============  ============  ================
row             Listscheduler  Backfilling   EASY-Backfilling
==============  =============  ============  ================
FCFS            x              x             x (reference)
PSRS            x              x             x
SMART-FFIA      x              x             x
SMART-NFIW      x              x             x
Garey&Graham    x              —             —
==============  =============  ============  ================

"Backfilling" is conservative backfilling; Garey & Graham has no backfill
columns because any-fit scheduling already fills every hole.

The grid is no longer hardcoded: rows (order policies) and columns
(servicing disciplines) live in registries that user code can extend —

* :func:`register_row` adds an order-policy row; its factory receives
  ``(total_nodes, weight, recompute_threshold)`` and may ignore any of
  them.  A row can restrict itself to specific columns (Garey & Graham
  only makes sense as a list scheduler) and may override the column
  discipline entirely (Garey & Graham brings its own any-fit discipline).
* :func:`register_discipline` adds a servicing-discipline column; its
  factory takes no arguments.

Registered rows flow through the whole experiment stack — the grid
runner, the parallel engine, its result cache, and the table renderers —
exactly like the paper's five algorithms.  :func:`paper_configurations`
still enumerates exactly the 13 cells of the paper;
:func:`registered_configurations` enumerates everything currently
registered.  :func:`build_scheduler` instantiates any cell for a machine
size and weight regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.scheduler import Scheduler
from repro.schedulers.base import (
    Discipline,
    OrderedQueueScheduler,
    OrderPolicy,
    SubmitOrderPolicy,
)
from repro.schedulers.disciplines import (
    AnyFitDiscipline,
    ConservativeBackfill,
    EasyBackfill,
    HeadBlockingDiscipline,
)
from repro.schedulers.psrs import PsrsOrderPolicy
from repro.schedulers.smart import SmartOrderPolicy, SmartVariant
from repro.schedulers.weights import WeightFn, estimated_area_weight, unit_weight

#: ``factory(total_nodes, weight, recompute_threshold) -> OrderPolicy``
OrderFactory = Callable[[int, WeightFn, float], OrderPolicy]

#: ``factory() -> Discipline``
DisciplineFactory = Callable[[], Discipline]


@dataclass(frozen=True, slots=True)
class RowSpec:
    """A registered row: an order policy plus its grid placement."""

    key: str
    label: str
    order_factory: OrderFactory
    #: Columns this row participates in; ``None`` means every registered
    #: column.
    columns: tuple[str, ...] | None = None
    #: When set, this discipline is used regardless of the column (the
    #: Garey & Graham case: any-fit already fills every hole, so the row
    #: exists only under "list" and brings its own discipline).
    discipline_factory: DisciplineFactory | None = None
    #: Display name override for the built scheduler.
    scheduler_name: str | None = None


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """A registered column: a servicing discipline."""

    key: str
    label: str
    factory: DisciplineFactory


_ROW_REGISTRY: dict[str, RowSpec] = {}
_COLUMN_REGISTRY: dict[str, ColumnSpec] = {}

#: Human-readable labels, kept in sync by register/unregister calls.
ROW_LABELS: dict[str, str] = {}
COLUMN_LABELS: dict[str, str] = {}

#: Bumped by every call that changes a registry.  Forked pool workers see
#: the registries as of their fork, so a pool forked under an older
#: generation is rebuilt before it runs another grid.
_GENERATION = 0


def registry_generation() -> int:
    """How often the row/column registries have changed in this process."""
    return _GENERATION


def _changed() -> None:
    global _GENERATION
    _GENERATION += 1


def register_row(
    key: str,
    factory: OrderFactory,
    *,
    label: str | None = None,
    columns: Sequence[str] | None = None,
    discipline: DisciplineFactory | None = None,
    scheduler_name: str | None = None,
    replace: bool = False,
) -> RowSpec:
    """Register an order-policy row under ``key``.

    ``factory(total_nodes, weight, recompute_threshold)`` must return a
    fresh :class:`OrderPolicy`; ``columns`` restricts the row to a subset
    of the registered disciplines; ``discipline`` overrides the column
    discipline entirely (see Garey & Graham).  Re-registering an existing
    key raises unless ``replace=True``.
    """
    if key in _ROW_REGISTRY and not replace:
        raise ValueError(f"row {key!r} is already registered (pass replace=True)")
    spec = RowSpec(
        key=key,
        label=label or key,
        order_factory=factory,
        columns=tuple(columns) if columns is not None else None,
        discipline_factory=discipline,
        scheduler_name=scheduler_name,
    )
    _ROW_REGISTRY[key] = spec
    ROW_LABELS[key] = spec.label
    _changed()
    return spec


def register_discipline(
    key: str,
    factory: DisciplineFactory,
    *,
    label: str | None = None,
    replace: bool = False,
) -> ColumnSpec:
    """Register a servicing-discipline column under ``key``."""
    if key in _COLUMN_REGISTRY and not replace:
        raise ValueError(f"column {key!r} is already registered (pass replace=True)")
    spec = ColumnSpec(key=key, label=label or key, factory=factory)
    _COLUMN_REGISTRY[key] = spec
    COLUMN_LABELS[key] = spec.label
    _changed()
    return spec


def unregister_row(key: str) -> None:
    """Remove a registered row (no-op when absent)."""
    if _ROW_REGISTRY.pop(key, None) is not None:
        ROW_LABELS.pop(key, None)
        _changed()


def unregister_discipline(key: str) -> None:
    """Remove a registered column (no-op when absent)."""
    if _COLUMN_REGISTRY.pop(key, None) is not None:
        COLUMN_LABELS.pop(key, None)
        _changed()


def registered_rows() -> tuple[str, ...]:
    """Row keys in registration order (the paper's five come first)."""
    return tuple(_ROW_REGISTRY)


def registered_columns() -> tuple[str, ...]:
    """Column keys in registration order (the paper's three come first)."""
    return tuple(_COLUMN_REGISTRY)


def row_label(key: str) -> str:
    """Display label for a row key; unregistered keys echo the key."""
    spec = _ROW_REGISTRY.get(key)
    return spec.label if spec is not None else key


def column_label(key: str) -> str:
    """Display label for a column key; unregistered keys echo the key."""
    spec = _COLUMN_REGISTRY.get(key)
    return spec.label if spec is not None else key


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """One cell of the evaluation grid."""

    row: str
    column: str

    @property
    def key(self) -> str:
        return f"{self.row}/{self.column}"

    @property
    def label(self) -> str:
        return f"{row_label(self.row)} + {column_label(self.column)}"

    @property
    def is_reference(self) -> bool:
        """FCFS + EASY is the paper's 0% reference (the CTC production setup)."""
        return self.row == "fcfs" and self.column == "easy"


# -- the paper's grid ----------------------------------------------------------

#: The paper's row keys, in table order (the registry may hold more).
ROWS = ("fcfs", "psrs", "smart-ffia", "smart-nfiw", "gg")

#: The paper's column keys, in table order (the registry may hold more).
COLUMNS = ("list", "conservative", "easy")

register_discipline("list", HeadBlockingDiscipline, label="Listscheduler")
register_discipline("conservative", ConservativeBackfill, label="Backfilling")
register_discipline("easy", EasyBackfill, label="EASY-Backfilling")

register_row(
    "fcfs",
    lambda total_nodes, weight, threshold: SubmitOrderPolicy(),
    label="FCFS",
)
register_row(
    "psrs",
    lambda total_nodes, weight, threshold: PsrsOrderPolicy(
        total_nodes, weight=weight, recompute_threshold=threshold
    ),
    label="PSRS",
)
register_row(
    "smart-ffia",
    lambda total_nodes, weight, threshold: SmartOrderPolicy(
        total_nodes,
        variant=SmartVariant.FFIA,
        weight=weight,
        recompute_threshold=threshold,
    ),
    label="SMART-FFIA",
)
register_row(
    "smart-nfiw",
    lambda total_nodes, weight, threshold: SmartOrderPolicy(
        total_nodes,
        variant=SmartVariant.NFIW,
        weight=weight,
        recompute_threshold=threshold,
    ),
    label="SMART-NFIW",
)
register_row(
    "gg",
    lambda total_nodes, weight, threshold: SubmitOrderPolicy(),
    label="Garey&Graham",
    columns=("list",),
    discipline=AnyFitDiscipline,
    scheduler_name="Garey&Graham",
)


def paper_configurations() -> Iterator[SchedulerConfig]:
    """The 13 grid cells of Tables 3–6, row-major in paper order.

    Always exactly the paper's cells, regardless of what else has been
    registered — use :func:`registered_configurations` for the full grid.
    """
    for row in ROWS:
        for column in COLUMNS:
            if row == "gg" and column != "list":
                continue  # backfilling is no benefit for any-fit scheduling
            yield SchedulerConfig(row=row, column=column)


def registered_configurations(
    rows: Sequence[str] | None = None,
) -> Iterator[SchedulerConfig]:
    """Every registered cell, row-major in registration order.

    ``rows`` restricts the enumeration to a subset of row keys (unknown
    keys raise).  Each row spans its declared columns, defaulting to every
    registered column.
    """
    wanted = tuple(rows) if rows is not None else registered_rows()
    for key in wanted:
        spec = _ROW_REGISTRY.get(key)
        if spec is None:
            raise ValueError(
                f"unknown row {key!r}; registered rows: {', '.join(_ROW_REGISTRY)}"
            )
        for column in spec.columns if spec.columns is not None else registered_columns():
            yield SchedulerConfig(row=key, column=column)


def build_scheduler(
    config: SchedulerConfig,
    total_nodes: int,
    *,
    weighted: bool = False,
    recompute_threshold: float = 2.0 / 3.0,
) -> Scheduler:
    """Instantiate the scheduler for one grid cell via the registries.

    ``weighted`` selects the ordering weight that SMART/PSRS use: job weight
    1 in the unweighted regime, estimated area in the weighted regime
    (Section 4; FCFS and Garey & Graham ignore weights entirely).
    """
    row = _ROW_REGISTRY.get(config.row)
    if row is None:
        raise ValueError(
            f"unknown row {config.row!r}; registered rows: {', '.join(_ROW_REGISTRY)}"
        )
    column = _COLUMN_REGISTRY.get(config.column)
    if column is None:
        raise ValueError(
            f"unknown column {config.column!r}; registered columns: "
            f"{', '.join(_COLUMN_REGISTRY)}"
        )
    weight = estimated_area_weight if weighted else unit_weight
    order = row.order_factory(total_nodes, weight, recompute_threshold)
    discipline = (
        row.discipline_factory() if row.discipline_factory is not None else column.factory()
    )
    name = row.scheduler_name or config.label
    return OrderedQueueScheduler(order, discipline, name=name)
