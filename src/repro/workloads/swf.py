"""Standard Workload Format (SWF) reader and writer.

The Parallel Workloads Archive [1] — cited by the paper as the source of
real traces — publishes every trace (including the CTC SP2 trace the paper
uses) in the Standard Workload Format: one job per line, 18
whitespace-separated fields, ``;``-prefixed header comments.  This module
converts between SWF and :class:`repro.core.job.Job` streams, so the real
CTC trace can be dropped into every experiment unchanged.

Field semantics follow the archive definition; values of ``-1`` mean
"unknown".  We map:

* submit time  <- field 2 (seconds since trace start),
* runtime      <- field 4 (realised wall-clock seconds),
* nodes        <- field 8 (requested processors), falling back to field 5
  (allocated processors) when the request is unknown — the paper's rigid
  job model needs exactly one width per job,
* estimate     <- field 9 (requested/limit time), ``None`` when unknown,
* user         <- field 12.

Everything else rides along in ``Job.meta`` so a read-write round trip
preserves the trace.

[1] D.G. Feitelson.  Parallel Workloads Archive.
    https://www.cs.huji.ac.il/labs/parallel/workload/
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from repro.core.job import Job


class SWFField(enum.IntEnum):
    """Column indices of the 18 SWF fields."""

    JOB_NUMBER = 0
    SUBMIT_TIME = 1
    WAIT_TIME = 2
    RUN_TIME = 3
    ALLOCATED_PROCESSORS = 4
    AVERAGE_CPU_TIME = 5
    USED_MEMORY = 6
    REQUESTED_PROCESSORS = 7
    REQUESTED_TIME = 8
    REQUESTED_MEMORY = 9
    STATUS = 10
    USER_ID = 11
    GROUP_ID = 12
    EXECUTABLE = 13
    QUEUE = 14
    PARTITION = 15
    PRECEDING_JOB = 16
    THINK_TIME = 17


#: Meta keys for the SWF fields that Job does not model directly.
_META_FIELDS = {
    "wait_time": SWFField.WAIT_TIME,
    "average_cpu_time": SWFField.AVERAGE_CPU_TIME,
    "used_memory": SWFField.USED_MEMORY,
    "requested_memory": SWFField.REQUESTED_MEMORY,
    "status": SWFField.STATUS,
    "group_id": SWFField.GROUP_ID,
    "executable": SWFField.EXECUTABLE,
    "queue": SWFField.QUEUE,
    "partition": SWFField.PARTITION,
    "preceding_job": SWFField.PRECEDING_JOB,
    "think_time": SWFField.THINK_TIME,
}


class SWFParseError(ValueError):
    """Raised when a line is not valid SWF."""


class _RowProblem(ValueError):
    """Internal: one unusable data row, tagged with its report category."""

    def __init__(self, category: str, message: str) -> None:
        self.category = category
        super().__init__(message)


@dataclass(slots=True)
class ParseReport:
    """What lenient SWF parsing silently did to the trace.

    Real archive traces carry cancelled-before-start jobs (negative
    runtime), rows with unknown width on both processor fields, torn or
    non-numeric lines, and submissions recorded out of order.  Lenient
    parsing has always dropped the unusable ones; this report makes the
    damage visible — counts per category plus the first
    :data:`MAX_EXAMPLES` offending line numbers — so an operator can
    decide whether a trace is trustworthy instead of discovering
    silently-shrunk workloads downstream.

    ``out_of_order_submit`` rows are *counted but kept*: the readers sort
    by submission anyway, so ordering is an anomaly worth flagging, not a
    reason to drop data.
    """

    #: Offending line numbers retained per category.
    MAX_EXAMPLES = 5

    #: Data lines seen (blank lines and ``;`` comments excluded).
    total_lines: int = 0
    #: Jobs successfully parsed (out-of-order rows included).
    parsed: int = 0
    #: Torn/non-numeric rows, negative submit times, or non-finite
    #: (``nan``/``inf``) submit, run or requested times.
    malformed: int = 0
    #: Rows with ``runtime < 0`` (cancelled before start).
    negative_runtime: int = 0
    #: Rows with no positive width on either processor field.
    zero_width: int = 0
    #: Rows submitted earlier than a preceding row (kept, not dropped).
    out_of_order_submit: int = 0
    #: First offending line numbers, per category.
    examples: dict[str, list[int]] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return self.malformed + self.negative_runtime + self.zero_width

    @property
    def clean(self) -> bool:
        return self.dropped == 0 and self.out_of_order_submit == 0

    def note(self, category: str, lineno: int) -> None:
        setattr(self, category, getattr(self, category) + 1)
        lines = self.examples.setdefault(category, [])
        if len(lines) < self.MAX_EXAMPLES:
            lines.append(lineno)

    def describe(self) -> str:
        lines = [
            f"parsed {self.parsed}/{self.total_lines} data line(s)"
            + ("" if self.dropped else ", nothing dropped")
        ]
        for category, label in (
            ("malformed", "malformed (torn/non-numeric/non-finite/negative submit)"),
            ("negative_runtime", "negative runtime (cancelled before start)"),
            ("zero_width", "zero width (no positive processor count)"),
            ("out_of_order_submit", "out-of-order submit (kept, re-sorted)"),
        ):
            count = getattr(self, category)
            if count:
                where = ", ".join(str(n) for n in self.examples.get(category, []))
                more = "..." if count > self.MAX_EXAMPLES else ""
                lines.append(f"  {label}: {count}  (lines {where}{more})")
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class SWFHeader:
    """Parsed ``;``-comment header of an SWF file.

    The archive defines a set of standard header fields; the ones relevant
    to this library are surfaced as typed attributes, everything else is
    kept verbatim in :attr:`fields`.
    """

    fields: Mapping[str, str]

    @property
    def max_nodes(self) -> int | None:
        raw = self.fields.get("MaxNodes") or self.fields.get("MaxProcs")
        try:
            return int(raw) if raw is not None else None
        except ValueError:
            return None

    @property
    def unix_start_time(self) -> int | None:
        raw = self.fields.get("UnixStartTime")
        try:
            return int(raw) if raw is not None else None
        except ValueError:
            return None

    @property
    def computer(self) -> str | None:
        return self.fields.get("Computer")

    @property
    def start_weekday(self) -> int | None:
        """Day-of-week of trace time 0 (0 = Monday), derived from
        ``UnixStartTime`` — needed to align :class:`TimeWindow`-based
        policies with a real trace's calendar."""
        start = self.unix_start_time
        if start is None:
            return None
        # The Unix epoch (1970-01-01) was a Thursday = weekday 3.
        return (3 + start // 86_400) % 7


def parse_swf_header(lines: Iterable[str]) -> SWFHeader:
    """Extract ``; Key: Value`` header fields from SWF comment lines."""
    fields: dict[str, str] = {}
    for line in lines:
        text = line.strip()
        if not text.startswith(";"):
            continue
        body = text.lstrip(";").strip()
        if ":" not in body:
            continue
        key, _, value = body.partition(":")
        key = key.strip()
        if key and key not in fields:
            fields[key] = value.strip()
    return SWFHeader(fields=fields)


def read_swf_with_header(
    path: str | Path, *, strict: bool = False
) -> tuple[list[Job], SWFHeader, ParseReport]:
    """Read an SWF file returning the jobs, the header and a parse report.

    The :class:`ParseReport` records what lenient parsing dropped (and
    how many rows arrived out of submission order); ``repro-workload
    describe`` prints it.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.readlines()
    header = parse_swf_header(line for line in lines if line.lstrip().startswith(";"))
    report = ParseReport()
    jobs = sorted(
        parse_swf(lines, strict=strict, report=report),
        key=lambda j: (j.submit_time, j.job_id),
    )
    return jobs, header, report


def parse_swf(
    lines: Iterable[str],
    *,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[Job]:
    """Parse SWF text into jobs, skipping comments and malformed rows.

    With ``strict=True`` malformed rows raise :class:`SWFParseError` instead
    of being skipped.  Jobs with unknown width on both processor fields, or
    with negative runtimes (cancelled before start), are treated as
    malformed: the paper's rigid model cannot schedule them.

    A caller-supplied :class:`ParseReport` is filled in as the stream is
    consumed — counts of dropped rows per category, out-of-order
    submissions (counted but kept), and the first offending line numbers.
    """
    last_submit = float("-inf")
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith(";"):
            continue
        if report is not None:
            report.total_lines += 1
        fields = text.split()
        if len(fields) < 18:
            if strict:
                raise SWFParseError(f"line {lineno}: expected 18 fields, got {len(fields)}")
            if report is not None:
                report.note("malformed", lineno)
            continue
        try:
            job = _job_from_fields(fields)
        except _RowProblem as exc:
            if strict:
                raise SWFParseError(f"line {lineno}: {exc}") from exc
            if report is not None:
                report.note(exc.category, lineno)
            continue
        except (ValueError, IndexError, OverflowError) as exc:
            if strict:
                raise SWFParseError(f"line {lineno}: {exc}") from exc
            if report is not None:
                report.note("malformed", lineno)
            continue
        if job is not None:
            if report is not None:
                report.parsed += 1
                if job.submit_time < last_submit:
                    report.note("out_of_order_submit", lineno)
                last_submit = max(last_submit, job.submit_time)
            yield job


def _job_from_fields(fields: list[str]) -> Job | None:
    job_id = int(fields[SWFField.JOB_NUMBER])
    submit = float(fields[SWFField.SUBMIT_TIME])
    runtime = float(fields[SWFField.RUN_TIME])
    requested_time = float(fields[SWFField.REQUESTED_TIME])
    if not (isfinite(submit) and isfinite(runtime) and isfinite(requested_time)):
        raise _RowProblem(
            "malformed",
            f"job {job_id}: non-finite submit/run/requested time "
            f"({submit}, {runtime}, {requested_time})",
        )
    requested = int(float(fields[SWFField.REQUESTED_PROCESSORS]))
    allocated = int(float(fields[SWFField.ALLOCATED_PROCESSORS]))
    nodes = requested if requested > 0 else allocated
    if nodes <= 0:
        raise _RowProblem(
            "zero_width", f"job {job_id}: no positive processor count"
        )
    if runtime < 0:
        raise _RowProblem(
            "negative_runtime",
            f"job {job_id}: negative runtime {runtime} (cancelled before start)",
        )
    if submit < 0:
        raise _RowProblem("malformed", f"job {job_id}: negative submit time {submit}")
    estimate = requested_time if requested_time >= 0 else None
    user = int(fields[SWFField.USER_ID])
    meta = {key: fields[idx] for key, idx in _META_FIELDS.items()}
    return Job(
        job_id=job_id,
        submit_time=submit,
        nodes=nodes,
        runtime=runtime,
        estimate=estimate,
        user=max(user, 0),
        meta=meta,
    )


def read_swf(
    path: str | Path, *, strict: bool = False, report: ParseReport | None = None
) -> list[Job]:
    """Read a whole SWF file into a job list sorted by submission."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        jobs = list(parse_swf(handle, strict=strict, report=report))
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


def write_swf(
    jobs: Iterable[Job],
    target: str | Path | TextIO,
    *,
    header: str | None = None,
) -> None:
    """Write jobs as SWF.  Unknown fields are written as ``-1``."""
    own = isinstance(target, (str, Path))
    handle: TextIO = open(target, "w", encoding="utf-8") if own else target  # type: ignore[assignment,arg-type]
    try:
        if header:
            for line in header.splitlines():
                handle.write(f"; {line}\n")
        for job in jobs:
            meta = job.meta
            row = [
                str(job.job_id),
                _fmt(job.submit_time),
                str(meta.get("wait_time", -1)),
                _fmt(job.runtime),
                str(job.nodes),
                str(meta.get("average_cpu_time", -1)),
                str(meta.get("used_memory", -1)),
                str(job.nodes),
                _fmt(job.estimate) if job.estimate is not None else "-1",
                str(meta.get("requested_memory", -1)),
                str(meta.get("status", 1)),
                str(job.user),
                str(meta.get("group_id", -1)),
                str(meta.get("executable", -1)),
                str(meta.get("queue", -1)),
                str(meta.get("partition", -1)),
                str(meta.get("preceding_job", -1)),
                str(meta.get("think_time", -1)),
            ]
            handle.write(" ".join(row) + "\n")
    finally:
        if own:
            handle.close()


def _fmt(value: float) -> str:
    """SWF numbers: integral values without trailing '.0'."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))
