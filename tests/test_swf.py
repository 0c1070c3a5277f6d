"""Tests for the SWF reader/writer."""

import io

import pytest

from repro.core.job import Job
from repro.workloads.swf import SWFParseError, parse_swf, read_swf, write_swf

GOOD_LINE = "1 10 5 3600 16 -1 -1 16 7200 -1 1 42 7 -1 2 -1 -1 -1"


class TestParse:
    def test_basic_line(self):
        (job,) = parse_swf([GOOD_LINE])
        assert job.job_id == 1
        assert job.submit_time == 10.0
        assert job.runtime == 3600.0
        assert job.nodes == 16
        assert job.estimate == 7200.0
        assert job.user == 42

    def test_comments_and_blanks_skipped(self):
        lines = ["; UnixStartTime: 834844800", "", "  ", GOOD_LINE]
        assert len(list(parse_swf(lines))) == 1

    def test_requested_processors_fallback_to_allocated(self):
        line = "1 10 5 3600 16 -1 -1 -1 7200 -1 1 42 7 -1 2 -1 -1 -1"
        (job,) = parse_swf([line])
        assert job.nodes == 16

    def test_unknown_estimate_becomes_none(self):
        line = "1 10 5 3600 16 -1 -1 16 -1 -1 1 42 7 -1 2 -1 -1 -1"
        (job,) = parse_swf([line])
        assert job.estimate is None
        assert job.estimated_runtime == 3600.0

    def test_malformed_skipped_by_default(self):
        lines = ["1 2 3", GOOD_LINE]
        assert len(list(parse_swf(lines))) == 1

    def test_malformed_raises_in_strict_mode(self):
        with pytest.raises(SWFParseError, match="18 fields"):
            list(parse_swf(["1 2 3"], strict=True))

    def test_unschedulable_rows_rejected(self):
        # Negative runtime (never started) and zero width.
        bad_runtime = "1 10 -1 -1 16 -1 -1 16 7200 -1 0 42 7 -1 2 -1 -1 -1"
        bad_width = "2 10 5 3600 -1 -1 -1 -1 7200 -1 1 42 7 -1 2 -1 -1 -1"
        assert list(parse_swf([bad_runtime, bad_width])) == []
        with pytest.raises(SWFParseError, match="negative runtime"):
            list(parse_swf([bad_runtime], strict=True))
        with pytest.raises(SWFParseError, match="processor count"):
            list(parse_swf([bad_width], strict=True))

    def test_meta_preserved(self):
        (job,) = parse_swf([GOOD_LINE])
        assert job.meta["status"] == "1"
        assert job.meta["group_id"] == "7"
        assert job.meta["queue"] == "2"


class TestParseReport:
    BAD_RUNTIME = "7 10 -1 -1 16 -1 -1 16 7200 -1 0 42 7 -1 2 -1 -1 -1"
    BAD_WIDTH = "8 10 5 3600 -1 -1 -1 -1 7200 -1 1 42 7 -1 2 -1 -1 -1"
    NEG_SUBMIT = "9 -5 5 3600 16 -1 -1 16 7200 -1 1 42 7 -1 2 -1 -1 -1"
    OUT_OF_ORDER = "10 3 5 3600 16 -1 -1 16 7200 -1 1 42 7 -1 2 -1 -1 -1"

    def _report(self, lines):
        from repro.workloads.swf import ParseReport

        report = ParseReport()
        jobs = list(parse_swf(lines, report=report))
        return jobs, report

    def test_clean_trace(self):
        jobs, report = self._report(["; comment", "", GOOD_LINE])
        assert len(jobs) == 1
        assert report.total_lines == 1
        assert report.parsed == 1
        assert report.clean and report.dropped == 0
        assert "nothing dropped" in report.describe()

    def test_categories_counted_with_line_numbers(self):
        lines = [
            "; header",          # line 1: comment, not a data line
            GOOD_LINE,           # line 2: fine
            "1 2 3",             # line 3: torn
            self.BAD_RUNTIME,    # line 4
            self.BAD_WIDTH,      # line 5
            self.NEG_SUBMIT,     # line 6
            self.OUT_OF_ORDER,   # line 7: kept, but out of order vs line 2
        ]
        jobs, report = self._report(lines)
        assert len(jobs) == 2  # GOOD_LINE + OUT_OF_ORDER both kept
        assert report.total_lines == 6
        assert report.parsed == 2
        assert report.malformed == 2  # torn + negative submit
        assert report.negative_runtime == 1
        assert report.zero_width == 1
        assert report.out_of_order_submit == 1
        assert report.dropped == 4
        assert not report.clean
        assert report.examples["malformed"] == [3, 6]
        assert report.examples["negative_runtime"] == [4]
        assert report.examples["zero_width"] == [5]
        assert report.examples["out_of_order_submit"] == [7]
        text = report.describe()
        assert "negative runtime" in text and "lines 4" in text

    def test_example_lines_capped(self):
        from repro.workloads.swf import ParseReport

        torn = ["1 2 3"] * (ParseReport.MAX_EXAMPLES + 3)
        _, report = self._report(torn)
        assert report.malformed == len(torn)
        assert len(report.examples["malformed"]) == ParseReport.MAX_EXAMPLES

    def test_read_swf_accepts_report(self, tmp_path):
        from repro.workloads.swf import ParseReport

        path = tmp_path / "trace.swf"
        path.write_text(GOOD_LINE + "\n" + "1 2 3\n")
        report = ParseReport()
        jobs = read_swf(path, report=report)
        assert len(jobs) == 1
        assert report.malformed == 1

    @pytest.mark.parametrize(
        "hostile",
        [
            "1 nan 0 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1",   # submit
            "1 inf 0 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1",
            "1 5 0 nan 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1",    # run time
            "1 5 0 inf 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1",
            "1 5 0 10 4 -1 -1 4 nan -1 1 1 -1 -1 -1 -1 -1 -1",    # requested time
            "1 5 0 10 4 -1 -1 4 -inf -1 1 1 -1 -1 -1 -1 -1 -1",
            "1 5 0 10 inf -1 -1 inf 20 -1 1 1 -1 -1 -1 -1 -1 -1",  # processors
        ],
        ids=["nan-submit", "inf-submit", "nan-runtime", "inf-runtime",
             "nan-requested", "neg-inf-requested", "inf-processors"],
    )
    def test_non_finite_fields_are_a_counted_skip(self, tmp_path, hostile):
        """A ``nan`` submit time passes every sign check (``nan < 0`` is
        false) and would spin the event loop forever; ``inf`` run times
        yield infinite objectives.  Neither may become a Job."""
        from repro.workloads.swf import ParseReport

        valid = "2 5 0 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1"
        path = tmp_path / "hostile.swf"
        path.write_text(hostile + "\n" + valid + "\n")
        report = ParseReport()
        jobs = read_swf(path, report=report)
        assert [job.job_id for job in jobs] == [2]
        assert report.malformed == 1 and report.parsed == 1
        assert report.examples["malformed"] == [1]
        with pytest.raises(SWFParseError, match="line 1"):
            read_swf(path, strict=True)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        jobs = [
            Job(job_id=1, submit_time=0.0, nodes=4, runtime=100.0, estimate=200.0, user=3),
            Job(job_id=2, submit_time=50.5, nodes=256, runtime=0.0, estimate=60.0, user=4),
        ]
        path = tmp_path / "trace.swf"
        write_swf(jobs, path, header="test trace")
        back = read_swf(path)
        assert len(back) == 2
        for original, parsed in zip(jobs, back):
            assert parsed.job_id == original.job_id
            assert parsed.submit_time == original.submit_time
            assert parsed.nodes == original.nodes
            assert parsed.runtime == original.runtime
            assert parsed.estimate == original.estimate
            assert parsed.user == original.user

    def test_write_to_stream(self):
        buffer = io.StringIO()
        write_swf([Job(job_id=1, submit_time=0.0, nodes=1, runtime=10.0)], buffer)
        text = buffer.getvalue()
        assert text.startswith("1 0 ")
        assert len(text.strip().split()) == 18

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf([], path, header="line one\nline two")
        content = path.read_text()
        assert content.splitlines() == ["; line one", "; line two"]

    def test_read_sorts_by_submission(self, tmp_path):
        jobs = [
            Job(job_id=1, submit_time=100.0, nodes=1, runtime=1.0),
            Job(job_id=2, submit_time=5.0, nodes=1, runtime=1.0),
        ]
        path = tmp_path / "trace.swf"
        write_swf(jobs, path)
        back = read_swf(path)
        assert [j.job_id for j in back] == [2, 1]

    def test_no_estimate_round_trips(self, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf([Job(job_id=1, submit_time=0.0, nodes=2, runtime=10.0)], path)
        (job,) = read_swf(path)
        assert job.estimate is None


class TestHeader:
    HEADER = (
        "; Computer: IBM SP2\n"
        "; MaxNodes: 430\n"
        "; UnixStartTime: 835488000\n"
        "; Note: contains batch partition only\n"
        "; MalformedLineWithoutColon\n"
    )

    def test_parse_fields(self):
        from repro.workloads.swf import parse_swf_header

        header = parse_swf_header(self.HEADER.splitlines())
        assert header.max_nodes == 430
        assert header.computer == "IBM SP2"
        assert header.unix_start_time == 835488000
        assert header.fields["Note"] == "contains batch partition only"

    def test_start_weekday(self):
        from repro.workloads.swf import parse_swf_header

        # 835488000 = 1996-06-23 00:00 UTC, a Sunday (weekday 6).
        header = parse_swf_header(self.HEADER.splitlines())
        assert header.start_weekday == 6

    def test_missing_fields_none(self):
        from repro.workloads.swf import parse_swf_header

        header = parse_swf_header([])
        assert header.max_nodes is None
        assert header.unix_start_time is None
        assert header.start_weekday is None

    def test_read_with_header(self, tmp_path):
        from repro.workloads.swf import read_swf_with_header

        path = tmp_path / "trace.swf"
        path.write_text(self.HEADER + GOOD_LINE + "\n")
        jobs, header, report = read_swf_with_header(path)
        assert len(jobs) == 1
        assert header.max_nodes == 430
        assert report.parsed == 1 and report.clean

    def test_duplicate_keys_first_wins(self):
        from repro.workloads.swf import parse_swf_header

        header = parse_swf_header(["; MaxNodes: 100", "; MaxNodes: 200"])
        assert header.max_nodes == 100


class TestPropertyRoundTrip:
    def test_random_jobs_survive_swf(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
                    st.integers(min_value=1, max_value=430),
                    st.integers(min_value=0, max_value=10_000_0),
                    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000_0)),
                ),
                min_size=1,
                max_size=25,
            )
        )
        @settings(max_examples=40, deadline=None)
        def check(rows):
            import io

            from repro.workloads.swf import parse_swf, write_swf

            jobs = [
                Job(
                    job_id=i,
                    submit_time=float(int(submit)),   # SWF stores integers
                    nodes=nodes,
                    runtime=float(runtime),
                    estimate=float(estimate) if estimate is not None else None,
                )
                for i, (submit, nodes, runtime, estimate) in enumerate(rows)
            ]
            buffer = io.StringIO()
            write_swf(jobs, buffer)
            buffer.seek(0)
            back = list(parse_swf(buffer))
            assert len(back) == len(jobs)
            for original, parsed in zip(jobs, back):
                assert parsed.submit_time == original.submit_time
                assert parsed.nodes == original.nodes
                assert parsed.runtime == original.runtime
                assert parsed.estimate == original.estimate

        check()
