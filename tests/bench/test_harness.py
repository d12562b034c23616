"""Harness modules: reporting, table builders, figure-8 rows, CLI."""

import json

import pytest

from repro.bench.figure8 import CONFIGURATIONS, figure8_row, figure8_summary, make_probe
from repro.bench.paperdata import PAPER_TABLE1, PAPER_TABLE2
from repro.bench.reporting import geomean, render_table, sci, write_bench_json
from repro.bench.table1 import render_table1, table1_row
from repro.bench.table2 import render_table2, table2_row
from repro.cli import COMMANDS, build_parser, main
from repro.runtime.plan import build_plan
from repro.workloads.specjvm import build_benchmark


@pytest.fixture(scope="module")
def compress():
    benchmark = build_benchmark("compress")
    plan = build_plan(benchmark.program, application_only=True)
    return benchmark, plan


class TestReporting:
    def test_sci_formats(self):
        assert sci(None) == "-"
        assert sci(0) == "0"
        assert sci(42) == "42"
        assert sci(1.5) == "1.50"
        assert sci(1.2e17) == "1.2e+17"

    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        text = render_table(
            rows, [("a", "A", sci), ("b", "B", str)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "B" in lines[1]
        assert len(lines) == 5  # title, header, separator, two rows

    def test_json_round_trips_with_a_stamp(self, tmp_path):
        result = {"benchmark": "demo", "rows": [{"a": 1}], "ok": True}
        target = tmp_path / "BENCH_demo.json"
        write_bench_json(result, str(target))
        saved = json.loads(target.read_text())
        # The artifact is the result plus the self-description stamp.
        for key, value in result.items():
            assert saved[key] == value
        assert saved["schema_version"] >= 2
        assert saved["commit"] and saved["timestamp"]

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0


class TestPaperData:
    def test_exactly_two_overflowers(self):
        overflowers = [r.name for r in PAPER_TABLE1.values() if r.needs_anchors]
        assert sorted(overflowers) == ["sunflow", "xml.validation"]

    def test_pcc_never_beats_deltapath_uniques(self):
        for row in PAPER_TABLE2.values():
            assert row.pcc_unique <= row.dp_unique


class TestTable1:
    def test_row_structure(self, compress):
        benchmark, plan = compress
        row = table1_row("compress", benchmark=benchmark)
        assert row["all_nodes"] > row["app_nodes"]
        assert row["all_max_id"] > row["app_max_id"]
        assert row["all_overflows_64bit"] is False
        assert row["paper_all_max_id"] == 4e5

    def test_render(self, compress):
        benchmark, plan = compress
        text = render_table1([table1_row("compress", benchmark=benchmark)])
        assert "compress" in text
        assert "max ID" in text


class TestTable2:
    def test_row_structure(self, compress):
        benchmark, plan = compress
        row = table2_row(
            "compress", operations=20, benchmark=benchmark, plan=plan
        )
        assert row["total_contexts"] > 0
        assert row["pcc_unique"] <= row["dp_unique"]
        assert row["max_id"] <= plan.encoding.max_id
        text = render_table2([row])
        assert "compress" in text


class TestFigure8:
    def test_make_probe_all_configs(self, compress):
        benchmark, plan = compress
        for config in CONFIGURATIONS:
            probe = make_probe(config, plan)
            assert probe is not None
        with pytest.raises(ValueError):
            make_probe("quantum", plan)

    def test_row_and_summary(self, compress):
        benchmark, plan = compress
        row = figure8_row(
            "compress", operations=6, repeats=1,
            benchmark=benchmark, plan=plan,
        )
        assert row["speed_native"] == 1.0
        summary = figure8_summary([row])
        assert "deltapath_slowdown" in summary
        assert "paper" in summary


class TestCLI:
    def test_help_enumerates_every_command(self):
        parser = build_parser()
        text = parser.format_help()
        assert len(COMMANDS) >= 11
        names = [name for name, _ in COMMANDS]
        assert len(names) == len(set(names))
        for name, description in COMMANDS:
            assert name in text
            assert description in text
        assert "serve" in names
        # perfbench/ is the benchmark: the retired one-shot studies and
        # the configuration matrix are not commands any more.
        for retired in ("serve-bench", "obs-bench", "query-bench",
                        "bench-matrix"):
            assert retired not in names

    def test_serve_command_runs_a_bounded_demo(self, capsys):
        code = main([
            "serve", "--workers", "1", "--duration", "0.6",
            "--rate", "50", "--depth", "8", "--contexts", "16",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving http://127.0.0.1:" in out
        assert "decode worker process(es)" in out
        assert "0 dropped" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "sunflow" in out

    def test_decode_demo(self, capsys):
        assert main(["decode-demo"]) == 0
        out = capsys.readouterr().out
        assert "A -> C -> F -> G" in out

    def test_table1_subset(self, capsys):
        assert main(["table1", "--benchmarks", "compress"]) == 0
        assert "compress" in capsys.readouterr().out

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["table1", "--benchmarks", "doom"])

    def test_table2_subset(self, capsys):
        assert main([
            "table2", "--benchmarks", "scimark.lu.large",
            "--operations", "10",
        ]) == 0
        assert "scimark.lu.large" in capsys.readouterr().out
