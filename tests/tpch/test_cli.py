"""The command-line driver."""

import pytest

from repro.tpch.cli import main


class TestCLI:
    def test_table_output(self, capsys):
        assert main(["--sf", "0.002", "--queries", "Q01,Q06"]) == 0
        out = capsys.readouterr().out
        assert "Q01" in out and "Q06" in out
        assert "simulated time" in out and "peak memory" in out
        assert "BDCC speedup" in out

    def test_scheme_subset(self, capsys):
        assert main(["--sf", "0.002", "--queries", "Q06", "--schemes", "bdcc"]) == 0
        out = capsys.readouterr().out
        assert "bdcc" in out and "plain" not in out.splitlines()[1]

    def test_explain_mode(self, capsys):
        assert main([
            "--sf", "0.002", "--queries", "Q06", "--schemes", "bdcc", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "=== Q06 / bdcc ===" in out
        assert "cost:" in out

    def test_feature_flags(self, capsys):
        assert main([
            "--sf", "0.002", "--queries", "Q06", "--schemes", "bdcc",
            "--no-pushdown", "--no-sandwich",
        ]) == 0

    def test_unknown_query_rejected(self, capsys):
        assert main(["--sf", "0.002", "--queries", "Q99"]) == 2

    @pytest.mark.parametrize("streams", [[], ["--streams", "2"]])
    def test_empty_selection_rejected(self, capsys, streams):
        """Regression: ``--queries ,`` ran all 22 queries (an empty
        selection read as "all"), and under ``--streams`` divided by
        zero rotating the empty stream."""
        assert main(["--sf", "0.002", "--queries", ",", *streams]) == 2
        captured = capsys.readouterr()
        assert "selects no query" in captured.err
        assert "Q01" not in captured.out
