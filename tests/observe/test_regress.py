"""The regression gate: a ledger's newest record, when produced at
HEAD, must equal the newest earlier same-``meta`` record on every
metric — four statuses, one tolerance, no direction."""

import json
import pathlib

import pytest

from repro.observe.history import append_record, ledger_path, read_ledger
from repro.observe.regress import check_ledger, format_table

HEAD = "f" * 40
OLD = "0" * 40
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _ledger(tmp_path, rows, name="demo", metas=None, shas=None):
    """Append one record per metric-dict in ``rows`` (all at ``HEAD``
    unless ``shas`` says otherwise) and read the ledger back."""
    for i, metrics in enumerate(rows):
        append_record(
            name, metrics, directory=tmp_path,
            meta=metas[i] if metas else {"sf": 0.02},
            git_sha=shas[i] if shas else HEAD,
        )
    return read_ledger(ledger_path(name, tmp_path))


def _statuses(verdict):
    return {v.metric: v.status for v in verdict.verdicts}


class TestStatuses:
    def test_the_four_statuses(self, tmp_path):
        rows = [
            {"kept": 1.0, "moved": 1.0, "dropped": 1.0},
            {"kept": 1.0, "moved": 2.0, "added": 5.0},
        ]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert _statuses(verdict) == {
            "kept": "same", "moved": "changed",
            "dropped": "gone", "added": "new",
        }
        assert [v.metric for v in verdict.failures] == ["dropped", "moved"]
        assert not verdict.passed

    def test_equal_records_pass(self, tmp_path):
        verdict = check_ledger(_ledger(tmp_path, [{"q.seconds": 1.0}] * 3), HEAD)
        assert verdict.judged and verdict.passed
        assert _statuses(verdict) == {"q.seconds": "same"}

    def test_a_new_metric_alone_passes(self, tmp_path):
        rows = [{"a": 1.0}, {"a": 1.0, "b": 5.0}]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert verdict.passed
        assert _statuses(verdict)["b"] == "new"

    def test_a_metric_that_disappears_fails(self, tmp_path):
        rows = [{"a": 1.0, "pearson_r": 0.2}, {"a": 1.0}]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert [v.metric for v in verdict.failures] == ["pearson_r"]
        table = format_table(verdict)
        assert "pearson_r" in table and "GONE" in table

    def test_failure_table_names_the_metric_and_both_values(self, tmp_path):
        rows = [{"q1.makespan_seconds": 1.0, "q1.rows": 100.0},
                {"q1.makespan_seconds": 2.0, "q1.rows": 100.0}]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        bad = verdict.failures[0]
        assert (bad.metric, bad.baseline, bad.latest) == (
            "q1.makespan_seconds", 1.0, 2.0
        )
        table = format_table(verdict)
        assert "CHANGED" in table and "q1.makespan_seconds" in table
        assert "q1.rows" not in table  # quiet rows are only counted ...
        assert "q1.rows" in format_table(verdict, verbose=True)


class TestTolerance:
    @pytest.mark.parametrize(
        "baseline,latest,status",
        [
            (1.0, 1.0 + 5e-10, "same"),
            (1.0, 1.0 - 5e-10, "same"),
            (1.0, 1.0 + 1e-8, "changed"),
            (1.0, 1.0 - 1e-8, "changed"),
            (1e6, 1e6 + 1e-4, "same"),      # relative, not absolute
            (1e-6, 1e-6 + 1e-14, "changed"),
            (0.0, 0.0, "same"),
            (0.0, 1e-300, "changed"),       # 0 -> nonzero always moves
        ],
    )
    def test_boundary(self, tmp_path, baseline, latest, status):
        rows = [{"m": baseline}, {"m": latest}]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert _statuses(verdict) == {"m": status}

    def test_moves_fail_in_either_direction(self, tmp_path):
        # no direction: a "better" number is a changed number
        for name, value in (("up", 2.0), ("down", 0.5)):
            rows = [{"speedup.Q06": 1.0}, {"speedup.Q06": value}]
            verdict = check_ledger(_ledger(tmp_path, rows, name=name), HEAD)
            assert not verdict.passed

    def test_a_name_without_a_direction_token_is_gated(self, tmp_path):
        # the paper's headline ratio: passed at the parent when it moved
        rows = [{"ratios.plain_over_bdcc": 1.73}] * 3 + [
            {"ratios.plain_over_bdcc": 1.73 * (1 + 1e-6)}
        ]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert [v.metric for v in verdict.failures] == ["ratios.plain_over_bdcc"]


class TestBaseline:
    def test_a_committed_move_is_accepted(self, tmp_path):
        # the move 1.0 -> 1.2 was committed; the fresh run repeats it.
        # (failed at the parent until 1.2 outvoted the window's median)
        ledger = _ledger(
            tmp_path, [{"q.seconds": 1.0}, {"q.seconds": 1.2}, {"q.seconds": 1.2}],
            shas=[OLD, OLD, HEAD],
        )
        assert check_ledger(ledger, HEAD).passed

    def test_baseline_is_the_newest_earlier_record_not_an_average(self, tmp_path):
        rows = [{"q.seconds": v} for v in (1.0, 1.0, 1.0, 1.2, 1.0)]
        verdict = check_ledger(_ledger(tmp_path, rows), HEAD)
        assert verdict.failures[0].baseline == 1.2

    def test_meta_mismatch_starts_a_new_baseline(self, tmp_path):
        metas = [{"sf": 0.01}, {"sf": 0.01}, {"sf": 0.02}]
        rows = [{"q.seconds": 1.0}, {"q.seconds": 1.0}, {"q.seconds": 99.0}]
        verdict = check_ledger(_ledger(tmp_path, rows, metas=metas), HEAD)
        # the SF=0.01 records are not comparable to the SF=0.02 latest
        assert verdict.judged and verdict.passed and not verdict.verdicts
        assert any("baseline starts here" in note for note in verdict.notes)

    def test_baseline_skips_records_of_another_meta(self, tmp_path):
        metas = [{"sf": 0.02}, {"sf": 0.01}, {"sf": 0.02}]
        rows = [{"q.seconds": 1.0}, {"q.seconds": 50.0}, {"q.seconds": 1.0}]
        assert check_ledger(_ledger(tmp_path, rows, metas=metas), HEAD).passed

    def test_single_record_ledger_passes_with_note(self, tmp_path):
        verdict = check_ledger(_ledger(tmp_path, [{"q.seconds": 1.0}]), HEAD)
        assert verdict.passed and verdict.notes


class TestSkipped:
    def test_no_record_at_head_is_skipped_and_says_so(self, tmp_path):
        # the last commit's move is not re-judged on a clean checkout
        ledger = _ledger(
            tmp_path, [{"q.seconds": 1.0}, {"q.seconds": 9.0}], shas=[OLD, OLD]
        )
        verdict = check_ledger(ledger, HEAD)
        assert verdict.passed and not verdict.judged and not verdict.verdicts
        assert "skipped: not re-run at HEAD fffffff" in format_table(verdict)

    def test_empty_ledger_is_skipped(self, tmp_path):
        verdict = check_ledger(read_ledger(tmp_path / "BENCH_never.json"), HEAD)
        assert verdict.passed and not verdict.judged

    def test_corruption_fails_even_when_skipped(self, tmp_path):
        _ledger(tmp_path, [{"q.seconds": 1.0}] * 2, shas=[OLD, OLD])
        path = ledger_path("demo", tmp_path)
        document = json.loads(path.read_text())
        document["records"][0]["metrics"] = "mangled"
        path.write_text(json.dumps(document))
        verdict = check_ledger(read_ledger(path), HEAD)
        assert not verdict.judged and not verdict.passed
        assert "ERROR" in format_table(verdict)


@pytest.mark.parametrize(
    "path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_every_committed_root_ledger_validates(path):
    ledger = read_ledger(path)
    assert ledger.errors == []
    assert ledger.records


def test_there_are_committed_ledgers():
    assert len(list(REPO_ROOT.glob("BENCH_*.json"))) >= 17
