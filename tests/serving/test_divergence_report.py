"""A serving divergence is the sweep's own ``Divergence``: it names
where it happened and carries everything needed to look at it and run
it again (tier-1: one scheme, one stream, two queries)."""

from repro.planner.executor import ExecutionOptions
from repro.serving import run_serving_differential

from .conftest import SERVING_SEED, SERVING_SF, fresh_schemes


def test_serving_divergence_renders_plans_and_a_reproduce_line(monkeypatch):
    # force the solo-vs-served comparison to fail: serial plans carry
    # the bit-for-bit contract, so every replayed query diverges
    import repro.workload.differential as differential

    monkeypatch.setattr(
        differential, "bitwise_mismatch", lambda serial, got: "forced mismatch"
    )
    report = run_serving_differential(
        lambda: fresh_schemes(include=["bdcc"]),
        seed=0,
        num_streams=1,
        queries_per_stream=2,
        options=ExecutionOptions(workers=1),
        repro_flags=f"--sf {SERVING_SF} --datagen-seed {SERVING_SEED}",
    )
    assert not report.ok
    assert len(report.divergences) == report.queries_checked == 2
    text = report.divergences[1].render()
    for where in ("scheme=bdcc", "policy=fifo", "stream=s0", "seq=1", "check=solo"):
        assert where in text
    assert "forced mismatch" in text
    assert "logical plan:" in text
    assert "physical plan (with per-operator actuals):" in text
    assert "(actual rows=" in text  # the solo run's actuals annotate the plan
    assert (
        "reproduce: python -m repro.workload --seed 0 --queries 2 --streams 1 "
        "--updates 0 --policy fifo --workers 1 --backend simulated "
        f"--schemes bdcc --sf {SERVING_SF} --datagen-seed {SERVING_SEED}"
    ) in text
    assert text in report.render()
