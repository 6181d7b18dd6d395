"""The benchmark's `certify` and `pipeline` ops still give their recorded
answers.

Runs every op of the `certify` workload once (`build` and `group` on the
benchmark corpus, at the default scan bounds and at the wide scan
`--scan-degree 6 --scan-coeff-degree 5`) and compares each outcome with
`bench/golden/certify.json`, as the benchmark's own check does.  The wide
scan is covered by no file in `tests/golden/`.  Likewise every op of the
`pipeline` workload (`all` on the corpus and the four demos, the recorded
refusals included) against `bench/golden/pipeline.json`, by the
benchmark's check, so an answer it would count as lost in `ok_frac` fails
here first.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_certify_ops_match_the_benchmark_golden(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    golden = workloads.load_golden("certify")
    argvs = workloads.certify_argvs()
    assert len(argvs) == 44
    assert sorted(key for key, _ in argvs) == sorted(golden)
    wrong = [
        key
        for key, argv in argvs
        if workloads.cli_outcome(workloads.cli_call(argv)) != golden[key]
    ]
    assert wrong == []


def test_pipeline_ops_match_the_benchmark_golden(monkeypatch):
    """Each op passes the benchmark's own check: its outcome equals the
    golden, or, where the golden records a refusal, the op now answers
    with passing reports (`all exp_t2_mu5.json` does)."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    golden = workloads.load_golden("pipeline")
    ops = workloads.make("pipeline", 1).ops
    assert len(ops) == 15
    assert sorted(op.key for op in ops) == sorted(golden)
    outcomes = {op.key: op.check(op.run()) for op in ops}
    assert [key for key, got in outcomes.items() if got == workloads.FAILED] == []
    # the known refusal is still the recorded one
    assert outcomes["all constcoeff_complex.json"] == workloads.REFUSED
