"""The benchmark's `certify` ops still give their recorded answers.

Runs every op of the `certify` workload once (`build` and `group` on the
benchmark corpus, at the default scan bounds and at the wide scan
`--scan-degree 6 --scan-coeff-degree 5`) and compares each outcome with
`bench/golden/certify.json`, as the benchmark's own check does.  The wide
scan is covered by no file in `tests/golden/`.
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
