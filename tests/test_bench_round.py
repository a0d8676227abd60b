"""One checked round of every benchmark workload: the operations of wide, tall
and oracle at seed 3, built and checked by bench/workloads.py, each run twice.
A change that makes the benchmark refuse an output fails here first. The
bench files are read, not changed; outputs go to a temporary directory."""
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3


@pytest.mark.parametrize("workload", ["wide", "tall", "oracle"])
def test_one_checked_round_gives_correct_repeatable_outputs(workload, monkeypatch, tmp_path):
    """No operation fails or delivers a wrong output, and both runs of each
    give the same digest."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import inputs
    import prepare
    import workloads
    for index, family in enumerate(inputs.round_families(workload, SEED)):
        op = workloads.OPS[workload](prepare.prepare(family), SEED, str(tmp_path), index)
        ref, digests = checks.Reference(family), []
        for _ in range(2):
            failed, wrong, digest = op.check(op.run(), ref)
            assert (failed, wrong) == ([], []), family.name
            digests.append(digest)
        assert digests[0] == digests[1] is not None, family.name
