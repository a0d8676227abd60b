"""Work counts as a contract: one round of each benchmark workload at seed 3,
the timed operations of bench/workloads.py run as tests/test_bench_round.py
runs them, with counting wrappers on the calls that do the work. Each count
must be at most its pin. The work one round does is deterministic, so a
change that derives, compiles or sweeps once more than it needs fails here,
where a timing could not resolve it. A change that lowers a count lowers its
pin; one that raises a pin says why in CHANGES.md. The bench files are read,
not changed; outputs go to a temporary directory."""
import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

from canal4 import analysis, canal, curve, expr, io

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3

# the counted calls: a module function is replaced in every canal4 module that
# holds it, a method on its class
CALLS = [(expr, "parse"), (expr, "differentiate"), (expr, "compile_expr"), (expr.Nodes, "fold"),
         (canal.PointMapCache, "fill"), (canal.PointMapCache, "row"),
         (curve.CurveSpec, "frenet"), (curve.CurveSpec, "verify_unit_speed"),
         (curve.CurveSpec, "swept"),
         (canal, "resolve_variant"), (canal, "validate_config"), (analysis, "_max_k1")]
# every Expr node is built through one of these constructors (Add, Sub, Mul and
# Div through _Binary's)
NODES = (expr.Const, expr.Var, expr.Neg, expr._Binary, expr.Pow, expr.Call)

PINS = {
    "wide": {"parse": 59, "differentiate": 20, "compile_expr": 12, "fold": 54, "nodes": 265,
             "fill": 12, "row": 24, "frenet": 33, "verify_unit_speed": 12, "swept": 12,
             "resolve_variant": 11, "validate_config": 12, "_max_k1": 0,
             "patch_to_json bytes": 3_013_456},
    "tall": {"parse": 204, "differentiate": 734, "compile_expr": 84, "fold": 1_318,
             "nodes": 1_613, "fill": 78, "row": 70, "frenet": 84, "verify_unit_speed": 42,
             "swept": 55, "resolve_variant": 62, "validate_config": 28, "_max_k1": 26,
             "patch_to_json bytes": 1_343_190},
    "oracle": {"parse": 103, "differentiate": 378, "compile_expr": 42, "fold": 781,
               "nodes": 909, "fill": 53, "row": 83, "frenet": 104, "verify_unit_speed": 21,
               "swept": 21, "resolve_variant": 41, "validate_config": 21, "_max_k1": 0,
               "patch_to_json bytes": 0},
}

def _install(monkeypatch, counts, on):
    """Counting wrappers on CALLS, NODES and io.patch_to_json; they count while on[0]."""
    def counted(fn, name, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if on[0]:
                counts[name] += 1 if size is None else size(out)
            return out
        return wrapper

    def replace(owner, attr, name, size=None):
        fn = vars(owner)[attr]
        wrapper = counted(fn, name, size)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, wrapper)
            return
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "canal4"]:
            if vars(module).get(attr) is fn:
                monkeypatch.setattr(module, attr, wrapper)

    for owner, attr in CALLS:
        replace(owner, attr, attr)
    for cls in NODES:
        replace(cls, "__init__", "nodes")
    replace(io, "patch_to_json", "patch_to_json bytes", lambda text: len(text.encode()))


@pytest.mark.parametrize("workload", ["wide", "tall", "oracle"])
def test_one_round_does_no_more_work_than_its_pins(workload, monkeypatch, tmp_path):
    """The counts of a round whose operations all deliver correct outputs."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import inputs
    import prepare
    import workloads
    counts, on = Counter(), [False]
    _install(monkeypatch, counts, on)
    for index, family in enumerate(inputs.round_families(workload, SEED)):
        op = workloads.OPS[workload](prepare.prepare(family), SEED, str(tmp_path), index)
        on[0] = True
        try:
            out = op.run()
        finally:
            on[0] = False
        assert op.check(out, checks.Reference(family))[:2] == ([], []), family.name
    over = {name: (counts[name], pin) for name, pin in PINS[workload].items()
            if counts[name] > pin}
    assert not over, f"counts above their pins (count, pin): {over}; all counts: {dict(counts)}"
