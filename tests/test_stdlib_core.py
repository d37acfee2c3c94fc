"""numpy is the optional ``walk`` extra: every other command runs without it,
and a scan with one job does not load multiprocessing either.

Each test runs a fresh interpreter, because this test session has already
imported numpy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(tmp_path, code: str) -> dict:
    """Run ``code`` in a fresh interpreter in ``tmp_path``; return the JSON
    object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_core_commands_leave_numpy_unloaded(tmp_path):
    result = run_python(tmp_path, """
        import contextlib, io, json, sys
        import egyptfrac, egyptfrac.cli

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                egyptfrac.cli.main(["scan", "--qmin", "1", "--qmax", "12",
                                    "--maxiter", "100", "--out", "scan.csv",
                                    "--jobs", "1"]),
                egyptfrac.cli.main(["expand", "--r", "11/29", "--kind", "pseudo",
                                    "--terms", "6"]),
            ]
        loaded = "numpy" in sys.modules
        pool_loaded = "multiprocessing" in sys.modules
        walk_names = [repr(egyptfrac.GENERATOR_ID), egyptfrac.WalkStats.__name__,
                      egyptfrac.analytic_drift.__name__]
        try:
            egyptfrac.no_such_name
            missing = None
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps({"codes": codes, "numpy_loaded": loaded,
                          "pool_loaded": pool_loaded,
                          "walk_names": walk_names, "missing": missing}))
    """)
    assert result["codes"] == [0, 0]
    assert result["numpy_loaded"] is False
    assert result["pool_loaded"] is False
    assert result["walk_names"] == ["'splitmix64-mix-v1'", "WalkStats", "analytic_drift"]
    assert result["missing"] == "module 'egyptfrac' has no attribute 'no_such_name'"


def test_without_numpy_only_walk_fails(tmp_path):
    result = run_python(tmp_path, """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # makes `import numpy` fail

        import egyptfrac
        from egyptfrac import cli

        argvs = {
            "walk": ["walk", "--c0", "10", "--steps", "20", "--trials", "8", "--seed", "1"],
            "scan": ["scan", "--qmin", "1", "--qmax", "12", "--maxiter", "100",
                     "--out", "scan.csv"],
            "expand": ["expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6"],
            "recover": ["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3",
                        "--terms", "4"],
            "gaps": ["gaps", "--r", "11/29", "--terms", "10", "--method", "both"],
            "seq": ["seq", "sylvester", "--m", "1", "--terms", "5"],
        }
        codes, errs = {}, {}
        for name, argv in argvs.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = cli.main(argv)
            errs[name] = err.getvalue()
        try:
            egyptfrac.WalkStats
            lazy = None
        except AttributeError as exc:
            cause = exc.__cause__
            lazy = [type(cause).__name__, isinstance(cause, egyptfrac.EgyptError)]
        print(json.dumps({"codes": codes, "errs": errs, "lazy": lazy,
                          "hasattr": hasattr(egyptfrac, "WalkStats")}))
    """)
    codes, errs = result["codes"], result["errs"]
    assert codes.pop("walk") == 1
    assert errs["walk"].startswith("error[MissingDependency]: ")
    assert "install egyptfrac[walk]" in errs["walk"]
    assert codes == {"scan": 0, "expand": 0, "recover": 0, "gaps": 0, "seq": 0}, errs
    assert result["lazy"] == ["MissingDependency", True]
    assert result["hasattr"] is False


def test_star_import_leaves_numpy_unloaded(tmp_path):
    # the walk names resolve as attributes but stay out of __all__
    result = run_python(tmp_path, """
        import json, sys
        from egyptfrac import *

        loaded = "numpy" in sys.modules
        import egyptfrac
        walk_names = [name for name in ("GENERATOR_ID", "WalkStats", "analytic_drift")
                      if name in egyptfrac.__all__ or name in globals()]
        resolved = [egyptfrac.WalkStats.__name__, egyptfrac.analytic_drift.__name__,
                    egyptfrac.GENERATOR_ID]
        print(json.dumps({"numpy_loaded": loaded, "walk_names": walk_names,
                          "resolved": resolved}))
    """)
    assert result["numpy_loaded"] is False
    assert result["walk_names"] == []
    assert result["resolved"] == ["WalkStats", "analytic_drift", "splitmix64-mix-v1"]
