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

import pytest

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


def test_package_names_resolve_on_first_use(tmp_path):
    result = run_python(tmp_path, """
        import json, sys
        import egyptfrac

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("egyptfrac."))

        on_import = loaded()
        names = egyptfrac.__all__
        try:
            egyptfrac.no_such_name
            missing = None
        except AttributeError as exc:
            missing = str(exc)
        not_in_dir = [name for name in names if name not in dir(egyptfrac)]
        namespace = {}
        exec("from egyptfrac import *", namespace)
        unbound = [name for name in names if name not in namespace]
        # every name is the object its module defines
        wrong = [name for name in names[1:]
                 if not namespace[name].__module__.startswith("egyptfrac.")
                 or getattr(sys.modules[namespace[name].__module__], name)
                 is not namespace[name]]
        star_loaded, numpy_loaded = loaded(), "numpy" in sys.modules
        walk = egyptfrac.WalkStats is sys.modules["egyptfrac.randwalk"].WalkStats
        print(json.dumps({"on_import": on_import, "count": len(names),
                          "missing": missing, "not_in_dir": not_in_dir,
                          "unbound": unbound, "wrong": wrong,
                          "star_loaded": star_loaded, "numpy_loaded": numpy_loaded,
                          "walk": walk}))
    """)
    assert result["on_import"] == []
    assert result["count"] == 43
    assert result["missing"] == "module 'egyptfrac' has no attribute 'no_such_name'"
    assert result["not_in_dir"] == []
    assert result["unbound"] == []
    assert result["wrong"] == []
    # a star-import loads every module but randwalk, so numpy stays unloaded
    assert result["star_loaded"] == [
        "egyptfrac.errors", "egyptfrac.exactnum", "egyptfrac.expansion",
        "egyptfrac.gapfast", "egyptfrac.recovery", "egyptfrac.scanner",
        "egyptfrac.sequences",
    ]
    assert result["numpy_loaded"] is False
    assert result["walk"] is True


# the egyptfrac modules besides cli and errors that each entry point loads
COMMAND_MODULES = {
    "import": (None, []),
    "version": (["--version"], []),
    "scan": (["scan", "--qmin", "1", "--qmax", "12", "--maxiter", "100", "--out", "scan.csv"],
             ["exactnum", "gapfast", "scanner"]),
    "expand": (["expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6"],
               ["exactnum", "expansion"]),
    "recover": (["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3", "--terms", "4"],
                ["exactnum", "expansion", "recovery"]),
    "gaps": (["gaps", "--r", "11/29", "--terms", "10", "--method", "both"],
             ["exactnum", "expansion", "gapfast"]),
    "seq": (["seq", "sylvester", "--m", "1", "--terms", "5"], ["exactnum", "sequences"]),
    "walk": (["walk", "--c0", "10", "--steps", "20", "--trials", "8", "--seed", "1"],
             ["exactnum", "randwalk"]),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(tmp_path, command):
    argv, modules = COMMAND_MODULES[command]
    result = run_python(tmp_path, f"""
        import contextlib, io, json, sys
        import egyptfrac.cli

        code = None
        if {argv!r} is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = egyptfrac.cli.main({argv!r})
        print(json.dumps({{"code": code, "loaded": sorted(
            m for m in sys.modules if m.startswith("egyptfrac."))}}))
    """)
    assert result["code"] == (None if argv is None else 0)
    assert result["loaded"] == sorted(f"egyptfrac.{m}" for m in ["cli", "errors", *modules])


# the modular kernel and the exact route it is checked against share no code:
# they meet only in gaps --method both and the tests
@pytest.mark.parametrize("module, loads", [
    ("gapfast", ["errors", "exactnum", "gapfast"]),
    ("expansion", ["errors", "exactnum", "expansion"]),
])
def test_gap_routes_load_apart(tmp_path, module, loads):
    result = run_python(tmp_path, f"""
        import json, sys
        import egyptfrac.{module}

        print(json.dumps(sorted(m for m in sys.modules if m.startswith("egyptfrac."))))
    """)
    assert result == [f"egyptfrac.{m}" for m in loads]
