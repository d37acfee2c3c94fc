"""End-to-end and per-layer benchmark of the egyptfrac command line.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-j1 --seed 1 --seconds 28 --trace 0

Every operation is one CLI command in a fresh interpreter with
``PYTHONPATH=src``, timed from outside.  Repetitions of the workload run one
after another until ``--seconds`` have passed; each end-to-end metric is the
median over them.  ``--trace 1`` alternates untraced repetitions with ones
run under ``bench/tracer.py`` and reports the per-layer metrics instead.
Every output is checked against the digests in ``bench/digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a result file with
the run's inputs, environment and sample counts is written to ``bench/out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
OUT = BENCH / "out"

WORKLOADS = ("scan-j1", "scan-j2", "scan-resume", "cli-mix")
# A run never outlives this, whatever --seconds says; operations that would
# run past it are cut off and counted as failed.
HARD_LIMIT_S = 150.0
# cli-mix traces one reduced pair, 185/358, in `expand` and again in `gaps`.
CLI_MIX_PAIRS = 2
MAXITER = 10_000
WALK_SEEDS = 8  # the workload seed picks walk --seed modulo this

E2E_UNITS = {
    "wall_s": "s",
    "pairs_per_s": "pairs/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "gapfast.gap_sequence_fast.s": "s",
    "gapfast.gap_sequence_fast.calls": "count",
    "gapfast.gap_sequence_fast.steps": "count",
    "gapfast.gap_sequence_fast.inner_iters": "count",
    "gapfast.gap_sequence_fast.max_modulus_bits": "bits",
    "scanner.diagnose_tail.s": "s",
    "scanner.scan_conjecture.s": "s",
    "scanner.self_s": "s",
    "scanner.out_bytes": "bytes",
    "scanner.rows_computed": "count",
    "scanner.rows_reused": "count",
    "scanner.reuse_ratio": "ratio",
    "scanner.transfer_bytes": "bytes",
    "scanner.transfer_s": "s",
    "exactnum.format_value.s": "s",
    "exactnum.format_value.calls": "count",
    "exactnum.format_value.chars": "chars",
    "cli.render.s": "s",
    "cli.stdout_bytes": "bytes",
    "exactnum.decimal_digits.s": "s",
    "exactnum.decimal_digits.calls": "count",
    "expansion.expand.s": "s",
    "expansion.expand.terms": "count",
    "expansion.gap_sequence_naive.s": "s",
    "expansion.gap_sequence_naive.steps": "count",
    "exactnum.nearest_int.s": "s",
    "exactnum.nearest_int.calls": "count",
    "recovery.recover_sequence.s": "s",
    "recovery.recover_sequence.terms": "count",
    "exactnum.max_operand_bits": "bits",
    "randwalk.run_walks.s": "s",
    "randwalk.steps_drawn": "count",
    "randwalk.peak_alloc_mib": "MiB",
    "cli.import.s": "s",
    "cli.import_numpy.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

LABELS = {
    "scanner.transfer_bytes": "computed, not measured: pickled size of each q's "
    "(q, rows) result with the pool's pickler, replayed in the parent",
    "scanner.transfer_s": "computed, not measured: time to pickle and unpickle "
    "each q's result, replayed in the parent",
    "gapfast.gap_sequence_fast.inner_iters": "computed from each trace's step count",
    "gapfast.gap_sequence_fast.max_modulus_bits": "computed from each trace's c values",
    "trace.overhead_s": "median traced wall_s minus median untraced wall_s",
}


@dataclass(frozen=True)
class Size:
    """Input sizes of the workloads; SMALL is the self-check's shrunk copy."""

    name: str
    qmax: int
    cut_q: int  # the resume checkpoint is cut at a seed-chosen row inside this q group
    resume_batch: int  # resume commands in one scan-resume repetition
    expand_terms: int
    recover_terms: int
    gaps_terms: int
    walk: tuple[str, ...]
    setup_probes: int  # per run, spread evenly over it like the repetitions
    min_reps: int
    op_timeout_s: float


FULL = Size(
    name="full", qmax=600, cut_q=580, resume_batch=4,
    expand_terms=20, recover_terms=18, gaps_terms=20,
    walk=("--c0", "1e6", "--steps", "4000", "--trials", "20000"),
    setup_probes=15, min_reps=3, op_timeout_s=90.0,
)
SMALL = Size(
    name="small", qmax=60, cut_q=55, resume_batch=2,
    expand_terms=12, recover_terms=10, gaps_terms=12,
    walk=("--c0", "1e3", "--steps", "400", "--trials", "500"),
    setup_probes=2, min_reps=2, op_timeout_s=30.0,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scan_argv(size: Size, out: Path, jobs: int, resume: bool = False) -> list[str]:
    argv = ["scan", "--qmin", "1", "--qmax", str(size.qmax), "--maxiter",
            str(MAXITER), "--jobs", str(jobs), "--out", str(out)]
    return argv + ["--resume"] if resume else argv


def cli_mix_argvs(size: Size, walk_seed: int) -> dict[str, list[str]]:
    return {
        "expand": ["expand", "--r", "185/358", "--kind", "pseudo",
                   "--terms", str(size.expand_terms), "--format", "csv"],
        "recover": ["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3",
                    "--terms", str(size.recover_terms), "--format", "json"],
        "gaps": ["gaps", "--r", "185/358", "--terms", str(size.gaps_terms),
                 "--method", "both"],
        "walk": ["walk", *size.walk, "--seed", str(walk_seed)],
    }


def scan_stdout_digest(stdout: bytes) -> str | None:
    """Digest of the scan summary without ``wall_time_s``, or None if malformed."""
    try:
        summary = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(summary, dict) or "wall_time_s" not in summary:
        return None
    del summary["wall_time_s"]
    return sha256(json.dumps(summary, sort_keys=True).encode())


@dataclass
class Op:
    """One finished CLI command.  ``error`` is None when it exited 0 in time."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    error: str | None
    layers: dict | None = None


def _stop_group(pgid: int) -> None:
    """Kill and wait out whatever is left of a command's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(cmd: list[str], timeout: float, tmp: Path) -> tuple[Op, int]:
    """Run ``cmd`` in its own process group; return the Op and its start time.

    CPU time and peak RSS come from ``wait4``, so they cover the command and
    every child it waited for (pool workers); the peak is the larger of the
    two.  The start time is CLOCK_MONOTONIC in nanoseconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    reaped: dict = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end_ns=time.monotonic_ns(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    _stop_group(proc.pid)
    usage = reaped["usage"]
    error = None
    if timed_out:
        error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = err_path.read_bytes()[-300:].decode(errors="replace").strip()
        error = f"exit code {proc.returncode}: {tail}"
    op = Op(
        wall_s=(reaped["end_ns"] - start_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
        error=error,
    )
    return op, start_ns


@dataclass
class Rep:
    """One repetition of a workload: its operations and the pairs it produced."""

    ops: list[Op]
    pairs: int

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


@dataclass
class Harness:
    size: Size
    seed: int
    tmp: Path
    refs: dict
    deadline: float
    jobs: int
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def cli(self, argv: list[str], traced: bool) -> Op:
        timeout = max(1.0, min(self.size.op_timeout_s, self.deadline - time.monotonic()))
        summary = self.tmp / "layers.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(summary), *argv]
        else:
            cmd = [sys.executable, "-m", "egyptfrac", *argv]
        op, _ = run_process(cmd, timeout, self.tmp)
        if traced and op.error is None:
            op.layers = json.loads(summary.read_text())
        return op

    def record(self, label: str, problem: str | None) -> None:
        """Count one attempted operation, and its failure if ``problem``."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def check_scan(self, label: str, op: Op, out: Path) -> int:
        """Check a scan's CSV and summary; return the CSV's row count."""
        problem = op.error
        rows = 0
        if problem is None:
            data = out.read_bytes()
            rows = data.count(b"\n") - 1
            if sha256(data) != self.refs["scan.csv"]:
                problem = "scan CSV digest differs from the reference"
            elif scan_stdout_digest(op.stdout) != self.refs["scan.stdout"]:
                problem = "scan summary differs from the reference"
        self.record(label, problem)
        return rows

    def setup_times(self, probes: int) -> list[float]:
        """Seconds from starting a fresh interpreter to egyptfrac.cli imported."""
        code = "import egyptfrac.cli\nimport time\nprint(time.monotonic_ns())"
        times = []
        for _ in range(probes):
            op, start_ns = run_process([sys.executable, "-c", code],
                                       self.size.op_timeout_s, self.tmp)
            self.record("setup", op.error)
            if op.error is None:
                times.append((int(op.stdout) - start_ns) / 1e9)
        return times


def scan_rep(h: Harness, jobs: int, traced: bool) -> Rep:
    out = h.tmp / "scan.csv"
    op = h.cli(scan_argv(h.size, out, jobs), traced)
    return Rep([op], h.check_scan("scan", op, out))


def resume_rep(h: Harness, traced: bool, checkpoint: bytes) -> Rep:
    """``resume_batch`` resumes, each from a fresh copy of the checkpoint.

    One resume takes about a second, and the host's speed shifts between
    regimes that last seconds, so the median of single resumes jumps between
    regimes from run to run; a batch of several spans them, as one scan-j1
    repetition does.
    """
    out = h.tmp / "scan.csv"
    ops, pairs = [], 0
    for _ in range(h.size.resume_batch):
        out.write_bytes(checkpoint)
        op = h.cli(scan_argv(h.size, out, 1, resume=True), traced)
        pairs += h.check_scan("scan", op, out)
        ops.append(op)
    return Rep(ops, pairs)


def cli_mix_rep(h: Harness, traced: bool, walk_seed: int) -> Rep:
    ops = []
    for label, argv in cli_mix_argvs(h.size, walk_seed).items():
        op = h.cli(argv, traced)
        key = f"walk.{walk_seed}" if label == "walk" else label
        problem = op.error
        if problem is None and sha256(op.stdout) != h.refs[key]:
            problem = "stdout digest differs from the reference"
        h.record(label, problem)
        ops.append(op)
    return Rep(ops, CLI_MIX_PAIRS)


def resume_checkpoint(h: Harness, inputs: dict) -> bytes:
    """Cut the program's own fresh scan at a seed-chosen row of the cut_q group."""
    fresh = h.tmp / "fresh.csv"
    op = h.cli(scan_argv(h.size, fresh, h.jobs), traced=False)
    h.check_scan("setup scan", op, fresh)
    lines = fresh.read_bytes().splitlines(keepends=True) if op.error is None else [b""]
    q_cut = b"%d" % h.size.cut_q
    group = [i for i, line in enumerate(lines[1:], 1) if line.split(b",")[1:2] == [q_cut]]
    if not group:
        return b"".join(lines)
    kept = group[0] + random.Random(h.seed).randint(1, len(group) - 1)
    inputs["checkpoint_rows"] = kept - 1
    return b"".join(lines[:kept])


# layers whose time is a span's self time, ``<layer>.s``
SPAN_LAYERS = (
    "gapfast.gap_sequence_fast", "scanner.diagnose_tail", "scanner.scan_conjecture",
    "exactnum.format_value", "exactnum.decimal_digits", "expansion.expand",
    "expansion.gap_sequence_naive", "exactnum.nearest_int", "recovery.recover_sequence",
    "randwalk.run_walks",
)


def layer_values(ops: list[Op]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from its tracer summaries.

    A layer the repetition never called reads 0.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for op in ops:
        for name, s in op.layers["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += s["calls"]
            total["self_s"] += s["self_s"]
        for name, value in op.layers["counters"].items():
            if LAYER_UNITS.get(name) in ("bits", "MiB"):  # peaks, not totals
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def self_s(layer):
        return spans.get(layer, {}).get("self_s", 0.0)

    v = {f"{layer}.s": self_s(layer) for layer in SPAN_LAYERS}
    for name in LAYER_UNITS:
        if name.endswith(".calls"):
            v[name] = spans.get(name.removesuffix(".calls"), {}).get("calls", 0)
    v["scanner.self_s"] = self_s("scanner.scan_conjecture") + self_s("scanner.diagnose_tail")
    v["cli.render.s"] = self_s("cli.main") + self_s("cli.progress")
    v["cli.stdout_bytes"] = sum(len(op.stdout) for op in ops)
    for name in LAYER_UNITS:
        if name not in v and not name.startswith("trace."):
            v[name] = counters.get(name, 0)
    computed, reused = v["scanner.rows_computed"], v["scanner.rows_reused"]
    v["scanner.reuse_ratio"] = reused / (computed + reused) if computed + reused else 0.0
    return v


def environment(size: Size) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "platform": platform.platform(),
        "size": size.name,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """Run one workload and return its full result record."""
    started = time.monotonic()
    refs = json.loads((BENCH / "digests.json").read_text())[size.name]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    # never more pool workers than the CPUs this process may use
    jobs2 = min(2, len(os.sched_getaffinity(0)))
    h = Harness(size, seed, tmp, refs, started + HARD_LIMIT_S, jobs2)
    walk_seed = seed % WALK_SEEDS
    inputs: dict = {"seed": seed, "seconds": seconds, "trace": trace}
    try:
        if not trace:
            h.setup_times(1)  # warms the import caches; not a sample
        setup: list[float] = []
        if workload == "scan-j1":
            inputs["argv"] = scan_argv(size, Path("OUT"), 1)
            rep = lambda traced: scan_rep(h, 1, traced)  # noqa: E731
        elif workload == "scan-j2":
            inputs["argv"] = scan_argv(size, Path("OUT"), jobs2)
            rep = lambda traced: scan_rep(h, jobs2, traced)  # noqa: E731
        elif workload == "scan-resume":
            inputs["argv"] = scan_argv(size, Path("OUT"), 1, resume=True)
            checkpoint = resume_checkpoint(h, inputs)
            rep = lambda traced: resume_rep(h, traced, checkpoint)  # noqa: E731
        else:
            inputs["argv"] = list(cli_mix_argvs(size, walk_seed).values())
            rep = lambda traced: cli_mix_rep(h, traced, walk_seed)  # noqa: E731

        plain: list[Rep] = []
        traced: list[Rep] = []
        measure_from = time.monotonic()
        measure_until = measure_from + seconds
        while time.monotonic() < h.deadline:
            plain.append(rep(False))
            if trace:
                traced.append(rep(True))
            else:
                done = min(1.0, (time.monotonic() - measure_from) / seconds) if seconds else 1.0
                setup += h.setup_times(math.ceil(done * size.setup_probes) - len(setup))
            if time.monotonic() >= measure_until and len(plain) >= size.min_reps:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(h.failures)
    ok = [r for r in plain if all(op.error is None for op in r.ops)]
    record: dict = {"workload": workload, "inputs": inputs, "environment": environment(size)}
    if trace:
        per_rep = [layer_values(r.ops) for r in traced if all(op.layers for op in r.ops)]
        units = LAYER_UNITS
        samples = {name: [v[name] for v in per_rep] for name in units if not name.startswith("trace.")}
        samples["trace.wall_s"] = [r.wall_s for r in traced if all(op.layers for op in r.ops)]
        samples["trace.overhead_s"] = samples["trace.wall_s"] if ok else []
        # scan stdout carries wall_time_s at a varying width, so its size is no count
        counts = [name for name, unit in units.items()
                  if unit != "s" and name != "cli.stdout_bytes"]
        record["counts_repeat"] = all(v[n] == per_rep[0][n] for v in per_rep for n in counts)
        record["absent"] = absent_layers(workload)
    else:
        units = E2E_UNITS
        samples = {
            "wall_s": [r.wall_s for r in ok],
            "pairs_per_s": [r.pairs / r.wall_s for r in ok],
            "cpu_s": [sum(op.cpu_s for op in r.ops) for r in ok],
            "setup_s": setup,
            "peak_rss_mib": [max(op.rss_mib for op in r.ops) for r in ok],
        }
    # a metric without samples reads 0 and makes the run incorrect
    metrics = {
        name: (statistics.median if units[name] == "s" else statistics.median_low)(values)
        if values else 0.0
        for name, values in samples.items()
    }
    if trace and ok:
        metrics["trace.overhead_s"] -= statistics.median([r.wall_s for r in ok])
    record.update(
        samples={name: len(values) for name, values in samples.items()},
        values=samples,
        labels={name: text for name, text in LABELS.items() if name in units},
        attempted=h.attempted,
        failed=failed,
        failed_frac=failed / h.attempted if h.attempted else 1.0,
        failures=h.failures,
        correct=failed == 0 and all(samples.values()) and record.get("counts_repeat", True),
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        run_s=time.monotonic() - started,
    )
    return record


def absent_layers(workload: str) -> dict[str, str]:
    """Per-layer metrics a workload cannot report, with the reason."""
    if workload != "scan-j2":
        return {}
    why = "runs only in pool workers, whose spans the tracer cannot reach; reported as 0"
    return {name: why for name in LAYER_UNITS
            if name.startswith(("gapfast.", "scanner.diagnose_tail"))}


def reference_digests(size: Size) -> dict[str, str]:
    """Digests of the current program's outputs, for review before committing."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        refs = {}
        out = tmp / "scan.csv"
        op, _ = run_process([sys.executable, "-m", "egyptfrac", *scan_argv(size, out, 1)],
                            size.op_timeout_s, tmp)
        if op.error:
            raise RuntimeError(f"scan: {op.error}")
        refs["scan.csv"] = sha256(out.read_bytes())
        refs["scan.stdout"] = scan_stdout_digest(op.stdout)
        for walk_seed in range(WALK_SEEDS):
            for label, argv in cli_mix_argvs(size, walk_seed).items():
                key = f"walk.{walk_seed}" if label == "walk" else label
                if key in refs:
                    continue
                op, _ = run_process([sys.executable, "-m", "egyptfrac", *argv],
                                    size.op_timeout_s, tmp)
                if op.error:
                    raise RuntimeError(f"{label}: {op.error}")
                refs[key] = sha256(op.stdout)
        return refs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", choices=("full", "small"),
                        help="print the digests of the current program's outputs and exit")
    args = parser.parse_args(argv)
    if not (SRC / "egyptfrac" / "cli.py").is_file():
        print(f"error: no egyptfrac source under {SRC}", file=sys.stderr)
        return 2
    if args.print_digests:
        size = FULL if args.print_digests == "full" else SMALL
        print(json.dumps(reference_digests(size), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
