"""qrand benchmark: one command runs a workload, checks it and prints metrics.

    python3 bench/run.py --workload {attack,diagnose,build} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; qrand is imported from ``src/``
(never from an installed copy) and the command fails, printing no result,
when that tree is absent.

Each job is a ``qrand`` command line run in-process through
``qrand.cli.main(argv)`` with stdout captured, one job at a time in a closed
loop from this single process.  Whole cycles of the workload's job list
(see ``jobs.py``) run until the next cycle would end after ``--seconds``;
at least one cycle runs.  Every job's output is checked after the job, outside
its timed interval; a non-zero exit or a failed check counts as a failure.
Jobs marked ``per_run`` run once after the cycles, checked and counted the
same way; their times go to the record, not to the job-time metrics.
BLAS is pinned to one thread, so no job uses more than the two threads of
the one ``--threads 2`` attack.

Set-up (import of qrand, input generation, cache warm-up) runs
``SETUP_REPS`` times from a clean import and its median is ``setup_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs the
untraced cycles, then one more cycle with every public qrand function
wrapped (``tracer.py``), and prints the per-layer metrics, including
``trace_overhead``: the traced cycle's job time over the untraced mean.

Before the final JSON line a ``record`` line gives the environment, the
tail percentile and sample count, the failure list, the skipped jobs and,
when traced, every traced function.
"""

from __future__ import annotations

import os

# One BLAS thread per process; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "reports.schema.json"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
TAIL_BEYOND = 10

sys.path.insert(0, str(Path(__file__).resolve().parent))
import jobs as workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "tightness": "ratio",
}
# Which jobs' ratios make up ``tightness``, and the record's name for it.
TIGHTNESS = {
    "attack": (("attack",), "attack_tightness"),
    "diagnose": (("diagnose",), "diagnose_tightness"),
    "build": (("space-bias", "certify"), "build_tightness"),
}

LAYER_FUNCTIONS = (
    "cli.main",
    "channel.PauliChannel.from_text",
    "channel.PauliChannel.to_text",
    "channel.apply_channel",
    "channel.fourier_coeffs",
    "channel.channel_from_space",
    "channel.aghp_channel",
    "channel.qotp",
    "channel.random_pauli_channel",
    "linalg.herm_eigvals",
    "linalg.matrix_norm",
    "linalg.random_state",
    "pauli.stab_state",
    "pauli.PauliOp.from_string",
    "verify.product_eigenstate",
    "verify.cat_probe_state",
    "verify.empirical_epsilon",
    "verify.diagnose",
    "verify.sigma_v_condition",
    "verify.cat_condition",
    "verify.stabilizer_condition",
    "verify.stabilizer_catalog",
    "smallbias.bias_at",
    "smallbias.aghp_space",
    "smallbias.max_bias",
    "smallbias.SampleSpace.from_text",
    "smallbias.SampleSpace.to_text",
    "gf2ext.field_spec",
    "bitlin.BitVector.from_string",
    "bitlin.gf2_rank",
)
LAYER_COUNTERS = {
    "linalg.herm_eigvals.work": "ops",
    "channel.apply_channel.work": "ops",
    "channel.fourier_coeffs.work": "ops",
    "smallbias.max_bias.work": "ops",
    "smallbias.max_bias.bytes": "B",
    "verify.empirical_epsilon.candidates": "count",
    "verify.stabilizer_catalog.hits": "count",
    "gf2ext.field_spec.hits": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.ms"] = "ms"
        units[f"{fn}.self_ms"] = "ms"
    units.update(LAYER_COUNTERS)
    units["verify.empirical_epsilon.threads1.ms"] = "ms"
    units["verify.empirical_epsilon.threads2.ms"] = "ms"
    units["trace_overhead"] = "ratio"
    return units


def environment() -> dict:
    import numpy

    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_path = git / ref[5:]
            if ref_path.exists():
                head = ref_path.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        head = line.split()[0]
        else:
            head = ref
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qrand").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": head,
        "src_qrand_lines": lines,
    }


def fresh_import():
    """Import qrand from src/ with empty module state and caches."""
    for name in [m for m in sys.modules if m == "qrand" or m.startswith("qrand.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    q = importlib.import_module("qrand")
    importlib.import_module("qrand.cli")
    if Path(q.__file__).resolve().parent != SRC / "qrand":
        raise ImportError(f"qrand imported from {q.__file__}, not from {SRC}")
    return q


def setup(workload: str, seed: int, tiny: bool, rep: int):
    t0 = time.perf_counter()
    q = fresh_import()
    workdir = WORK / f"{workload}-{os.getpid()}-{rep}"
    workdir.mkdir(parents=True)
    job_list = workloads.build_jobs(q, workload, seed, str(workdir), tiny)
    workloads.warm_up(q, job_list)
    return time.perf_counter() - t0, q, workdir, job_list


def run_job(q, job) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # Each job starts from the same collector state, as a fresh process would,
    # instead of paying for garbage left by the previous job or check.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = q.cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class Cycles:
    """Job times, failures and tightness ratios over the cycles run."""

    def __init__(self, checker: Checker, tight_kinds):
        self.checker = checker
        self.tight_kinds = tight_kinds
        self.times: list[float] = []
        self.by_name: dict[str, list[float]] = {}
        self.cycle_job_seconds: list[float] = []
        self.per_run: dict[str, float] = {}
        self.failures: list[dict] = []
        # One ratio per job: a job's ratio is the same in every cycle.
        self.ratios: dict[str, float] = {}
        self.attempted = 0

    def _run(self, q, job) -> float:
        if job.kind.endswith("-build"):
            # Write a new file, as a user would.  Rewriting the last
            # cycle's file through truncation makes ext4 flush it to
            # disk on close, which times the disk instead of the job.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(job.path)
        dt, rc, out, err = run_job(q, job)
        self.attempted += 1
        try:
            fails, ratio = self.checker.check(job, rc, out)
        except Exception as exc:  # a malformed output file
            fails, ratio = [f"check raised {exc!r}"], None
        if fails:
            self.failures.append({"job": job.name, "errors": fails,
                                  "stderr": err.strip().splitlines()[-3:]})
        elif ratio is not None and job.kind in self.tight_kinds:
            self.ratios[job.name] = ratio
        return dt

    def run_cycle(self, q, job_list) -> None:
        job_seconds = 0.0
        for job in job_list:
            dt = self._run(q, job)
            self.times.append(dt)
            self.by_name.setdefault(job.name, []).append(dt)
            job_seconds += dt
        self.cycle_job_seconds.append(job_seconds)

    def run_once(self, q, job_list) -> None:
        for job in job_list:
            self.per_run[job.name] = self._run(q, job)

    def run_for(self, q, job_list, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            self.run_cycle(q, job_list)
            now = time.perf_counter()
            if now - start + (now - c0) > seconds:
                return


def tail(times: list[float]) -> tuple[float, float, int]:
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it
    (nearest rank), the percentile, and the sample count."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="short job lists, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "qrand" / "__init__.py").is_file() or not SCHEMA.is_file():
        sys.stderr.write(f"error: no qrand source tree under {ROOT}\n")
        return 2
    import jsonschema

    checker = Checker(json.loads(SCHEMA.read_text()), jsonschema.Draft202012Validator)
    tight_kinds, tight_name = TIGHTNESS[args.workload]
    workdirs = []
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            dt, q, workdir, job_list = setup(args.workload, args.seed, args.tiny, rep)
            setup_times.append(dt)
            workdirs.append(workdir)

        cycle_jobs = [job for job in job_list if not job.per_run]
        per_run_jobs = [job for job in job_list if job.per_run]
        cycles = Cycles(checker, tight_kinds)
        cycles.run_for(q, cycle_jobs, args.seconds)
        cycles.run_once(q, per_run_jobs)

        traced = None
        if args.trace:
            tracer = Tracer()
            traced = Cycles(checker, tight_kinds)
            tracer.install()
            try:
                traced.run_cycle(q, cycle_jobs)
                traced.run_once(q, per_run_jobs)
            finally:
                tracer.remove()
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    runs = [cycles] + ([traced] if traced else [])
    attempted = sum(c.attempted for c in runs)
    failures = [f for c in runs for f in c.failures]
    tail_s, tail_pct, samples = tail(cycles.times)
    tightness = statistics.fmean(cycles.ratios.values()) if cycles.ratios else 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(),
        "setup_s_samples": setup_times,
        "cycles": len(cycles.cycle_job_seconds),
        "jobs_per_cycle": len(cycle_jobs),
        "per_run_job_s": cycles.per_run,
        "job_s_tail": {"percentile": tail_pct, "samples": samples},
        "job_s_median_by_job": {k: statistics.median(v) for k, v in cycles.by_name.items()},
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        tight_name: {"value": tightness, "unit": "ratio", "jobs": len(cycles.ratios)},
        "failures": failures[:20],
    }
    if args.workload == "attack":
        record["skipped"] = workloads.SKIPPED

    if args.trace:
        values = {}
        for fn in LAYER_FUNCTIONS:
            stat = tracer.stats[fn]
            values[f"{fn}.calls"] = stat.calls
            values[f"{fn}.ms"] = 1000.0 * stat.seconds
            values[f"{fn}.self_ms"] = 1000.0 * stat.self_seconds
        for key in LAYER_COUNTERS:
            values[key] = tracer.counters[key]
        threads = tracer.thread_comparison()
        values["verify.empirical_epsilon.threads1.ms"] = threads["threads1.ms"]
        values["verify.empirical_epsilon.threads2.ms"] = threads["threads2.ms"]
        untraced = statistics.fmean(cycles.cycle_job_seconds)
        values["trace_overhead"] = traced.cycle_job_seconds[0] / untraced
        record["threads_compared_at_n"] = threads["n"]
        record["counters_computed_not_measured"] = [
            k for k in LAYER_COUNTERS if k.endswith((".work", ".bytes"))]
        record["layers"] = tracer.layers()
        units = per_layer_units()
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(cycles.times) / sum(cycles.times),
            "job_s_p50": statistics.median(cycles.times),
            "job_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tightness": tightness,
        }
        units = END_TO_END

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
