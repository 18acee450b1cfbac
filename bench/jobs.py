"""The three workloads: their inputs, generated from the seed, and their jobs.

A job is one ``qrand`` command line.  Each workload is a fixed list of jobs
(one cycle); the benchmark repeats whole cycles.  The seed only changes the
contents of inputs (random channels, ``--seed`` values, requested epsilons),
never the shape of a cycle, so cycles cost about the same on every seed.

Why each workload is there:

- ``attack``: dense linear algebra.  Every candidate state is pushed through
  ``apply_channel`` and scored by a trace norm (``herm_eigvals``).  Runs at
  n = 3 and 4; the n = 4 AGHP attack also runs with ``--threads 2``, the only
  place the thread pool is measured.
- ``diagnose``: the combinatorial scans over source key sets at n = 6..8.
  No eigensolver call, so it is the bypass side for changes to the dense
  path and the mechanism side for changes to the diagnostics.
- ``build``: construction and serialisation.  AGHP spaces up to 24 bits
  with their exhaustive bias scans, and aghp/qotp/random channels at
  n = 6..8 written and read back.  The 24-bit scan is the one memory-bound
  kernel (128 MiB of float64); it runs once per run, after the cycles (see
  ``Job.per_run``).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("attack", "diagnose", "build")

# Per-run cost guard: at n >= 5 the attack does not fit a run.
SKIPPED = [
    {
        "job": f"channel attack n={n}",
        "status": "skipped: over budget",
        "reason": (
            "a default attack makes at least 400 trace-norm evaluations "
            "(200 probes + 200 climb rounds); one evaluation at d=32 takes "
            "about 112 ms in the pure-Python Jacobi solver (2-core x86, no "
            "numba) and grows as d^3, so one job at n=5 exceeds the whole run"
        ),
    }
    for n in range(5, 9)
]


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # attack, diagnose, certify, space-build, space-bias, channel-build
    argv: tuple[str, ...]
    path: str  # the file the job reads or writes
    seed: int | None = None
    pad: bool = False  # full pad: every value has a known answer of 0
    epsilon: float | None = None  # requested epsilon of an AGHP channel
    r: int | None = None
    s: int | None = None
    m: int | None = None
    # Run once per run, after the cycles, instead of in every cycle.  Its time
    # stays out of the job-time metrics; its memory still sets peak RSS.
    per_run: bool = False


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def build_jobs(q, workload: str, seed: int, workdir: str, tiny: bool) -> list[Job]:
    """Generate the inputs of one workload into ``workdir`` and list its jobs.

    ``q`` is the freshly imported ``qrand`` package.  ``tiny`` selects a
    short job list that still touches every layer of the workload.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {"attack": _attack, "diagnose": _diagnose, "build": _build}[workload](
        q, rng, workdir, tiny)


def _attack(q, rng, workdir, tiny):
    ch = q.channel
    inputs = [("pad3", ch.qotp(3), True)]
    for i in range(2 if tiny else 12):
        inputs.append((f"random3-m16-{i}", ch.random_pauli_channel(3, 16, rng.randrange(2 ** 32)), False))
    if not tiny:
        inputs.append(("random4-m64", ch.random_pauli_channel(4, 64, rng.randrange(2 ** 32)), False))
        inputs.append(("aghp4-e1", ch.aghp_channel(4, 1.0), False))
    jobs = []
    for name, channel, pad in inputs:
        path = _write(os.path.join(workdir, name + ".txt"), channel.to_text())
        s = rng.randrange(2 ** 31)
        jobs.append(Job(f"attack {name}", "attack",
                        ("channel", "attack", "--in", path, "--seed", str(s)), path, s, pad))
    # The last input runs again on two threads, with the same seed.
    last = jobs[-1]
    jobs.append(Job(last.name + " threads=2", "attack", last.argv + ("--threads", "2"),
                    last.path, last.seed))
    return jobs


def _diagnose(q, rng, workdir, tiny):
    ch = q.channel
    inputs = [("pad6", ch.qotp(6), True, None)]
    for n in ((6,) if tiny else (6, 7, 8)):
        for eps in ((1.0,) if tiny else (0.5, 1.0)):
            inputs.append((f"aghp{n}-e{eps}", ch.aghp_channel(n, eps), False, eps))
        for m in (() if tiny else (500, 4096)):
            inputs.append((f"random{n}-m{m}",
                           ch.random_pauli_channel(n, m, rng.randrange(2 ** 32)), False, None))
    s = rng.randrange(2 ** 31)
    jobs = []
    for name, channel, pad, eps in inputs:
        path = _write(os.path.join(workdir, name + ".txt"), channel.to_text())
        jobs.append(Job(f"diagnose {name}", "diagnose",
                        ("channel", "diagnose", "--in", path, "--seed", str(s)), path, s, pad))
        # The pad's certificate is a build-workload job.  Leaving it out here
        # keeps the number of jobs odd, so the median job time is one job
        # type's time, not the mean of the slowest certify and fastest diagnose.
        if not pad:
            jobs.append(Job(f"certify {name}", "certify", ("channel", "certify", "--in", path),
                            path, epsilon=eps))
    return jobs


def _build(q, rng, workdir, tiny):
    jobs = []
    spaces = [(r, s) for r in ((6,) if tiny else (6, 7, 8)) for s in ((2,) if tiny else (2, 3))]
    for r, s in spaces:
        path = os.path.join(workdir, f"space-r{r}-s{s}.txt")
        jobs.append(Job(f"space build r={r} s={s}", "space-build",
                        ("space", "build", "--construction", "aghp", "--r", str(r),
                         "--s", str(s), "--out", path), path, r=r, s=s))
        # The scan of the largest space (24 bits) is bound by memory
        # bandwidth, which other tenants of a shared host move by more than
        # any job-time bound allows; it reads the file the last cycle wrote.
        jobs.append(Job(f"space bias r={r} s={s}", "space-bias",
                        ("space", "bias", "--in", path), path, r=r, s=s,
                        per_run=(r, s) == spaces[-1]))
    for n in ((6,) if tiny else (6, 7, 8)):
        # Every epsilon in [0.6, 0.7) gives the same field degree at each n,
        # so the seed moves the certificate ratio but not the cost.
        eps = round(rng.uniform(0.6, 0.7), 6)
        m = 64 if tiny else 2048
        seed = rng.randrange(2 ** 31)
        schemes = [
            ("aghp", ("--epsilon", repr(eps)), dict(epsilon=eps)),
            ("random", ("--m", str(m), "--seed", str(seed)), dict(m=m, seed=seed)),
        ]
        if not tiny:
            schemes.append(("qotp", (), dict(pad=True)))
        for scheme, extra, meta in schemes:
            path = os.path.join(workdir, f"channel-{scheme}{n}.txt")
            jobs.append(Job(f"channel build {scheme} n={n}", "channel-build",
                            ("channel", "build", "--scheme", scheme, "--n", str(n)) + extra
                            + ("--out", path), path, **meta))
            jobs.append(Job(f"certify {scheme} n={n}", "certify",
                            ("channel", "certify", "--in", path), path,
                            pad=meta.get("pad", False), epsilon=meta.get("epsilon")))
    return jobs


def warm_up(q, jobs: list[Job]) -> None:
    """Fill the caches the timed jobs would otherwise fill on first use."""
    for job in jobs:
        if job.kind in ("attack", "diagnose"):
            with open(job.path) as fh:
                n = int(fh.readline().split()[0].split("=")[1])
            q.verify.stabilizer_catalog(n, job.seed)
    for r in range(1, 9):
        q.gf2ext.field_spec(r)
