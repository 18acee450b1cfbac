"""Output checks for benchmark jobs, computed without qrand.

Every reference here is independent numpy code, so a fast path that breaks
the program's numbers fails a check instead of passing itself.  Parsed files
are cached by content, since the same input is checked once per cycle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9  # attack/diagnostic value against the certificate
ZERO = 1e-12  # known-answer zeros and bias bounds

_A_BITS = str.maketrans("IXYZ", "0110")
_B_BITS = str.maketrans("IXYZ", "0011")


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fwht(v: np.ndarray) -> np.ndarray:
    size = len(v)
    h = 1
    while h < size:
        v = v.reshape(-1, 2, h)
        v = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
        h *= 2
    return v.reshape(-1)


def _header(line: str) -> dict:
    return {k: int(v) for k, v in (tok.split("=", 1) for tok in line.split())}


class Reference:
    """Channel and space facts read from the files the jobs use."""

    def __init__(self):
        self._channels: dict[str, tuple] = {}
        self._spaces: dict[str, tuple] = {}

    def channel(self, path: str) -> tuple[int, np.ndarray, np.ndarray, float]:
        """(n, a words, b words, certified epsilon) of a uniform channel file."""
        with open(path) as fh:
            text = fh.read()
        key = _key(text)
        if key not in self._channels:
            lines = text.split()
            head = _header(" ".join(lines[:2]))
            n, m = head["n"], head["m"]
            body = [ln.lstrip("-i") for ln in lines[2:]]  # drop phase prefixes
            if len(body) != m or any(len(ln) != n for ln in body):
                raise ValueError(f"channel file {path} does not hold {m} labels of {n} letters")
            a = np.array([int(ln.translate(_A_BITS)[::-1], 2) for ln in body], dtype=np.int64)
            b = np.array([int(ln.translate(_B_BITS)[::-1], 2) for ln in body], dtype=np.int64)
            hist = np.bincount(a | (b << n), minlength=4 ** n) / m
            coeffs = np.abs(_fwht(hist))
            coeffs[0] = 0.0
            cert = 2.0 ** (n / 2.0) * float(coeffs.max())
            self._channels[key] = (n, a, b, cert)
        return self._channels[key]

    def space(self, path: str) -> tuple[int, np.ndarray]:
        """(bits, words) of a space file."""
        with open(path) as fh:
            text = fh.read()
        key = _key(text)
        if key not in self._spaces:
            lines = text.split("\n")
            head = _header(lines[0])
            body = [ln for ln in lines[1:] if ln]
            if len(body) != head["size"] or any(len(ln) != head["n"] for ln in body):
                raise ValueError(f"space file {path} does not match its header")
            words = np.array([int(ln[::-1], 2) for ln in body], dtype=np.uint64)
            self._spaces[key] = (head["n"], words)
        return self._spaces[key]


def _index(words: np.ndarray, n: int) -> np.ndarray:
    """Ket index of each packed string: string position 0 is the top bit."""
    idx = np.zeros_like(words)
    for j in range(n):
        idx |= ((words >> j) & 1) << (n - 1 - j)
    return idx


def _parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.int64)


def trace_distance_at(n: int, a: np.ndarray, b: np.ndarray, amplitudes) -> float:
    """Trace distance from I/d of the uniform channel's output at a pure state,
    by numpy's Hermitian eigensolver."""
    d = 1 << n
    psi = np.array([complex(re, im) for re, im in amplitudes])
    ia, ib = _index(a, n), _index(b, n)
    c = np.arange(d, dtype=np.int64)
    signs = 1.0 - 2.0 * _parity(ib[:, None] & c[None, :])
    moved = np.zeros((len(a), d), dtype=np.complex128)
    rows = np.arange(len(a))[:, None]
    moved[rows, c[None, :] ^ ia[:, None]] = signs * psi[None, :]
    out = moved.T @ moved.conj() / len(a)
    return float(np.abs(np.linalg.eigvalsh(out - np.eye(d) / d)).sum())


class Checker:
    """Validates each job's report; returns a list of failure messages."""

    def __init__(self, schema: dict, validator_cls):
        self.validator = validator_cls(schema)
        self.ref = Reference()
        self.attack_values: dict[tuple, float] = {}

    def check(self, job, rc: int, out: str) -> tuple[list[str], float | None]:
        """Failures and, for attack/diagnose/bound jobs, the tightness ratio."""
        if rc != 0:
            return [f"exit code {rc}"], None
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"], None
        errors = [e.message for e in self.validator.iter_errors(report)]
        if errors:
            return [f"schema: {errors[0]}"], None
        return getattr(self, "_" + job.kind.replace("-", "_"))(job, report)

    def _attack(self, job, rep):
        n, a, b, cert = self.ref.channel(job.path)
        eps = rep["epsilon_hat"]
        fails = []
        if eps > cert + TOL:
            fails.append(f"epsilon_hat {eps} above certificate {cert}")
        if job.pad and eps > ZERO:
            fails.append(f"full pad attack value {eps} is not 0")
        again = trace_distance_at(n, a, b, rep["witness"])
        if abs(again - eps) > TOL:
            fails.append(f"witness gives {again}, report says {eps}")
        same = (job.path, job.seed)
        if same in self.attack_values and self.attack_values[same] != eps:
            fails.append(f"thread count changed epsilon_hat: {self.attack_values[same]} vs {eps}")
        self.attack_values.setdefault(same, eps)
        return fails, (None if job.pad else eps / cert)

    def _diagnose(self, job, rep):
        _, _, _, cert = self.ref.channel(job.path)
        values = [rep["sigma_v_max"], rep["cat_max"], rep["stabilizer_max"]]
        fails = [f"diagnostic {v} above certificate {cert}" for v in values if v > cert + TOL]
        if job.pad:
            fails += [f"full pad diagnostic {v} is not 0" for v in values if v > ZERO]
        return fails, (None if job.pad else max(values) / cert)

    def _certify(self, job, rep):
        n, a, _, cert = self.ref.channel(job.path)
        fails = []
        if (rep["n"], rep["m"]) != (n, len(a)):
            fails.append(f"certify reports n={rep['n']} m={rep['m']}, file has {n}, {len(a)}")
        got = rep["certified_epsilon"]
        if abs(got - cert) > TOL or abs(got - 2.0 ** (n / 2.0) * rep["delta"]) > TOL:
            fails.append(f"certified_epsilon {got}, reference {cert}")
        if job.pad and got > ZERO:
            fails.append(f"full pad certificate {got} is not 0")
        ratio = None
        if job.epsilon is not None:
            ratio = got / job.epsilon
            if got > job.epsilon + ZERO:
                fails.append(f"AGHP channel certifies {got} above requested {job.epsilon}")
        return fails, ratio

    def _space_build(self, job, rep):
        bits, words = self.ref.space(job.path)
        fails = []
        want = {"n": job.r * job.s, "size": 4 ** job.r, "bias_bound": (job.s - 1) / 2 ** job.r}
        for k, v in want.items():
            if rep.get(k) != v:
                fails.append(f"space-build {k}={rep.get(k)}, expected {v}")
        if (bits, len(words)) != (want["n"], want["size"]):
            fails.append(f"space file holds {len(words)} strings of {bits} bits")
        return fails, None

    def _space_bias(self, job, rep):
        bits, words = self.ref.space(job.path)
        bound = (job.s - 1) / 2 ** job.r
        got = rep["max_bias"]
        fails = []
        if got > bound + ZERO:
            fails.append(f"max_bias {got} above (s-1)/2^r = {bound}")
        if rep["scanned"] != 2 ** bits - 1:
            fails.append(f"scanned {rep['scanned']} of {2 ** bits - 1} tests")
        alpha = np.uint64(int(rep["witness"][::-1], 2))
        at_witness = abs(1.0 - 2.0 * _parity(words & alpha).mean())
        if abs(at_witness - got) > ZERO:
            fails.append(f"witness has bias {at_witness}, report says {got}")
        return fails, got / bound

    def _channel_build(self, job, rep):
        n, a, _, _ = self.ref.channel(job.path)
        fails = []
        if (rep["n"], rep["m"]) != (n, len(a)):
            fails.append(f"channel-build reports n={rep['n']} m={rep['m']}, file has {n}, {len(a)}")
        if job.m is not None and len(a) != job.m:
            fails.append(f"channel has {len(a)} operators, asked for {job.m}")
        if rep["key_bits"] > 2 * n or (job.pad and rep["key_bits"] != 2 * n):
            fails.append(f"key_bits {rep['key_bits']} for n={n}")
        return fails, None
