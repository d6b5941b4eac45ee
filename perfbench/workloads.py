"""Request generation for the three workloads.

A workload is an endless sequence of request groups.  Group ``g`` of seed
``s`` is drawn from ``numpy.random.default_rng([s, g])`` alone, so the same
seed always gives the same sequence, however many groups a run gets through.
Each group holds one request of every input class the workload mixes, so any
whole number of groups keeps the classes in equal shares.

cohgen itself only ever sees the files a request writes.
"""
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DIMS = (2, 8, 32)
RESTARTS = 32          # pinned so a change of the CLI default cannot shrink the work
GRID_POINTS = 2000
QUALITY_GROUPS = 3     # capacity groups whose random-H requests define capacity_quality
# "verify full" takes about 3 s, too few requests per run for a tail
# percentile; "fast" runs nine of its ten checks with smaller sample counts.
VERIFY_LEVEL = "fast"


@dataclass
class Request:
    kind: str                    # input class, e.g. "random" or "pure"
    dim: int | None
    argv: list
    out: str                     # file the request writes
    files: dict = field(default_factory=dict)   # path -> text, written before the request
    meta: dict = field(default_factory=dict)    # what the output checks need


def _rng(seed: int, group: int):
    return np.random.default_rng([seed, group])


def _matrix_json(m) -> str:
    m = np.asarray(m, dtype=np.complex128)
    return json.dumps({"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()})


def _vector_json(v) -> str:
    v = np.asarray(v, dtype=np.complex128)
    return json.dumps({"dim": int(v.size), "re": v.real.tolist(), "im": v.imag.tolist()})


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2, which floating point makes exactly Hermitian."""
    return (m + m.conj().T) / 2


def random_unit_hermitian(d: int, rng) -> np.ndarray:
    """Gaussian Hermitian matrix scaled to unit Hilbert-Schmidt norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = _symmetrize(g)
    return h / np.linalg.norm(h)


def matched_hamiltonian(d: int, rng) -> np.ndarray:
    """The closed-form capacity-attaining H (H_0j = i/sqrt(2(d-1))), disguised.

    A random diagonal phase and a random basis permutation leave the capacity
    at exactly sqrt(2 f_max(d)), but the solver cannot see that.
    """
    a = 1.0 / math.sqrt(2.0 * (d - 1))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d))
    upper = np.zeros((d, d), dtype=np.complex128)
    upper[0, 1:] = 1j * a * phase[0] * phase[1:].conj()
    h = upper + upper.conj().T
    perm = rng.permutation(d)
    return h[np.ix_(perm, perm)]


def random_amplitudes(d: int, rng) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def random_full_rank_density(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = 0.9 * rho / rho.trace().real + 0.1 * np.eye(d) / d
    return _symmetrize(rho)


def capacity_group(seed: int, group: int, workdir: str) -> list:
    rng = _rng(seed, group)
    requests = []
    for kind, make in (("random", random_unit_hermitian), ("matched", matched_hamiltonian)):
        for d in DIMS:
            h = make(d, rng)
            solver_seed = int(rng.integers(2**31))
            ham = os.path.join(workdir, f"cap-{kind}-{d}.json")
            out = os.path.join(workdir, f"cap-{kind}-{d}.out.json")
            requests.append(Request(
                kind=kind, dim=d,
                argv=["capacity", ham, "--seed", str(solver_seed),
                      "--restarts", str(RESTARTS), "--out", out],
                out=out, files={ham: _matrix_json(h)}, meta={"hamiltonian": h},
            ))
    return requests


def orbit_group(seed: int, group: int, workdir: str) -> list:
    rng = _rng(seed, group)
    requests = []
    for kind in ("pure", "mixed"):
        for d in DIMS:
            if kind == "pure":
                psi = random_amplitudes(d, rng)
                state_text, rho = _vector_json(psi), np.outer(psi, psi.conj())
            else:
                rho = random_full_rank_density(d, rng)
                state_text = _matrix_json(rho)
            h = random_unit_hermitian(d, rng)
            stop = float(rng.uniform(1.0, 10.0))
            state = os.path.join(workdir, f"orb-{kind}-{d}.state.json")
            ham = os.path.join(workdir, f"orb-{kind}-{d}.ham.json")
            out = os.path.join(workdir, f"orb-{kind}-{d}.csv")
            requests.append(Request(
                kind=kind, dim=d,
                argv=["evolve", state, ham, "--grid", f"0:{stop!r}:{GRID_POINTS}", "--out", out],
                out=out, files={state: state_text, ham: _matrix_json(h)},
                meta={"rho": rho, "points": GRID_POINTS},
            ))
    return requests


def verify_group(seed: int, group: int, workdir: str) -> list:
    verify_seed = int(_rng(seed, group).integers(2**31))
    out = os.path.join(workdir, "verify.out.json")
    return [Request(kind=VERIFY_LEVEL, dim=None,
                    argv=["verify", VERIFY_LEVEL, "--seed", str(verify_seed), "--out", out],
                    out=out, meta={"seed": verify_seed, "level": VERIFY_LEVEL})]


GROUPS = {
    "capacity_sweep": capacity_group,
    "orbit_scan": orbit_group,
    "verify_suite": verify_group,
}

# Groups in one pass of a traced run (see worker.run_traced): about five
# seconds of work each at the commit that introduced the benchmark.
TRACE_GROUPS = {"capacity_sweep": 4, "orbit_scan": 2, "verify_suite": 12}

INPUT_SIZES = {
    "capacity_sweep": {"dims": list(DIMS), "kinds": ["random", "matched"], "restarts": RESTARTS},
    "orbit_scan": {"dims": list(DIMS), "kinds": ["pure", "mixed"], "grid_points": GRID_POINTS},
    "verify_suite": {"level": VERIFY_LEVEL, "requests_per_group": 1},
}
