import dataclasses
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cohgen.verify
from cohgen import (
    GammaResult,
    coherence_commutator,
    coherence_derivative,
    dephase,
    entropy_derivative_check,
    fd_derivative,
    holder_hamiltonian,
    hs_norm,
    max_surprisal_variance,
    random_density,
    random_hermitian,
    run_checks,
    surprisal_variance,
    surprisal_variance_pairform,
)
from cohgen.capacity import _branch_peak, _family_f
from cohgen.verify import CheckResult, _rng_for, _sampled

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_perfbench(name):
    # read-only: the benchmark's expectations of a verify report
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_level_all_pass():
    results = run_checks("fast", seed=0)
    assert results, "no checks ran"
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual} vs {r.tolerance}"
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_fast_level_is_deterministic():
    a = run_checks("fast", seed=123)
    b = run_checks("fast", seed=123)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_seed_changes_residuals_but_not_verdicts():
    a = run_checks("fast", seed=1)
    b = run_checks("fast", seed=2)
    assert all(r.passed for r in a) and all(r.passed for r in b)
    # at least one sampled check should see different draws
    assert any(
        x.residual != y.residual for x, y in zip(a, b) if x.name == y.name
    )


# tolerance, (fast, full) samples per dimension and dimensions of each
# sampled check
SAMPLED = {
    "dephased_log_pairing": (1e-10, 100, 1000, range(2, 7)),
    "surprisal_pairform_equivalence": (1e-10, 100, 1000, range(2, 7)),
    "fd_vs_analytic_rate": (1e-6, 20, 200, (2, 3, 4)),
    "entropy_constant_along_orbit": (1e-9, 5, 20, (2, 3, 4)),
    "entropy_rate_identity": (1e-10, 10, 50, (2, 3, 4)),
    "holder_saturation": (1e-9, 20, 200, range(2, 7)),
    "capacity_bound_certificate": (1e-9, 300, 2000, (2, 3, 4)),
    "qubit_cross_method": (1e-6, 3, 25, (2,)),
}


def test_full_level_adds_grid_oracle():
    # full runs the fast checks and then the grid oracle; the names, their
    # order and their counts are what perfbench/ expects of a report
    expected = _load_perfbench("tracing").VERIFY_CHECKS
    counts = _load_perfbench("checks").VERIFY_CHECKS
    assert expected[-1] == "simplex_grid_oracle"
    fast = run_checks("fast", seed=0)
    full = run_checks("full", seed=0)
    assert [r.name for r in full] == expected
    assert [r.name for r in fast] == expected[:-1]
    assert {"fast": len(fast), "full": len(full)} == counts
    assert all(r.passed for r in full)
    for level, results in (("fast", fast), ("full", full)):
        by_name = {r.name: r for r in results}
        for name, (tolerance, fast_n, full_n, _) in SAMPLED.items():
            r = by_name[name]
            n = full_n if level == "full" else fast_n
            assert (r.tolerance, r.detail.split()[0]) == (tolerance, str(n)), name
        # signed: the best random pair stays below the bound
        assert by_name["capacity_bound_certificate"].residual < 0


def test_sampled_driver():
    seen = []

    @_sampled("probe", -3.5, (2, 3), (4, 5), "{n} draws per dimension")
    def probe(d, n, rng):
        for k in range(n):
            seen.append((d, k))
            yield -d - k

    assert probe("full", None) == CheckResult("probe", True, -3.5, -4.0, "3 draws per dimension")
    assert seen == [(4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2)]
    assert probe("fast", None).detail == "2 draws per dimension"

    # a NaN is the largest residual, wherever it comes: the check fails
    @_sampled("nan_probe", 1.0, (1, 1), (2,), "one NaN")
    def nan_probe(d, n, rng):
        yield 0.0
        yield math.nan

    result = nan_probe("fast", None)
    assert not result.passed and math.isnan(result.residual)


def test_sampled_checks_draw_in_their_dimensions(monkeypatch):
    # the per-sample checks draw with random_density / random_hermitian,
    # the batched ones with ginibre_stack; all three take d first
    drawn = []
    for name in ("random_density", "random_hermitian", "ginibre_stack"):
        def spy(d, *args, _draw=getattr(cohgen.verify, name), **kwargs):
            drawn.append(d)
            return _draw(d, *args, **kwargs)
        monkeypatch.setattr(cohgen.verify, name, spy)
    for index, (_, check) in enumerate(cohgen.verify._CHECKS):
        drawn.clear()
        r = check("fast", np.random.default_rng(index))
        if r.name in SAMPLED:
            assert sorted(set(drawn)) == list(SAMPLED[r.name][3]), r.name


# The per-sample bodies of the six batched checks as they were before
# batching, kept as the reference their batched forms must reproduce.
def reference_dephased_log_pairing(d, n, rng):
    for _ in range(n):
        a = random_hermitian(d, rng)
        b = random_density(d, rng, mix=0.05)
        log_b = np.diag(np.log2(b.diagonal().real))
        yield abs(np.trace(dephase(a) @ log_b).real - np.trace(a @ log_b).real)


def reference_pairform_equivalence(d, n, rng):
    for _ in range(n):
        rho = random_density(d, rng, mix=0.02)
        yield abs(surprisal_variance_pairform(rho) - surprisal_variance(rho.diagonal().real))


def reference_fd_vs_analytic(d, n, rng):
    for _ in range(n):
        rho = random_density(d, rng, mix=0.2)
        h = random_hermitian(d, rng, hs_normalized=True)
        analytic = coherence_derivative(h, rho)
        yield abs(fd_derivative(rho, h, 1e-4) - analytic)


def reference_entropy_rate_identity(d, n, rng):
    for _ in range(n):
        rho = random_density(d, rng, mix=0.2)
        yield abs(entropy_derivative_check(rho, random_hermitian(d, rng)))


def reference_holder_saturation(d, n, rng):
    for _ in range(n):
        rho = random_density(d, rng, mix=0.05)
        rate = coherence_derivative(holder_hamiltonian(rho), rho)
        yield abs(rate - hs_norm(coherence_commutator(rho)))


def reference_bound_certificate(d, n, rng):
    bound = max_surprisal_variance(d).capacity_bound
    for _ in range(n):
        h = random_hermitian(d, rng, hs_normalized=True)
        yield coherence_derivative(h, random_density(d, rng)) - bound


REFERENCE = {
    "dephased_log_pairing": reference_dephased_log_pairing,
    "surprisal_pairform_equivalence": reference_pairform_equivalence,
    "fd_vs_analytic_rate": reference_fd_vs_analytic,
    "entropy_rate_identity": reference_entropy_rate_identity,
    "holder_saturation": reference_holder_saturation,
    "capacity_bound_certificate": reference_bound_certificate,
}


@pytest.mark.parametrize("level, seed", [("fast", s) for s in range(5)] + [("full", 0)])
def test_batched_checks_yield_the_per_sample_residuals(level, seed):
    names = _load_perfbench("tracing").VERIFY_CHECKS
    for index, (_, check) in enumerate(cohgen.verify._CHECKS):
        if names[index] not in REFERENCE:
            continue
        _, fast_n, full_n, dims = SAMPLED[names[index]]
        n = full_n if level == "full" else fast_n
        batched, reference = _rng_for(seed, index), _rng_for(seed, index)
        for d in dims:
            expected = list(REFERENCE[names[index]](d, n, reference))
            assert list(check.residuals(d, n, batched)) == expected, (names[index], d)


@pytest.mark.parametrize("step", [0.05, 0.7])
def test_taylor_orbit_matches_expm(step):
    # the eigensolve-free reference orbit of entropy_constant_along_orbit
    # against scipy's expm; step 0.7 needs squarings.  The error grows along
    # the orbit, to about 2e-13 at t = 25, far below the check's 1e-9
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        rho = np.array([random_density(d, rng, mix=0.1) for _ in range(3)])
        h = np.array([random_hermitian(d, rng) for _ in range(3)])
        states = cohgen.verify._taylor_orbit(rho, h, step, 37)
        assert states.shape == (3, 37, d, d)
        for k in (0, 1, 2, 17, 36):
            u = np.array([scipy_linalg.expm(-1j * step * k * m) for m in h])
            expected = u @ rho @ u.conj().swapaxes(-1, -2)
            assert np.abs(states[:, k] - expected).max() < 1e-12, (d, k)


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("extreme", seed=0)


def _scale(factor):
    return lambda f: lambda *args: factor * f(*args)


def _skew_eigenbasis(f):
    # row 0 of every eigenbasis scaled by 1.01: V is no longer unitary
    def mutant(*args):
        lam, vec = f(*args)
        vec = vec.copy()
        vec[..., 0, :] *= 1.01
        return lam, vec
    return mutant


def _lower_branch(f):
    # the family maximum taken on the lower branch for every d, the peak
    # that loses for d >= 3
    def mutant(d):
        gamma, f_max = _branch_peak(d, 1e-12, 1.0 / d)
        return GammaResult(gamma, f_max, math.sqrt(2.0 * f_max))
    return mutant


def _gamma_scaled(factor):
    # the family maximum taken at factor·γ*, with the f of that γ: a bound
    # slightly too low, which capacity_numeric also uses as its ceiling
    def wrap(f):
        def mutant(d):
            gamma = factor * f(d).gamma
            f_max = _family_f(gamma, d)
            return GammaResult(gamma, f_max, math.sqrt(2.0 * f_max))
        return mutant
    return wrap


def _nan_first_rate(f):
    # the first rate of every stack is NaN
    def mutant(*args):
        rate = np.array(f(*args))
        rate.flat[0] = math.nan
        return rate
    return mutant


def _halved_coherence(f):
    # the orbit's coherence column halved; its entropy column, S(rho) by
    # construction, stays right
    def mutant(*args):
        traj = f(*args)
        return dataclasses.replace(traj, coherence=traj.coherence / 2)
    return mutant


def _nan_field(field):
    return lambda f: lambda *args: dataclasses.replace(f(*args), **{field: math.nan})


# Each mutant must fail exactly the named checks.  dephased_log_pairing has
# none: both of its sides reduce to sum_i A_ii log2 B_ii, so it reads 0.0.
MUTANTS = {
    "pairform_missing_half": ("verify", "surprisal_variance_pairform", _scale(2.0),
                              {"surprisal_pairform_equivalence"}),
    "qubit_g_off_by_1pct": ("capacity", "_qubit_g", _scale(1.01),
                            {"qubit_cross_method"}),
    "family_f_halved": ("capacity", "_family_f", _scale(0.5),
                        {"capacity_bound_certificate", "capacity_bound_equality"}),
    "commutator_sign_flipped": ("coherence", "coherence_commutator", _scale(-1.0),
                                {"fd_vs_analytic_rate", "holder_saturation",
                                 "capacity_bound_equality"}),
    "hs_norm_off_by_1e-3": ("verify", "hs_norm", _scale(1.001), {"holder_saturation"}),
    "eigenbasis_not_unitary": ("dynamics", "eig_hermitian", _skew_eigenbasis,
                               {"entropy_constant_along_orbit", "fd_vs_analytic_rate"}),
    "orbit_coherence_halved": ("verify", "trajectory", _halved_coherence,
                               {"entropy_constant_along_orbit"}),
    "family_lower_branch": ("verify", "max_surprisal_variance", _lower_branch,
                            {"simplex_grid_oracle"}),
    "family_gamma_3e-3_high": ("capacity", "max_surprisal_variance", _gamma_scaled(1 + 3e-3),
                               {"qubit_cross_method"}),
    # a NaN residual must fail its check, wherever it arises
    "one_nan_rate_per_stack": ("verify", "coherence_derivative", _nan_first_rate,
                               {"fd_vs_analytic_rate", "holder_saturation",
                                "capacity_bound_certificate"}),
    "nan_bound_gap": ("verify", "capacity_bound_equality", _nan_field("gap"),
                      {"capacity_bound_equality"}),
    "nan_grid_maximum": ("verify", "simplex_grid_oracle", _nan_field("f_best"),
                         {"simplex_grid_oracle"}),
}

# The certificate's worst random pair sits far below the bound (ROADMAP item
# 7), so it catches the halved family maximum on seeds 0 and 2 but not on 1.
MUTANT_SEEDS = {"family_f_halved": (0,)}

# Only the grid oracle, a full-level check, sees the lower branch's bound,
# 44% low at d = 3: the certificate's random pairs stay below even that.
# A NaN grid maximum likewise shows only where the oracle runs.
MUTANT_LEVEL = {"family_lower_branch": "full", "nan_grid_maximum": "full"}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_named_mutant_fails_its_checks(mutant, monkeypatch):
    module, attr, mutate, expected = MUTANTS[mutant]
    target = importlib.import_module(f"cohgen.{module}")
    monkeypatch.setattr(target, attr, mutate(getattr(target, attr)))
    level = MUTANT_LEVEL.get(mutant, "fast")
    for seed in MUTANT_SEEDS.get(mutant, (0, 1, 2)):
        assert {r.name for r in run_checks(level, seed) if not r.passed} == expected, seed


def test_report_does_not_depend_on_asserts(tmp_path):
    # python -O strips assert statements; the report must not change
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"verify{len(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "cohgen.cli", "verify", "fast", "--seed", "0",
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
