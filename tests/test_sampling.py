import numpy as np
import pytest

from cohgen import (
    hs_norm,
    random_density,
    random_hermitian,
    random_pure_state,
    validate_density,
    validate_hermitian,
    validate_pure_state,
)
from cohgen.sampling import density_from_ginibre, ginibre_stack, hermitian_from_ginibre


def test_pure_states_normalized_and_seeded():
    rng = np.random.default_rng(0)
    for d in (2, 3, 6):
        psi = random_pure_state(d, rng)
        validate_pure_state(psi)
    a = random_pure_state(4, np.random.default_rng(99))
    b = random_pure_state(4, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_hermitian_samples():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        h = random_hermitian(d, rng)
        validate_hermitian(h)
    h1 = random_hermitian(5, rng, hs_normalized=True)
    assert abs(hs_norm(h1) - 1.0) < 1e-13


def test_density_samples_are_valid():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        validate_density(random_density(d, rng))


def test_density_rank_control():
    rng = np.random.default_rng(4)
    rho = random_density(5, rng, rank=1)
    lam = np.linalg.eigvalsh(rho)
    assert lam[-1] > 1 - 1e-9  # rank one: a single unit eigenvalue
    assert np.abs(lam[:-1]).max() < 1e-9


def test_density_mixing_gives_full_support():
    rng = np.random.default_rng(5)
    rho = random_density(4, rng, rank=1, mix=0.2)
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() > 0.2 / 4 - 1e-12


def test_density_rejects_bad_mix_and_rank():
    rng = np.random.default_rng(6)
    for mix in (np.nan, np.inf, -0.5, 1.5):
        with pytest.raises(ValueError, match="mix"):
            random_density(3, rng, mix=mix)
    for rank in (0, 4, 2.5, True):
        with pytest.raises(ValueError, match="rank"):
            random_density(3, rng, rank=rank)
    # the ends of both ranges, and numpy integers, are fine
    validate_density(random_density(3, rng, rank=np.int64(3), mix=1.0))
    validate_density(random_density(3, rng, rank=1, mix=0.0))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_batched_draw_is_the_per_sample_stream(d):
    # one standard_normal((n, 2, 2, d, d)) draw builds, bit for bit, the
    # matrices of n rounds of random_hermitian / random_density calls
    n = 40
    for order in ("HR", "RH"):
        for hs_normalized in (False, True):
            for mix in (0.0, 0.02, 0.05, 0.2):
                rng = np.random.default_rng([d, 11])
                expected = [[random_hermitian(d, rng, hs_normalized) if kind == "H"
                             else random_density(d, rng, mix=mix) for kind in order]
                            for _ in range(n)]
                after = rng.standard_normal()
                rng = np.random.default_rng([d, 11])
                g = ginibre_stack(d, n, 2, rng)
                stacks = [hermitian_from_ginibre(g[:, j], hs_normalized) if kind == "H"
                          else density_from_ginibre(g[:, j], mix) for j, kind in enumerate(order)]
                for k in range(n):
                    for j in range(2):
                        assert stacks[j][k].tobytes() == expected[k][j].tobytes(), (order, k, j)
                # the generator is left where the per-sample calls leave it
                assert rng.standard_normal() == after
