import numpy as np

from cohgen import (
    hs_norm,
    random_density,
    random_hermitian,
    random_pure_state,
    validate_density,
    validate_hermitian,
    validate_pure_state,
)


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
