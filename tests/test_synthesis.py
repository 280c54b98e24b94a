import numpy as np
import pytest

from flowgate.errors import BadConfig, EmptyInput, NegativeSigma
from flowgate.flow import FlowConfig, FlowModel
from flowgate.synthesis import (
    MAX_NOISE, MAX_RATIO, NoiseSpec, SynthesisConfig, sample_noise, synthesize,
)


def identity_flow(dim=70) -> FlowModel:
    return FlowModel.create(FlowConfig(dim=dim, blocks=4, hidden=8), seed=0)


def test_sigma_zero_gives_constant_mu():
    eta = sample_noise(NoiseSpec(mu=-9.0, sigma=0.0, seed=1), n=5)
    np.testing.assert_array_equal(eta, np.full((5, 70), -9.0))


def test_noise_moments_large_sample():
    eta = sample_noise(NoiseSpec(mu=0.0, sigma=1.0, seed=2), n=100_000)
    assert np.abs(eta.mean(axis=0)).max() < 0.02
    assert eta.var(axis=0).min() > 0.97 and eta.var(axis=0).max() < 1.03


def test_noise_deterministic_per_seed_and_n():
    spec = NoiseSpec(mu=5.0, sigma=2.0, seed=3)
    np.testing.assert_array_equal(sample_noise(spec, 10), sample_noise(spec, 10))
    assert not np.array_equal(sample_noise(spec, 10),
                              sample_noise(NoiseSpec(5.0, 2.0, seed=4), 10))


def test_negative_sigma_rejected():
    with pytest.raises(NegativeSigma):
        NoiseSpec(mu=0.0, sigma=-1.0, seed=0)


@pytest.mark.parametrize("field, value", [
    ("mu", float("nan")), ("mu", float("-inf")), ("sigma", float("nan")), ("sigma", float("inf")),
    ("mu", -MAX_NOISE * 1.01), ("mu", 1e308), ("sigma", MAX_NOISE * 1.01), ("sigma", 1e308),
])
def test_noise_that_is_not_finite_is_a_bad_config_naming_the_field(field, value):
    with pytest.raises(BadConfig, match=f"{field} must be finite"):
        NoiseSpec(**{"mu": 0.0, "sigma": 1.0, field: value}, seed=0)
    # the bound itself is a setting whose noise stays finite
    assert np.isfinite(sample_noise(NoiseSpec(-MAX_NOISE, MAX_NOISE, seed=0), 1000)).all()


@pytest.mark.parametrize("field, value", [("mu", "a"), ("mu", None), ("sigma", "1")])
def test_noise_that_is_not_a_number_is_a_bad_config_naming_the_field(field, value):
    with pytest.raises(BadConfig, match=f"{field} must be a number"):
        NoiseSpec(**{"mu": 0.0, "sigma": 1.0, field: value}, seed=0)


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 1e300, MAX_RATIO * 1.01, 0.0])
def test_ratio_outside_its_bounds_is_a_bad_config(ratio):
    with pytest.raises(BadConfig, match="ratio must lie in"):
        SynthesisConfig(ratio=ratio)
    assert SynthesisConfig(ratio=MAX_RATIO).ratio == MAX_RATIO


def test_negative_noise_count_is_a_bad_config():
    with pytest.raises(BadConfig, match="n must be non-negative, got -1"):
        sample_noise(NoiseSpec(mu=0.0, sigma=1.0, seed=0), n=-1)


def test_table_grid_specs_construct():
    # the per-dataset best settings from the noise grid
    for mu, sigma in [(-9.0, 5.0), (-25.0, 5.0), (-100.0, 5.0)]:
        spec = NoiseSpec(mu=mu, sigma=sigma, seed=0)
        eta = sample_noise(spec, 1000)
        assert abs(eta.mean() - mu) < 0.5


def test_synthesize_identity_noise_round_trips():
    flow = identity_flow()
    rng = np.random.default_rng(5)
    latents = rng.standard_normal((40, 70))
    out = synthesize(flow, latents, NoiseSpec(mu=0.0, sigma=0.0, seed=6),
                     SynthesisConfig(ratio=1.0))
    assert out.shape == (40, 70)
    # with zero noise, each output equals some input up to round-trip error
    idx = np.argmin(np.linalg.norm(latents[None] - out[:, None], axis=2), axis=1)
    assert np.abs(out - latents[idx]).max() < 1e-8


def test_synthesize_ratio_half_counts():
    flow = identity_flow()
    latents = np.random.default_rng(7).standard_normal((10_000, 70))
    out = synthesize(flow, latents, NoiseSpec(mu=0.0, sigma=1.0, seed=8))
    assert out.shape == (5_000, 70)


def test_synthesize_identity_flow_shifts_by_mu():
    flow = identity_flow()  # zero-initialized, so normalize/generate are identity
    latents = np.random.default_rng(9).standard_normal((20, 70))
    out = synthesize(flow, latents, NoiseSpec(mu=3.0, sigma=0.0, seed=10),
                     SynthesisConfig(ratio=1.0))
    idx = np.argmin(np.linalg.norm(latents[None] + 3.0 - out[:, None], axis=2), axis=1)
    np.testing.assert_allclose(out, latents[idx] + 3.0, atol=1e-12)


def test_synthesize_without_replacement():
    flow = identity_flow(dim=4)
    latents = np.arange(40, dtype=float).reshape(10, 4)
    out = synthesize(flow, latents, NoiseSpec(mu=0.0, sigma=0.0, seed=11),
                     SynthesisConfig(ratio=1.0))
    # zero noise + identity flow: outputs are a permutation of the inputs
    assert {tuple(r) for r in out} == {tuple(r) for r in latents}


def test_synthesize_deterministic():
    flow = identity_flow(dim=8)
    latents = np.random.default_rng(12).standard_normal((30, 8))
    spec = NoiseSpec(mu=-9.0, sigma=5.0, seed=13)
    a = synthesize(flow, latents, spec)
    b = synthesize(flow, latents, spec)
    np.testing.assert_array_equal(a, b)


def test_synthesize_does_not_modify_inputs():
    flow = identity_flow(dim=8)
    latents = np.random.default_rng(14).standard_normal((30, 8))
    copy = latents.copy()
    synthesize(flow, latents, NoiseSpec(mu=1.0, sigma=1.0, seed=15))
    np.testing.assert_array_equal(latents, copy)


def test_synthesize_oversampling_ratio():
    flow = identity_flow(dim=4)
    latents = np.random.default_rng(16).standard_normal((10, 4))
    out = synthesize(flow, latents, NoiseSpec(mu=0.0, sigma=1.0, seed=17),
                     SynthesisConfig(ratio=2.0))
    assert out.shape == (20, 4)


def test_synthesize_empty_input():
    flow = identity_flow(dim=4)
    with pytest.raises(EmptyInput):
        synthesize(flow, np.zeros((0, 4)), NoiseSpec(mu=0.0, sigma=1.0, seed=0))
