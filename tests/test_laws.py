import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from liftedilc import (
    DimensionError,
    InvalidParameterError,
    LAW_KINDS,
    LearningLaw,
    build_gain,
    discretize_zoh,
    iteration_matrix,
    make_second_order,
)

from conftest import random_stable_lifted


def test_law_rejects_unknown_kind_and_nonpositive_gain():
    with pytest.raises(InvalidParameterError):
        LearningLaw("q_transpose", 1.0)
    with pytest.raises(InvalidParameterError):
        LearningLaw("p_transpose", 0.0)
    with pytest.raises(InvalidParameterError):
        LearningLaw("p_transpose", -0.4)
    with pytest.raises(InvalidParameterError, match="finite, got inf"):
        LearningLaw("norm_optimal", math.inf)


@pytest.mark.parametrize("gain", ["1", None, 1 + 0j, [1]])
def test_law_rejects_a_gain_that_is_not_a_real_number(gain):
    # each of these raised a raw TypeError from the comparison 0 < gain
    with pytest.raises(InvalidParameterError, match="real number"):
        LearningLaw("p_transpose", gain)


def test_law_takes_numpy_scalar_gains():
    assert LearningLaw("p_transpose", np.float64(0.5)).gain == 0.5
    assert LearningLaw("norm_optimal", np.float32(2.0)).gain == 2.0
    assert LearningLaw("partial_isometry", np.int64(1)).gain == 1


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_gain_is_rectangular_after_row_deletion(third_order_pair, kind):
    _, model, _, _ = third_order_pair
    gain = build_gain(LearningLaw(kind, 0.7), model)
    assert gain.l_matrix.shape == (100, 99)


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_model_iteration_matrix_is_symmetric(second_order_pair, kind):
    """All three gains produce a symmetric I - P L on the model itself."""
    _, model, _, _ = second_order_pair
    w = iteration_matrix(model, build_gain(LearningLaw(kind, 1.0), model))
    assert np.max(np.abs(w - w.T)) < 1e-10


def test_p_transpose_spectrum_straddles_zero(second_order_pair):
    # [DERIVED] extremes of eig(I - P P^T) for the second-order model at
    # phi = 1: the smallest eigenvalue is decisively negative, so monotonic
    # convergence here comes from 1 - phi sigma^2 staying inside (-1, 1),
    # not from the spectrum being positive.
    _, model, _, _ = second_order_pair
    w = iteration_matrix(model, build_gain(LearningLaw("p_transpose", 1.0), model))
    eig = np.sort(np.linalg.eigvalsh(w))
    assert eig[-1] == pytest.approx(0.9999951661, abs=1e-7)
    assert eig[0] == pytest.approx(-0.3054281513, abs=1e-7)


@pytest.mark.parametrize("pair", ["second_order_pair", "third_order_pair"])
def test_norm_optimal_gain_matches_the_scipy_positive_definite_solve(request, pair):
    _, model, _, _ = request.getfixturevalue(pair)
    p = model.p_matrix
    gram = p.T @ p + np.eye(p.shape[1])
    reference = scipy.linalg.solve(gram, p.T, assume_a="pos")
    gain = build_gain(LearningLaw("norm_optimal", 1.0), model).l_matrix
    assert np.max(np.abs(gain - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_factorization_calls_count_the_dense_gain_solve_not_the_zoh_solve(
    second_order_pair, factorization_calls
):
    _, model, _, _ = second_order_pair
    discretize_zoh(make_second_order(0.41, 23.0), 0.01)
    build_gain(LearningLaw("norm_optimal", 1.0), model)
    assert factorization_calls == ["solve"]


def test_norm_optimal_spectrum_stays_in_unit_interval(second_order_pair):
    _, model, _, _ = second_order_pair
    w = iteration_matrix(model, build_gain(LearningLaw("norm_optimal", 1.0), model))
    eig = np.linalg.eigvalsh(w)
    assert np.all(eig > 0.0)
    assert np.all(eig < 1.0)


def test_iteration_matrix_rejects_nonconformable_pair(
    second_order_pair, third_order_pair
):
    _, model2, _, _ = second_order_pair
    _, model3, _, _ = third_order_pair
    gain = build_gain(LearningLaw("p_transpose", 1.0), model3)
    with pytest.raises(DimensionError):
        iteration_matrix(model2, gain)


def test_stability_metrics_of_the_mismatched_plant(second_order_pair):
    # [DERIVED] applying the model-built p_transpose gain to the
    # lower-damping plant stays convergent, but only barely
    world, model, _, _ = second_order_pair
    gain = build_gain(LearningLaw("p_transpose", 1.0), model)
    w = iteration_matrix(world, gain)
    spectral_radius = np.max(np.abs(np.linalg.eigvals(w)))
    assert spectral_radius == pytest.approx(0.9999967935, rel=1e-9)
    assert np.linalg.norm(w, 2) == pytest.approx(0.9999969802, rel=1e-9)


@given(st.integers(0, 10_000), st.floats(0.1, 1.9))
def test_model_spectra_follow_the_singular_values(seed, phi):
    """eig(I - P L) is a fixed function of sigma(P) for every law.

    p_transpose gives 1 - phi sigma^2, partial_isometry 1 - phi sigma, and
    norm_optimal phi / (phi + sigma^2); this is the identity the closed-form
    iteration engine is built on.
    """
    rng = np.random.default_rng(seed)
    model, _ = random_stable_lifted(rng)
    sigma = np.linalg.svd(model.p_matrix, compute_uv=False)
    predictions = {
        "p_transpose": 1.0 - phi * sigma**2,
        "partial_isometry": 1.0 - phi * sigma,
        "norm_optimal": phi / (phi + sigma**2),
    }
    for kind in LAW_KINDS:
        w = iteration_matrix(model, build_gain(LearningLaw(kind, phi), model))
        got = np.sort(np.linalg.eigvalsh(0.5 * (w + w.T)))
        want = np.sort(predictions[kind])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-8 * scale
