"""Dense-correspondence contact transfer."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affkit import synthgen
from affkit.correspondence import (best_match_index, reference_contact_feature,
                                   transfer_contact)
from affkit.errors import ContractError, NoCorrespondenceError
from affkit.kernels import cosine_rows


# ---------------------------------------------------------------------------
# reference_contact_feature


def test_constant_map_interior():
    ref = np.full((5, 5, 3), 2.5)
    np.testing.assert_array_equal(
        reference_contact_feature(ref, (2, 2)), [2.5, 2.5, 2.5])


def test_corner_clipped_window():
    ref = np.arange(18, dtype=np.float64).reshape(3, 3, 2)
    got = reference_contact_feature(ref, (0, 0))
    # Hand-counted 2x2 clipped window at the top-left corner.
    expected = (ref[0, 0] + ref[0, 1] + ref[1, 0] + ref[1, 1]) / 4.0
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_single_pixel_map():
    ref = np.array([[[7.0, 8.0]]])
    np.testing.assert_array_equal(reference_contact_feature(ref, (0, 0)),
                                  [7.0, 8.0])


def test_out_of_bounds_contact():
    with pytest.raises(ContractError):
        reference_contact_feature(np.zeros((3, 3, 1)), (5, 0))


# ---------------------------------------------------------------------------
# transfer_contact


def _map_with_peak(h, w, c, peak, seed=0):
    """Smooth random map with a unique strong signature at `peak` (x, y)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 0.3, size=(h, w, c))
    x, y = peak
    m[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2, :] = 0.0
    m[y, x, :] = 10.0
    return m


def test_self_match():
    ref = _map_with_peak(9, 9, 3, (4, 5))
    assert transfer_contact(ref, (4, 5), ref) == (4, 5)


def test_translated_query():
    ref = _map_with_peak(12, 12, 2, (3, 4))
    query = np.zeros_like(ref)
    query[1:, 2:, :] = ref[:-1, :-2, :]  # shift by (+2, +1) with zero padding
    assert transfer_contact(ref, (3, 4), query) == (5, 5)


def test_synthetic_scene_recovers_handle():
    variant = synthgen.get_variant("noiseless")
    ref = synthgen.generate_scene("open", seed=11, variant=variant)
    query = synthgen.generate_scene("open", seed=17, variant=variant)
    got = transfer_contact(ref.image, ref.contact, query.image)
    assert got == (int(query.contact[0]), int(query.contact[1]))


def test_zero_reference_feature_raises():
    ref = np.zeros((5, 5, 2))
    query = np.ones((5, 5, 2))
    with pytest.raises(NoCorrespondenceError):
        transfer_contact(ref, (2, 2), query)


def test_all_zero_query_raises():
    ref = _map_with_peak(5, 5, 2, (2, 2))
    with pytest.raises(NoCorrespondenceError):
        transfer_contact(ref, (2, 2), np.zeros((5, 5, 2)))


def test_channel_mismatch():
    with pytest.raises(ContractError):
        transfer_contact(np.ones((3, 3, 2)), (1, 1), np.ones((3, 3, 3)))


@pytest.mark.parametrize("ref_shape,query_shape", [
    ((3, 3, 2), (0, 4, 2)), ((0, 0, 2), (3, 3, 2))])
def test_empty_map_rejected(ref_shape, query_shape):
    with pytest.raises(ContractError, match="empty feature map"):
        transfer_contact(np.ones(ref_shape), (1, 1), np.ones(query_shape))


def test_tie_breaks_row_major():
    ref = np.ones((3, 3, 1))
    # Every query pixel matches equally well; smallest row-major index wins.
    assert transfer_contact(ref, (1, 1), np.ones((4, 4, 1))) == (0, 0)


def test_output_within_query_bounds():
    ref = _map_with_peak(8, 8, 2, (7, 7))
    query = _map_with_peak(4, 6, 2, (5, 3), seed=1)
    x, y = transfer_contact(ref, (7, 7), query)
    assert 0 <= x < 6 and 0 <= y < 4


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_positive_rescaling_invariance(seed):
    rng = np.random.default_rng(seed)
    ref = _map_with_peak(7, 7, 3, (int(rng.integers(7)), int(rng.integers(7))),
                         seed=seed)
    query = rng.uniform(0.1, 1.0, size=(7, 7, 3))
    base = transfer_contact(ref, (3, 3), query)
    scales = rng.uniform(0.05, 20.0, size=(7, 7, 1))
    rescaled = transfer_contact(ref, (3, 3), query * scales)
    assert base == rescaled


def test_best_match_index_matches_brute_force():
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(10, 12, 4))
    feats[3, 4] = 0.0  # a zero-norm pixel on the way
    ref = rng.normal(size=4)
    sims = [v @ ref / (np.linalg.norm(v) * np.linalg.norm(ref)) if v.any()
            else -np.inf for v in feats.reshape(-1, 4)]
    assert best_match_index(feats, ref) == sims.index(max(sims))


# ---------------------------------------------------------------------------
# cosine_rows, the kernel shared with retrieval


@pytest.mark.parametrize("seed", range(5))
def test_cosine_rows_zero_norms_and_old_formula(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(48 * 48, 6)) * rng.uniform(1e-3, 1e3)
    rows[rng.choice(len(rows), size=40, replace=False)] = 0.0
    q = rng.normal(size=6)
    sims = cosine_rows(rows, q)
    zero = ~rows.any(axis=1)
    assert np.isneginf(sims[zero]).all() and np.isfinite(sims[~zero]).all()
    assert np.isneginf(cosine_rows(rows, np.zeros(6))).all()
    # The formula contact transfer computed before it shared this kernel.
    norms = np.sqrt((rows * rows).sum(axis=1))
    old = np.full(len(rows), -np.inf)
    ok = norms > 0
    old[ok] = rows[ok] @ q / (norms[ok] * float(np.linalg.norm(q)))
    assert sims.tobytes() == old.tobytes()


def _masked_cosine(rows, q):
    """The masked form `cosine_rows` had: it copied the nonzero rows."""
    norms = np.linalg.norm(rows, axis=1)
    qn = np.linalg.norm(q)
    sims = np.full(rows.shape[0], -np.inf)
    ok = norms > 0
    if qn > 0:
        sims[ok] = rows[ok] @ q / (norms[ok] * qn)
    return sims


def test_cosine_rows_bitwise_equals_masked_copy_without_warnings():
    rng = np.random.default_rng(7)
    n_emb = synthgen.N_CHANNELS + synthgen.N_ORIENT_BINS
    cases = []
    # Feature maps as contact transfer flattens them, with zero pixels.
    for h, w in [(48, 48), (16, 16), (11, 13), (1, 1), (3, 1)]:
        rows = rng.normal(size=(h * w, synthgen.N_CHANNELS))
        rows[rng.random(h * w) < 0.3] = 0.0
        cases.append((rows, rng.normal(size=synthgen.N_CHANNELS)))
    # Embedding subsets as retrieval passes them.
    for n in (1, 7, 300, 900):
        cases.append((rng.random((n, n_emb)), rng.random(n_emb)))
    for rows, q in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sims = cosine_rows(rows, q)
            zero_q = cosine_rows(rows, np.zeros_like(q))
        assert sims.tobytes() == _masked_cosine(rows, q).tobytes()
        assert np.isneginf(sims[~rows.any(axis=1)]).all()
        assert np.isneginf(zero_q).all()


def test_cosine_rows_wide_rows_with_zero_rows_match_masked_copy_closely():
    # From 8 columns on, OpenBLAS's matrix-vector product rounds the last
    # few rows of a matrix by another path. Which rows end the matrix
    # depends on whether zero rows were dropped first, and a cosine there
    # may move by an ulp.
    rng = np.random.default_rng(8)
    for d in (8, 16, 32):
        rows = rng.normal(size=(900, d))
        rows[rng.random(900) < 0.3] = 0.0
        q = rng.normal(size=d)
        sims = cosine_rows(rows, q)
        assert np.isneginf(sims[~rows.any(axis=1)]).all()
        np.testing.assert_allclose(sims, _masked_cosine(rows, q), rtol=0,
                                   atol=1e-15)
