"""Dense-correspondence contact transfer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affkit import synthgen
from affkit.correspondence import (best_match_index, reference_contact_feature,
                                   transfer_contact)
from affkit.errors import ContractError, NoCorrespondenceError


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
