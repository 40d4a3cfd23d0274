"""Static contact transfer by dense per-pixel cosine correspondence."""

import numpy as np

from .errors import ContractError, NoCorrespondenceError
from .kernels import cosine_rows


def best_match_index(features, ref_feature):
    """Row-major index of the pixel with maximal cosine similarity, or -1."""
    flat = np.ascontiguousarray(features, dtype=np.float64).reshape(
        -1, features.shape[-1])
    ref = np.ascontiguousarray(ref_feature, dtype=np.float64)
    if np.linalg.norm(ref) == 0.0:
        raise NoCorrespondenceError("reference contact feature has zero norm")
    sims = cosine_rows(flat, ref)
    if not np.isfinite(sims).any():
        return -1
    return int(np.argmax(sims))  # first max == smallest row-major index


def reference_contact_feature(ref_map, contact):
    """Border-clipped 3x3 mean feature around the contact pixel (x, y)."""
    h, w = ref_map.shape[:2]
    x, y = int(round(contact[0])), int(round(contact[1]))
    if not (0 <= x < w and 0 <= y < h):
        raise ContractError(f"contact ({x}, {y}) outside {w}x{h} map")
    window = ref_map[max(y - 1, 0):min(y + 2, h), max(x - 1, 0):min(x + 2, w)]
    return window.reshape(-1, ref_map.shape[2]).mean(axis=0)


def transfer_contact(ref_map, ref_contact, query_map):
    """Contact pixel (x, y) in the query with maximal feature cosine.

    Zero-norm query pixels never match; ties break on smallest row-major
    index, so the result is independent of any scan parallelization.
    """
    if ref_map.shape[-1] != query_map.shape[-1]:
        raise ContractError(
            f"channel mismatch: {ref_map.shape[-1]} vs {query_map.shape[-1]}")
    if query_map.size == 0 or ref_map.size == 0:
        raise ContractError("empty feature map")
    ref_feature = reference_contact_feature(ref_map, ref_contact)
    idx = best_match_index(query_map, ref_feature)
    if idx < 0:
        raise NoCorrespondenceError("every query pixel has zero-norm features")
    w = query_map.shape[1]
    return (idx % w, idx // w)
