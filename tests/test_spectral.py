"""Hamiltonian assembly, eigendecomposition, and gauge fixing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gateway_tomo import (
    DarkStateError,
    GaugeDegeneracyError,
    HamiltonianParams,
    InputError,
    NetworkGraph,
    SymmetricMatrix,
    assemble_single_excitation,
    eigendecompose,
    gauge_fix,
    params_from_json,
    params_to_json,
)
from util import random_params, random_tree_edges

SQ2 = math.sqrt(2.0)


def path3_system():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    params = HamiltonianParams({1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0})
    return g, params


# ------------------------------------------------------------- assembly


def test_assemble_places_fields_and_couplings():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)], signs={(2, 3): -1})
    params = HamiltonianParams(
        {1: 0.3, 2: -0.1, 3: 0.7}, {(1, 2): 0.8, (2, 3): -0.5}
    )
    sym = assemble_single_excitation(g, params)
    want = np.array([[0.3, 0.8, 0.0], [0.8, -0.1, -0.5], [0.0, -0.5, 0.7]])
    assert sym.nodes == (1, 2, 3)
    np.testing.assert_array_equal(sym.matrix, want)


def test_assemble_rejects_missing_field():
    g, params = path3_system()
    bad = HamiltonianParams({1: 0.0, 2: 0.0}, params.couplings)
    with pytest.raises(InputError, match="missing"):
        assemble_single_excitation(g, bad)


def test_assemble_rejects_zero_coupling():
    g, params = path3_system()
    bad = HamiltonianParams(params.local_fields, {(1, 2): 1.0, (2, 3): 0.0})
    with pytest.raises(InputError, match="nonzero"):
        assemble_single_excitation(g, bad)


def test_assemble_rejects_sign_mismatch():
    g, params = path3_system()
    bad = HamiltonianParams(params.local_fields, {(1, 2): 1.0, (2, 3): -1.0})
    with pytest.raises(InputError, match="sign"):
        assemble_single_excitation(g, bad)


def test_params_reject_nonfinite():
    with pytest.raises(InputError):
        HamiltonianParams({1: float("nan")}, {})


# ---------------------------------------------------------- params JSON


def test_params_json_roundtrip():
    params = HamiltonianParams(
        {1: 0.25, 2: -0.5}, {(1, 2): -0.75}
    )
    doc = json.loads(json.dumps(params_to_json(params)))
    assert params_from_json(doc) == params


def test_params_json_rejects_unknown_keys():
    for bad, match in [
        ({"b": {"1": 0.0}, "c": {}, "d": {}}, "parameter document has unknown keys"),
        ([{"b": {}, "c": {}}], "parameter document must be a JSON object"),
        ({"b": {"1": 0.0}}, 'parameter document needs "c"'),
        ({"b": [0.0], "c": {}}, 'parameter "b" must be a JSON object'),
        ({"b": {"1": 0.0}, "c": [1.0]}, 'parameter "c" must be a JSON object'),
        ({"b": {"1": None}, "c": {}}, 'parameter "b" at site 1 must be a number'),
        ({"b": {"1": [0.0]}, "c": {}}, 'parameter "b" at site 1 must be a number'),
        ({"b": {"1": 0.0, "01": 1.0}, "c": {}}, 'parameter "b" names site 1 more than'),
    ]:
        with pytest.raises(InputError, match=match):
            params_from_json(bad)


def test_params_json_rejects_reversed_edge_key():
    with pytest.raises(InputError, match="smaller site first"):
        params_from_json({"b": {"1": 0.0, "2": 0.0}, "c": {"2-1": 1.0}})


def test_params_json_rejects_garbled_keys():
    with pytest.raises(InputError):
        params_from_json({"b": {"one": 0.0}, "c": {}})
    with pytest.raises(InputError):
        params_from_json({"b": {"1": 0.0}, "c": {"1": 1.0}})


# ------------------------------------------------------ eigendecompose


def test_path3_spectrum_matches_hand_solution():
    g, params = path3_system()
    eig = eigendecompose(assemble_single_excitation(g, params))
    np.testing.assert_allclose(eig.eigenvalues, [-SQ2, 0.0, SQ2], atol=1e-12)
    fixed = gauge_fix(eig, 1)
    # hand-diagonalised uniform open chain of three sites
    np.testing.assert_allclose(
        fixed.site_amplitudes(1), [0.5, 1 / SQ2, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        fixed.site_amplitudes(2), [-1 / SQ2, 0.0, 1 / SQ2], atol=1e-12
    )
    np.testing.assert_allclose(
        fixed.site_amplitudes(3), [0.5, -1 / SQ2, 0.5], atol=1e-12
    )
    assert fixed.gauge_reference == 1
    assert fixed.spectral_range == pytest.approx(2 * SQ2)


def test_eigendecompose_rejects_asymmetry():
    mat = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(InputError, match="symmetric"):
        eigendecompose(SymmetricMatrix((1, 2), mat))
    with pytest.raises(InputError):
        eigendecompose(SymmetricMatrix((1, 2, 3), np.zeros((2, 2))))


def test_site_amplitudes_rejects_unknown_site():
    g, params = path3_system()
    eig = eigendecompose(assemble_single_excitation(g, params))
    with pytest.raises(InputError):
        eig.site_amplitudes(9)


@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
def test_eigendecompose_is_orthonormal_and_faithful(seed, n):
    rng = np.random.default_rng(seed)
    g = NetworkGraph.from_edges(random_tree_edges(rng, n))
    g, params = random_params(rng, g)
    sym = assemble_single_excitation(g, params)
    eig = eigendecompose(sym)
    v = eig.vectors
    np.testing.assert_allclose(v @ v.T, np.eye(n), atol=1e-10)
    rebuilt = v @ np.diag(eig.eigenvalues) @ v.T
    np.testing.assert_allclose(rebuilt, sym.matrix, atol=1e-10)
    assert np.all(np.diff(eig.eigenvalues) >= 0)


# ----------------------------------------------------------- gauge fix


def test_gauge_fix_makes_reference_row_positive():
    g, params = path3_system()
    eig = eigendecompose(assemble_single_excitation(g, params))
    for ref in (1, 3):
        fixed = gauge_fix(eig, ref)
        assert np.all(fixed.site_amplitudes(ref) > 0)


def test_gauge_fix_reports_dark_site():
    g, params = path3_system()
    eig = eigendecompose(assemble_single_excitation(g, params))
    # the middle site of the uniform chain is dark in the E=0 state
    with pytest.raises(DarkStateError) as info:
        gauge_fix(eig, 2)
    assert info.value.node == 2
    assert info.value.indices == [1]
    assert info.value.flag == "DarkState"


def test_gauge_fix_reports_degenerate_pairs():
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
    params = HamiltonianParams(
        {n: 0.0 for n in g.nodes}, {e: 1.0 for e in g.edges}
    )
    eig = eigendecompose(assemble_single_excitation(g, params))
    with pytest.raises(GaugeDegeneracyError) as info:
        gauge_fix(eig, 1)
    assert info.value.pairs == [(1, 2)]
    assert info.value.flag == "GaugeDegeneracy"


def test_gauge_fix_rejects_unknown_reference():
    g, params = path3_system()
    eig = eigendecompose(assemble_single_excitation(g, params))
    with pytest.raises(InputError):
        gauge_fix(eig, 7)
