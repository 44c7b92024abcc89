"""Q_B and [D~]_hc built as dense cells against the LinearForm references."""

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from morgan.admissible import enumerate_row_configs, enumerate_tuples
from morgan.canonical import to_pencil_form
from morgan.errors import MorganError
from morgan.fileio import load_system
from morgan.squaring import _check_shift_identity, build_QB, dtilde_hc
from param_oracle import reference_build_QB, reference_cells, reference_dtilde_hc

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
INPUTS = ["example1", "example2", "nosol_7_66", "nosol_7_70", "nosol_7_112"]


def assert_matches_reference(pencil, sigma_tilde):
    """Cells, params and every row configuration's [D~]_hc equal the reference."""
    qb = build_QB(pencil.sigma, sigma_tilde)
    ref, params = reference_build_QB(pencil.sigma, sigma_tilde)
    index = {p: k + 1 for k, p in enumerate(params)}
    assert qb.params == params
    assert qb.cells == reference_cells(ref, index)
    for cfg in enumerate_row_configs(pencil.sigma, len(sigma_tilde)):
        expected = reference_cells(reference_dtilde_hc(pencil, qb, cfg), index)
        assert dtilde_hc(pencil, qb, cfg) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_every_admissible_tuple_matches_reference(name):
    sys_ = load_system(str(DATA / f"{name}.json"))
    pencil = to_pencil_form(sys_)
    tuples = enumerate_tuples(pencil.sigma, sys_.m)
    assert tuples
    for sigma_tilde in tuples:
        assert_matches_reference(pencil, sigma_tilde)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda s: tuple(sorted(s))),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_small_sigma_matches_reference(sigma, data):
    m = data.draw(st.integers(1, len(sigma)))
    tuples = enumerate_tuples(sigma, m)
    if not tuples:
        return
    sigma_tilde = data.draw(st.sampled_from(tuples))
    # dtilde_hc reads only the number of inputs of the pencil
    assert_matches_reference(SimpleNamespace(sigma=sigma, l=len(sigma)), sigma_tilde)


def test_shift_identity_rejects_one_corrupted_cell():
    sigma, sigma_tilde = (1, 1, 3, 4), (1, 4, 4)
    qb = build_QB(sigma, sigma_tilde)
    _check_shift_identity(sigma, sigma_tilde, qb.cells)
    fresh = len(qb.params) + 1
    # every entry of a chain of length >= 2 (rows 2..8) takes part in the identity
    for r in range(2, sum(sigma)):
        for c in range(qb.width):
            cells = [list(row) for row in qb.cells]
            cells[r][c] = fresh
            with pytest.raises(MorganError, match="shift identity"):
                _check_shift_identity(sigma, sigma_tilde, cells)
