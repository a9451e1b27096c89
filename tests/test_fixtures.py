"""Shipped fixtures: catalog, structure, and validity at the default window."""

import re

import pytest

from dgmodels.errors import ValidationError
from dgmodels.fixtures import FIXTURES, fixture
from dgmodels.linalg import Q


def test_catalog_names():
    assert sorted(FIXTURES) == [
        "almost_free_hopf",
        "cp2",
        "flow_s4",
        "nonformal",
        "s4_hopf",
        "semifree_suspension",
    ]


def test_unknown_fixture_raises():
    with pytest.raises(ValidationError) as exc:
        fixture("nope", 12)
    assert "unknown fixture" in str(exc.value)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_validates(name):
    data = fixture(name, 12)
    rep = data.validate()
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_small_windows_build_or_name_the_fixture(name):
    # below its least window a fixture raises one message that names it; from
    # there on every window builds and validates
    least = None
    for window in range(7):
        try:
            data = fixture(name, window)
        except ValidationError as exc:
            assert least is None
            match = re.fullmatch(rf"fixture '{name}' needs max_degree >= (\d+)", str(exc))
            assert match and window < int(match.group(1))
            continue
        least = window if least is None else least
        rep = data.validate()
        assert rep.ok, rep.failures
    assert least is not None


def test_s4_hopf_presentation():
    s4 = fixture("s4_hopf", 12)
    assert s4.algebra.names == ("a",)
    assert s4.algebra.degrees == (3,)
    assert s4.variant == "circle"
    assert not s4.fixed_set_empty
    assert s4.fixed_components == 2
    m = s4.relative_model
    assert m.gen_names == tuple(f"b{i}" for i in range(13))
    assert m.gen_degrees == (1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13)
    # d b_{n+2} = a * b_n, first two generators closed
    assert m.gen_diffs[0] == {} and m.gen_diffs[1] == {}
    for n in range(11):
        assert m.gen_diffs[n + 2] == {n: {(1,): Q(1)}}
    assert s4.e_prime.degree == 2
    assert s4.i_prime.degree == 0
    # e'(b0) = a, i'(b1) = a
    assert s4.e_prime.matrix(1).data == ((Q(1),),)
    assert s4.i_prime.matrix(3).data == ((Q(1), Q(0)),)


def test_ladder_length_follows_degree_window():
    small = fixture("s4_hopf", 8)
    assert small.relative_model.gen_degrees == (1, 3, 3, 5, 5, 7, 7, 9, 9)


def test_cp2_presentation():
    cp = fixture("cp2", 12)
    m = cp.relative_model
    assert m.gen_names == ("m1", "m3")
    assert m.gen_degrees == (1, 3)
    assert m.gen_diffs == ({}, {})
    assert cp.e_prime.degree == 2


def test_variant_fixtures():
    fl = fixture("flow_s4", 12)
    assert fl.variant == "isometric_flow"
    assert fl.e_prime.degree == 2
    sf = fixture("semifree_suspension", 12)
    assert sf.variant == "semifree_S3"
    assert sf.e_prime.degree == 4
    assert sf.relative_model.gen_degrees == (3, 7, 9, 13)
    af = fixture("almost_free_hopf", 12)
    assert af.variant == "circle"
    assert af.fixed_set_empty
    assert af.algebra.names == ("u", "v")
    assert af.algebra.degrees == (2, 3)


def test_nonformal_counterexample_shape():
    nf = fixture("nonformal", 12)
    assert nf.algebra.names == ("u",)
    assert nf.relative_model.gen_names == ("b",)
    assert nf.relative_model.gen_degrees == (2,)
