import itertools

import pytest

from gnetcode import Field, default_modulus
from gnetcode import field as field_module
from oracles import polynomial_tables


def gf4():
    return Field(2, 2, modulus=(1, 1, 1))


def test_prime_field_examples():
    gf3 = Field(3)
    assert gf3.add(1, 2) == 0
    assert gf3.mul(2, 2) == 1
    assert gf3.inv(2) == 2
    gf2 = Field(2)
    assert gf2.add(1, 1) == 0
    assert gf2.inv(1) == 1


def test_gf5_inverse_matches_scan():
    gf5 = Field(5)
    # independent oracle: scan all elements for the product 1
    scan = {a: next(b for b in range(1, 5) if gf5.mul(a, b) == 1) for a in range(1, 5)}
    assert gf5.inv(3) == 2
    for a, b in scan.items():
        assert gf5.inv(a) == b


def test_gf4_extension_arithmetic():
    f = gf4()
    x = f.element((0, 1))
    x1 = f.element((1, 1))
    one = f.element((1, 0))
    assert f.add(x, x1) == one
    assert f.mul(x, x) == x1  # x^2 reduces to x+1
    assert f.mul(x, one) == x


def test_enumeration_order_and_stability():
    assert Field(2).elements() == [0, 1]
    assert Field(3).elements() == [0, 1, 2]
    f = gf4()
    elems = f.elements()
    assert elems == [0, 1, 2, 3]
    assert [f.coeffs(e) for e in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert gf4().elements() == elems  # stable across instances
    assert len(set(elems)) == f.q


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    f = Field(p, k)
    q = f.q
    assert q <= 16
    for a, b in itertools.product(range(q), repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(range(q), repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


def _every_field(q_max):
    """(p, k, modulus) of every GF(p^k) with p^k <= q_max, the extension
    fields once per monic irreducible modulus."""
    out = []
    for p in filter(field_module.is_prime, range(2, q_max + 1)):
        out.append((p, 1, None))
        for k in itertools.takewhile(lambda k: p ** k <= q_max, itertools.count(2)):
            for low in itertools.product(range(p), repeat=k):
                modulus = (*reversed(low), 1)
                if field_module.is_irreducible(modulus, p):
                    out.append((p, k, modulus))
    return out


def _check_tables(f):
    add, mul = polynomial_tables(f)
    assert f.add_table == add
    assert f.mul_table == mul
    assert [f.neg(a) for a in range(f.q)] == [row.index(0) for row in add]
    assert [f.inv(a) for a in range(1, f.q)] == [row.index(1) for row in mul[1:]]


@pytest.mark.parametrize("p, k, modulus", [
    pytest.param(p, k, m, id=f"GF({p}^{k})" + (f"-{','.join(map(str, m))}" if m else ""))
    for p, k, m in _every_field(64)])
def test_tables_match_polynomial_arithmetic(p, k, modulus):
    _check_tables(Field(p, k, modulus))


def test_gf256_tables_match_polynomial_arithmetic():
    f = Field(2, 8)  # the default cap, and a modulus under which x is not primitive
    assert f.modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    _check_tables(f)


def test_default_modulus_selection():
    assert default_modulus(2, 2) == (1, 1, 1)      # x^2 + x + 1
    assert default_modulus(2, 3) == (1, 1, 0, 1)   # x^3 + x + 1
    assert default_modulus(3, 2) == (1, 0, 1)      # x^2 + 1
    f = Field(2, 3)
    assert f.modulus == (1, 1, 0, 1)


def test_construction_errors():
    with pytest.raises(ValueError, match="not prime"):
        Field(4)
    with pytest.raises(ValueError, match="degree"):
        Field(2, 0)
    with pytest.raises(ValueError, match="reducible"):
        Field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="monic"):
        Field(3, 2, modulus=(1, 0, 2))
    with pytest.raises(ValueError, match="cap"):
        Field(2, 9)
    assert Field(2, 9, max_size=1024).q == 512  # cap is overridable


@pytest.mark.parametrize("modulus", [(1, 0, 1), (0, 1)])
def test_prime_field_takes_no_modulus(modulus):
    with pytest.raises(ValueError, match=r"GF\(3\) is a prime field and takes no modulus"):
        Field(3, 1, modulus=modulus)


def test_size_cap_checked_before_any_other_work(monkeypatch):
    """A huge characteristic or degree is rejected by the cap alone: no
    primality trial division, and no power with millions of digits."""
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) ran before the cap check")
    monkeypatch.setattr(field_module, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="cap"):
        Field(2**61 - 1)
    with pytest.raises(ValueError, match="cap"):
        Field(2, 10**8)


def test_element_validation():
    gf3 = Field(3)
    with pytest.raises(ValueError):
        gf3.add(1, 3)
    with pytest.raises(ValueError):
        gf3.mul(-1, 2)
    with pytest.raises(ZeroDivisionError):
        gf3.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf3.div(1, 0)


def test_coeffs_roundtrip():
    f = Field(3, 2)
    for a in range(f.q):
        assert f.element(f.coeffs(a)) == a
    with pytest.raises(ValueError):
        f.element((3, 0))


def test_field_equality_and_repr():
    assert Field(3) == Field(3)
    assert Field(2, 2) == Field(2, 2, modulus=(1, 1, 1))
    assert Field(2) != Field(3)
    assert "GF(3)" in repr(Field(3))
    assert "GF(4)" in repr(Field(2, 2))
