import math
from fractions import Fraction
from itertools import permutations

import pytest

from freelie.cyclic import (
    CyclicClassFunction,
    chi_cyc,
    chi_cyc_oracle,
    chi_power,
    induce_frobenius,
    induce_oracle,
    pointwise_product,
    super_klyachko_char,
)
from freelie.exactalg import CycloElem, ResourceLimitError, binom
from freelie.partition import partitions_of
from freelie.superlie import super_brandt_char
from freelie.symfunc import SymFunc, frobenius_characteristic, to_p


def test_chi_power_sign_character():
    chi = chi_power(2, 1)
    assert chi.values == (
        CycloElem.from_rational(2, -1),
        CycloElem.from_rational(2, 1),
    )


def test_chi_power_trivial():
    for r in (1, 3, 5):
        chi = chi_power(r, 0)
        assert all(v == CycloElem.from_rational(r, 1) for v in chi.values)


def test_chi_power_fourth_root():
    chi = chi_power(4, 1)
    assert chi.at_power(2) == CycloElem.from_rational(4, -1)
    assert chi.at_power(4) == CycloElem.from_rational(4, 1)


def test_chi_cyc_values():
    chi = chi_cyc(2, 2)
    assert [v.rational_value() for v in chi.values] == [0, 2, 0, 6]
    # identity fixes every subset
    for n, m in ((3, 1), (2, 2), (4, 2)):
        assert chi_cyc(n, m).at_power(n + m).rational_value() == binom(n + m, m)
    # a full cycle fixes no proper nonempty subset
    assert chi_cyc(3, 1).at_power(1).rational_value() == 0


def test_chi_cyc_matches_oracle():
    for total in range(1, 11):
        for m in range(total + 1):
            n = total - m
            assert chi_cyc(n, m).values == chi_cyc_oracle(n, m).values, (n, m)


def test_chi_cyc_oracle_trivial_for_m_zero():
    for n in range(1, 7):
        chi = chi_cyc_oracle(n, 0)
        assert all(v.rational_value() == 1 for v in chi.values)


def test_chi_cyc_oracle_cap():
    with pytest.raises(ResourceLimitError):
        chi_cyc_oracle(17, 0)


def test_pointwise_product():
    r = 4
    triv = chi_power(r, 0)
    chi1 = chi_power(r, 1)
    assert pointwise_product(triv, chi1).values == chi1.values
    assert pointwise_product(chi1, chi1).values == chi_power(r, 2).values
    with pytest.raises(ValueError):
        pointwise_product(chi_power(2, 1), chi_power(3, 1))


def test_cyclic_class_function_rejects_bad_values():
    one = CycloElem.from_rational(3, 1)
    assert CyclicClassFunction(3, [one] * 3).values == (one,) * 3
    with pytest.raises(ValueError):
        CyclicClassFunction(3, (one, one))  # wrong length
    with pytest.raises(ValueError):
        CyclicClassFunction(2, (CycloElem.from_rational(3, 1),) * 2)  # wrong modulus
    with pytest.raises(ValueError):
        CyclicClassFunction(0, ())


def test_induce_frobenius_small():
    assert induce_frobenius(chi_power(2, 1)) == SymFunc(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )
    assert induce_frobenius(chi_power(2, 0)) == SymFunc(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    )


def test_induce_frobenius_is_classical_lie_character():
    for n in range(1, 9):
        assert induce_frobenius(chi_power(n, 1)) == super_brandt_char(n, 0)


def test_induce_depends_only_on_gcd():
    for r in range(1, 9):
        for k0 in range(1, r + 1):
            for k1 in range(1, r + 1):
                if math.gcd(k0, r) == math.gcd(k1, r):
                    assert induce_frobenius(chi_power(r, k0)) == induce_frobenius(
                        chi_power(r, k1)
                    )


def test_induce_oracle_identity_group():
    chi = chi_power(1, 0)
    result = induce_oracle(chi)
    assert result.n == 1 and result.values == {(1,): Fraction(1)}


def test_induce_oracle_matches_shortcut():
    for r in range(1, 7):
        for k0 in range(1, r + 1):
            chi = chi_power(r, k0)
            assert frobenius_characteristic(induce_oracle(chi)) == induce_frobenius(chi)


def _induce_by_three_tuple_conjugation(chi):
    """Reference induced character: x^-1 sigma x built by composing the
    inverse of x, sigma and x as three separate tuples."""
    r = chi.order

    def compose(a, b):
        return tuple(a[b[x]] for x in range(len(a)))

    def inverse(a):
        out = [0] * len(a)
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    generator = tuple((i + 1) % r for i in range(r))
    power_of = {}
    g = generator
    for k in range(1, r + 1):
        power_of[g] = k
        g = compose(generator, g)
    values = {}
    for mu in partitions_of(r):
        sigma, base = [], 0
        for part in mu:
            sigma.extend(base + (i + 1) % part for i in range(part))
            base += part
        sigma = tuple(sigma)
        acc = CycloElem.from_rational(r, 0)
        for x in permutations(range(r)):
            k = power_of.get(compose(compose(inverse(x), sigma), x))
            if k is not None:
                acc = acc + chi.at_power(k)
        values[mu] = acc.rational_value() / r
    return values


def test_induce_oracle_matches_three_tuple_conjugation():
    for r in range(1, 6):
        characters = [chi_power(r, k0) for k0 in range(r)]
        characters += [chi_cyc(n, r - n) for n in range(r + 1)]
        characters += [pointwise_product(chi_cyc(n, r - n), chi_power(r, 1)) for n in range(r + 1)]
        for chi in characters:
            assert induce_oracle(chi).values == _induce_by_three_tuple_conjugation(chi), (r, chi)


def test_induce_oracle_cap():
    with pytest.raises(ResourceLimitError):
        induce_oracle(chi_power(8, 1))


def test_non_galois_stable_values_raise():
    # values (omega, 1) on C_3 are not a rational combination of characters'
    # Galois orbits, so the induction sum cannot reduce to a rational
    r = 3
    values = (
        CycloElem.root_power(r, 1),
        CycloElem.from_rational(r, 1),
        CycloElem.from_rational(r, 1),
    )
    fake = CyclicClassFunction(r, values)
    with pytest.raises(ArithmeticError):
        induce_frobenius(fake)


def test_super_klyachko_examples():
    assert super_klyachko_char(1, 1) == SymFunc("p", {(1, 1): 1})
    assert super_klyachko_char(3, 0) == super_brandt_char(3, 0)
    assert super_klyachko_char(2, 2) == super_brandt_char(2, 2)
    with pytest.raises(ValueError):
        super_klyachko_char(0, 0)


def test_super_klyachko_matches_brandt_sweep():
    for total in range(1, 8):
        for m in range(total + 1):
            n = total - m
            assert super_klyachko_char(n, m) == super_brandt_char(n, m), (n, m)
