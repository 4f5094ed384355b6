import cmath
import math
from fractions import Fraction

import pytest

from semigroupoid_kit import DomainError, Phase


def test_exact_quarter_values():
    assert Phase.from_turns(0, 1).value == 1
    assert Phase.from_turns(1, 4).value == 1j
    assert Phase.from_turns(1, 2).value == -1
    assert Phase.from_turns(3, 4).value == -1j


def test_generic_value_matches_exponential():
    ph = Phase.from_turns(1, 3)
    assert abs(ph.value - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_multiplication_adds_angles():
    a = Phase.from_turns(1, 3)
    b = Phase.from_turns(1, 2)
    assert (a * b).turns == Fraction(5, 6)
    assert (a * a * a).turns == 0


def test_conj_and_pow():
    a = Phase.from_turns(1, 3)
    assert (a * a.conj()).turns == 0
    assert (a ** 4).turns == Fraction(1, 3)
    assert (a ** -1).turns == Fraction(2, 3)


def test_roots_are_exact_and_distinct():
    lam = Phase.from_turns(1, 2)
    roots = lam.roots(3)
    assert len(roots) == 3
    assert len({r.turns for r in roots}) == 3
    for r in roots:
        assert (r ** 3).turns == lam.turns
    assert {r.turns for r in roots} == {
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(5, 6),
    }


def test_from_complex_checks_unimodularity():
    ph = Phase.from_complex(1j)
    assert ph.approx_eq(Phase.from_turns(1, 4))
    with pytest.raises(DomainError):
        Phase.from_complex(2.0)


def test_approx_phase_arithmetic():
    z = cmath.exp(0.7j)
    ph = Phase.from_complex(z)
    assert not ph.is_exact
    assert abs((ph * ph).value - z * z) < 1e-9
    assert abs(ph.conj().value - z.conjugate()) < 1e-12


def test_mixed_exact_approx_comparison():
    a = Phase.from_turns(1, 4)
    b = Phase.from_complex(1j)
    assert a.approx_eq(b) and b.approx_eq(a)


def test_json_round_trip():
    for ph in [Phase.from_turns(2, 5), Phase.from_complex(cmath.exp(1.1j))]:
        back = Phase.from_json(ph.to_json())
        assert ph.approx_eq(back)


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        Phase.from_turns(1, 0)


def test_every_exact_constructor_gives_one_object_per_reduced_turn():
    """from_turns, from_fraction, from_json, products, conj, powers, roots
    and atomic phase products of one turn give the same object, equal and
    hash-equal to a directly built phase of that turn, which is its own."""
    from semigroupoid_kit.atomic import _phase_product

    third = Phase.from_fraction(Fraction(1, 3))
    sixth, half = Phase.from_turns(1, 6), Phase.from_turns(-1, 2)
    for ph in (
        Phase.from_turns(2, 6),
        Phase.from_turns(-2, -6),
        Phase.from_turns(7, 3),
        Phase.from_fraction(Fraction(-5, 3)),
        Phase.from_json({"angle": {"num": 4, "den": 12}}),
        sixth * sixth,
        Phase.from_turns(2, 3).conj(),
        sixth**2,
        Phase.from_turns(1, 9) ** -6,
        Phase.one().roots(3)[1],
        _phase_product([sixth, half, sixth, half]),
        _phase_product([Phase.from_turns(1, 12)] * 4),
    ):
        assert ph is third
    direct = Phase(Fraction(1, 3))
    assert direct == third and hash(direct) == hash(third) and direct is not third
    assert Phase.one() is Phase.from_turns(0, 5) is (half * half) is Phase.from_fraction(Fraction(0))
    assert Phase.one() == Phase() and Phase.one().turns == 0


def test_direct_and_approximate_phases_are_never_shared():
    z = cmath.exp(0.7j)
    assert Phase(Fraction(1, 3)) is not Phase(Fraction(1, 3))
    assert Phase.from_complex(z) is not Phase.from_complex(z)
    approx = Phase.from_complex(1j)
    assert approx * approx is not approx * approx and approx.conj() is not approx.conj()
    assert approx**2 is not approx**2
    assert Phase.from_turns(1, 4) * approx is not Phase.from_turns(1, 4) * approx


def test_shared_phases_stay_correct_past_the_cache_size(rng):
    """Twice as many distinct turns as the cache holds: every constructor
    keeps giving the reduced turn in [0, 1), and so do the first turns
    again once they are evicted."""
    from semigroupoid_kit.phases import _exact

    size = _exact.cache_info().maxsize
    turns = [
        Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(2 * size)
    ]
    for q in turns + turns[:500]:
        want = q % 1
        a, b = Phase.from_fraction(q), Phase.from_turns(3 * q.numerator, 3 * q.denominator)
        assert a is b and a.turns == want and a.approx is None and 0 <= a.turns < 1
        assert a == Phase(want) and hash(a) == hash(Phase(want))
        assert (a * a).turns == (2 * q) % 1 and a.conj().turns == -q % 1
    assert _exact.cache_info().currsize == size


def test_from_fraction_of_a_non_fraction_keeps_the_unshared_result():
    for q, want in ((3, 0), (-2, 0), (0, 0), (1.25, 0.25), (-0.25, 0.75)):
        ph = Phase.from_fraction(q)
        assert ph == Phase(q % 1, None) and ph.turns == want
        assert type(ph.turns) is type(q) and ph is not Phase.from_fraction(q)


def test_phase_is_a_slotted_value_that_copies_and_pickles_equal():
    import copy
    import pickle

    for ph in (Phase.from_turns(1, 3), Phase.one(), Phase(Fraction(5, 4)),
               Phase.from_complex(cmath.exp(1.1j))):
        assert not hasattr(ph, "__dict__")
        with pytest.raises(AttributeError):
            ph.turns = Fraction(1, 2)
        for copied in (copy.copy(ph), copy.deepcopy(ph), pickle.loads(pickle.dumps(ph))):
            assert copied == ph and hash(copied) == hash(ph)
            assert copied.turns == ph.turns and copied.approx == ph.approx


def test_the_first_root_of_a_phase_is_the_phase():
    for ph in (Phase.from_turns(1, 3), Phase.from_complex(1j),
               Phase.from_complex(cmath.exp(2.5j)), Phase.from_complex(complex(0.6, 0.8))):
        assert ph.roots(1) == [ph] and ph.roots(1)[0] is ph


def test_a_phase_modulus_off_one_or_nan_is_refused():
    for z in (complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), 2, 0.5):
        with pytest.raises(DomainError) as err:
            Phase.from_complex(z)
        assert str(err.value) == "phase must be unimodular"
    assert Phase.from_complex(complex(1 + 5e-7, 0)).approx == 1


def test_root_order_must_be_positive():
    with pytest.raises(DomainError) as err:
        Phase.roots(Phase.one(), 0)
    assert (type(err.value), str(err.value), err.value.details) == (
        DomainError, "root order must be positive", {"p": 0}
    )
